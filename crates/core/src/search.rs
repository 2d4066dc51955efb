//! Certified bound-guided best-first search over design grids.
//!
//! The exhaustive sweep ([`Explorer::explore`]) simulates every candidate;
//! the pruned Pareto sweep (`pareto.rs`) simulates only frontier
//! survivors. This module goes one step further for *single-objective*
//! selection: a best-first branch-and-bound that orders candidates by an
//! admissible lower bound on the active objective and simulates a design
//! only when its bound still beats the incumbent. On the paper grid it
//! reproduces `select::min_energy` / `select::min_cycles` bit-for-bit; on
//! expansive grids of 10⁶–10⁷ candidates ([`DesignSpace::expansive`]) it
//! returns an incumbent plus a **certified gap** without ever
//! materializing the grid.
//!
//! # Bound construction
//!
//! The bounds are the same admissible expressions the Pareto pruner uses
//! (see `pareto.rs` for the full argument): scanning a `(T, L)` pair's
//! untiled trace once yields the exact line-level access count `n`, the
//! distinct-line (compulsory-miss) floor `m`
//! ([`analysis::TraceFootprint`]), and the exact address-bus switching
//! `Add_bs`. A cold cache must miss every distinct line once regardless
//! of size, associativity, tiling or replacement policy — tiling permutes
//! the address multiset but never changes it (`loopir::transform::tile_all`)
//! — so evaluating the *same* cycle/energy expressions the evaluator
//! applies at `(hits = n − m, misses = m)` never overestimates:
//!
//! * per-leaf: `CycleModel::cycles_from_counts(n − m, m, S, L, B)` and
//!   `(n − m)·E_hit + m·E_miss`, with `Add_bs` exact for `B = 1` and
//!   lower-bounded by 0 otherwise;
//! * per-group (one node per `(T, L)` pair): the same expressions at the
//!   pair's minimum valid associativity and tiling — every cycle term is
//!   non-decreasing in both, and the energy terms do not depend on them.
//!
//! # Certification
//!
//! Candidates are totally ordered by the *selection key* — exactly the
//! comparator of `select::min_energy` / `min_cycles` (objective, then the
//! other metric, then cache size) extended with the sweep index so ties
//! resolve to the first design in sweep order, which is precisely what
//! `Iterator::min_by` keeps. Bound keys use the bounded metrics in the
//! same slots: each float component never overestimates its true
//! counterpart and the integer tail is identical, so a bound key is
//! lexicographically `≤` the true key. The open set (a min-heap of group
//! and leaf nodes) therefore certifies: when the heap minimum's key is
//! `≥` the incumbent's key, **no** open candidate — expanded or not — can
//! beat the incumbent, even on tie-breaks, and the search terminates with
//! gap 0. Because the first key component is the objective itself, the
//! heap minimum's first component is at any moment a valid lower bound on
//! every open candidate's objective — that is the anytime certificate.
//!
//! # Anytime semantics
//!
//! A deadline ([`SearchOptions::deadline`]) or a relative gap target
//! ([`SearchOptions::gap`]) stops the search early with the incumbent and
//! `lower_bound = min(incumbent, heap minimum, beam discards)` — the gap
//! is `incumbent − lower_bound ≥ 0` by construction and never *under*-
//! reports the true gap. A bounded beam ([`SearchOptions::beam`]) keeps
//! only the best-bounded `W` leaves per expansion; the discarded leaves'
//! minimum bound is folded into `lower_bound`, so a beam search's
//! certificate stays sound (it can only widen the reported gap).
//!
//! # Leaf batches
//!
//! Every leaf of one trace key `(layout id, tiling)` replays the same
//! trace, so leaves are simulated in batches: the first pop of a key
//! that needs a record evaluates, in one `memsim::ReplayBank` scan, every
//! open leaf of that key whose bound key still beats the incumbent, and
//! keeps the records until their own pops. Bank records are bit-identical
//! to evaluating each design alone, and the best-first loop pops, prunes
//! and counts exactly as it would without batching, so the incumbent and
//! its certificate do not change. Records a batch computed but no pop
//! consumed are counted in `SweepTelemetry::designs_speculative`.

use crate::analytic::{gate_admits, kernel_footprint_bytes, try_group_records};
use crate::arbitrate::arbitrate_layouts;
use crate::explore::{DesignSpace, Explorer, SweepHists};
use crate::metrics::{collect_reads, CacheDesign, PlanSource, Record, PLAN_CHUNK_EVENTS};
use crate::obs::{FieldValue, Span};
use crate::pareto::{layout_bounds, BoundInputs};
use crate::sweep::stream_into;
use crate::telemetry::SweepTelemetry;
use loopir::transform::tile_all;
use loopir::{DataLayout, Kernel, TraceGen};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::fmt;
use std::ops::ControlFlow;
use std::str::FromStr;
use std::sync::atomic::Ordering as AtomicOrdering;
use std::time::{Duration, Instant};

/// The scalar objective a search minimizes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Objective {
    /// Minimize energy (nJ); ties broken by cycles, then cache size, then
    /// sweep order — the [`crate::select::min_energy`] comparator.
    Energy,
    /// Minimize cycles; ties broken by energy, then cache size, then
    /// sweep order — the [`crate::select::min_cycles`] comparator.
    Cycles,
    /// Minimize `energy_weight · E + cycles_weight · C`; ties broken by
    /// energy, then cycles, then cache size, then sweep order. Weights
    /// must be finite, non-negative and not both zero.
    Weighted {
        /// Weight on energy (nJ).
        energy_weight: f64,
        /// Weight on cycles.
        cycles_weight: f64,
    },
}

impl Objective {
    /// The scalar cost of a record under this objective.
    pub fn cost(&self, r: &Record) -> f64 {
        self.cost_of(r.energy_nj, r.cycles)
    }

    fn cost_of(&self, energy: f64, cycles: f64) -> f64 {
        match *self {
            Objective::Energy => energy,
            Objective::Cycles => cycles,
            Objective::Weighted {
                energy_weight,
                cycles_weight,
            } => energy_weight * energy + cycles_weight * cycles,
        }
    }

    /// The full selection key at `(energy, cycles)` for a design with the
    /// given cache size and sweep index. Used both for true records and
    /// for lower bounds — componentwise-bounded floats with an identical
    /// integer tail give a lexicographically bounded key.
    fn key_of(&self, energy: f64, cycles: f64, cache: usize, index: usize) -> Key {
        let floats = match *self {
            Objective::Energy => [energy, cycles, 0.0],
            Objective::Cycles => [cycles, energy, 0.0],
            Objective::Weighted { .. } => [self.cost_of(energy, cycles), energy, cycles],
        };
        Key {
            floats,
            cache,
            index,
        }
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Objective::Energy => write!(f, "energy"),
            Objective::Cycles => write!(f, "cycles"),
            Objective::Weighted {
                energy_weight,
                cycles_weight,
            } => write!(f, "weighted(energy={energy_weight},cycles={cycles_weight})"),
        }
    }
}

impl FromStr for Objective {
    type Err = String;

    /// Parses `energy`, `cycles`, or `weighted=WE,WC` (e.g.
    /// `weighted=1,0.001`).
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "energy" => return Ok(Objective::Energy),
            "cycles" => return Ok(Objective::Cycles),
            _ => {}
        }
        if let Some(spec) = s.strip_prefix("weighted=") {
            let parse = |w: &str| {
                w.parse::<f64>()
                    .map_err(|_| format!("invalid objective weight '{w}'"))
            };
            if let Some((we, wc)) = spec.split_once(',') {
                let o = Objective::Weighted {
                    energy_weight: parse(we)?,
                    cycles_weight: parse(wc)?,
                };
                o.validate()?;
                return Ok(o);
            }
            return Err(format!("expected weighted=WE,WC, got 'weighted={spec}'"));
        }
        Err(format!(
            "unknown objective '{s}' (expected energy, cycles, or weighted=WE,WC)"
        ))
    }
}

impl Objective {
    /// Checks weighted objectives for finite, non-negative, not-all-zero
    /// weights (the admissibility argument needs non-negative weights).
    pub fn validate(&self) -> Result<(), String> {
        if let Objective::Weighted {
            energy_weight,
            cycles_weight,
        } = *self
        {
            let ok = energy_weight.is_finite()
                && cycles_weight.is_finite()
                && energy_weight >= 0.0
                && cycles_weight >= 0.0
                && energy_weight + cycles_weight > 0.0;
            if !ok {
                return Err(format!(
                    "weighted objective needs finite non-negative weights with a \
                     positive sum, got energy={energy_weight} cycles={cycles_weight}"
                ));
            }
        }
        Ok(())
    }
}

/// Knobs of a bound-guided search.
#[derive(Clone, Copy, Debug)]
pub struct SearchOptions {
    /// Objective to minimize.
    pub objective: Objective,
    /// Beam width: maximum surviving leaves kept per group expansion,
    /// best-bound first. `None` (the default) keeps every survivor —
    /// exact search. Discarded leaves stay in the certificate via
    /// [`SearchOutcome::lower_bound`].
    pub beam: Option<usize>,
    /// Relative gap target: stop once `incumbent − lower_bound ≤
    /// gap · incumbent`. `0.0` (the default) certifies the exact optimum
    /// including sweep-order tie-breaks.
    pub gap: f64,
    /// Wall-clock budget; on expiry the search stops at the next node
    /// boundary with an anytime result ([`SearchOutcome::cancelled`]).
    pub deadline: Option<Duration>,
}

impl Default for SearchOptions {
    fn default() -> Self {
        SearchOptions {
            objective: Objective::Energy,
            beam: None,
            gap: 0.0,
            deadline: None,
        }
    }
}

/// Result of a bound-guided search: the incumbent plus its certificate.
#[derive(Clone, Debug)]
pub struct SearchOutcome {
    /// The objective that was minimized.
    pub objective: Objective,
    /// Best simulated design, if any was simulated before the stop.
    pub incumbent: Option<Record>,
    /// Sweep index of the incumbent — its position in
    /// [`DesignSpace::designs`] order.
    pub incumbent_index: Option<usize>,
    /// Certified lower bound on the objective over the *entire* grid:
    /// every candidate — simulated, pruned, open, or beam-discarded — has
    /// true cost `≥ lower_bound`.
    pub lower_bound: f64,
    /// `true` iff the incumbent's cost is certified optimal (gap 0). With
    /// an unbounded beam the incumbent is additionally the bit-exact
    /// sweep-order tie-break winner, i.e. exactly what
    /// `select::min_energy` / `min_cycles` returns on the full sweep.
    pub complete: bool,
    /// `true` iff the deadline expired before the stop condition held.
    pub cancelled: bool,
    /// Total candidates in the grid ([`DesignSpace::design_count`]).
    pub candidates: usize,
    /// Group nodes expanded into leaves.
    pub expansions: u64,
    /// Leaves discarded by the beam (still covered by `lower_bound`).
    pub beam_discarded: u64,
    /// Sweep-style counters and phase timings (`designs_evaluated` is the
    /// number of simulations the bounds could not avoid;
    /// `designs_speculative` counts the batched ones never consumed).
    pub telemetry: SweepTelemetry,
}

impl SearchOutcome {
    /// The incumbent's objective cost (`+∞` with no incumbent).
    pub fn incumbent_cost(&self) -> f64 {
        self.incumbent
            .as_ref()
            .map(|r| self.objective.cost(r))
            .unwrap_or(f64::INFINITY)
    }

    /// Certified absolute gap: `incumbent − lower_bound`. `0` on
    /// completion (and for a trivially complete empty grid); `+∞` when an
    /// early stop left no incumbent.
    pub fn gap(&self) -> f64 {
        match &self.incumbent {
            Some(r) => (self.objective.cost(r) - self.lower_bound).max(0.0),
            None if self.complete => 0.0,
            None => f64::INFINITY,
        }
    }

    /// Certified relative gap: `gap / incumbent` (`0` when the gap is 0).
    pub fn relative_gap(&self) -> f64 {
        let gap = self.gap();
        if gap <= 0.0 {
            return 0.0;
        }
        let cost = self.incumbent_cost();
        if cost > 0.0 {
            gap / cost
        } else {
            f64::INFINITY
        }
    }
}

/// Total selection order: objective floats lexicographically, then cache
/// size, then sweep index (unique, so the order is total and matches
/// "first wins" of `Iterator::min_by` on full metric ties).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Key {
    floats: [f64; 3],
    cache: usize,
    index: usize,
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.floats.iter().zip(&other.floats) {
            match a.partial_cmp(b).expect("objective costs are finite") {
                Ordering::Equal => {}
                o => return o,
            }
        }
        (self.cache, self.index).cmp(&(other.cache, other.index))
    }
}

/// One prepared `(T, L)` pair: its valid axes, sweep-index base, shared
/// layout/trace identity, and bound inputs.
struct PairInfo {
    t: usize,
    l: usize,
    assocs: Vec<usize>,
    tilings: Vec<u64>,
    /// Sweep index of the pair's first design.
    base: usize,
    layout_id: usize,
    conflict_free: bool,
    bounds: BoundInputs,
}

impl PairInfo {
    /// The design at sweep index `index` of this pair: the order of
    /// [`DesignSpace::designs`] — associativity, then tiling, then
    /// replacement policy, then write policy.
    fn design(&self, space: &DesignSpace, index: usize) -> CacheDesign {
        let writes = space.write_policies.len();
        let policies = space.replacements.len() * writes;
        let offset = index - self.base;
        let geometry = offset / policies;
        let (s, tile) = (geometry / self.tilings.len(), geometry % self.tilings.len());
        let (r, w) = (offset % policies / writes, offset % writes);
        CacheDesign::new(self.t, self.l, self.assocs[s], self.tilings[tile])
            .with_replacement(space.replacements[r])
            .with_write_policy(space.write_policies[w])
    }

    /// The trace key `(layout id, tiling)` of the design at `index`.
    fn trace_key(&self, space: &DesignSpace, index: usize) -> (usize, u64) {
        (self.layout_id, self.design(space, index).tiling)
    }
}

/// A heap node: an unexpanded `(T, L)` group or a single bounded leaf.
struct Node {
    key: Key,
    kind: NodeKind,
}

enum NodeKind {
    /// Index into the prepared pair table.
    Group(usize),
    /// A concrete design awaiting simulation, from this pair; the key's
    /// sweep index names the design ([`PairInfo::design`]).
    Leaf(usize),
}

/// A bounded leaf from a group expansion, waiting in the heap and, under
/// its trace key, in [`LeafBatches::open`]. Leaves are the bulk of a
/// search's memory, so they carry no design: the pair and the key's
/// sweep index name it.
struct OpenLeaf {
    key: Key,
    pair: usize,
}

/// The search's leaf evaluator. Leaves of one trace key `(layout id,
/// tiling)` replay the same trace, whichever `(T, L)` pair they came
/// from, so the first pop of a key evaluates every open leaf of that key
/// whose bound still beats the incumbent in one bank scan. Records of
/// leaves the heap has not popped yet wait in
/// [`records`](Self::records) until their pop consumes them or prunes
/// them; a record never consumed is speculative work.
struct LeafBatches<'a> {
    explorer: &'a Explorer,
    kernel: &'a Kernel,
    space: &'a DesignSpace,
    pairs: &'a [PairInfo],
    layouts: &'a [DataLayout],
    /// The analytic fast path's capacity gate
    /// ([`kernel_footprint_bytes`]).
    footprint: u64,
    /// Tiled kernels by tiling `B`.
    tiled: HashMap<u64, Kernel>,
    /// Open leaves not yet batched, by trace key.
    open: HashMap<(usize, u64), Vec<OpenLeaf>>,
    /// Batched records awaiting their leaf's pop, by sweep index.
    records: HashMap<usize, Record>,
}

impl LeafBatches<'_> {
    /// Evaluates trace key `trace`'s batch: every open leaf of the key
    /// whose bound key beats `inc_key`. The others can never beat the
    /// incumbent again, so they leave the index too (their pop prunes
    /// them). The key's plan is compiled here; when the analytic gate
    /// admits the batch its trace is materialized and the analytic path
    /// tried first, else one `ReplayBank` scan streams the plan chunk by
    /// chunk. Records are bit-identical to evaluating each leaf alone, as
    /// the bank and analytic paths guarantee.
    fn evaluate(
        &mut self,
        trace: (usize, u64),
        inc_key: Option<Key>,
        telemetry: &mut SweepTelemetry,
        hists: &SweepHists,
    ) {
        let batch: Vec<OpenLeaf> = self
            .open
            .remove(&trace)
            .unwrap_or_default()
            .into_iter()
            .filter(|leaf| inc_key.is_none_or(|k| leaf.key < k))
            .collect();
        let designs: Vec<(CacheDesign, bool)> = batch
            .iter()
            .map(|leaf| {
                let pair = &self.pairs[leaf.pair];
                (pair.design(self.space, leaf.key.index), pair.conflict_free)
            })
            .collect();
        let (layout_id, tiling) = trace;
        let trace_start = Instant::now();
        let kernel = self.kernel;
        let tiled = self
            .tiled
            .entry(tiling)
            .or_insert_with(|| tile_all(kernel, tiling));
        let plan = TraceGen::new(tiled, &self.layouts[layout_id]);
        telemetry.traces_generated += 1;
        telemetry.trace_time += trace_start.elapsed();

        let sim_start = Instant::now();
        let evaluator = &self.explorer.evaluator;
        let mut analytic = None;
        let mut n = 0;
        if self.explorer.analytic && gate_admits(self.footprint, &designs) {
            let events = collect_reads(plan.clone());
            n = events.len() as u64;
            telemetry.trace_events_generated += n;
            analytic = try_group_records(evaluator, self.footprint, &designs, &events);
        }
        let analytic_hit = analytic.is_some();
        let mut scalar = 0;
        let records = analytic.unwrap_or_else(|| {
            let mut bank = evaluator.replay_bank(&designs);
            let mut source = PlanSource::from_plan(plan);
            let pass = stream_into(&mut bank, &mut source, PLAN_CHUNK_EVENTS, |_| {
                ControlFlow::Continue(())
            })
            .expect("a plan source never fails");
            n = pass.events;
            telemetry.trace_events_generated += n;
            telemetry.generate_time += pass.fill_time;
            scalar = bank.scalar_lane_events();
            evaluator.evaluate_bank_reports(&designs, &bank.finish())
        });
        let dur = sim_start.elapsed();
        let width = designs.len();
        telemetry.simulate_time += dur;
        telemetry.fused_groups += 1;
        telemetry.max_bank_width = telemetry.max_bank_width.max(width);
        telemetry.trace_events_replayed += n * width as u64;
        telemetry.scalar_lane_events += scalar;
        if analytic_hit {
            telemetry.analytic_groups += 1;
        } else {
            telemetry.simulated_groups += 1;
            telemetry.trace_events_scanned += n;
            hists.scan.record(dur);
        }
        if let Some(o) = self.explorer.obs.as_deref() {
            o.counters.add_done(width as u64);
            if !analytic_hit {
                o.counters.add_events(n);
            }
            o.unit(
                "simulate",
                if analytic_hit { "analytic" } else { "scan" },
                0,
                dur,
                &[
                    ("events", FieldValue::U64(n)),
                    ("width", FieldValue::U64(width as u64)),
                    ("fresh", FieldValue::U64(width as u64)),
                    ("scalar", FieldValue::U64(scalar)),
                ],
            );
        }
        self.records
            .extend(batch.iter().map(|leaf| leaf.key.index).zip(records));
    }
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Node {}

impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

impl Explorer {
    /// Bound-guided best-first search for the grid's single-objective
    /// optimum, with a certified optimality gap (see the module docs).
    ///
    /// With default options (unbounded beam, gap target 0, no deadline)
    /// the result is `complete` and the incumbent is bit-identical to
    /// running [`Explorer::explore`] and selecting with
    /// [`crate::select::min_energy`] / [`crate::select::min_cycles`].
    ///
    /// # Panics
    ///
    /// Panics on an invalid weighted objective
    /// (see [`Objective::validate`]).
    pub fn search(
        &self,
        kernel: &Kernel,
        space: &DesignSpace,
        options: &SearchOptions,
    ) -> SearchOutcome {
        if let Err(e) = options.objective.validate() {
            panic!("{e}");
        }
        let objective = options.objective;
        let start = Instant::now();
        let deadline_at = options.deadline.map(|d| start + d);
        let obs = self.obs.as_deref();
        let search_span = Span::begin(obs, "search");
        let mut telemetry = SweepTelemetry::default();
        let hists = SweepHists::default();

        // ---- Prepare: pairs, layouts, traces, bound inputs. -------------
        let mut pairs: Vec<PairInfo> = Vec::new();
        let mut base = 0usize;
        let policies = space.replacements.len() * space.write_policies.len();
        for &t in &space.cache_sizes {
            for &l in &space.line_sizes {
                if l > t || t / l < space.min_lines {
                    continue;
                }
                let lines = (t / l) as u64;
                let assocs: Vec<usize> = space
                    .assocs
                    .iter()
                    .copied()
                    .filter(|&s| s as u64 <= lines)
                    .collect();
                let tilings: Vec<u64> = space
                    .tilings
                    .iter()
                    .copied()
                    .filter(|&b| b <= lines)
                    .collect();
                let leaves = assocs.len() * tilings.len() * policies;
                if leaves == 0 {
                    continue;
                }
                pairs.push(PairInfo {
                    t,
                    l,
                    assocs,
                    tilings,
                    base,
                    layout_id: usize::MAX,
                    conflict_free: false,
                    bounds: BoundInputs {
                        accesses: 0,
                        min_misses: 0,
                        add_bs: 0.0,
                    },
                });
                base += leaves;
            }
        }
        let candidates = base;
        debug_assert_eq!(candidates, space.design_count());

        let workers = self.worker_count(pairs.len());
        let phase_start = Instant::now();
        let mut unique_layouts: Vec<DataLayout> = Vec::new();
        let tl: Vec<(usize, usize)> = pairs.iter().map(|p| (p.t, p.l)).collect();
        let arbitrated = arbitrate_layouts(
            &self.evaluator,
            kernel,
            &tl,
            workers,
            obs,
            Some(&hists),
            &mut unique_layouts,
        )
        .unwrap_or_else(|message| panic!("sweep worker panicked: {message}"));
        for (pair, (id, conflict_free)) in pairs.iter_mut().zip(arbitrated) {
            pair.layout_id = id;
            pair.conflict_free = conflict_free;
        }
        telemetry.layouts_computed += pairs.len();
        telemetry.layout_time = phase_start.elapsed();

        // Bound inputs per (layout id, L), from each layout's untiled
        // trace; one layout's trace is resident at a time.
        let mut lines_by_layout: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for pair in &pairs {
            let lines = lines_by_layout.entry(pair.layout_id).or_default();
            if !lines.contains(&pair.l) {
                lines.push(pair.l);
            }
        }
        let mut tiled: HashMap<u64, Kernel> = HashMap::new();
        let mut bound_inputs: HashMap<(usize, usize), BoundInputs> = HashMap::new();
        for (&layout_id, lines) in &lines_by_layout {
            let bound_start = Instant::now();
            let base_kernel = tiled.entry(1).or_insert_with(|| tile_all(kernel, 1));
            let (inputs, events) = layout_bounds(
                base_kernel,
                &unique_layouts[layout_id],
                lines,
                self.evaluator.bus_encoding,
            );
            telemetry.traces_generated += 1;
            telemetry.trace_events_generated += events;
            for (&l, b) in lines.iter().zip(inputs) {
                bound_inputs.insert((layout_id, l), b);
            }
            telemetry.bound_time += bound_start.elapsed();
        }
        for pair in &mut pairs {
            pair.bounds = bound_inputs[&(pair.layout_id, pair.l)];
        }

        // ---- Seed the heap with one group node per pair. ----------------
        let mut heap: BinaryHeap<Reverse<Node>> = BinaryHeap::with_capacity(pairs.len());
        for (p, pair) in pairs.iter().enumerate() {
            let (energy_lb, cycles_lb) = self.group_bounds(pair);
            heap.push(Reverse(Node {
                key: objective.key_of(energy_lb, cycles_lb, pair.t, pair.base),
                kind: NodeKind::Group(p),
            }));
        }

        // ---- Best-first loop. -------------------------------------------
        let mut batches = LeafBatches {
            explorer: self,
            kernel,
            space,
            pairs: &pairs,
            layouts: &unique_layouts,
            footprint: kernel_footprint_bytes(kernel),
            tiled,
            open: HashMap::new(),
            records: HashMap::new(),
        };
        let mut incumbent: Option<(Record, usize, Key)> = None;
        let mut discarded_lb = f64::INFINITY;
        let mut beam_discarded = 0u64;
        let mut expansions = 0u64;
        let mut cancelled = false;
        while let Some(Reverse(node)) = heap.pop() {
            if let Some(at) = deadline_at {
                if Instant::now() >= at {
                    heap.push(Reverse(node));
                    cancelled = true;
                    break;
                }
            }
            if let Some((inc_rec, _, inc_key)) = &incumbent {
                // Exact certification: the heap minimum's key bounds every
                // open candidate's true key, tie-breaks included.
                if node.key >= *inc_key {
                    heap.push(Reverse(node));
                    break;
                }
                if options.gap > 0.0 {
                    let inc_cost = objective.cost(inc_rec);
                    let lb_now = inc_cost.min(node.key.floats[0]).min(discarded_lb);
                    if inc_cost - lb_now <= options.gap * inc_cost {
                        heap.push(Reverse(node));
                        break;
                    }
                }
            }
            match node.kind {
                NodeKind::Group(p) => {
                    expansions += 1;
                    let (mut kept, pruned_here) = self.expand(
                        &pairs[p],
                        p,
                        space,
                        objective,
                        incumbent.as_ref().map(|(_, _, k)| *k),
                    );
                    telemetry.designs_pruned += pruned_here;
                    if let Some(width) = options.beam {
                        if kept.len() > width {
                            kept.sort_by_key(|a| a.key);
                            for dropped in kept.drain(width..) {
                                discarded_lb = discarded_lb.min(dropped.key.floats[0]);
                                beam_discarded += 1;
                            }
                        }
                    }
                    if let Some(o) = obs {
                        o.counters
                            .pruned
                            .fetch_add(pruned_here as u64, AtomicOrdering::Relaxed);
                        o.point(
                            "search",
                            "expand",
                            &[
                                ("cache", FieldValue::U64(pairs[p].t as u64)),
                                ("line", FieldValue::U64(pairs[p].l as u64)),
                                ("bound_bits", FieldValue::U64(node.key.floats[0].to_bits())),
                                ("kept", FieldValue::U64(kept.len() as u64)),
                                ("pruned", FieldValue::U64(pruned_here as u64)),
                                ("open", FieldValue::U64(heap.len() as u64)),
                            ],
                        );
                    }
                    for leaf in kept {
                        let trace = pairs[p].trace_key(space, leaf.key.index);
                        heap.push(Reverse(Node {
                            key: leaf.key,
                            kind: NodeKind::Leaf(p),
                        }));
                        batches.open.entry(trace).or_default().push(leaf);
                    }
                }
                NodeKind::Leaf(p) => {
                    let index = node.key.index;
                    // The incumbent may have improved since this leaf was
                    // pushed; its bound key is still valid, so re-check.
                    if let Some((_, _, inc_key)) = &incumbent {
                        if node.key >= *inc_key {
                            telemetry.designs_pruned += 1;
                            if batches.records.remove(&index).is_some() {
                                telemetry.designs_speculative += 1;
                            }
                            if let Some(o) = obs {
                                o.counters.pruned.fetch_add(1, AtomicOrdering::Relaxed);
                            }
                            continue;
                        }
                    }
                    if !batches.records.contains_key(&index) {
                        let inc_key = incumbent.as_ref().map(|(_, _, k)| *k);
                        let trace = pairs[p].trace_key(space, index);
                        batches.evaluate(trace, inc_key, &mut telemetry, &hists);
                    }
                    // Incumbent keys only fall, so a leaf that beats the
                    // incumbent now beat it when its trace's batch formed.
                    let record = batches
                        .records
                        .remove(&index)
                        .expect("a leaf that beats the incumbent was in its trace's batch");
                    telemetry.designs_evaluated += 1;
                    let key = objective.key_of(
                        record.energy_nj,
                        record.cycles,
                        record.design.cache_size,
                        index,
                    );
                    let better = match &incumbent {
                        Some((_, _, inc_key)) => key < *inc_key,
                        None => true,
                    };
                    if better {
                        let cost = objective.cost(&record);
                        if let Some(o) = obs {
                            o.point(
                                "search",
                                "incumbent",
                                &[
                                    ("cost_bits", FieldValue::U64(cost.to_bits())),
                                    ("cost", FieldValue::Num(format!("{cost:.3}"))),
                                    ("design", FieldValue::Str(record.design.to_string())),
                                    ("index", FieldValue::U64(index as u64)),
                                ],
                            );
                        }
                        incumbent = Some((record, index, key));
                    }
                }
            }
        }
        telemetry.designs_speculative += batches.records.len();

        // ---- Certificate. -----------------------------------------------
        let open_lb = heap
            .peek()
            .map(|Reverse(n)| n.key.floats[0])
            .unwrap_or(f64::INFINITY);
        let inc_cost = incumbent
            .as_ref()
            .map(|(r, _, _)| objective.cost(r))
            .unwrap_or(f64::INFINITY);
        let lower_bound = inc_cost.min(open_lb).min(discarded_lb);
        let complete = (incumbent.is_some() || candidates == 0) && lower_bound >= inc_cost;

        // The simulate line reports the batches, which run one at a time
        // on this thread: one worker, busy for all of it.
        telemetry.worker_busy = vec![telemetry.simulate_time];
        telemetry.workers = workers;
        telemetry.cancelled = cancelled;
        telemetry.total_time = start.elapsed();
        hists.fill(&mut telemetry);
        let (incumbent, incumbent_index) = match incumbent {
            Some((r, i, _)) => (Some(r), Some(i)),
            None => (None, None),
        };
        if let Some(o) = obs {
            o.point(
                "search",
                "pruned",
                &[("count", FieldValue::U64(telemetry.designs_pruned as u64))],
            );
            o.point(
                "search",
                "done",
                &[
                    ("complete", FieldValue::Bool(complete)),
                    ("cancelled", FieldValue::Bool(cancelled)),
                    ("expansions", FieldValue::U64(expansions)),
                    (
                        "evaluated",
                        FieldValue::U64(telemetry.designs_evaluated as u64),
                    ),
                    (
                        "speculative",
                        FieldValue::U64(telemetry.designs_speculative as u64),
                    ),
                    ("lower_bound_bits", FieldValue::U64(lower_bound.to_bits())),
                ],
            );
        }
        drop(search_span);
        SearchOutcome {
            objective,
            incumbent,
            incumbent_index,
            lower_bound,
            complete,
            cancelled,
            candidates,
            expansions,
            beam_discarded,
            telemetry,
        }
    }

    /// Admissible group bounds for a pair: the shared bound expressions at
    /// the pair's minimum valid associativity and tiling (cycle terms are
    /// non-decreasing in both; the energy terms depend on neither).
    fn group_bounds(&self, pair: &PairInfo) -> (f64, f64) {
        let b = pair.bounds;
        let max_hits = b.accesses - b.min_misses;
        let min_assoc = pair.assocs.iter().copied().min().expect("pair has assocs");
        let min_tiling = pair
            .tilings
            .iter()
            .copied()
            .min()
            .expect("pair has tilings");
        let cycles_lb = self.evaluator.cycle_model.cycles_from_counts(
            max_hits,
            b.min_misses,
            min_assoc,
            pair.l,
            min_tiling,
        );
        // The untiled trace is the candidate's own trace only at B = 1.
        let add_bs = if pair.tilings.iter().all(|&t| t == 1) {
            b.add_bs
        } else {
            0.0
        };
        let cfg = CacheDesign::new(pair.t, pair.l, min_assoc, 1)
            .cache_config()
            .expect("design spaces only enumerate valid geometry");
        let energy_lb = max_hits as f64 * self.evaluator.energy_model.hit_energy_nj(&cfg, add_bs)
            + b.min_misses as f64 * self.evaluator.energy_model.miss_energy_nj(&cfg, add_bs);
        (energy_lb, cycles_lb)
    }

    /// Expands a group into bounded leaves in sweep order, pruning every
    /// leaf whose bound key already loses to the incumbent's key. Returns
    /// the surviving leaves and the prune count.
    fn expand(
        &self,
        pair: &PairInfo,
        pair_idx: usize,
        space: &DesignSpace,
        objective: Objective,
        inc_key: Option<Key>,
    ) -> (Vec<OpenLeaf>, usize) {
        let b = pair.bounds;
        let max_hits = b.accesses - b.min_misses;
        let mut kept = Vec::new();
        let mut pruned = 0usize;
        let mut offset = 0usize;
        for &s in &pair.assocs {
            let cycles_per_hit_term = self.evaluator.cycle_model.cycles_per_hit(s);
            let cfg = CacheDesign::new(pair.t, pair.l, s, 1)
                .cache_config()
                .expect("design spaces only enumerate valid geometry");
            for &tile in &pair.tilings {
                let cycles_lb = max_hits as f64 * cycles_per_hit_term
                    + b.min_misses as f64
                        * (tile as f64 + self.evaluator.cycle_model.cycles_per_miss(pair.l));
                let add_bs = if tile == 1 { b.add_bs } else { 0.0 };
                let energy_lb = max_hits as f64
                    * self.evaluator.energy_model.hit_energy_nj(&cfg, add_bs)
                    + b.min_misses as f64
                        * self.evaluator.energy_model.miss_energy_nj(&cfg, add_bs);
                // One leaf per (replacement, write) policy pair.
                for _ in 0..space.replacements.len() * space.write_policies.len() {
                    let index = pair.base + offset;
                    offset += 1;
                    let key = objective.key_of(energy_lb, cycles_lb, pair.t, index);
                    if let Some(ik) = inc_key {
                        if key >= ik {
                            pruned += 1;
                            continue;
                        }
                    }
                    kept.push(OpenLeaf {
                        key,
                        pair: pair_idx,
                    });
                }
            }
        }
        (kept, pruned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select;
    use loopir::kernels;

    fn search_with(kernel: &Kernel, space: &DesignSpace, options: &SearchOptions) -> SearchOutcome {
        Explorer::default().search(kernel, space, options)
    }

    #[test]
    fn energy_search_matches_min_energy_on_the_paper_grid() {
        let kernel = kernels::compress(31);
        let space = DesignSpace::paper();
        let explorer = Explorer::default();
        let records = explorer.explore(&kernel, &space);
        let oracle = select::min_energy(&records).expect("non-empty grid");
        let out = explorer.search(&kernel, &space, &SearchOptions::default());
        assert!(out.complete && !out.cancelled);
        assert_eq!(out.gap(), 0.0);
        let best = out.incumbent.expect("complete search has an incumbent");
        assert_eq!(&best, oracle);
        assert_eq!(
            space.designs()[out.incumbent_index.expect("index")],
            best.design
        );
        assert!(
            out.telemetry.designs_evaluated < records.len(),
            "bounds should avoid simulating the whole grid \
             ({} of {})",
            out.telemetry.designs_evaluated,
            records.len()
        );
    }

    #[test]
    fn cycles_search_matches_min_cycles_on_the_paper_grid() {
        let kernel = kernels::matmul(8);
        let space = DesignSpace::paper();
        let explorer = Explorer::default();
        let records = explorer.explore(&kernel, &space);
        let oracle = select::min_cycles(&records).expect("non-empty grid");
        let out = explorer.search(
            &kernel,
            &space,
            &SearchOptions {
                objective: Objective::Cycles,
                ..Default::default()
            },
        );
        assert!(out.complete);
        assert_eq!(out.incumbent.as_ref().expect("incumbent"), oracle);
    }

    #[test]
    fn weighted_search_with_policy_axes_matches_the_brute_force_oracle() {
        let kernel = kernels::matadd(8);
        let space = DesignSpace {
            assocs: vec![1, 2],
            tilings: vec![1, 2],
            replacements: vec![memsim::Replacement::Lru, memsim::Replacement::Fifo],
            write_policies: vec![
                memsim::WritePolicy::WriteBackAllocate,
                memsim::WritePolicy::WriteThroughNoAllocate,
            ],
            ..DesignSpace::small()
        };
        let objective = Objective::Weighted {
            energy_weight: 1.0,
            cycles_weight: 0.5,
        };
        let explorer = Explorer::default();
        let designs = space.designs();
        let oracle = designs
            .iter()
            .map(|&d| explorer.evaluator.evaluate(&kernel, d))
            .min_by(|a, b| {
                objective
                    .cost(a)
                    .partial_cmp(&objective.cost(b))
                    .expect("finite")
            })
            .expect("non-empty grid");
        let out = explorer.search(
            &kernel,
            &space,
            &SearchOptions {
                objective,
                ..Default::default()
            },
        );
        assert!(out.complete);
        let best = out.incumbent.expect("incumbent");
        assert_eq!(objective.cost(&best), objective.cost(&oracle));
    }

    #[test]
    fn beam_search_never_reports_a_gap_below_the_true_one() {
        let kernel = kernels::compress(16);
        let space = DesignSpace::paper();
        let explorer = Explorer::default();
        let records = explorer.explore(&kernel, &space);
        let oracle_cost = Objective::Energy.cost(select::min_energy(&records).expect("grid"));
        for beam in [1usize, 4, 16] {
            let out = explorer.search(
                &kernel,
                &space,
                &SearchOptions {
                    beam: Some(beam),
                    ..Default::default()
                },
            );
            let best = out.incumbent.clone().expect("beam search still simulates");
            let true_gap = Objective::Energy.cost(&best) - oracle_cost;
            assert!(
                out.gap() >= true_gap - 1e-9,
                "beam {beam}: reported gap {} under-reports true gap {true_gap}",
                out.gap()
            );
            assert!(
                out.lower_bound <= oracle_cost,
                "beam {beam}: lower bound {} exceeds the true optimum {oracle_cost}",
                out.lower_bound
            );
        }
    }

    #[test]
    fn zero_deadline_yields_a_well_formed_anytime_result() {
        let out = search_with(
            &kernels::compress(16),
            &DesignSpace::paper(),
            &SearchOptions {
                deadline: Some(Duration::ZERO),
                ..Default::default()
            },
        );
        assert!(out.cancelled && !out.complete);
        assert!(out.incumbent.is_none());
        assert!(out.lower_bound.is_finite());
        assert!(out.gap().is_infinite());
        assert!(out.telemetry.cancelled);
    }

    #[test]
    fn relative_gap_target_stops_early_with_a_certified_gap() {
        let kernel = kernels::compress(16);
        let space = DesignSpace::paper();
        let explorer = Explorer::default();
        let exact = explorer.search(&kernel, &space, &SearchOptions::default());
        let loose = explorer.search(
            &kernel,
            &space,
            &SearchOptions {
                gap: 0.5,
                ..Default::default()
            },
        );
        assert!(loose.relative_gap() <= 0.5);
        let best = loose.incumbent.expect("incumbent");
        // The certificate is sound: the true optimum lies above the bound.
        assert!(loose.lower_bound <= exact.incumbent_cost() + 1e-9);
        assert!(Objective::Energy.cost(&best) >= exact.incumbent_cost());
        assert!(loose.telemetry.designs_evaluated <= exact.telemetry.designs_evaluated);
    }

    #[test]
    fn search_utilization_is_its_batches_on_one_worker() {
        let out = search_with(
            &kernels::compress(16),
            &DesignSpace::paper(),
            &SearchOptions::default(),
        );
        let t = &out.telemetry;
        assert!(t.simulated_groups > 0);
        // The simulate line's busy time is the batches' own, not the
        // layout phase's.
        assert_eq!(t.worker_busy.iter().sum::<Duration>(), t.simulate_time);
        let u = t.worker_utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn empty_space_is_trivially_complete() {
        let out = search_with(
            &kernels::compress(8),
            &DesignSpace::default(),
            &SearchOptions::default(),
        );
        assert!(out.complete && out.incumbent.is_none());
        assert_eq!(out.candidates, 0);
        assert_eq!(out.gap(), 0.0);
    }

    #[test]
    fn objective_parsing_round_trips() {
        assert_eq!("energy".parse::<Objective>().unwrap(), Objective::Energy);
        assert_eq!("cycles".parse::<Objective>().unwrap(), Objective::Cycles);
        assert_eq!(
            "weighted=1,0.5".parse::<Objective>().unwrap(),
            Objective::Weighted {
                energy_weight: 1.0,
                cycles_weight: 0.5
            }
        );
        assert!("weighted=-1,2".parse::<Objective>().is_err());
        assert!("weighted=0,0".parse::<Objective>().is_err());
        assert!("speed".parse::<Objective>().is_err());
    }

    #[test]
    #[should_panic(expected = "weighted objective needs")]
    fn invalid_weights_panic_with_a_typed_message() {
        let _ = search_with(
            &kernels::compress(8),
            &DesignSpace::small(),
            &SearchOptions {
                objective: Objective::Weighted {
                    energy_weight: -1.0,
                    cycles_weight: 1.0,
                },
                ..Default::default()
            },
        );
    }
}
