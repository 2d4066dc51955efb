//! Certified bound-guided best-first search over design grids.
//!
//! The exhaustive sweep ([`Explorer::explore`]) simulates every candidate.
//! This module avoids that for *single-objective* selection: a best-first branch-and-bound that orders candidates by an
//! admissible lower bound on the active objective and simulates a design
//! only when its bound still beats the incumbent. On the paper grid it
//! reproduces `select::min_energy` / `select::min_cycles` bit-for-bit; on
//! expansive grids of 10⁶–10⁷ candidates ([`DesignSpace::expansive`]) it
//! returns an incumbent plus a **certified gap** without ever
//! materializing the grid.
//!
//! # Bound construction
//!
//! For a candidate design we compute, *without simulating it*, admissible
//! (never-overestimating) lower bounds on its true cycles and energy.
//! Scanning a `(T, L)` pair's untiled trace once (`layout_bounds`)
//! yields the exact line-level access count `n`, the distinct-line
//! (compulsory-miss) floor `m` ([`analysis::TraceFootprint`]), and the
//! exact address-bus switching `Add_bs`. A cold cache must miss every
//! distinct line once regardless of size, associativity, tiling or
//! replacement policy — tiling permutes the address multiset but never
//! changes it (`loopir::transform::tile_all`) — so the true miss count is
//! `≥ m` and the true hit count `≤ n − m`. Cycles and energy both grow
//! with the miss count, so evaluating them at `(hits = n − m, misses = m)`
//! never overestimates. The bounds use the **same expressions** the
//! evaluator applies, so a candidate that really reaches the floor has a
//! bound equal to its true metric *bitwise*, with no floating-point slack
//! to cross:
//!
//! * per-leaf: `CycleModel::cycles_from_counts(n − m, m, S, L, B)` and
//!   `(n − m)·E_hit + m·E_miss`, with `Add_bs` exact for `B = 1` (the
//!   scanned trace is the candidate's own) and lower-bounded by 0
//!   otherwise (switching energy is non-negative);
//! * per-group (one node per `(T, L)` pair): the same expressions at the
//!   pair's minimum valid associativity and tiling — every cycle term is
//!   non-decreasing in both, and the energy terms do not depend on them.
//!
//! The compulsory floor is loose: it ignores capacity. So a leaf's bound
//! is tightened, before any of its trace key's leaves is simulated, with
//! the **MIN floor** of that key's own line stream. Belady's MIN with
//! `C = T/L` lines ([`memsim::NextUse`]) misses no more often than any
//! demand-fetch cache of `C` lines: a set-associative LRU, FIFO or PLRU
//! cache at any associativity is one such policy, and kernel traces are
//! reads only, so the write policy never enters. A leaf is then bounded at
//! `misses = max(m, OPT(C))`, `hits = n − misses`. That raises both
//! bounds only while both models grow with the miss count —
//! `E_miss ≥ E_hit` and `cycles_per_miss(L) + B ≥ cycles_per_hit(S)`,
//! checked per leaf; where either fails, the leaf keeps the compulsory
//! floor. The floor must come from the key's own `(layout, B)` stream:
//! tiling reorders the trace, and OPT of the untiled order can exceed a
//! tiled design's true misses. Group nodes span tilings, so they keep the
//! compulsory floor.
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
//!
//! Leaves enter the heap under the compulsory floor, unless their key's
//! MIN floor at their `(L, C)` is already known. The first pop of such a
//! leaf **re-keys** it: when the key's floors lack its `(L, C)`, the key's
//! plan is walked once per missing line size into a line stream, linked
//! by next use, and MIN runs once per capacity that the key's open leaves
//! need. The popped leaf is pruned if its new key loses to the incumbent
//! and pushed back otherwise, so only floored keys reach a batch. The
//! batch index keeps no keys: a batch first computes its key's missing
//! floors, then recomputes each open leaf's floored key and scans only
//! the leaves that still beat the incumbent. A tiling at least every
//! loop's trip count traces the untiled nest, so its leaves share the
//! untiled key's batches and floors. The new keys are still bound keys,
//! so the certificate argument above is unchanged: only the pop order and
//! the simulated and pruned counts move. Each floor computation is one
//! `floor` obs unit (`SweepTelemetry::floor_units`).
//!
//! A stream is materialized only when its line-access count `n` (known
//! exactly from the bound inputs) is at most `FLOOR_LINE_CAP` (2^20);
//! above it the key's leaves keep the compulsory floor. MIN allocates
//! O(n) and nothing sized by the address span.

use crate::arbitrate::arbitrate_layouts;
use crate::explore::{DesignSpace, ExploreError, Explorer, SweepHists};
use crate::metrics::{read_trace, CacheDesign, PlanSource, Record, PLAN_CHUNK_EVENTS};
use crate::obs::{FieldValue, Span};
use crate::sweep::stream_into;
use crate::telemetry::SweepTelemetry;
use analysis::TraceFootprint;
use loopir::transform::tile_all;
use loopir::{AccessKind, DataLayout, Kernel, TraceGen};
use memsim::opt::push_lines;
use memsim::{BusMonitor, NextUse, TraceEvent};
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

/// Per-trace quantities the bounds are built from: the exact split-access
/// count, the compulsory-miss floor, and the exact average address-bus
/// switching of the untiled trace.
#[derive(Clone, Copy, Debug)]
struct BoundInputs {
    /// Line-level accesses (`n`) — exactly what the simulator will count.
    accesses: u64,
    /// Distinct lines touched (`m`) — admissible lower bound on misses.
    min_misses: u64,
    /// Exact `Add_bs` of the untiled trace at this line size.
    add_bs: f64,
}

/// The bound inputs of a layout at each line size of `lines`, in order,
/// from `untiled`'s trace under it, which is materialized once and
/// dropped on return. Also returns that trace's length.
fn layout_bounds(
    untiled: &Kernel,
    layout: &DataLayout,
    lines: &[usize],
    encoding: memsim::BusEncoding,
) -> (Vec<BoundInputs>, u64) {
    let trace = read_trace(untiled, layout);
    let inputs = lines
        .iter()
        .map(|&l| {
            let fp = TraceFootprint::analyze(l as u64, trace.iter().map(|e| (e.addr, e.size)));
            BoundInputs {
                accesses: fp.accesses,
                min_misses: fp.min_misses(),
                add_bs: exact_add_bs(&trace, l, encoding),
            }
        })
        .collect();
    (inputs, trace.len() as u64)
}

/// Exact average CPU-bus switching for `trace` at line size `line`,
/// replicating the simulator's line splitting and bus observation order
/// bit-for-bit (see `memsim::Simulator::step`).
fn exact_add_bs(trace: &[TraceEvent], line: usize, encoding: memsim::BusEncoding) -> f64 {
    let shift = (line as u64).trailing_zeros();
    let mut bus = BusMonitor::new(encoding);
    for e in trace {
        let size = e.size.max(1) as u64;
        let first_line = e.addr >> shift;
        let last_line = (e.addr + size - 1) >> shift;
        for l in first_line..=last_line {
            let addr = if l == first_line { e.addr } else { l << shift };
            bus.observe_cpu(addr);
        }
    }
    bus.cpu().avg_switches()
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

/// A leaf from a group expansion, waiting in the heap and, under its
/// trace key, in [`LeafBatches::open`]. Leaves are the bulk of a search's
/// memory, so the index entry carries neither design nor key: the pair
/// and the sweep index name the design, and its bound key is recomputed
/// from the floors known at the time ([`LeafBatches::bound_key`]).
struct OpenLeaf {
    pair: usize,
    index: usize,
}

/// Most line accesses a trace key's stream may have for its MIN floor to
/// be computed. Above it the key's leaves keep the compulsory floor, and
/// no stream is materialized. At the cap a floor unit holds at most 8 MiB
/// of line numbers, 4 MiB of next-use links, a hash table of at most
/// 16 MiB (4 bytes a slot, at least half empty) and a 128 KiB bitset.
const FLOOR_LINE_CAP: u64 = 1 << 20;

/// A MIN floor's identity: trace key `(layout id, tiling)`, line size and
/// capacity in lines.
type FloorKey = (usize, u64, usize, usize);

/// The miss count a leaf bound may assume, given the compulsory count and
/// the MIN floor `opt`. Raising the miss count raises a bound only while
/// both models grow with misses (`E_miss ≥ E_hit`, and
/// `cycles_per_miss(L) + B ≥ cycles_per_hit(S)`); otherwise the leaf
/// keeps the compulsory floor. `opt` is 0 for a stream over the cap.
fn admissible_misses(compulsory: u64, opt: u64, energy_grows: bool, cycles_grow: bool) -> u64 {
    if energy_grows && cycles_grow {
        compulsory.max(opt)
    } else {
        compulsory
    }
}

/// The search's leaf evaluator. Leaves of one trace key `(layout id,
/// tiling)` replay the same trace, whichever `(T, L)` pair they came
/// from, so the first pop of a key evaluates every open leaf of that key
/// whose bound still beats the incumbent in one bank scan. Records of
/// leaves the heap has not popped yet wait in
/// [`records`](Self::records) until their pop consumes them or prunes
/// them; a record never consumed is speculative work.
///
/// It also owns the keys' MIN floors: [`floor_open`](Self::floor_open)
/// walks a key's stream once per line size and runs MIN for every
/// capacity its open leaves need.
struct LeafBatches<'a> {
    explorer: &'a Explorer,
    kernel: &'a Kernel,
    space: &'a DesignSpace,
    objective: Objective,
    pairs: &'a [PairInfo],
    layouts: &'a [DataLayout],
    /// Tiled kernels by tiling `B`.
    tiled: HashMap<u64, Kernel>,
    /// Open leaves not yet batched, by [`stream_key`](Self::stream_key).
    open: HashMap<(usize, u64), Vec<OpenLeaf>>,
    /// Batched records awaiting their leaf's pop, by sweep index.
    records: HashMap<usize, Record>,
    /// MIN misses by [`FloorKey`] (0 above [`FLOOR_LINE_CAP`]), keyed by
    /// [`stream_key`](Self::stream_key).
    floors: HashMap<FloorKey, u64>,
    /// The largest loop trip count when every loop has constant bounds:
    /// tilings from it on trace the untiled nest.
    untiled_from: Option<u64>,
    /// Scratch of the floor units, kept across them so that the search
    /// allocates a stream's buffers once: its line stream and links.
    lines: Vec<u64>,
    next_use: NextUse,
}

impl LeafBatches<'_> {
    /// The stream identity of trace key `(layout id, tiling)`: a tiling at
    /// least every loop's trip count leaves one iteration in each tile
    /// loop and the whole range in each element loop, so its trace is the
    /// untiled one, and its leaves share the untiled key's batches and
    /// floors.
    fn stream_key(&self, (layout_id, tiling): (usize, u64)) -> (usize, u64) {
        match self.untiled_from {
            Some(trips) if tiling >= trips => (layout_id, 1),
            _ => (layout_id, tiling),
        }
    }

    /// The stream key of the design at sweep index `index` of pair `p`:
    /// the key its leaf is batched and floored under.
    fn trace_of(&self, p: usize, index: usize) -> (usize, u64) {
        self.stream_key(self.pairs[p].trace_key(self.space, index))
    }

    /// The MIN floor of stream `trace` at `line` and `capacity`, if
    /// computed.
    fn known_floor(&self, trace: (usize, u64), line: usize, capacity: usize) -> Option<u64> {
        let (layout_id, tiling) = self.stream_key(trace);
        self.floors
            .get(&(layout_id, tiling, line, capacity))
            .copied()
    }

    /// The bound key of the design at sweep index `index` of pair `p`:
    /// floored when its trace key's MIN floor at the pair's `(L, C)` is
    /// known, else at the compulsory floor.
    fn bound_key(&self, p: usize, index: usize) -> Key {
        let pair = &self.pairs[p];
        let design = pair.design(self.space, index);
        let opt = self
            .known_floor((pair.layout_id, design.tiling), pair.l, pair.t / pair.l)
            .unwrap_or(0);
        self.explorer.leaf_key(
            self.objective,
            pair,
            design.assoc,
            design.tiling,
            opt,
            index,
        )
    }

    /// The floored bound key of the design at sweep index `index` of pair
    /// `p`, computing its trace key's floors first if they are missing.
    fn floored_key(&mut self, p: usize, index: usize, telemetry: &mut SweepTelemetry) -> Key {
        let (pair, trace) = (&self.pairs[p], self.trace_of(p, index));
        if self.known_floor(trace, pair.l, pair.t / pair.l).is_none() {
            self.floor_open(trace, telemetry);
        }
        self.bound_key(p, index)
    }

    /// Computes the MIN floors stream `trace`'s open leaves lack: the
    /// stream's plan is walked once per missing line size into a line
    /// stream (none above [`FLOOR_LINE_CAP`]), linked by next use, and
    /// MIN runs once per missing capacity. Logs one `floor` unit when
    /// anything was computed.
    fn floor_open(&mut self, trace: (usize, u64), telemetry: &mut SweepTelemetry) {
        let Some(open) = self.open.get(&trace) else {
            return;
        };
        // Line size → (bound inputs, capacities) the floors lack.
        let mut needs: BTreeMap<usize, (BoundInputs, Vec<usize>)> = BTreeMap::new();
        for leaf in open {
            let pair = &self.pairs[leaf.pair];
            let capacity = pair.t / pair.l;
            if self.known_floor(trace, pair.l, capacity).is_none() {
                let (_, capacities) = needs.entry(pair.l).or_insert((pair.bounds, Vec::new()));
                if !capacities.contains(&capacity) {
                    capacities.push(capacity);
                }
            }
        }
        if !needs.is_empty() {
            self.compute_floors(trace, needs, telemetry);
        }
    }

    /// Computes MIN floors of stream `trace` (a [`stream_key`](Self::stream_key))
    /// for `needs` (line size → its bound inputs and capacities) into
    /// [`floors`](Self::floors).
    fn compute_floors(
        &mut self,
        trace: (usize, u64),
        needs: BTreeMap<usize, (BoundInputs, Vec<usize>)>,
        telemetry: &mut SweepTelemetry,
    ) {
        let start = Instant::now();
        let (layout_id, tiling) = trace;
        let kernel = self.kernel;
        let tiled = self
            .tiled
            .entry(tiling)
            .or_insert_with(|| tile_all(kernel, tiling));
        let plan = TraceGen::new(tiled, &self.layouts[layout_id]);
        let lines = &mut self.lines;
        // The walk pushes lines itself; `fill` only counts reads in it.
        let mut reads: Vec<()> = Vec::new();
        let (mut streamed, mut capacities, mut events) = (0u64, 0u64, 0u64);
        for (line, (bounds, caps)) in needs {
            capacities += caps.len() as u64;
            // Tiling permutes the untiled trace's line multiset, so the
            // bound inputs' access and distinct-line counts are this
            // stream's. OPT(C) is the compulsory count `m` once `C ≥ m`,
            // so only smaller capacities need the stream.
            let (accesses, distinct) = (bounds.accesses, bounds.min_misses);
            let linked = accesses <= FLOOR_LINE_CAP && caps.iter().any(|&c| (c as u64) < distinct);
            if linked {
                lines.clear();
                let shift = line.trailing_zeros();
                let mut gen = plan.clone();
                // MIN's misses on a prefix never exceed its misses on the
                // whole stream, so a walk cut at the cap still floors
                // admissibly.
                loop {
                    reads.clear();
                    let n = gen.fill(&mut reads, PLAN_CHUNK_EVENTS, |a| {
                        (a.kind == AccessKind::Read)
                            .then(|| push_lines(lines, TraceEvent::read(a.addr, a.size), shift))
                    });
                    events += n as u64;
                    if n == 0 || lines.len() as u64 >= FLOOR_LINE_CAP {
                        break;
                    }
                }
                streamed += lines.len() as u64;
                self.next_use.link(lines);
            }
            for capacity in caps {
                let misses = if linked {
                    self.next_use.min_misses(capacity)
                } else if capacity as u64 >= distinct {
                    distinct
                } else {
                    0
                };
                self.floors
                    .insert((layout_id, tiling, line, capacity), misses);
            }
        }
        let dur = start.elapsed();
        telemetry.traces_generated += 1;
        telemetry.trace_events_generated += events;
        telemetry.floor_units += 1;
        telemetry.floor_capacities += capacities;
        telemetry.floor_lines += streamed;
        telemetry.floor_time += dur;
        if let Some(o) = self.explorer.obs.as_deref() {
            o.unit(
                "search",
                "floor",
                0,
                dur,
                &[
                    ("lines", FieldValue::U64(streamed)),
                    ("capacities", FieldValue::U64(capacities)),
                ],
            );
        }
    }

    /// Evaluates trace key `trace`'s batch: every open leaf of the key
    /// whose floored bound key beats `inc_key` (the key's missing floors
    /// are computed first). The others can never beat
    /// the incumbent again, so they leave the index too (their pop prunes
    /// them). The key's plan is compiled here, and one `ReplayBank` scan
    /// streams it chunk by chunk. Records are bit-identical to evaluating
    /// each leaf alone, as the bank guarantees.
    fn evaluate(
        &mut self,
        trace: (usize, u64),
        inc_key: Option<Key>,
        telemetry: &mut SweepTelemetry,
        hists: &SweepHists,
    ) {
        self.floor_open(trace, telemetry);
        let batch: Vec<OpenLeaf> = self
            .open
            .remove(&trace)
            .unwrap_or_default()
            .into_iter()
            .filter(|leaf| inc_key.is_none_or(|k| self.bound_key(leaf.pair, leaf.index) < k))
            .collect();
        let designs: Vec<(CacheDesign, bool)> = batch
            .iter()
            .map(|leaf| {
                let pair = &self.pairs[leaf.pair];
                (pair.design(self.space, leaf.index), pair.conflict_free)
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
        let mut bank = evaluator.replay_bank(&designs);
        let mut source = PlanSource::from_plan(plan);
        let pass = stream_into(&mut bank, &mut source, PLAN_CHUNK_EVENTS, |_| {
            ControlFlow::Continue(())
        })
        .expect("a plan source never fails");
        let n = pass.events;
        let scalar = bank.scalar_lane_events();
        let records = evaluator.evaluate_bank_reports(&designs, &bank.finish());
        let dur = sim_start.elapsed();
        let width = designs.len();
        telemetry.trace_events_generated += n;
        telemetry.generate_time += pass.fill_time;
        telemetry.simulate_time += dur;
        telemetry.fused_groups += 1;
        telemetry.max_bank_width = telemetry.max_bank_width.max(width);
        telemetry.trace_events_replayed += n * width as u64;
        telemetry.trace_events_scanned += n;
        telemetry.scalar_lane_events += scalar;
        hists.scan.record(dur);
        if let Some(o) = self.explorer.obs.as_deref() {
            o.counters.add_done(width as u64);
            o.counters.add_events(n);
            o.unit(
                "simulate",
                "scan",
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
            .extend(batch.iter().map(|leaf| leaf.index).zip(records));
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
    /// (see [`Objective::validate`]), and where [`try_search`](Self::try_search)
    /// returns an error.
    pub fn search(
        &self,
        kernel: &Kernel,
        space: &DesignSpace,
        options: &SearchOptions,
    ) -> SearchOutcome {
        self.try_search(kernel, space, options)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`search`](Self::search), with a failed layout phase as a typed
    /// error: [`ExploreError::Placement`] when a pair's placement fails
    /// (addresses that overflow 64 bits, say), or
    /// [`ExploreError::WorkerPanic`] when a placement worker panics.
    ///
    /// # Panics
    ///
    /// Panics on an invalid weighted objective
    /// (see [`Objective::validate`]).
    pub fn try_search(
        &self,
        kernel: &Kernel,
        space: &DesignSpace,
        options: &SearchOptions,
    ) -> Result<SearchOutcome, ExploreError> {
        if let Err(e) = options.objective.validate() {
            panic!("{e}");
        }
        let objective = options.objective;
        let start = Instant::now();
        // A deadline past the end of representable time never fires.
        let deadline_at = options.deadline.and_then(|d| start.checked_add(d));
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
        )?;
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
            objective,
            pairs: &pairs,
            layouts: &unique_layouts,
            tiled,
            open: HashMap::new(),
            records: HashMap::new(),
            floors: HashMap::new(),
            untiled_from: kernel
                .nest
                .loops
                .iter()
                .map(|l| l.const_trip_count())
                .collect::<Option<Vec<u64>>>()
                .and_then(|trips| trips.into_iter().max()),
            lines: Vec::new(),
            next_use: NextUse::default(),
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
                        space,
                        objective,
                        incumbent.as_ref().map(|(_, _, k)| *k),
                        &batches,
                    );
                    telemetry.designs_pruned += pruned_here;
                    if let Some(width) = options.beam {
                        if kept.len() > width {
                            kept.sort();
                            for dropped in kept.drain(width..) {
                                discarded_lb = discarded_lb.min(dropped.floats[0]);
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
                    for key in kept {
                        let trace = batches.trace_of(p, key.index);
                        heap.push(Reverse(Node {
                            key,
                            kind: NodeKind::Leaf(p),
                        }));
                        batches.open.entry(trace).or_default().push(OpenLeaf {
                            pair: p,
                            index: key.index,
                        });
                    }
                }
                NodeKind::Leaf(p) => {
                    let index = node.key.index;
                    // A leaf pushed under the compulsory floor is re-keyed
                    // with its trace key's MIN floor (computed now if
                    // missing) when popped: a leaf that loses under it is
                    // pruned, the others go back on the heap, so only
                    // floored keys reach a batch.
                    let key = batches.floored_key(p, index, &mut telemetry);
                    // The incumbent may have improved since this leaf was
                    // pushed; its bound key is still valid, so re-check.
                    if let Some((_, _, inc_key)) = &incumbent {
                        if key >= *inc_key {
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
                    if key != node.key {
                        heap.push(Reverse(Node {
                            key,
                            kind: NodeKind::Leaf(p),
                        }));
                        continue;
                    }
                    if !batches.records.contains_key(&index) {
                        let inc_key = incumbent.as_ref().map(|(_, _, k)| *k);
                        let trace = batches.trace_of(p, index);
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
        Ok(SearchOutcome {
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
        })
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

    /// Admissible bounds `(energy, cycles)` of a leaf of `pair` at
    /// associativity `assoc` and tiling `tile`, given its trace key's MIN
    /// floor `opt` (0 for none): the evaluator's own expressions at
    /// `misses = max(compulsory, opt)` and `hits = n − misses`, with
    /// `Add_bs` exact at `B = 1` and 0 otherwise. MIN with `C = T/L`
    /// lines misses no more often than any demand-fetch cache of `C`
    /// lines, and kernel traces are reads only, so both bounds stay
    /// admissible for every associativity and replacement policy.
    fn leaf_bounds(&self, pair: &PairInfo, assoc: usize, tile: u64, opt: u64) -> (f64, f64) {
        let b = pair.bounds;
        let cfg = CacheDesign::new(pair.t, pair.l, assoc, 1)
            .cache_config()
            .expect("design spaces only enumerate valid geometry");
        let add_bs = if tile == 1 { b.add_bs } else { 0.0 };
        let energy = &self.evaluator.energy_model;
        let (e_hit, e_miss) = (
            energy.hit_energy_nj(&cfg, add_bs),
            energy.miss_energy_nj(&cfg, add_bs),
        );
        let cycle_model = &self.evaluator.cycle_model;
        let (c_hit, c_miss) = (
            cycle_model.cycles_per_hit(assoc),
            tile as f64 + cycle_model.cycles_per_miss(pair.l),
        );
        let misses = admissible_misses(b.min_misses, opt, e_miss >= e_hit, c_miss >= c_hit);
        let hits = b.accesses - misses;
        let cycles_lb = hits as f64 * c_hit + misses as f64 * c_miss;
        let energy_lb = hits as f64 * e_hit + misses as f64 * e_miss;
        (energy_lb, cycles_lb)
    }

    /// The bound key of the leaf at sweep index `index` of `pair`
    /// ([`leaf_bounds`](Self::leaf_bounds)).
    fn leaf_key(
        &self,
        objective: Objective,
        pair: &PairInfo,
        assoc: usize,
        tile: u64,
        opt: u64,
        index: usize,
    ) -> Key {
        let (energy_lb, cycles_lb) = self.leaf_bounds(pair, assoc, tile, opt);
        objective.key_of(energy_lb, cycles_lb, pair.t, index)
    }

    /// Expands a group into bounded leaves in sweep order, pruning every
    /// leaf whose bound key already loses to the incumbent's key. A leaf
    /// whose trace key already has a MIN floor at the pair's `(L, C)` in
    /// `batches` is bounded with it; the others start at the compulsory
    /// floor. Returns the surviving leaves' keys and the prune count.
    fn expand(
        &self,
        pair: &PairInfo,
        space: &DesignSpace,
        objective: Objective,
        inc_key: Option<Key>,
        batches: &LeafBatches,
    ) -> (Vec<Key>, usize) {
        let mut kept = Vec::new();
        let mut pruned = 0usize;
        let mut offset = 0usize;
        let capacity = pair.t / pair.l;
        for &s in &pair.assocs {
            for &tile in &pair.tilings {
                let opt = batches.known_floor((pair.layout_id, tile), pair.l, capacity);
                let (energy_lb, cycles_lb) = self.leaf_bounds(pair, s, tile, opt.unwrap_or(0));
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
                    kept.push(key);
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
    fn a_leaf_keeps_the_compulsory_floor_unless_both_models_grow_with_misses() {
        assert_eq!(admissible_misses(10, 50, true, true), 50);
        // A stream over the cap has no MIN floor (0): compulsory stays.
        assert_eq!(admissible_misses(10, 0, true, true), 10);
        assert_eq!(admissible_misses(10, 50, false, true), 10);
        assert_eq!(admissible_misses(10, 50, true, false), 10);
        assert_eq!(admissible_misses(10, 50, false, false), 10);

        let pair = PairInfo {
            t: 64,
            l: 8,
            assocs: vec![1],
            tilings: vec![1],
            base: 0,
            layout_id: 0,
            conflict_free: true,
            bounds: BoundInputs {
                accesses: 100,
                min_misses: 10,
                add_bs: 1.0,
            },
        };
        // With the paper's models a higher floor raises both bounds ...
        let paper = Explorer::default();
        let (e0, c0) = paper.leaf_bounds(&pair, 1, 1, 0);
        let (e1, c1) = paper.leaf_bounds(&pair, 1, 1, 50);
        assert!(e1 > e0 && c1 > c0, "({e0}, {c0}) -> ({e1}, {c1})");
        // ... but where a miss costs less energy than a hit, more misses
        // would lower the energy bound, so the leaf keeps the compulsory
        // floor: its bounds are exactly the unfloored ones.
        let mut cheap_misses = Explorer::default();
        cheap_misses.evaluator.energy_model.params.gamma = -1e3;
        let cfg = CacheDesign::new(64, 8, 1, 1).cache_config().expect("valid");
        let energy = &cheap_misses.evaluator.energy_model;
        assert!(energy.miss_energy_nj(&cfg, 1.0) < energy.hit_energy_nj(&cfg, 1.0));
        assert_eq!(
            cheap_misses.leaf_bounds(&pair, 1, 1, 50),
            cheap_misses.leaf_bounds(&pair, 1, 1, 0)
        );
    }

    #[test]
    fn tilings_past_every_trip_count_trace_the_untiled_nest() {
        // The floors of such keys are shared with the untiled key.
        for kernel in [kernels::matmul(7), kernels::sor(9), kernels::compress(6)] {
            let trips: Vec<u64> = kernel
                .nest
                .loops
                .iter()
                .map(|l| l.const_trip_count().expect("constant bounds"))
                .collect();
            let untiled_from = *trips.iter().max().expect("a loop");
            let layout = DataLayout::natural(&kernel);
            let untiled = crate::metrics::read_trace(&kernel, &layout);
            for b in [untiled_from, untiled_from + 1, 3 * untiled_from] {
                let tiled = crate::metrics::read_trace(&tile_all(&kernel, b), &layout);
                assert!(tiled == untiled, "{} at B = {b}", kernel.name);
            }
        }
    }

    #[test]
    fn floors_prune_leaves_and_log_their_work() {
        let kernel = kernels::sor(31);
        let space = DesignSpace::paper();
        let explorer = Explorer::default();
        let records = explorer.explore(&kernel, &space);
        let options = SearchOptions {
            objective: Objective::Weighted {
                energy_weight: 1.0,
                cycles_weight: 0.5,
            },
            ..Default::default()
        };
        let out = explorer.search(&kernel, &space, &options);
        let oracle = records
            .iter()
            .map(|r| options.objective.cost(r))
            .fold(f64::INFINITY, f64::min);
        assert!(out.complete);
        assert_eq!(out.incumbent_cost(), oracle);
        let t = &out.telemetry;
        assert!(t.floor_units > 0 && t.floor_capacities >= t.floor_units as u64);
        assert!(t.floor_lines > 0);
        assert!(t.designs_pruned > 0);
        assert!(t.to_string().contains("  floors   : "));
    }

    #[test]
    fn search_utilization_is_its_batches_on_one_worker() {
        let out = search_with(
            &kernels::compress(16),
            &DesignSpace::paper(),
            &SearchOptions::default(),
        );
        let t = &out.telemetry;
        assert!(t.fused_groups > 0);
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

    #[test]
    fn exact_add_bs_matches_the_simulator() {
        use memsim::{BusEncoding, CacheConfig, Simulator};
        let k = kernels::compress(15);
        let layout = loopir::DataLayout::natural(&k);
        let trace = read_trace(&k, &layout);
        for line in [4usize, 8, 16] {
            let ours = exact_add_bs(&trace, line, BusEncoding::Gray);
            let cfg = CacheConfig::new(64.max(line * 4), line, 1).unwrap();
            let mut sim = Simulator::with_options(cfg, BusEncoding::Gray, false);
            sim.run_slice(&trace);
            let theirs = sim.into_report().cpu_bus.avg_switches();
            assert_eq!(ours, theirs, "line={line}");
        }
    }
}
