//! The MemExplore sweep.
//!
//! The sweep engine is *compile-once, simulate-many*: each distinct
//! access trace is compiled once into a `loopir::TraceGen` plan and every
//! `(T, L, S, B)` design point replays it. A trace depends on the
//! off-chip layout (a function of cache size `T` and line size `L`) and
//! on the tiling `B` (tiling reorders the loop nest), so traces are keyed
//! by deduplicated layout contents plus `B`: all associativities `S` —
//! and all `(T, L)` pairs that optimize to the same layout — share one
//! trace, and the designs sharing it form a *trace group*. No trace is
//! materialized: the [sweep runner](crate::sweep) walks a group's plan in
//! 4,096-event chunks straight into its bank, and fans the groups out over
//! a work-stealing pool of scoped threads (a shared atomic next-job index
//! — no static chunking, so skewed costs cannot strand idle workers).
//! With the default [`Engine::Fused`] each group is one unit: one walk of
//! the plan through a `memsim::ReplayBank` that steps every design in
//! lockstep, so generation and trace consumption are O(events) per group
//! instead of O(events × designs); [`Engine::PerDesign`] makes every
//! design its own unit, each walking the plan afresh. Records are written into per-design slots either way, so the
//! returned order is the deterministic sweep order regardless of
//! scheduling or engine.

use crate::analytic::{gate_admits, kernel_footprint_bytes, try_group_records};
use crate::arbitrate::arbitrate_layouts;
use crate::checkpoint::CheckpointError;
use crate::metrics::{collect_reads, CacheDesign, Evaluator, Record};
use crate::obs::{LatencyHistogram, Obs, Span};
use crate::supervisor::SweepOptions;
use crate::sweep::{Feed, Unit};
use crate::telemetry::SweepTelemetry;
use loopir::transform::tile_all;
use loopir::{DataLayout, Kernel, TraceGen};
use memsim::{Replacement, WritePolicy};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The swept parameter ranges (all powers of two, per the paper's
/// `Algorithm MemExplore`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DesignSpace {
    /// Candidate cache sizes `T` in bytes.
    pub cache_sizes: Vec<usize>,
    /// Candidate line sizes `L` in bytes (filtered to `L ≤ T / min_lines`).
    pub line_sizes: Vec<usize>,
    /// Candidate associativities `S` (filtered to `S ≤ T/L`).
    pub assocs: Vec<usize>,
    /// Candidate tiling sizes `B` (filtered to `B ≤ T/L`).
    pub tilings: Vec<u64>,
    /// Minimum number of cache lines per configuration (the paper's Fig. 3
    /// restricts to ≥ 4 lines).
    pub min_lines: usize,
    /// Candidate replacement policies (the paper assumes LRU only).
    pub replacements: Vec<Replacement>,
    /// Candidate write policies (the paper assumes write-back/allocate).
    pub write_policies: Vec<WritePolicy>,
}

impl Default for DesignSpace {
    /// An empty grid with the paper's single-policy axes, so struct-update
    /// syntax (`..Default::default()`) keeps legacy grids policy-free.
    fn default() -> Self {
        DesignSpace {
            cache_sizes: Vec::new(),
            line_sizes: Vec::new(),
            assocs: Vec::new(),
            tilings: Vec::new(),
            min_lines: 1,
            replacements: vec![Replacement::default()],
            write_policies: vec![WritePolicy::default()],
        }
    }
}

impl DesignSpace {
    /// The paper's evaluation grid: `T` ∈ 16…1024, `L` ∈ 4…64,
    /// `S` ∈ {1, 2, 4, 8}, `B` ∈ 1…16, at least 4 lines.
    pub fn paper() -> Self {
        DesignSpace {
            cache_sizes: pow2_range(16, 1024),
            line_sizes: pow2_range(4, 64),
            assocs: vec![1, 2, 4, 8],
            tilings: vec![1, 2, 4, 8, 16],
            min_lines: 4,
            ..Default::default()
        }
    }

    /// An expansive grid of over a million candidates for bound-guided
    /// search (`core::search`): `T` up to 8 MiB, `L` up to 1 KiB, `S` up
    /// to 64 ways, every tiling `B` in 1…256, with replacement policy
    /// (LRU, FIFO, PLRU) and write policy as first-class axes. Exhaustive
    /// sweep is infeasible here — use [`Explorer::search`].
    pub fn expansive() -> Self {
        DesignSpace {
            cache_sizes: pow2_range(16, 1 << 23),
            line_sizes: pow2_range(4, 1024),
            assocs: vec![1, 2, 4, 8, 16, 32, 64],
            tilings: (1..=256).collect(),
            min_lines: 4,
            replacements: vec![Replacement::Lru, Replacement::Fifo, Replacement::Plru],
            write_policies: vec![
                WritePolicy::WriteBackAllocate,
                WritePolicy::WriteThroughNoAllocate,
            ],
        }
    }

    /// A small grid for tests and doc examples (direct-mapped, untiled).
    pub fn small() -> Self {
        DesignSpace {
            cache_sizes: pow2_range(16, 128),
            line_sizes: pow2_range(4, 16),
            assocs: vec![1],
            tilings: vec![1],
            min_lines: 2,
            ..Default::default()
        }
    }

    /// Direct-mapped, untiled sweep over the given size/line ranges — the
    /// grid of the paper's Figs. 1–4.
    pub fn size_line_grid(cache_sizes: &[usize], line_sizes: &[usize]) -> Self {
        DesignSpace {
            cache_sizes: cache_sizes.to_vec(),
            line_sizes: line_sizes.to_vec(),
            assocs: vec![1],
            tilings: vec![1],
            min_lines: 1,
            ..Default::default()
        }
    }

    /// Enumerates all valid designs in sweep order
    /// (`T` outer … `B` inner, as in the paper's pseudocode).
    pub fn designs(&self) -> Vec<CacheDesign> {
        let mut out = Vec::new();
        for &t in &self.cache_sizes {
            for &l in &self.line_sizes {
                if l > t || t / l < self.min_lines {
                    continue;
                }
                for &s in &self.assocs {
                    if s > t / l {
                        continue;
                    }
                    for &b in &self.tilings {
                        if b > (t / l) as u64 {
                            continue;
                        }
                        for &r in &self.replacements {
                            for &w in &self.write_policies {
                                out.push(
                                    CacheDesign::new(t, l, s, b)
                                        .with_replacement(r)
                                        .with_write_policy(w),
                                );
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Number of valid designs, without materializing the grid — the
    /// expansive search spaces run to 10⁶–10⁷ candidates, so callers size
    /// work and report coverage from this count.
    pub fn design_count(&self) -> usize {
        let mut n = 0usize;
        let policies = self.replacements.len() * self.write_policies.len();
        for &t in &self.cache_sizes {
            for &l in &self.line_sizes {
                if l > t || t / l < self.min_lines {
                    continue;
                }
                let lines = (t / l) as u64;
                let s_ok = self.assocs.iter().filter(|&&s| s as u64 <= lines).count();
                let b_ok = self.tilings.iter().filter(|&&b| b <= lines).count();
                n += s_ok * b_ok * policies;
            }
        }
        n
    }
}

/// Which simulation engine a sweep uses. Both produce bit-identical
/// records in the same deterministic sweep order; they differ only in how
/// the work-stealing queue partitions the replay work.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Engine {
    /// The work unit is a **trace group**: one compiled trace plan plus
    /// the bank of every design replaying it, evaluated by a fused
    /// one-pass replay (`memsim::ReplayBank`) that walks the plan once
    /// while stepping all cache states in lockstep.
    #[default]
    Fused,
    /// The work unit is a single design; each one walks its group's plan
    /// on its own. Kept as the reference implementation for differential
    /// tests and perf comparisons.
    PerDesign,
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Engine::Fused => "fused",
            Engine::PerDesign => "per-design",
        })
    }
}

/// A typed sweep failure.
///
/// Worker panics are joined and *propagated* as this error instead of
/// re-panicking on the coordinating thread (which used to turn one broken
/// design into an abort of the whole process). The supervised sweep
/// ([`Explorer::explore_supervised`](crate::supervisor)) additionally
/// wraps checkpoint problems.
#[derive(Debug)]
pub enum ExploreError {
    /// A worker thread panicked during the named sweep phase. The panic
    /// payload (when it was a string) is preserved in `message`.
    WorkerPanic {
        /// Sweep phase that lost the worker (`layout`, `trace`,
        /// `simulate`, `fallback`).
        phase: &'static str,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// Loading or validating a sweep checkpoint failed.
    Checkpoint(CheckpointError),
    /// A `(T, L)` pair's off-chip placement failed, such as an array
    /// whose padded addresses overflow 64 bits. The message names the
    /// pair.
    Placement(String),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::WorkerPanic { phase, message } => {
                write!(f, "sweep worker panicked during {phase} phase: {message}")
            }
            ExploreError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            ExploreError::Placement(message) => write!(f, "{message}"),
        }
    }
}

impl Error for ExploreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExploreError::Checkpoint(e) => Some(e),
            ExploreError::WorkerPanic { .. } | ExploreError::Placement(_) => None,
        }
    }
}

impl From<CheckpointError> for ExploreError {
    fn from(e: CheckpointError) -> Self {
        ExploreError::Checkpoint(e)
    }
}

/// Renders a panic payload as text (panics carry `&str` or `String` in
/// practice; anything else is reported generically).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Powers of two from `lo` to `hi` inclusive.
pub fn pow2_range(lo: usize, hi: usize) -> Vec<usize> {
    assert!(lo > 0 && lo.is_power_of_two() && hi.is_power_of_two() && lo <= hi);
    let mut v = Vec::new();
    let mut x = lo;
    while x <= hi {
        v.push(x);
        x *= 2;
    }
    v
}

/// Runs `jobs` indexed tasks over `workers` threads with work stealing:
/// every worker pulls the next index from one shared atomic counter until
/// the range is exhausted. The task closure receives `(worker, job)` so
/// instrumented callers can attribute units of work to the worker that
/// ran them. Returns each worker's busy time. With one worker the tasks
/// run inline on the calling thread (still in index order pulled from the
/// same counter), so serial and parallel sweeps share a single code path.
///
/// A panicking worker is *joined*, the remaining workers drain the queue,
/// and the first panic's payload comes back as `Err` — the coordinating
/// thread never double-panics and callers can surface the failure as a
/// typed [`ExploreError`].
pub(crate) fn try_steal_loop<F: Fn(usize, usize) + Sync>(
    workers: usize,
    jobs: usize,
    run: F,
) -> Result<Vec<Duration>, String> {
    let next = AtomicUsize::new(0);
    let work = |worker: usize, next: &AtomicUsize| {
        let start = Instant::now();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                break;
            }
            run(worker, i);
        }
        start.elapsed()
    };
    if workers <= 1 || jobs <= 1 {
        return match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(0, &next))) {
            Ok(busy) => Ok(vec![busy]),
            Err(payload) => Err(panic_message(payload)),
        };
    }
    std::thread::scope(|scope| {
        let work = &work;
        let next = &next;
        let handles: Vec<_> = (0..workers)
            .map(|w| scope.spawn(move || work(w, next)))
            .collect();
        let mut busy = Vec::with_capacity(handles.len());
        let mut first_panic: Option<String> = None;
        for h in handles {
            match h.join() {
                Ok(d) => busy.push(d),
                Err(payload) => {
                    first_panic.get_or_insert_with(|| panic_message(payload));
                }
            }
        }
        match first_panic {
            None => Ok(busy),
            Some(message) => Err(message),
        }
    })
}

/// The per-unit latency histograms every sweep engine records into
/// (whether or not a JSONL log is configured): trace-group scans,
/// per-design simulations, layout placements, and checkpoint flushes.
/// Snapshotted into the matching [`SweepTelemetry`] fields at the end of
/// a run.
#[derive(Debug, Default)]
pub(crate) struct SweepHists {
    /// Layout placement latency (one sample per distinct `(T, L)` pair).
    pub layout: LatencyHistogram,
    /// Layout scoring latency (one sample per direct-mapped scoring bank).
    pub score: LatencyHistogram,
    /// Per-design simulation latency (per-design engine + fallbacks).
    pub design: LatencyHistogram,
    /// Trace-group scan latency (fused engine, one sample per bank).
    pub scan: LatencyHistogram,
    /// Checkpoint flush latency (supervised sweeps).
    pub flush: LatencyHistogram,
}

impl SweepHists {
    /// Snapshots every histogram into its telemetry field.
    pub fn fill(&self, t: &mut SweepTelemetry) {
        t.layout_latency = self.layout.summary();
        t.score_latency = self.score.summary();
        t.design_latency = self.design.summary();
        t.scan_latency = self.scan.summary();
        t.flush_latency = self.flush.summary();
    }
}

/// Runs the sweep, fanning designs out across worker threads.
///
/// # Example
///
/// ```
/// use memexplore::{DesignSpace, Explorer};
/// use loopir::kernels;
///
/// let records = Explorer::default().explore(&kernels::matadd(6), &DesignSpace::small());
/// assert!(!records.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct Explorer {
    /// Per-design evaluator.
    pub evaluator: Evaluator,
    /// Worker-thread count; `None` uses the machine's available
    /// parallelism. `Some(1)` forces a fully serial sweep (useful as the
    /// reference for determinism checks — results are bit-identical
    /// either way).
    pub workers: Option<usize>,
    /// Simulation engine ([`Engine::Fused`] by default; records are
    /// bit-identical either way).
    pub engine: Engine,
    /// Observability hub (JSONL events + progress counters). `None` — the
    /// default — keeps the sweep exactly as uninstrumented as before;
    /// records are bit-identical either way.
    pub obs: Option<Arc<Obs>>,
    /// Whether the fused engine may resolve qualifying trace groups in
    /// closed form instead of replaying them (see [`crate::analytic`]).
    /// On by default; records are bit-identical either way — `false` is
    /// the `--no-analytic` escape hatch and the honest replay baseline
    /// for benchmarks.
    pub analytic: bool,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            evaluator: Evaluator::default(),
            workers: None,
            engine: Engine::default(),
            obs: None,
            analytic: true,
        }
    }
}

/// The prepared inputs of a kernel sweep's simulate phase, built by
/// [`Explorer::prepare`]: the layout phase (one off-chip placement per
/// distinct `(T, L)` pair) and the trace groups, one per distinct
/// (deduplicated layout, tiling) key, with the tiled kernels and layouts
/// their plans compile from. [`Explorer::compile_plans`] then runs the
/// trace and classify phases over it.
pub(crate) struct SweepPlan {
    /// Distinct `(T, L)` pair → its index in first-appearance order.
    pub pair_index: HashMap<(usize, usize), usize>,
    /// Conflict-free flag per pair (belongs to the pair, not the layout:
    /// pairs with equal layout contents can differ here).
    pub conflict_free: Vec<bool>,
    /// `groups[k]` lists the indices of every design replaying trace key
    /// `k`, in sweep order.
    pub groups: Vec<Vec<usize>>,
    /// Trace key `(layout id, B)` of each group.
    keys: Vec<(usize, u64)>,
    /// The kernel tiled by each `B` of the grid.
    tiled: HashMap<u64, Kernel>,
    /// The deduplicated layouts, by layout id.
    layouts: Vec<DataLayout>,
    /// Wall time of the layout phase.
    layout_time: Duration,
}

impl SweepPlan {
    /// The conflict-free flag of a design's `(T, L)` pair.
    pub fn conflict_free_of(&self, d: &CacheDesign) -> bool {
        self.conflict_free[self.pair_index[&(d.cache_size, d.line)]]
    }

    /// Writes the layout phase's counters and timing into `t`.
    pub fn fill(&self, t: &mut SweepTelemetry) {
        t.layouts_computed = self.pair_index.len();
        t.layout_time = self.layout_time;
    }
}

/// A trace group the classify phase resolved in closed form.
#[derive(Clone)]
pub(crate) struct Resolved {
    /// One record per member, in member order.
    pub records: Vec<Record>,
    /// Events in the group's trace.
    pub events: usize,
}

/// The trace and classify phases' output over a [`SweepPlan`]: one
/// compiled, not yet walked trace plan per group, and the closed-form
/// records of every group the analytic fast path resolved.
pub(crate) struct GroupFeeds<'p> {
    plans: Vec<TraceGen<'p>>,
    known: Vec<Option<Resolved>>,
    /// Events of the traces the classify phase materialized.
    events_materialized: u64,
    trace_time: Duration,
    classify_time: Duration,
}

impl GroupFeeds<'_> {
    /// One bank unit per trace group of `groups` (the plan's): the
    /// closed-form records the classify phase resolved for it, else its
    /// compiled plan.
    pub fn units(&self, groups: &[Vec<usize>]) -> Vec<Unit<'_>> {
        groups
            .iter()
            .zip(self.known.clone())
            .zip(&self.plans)
            .map(|((members, known), plan)| {
                let feed = match known {
                    Some(Resolved { records, events }) => Feed::Known { records, events },
                    None => Feed::Plan(plan),
                };
                Unit::bank(members.clone(), feed)
            })
            .collect()
    }

    /// Writes the trace and classify phases' counters and timings into
    /// `t`, on top of the simulate phase's generated events.
    pub fn fill(&self, t: &mut SweepTelemetry) {
        t.traces_generated = self.plans.len();
        t.trace_events_generated += self.events_materialized;
        t.trace_time = self.trace_time;
        t.classify_time = self.classify_time;
    }
}

impl Explorer {
    /// An explorer around a specific evaluator.
    pub fn new(evaluator: Evaluator) -> Self {
        Explorer {
            evaluator,
            ..Explorer::default()
        }
    }

    /// Enables or disables the analytic fast path (builder-style).
    pub fn with_analytic(mut self, analytic: bool) -> Self {
        self.analytic = analytic;
        self
    }

    /// Pins the sweep to a fixed worker count (builder-style).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Selects the simulation engine (builder-style).
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Attaches an observability hub (builder-style).
    pub fn with_obs(mut self, obs: Arc<Obs>) -> Self {
        self.obs = Some(obs);
        self
    }

    pub(crate) fn worker_count(&self, jobs: usize) -> usize {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        self.workers.unwrap_or(hw).max(1).min(jobs.max(1))
    }

    /// Evaluates every design of `space` on `kernel`. Results come back in
    /// sweep order regardless of thread scheduling.
    pub fn explore(&self, kernel: &Kernel, space: &DesignSpace) -> Vec<Record> {
        self.explore_designs(kernel, &space.designs())
    }

    /// Evaluates an explicit design list (in order).
    pub fn explore_designs(&self, kernel: &Kernel, designs: &[CacheDesign]) -> Vec<Record> {
        self.explore_designs_with_telemetry(kernel, designs).0
    }

    /// [`explore`](Self::explore), additionally reporting
    /// [`SweepTelemetry`] for the run.
    pub fn explore_with_telemetry(
        &self,
        kernel: &Kernel,
        space: &DesignSpace,
    ) -> (Vec<Record>, SweepTelemetry) {
        self.explore_designs_with_telemetry(kernel, &space.designs())
    }

    /// The compile-once, simulate-many engine behind every sweep.
    ///
    /// Five phases, all but the last work-stealing over scoped threads:
    ///
    /// 1. **layout** — one off-chip placement per distinct `(T, L)` pair
    ///    (placement does not depend on `S` or `B`);
    /// 2. **trace** — one compiled `loopir::TraceGen` plan per distinct
    ///    (layout value, `B`) key; nothing is generated yet;
    /// 3. **classify** — a trace group that passes the analytic fast
    ///    path's capacity gate has its trace materialized and, if the
    ///    fast path resolves it exactly, gets its records in closed form.
    ///    No other group's trace is ever held whole (none on the paper
    ///    grid);
    /// 4. **simulate** — the [sweep runner](crate::sweep) steals units: a
    ///    trace group (with [`Engine::Fused`]) whose plan is walked in
    ///    4,096-event chunks straight into one `memsim::ReplayBank`
    ///    stepping every member in lockstep, or a single design (with
    ///    [`Engine::PerDesign`]) walking the plan alone. Trace generation
    ///    happens here (`SweepTelemetry::generate_time`), and a deadline
    ///    stops it between chunks. Records scatter into per-design slots;
    /// 5. **select** — slots are collected into sweep order.
    pub fn explore_designs_with_telemetry(
        &self,
        kernel: &Kernel,
        designs: &[CacheDesign],
    ) -> (Vec<Record>, SweepTelemetry) {
        self.try_explore_designs_with_telemetry(kernel, designs)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the layout phase over `designs` and groups them by trace key.
    /// A worker panic here is a whole-phase failure (layouts are inputs
    /// to *every* design), so it propagates as
    /// [`ExploreError::WorkerPanic`] rather than being isolated per unit;
    /// a failed placement is [`ExploreError::Placement`].
    pub(crate) fn prepare(
        &self,
        kernel: &Kernel,
        designs: &[CacheDesign],
        workers: usize,
        hists: &SweepHists,
    ) -> Result<SweepPlan, ExploreError> {
        // Off-chip layouts, one per distinct (T, L), deduplicated by value.
        let phase_start = Instant::now();
        let mut pair_index: HashMap<(usize, usize), usize> = HashMap::new();
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for d in designs {
            pair_index.entry((d.cache_size, d.line)).or_insert_with(|| {
                pairs.push((d.cache_size, d.line));
                pairs.len() - 1
            });
        }
        let mut layouts: Vec<DataLayout> = Vec::new();
        let arbitrated = arbitrate_layouts(
            &self.evaluator,
            kernel,
            &pairs,
            workers,
            self.obs.as_deref(),
            Some(hists),
            &mut layouts,
        )?;
        let (layout_id, conflict_free): (Vec<usize>, Vec<bool>) = arbitrated.into_iter().unzip();
        let layout_time = phase_start.elapsed();

        // A trace depends on the layout *contents* and the tiling — not on
        // (T, L) directly — and distinct (T, L) pairs often optimize to
        // identical layouts, so traces are keyed by (layout id, B). Tiling
        // reorders the loop nest, so the tiled kernel is shared per B.
        // Each key's designs form one trace group.
        let mut tiled: HashMap<u64, Kernel> = HashMap::new();
        let mut key_index: HashMap<(usize, u64), usize> = HashMap::new();
        let mut keys: Vec<(usize, u64)> = Vec::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, d) in designs.iter().enumerate() {
            tiled
                .entry(d.tiling)
                .or_insert_with(|| tile_all(kernel, d.tiling));
            let id = layout_id[pair_index[&(d.cache_size, d.line)]];
            let g = *key_index.entry((id, d.tiling)).or_insert_with(|| {
                keys.push((id, d.tiling));
                groups.push(Vec::new());
                keys.len() - 1
            });
            groups[g].push(i);
        }
        Ok(SweepPlan {
            pair_index,
            conflict_free,
            groups,
            keys,
            tiled,
            layouts,
            layout_time,
        })
    }

    /// The trace phase, then the classify phase, over `plan`: each trace
    /// key's plan is compiled (not walked), then every group the analytic
    /// fast path resolves gets its records in closed form. A compile
    /// panic (`trace address overflow`) is a whole-phase
    /// [`ExploreError::WorkerPanic`] with phase `trace`: every design of
    /// the group would fail the same way.
    pub(crate) fn compile_plans<'p>(
        &self,
        kernel: &Kernel,
        designs: &[CacheDesign],
        workers: usize,
        plan: &'p SweepPlan,
    ) -> Result<GroupFeeds<'p>, ExploreError> {
        let phase_start = Instant::now();
        let span = Span::begin(self.obs.as_deref(), "trace");
        let slots: Vec<OnceLock<TraceGen<'p>>> =
            plan.keys.iter().map(|_| OnceLock::new()).collect();
        try_steal_loop(workers, plan.keys.len(), |_w, g| {
            let (id, b) = plan.keys[g];
            let _ = slots[g].set(TraceGen::new(&plan.tiled[&b], &plan.layouts[id]));
        })
        .map_err(|message| ExploreError::WorkerPanic {
            phase: "trace",
            message,
        })?;
        let plans: Vec<TraceGen<'p>> = slots
            .into_iter()
            .map(|s| s.into_inner().expect("trace phase compiled every key"))
            .collect();
        drop(span);
        let trace_time = phase_start.elapsed();

        let phase_start = Instant::now();
        let (known, events_materialized) = self.classify(
            kernel,
            workers,
            designs,
            |i| plan.conflict_free_of(&designs[i]),
            &plan.groups,
            &plans,
        )?;
        Ok(GroupFeeds {
            plans,
            known,
            events_materialized,
            trace_time,
            classify_time: phase_start.elapsed(),
        })
    }

    /// The classify phase: trace group `g` (design indices sharing
    /// `plans[g]`) gets its closed-form records when the analytic fast
    /// path resolves every member exactly, else `None`. Only a group that
    /// passes the fast path's capacity gate ([`gate_admits`]) has its
    /// trace materialized; the second value counts those traces' events.
    /// All `None` when the fast path is disabled, and under
    /// [`Engine::PerDesign`], whose sweeps stay a pure replay of every
    /// design.
    fn classify(
        &self,
        kernel: &Kernel,
        workers: usize,
        designs: &[CacheDesign],
        conflict_free: impl Fn(usize) -> bool + Sync,
        groups: &[Vec<usize>],
        plans: &[TraceGen<'_>],
    ) -> Result<(Vec<Option<Resolved>>, u64), ExploreError> {
        if !self.analytic || self.engine == Engine::PerDesign {
            return Ok((groups.iter().map(|_| None).collect(), 0));
        }
        let span = Span::begin(self.obs.as_deref(), "classify");
        let footprint = kernel_footprint_bytes(kernel);
        let materialized = AtomicU64::new(0);
        let slots: Vec<OnceLock<Resolved>> = groups.iter().map(|_| OnceLock::new()).collect();
        try_steal_loop(workers, groups.len(), |_w, g| {
            let lanes: Vec<(CacheDesign, bool)> = groups[g]
                .iter()
                .map(|&i| (designs[i], conflict_free(i)))
                .collect();
            if !gate_admits(footprint, &lanes) {
                return;
            }
            let trace = collect_reads(plans[g].clone());
            materialized.fetch_add(trace.len() as u64, Ordering::Relaxed);
            if let Some(records) = try_group_records(&self.evaluator, footprint, &lanes, &trace) {
                let _ = slots[g].set(Resolved {
                    records,
                    events: trace.len(),
                });
            }
        })
        .map_err(|message| ExploreError::WorkerPanic {
            phase: "classify",
            message,
        })?;
        drop(span);
        Ok((
            slots.into_iter().map(OnceLock::into_inner).collect(),
            materialized.into_inner(),
        ))
    }

    /// Fallible [`explore_designs_with_telemetry`](Self::explore_designs_with_telemetry):
    /// the supervised sweep with default options, so a panicking trace
    /// group is retried one design at a time; a design that panics even
    /// alone surfaces as a typed [`ExploreError`] instead of a process
    /// abort. For quarantine, checkpointing, and deadlines, use
    /// [`explore_supervised`](Self::explore_supervised).
    pub fn try_explore_designs_with_telemetry(
        &self,
        kernel: &Kernel,
        designs: &[CacheDesign],
    ) -> Result<(Vec<Record>, SweepTelemetry), ExploreError> {
        let outcome = self.explore_supervised(kernel, designs, &SweepOptions::default())?;
        if let Some(e) = outcome.errors.into_iter().next() {
            return Err(ExploreError::WorkerPanic {
                phase: "simulate",
                message: e.message,
            });
        }
        let records = outcome
            .records
            .into_iter()
            .map(|r| r.expect("no errors and no deadline leaves every slot filled"))
            .collect();
        Ok((records, outcome.telemetry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopir::kernels;

    #[test]
    fn pow2_range_is_inclusive() {
        assert_eq!(pow2_range(4, 64), vec![4, 8, 16, 32, 64]);
        assert_eq!(pow2_range(16, 16), vec![16]);
    }

    #[test]
    fn designs_respect_all_constraints() {
        let space = DesignSpace::paper();
        for d in space.designs() {
            assert!(d.line <= d.cache_size);
            assert!(d.cache_size / d.line >= space.min_lines);
            assert!(d.assoc <= d.cache_size / d.line);
            assert!(d.tiling <= (d.cache_size / d.line) as u64);
            assert!(d.cache_config().is_ok());
        }
    }

    #[test]
    fn paper_space_is_reasonably_sized() {
        let n = DesignSpace::paper().designs().len();
        assert!(n > 100, "space too small: {n}");
        assert!(n < 3000, "space too large: {n}");
    }

    #[test]
    fn paper_space_stays_policy_free() {
        // Legacy grids must not grow policy axes: sweep order, checkpoint
        // sweep ids, and golden outputs all depend on it.
        let designs = DesignSpace::paper().designs();
        assert_eq!(designs.len(), 425);
        assert!(designs.iter().all(|d| d.has_default_policies()));
    }

    #[test]
    fn expansive_space_exceeds_a_million_designs() {
        let space = DesignSpace::expansive();
        let n = space.design_count();
        assert!(n >= 1_000_000, "expansive space too small: {n}");
        assert!(n < 10_000_000, "expansive space too large: {n}");
    }

    #[test]
    fn design_count_matches_materialized_grids() {
        for space in [
            DesignSpace::paper(),
            DesignSpace::small(),
            DesignSpace::size_line_grid(&[16, 32], &[4, 8]),
        ] {
            assert_eq!(space.design_count(), space.designs().len());
        }
        // A grid with policy axes counts the cross product too.
        let space = DesignSpace {
            cache_sizes: vec![64, 128],
            line_sizes: vec![8],
            assocs: vec![1, 2],
            tilings: vec![1, 2],
            min_lines: 2,
            replacements: vec![Replacement::Lru, Replacement::Fifo],
            write_policies: vec![
                WritePolicy::WriteBackAllocate,
                WritePolicy::WriteThroughNoAllocate,
            ],
        };
        assert_eq!(space.design_count(), space.designs().len());
        assert_eq!(space.design_count(), 2 * 2 * 2 * 2 * 2);
    }

    #[test]
    fn sweep_order_is_t_outer_b_inner() {
        let space = DesignSpace::paper();
        let designs = space.designs();
        // Cache sizes must be non-decreasing through the list.
        assert!(designs
            .windows(2)
            .all(|w| w[0].cache_size <= w[1].cache_size));
    }

    #[test]
    fn parallel_and_serial_results_agree() {
        let k = kernels::matadd(6);
        let space = DesignSpace::small();
        let designs = space.designs();
        let explorer = Explorer::default();
        let parallel = explorer.explore_designs(&k, &designs);
        let serial: Vec<_> = designs
            .iter()
            .map(|&d| explorer.evaluator.evaluate(&k, d))
            .collect();
        assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.design, s.design);
            assert_eq!(p.miss_rate, s.miss_rate);
            assert_eq!(p.energy_nj, s.energy_nj);
        }
    }

    #[test]
    fn grid_space_is_direct_mapped_untiled() {
        let g = DesignSpace::size_line_grid(&[16, 32], &[4, 8]);
        for d in g.designs() {
            assert_eq!(d.assoc, 1);
            assert_eq!(d.tiling, 1);
        }
    }

    #[test]
    fn steal_loop_visits_every_job_exactly_once() {
        for workers in [1, 3, 8] {
            let hits: Vec<AtomicUsize> = (0..57).map(|_| AtomicUsize::new(0)).collect();
            let busy = try_steal_loop(workers, hits.len(), |w, i| {
                assert!(w < workers);
                hits[i].fetch_add(1, Ordering::Relaxed);
            })
            .expect("no job panics");
            assert!(!busy.is_empty() && busy.len() <= workers);
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "job {i} ({workers} workers)");
            }
        }
    }

    #[test]
    fn serial_and_stealing_sweeps_are_bit_identical() {
        let k = kernels::compress(15);
        let designs = DesignSpace::small().designs();
        let serial = Explorer::default()
            .with_workers(1)
            .explore_designs(&k, &designs);
        let parallel = Explorer::default()
            .with_workers(4)
            .explore_designs(&k, &designs);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn engine_matches_single_design_evaluation() {
        let k = kernels::matadd(6);
        let designs = DesignSpace::small().designs();
        let explorer = Explorer::default();
        let swept = explorer.explore_designs(&k, &designs);
        for (rec, &d) in swept.iter().zip(&designs) {
            let lone = explorer.evaluator.evaluate(&k, d);
            assert_eq!(*rec, lone, "sweep diverged from evaluate() at {d}");
        }
    }

    #[test]
    fn telemetry_counts_are_consistent() {
        let k = kernels::matadd(6);
        let space = DesignSpace {
            cache_sizes: vec![64, 128],
            line_sizes: vec![8],
            assocs: vec![1, 2, 4],
            tilings: vec![1, 2],
            min_lines: 2,
            ..Default::default()
        };
        let designs = space.designs();
        let (records, t) = Explorer::default().explore_designs_with_telemetry(&k, &designs);
        assert_eq!(records.len(), designs.len());
        assert_eq!(t.designs_evaluated, designs.len());
        assert_eq!(t.layouts_computed, 2); // (64, 8) and (128, 8)
                                           // At most two distinct layouts x two tilings; at least one trace
                                           // per tiling (layouts with equal contents share a trace).
        assert!(
            (2..=4).contains(&t.traces_generated),
            "{}",
            t.traces_generated
        );
        assert!(t.trace_events_generated > 0);
        // Three associativities per (T, L, B) replay each trace; reuse must
        // exceed generation.
        assert!(t.trace_events_replayed > t.trace_events_generated);
        assert_eq!(
            t.trace_events_reused(),
            t.trace_events_replayed - t.trace_events_generated
        );
        assert!(t.workers >= 1);
        assert!(!t.worker_busy.is_empty());
    }

    #[test]
    fn fused_and_per_design_engines_are_bit_identical() {
        let k = kernels::compress(15);
        let space = DesignSpace {
            cache_sizes: vec![32, 64, 128],
            line_sizes: vec![4, 8, 16],
            assocs: vec![1, 2],
            tilings: vec![1, 2],
            min_lines: 2,
            ..Default::default()
        };
        let designs = space.designs();
        let fused = Explorer::default()
            .with_engine(Engine::Fused)
            .explore_designs(&k, &designs);
        let per_design = Explorer::default()
            .with_engine(Engine::PerDesign)
            .explore_designs(&k, &designs);
        assert_eq!(fused, per_design);
    }

    #[test]
    fn fused_engine_scans_less_than_it_replays() {
        let k = kernels::matadd(6);
        let space = DesignSpace {
            cache_sizes: vec![64, 128],
            line_sizes: vec![8],
            assocs: vec![1, 2, 4],
            tilings: vec![1],
            min_lines: 2,
            ..Default::default()
        };
        let designs = space.designs();
        let (_, fused) = Explorer::default()
            .with_engine(Engine::Fused)
            .explore_designs_with_telemetry(&k, &designs);
        assert!(fused.fused_groups > 0);
        assert!(fused.max_bank_width >= 3); // 3 associativities share a slice
        assert!(fused.trace_events_scanned < fused.trace_events_replayed);
        assert_eq!(
            fused.trace_events_avoided(),
            fused.trace_events_replayed - fused.trace_events_scanned
        );
        let (_, per) = Explorer::default()
            .with_engine(Engine::PerDesign)
            .explore_designs_with_telemetry(&k, &designs);
        assert_eq!(per.fused_groups, 0);
        assert_eq!(per.max_bank_width, 0);
        assert_eq!(per.trace_events_scanned, per.trace_events_replayed);
        assert_eq!(per.trace_events_avoided(), 0);
        // Logical replay counts agree across engines.
        assert_eq!(per.trace_events_replayed, fused.trace_events_replayed);
    }

    #[test]
    fn engine_display_matches_cli_names() {
        assert_eq!(Engine::Fused.to_string(), "fused");
        assert_eq!(Engine::PerDesign.to_string(), "per-design");
        assert_eq!(Engine::default(), Engine::Fused);
    }

    #[test]
    fn empty_design_list_yields_empty_sweep() {
        let k = kernels::matadd(4);
        let (records, t) = Explorer::default().explore_designs_with_telemetry(&k, &[]);
        assert!(records.is_empty());
        assert_eq!(t.designs_evaluated, 0);
        assert_eq!(t.trace_events_generated, 0);
        assert_eq!(t.trace_reuse_factor(), 1.0);
    }

    #[test]
    fn duplicate_designs_are_each_evaluated() {
        let k = kernels::matadd(5);
        let d = CacheDesign::new(64, 8, 1, 1);
        let (records, t) = Explorer::default().explore_designs_with_telemetry(&k, &[d, d, d]);
        assert_eq!(records.len(), 3);
        assert_eq!(records[0], records[1]);
        assert_eq!(records[1], records[2]);
        assert_eq!(t.traces_generated, 1);
        assert_eq!(t.trace_events_replayed, 3 * t.trace_events_generated);
    }
}
