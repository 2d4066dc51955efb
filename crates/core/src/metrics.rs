//! Evaluating one cache design against one kernel.

use crate::arbitrate::arbitrate_layouts;
use crate::cycles::CycleModel;
use crate::explore::ExploreError;
use energy::DacEnergyModel;
use energy::SramPart;
use loopir::transform::tile_all;
use loopir::{AccessKind, DataLayout, Kernel, TraceGen};
use memsim::{
    BusEncoding, CacheConfig, CompressedTrace, Replacement, ReplayBank, Simulator, TraceEvent,
    TraceSource, TraceSourceError, WritePolicy,
};
use std::fmt;

/// One point of the design space: the paper's `(T, L, S, B)`, extended
/// with the simulator's replacement and write policies as first-class
/// axes (both default to the paper's assumptions: LRU, write-back with
/// write-allocate).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheDesign {
    /// Cache size `T` in bytes.
    pub cache_size: usize,
    /// Line size `L` in bytes.
    pub line: usize,
    /// Set associativity `S`.
    pub assoc: usize,
    /// Tiling size `B` (1 = untiled).
    pub tiling: u64,
    /// Replacement policy (default LRU, the paper's model).
    pub replacement: Replacement,
    /// Write policy (default write-back/write-allocate).
    pub write_policy: WritePolicy,
}

impl CacheDesign {
    /// Builds a design with the paper's default policies; geometry is
    /// validated when evaluated.
    pub fn new(cache_size: usize, line: usize, assoc: usize, tiling: u64) -> Self {
        CacheDesign {
            cache_size,
            line,
            assoc,
            tiling,
            replacement: Replacement::default(),
            write_policy: WritePolicy::default(),
        }
    }

    /// Replaces the replacement policy (builder-style).
    pub fn with_replacement(mut self, replacement: Replacement) -> Self {
        self.replacement = replacement;
        self
    }

    /// Replaces the write policy (builder-style).
    pub fn with_write_policy(mut self, write_policy: WritePolicy) -> Self {
        self.write_policy = write_policy;
        self
    }

    /// Whether both policies are the paper defaults (LRU +
    /// write-back/write-allocate). Grids of such designs keep the legacy
    /// checkpoint sweep-id and the compact `Display` form.
    pub fn has_default_policies(&self) -> bool {
        self.replacement == Replacement::default() && self.write_policy == WritePolicy::default()
    }

    /// The corresponding validated cache configuration (policies applied).
    ///
    /// # Errors
    ///
    /// Propagates [`memsim::ConfigError`] for invalid geometry, and for a
    /// replacement policy the geometry cannot carry (tree-PLRU above 64
    /// ways).
    pub fn cache_config(&self) -> Result<CacheConfig, memsim::ConfigError> {
        Ok(CacheConfig::new(self.cache_size, self.line, self.assoc)?
            .try_with_replacement(self.replacement)?
            .with_write_policy(self.write_policy))
    }
}

impl fmt::Display for CacheDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "C{}L{}SA{}B{}",
            self.cache_size, self.line, self.assoc, self.tiling
        )?;
        if self.replacement != Replacement::default() {
            write!(f, "R{}", self.replacement)?;
        }
        if self.write_policy != WritePolicy::default() {
            let tag = match self.write_policy {
                WritePolicy::WriteBackAllocate => "WB",
                WritePolicy::WriteThroughNoAllocate => "WT",
            };
            write!(f, "W{tag}")?;
        }
        Ok(())
    }
}

/// The measured performance of one design on one kernel — the paper's §5
/// record `(T, L, S, B, mr, C, E)`.
///
/// `PartialEq` compares the floating-point metrics exactly (bitwise for
/// finite values) — the sweep engine is deterministic, so differential
/// tests assert bit-identical records, not approximate ones.
#[derive(Clone, PartialEq, Debug)]
pub struct Record {
    /// The design point.
    pub design: CacheDesign,
    /// Read miss rate (the paper's `mr`).
    pub miss_rate: f64,
    /// Processor cycles (the paper's `C`).
    pub cycles: f64,
    /// Energy in nanojoules (the paper's `E`).
    pub energy_nj: f64,
    /// Read accesses simulated (the paper's trip count).
    pub trip_count: u64,
    /// Whether the off-chip assignment achieved the conflict-free guarantee.
    pub conflict_free: bool,
}

/// How the off-chip data is laid out before simulation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PlacementMode {
    /// Run the §4.1 off-chip assignment (the paper's "optimized" rows).
    #[default]
    Optimized,
    /// Natural packed row-major layout (the "unoptimized" rows).
    Natural,
}

/// Evaluates designs by tiling the kernel, placing its arrays, generating
/// the read trace, and simulating it.
///
/// # Example
///
/// ```
/// use memexplore::{CacheDesign, Evaluator};
/// use loopir::kernels;
///
/// let eval = Evaluator::default();
/// let rec = eval.evaluate(&kernels::compress(31), CacheDesign::new(64, 8, 1, 1));
/// assert!(rec.miss_rate < 0.3); // optimized placement keeps misses low
/// assert_eq!(rec.trip_count, 4 * 961);
/// ```
#[derive(Clone, Debug)]
pub struct Evaluator {
    /// Energy model (off-chip part + coefficients).
    pub energy_model: DacEnergyModel,
    /// Cycle model.
    pub cycle_model: CycleModel,
    /// Off-chip layout mode.
    pub placement: PlacementMode,
    /// Address-bus encoding (the paper assumes Gray).
    pub bus_encoding: BusEncoding,
}

impl Default for Evaluator {
    /// CY7C 2 Mbit SRAM (`Em = 4.95 nJ`), optimized placement, Gray buses —
    /// the paper's main operating point.
    fn default() -> Self {
        Evaluator {
            energy_model: DacEnergyModel::new(SramPart::cy7c_2mbit()),
            cycle_model: CycleModel,
            placement: PlacementMode::Optimized,
            bus_encoding: BusEncoding::Gray,
        }
    }
}

impl Evaluator {
    /// An evaluator for a specific off-chip part, otherwise defaults.
    pub fn with_part(part: SramPart) -> Self {
        Evaluator {
            energy_model: DacEnergyModel::new(part),
            ..Default::default()
        }
    }

    /// An evaluator using the natural (unoptimized) layout.
    pub fn unoptimized(mut self) -> Self {
        self.placement = PlacementMode::Natural;
        self
    }

    /// Computes the off-chip layout this evaluator would use for a
    /// `(cache size, line size)` pair, plus the conflict-free flag.
    ///
    /// Layouts depend only on the kernel and `(T, L)` — not on associativity
    /// or tiling — so sweeps compute them once per pair, all pairs in one
    /// layout phase. This is that phase applied to one pair: the optimized
    /// mode places the arrays, then keeps the padded layout unless the
    /// natural one misses strictly less on a direct-mapped `(T, L)` cache,
    /// so the assignment can never lose to doing nothing.
    ///
    /// # Panics
    ///
    /// Where [`try_layout_for`](Self::try_layout_for) returns an error.
    pub fn layout_for(
        &self,
        kernel: &Kernel,
        cache_size: usize,
        line: usize,
    ) -> (DataLayout, bool) {
        self.try_layout_for(kernel, cache_size, line)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`layout_for`](Self::layout_for), with a failed placement as
    /// [`ExploreError::Placement`].
    pub fn try_layout_for(
        &self,
        kernel: &Kernel,
        cache_size: usize,
        line: usize,
    ) -> Result<(DataLayout, bool), ExploreError> {
        let mut unique = Vec::with_capacity(1);
        let arbitrated = arbitrate_layouts(
            self,
            kernel,
            &[(cache_size, line)],
            1,
            None,
            None,
            &mut unique,
        )?;
        let (_, conflict_free) = arbitrated[0];
        let layout = unique.pop().expect("one pair yields one layout");
        Ok((layout, conflict_free))
    }

    /// Evaluates `design` on `kernel`.
    ///
    /// The kernel is tiled by `design.tiling` (paper knob `B`, applied to
    /// every loop level — classic blocking), its arrays are placed according
    /// to the placement mode, the read trace is simulated, and the cycle and
    /// energy models are applied to the measured hit/miss counts.
    ///
    /// # Panics
    ///
    /// Panics if the design's geometry is invalid (callers sweeping a
    /// [`DesignSpace`](crate::DesignSpace) never produce such designs) or if
    /// the line size is outside the cycle model's 4…1024 B range.
    pub fn evaluate(&self, kernel: &Kernel, design: CacheDesign) -> Record {
        if let Err(e) = design.cache_config() {
            panic!("invalid design {design}: {e}");
        }
        let (layout, conflict_free) = self.layout_for(kernel, design.cache_size, design.line);
        let trace = read_trace(&tile_all(kernel, design.tiling), &layout);
        self.evaluate_with_trace(design, &trace, conflict_free)
    }

    /// Like [`evaluate`](Self::evaluate) but replaying a pre-materialized
    /// read trace (the tiled kernel's reads under the chosen layout).
    ///
    /// This is the scalar reference replay: one [`Simulator`] steps the
    /// raw slice, with no bank, compression or bulk scan in between.
    /// [`evaluate`](Self::evaluate) is built on it, and the sweep and
    /// search oracles compare bank records against it.
    ///
    /// # Panics
    ///
    /// Same conditions as [`evaluate`](Self::evaluate).
    pub fn evaluate_with_trace(
        &self,
        design: CacheDesign,
        trace: &[TraceEvent],
        conflict_free: bool,
    ) -> Record {
        let config = design
            .cache_config()
            .unwrap_or_else(|e| panic!("invalid design {design}: {e}"));
        let mut sim = Simulator::with_options(config, self.bus_encoding, false);
        sim.run_slice(trace);
        self.record_from_report(design, &sim.into_report(), conflict_free)
    }

    /// Evaluates a whole bank of designs against one shared trace slice in
    /// a single scan — the fused engine's work unit (a *trace group*), and
    /// a certified search's leaf batch.
    ///
    /// All designs must share the trace, i.e. the same layout and tiling
    /// `B`; the sweep and the search group them that way. Returns one record per
    /// design, in input order, each bit-identical to what
    /// [`evaluate_with_trace`](Self::evaluate_with_trace) would produce for
    /// that design alone (see `memsim::ReplayBank` for the argument).
    ///
    /// # Panics
    ///
    /// Same conditions as [`evaluate`](Self::evaluate), for any design in
    /// the bank.
    pub fn evaluate_bank_with_trace(
        &self,
        designs: &[(CacheDesign, bool)],
        trace: &[TraceEvent],
    ) -> Vec<Record> {
        let mut bank = self.replay_bank(designs);
        bank.run_slice(trace);
        self.evaluate_bank_reports(designs, &bank.finish())
    }

    /// [`evaluate_bank_with_trace`](Self::evaluate_bank_with_trace)
    /// streaming from a delta-compressed trace: each decoded block is fed
    /// to the bank in turn, so replay never needs the raw events resident.
    /// `tick`, when given, is called once per block with the block's event
    /// count. Records are bit-identical to the uncompressed variant — the
    /// bank's chunk-invariance contract covers block boundaries exactly as
    /// it covers chunk boundaries.
    ///
    /// No sweep calls this any more (they stream each trace from its
    /// compiled plan, see [`PlanSource`]). It stays for memxbench's traced
    /// `paper_sweep` run, which re-stages the old compressed pipeline.
    pub fn evaluate_bank_with_ztrace(
        &self,
        designs: &[(CacheDesign, bool)],
        ztrace: &CompressedTrace,
        tick: Option<&(dyn Fn(u64) + Sync)>,
    ) -> Vec<Record> {
        let mut bank = self.replay_bank(designs);
        ztrace.replay(|block| {
            bank.feed(block);
            if let Some(tick) = tick {
                tick(block.len() as u64);
            }
        });
        self.evaluate_bank_reports(designs, &bank.finish())
    }

    /// A fresh [`ReplayBank`] stepping every design of `designs` — the
    /// shared head of every bank evaluation; finish it with
    /// [`evaluate_bank_reports`](Self::evaluate_bank_reports).
    ///
    /// # Panics
    ///
    /// Same conditions as [`evaluate`](Self::evaluate), for any design in
    /// the bank.
    pub(crate) fn replay_bank(&self, designs: &[(CacheDesign, bool)]) -> ReplayBank {
        let configs: Vec<CacheConfig> = designs
            .iter()
            .map(|(design, _)| {
                design
                    .cache_config()
                    .unwrap_or_else(|e| panic!("invalid design {design}: {e}"))
            })
            .collect();
        ReplayBank::with_options(&configs, self.bus_encoding, false)
    }

    /// Converts finished [`memsim::SimReport`]s of a bank scan into
    /// [`Record`]s, in input order — the public tail of the evaluation
    /// pipeline for callers that drive the replay themselves (the sweep
    /// runner feeds a [`ReplayBank`] chunk by chunk and finishes it here,
    /// so every sweep shares one cycle/energy model path).
    ///
    /// # Panics
    ///
    /// Panics if `reports` and `designs` differ in length.
    pub fn evaluate_bank_reports(
        &self,
        designs: &[(CacheDesign, bool)],
        reports: &[memsim::SimReport],
    ) -> Vec<Record> {
        assert_eq!(
            designs.len(),
            reports.len(),
            "one report per bank design expected"
        );
        reports
            .iter()
            .zip(designs)
            .map(|(report, &(design, conflict_free))| {
                self.record_from_report(design, report, conflict_free)
            })
            .collect()
    }

    /// Applies the cycle and energy models to a finished simulation report
    /// — the shared tail of the per-design and fused evaluation paths.
    fn record_from_report(
        &self,
        design: CacheDesign,
        report: &memsim::SimReport,
        conflict_free: bool,
    ) -> Record {
        let hits = report.stats.read_hits;
        let misses = report.stats.read_misses();
        let cycles = self.cycle_model.cycles_from_counts(
            hits,
            misses,
            design.assoc,
            design.line,
            design.tiling,
        );
        let energy_nj = self.energy_model.trace_energy_nj(report);
        Record {
            design,
            miss_rate: report.stats.read_miss_rate(),
            cycles,
            energy_nj,
            trip_count: report.stats.reads,
            conflict_free,
        }
    }
}

impl Evaluator {
    /// Evaluates `design` with the paper's **analytical** miss-rate model
    /// instead of trace-driven simulation
    /// ([`analysis::missrate`]).
    ///
    /// The analytical model assumes conflict-free placement and unlimited
    /// capacity, making the miss rate independent of the cache size — this
    /// is the mode that reproduces the paper's exact Fig. 4 selections
    /// (minimum energy at the smallest cache, minimum time at the largest).
    /// The address-bus switching `Add_bs` is taken as 1.0 (Gray-coded
    /// sequential access).
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry, non-rectangular nests, or a line size
    /// outside the cycle model's range.
    pub fn evaluate_analytical(&self, kernel: &Kernel, design: CacheDesign) -> Record {
        let config = design
            .cache_config()
            .unwrap_or_else(|e| panic!("invalid design {design}: {e}"));
        let miss_rate = analysis::missrate::analytical_miss_rate(kernel, design.line as u64);
        let trip_count = kernel
            .read_trip_count()
            .expect("analytical mode requires rectangular nests");
        let cycles = self.cycle_model.cycles_from_rates(
            miss_rate,
            trip_count,
            design.assoc,
            design.line,
            design.tiling,
        );
        let add_bs = 1.0;
        let energy_nj = trip_count as f64
            * self
                .energy_model
                .access_energy_nj(&config, 1.0 - miss_rate, add_bs);
        Record {
            design,
            miss_rate,
            cycles,
            energy_nj,
            trip_count,
            conflict_free: true,
        }
    }
}

/// Materializes the read trace of `kernel` under `layout` — the event
/// format consumed by [`Evaluator::evaluate_with_trace`] and the bank
/// evaluators.
pub fn read_trace(kernel: &Kernel, layout: &DataLayout) -> Vec<TraceEvent> {
    collect_reads(TraceGen::new(kernel, layout))
}

/// The read events of a compiled plan's whole walk.
pub(crate) fn collect_reads(gen: TraceGen<'_>) -> Vec<TraceEvent> {
    let mut trace = Vec::new();
    gen.for_each(|a| {
        if a.kind == AccessKind::Read {
            trace.push(TraceEvent::read(a.addr, a.size));
        }
    });
    trace
}

/// Events per chunk a [`PlanSource`] is pulled in by the sweep runner,
/// search batches and layout scoring (64 KiB of events): each holds one
/// such buffer, never a whole kernel trace.
pub const PLAN_CHUNK_EVENTS: usize = 1 << 12;

/// A kernel's read trace as a [`TraceSource`]: its compiled
/// [`TraceGen`] plan walked chunk by chunk, writes dropped, nothing
/// materialized. The chunks of any capacity concatenate to
/// [`read_trace`], and a source never fails.
///
/// # Example
///
/// ```
/// use loopir::{kernels, DataLayout};
/// use memexplore::metrics::{read_trace, PlanSource};
/// use memsim::collect_source;
///
/// let k = kernels::matmul(6);
/// let layout = DataLayout::natural(&k);
/// let mut source = PlanSource::new(&k, &layout);
/// assert_eq!(collect_source(&mut source, 7).unwrap(), read_trace(&k, &layout));
/// ```
pub struct PlanSource<'a> {
    gen: TraceGen<'a>,
}

impl<'a> PlanSource<'a> {
    /// Compiles `kernel` under `layout`.
    ///
    /// # Panics
    ///
    /// As [`TraceGen::new`] does: with `trace address overflow` when the
    /// nest's addresses do not fit an `i64`.
    pub fn new(kernel: &'a Kernel, layout: &'a DataLayout) -> Self {
        PlanSource::from_plan(TraceGen::new(kernel, layout))
    }

    /// Walks an already compiled plan from wherever it stands (the
    /// start, for a clone of a fresh generator).
    pub fn from_plan(gen: TraceGen<'a>) -> Self {
        PlanSource { gen }
    }
}

impl TraceSource for PlanSource<'_> {
    /// # Panics
    ///
    /// As [`TraceGen`] iteration does, when a subscript leaves its array.
    fn fill(
        &mut self,
        buf: &mut Vec<TraceEvent>,
        capacity: usize,
    ) -> Result<usize, TraceSourceError> {
        buf.clear();
        Ok(self.gen.fill(buf, capacity.max(1), |a| {
            (a.kind == AccessKind::Read).then(|| TraceEvent::read(a.addr, a.size))
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopir::kernels;

    #[test]
    fn compress_c64l8_behaves_like_the_paper() {
        let eval = Evaluator::default();
        let rec = eval.evaluate(&kernels::compress(31), CacheDesign::new(64, 8, 1, 1));
        // Exact simulation: conflict misses are gone but the two-row working
        // set (~248 B) exceeds 64 B, so row i-1 reuses are capacity misses:
        // ~2 line fetches per 8 reads = 0.27. (The paper's closed-form
        // estimate is lower; trends, not absolutes, are what must match.)
        assert!(rec.miss_rate < 0.3, "miss rate {}", rec.miss_rate);
        assert!(rec.miss_rate > 0.0);
        assert!(rec.energy_nj > 1_000.0 && rec.energy_nj < 100_000.0);
        assert!(rec.cycles > rec.trip_count as f64); // misses cost > 1 cycle
    }

    #[test]
    fn natural_layout_misses_more() {
        let k = kernels::compress(31);
        let d = CacheDesign::new(64, 8, 1, 1);
        let opt = Evaluator::default().evaluate(&k, d);
        let nat = Evaluator::default().unoptimized().evaluate(&k, d);
        assert!(nat.miss_rate >= opt.miss_rate);
    }

    #[test]
    fn tiling_changes_nothing_for_untiled_b1() {
        let k = kernels::compress(31);
        let a = Evaluator::default().evaluate(&k, CacheDesign::new(64, 8, 1, 1));
        let b = Evaluator::default().evaluate(&k, CacheDesign::new(64, 8, 1, 1));
        assert_eq!(a.miss_rate, b.miss_rate); // deterministic
    }

    #[test]
    fn bigger_cache_reduces_miss_rate() {
        let k = kernels::compress(31);
        let small = Evaluator::default().evaluate(&k, CacheDesign::new(16, 4, 1, 1));
        let large = Evaluator::default().evaluate(&k, CacheDesign::new(512, 4, 1, 1));
        assert!(large.miss_rate <= small.miss_rate);
    }

    #[test]
    fn trip_count_is_read_references() {
        let k = kernels::dequant(31);
        let rec = Evaluator::default().evaluate(&k, CacheDesign::new(64, 8, 1, 1));
        assert_eq!(rec.trip_count, 2 * 961);
    }

    #[test]
    #[should_panic(expected = "invalid design")]
    fn invalid_geometry_panics() {
        let _ =
            Evaluator::default().evaluate(&kernels::compress(31), CacheDesign::new(48, 8, 1, 1));
    }

    #[test]
    fn design_display_is_compact() {
        assert_eq!(format!("{}", CacheDesign::new(64, 4, 8, 16)), "C64L4SA8B16");
    }

    #[test]
    fn design_display_tags_non_default_policies_only() {
        let d = CacheDesign::new(64, 4, 8, 16)
            .with_replacement(Replacement::Fifo)
            .with_write_policy(WritePolicy::WriteThroughNoAllocate);
        assert_eq!(format!("{d}"), "C64L4SA8B16RFIFOWWT");
        assert!(!d.has_default_policies());
        assert!(CacheDesign::new(64, 4, 8, 16).has_default_policies());
    }

    #[test]
    fn cache_config_carries_the_policies() {
        let d = CacheDesign::new(64, 8, 2, 1).with_replacement(Replacement::Fifo);
        let cfg = d.cache_config().unwrap();
        assert_eq!(cfg.replacement, Replacement::Fifo);
        assert_eq!(cfg.write_policy, WritePolicy::WriteBackAllocate);
    }

    #[test]
    fn plru_wider_than_64_ways_is_a_config_error() {
        let d = CacheDesign::new(1024, 4, 128, 1).with_replacement(Replacement::Plru);
        assert_eq!(
            d.cache_config(),
            Err(memsim::ConfigError::PlruTooWide { assoc: 128 })
        );
        assert!(d.with_replacement(Replacement::Lru).cache_config().is_ok());
        assert!(CacheDesign::new(1024, 4, 64, 1)
            .with_replacement(Replacement::Plru)
            .cache_config()
            .is_ok());
    }

    #[test]
    fn policies_change_simulated_records_but_not_geometry_defaults() {
        // A FIFO 2-way run must still be a well-formed record; with the
        // default policies the extended constructor path is bit-identical
        // to the legacy 4-argument one.
        let k = kernels::compress(31);
        let eval = Evaluator::default();
        let base = CacheDesign::new(64, 8, 2, 1);
        let a = eval.evaluate(&k, base);
        let b = eval.evaluate(&k, base.with_replacement(Replacement::Lru));
        assert_eq!(a, b);
        let fifo = eval.evaluate(&k, base.with_replacement(Replacement::Fifo));
        assert!((0.0..=1.0).contains(&fifo.miss_rate));
        assert_eq!(fifo.trip_count, a.trip_count);
    }

    #[test]
    fn analytical_miss_rate_is_size_independent() {
        let k = kernels::compress(31);
        let eval = Evaluator::default();
        let small = eval.evaluate_analytical(&k, CacheDesign::new(16, 4, 1, 1));
        let large = eval.evaluate_analytical(&k, CacheDesign::new(512, 4, 1, 1));
        assert_eq!(small.miss_rate, large.miss_rate);
        // …so the cell-array term makes the small cache cheaper (the
        // paper's C16L4 optimum).
        assert!(small.energy_nj < large.energy_nj);
    }

    #[test]
    fn analytical_reproduces_the_papers_fig4_selections() {
        // Under the analytical model, Compress's minimum-energy point over
        // the Fig. 4 grid is the smallest cache and the minimum-time point
        // the largest cache with the longest line — the paper's C16L4 and
        // C512L64.
        let k = kernels::compress(31);
        let eval = Evaluator::default();
        let mut records = Vec::new();
        for t in [16usize, 32, 64, 128, 256, 512] {
            for l in [4usize, 8, 16, 32, 64] {
                if l <= t && t / l >= 4 {
                    records.push(eval.evaluate_analytical(&k, CacheDesign::new(t, l, 1, 1)));
                }
            }
        }
        let e = crate::select::min_energy(&records).expect("non-empty");
        let t = crate::select::min_cycles(&records).expect("non-empty");
        assert_eq!((e.design.cache_size, e.design.line), (16, 4));
        // Analytical cycles depend only on L, so every cache size with
        // L = 64 ties for minimum time; the tie-break picks the cheaper
        // (smaller) one, where the paper printed C512L64.
        assert_eq!(t.design.line, 64);
        let c512 = records
            .iter()
            .find(|r| r.design.cache_size == 512 && r.design.line == 64)
            .expect("C512L64 is in the grid");
        assert_eq!(t.cycles, c512.cycles);
    }

    #[test]
    fn analytical_and_simulated_agree_when_capacity_is_ample() {
        // At a cache big enough to hold Compress's reuse window, exact
        // simulation converges toward the analytical (compulsory-only)
        // estimate.
        let k = kernels::compress(31);
        let eval = Evaluator::default();
        let d = CacheDesign::new(512, 8, 1, 1);
        let sim = eval.evaluate(&k, d).miss_rate;
        let ana = eval.evaluate_analytical(&k, d).miss_rate;
        assert!(
            (sim - ana).abs() < 0.05,
            "simulated {sim} vs analytical {ana}"
        );
    }
}
