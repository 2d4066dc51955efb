//! Multi-objective exploration: Pareto frontiers with admissible
//! branch-and-bound pruning.
//!
//! The paper's `Algorithm MemExplore` simulates every `(T, L, S, B)` point
//! and then selects one configuration under bounds. The multi-objective
//! mode instead returns the whole `(cycles, energy, cache size)` Pareto
//! frontier — and it does not have to simulate the whole space to get it
//! exactly.
//!
//! # Why pruning is lossless
//!
//! For a candidate design `d` we can compute, *without simulating it*,
//! admissible (never-overestimating) lower bounds on its true cycles and
//! energy:
//!
//! * The candidate replays a known trace (a function of its layout and
//!   tiling only). Scanning that trace once yields the **exact** number of
//!   line-level accesses `n` and the number of **distinct lines** `m`
//!   ([`analysis::TraceFootprint`]). A cold cache must miss each distinct
//!   line's first touch regardless of `T`, `S` or replacement, so the true
//!   miss count is `≥ m` and the true hit count is `≤ n − m`.
//! * Cycles and energy are both strictly increasing in the miss count, so
//!   evaluating the models at `(hits = n − m, misses = m)` bounds them from
//!   below. Crucially the bounds are computed with the **same expressions**
//!   the evaluator uses (`CycleModel::cycles_from_counts`, `hits·E_hit +
//!   misses·E_miss`), so when a candidate really does achieve the
//!   compulsory floor the bound equals its true metric *bitwise* — there is
//!   no floating-point slack to cross.
//! * The per-access address-bus switching `Add_bs` enters the energy model
//!   and depends only on the replayed trace, so for untiled candidates
//!   (whose trace is the one scanned) it is used exactly; for tiled
//!   candidates it is lower-bounded by 0 (switching energy is
//!   non-negative).
//!
//! If some already-simulated record `r` satisfies `r.cycles ≤ C_lb`,
//! `r.energy ≤ E_lb`, `r.T ≤ T_d`, strictly in at least one coordinate,
//! then `r` strictly dominates `d`'s true record and `d` cannot be on the
//! frontier — it is skipped. Skipping it cannot change the frontier:
//! dominance is transitive, so anything `d`'s true record would have
//! dominated is also dominated by `r`, which *is* simulated. The pruned
//! frontier is therefore bit-identical to the exhaustive one (the oracle
//! test in `tests/pareto_oracle.rs` asserts exactly this on every paper
//! kernel).
//!
//! # Search order
//!
//! Designs are processed in groups of equal cache size, in sweep order,
//! and each group in two waves: first the `(S=1, B=1)` bases, then the
//! rest. Bases of small caches are cheap and dominate aggressively (the
//! cell-array energy term grows linearly in `T`), so by the time the large
//! half of the space is reached, its groups are usually pruned wholesale —
//! the branch-and-bound "incumbent set" is the running list of evaluated
//! records. The analytic minimum-cache-size bound
//! ([`analysis::MinCacheReport`]) gates the bound computation: below the
//! conflict-free minimum for the candidate's line size the compulsory
//! floor is unreachable, so the pruner does not bother scanning for a
//! dominator there.
//!
//! Each wave's survivors are grouped by shared trace key and submitted
//! to the [sweep runner](crate::sweep), each group's trace streamed from
//! its compiled plan (never held whole unless the analytic gate admits
//! the group): with [`Engine::Fused`](crate::Engine::Fused)
//! (the default) as one `memsim::ReplayBank` per group — the pruner drops
//! designs from a bank *before* the scan starts, so fused lockstep only
//! steps lanes that must be measured. Prune
//! decisions are order-independent predicates over the already-evaluated
//! record list (which grows only at wave boundaries in both engines), so
//! banking within a wave changes neither the prune set nor the frontier:
//! both stay bit-identical to the per-design engine.

use crate::arbitrate::arbitrate_layouts;
use crate::explore::{group_units, DesignSpace, ExploreError, Explorer};
use crate::metrics::{read_trace, CacheDesign, Record};
use crate::obs::{FieldValue, Span};
use crate::select::pareto3;
use crate::supervisor::{SweepOptions, SweepOutcome};
use crate::sweep::Sweep;
use crate::telemetry::SweepTelemetry;
use analysis::{MinCacheReport, TraceFootprint};
use loopir::transform::tile_all;
use loopir::{DataLayout, Kernel, TraceGen};
use memsim::{BusMonitor, TraceEvent};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Per-trace quantities the bounds are built from: the exact split-access
/// count, the compulsory-miss floor, and the exact average address-bus
/// switching of the untiled trace.
#[derive(Clone, Copy, Debug)]
pub(crate) struct BoundInputs {
    /// Line-level accesses (`n`) — exactly what the simulator will count.
    pub(crate) accesses: u64,
    /// Distinct lines touched (`m`) — admissible lower bound on misses.
    pub(crate) min_misses: u64,
    /// Exact `Add_bs` of the untiled trace at this line size.
    pub(crate) add_bs: f64,
}

/// The bound inputs of a layout at each line size of `lines`, in order,
/// from `untiled`'s trace under it, which is materialized once and
/// dropped on return. Also returns that trace's length.
pub(crate) fn layout_bounds(
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
pub(crate) fn exact_add_bs(
    trace: &[TraceEvent],
    line: usize,
    encoding: memsim::BusEncoding,
) -> f64 {
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

impl Explorer {
    /// The exhaustive reference: sweep the whole space, then extract the
    /// three-objective frontier with [`pareto3`]. Telemetry reports the
    /// full sweep plus `frontier_size`.
    ///
    /// # Panics
    ///
    /// Where [`try_pareto_exhaustive`](Self::try_pareto_exhaustive)
    /// returns an error.
    pub fn pareto_exhaustive(
        &self,
        kernel: &Kernel,
        space: &DesignSpace,
    ) -> (Vec<Record>, SweepTelemetry) {
        self.try_pareto_exhaustive(kernel, space)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`pareto_exhaustive`](Self::pareto_exhaustive), with a failed
    /// sweep as a typed error (see
    /// [`try_explore_designs_with_telemetry`](Self::try_explore_designs_with_telemetry)).
    pub fn try_pareto_exhaustive(
        &self,
        kernel: &Kernel,
        space: &DesignSpace,
    ) -> Result<(Vec<Record>, SweepTelemetry), ExploreError> {
        let (records, mut telemetry) =
            self.try_explore_designs_with_telemetry(kernel, &space.designs())?;
        let select_start = Instant::now();
        let frontier = pareto3(&records);
        telemetry.select_time += select_start.elapsed();
        telemetry.frontier_size = frontier.len();
        telemetry.total_time += select_start.elapsed();
        Ok((frontier, telemetry))
    }

    /// The pruned engine: branch-and-bound over the sweep with admissible
    /// cycle/energy lower bounds. Returns a frontier bit-identical to
    /// [`pareto_exhaustive`](Self::pareto_exhaustive) (see the module
    /// docs for the argument), usually after simulating a fraction of the
    /// space; `telemetry.designs_pruned` counts the skipped designs.
    ///
    /// # Panics
    ///
    /// Where [`try_pareto_pruned`](Self::try_pareto_pruned) returns an
    /// error.
    pub fn pareto_pruned(
        &self,
        kernel: &Kernel,
        space: &DesignSpace,
    ) -> (Vec<Record>, SweepTelemetry) {
        self.try_pareto_pruned(kernel, space)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`pareto_pruned`](Self::pareto_pruned), with a failed run as a
    /// typed error: [`ExploreError::Placement`] when a pair's placement
    /// fails, [`ExploreError::WorkerPanic`] when a worker panics.
    pub fn try_pareto_pruned(
        &self,
        kernel: &Kernel,
        space: &DesignSpace,
    ) -> Result<(Vec<Record>, SweepTelemetry), ExploreError> {
        let designs = space.designs();
        let workers = self.worker_count(designs.len());
        let options = SweepOptions::default();
        let mut sweep = Sweep::begin(self, &designs, &options, workers, 0)
            .expect("a sweep without a checkpoint policy resumes nothing");

        // Caches shared across groups. Layouts are deduplicated by value
        // (distinct (T, L) pairs frequently optimize to the same layout),
        // and bound inputs are keyed by (layout id, L). Traces are keyed
        // by (layout id, B) exactly as in the exhaustive engine, compiled
        // per wave and streamed, never kept.
        let mut pair_layout: HashMap<(usize, usize), (usize, bool)> = HashMap::new();
        let mut unique_layouts: Vec<DataLayout> = Vec::new();
        let mut tiled: HashMap<u64, Kernel> = HashMap::new();
        let mut bounds: HashMap<(usize, usize), BoundInputs> = HashMap::new();
        let mut min_cache: HashMap<usize, u64> = HashMap::new();

        let mut evaluated: Vec<Record> = Vec::new();
        let mut prep = SweepTelemetry::default();

        // Process runs of equal cache size in sweep order.
        let mut group_start = 0;
        while group_start < designs.len() {
            let t = designs[group_start].cache_size;
            let mut group_end = group_start;
            while group_end < designs.len() && designs[group_end].cache_size == t {
                group_end += 1;
            }
            let group = group_start..group_end;
            group_start = group_end;

            // Layouts for this group's new (T, L) pairs, computed in
            // parallel then deduplicated by value.
            let phase_start = Instant::now();
            let new_pairs: Vec<(usize, usize)> = {
                let mut seen = Vec::new();
                for d in &designs[group.clone()] {
                    let key = (d.cache_size, d.line);
                    if !pair_layout.contains_key(&key) && !seen.contains(&key) {
                        seen.push(key);
                    }
                }
                seen
            };
            let arbitrated = arbitrate_layouts(
                &self.evaluator,
                kernel,
                &new_pairs,
                workers,
                self.obs.as_deref(),
                Some(&sweep.hists),
                &mut unique_layouts,
            )?;
            for (pair, id) in new_pairs.iter().zip(arbitrated) {
                pair_layout.insert(*pair, id);
            }
            prep.layouts_computed += new_pairs.len();
            prep.layout_time += phase_start.elapsed();

            // Bound inputs per (layout id, L) this group still lacks, one
            // untiled trace per layout for all of its new line sizes.
            let mut lines_by_layout: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for d in &designs[group.clone()] {
                let (id, _) = pair_layout[&(d.cache_size, d.line)];
                if bounds.contains_key(&(id, d.line)) {
                    continue;
                }
                let lines = lines_by_layout.entry(id).or_default();
                if !lines.contains(&d.line) {
                    lines.push(d.line);
                }
            }
            for (id, lines) in lines_by_layout {
                let scan_start = Instant::now();
                let base = tiled.entry(1).or_insert_with(|| tile_all(kernel, 1));
                let (inputs, events) = layout_bounds(
                    base,
                    &unique_layouts[id],
                    &lines,
                    self.evaluator.bus_encoding,
                );
                prep.traces_generated += 1;
                prep.trace_events_generated += events;
                for (l, b) in lines.into_iter().zip(inputs) {
                    bounds.insert((id, l), b);
                }
                prep.bound_time += scan_start.elapsed();
            }

            // Two waves: bases (S=1, B=1) first so the rest of the group
            // can be pruned against them, then the remaining designs.
            let is_base = |d: &CacheDesign| d.assoc == 1 && d.tiling == 1;
            for wave in 0..2 {
                let members: Vec<usize> = group
                    .clone()
                    .filter(|&i| is_base(&designs[i]) == (wave == 0))
                    .collect();
                if members.is_empty() {
                    continue;
                }

                // Bound check (serial — it only scans the evaluated list).
                let phase_start = Instant::now();
                let bound_span = Span::begin(self.obs.as_deref(), "bound");
                let wave_size = members.len();
                let survivors: Vec<usize> = members
                    .into_iter()
                    .filter(|&i| {
                        let d = &designs[i];
                        let min_pow2 = min_cache_for(kernel, &mut min_cache, d.line);
                        !self.is_pruned(d, &pair_layout, &bounds, min_pow2, &evaluated)
                    })
                    .collect();
                let pruned_here = wave_size - survivors.len();
                prep.designs_pruned += pruned_here;
                drop(bound_span);
                if pruned_here > 0 {
                    if let Some(o) = self.obs.as_deref() {
                        o.counters
                            .pruned
                            .fetch_add(pruned_here as u64, Ordering::Relaxed);
                        o.point(
                            "bound",
                            "pruned",
                            &[
                                ("cache", FieldValue::U64(t as u64)),
                                ("wave", FieldValue::U64(wave as u64)),
                                ("count", FieldValue::U64(pruned_here as u64)),
                            ],
                        );
                    }
                }
                prep.bound_time += phase_start.elapsed();

                // Trace groups within the wave: survivors sharing one
                // (layout id, tiling) key form one bank, replaying the
                // key's compiled plan. The pruner has already dropped
                // designs from each bank, so replay only steps lanes that
                // must be measured; qualifying banks are resolved in
                // closed form instead.
                let phase_start = Instant::now();
                let conflict_free = |i: usize| {
                    let d = &designs[i];
                    pair_layout[&(d.cache_size, d.line)].1
                };
                let mut group_of: HashMap<(usize, u64), usize> = HashMap::new();
                let mut groups: Vec<Vec<usize>> = Vec::new();
                let mut keys: Vec<(usize, u64)> = Vec::new();
                for &i in &survivors {
                    let d = &designs[i];
                    let key = (pair_layout[&(d.cache_size, d.line)].0, d.tiling);
                    let g = *group_of.entry(key).or_insert_with(|| {
                        groups.push(Vec::new());
                        keys.push(key);
                        groups.len() - 1
                    });
                    groups[g].push(i);
                    tiled
                        .entry(key.1)
                        .or_insert_with(|| tile_all(kernel, key.1));
                }
                let plans: Vec<TraceGen<'_>> = keys
                    .iter()
                    .map(|&(id, b)| TraceGen::new(&tiled[&b], &unique_layouts[id]))
                    .collect();
                prep.traces_generated += plans.len();
                prep.trace_time += phase_start.elapsed();
                let phase_start = Instant::now();
                let (known, materialized) =
                    self.classify(kernel, workers, &designs, conflict_free, &groups, &plans)?;
                prep.trace_events_generated += materialized;
                prep.classify_time += phase_start.elapsed();
                let units = group_units(&groups, known, &plans);
                sweep.run(&self.units(units), conflict_free).map_err(|e| {
                    ExploreError::WorkerPanic {
                        phase: "simulate",
                        message: e.to_string(),
                    }
                })?;
                evaluated.extend(survivors.iter().filter_map(|&i| sweep.record(i).cloned()));
            }
        }

        let SweepOutcome {
            errors,
            mut telemetry,
            ..
        } = sweep.finish();
        if let Some(e) = errors.into_iter().next() {
            return Err(ExploreError::WorkerPanic {
                phase: "simulate",
                message: e.message,
            });
        }
        let phase_start = Instant::now();
        let select_span = Span::begin(self.obs.as_deref(), "select");
        let frontier = pareto3(&evaluated);
        drop(select_span);
        telemetry.select_time += phase_start.elapsed();
        telemetry.total_time += phase_start.elapsed();
        telemetry.layouts_computed = prep.layouts_computed;
        telemetry.layout_time = prep.layout_time;
        telemetry.traces_generated = prep.traces_generated;
        telemetry.trace_events_generated += prep.trace_events_generated;
        telemetry.trace_time = prep.trace_time;
        telemetry.classify_time = prep.classify_time;
        telemetry.bound_time = prep.bound_time;
        telemetry.designs_pruned = prep.designs_pruned;
        telemetry.frontier_size = frontier.len();
        Ok((frontier, telemetry))
    }

    /// Whether an evaluated record provably strictly dominates the true
    /// (unsimulated) record of `d`.
    fn is_pruned(
        &self,
        d: &CacheDesign,
        pair_layout: &HashMap<(usize, usize), (usize, bool)>,
        bounds: &HashMap<(usize, usize), BoundInputs>,
        min_pow2_cache: u64,
        evaluated: &[Record],
    ) -> bool {
        // Analytic minimum-cache gate: below the conflict-free minimum for
        // this line size the compulsory floor cannot be approached, so a
        // dominator search is a waste of time (skipping a prune is always
        // sound).
        if (d.cache_size as u64) < min_pow2_cache {
            return false;
        }
        let (id, _) = pair_layout[&(d.cache_size, d.line)];
        let b = bounds[&(id, d.line)];
        let max_hits = b.accesses - b.min_misses;
        let cycles_lb = self.evaluator.cycle_model.cycles_from_counts(
            max_hits,
            b.min_misses,
            d.assoc,
            d.line,
            d.tiling,
        );
        // The untiled trace is exactly the candidate's trace when B = 1;
        // tiling permutes it, so its switching is only bounded below by 0.
        let add_bs = if d.tiling == 1 { b.add_bs } else { 0.0 };
        let cfg = d
            .cache_config()
            .expect("design spaces only enumerate valid geometry");
        let energy_lb = max_hits as f64 * self.evaluator.energy_model.hit_energy_nj(&cfg, add_bs)
            + b.min_misses as f64 * self.evaluator.energy_model.miss_energy_nj(&cfg, add_bs);
        evaluated.iter().any(|r| {
            r.design.cache_size <= d.cache_size
                && r.cycles <= cycles_lb
                && r.energy_nj <= energy_lb
                && (r.design.cache_size < d.cache_size
                    || r.cycles < cycles_lb
                    || r.energy_nj < energy_lb)
        })
    }
}

/// Memoized `MinCacheReport::min_pow2_cache_bytes` per line size.
fn min_cache_for(kernel: &Kernel, cache: &mut HashMap<usize, u64>, line: usize) -> u64 {
    *cache
        .entry(line)
        .or_insert_with(|| MinCacheReport::analyze(kernel, line as u64).min_pow2_cache_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Engine;
    use loopir::kernels;

    #[test]
    fn pruned_matches_exhaustive_on_the_small_space() {
        let explorer = Explorer::default();
        for k in [kernels::compress(15), kernels::matadd(8), kernels::sor(15)] {
            let space = DesignSpace::small();
            let (exhaustive, te) = explorer.pareto_exhaustive(&k, &space);
            let (pruned, tp) = explorer.pareto_pruned(&k, &space);
            assert_eq!(exhaustive, pruned, "kernel {}", k.name);
            assert_eq!(te.frontier_size, exhaustive.len());
            assert_eq!(
                tp.designs_evaluated + tp.designs_pruned,
                space.designs().len(),
                "kernel {}",
                k.name
            );
        }
    }

    #[test]
    fn pruned_matches_exhaustive_with_tiling_and_assoc() {
        let k = kernels::compress(15);
        let space = DesignSpace {
            cache_sizes: vec![16, 32, 64, 128, 256, 512],
            line_sizes: vec![4, 8, 16],
            assocs: vec![1, 2, 4],
            tilings: vec![1, 2, 4],
            min_lines: 2,
            ..Default::default()
        };
        let explorer = Explorer::default();
        let (exhaustive, _) = explorer.pareto_exhaustive(&k, &space);
        let (pruned, t) = explorer.pareto_pruned(&k, &space);
        assert_eq!(exhaustive, pruned);
        assert!(t.designs_pruned > 0, "expected pruning on compress(15)");
    }

    #[test]
    fn pruning_actually_skips_large_caches_on_compress() {
        // Compress(31)'s working set fits well under 1 KiB, so the big
        // half of the paper grid must prune.
        let k = kernels::compress(31);
        let (frontier, t) = Explorer::default().pareto_pruned(&k, &DesignSpace::paper());
        assert!(!frontier.is_empty());
        assert!(
            t.designs_pruned as f64 >= 0.3 * t.designs_considered() as f64,
            "pruned only {} of {}",
            t.designs_pruned,
            t.designs_considered()
        );
        // Pruned designs generate no records — the frontier never
        // references a cache size the bound ruled out entirely.
        assert_eq!(t.frontier_size, frontier.len());
    }

    #[test]
    fn serial_and_parallel_pruned_sweeps_agree() {
        let k = kernels::sor(15);
        let space = DesignSpace::small();
        let (serial, _) = Explorer::default()
            .with_workers(1)
            .pareto_pruned(&k, &space);
        let (parallel, _) = Explorer::default()
            .with_workers(4)
            .pareto_pruned(&k, &space);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn fused_and_per_design_pruned_sweeps_agree() {
        let k = kernels::compress(15);
        let space = DesignSpace {
            cache_sizes: vec![16, 32, 64, 128, 256],
            line_sizes: vec![4, 8, 16],
            assocs: vec![1, 2],
            tilings: vec![1, 2],
            min_lines: 2,
            ..Default::default()
        };
        let (fused, tf) = Explorer::default()
            .with_engine(Engine::Fused)
            .pareto_pruned(&k, &space);
        let (per, tp) = Explorer::default()
            .with_engine(Engine::PerDesign)
            .pareto_pruned(&k, &space);
        assert_eq!(fused, per);
        // Same prune decisions, different scheduling.
        assert_eq!(tf.designs_pruned, tp.designs_pruned);
        assert_eq!(tf.designs_evaluated, tp.designs_evaluated);
        assert_eq!(tf.trace_events_replayed, tp.trace_events_replayed);
        assert!(tf.fused_groups > 0);
        assert!(tf.trace_events_scanned <= tf.trace_events_replayed);
        assert_eq!(tp.fused_groups, 0);
        assert_eq!(tp.trace_events_scanned, tp.trace_events_replayed);
    }

    #[test]
    fn singleton_trace_groups_are_still_banks() {
        // One (T, L) pair, one way, three tilings: every trace group has
        // a single member. Each is still a fused bank (a per-design unit
        // is not), exactly as every wave group was before the runner.
        let k = kernels::compress(15);
        let space = DesignSpace {
            cache_sizes: vec![64],
            line_sizes: vec![8],
            assocs: vec![1],
            tilings: vec![1, 2, 4],
            min_lines: 2,
            ..Default::default()
        };
        let (_, tf) = Explorer::default()
            .with_engine(Engine::Fused)
            .pareto_pruned(&k, &space);
        assert!(tf.designs_evaluated > 0);
        assert_eq!(tf.fused_groups, tf.designs_evaluated);
        assert_eq!(tf.max_bank_width, 1);
        assert_eq!(tf.trace_events_scanned, tf.trace_events_replayed);
        let (_, tp) = Explorer::default()
            .with_engine(Engine::PerDesign)
            .pareto_pruned(&k, &space);
        assert_eq!(tp.designs_evaluated, tf.designs_evaluated);
        assert_eq!(tp.fused_groups, 0);
        assert_eq!(tp.max_bank_width, 0);
    }

    #[test]
    fn frontier_members_come_from_the_design_space() {
        let k = kernels::matadd(6);
        let space = DesignSpace::small();
        let designs = space.designs();
        let (frontier, _) = Explorer::default().pareto_pruned(&k, &space);
        for r in &frontier {
            assert!(designs.contains(&r.design), "{} not in space", r.design);
        }
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

    #[test]
    fn empty_space_produces_empty_frontier() {
        let k = kernels::matadd(4);
        let space = DesignSpace {
            cache_sizes: vec![],
            line_sizes: vec![],
            assocs: vec![],
            tilings: vec![],
            min_lines: 1,
            ..Default::default()
        };
        let (frontier, t) = Explorer::default().pareto_pruned(&k, &space);
        assert!(frontier.is_empty());
        assert_eq!(t.designs_evaluated, 0);
        assert_eq!(t.designs_pruned, 0);
    }
}
