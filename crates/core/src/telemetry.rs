//! Sweep instrumentation.
//!
//! [`SweepTelemetry`] is filled in by
//! [`Explorer::explore_with_telemetry`](crate::Explorer::explore_with_telemetry)
//! and reports what the sweep engine actually did: how many layouts were
//! placed and trace plans compiled, how many events were generated from
//! the plans and how many each scan served to a whole bank of designs,
//! where the wall time went per phase, and how evenly the work-stealing
//! workers were loaded. The `memx explore --telemetry` flag and the
//! `bench_explore` harness both print it; `BENCH_explore.json` embeds the
//! [`to_json`](SweepTelemetry::to_json) form.

use crate::obs::{json_f64, LatencySummary};
use std::fmt;
use std::time::Duration;

/// Version stamp of the [`SweepTelemetry::to_json`] layout, emitted as
/// its first field so downstream consumers can detect schema changes.
pub const TELEMETRY_SCHEMA_VERSION: u64 = 11;

/// Counters and timings of one design-space sweep.
#[derive(Clone, Debug, Default)]
pub struct SweepTelemetry {
    /// Number of design points evaluated (length of the record list).
    pub designs_evaluated: usize,
    /// Distinct `(T, L)` off-chip layouts computed.
    pub layouts_computed: usize,
    /// (layout value, tiling) traces compiled into plans or materialized
    /// (one per trace group of a sweep; search counts each batch's plans,
    /// and the traces its bounds scan).
    pub traces_generated: usize,
    /// Events generated from kernel trace plans: every walk of a plan
    /// (one per bank scan, fallback retries included) plus every
    /// materialized trace. For a `.din` sweep, the trace's length.
    pub trace_events_generated: u64,
    /// Total events replayed by simulations, counted *logically*: every
    /// design consumes its whole span, so this is events × designs even
    /// when a bank scans the span once for many designs.
    pub trace_events_replayed: u64,
    /// Total events *physically* streamed into banks. Each trace group
    /// is scanned once regardless of bank width, so this is smaller than
    /// [`trace_events_replayed`](Self::trace_events_replayed) by
    /// [`trace_events_avoided`](Self::trace_events_avoided).
    pub trace_events_scanned: u64,
    /// Lane-events the banks resolved one access at a time on their
    /// scalar lane loop (random, classified and line-buffered lanes, and
    /// lanes fed a chunk shorter than their set count); every other
    /// lane-event took a bulk tier.
    pub scalar_lane_events: u64,
    /// Banks the sweep scheduled (a trace group replaying one trace, or
    /// a `.din` shard).
    pub fused_groups: usize,
    /// Widest design bank stepped in lockstep.
    pub max_bank_width: usize,
    /// Always 0: no sweep or search resolves a trace group in closed
    /// form any more. Kept only for the benchmark harness, which still
    /// reads it.
    pub analytic_groups: usize,
    /// Worker threads used by the sweep.
    pub workers: usize,
    /// Wall time of the layout phase (off-chip placement per `(T, L)`).
    pub layout_time: Duration,
    /// Wall time of the trace phase: compiling each trace key's plan
    /// (plus, in search, materializing the traces its bounds scan).
    pub trace_time: Duration,
    /// Wall time of the work-stealing simulation phase, trace generation
    /// included.
    pub simulate_time: Duration,
    /// Time inside the simulation phase spent walking compiled plans into
    /// chunks, summed over workers (0 for `.din` sweeps).
    pub generate_time: Duration,
    /// Wall time of result collection into sweep order.
    pub select_time: Duration,
    /// End-to-end wall time of the sweep.
    pub total_time: Duration,
    /// Per-worker busy time during the simulation phase.
    pub worker_busy: Vec<Duration>,
    /// Designs a certified search skipped without simulation, because an
    /// admissible bound already lost (0 for sweeps).
    pub designs_pruned: usize,
    /// Records a certified search computed in a leaf batch but never
    /// consumed: their leaf was pruned when popped, or the search stopped
    /// first. Not counted in [`designs_evaluated`](Self::designs_evaluated)
    /// (0 for sweeps, which consume every record).
    pub designs_speculative: usize,
    /// Pareto-frontier size, when `memx pareto` extracted one from the
    /// sweep (0 otherwise).
    pub frontier_size: usize,
    /// Wall time a certified search spent computing admissible bounds
    /// (zero for sweeps).
    pub bound_time: Duration,
    /// Belady-MIN floor computations a certified search ran: one per
    /// trace key whose open leaves needed floors it did not have yet (a
    /// key whose later leaves need new capacities is floored again and
    /// counted again). 0 for sweeps.
    pub floor_units: usize,
    /// `(line size, capacity)` floors those units resolved.
    pub floor_capacities: u64,
    /// Line accesses the floor units materialized (each stream at most
    /// the search's floor cap).
    pub floor_lines: u64,
    /// Wall time of the floor units: walking the streams, linking next
    /// uses and running MIN.
    pub floor_time: Duration,
    /// Designs quarantined by the supervisor after panicking in their
    /// bank and again alone (0 for unsupervised sweeps).
    pub designs_quarantined: usize,
    /// Designs re-run one at a time on the fallback path after their
    /// bank scan panicked.
    pub designs_retried: usize,
    /// Checkpoint flushes that reached the sidecar file.
    pub checkpoints_written: usize,
    /// Checkpoint flushes that failed (the sweep continues; the previous
    /// checkpoint stays intact on disk).
    pub checkpoints_failed: usize,
    /// Records loaded from a resumed checkpoint instead of simulated.
    pub records_resumed: usize,
    /// True when a cooperative deadline cancelled the sweep, leaving a
    /// well-formed partial result.
    pub cancelled: bool,
    /// Largest chunk buffer (in bytes of [`memsim::TraceEvent`]) any one
    /// worker held resident while streaming a plan or an external trace —
    /// total streaming memory is bounded by this times `workers`. 0 when
    /// nothing replayed.
    pub peak_chunk_bytes: u64,
    /// Shard attempts dispatched by a distributed coordinator, counting
    /// retries and speculative re-dispatches (0 for single-process
    /// sweeps).
    pub shards_dispatched: usize,
    /// Shard attempts relaunched after a worker loss, timeout, or
    /// corrupt result stream.
    pub shards_retried: usize,
    /// Speculative attempts launched against stragglers (stale
    /// heartbeats) while the original was still running.
    pub shards_redispatched: usize,
    /// Duplicate result entries discarded by the first-complete-wins
    /// merge (a late or speculative attempt re-reporting a filled slot).
    pub shard_entries_deduped: u64,
    /// Worker slots the coordinator still trusted when the sweep
    /// finished (0 for single-process sweeps; equal to the starting
    /// slot count when nothing died permanently).
    pub workers_surviving: usize,
    /// Per-unit layout placement latency (one sample per `(T, L)` pair).
    pub layout_latency: LatencySummary,
    /// Per-unit layout scoring latency: the direct-mapped simulation that
    /// arbitrates optimized against natural layouts (one sample per
    /// scoring bank: its replay time, trace generation excluded).
    pub score_latency: LatencySummary,
    /// Per-design simulation latency (supervisor fallback retries).
    pub design_latency: LatencySummary,
    /// Trace-group scan latency (one sample per bank).
    pub scan_latency: LatencySummary,
    /// Checkpoint flush latency (supervised sweeps).
    pub flush_latency: LatencySummary,
}

impl SweepTelemetry {
    /// Events replayed beyond their generation — the generation work
    /// that fused banks avoided.
    pub fn trace_events_reused(&self) -> u64 {
        self.trace_events_replayed
            .saturating_sub(self.trace_events_generated)
    }

    /// Replayed / generated event ratio (1.0 = no reuse; higher is
    /// better). Returns 1.0 for an empty sweep.
    pub fn trace_reuse_factor(&self) -> f64 {
        if self.trace_events_generated == 0 {
            return 1.0;
        }
        self.trace_events_replayed as f64 / self.trace_events_generated as f64
    }

    /// Events the one-pass bank replay avoided streaming: logical
    /// replays minus physical scans.
    pub fn trace_events_avoided(&self) -> u64 {
        self.trace_events_replayed
            .saturating_sub(self.trace_events_scanned)
    }

    /// Mean designs per trace group (1.0 when the sweep was empty) — how
    /// much lockstep the banks achieved. A
    /// search's speculative records were bank lanes too.
    pub fn mean_bank_width(&self) -> f64 {
        if self.fused_groups == 0 {
            return 1.0;
        }
        (self.designs_evaluated + self.designs_speculative) as f64 / self.fused_groups as f64
    }

    /// Designs considered by the sweep: simulated plus pruned.
    pub fn designs_considered(&self) -> usize {
        self.designs_evaluated + self.designs_pruned
    }

    /// Fraction of considered designs the pruner skipped (0.0 for an
    /// exhaustive or empty sweep).
    pub fn prune_rate(&self) -> f64 {
        let total = self.designs_considered();
        if total == 0 {
            0.0
        } else {
            self.designs_pruned as f64 / total as f64
        }
    }

    /// Mean fraction of the simulation phase each worker spent busy
    /// (1.0 = perfectly balanced). Returns 1.0 when the phase was empty.
    ///
    /// The *true* ratio is returned, including values above 1.0 — which
    /// can only come from busy-time overcounting and used to be silently
    /// clamped away. Clamping is a display concern
    /// ([`Display`](fmt::Display) caps its percentage at 100%); the
    /// sweep engines `debug_assert!` that this stays ≤ 1 so overcounting
    /// bugs fail loudly instead of masquerading as full utilization.
    pub fn worker_utilization(&self) -> f64 {
        let wall = self.simulate_time.as_secs_f64();
        if wall <= 0.0 || self.worker_busy.is_empty() {
            return 1.0;
        }
        let busy: f64 = self.worker_busy.iter().map(Duration::as_secs_f64).sum();
        busy / (wall * self.worker_busy.len() as f64)
    }

    /// JSON rendering (no external dependencies), embedded in
    /// `BENCH_explore.json`. Scalar counters are flat; the per-unit
    /// latency summaries are nested objects. Every float goes through a
    /// finite guard ([`json_f64`]) — non-finite values render as `null`
    /// instead of the invalid-JSON `NaN`/`inf` that `{:.3}` would emit.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"schema_version\":{},",
                "\"designs_evaluated\":{},\"layouts_computed\":{},",
                "\"traces_generated\":{},\"trace_events_generated\":{},",
                "\"trace_events_replayed\":{},\"trace_events_reused\":{},",
                "\"trace_events_scanned\":{},\"trace_events_avoided\":{},",
                "\"scalar_lane_events\":{},",
                "\"fused_groups\":{},\"max_bank_width\":{},",
                "\"trace_reuse_factor\":{},\"workers\":{},",
                "\"worker_utilization\":{},\"designs_pruned\":{},",
                "\"designs_speculative\":{},",
                "\"prune_rate\":{},\"frontier_size\":{},",
                "\"floor_units\":{},\"floor_capacities\":{},",
                "\"floor_lines\":{},\"floor_secs\":{},",
                "\"designs_quarantined\":{},\"designs_retried\":{},",
                "\"checkpoints_written\":{},\"checkpoints_failed\":{},",
                "\"records_resumed\":{},\"cancelled\":{},",
                "\"peak_chunk_bytes\":{},",
                "\"shards_dispatched\":{},\"shards_retried\":{},",
                "\"shards_redispatched\":{},\"shard_entries_deduped\":{},",
                "\"workers_surviving\":{},",
                "\"layout_secs\":{},\"trace_secs\":{},",
                "\"bound_secs\":{},",
                "\"simulate_secs\":{},\"generate_secs\":{},",
                "\"select_secs\":{},\"total_secs\":{},",
                "\"layout_latency\":{},\"score_latency\":{},",
                "\"design_latency\":{},",
                "\"scan_latency\":{},\"flush_latency\":{}}}"
            ),
            TELEMETRY_SCHEMA_VERSION,
            self.designs_evaluated,
            self.layouts_computed,
            self.traces_generated,
            self.trace_events_generated,
            self.trace_events_replayed,
            self.trace_events_reused(),
            self.trace_events_scanned,
            self.trace_events_avoided(),
            self.scalar_lane_events,
            self.fused_groups,
            self.max_bank_width,
            json_f64(self.trace_reuse_factor(), 3),
            self.workers,
            json_f64(self.worker_utilization(), 3),
            self.designs_pruned,
            self.designs_speculative,
            json_f64(self.prune_rate(), 3),
            self.frontier_size,
            self.floor_units,
            self.floor_capacities,
            self.floor_lines,
            json_f64(self.floor_time.as_secs_f64(), 6),
            self.designs_quarantined,
            self.designs_retried,
            self.checkpoints_written,
            self.checkpoints_failed,
            self.records_resumed,
            self.cancelled,
            self.peak_chunk_bytes,
            self.shards_dispatched,
            self.shards_retried,
            self.shards_redispatched,
            self.shard_entries_deduped,
            self.workers_surviving,
            json_f64(self.layout_time.as_secs_f64(), 6),
            json_f64(self.trace_time.as_secs_f64(), 6),
            json_f64(self.bound_time.as_secs_f64(), 6),
            json_f64(self.simulate_time.as_secs_f64(), 6),
            json_f64(self.generate_time.as_secs_f64(), 6),
            json_f64(self.select_time.as_secs_f64(), 6),
            json_f64(self.total_time.as_secs_f64(), 6),
            self.layout_latency.to_json(),
            self.score_latency.to_json(),
            self.design_latency.to_json(),
            self.scan_latency.to_json(),
            self.flush_latency.to_json(),
        )
    }
}

impl fmt::Display for SweepTelemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "sweep: {} designs on {} workers in {:.1} ms",
            self.designs_evaluated,
            self.workers,
            self.total_time.as_secs_f64() * 1e3
        )?;
        writeln!(
            f,
            "  layout   : {} (T, L) placements in {:.1} ms",
            self.layouts_computed,
            self.layout_time.as_secs_f64() * 1e3
        )?;
        writeln!(
            f,
            "  trace    : {} layout x tiling traces in {:.1} ms, {} events generated",
            self.traces_generated,
            self.trace_time.as_secs_f64() * 1e3,
            self.trace_events_generated
        )?;
        if self.designs_pruned > 0 || self.bound_time > Duration::ZERO {
            writeln!(
                f,
                "  prune    : {} of {} designs pruned ({:.0}%) in {:.1} ms",
                self.designs_pruned,
                self.designs_considered(),
                self.prune_rate() * 100.0,
                self.bound_time.as_secs_f64() * 1e3
            )?;
        }
        if self.floor_units > 0 {
            writeln!(
                f,
                "  floors   : {} trace keys, {} capacities, {} lines in {:.1} ms",
                self.floor_units,
                self.floor_capacities,
                self.floor_lines,
                self.floor_time.as_secs_f64() * 1e3
            )?;
        }
        writeln!(
            f,
            "  simulate : {} events replayed ({:.1}x reuse) in {:.1} ms ({:.1} ms generating), {:.0}% worker utilization, {} scalar lane-events",
            self.trace_events_replayed,
            self.trace_reuse_factor(),
            self.simulate_time.as_secs_f64() * 1e3,
            self.generate_time.as_secs_f64() * 1e3,
            self.worker_utilization().min(1.0) * 100.0,
            self.scalar_lane_events
        )?;
        for (name, s) in [
            ("latency scan", &self.scan_latency),
            ("latency sim", &self.design_latency),
            ("latency lay", &self.layout_latency),
            ("latency score", &self.score_latency),
            ("latency ckpt", &self.flush_latency),
        ] {
            if s.count > 0 {
                writeln!(f, "  {name}: {s}")?;
            }
        }
        if self.fused_groups > 0 {
            writeln!(
                f,
                "  fused    : {} trace groups (mean bank {:.1}, max {}), {} events scanned, {} avoided",
                self.fused_groups,
                self.mean_bank_width(),
                self.max_bank_width,
                self.trace_events_scanned,
                self.trace_events_avoided()
            )?;
        }
        if self.designs_speculative > 0 {
            writeln!(
                f,
                "  speculate: {} batched records never consumed",
                self.designs_speculative
            )?;
        }
        if self.frontier_size > 0 {
            writeln!(
                f,
                "  frontier : {} non-dominated designs",
                self.frontier_size
            )?;
        }
        if self.designs_quarantined > 0 || self.designs_retried > 0 {
            writeln!(
                f,
                "  isolate  : {} designs quarantined, {} retried on the per-design fallback",
                self.designs_quarantined, self.designs_retried
            )?;
        }
        if self.checkpoints_written > 0 || self.checkpoints_failed > 0 || self.records_resumed > 0 {
            writeln!(
                f,
                "  ckpt     : {} flushes written, {} failed, {} records resumed",
                self.checkpoints_written, self.checkpoints_failed, self.records_resumed
            )?;
        }
        if self.shards_dispatched > 0 {
            writeln!(
                f,
                "  shard    : {} dispatched ({} retried, {} re-dispatched), {} duplicate entries deduped, {} of {} workers surviving",
                self.shards_dispatched,
                self.shards_retried,
                self.shards_redispatched,
                self.shard_entries_deduped,
                self.workers_surviving,
                self.workers
            )?;
        }
        if self.peak_chunk_bytes > 0 {
            writeln!(
                f,
                "  stream   : peak resident chunk {} B per worker ({} B across {} workers)",
                self.peak_chunk_bytes,
                self.peak_chunk_bytes * self.workers as u64,
                self.workers
            )?;
        }
        if self.cancelled {
            writeln!(f, "  deadline : sweep cancelled, result is partial")?;
        }
        write!(
            f,
            "  select   : records collected in {:.1} ms",
            self.select_time.as_secs_f64() * 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SweepTelemetry {
        SweepTelemetry {
            designs_evaluated: 8,
            layouts_computed: 2,
            traces_generated: 4,
            trace_events_generated: 100,
            trace_events_replayed: 400,
            workers: 2,
            layout_time: Duration::from_millis(10),
            trace_time: Duration::from_millis(5),
            simulate_time: Duration::from_millis(20),
            select_time: Duration::from_millis(1),
            total_time: Duration::from_millis(36),
            worker_busy: vec![Duration::from_millis(18), Duration::from_millis(20)],
            ..SweepTelemetry::default()
        }
    }

    #[test]
    fn reuse_accounting() {
        let t = sample();
        assert_eq!(t.trace_events_reused(), 300);
        assert!((t.trace_reuse_factor() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_is_a_fraction() {
        let t = sample();
        let u = t.worker_utilization();
        assert!(u > 0.9 && u <= 1.0, "utilization {u}");
        assert_eq!(SweepTelemetry::default().worker_utilization(), 1.0);
    }

    #[test]
    fn utilization_reports_overcounting_instead_of_clamping() {
        // Busy time exceeding wall x workers means overcounting; the true
        // ratio must surface (> 1.0) — only the display clamps.
        let mut t = sample();
        t.simulate_time = Duration::from_millis(10);
        t.worker_busy = vec![Duration::from_millis(15), Duration::from_millis(15)];
        let u = t.worker_utilization();
        assert!(u > 1.0, "clamped: {u}");
        assert!((u - 1.5).abs() < 1e-9, "{u}");
        // Display caps at 100%; JSON keeps the true ratio.
        assert!(t.to_string().contains("100% worker utilization"));
        assert!(t.to_json().contains("\"worker_utilization\":1.500"));
    }

    #[test]
    fn json_is_valid_and_carries_schema_version() {
        let j = sample().to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.starts_with("{\"schema_version\":"));
        assert!(j.contains("\"designs_evaluated\":8"));
        assert!(j.contains("\"trace_events_reused\":300"));
        let v = crate::obs::parse_json(&j).expect("telemetry json parses");
        assert_eq!(
            v.get("schema_version").and_then(crate::obs::Json::as_u64),
            Some(TELEMETRY_SCHEMA_VERSION)
        );
        assert!(v.get("scan_latency").is_some());
    }

    #[test]
    fn json_survives_non_finite_ratios() {
        // A zero-duration phase with busy workers yields a division whose
        // guard must hold; force non-finite values directly through the
        // float fields to prove the guard (hand-formatted `{:.3}` would
        // have emitted the invalid token `NaN`).
        let mut t = sample();
        t.trace_events_generated = 0;
        t.trace_events_replayed = u64::MAX;
        let j = t.to_json();
        crate::obs::parse_json(&j).expect("json with extreme counters parses");
        assert_eq!(crate::obs::json_f64(f64::NAN, 3), "null");
    }

    #[test]
    fn latency_summaries_render_in_json_and_display() {
        let mut t = sample();
        let h = crate::obs::LatencyHistogram::new();
        h.record(Duration::from_micros(3));
        h.record(Duration::from_micros(900));
        t.scan_latency = h.summary();
        let j = t.to_json();
        let v = crate::obs::parse_json(&j).expect("parses");
        assert_eq!(
            v.get("scan_latency")
                .and_then(|s| s.get("count"))
                .and_then(crate::obs::Json::as_u64),
            Some(2)
        );
        let s = t.to_string();
        assert!(s.contains("latency scan"), "{s}");
        assert!(!s.contains("latency ckpt"), "{s}");
    }

    #[test]
    fn scalar_lane_events_render_in_json_and_the_simulate_line() {
        let mut t = sample();
        t.scalar_lane_events = 1234;
        assert!(t.to_json().contains("\"scalar_lane_events\":1234,"));
        let line = t.to_string();
        let simulate = line
            .lines()
            .find(|l| l.starts_with("  simulate : "))
            .expect("simulate line");
        assert!(
            simulate.ends_with(", 1234 scalar lane-events"),
            "{simulate}"
        );
    }

    #[test]
    fn display_mentions_every_phase() {
        let s = sample().to_string();
        for phase in ["layout", "trace", "simulate", "select"] {
            assert!(s.contains(phase), "missing {phase} in {s}");
        }
    }

    #[test]
    fn empty_sweep_has_sane_ratios() {
        let t = SweepTelemetry::default();
        assert_eq!(t.trace_reuse_factor(), 1.0);
        assert_eq!(t.trace_events_reused(), 0);
        assert_eq!(t.prune_rate(), 0.0);
    }

    #[test]
    fn fused_accounting() {
        let mut t = sample();
        // Per-design run: scanned == replayed, nothing avoided.
        t.trace_events_scanned = t.trace_events_replayed;
        assert_eq!(t.trace_events_avoided(), 0);
        assert_eq!(t.mean_bank_width(), 1.0);
        // Fused run: 8 designs over 2 groups scanned 100 events once each.
        t.fused_groups = 2;
        t.max_bank_width = 6;
        t.trace_events_scanned = 100;
        assert_eq!(t.trace_events_avoided(), 300);
        assert!((t.mean_bank_width() - 4.0).abs() < 1e-12);
        let j = t.to_json();
        assert!(j.contains("\"trace_events_scanned\":100"));
        assert!(j.contains("\"trace_events_avoided\":300"));
        assert!(j.contains("\"fused_groups\":2"));
        assert!(j.contains("\"max_bank_width\":6"));
        crate::obs::parse_json(&j).expect("fused telemetry json parses");
    }

    #[test]
    fn speculative_records_count_as_bank_lanes() {
        let mut t = sample();
        t.fused_groups = 2;
        t.designs_speculative = 2;
        assert!((t.mean_bank_width() - 5.0).abs() < 1e-12);
        let j = t.to_json();
        assert!(j.contains("\"designs_speculative\":2"));
        crate::obs::parse_json(&j).expect("speculative telemetry json parses");
        assert!(t.to_string().contains("speculate: 2 batched records"));
        assert!(!sample().to_string().contains("speculate"));
    }

    #[test]
    fn display_shows_fused_line_only_for_fused_runs() {
        let plain = sample().to_string();
        assert!(!plain.contains("fused"));
        let mut t = sample();
        t.fused_groups = 3;
        t.max_bank_width = 4;
        t.trace_events_scanned = 120;
        let s = t.to_string();
        assert!(s.contains("fused    : 3 trace groups"), "{s}");
        assert!(s.contains("max 4"), "{s}");
    }

    #[test]
    fn prune_accounting() {
        let mut t = sample();
        t.designs_pruned = 24;
        assert_eq!(t.designs_considered(), 32);
        assert!((t.prune_rate() - 0.75).abs() < 1e-12);
        let j = t.to_json();
        assert!(j.contains("\"designs_pruned\":24"));
        assert!(j.contains("\"prune_rate\":0.750"));
        crate::obs::parse_json(&j).expect("pruned telemetry json parses");
    }

    #[test]
    fn supervisor_accounting() {
        let mut t = sample();
        t.designs_quarantined = 1;
        t.designs_retried = 4;
        t.checkpoints_written = 3;
        t.checkpoints_failed = 1;
        t.records_resumed = 120;
        t.cancelled = true;
        let j = t.to_json();
        for field in [
            "\"designs_quarantined\":1",
            "\"designs_retried\":4",
            "\"checkpoints_written\":3",
            "\"checkpoints_failed\":1",
            "\"records_resumed\":120",
            "\"cancelled\":true",
        ] {
            assert!(j.contains(field), "missing {field} in {j}");
        }
        crate::obs::parse_json(&j).expect("supervisor telemetry json parses");
        let s = t.to_string();
        assert!(s.contains("isolate"), "{s}");
        assert!(s.contains("ckpt"), "{s}");
        assert!(s.contains("cancelled"), "{s}");
    }

    #[test]
    fn display_hides_supervisor_lines_for_plain_runs() {
        let s = sample().to_string();
        assert!(!s.contains("isolate"));
        assert!(!s.contains("ckpt"));
        assert!(!s.contains("deadline"));
        let j = sample().to_json();
        assert!(j.contains("\"cancelled\":false"));
    }

    #[test]
    fn shard_accounting() {
        let mut t = sample();
        t.shards_dispatched = 11;
        t.shards_retried = 2;
        t.shards_redispatched = 1;
        t.shard_entries_deduped = 53;
        t.workers_surviving = 3;
        t.workers = 4;
        let j = t.to_json();
        for field in [
            "\"shards_dispatched\":11",
            "\"shards_retried\":2",
            "\"shards_redispatched\":1",
            "\"shard_entries_deduped\":53",
            "\"workers_surviving\":3",
        ] {
            assert!(j.contains(field), "missing {field} in {j}");
        }
        crate::obs::parse_json(&j).expect("shard telemetry json parses");
        let s = t.to_string();
        assert!(s.contains("shard    : 11 dispatched"), "{s}");
        assert!(s.contains("3 of 4 workers surviving"), "{s}");
        // Single-process sweeps never show the shard line.
        assert!(!sample().to_string().contains("shard    :"));
    }

    #[test]
    fn stream_accounting() {
        let mut t = sample();
        t.peak_chunk_bytes = 1 << 20;
        let j = t.to_json();
        assert!(j.contains("\"peak_chunk_bytes\":1048576"));
        crate::obs::parse_json(&j).expect("stream telemetry json parses");
        assert!(t.to_string().contains("stream"), "{t}");
        assert!(!sample().to_string().contains("stream"));
    }

    #[test]
    fn display_shows_prune_and_frontier_only_when_present() {
        let plain = sample().to_string();
        assert!(!plain.contains("prune"));
        assert!(!plain.contains("frontier"));
        let mut t = sample();
        t.designs_pruned = 5;
        t.frontier_size = 7;
        let s = t.to_string();
        assert!(s.contains("prune"), "{s}");
        assert!(s.contains("frontier : 7"), "{s}");
    }
}
