//! Fault-isolated sweep supervision: panic quarantine, per-design
//! fallback, checkpoint/resume, and deadline-bounded partial results.
//!
//! [`Explorer::explore_supervised`] runs the kernel sweep with per-unit
//! fault isolation. Every sweep shares one simulate phase, the
//! [sweep runner](crate::sweep), which wraps each *unit of work* — a
//! trace group's bank — in `catch_unwind` and degrades per unit:
//!
//! * a panicking bank scan is **retried** once per member as a bank of
//!   one (the fallback path), so one poisoned design in a bank cannot
//!   take its neighbours down with it;
//! * a design that panics alone too is **quarantined** into a structured
//!   [`SweepError`] instead of aborting;
//! * every unaffected design stays **bit-identical** to a clean run,
//!   because units share only immutable inputs (the prepared sweep plan)
//!   and write-once output slots.
//!
//! With a [`CheckpointPolicy`], completed records are periodically
//! persisted through [`Checkpoint::write_atomic`](crate::Checkpoint::write_atomic);
//! a killed sweep resumed from the sidecar file re-simulates only the
//! missing designs and its final output is bit-identical to an
//! uninterrupted run. A cooperative [`deadline`](SweepOptions::deadline)
//! is checked at unit starts and between decoded trace blocks and turns a
//! timeout into a well-formed partial [`SweepOutcome`] flagged in
//! telemetry. The deterministic [`FaultPlan`] hooks (compiled in by the
//! `fault-injection` feature) let the suite drive each of these paths on
//! purpose.

use crate::checkpoint::fnv1a;
use crate::explore::ExploreError;
use crate::fault::FaultPlan;
use crate::metrics::{CacheDesign, Evaluator, Record};
use crate::sweep::{Feed, Sweep, Unit};
use crate::telemetry::SweepTelemetry;
use crate::Explorer;
use loopir::Kernel;
use std::fmt;
use std::path::PathBuf;
use std::time::Duration;

/// How a supervised sweep persists progress.
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    /// Sidecar file written atomically (temp + rename).
    pub path: PathBuf,
    /// Flush after every `every` newly completed records (the final
    /// flush at sweep end always happens). Clamped to at least 1.
    pub every: usize,
    /// Load `path` before sweeping and skip every design it already
    /// holds. A missing file is treated as a fresh start; a corrupt or
    /// mismatched file is a typed error.
    pub resume: bool,
}

impl CheckpointPolicy {
    /// Policy writing to `path` every 32 records, without resuming.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self {
            path: path.into(),
            every: 32,
            resume: false,
        }
    }
}

/// Knobs of a supervised sweep. The default supervises panics only — no
/// checkpointing, no deadline, no injected faults.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Checkpoint sidecar policy, if any.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Cooperative time budget, checked at unit-of-work boundaries.
    pub deadline: Option<Duration>,
    /// Deterministic fault plan (inert without the `fault-injection`
    /// feature).
    pub fault: FaultPlan,
}

/// One quarantined design: the sweep finished without it and recorded
/// why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Index of the design in the sweep grid.
    pub design_index: usize,
    /// The design itself.
    pub design: CacheDesign,
    /// Path that panicked last: `"fallback"` (the per-design retry
    /// after a bank panic) or `"worker"` (a lost shard worker).
    pub engine: &'static str,
    /// Panic payload, downcast to text.
    pub message: String,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "design #{} ({}) quarantined on {} engine: {}",
            self.design_index, self.design, self.engine, self.message
        )
    }
}

/// Result of a supervised sweep: records in sweep order (`None` for
/// designs that were quarantined or never reached before cancellation),
/// the quarantine log, and the run's telemetry.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Per-design records, in the grid's sweep order.
    pub records: Vec<Option<Record>>,
    /// Quarantined designs, sorted by design index.
    pub errors: Vec<SweepError>,
    /// Counters and timings, including the supervisor's quarantine /
    /// retry / checkpoint / resume / cancellation accounting.
    pub telemetry: SweepTelemetry,
}

impl SweepOutcome {
    /// True when every design produced a record.
    pub fn is_complete(&self) -> bool {
        self.records.iter().all(Option::is_some)
    }

    /// The present records, in sweep order.
    pub fn completed_records(&self) -> Vec<Record> {
        self.records.iter().filter_map(Clone::clone).collect()
    }
}

/// Stable identity of a sweep configuration, stored in checkpoint
/// headers so a sidecar file can never be resumed against a different
/// kernel, design grid, or evaluator.
pub fn sweep_id(kernel: &Kernel, designs: &[CacheDesign], evaluator: &Evaluator) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(kernel.name.as_bytes());
    bytes.push(0);
    push_grid(&mut bytes, designs);
    bytes.push(evaluator.placement as u8);
    bytes.push(evaluator.bus_encoding as u8);
    bytes.extend_from_slice(evaluator.energy_model.part.name.as_bytes());
    bytes.extend_from_slice(
        &evaluator
            .energy_model
            .part
            .energy_per_access_nj
            .to_bits()
            .to_le_bytes(),
    );
    fnv1a(&bytes)
}

/// Appends a design grid to sweep-id bytes: each design's geometry words,
/// plus its replacement and write policy when any design in the grid
/// departs from the defaults. Pure-geometry grids thus hash exactly as
/// before policies existed, so sidecar files from older runs stay
/// resumable, while policy-bearing grids append their policy words and
/// can never collide with them.
pub(crate) fn push_grid(bytes: &mut Vec<u8>, designs: &[CacheDesign]) {
    let any_policies = designs.iter().any(|d| !d.has_default_policies());
    for d in designs {
        for word in [d.cache_size as u64, d.line as u64, d.assoc as u64, d.tiling] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        if any_policies {
            let (r, seed) = match d.replacement {
                memsim::Replacement::Lru => (0u8, 0u64),
                memsim::Replacement::Fifo => (1, 0),
                memsim::Replacement::Plru => (2, 0),
                memsim::Replacement::Random { seed } => (3, seed),
            };
            let w = match d.write_policy {
                memsim::WritePolicy::WriteBackAllocate => 0u8,
                memsim::WritePolicy::WriteThroughNoAllocate => 1,
            };
            bytes.push(r);
            bytes.extend_from_slice(&seed.to_le_bytes());
            bytes.push(w);
        }
    }
}

impl Explorer {
    /// Runs the kernel sweep under the fault-isolation supervisor. The
    /// layout and trace phases are shared inputs to every design, so a
    /// panic there (a `trace address overflow` while compiling a plan,
    /// say) is still a whole-sweep [`ExploreError`];
    /// from the simulate phase on, failures degrade per unit of work as
    /// described in the module docs. Every replay, retry included, walks
    /// its group's compiled plan afresh.
    pub fn explore_supervised(
        &self,
        kernel: &Kernel,
        designs: &[CacheDesign],
        options: &SweepOptions,
    ) -> Result<SweepOutcome, ExploreError> {
        let workers = self.worker_count(designs.len());
        let id = sweep_id(kernel, designs, &self.evaluator);
        let mut sweep = Sweep::begin(self, designs, options, workers, id)?;
        let plan = self.prepare(kernel, designs, workers, &sweep.hists)?;
        let (plans, trace_time) = self.compile_plans(workers, &plan)?;
        let units: Vec<Unit<'_>> = plan
            .groups
            .iter()
            .zip(&plans)
            .map(|(members, p)| Unit {
                members: members.clone(),
                feed: Feed::Plan(p),
            })
            .collect();
        sweep
            .run(&units, |i| plan.conflict_free_of(&designs[i]))
            .map_err(|e| ExploreError::WorkerPanic {
                phase: "simulate",
                message: e.to_string(),
            })?;
        let mut outcome = sweep.finish();
        plan.fill(&mut outcome.telemetry);
        outcome.telemetry.traces_generated = plans.len();
        outcome.telemetry.trace_time = trace_time;
        Ok(outcome)
    }
}
