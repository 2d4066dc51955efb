//! The sweep runner: the one simulate phase behind every sweep.
//!
//! Kernel sweeps (plain or supervised) and streamed `.din` sweeps differ
//! only in where their trace events come from. Each cuts its design grid
//! into [`Unit`]s — a set of member design indices plus one [`Feed`]:
//! a kernel's compiled trace plan, or a re-opened `.din` stream. Every
//! unit is one `memsim::ReplayBank` pass over its feed through one loop,
//! [`stream_into`], in chunks: no kernel trace is ever held whole on this
//! path. A [`Sweep`] then owns, once:
//!
//! * checkpoint resume, periodic flush, and the final flush;
//! * the cooperative deadline, checked at unit starts and between
//!   chunks, so a fired deadline stops generation or parsing too;
//! * [`catch_unwind`] per unit: a panicking bank is retried one design
//!   at a time (the fallback), and a design that panics alone is
//!   quarantined into a [`SweepError`];
//! * the [`FaultPlan`](crate::FaultPlan) hooks: `panic_group` keyed by
//!   unit index, `panic_design` by design index;
//! * the obs `scan` (a bank) and `sim` (a fallback retry) unit events
//!   (with `gen_us` on plan units and `parse_us` on stream units), the
//!   latency histograms, the generated/replayed/scanned counters, and the
//!   select phase collecting records into sweep order.
//!
//! Records land in write-once slots indexed by design and units share
//! only immutable inputs, so every unaffected record is bit-identical to
//! a clean run regardless of worker count, scheduling, or faults.

use crate::checkpoint::{Checkpoint, CheckpointError};
use crate::explore::{panic_message, try_steal_loop, SweepHists};
use crate::metrics::{CacheDesign, PlanSource, Record, PLAN_CHUNK_EVENTS};
use crate::obs::{FieldValue, Span};
use crate::supervisor::{CheckpointPolicy, SweepError, SweepOptions, SweepOutcome};
use crate::telemetry::SweepTelemetry;
use crate::workload::TraceWorkload;
use crate::Explorer;
use loopir::TraceGen;
use memsim::{ReplayBank, TraceEvent, TraceSource, TraceSourceError};
use std::fmt;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Where a unit's trace events come from.
pub(crate) enum Feed<'a> {
    /// A kernel's compiled trace plan, not yet walked: every replay walks
    /// a clone of it from the start, chunk by chunk.
    Plan(&'a TraceGen<'a>),
    /// An external trace, re-opened and streamed chunk by chunk.
    Stream(&'a TraceWorkload),
}

/// What one [`stream_into`] pass did.
pub(crate) struct Streamed {
    /// Events fed to the bank.
    pub events: u64,
    /// Time inside `TraceSource::fill`.
    pub fill_time: Duration,
    /// False when `after` stopped the pass before the source ran dry.
    pub complete: bool,
}

/// Feeds `source` through `bank` in chunks of `capacity` events until the
/// source runs dry, calling `after` with each chunk once the bank has it;
/// the pass stops there when `after` breaks. One chunk buffer is resident
/// at a time.
///
/// # Errors
///
/// The source's first failure.
pub(crate) fn stream_into(
    bank: &mut ReplayBank,
    source: &mut dyn TraceSource,
    capacity: usize,
    mut after: impl FnMut(&[TraceEvent]) -> ControlFlow<()>,
) -> Result<Streamed, TraceSourceError> {
    let mut buf: Vec<TraceEvent> = Vec::with_capacity(capacity);
    let mut pass = Streamed {
        events: 0,
        fill_time: Duration::ZERO,
        complete: false,
    };
    loop {
        let fill_start = Instant::now();
        let n = source.fill(&mut buf, capacity)?;
        pass.fill_time += fill_start.elapsed();
        if n == 0 {
            pass.complete = true;
            return Ok(pass);
        }
        pass.events += n as u64;
        bank.feed(&buf);
        if after(&buf).is_break() {
            return Ok(pass);
        }
    }
}

/// One unit of simulate-phase work: member design indices (into the
/// sweep's design list) and the events they all replay.
pub(crate) struct Unit<'a> {
    pub members: Vec<usize>,
    pub feed: Feed<'a>,
}

/// A simulate-phase failure that no unit could absorb.
#[derive(Debug)]
pub(crate) enum RunError {
    /// A worker panicked outside every unit's `catch_unwind`.
    Panic(String),
    /// A streamed trace failed to read or parse: the workload itself is
    /// broken, so the sweep stops instead of quarantining.
    Source(TraceSourceError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Panic(message) => f.write_str(message),
            RunError::Source(e) => write!(f, "{e}"),
        }
    }
}

/// One completed replay of a unit's feed.
struct Pass {
    records: Vec<Record>,
    events: u64,
    /// Lane-events the bank resolved on its scalar lane loop.
    scalar_lane_events: u64,
    /// Microseconds inside `TraceSource::fill`, logged as `gen_us` for a
    /// plan and `parse_us` for a stream.
    fill_us: (&'static str, u64),
}

/// Checkpoint state shared by workers. Held only for pushes and flushes —
/// never across a simulation — so a unit panic cannot poison it
/// mid-update.
#[derive(Default)]
struct Sink {
    entries: Vec<(usize, Record)>,
    since_flush: usize,
    flushes: usize,
    written: usize,
    failed: usize,
}

/// A sweep's record slots plus everything its simulate phase owns; see
/// the module docs. [`begin`](Self::begin) resumes, [`run`](Self::run)
/// simulates the units, and [`finish`](Self::finish) flushes and collects.
pub(crate) struct Sweep<'a> {
    explorer: &'a Explorer,
    designs: &'a [CacheDesign],
    options: &'a SweepOptions,
    id: u64,
    workers: usize,
    start: Instant,
    deadline: Option<Instant>,
    /// Per-unit latency histograms; the layout phase records into them too.
    pub hists: SweepHists,
    slots: Vec<OnceLock<Record>>,
    records_resumed: usize,
    sink: Mutex<Sink>,
    errors: Mutex<Vec<SweepError>>,
    source_error: Mutex<Option<TraceSourceError>>,
    replayed: AtomicU64,
    scanned: AtomicU64,
    scalar_lane_events: AtomicU64,
    /// Events walked out of compiled plans, abandoned passes included.
    generated: AtomicU64,
    /// Nanoseconds inside plan fills, summed over workers.
    generate_ns: AtomicU64,
    retried: AtomicUsize,
    peak_chunk_bytes: AtomicU64,
    cancelled: AtomicBool,
    stopped: AtomicBool,
    banks: usize,
    max_bank_width: usize,
    simulate_time: Duration,
    worker_busy: Vec<Duration>,
}

impl<'a> Sweep<'a> {
    /// Starts a sweep over `designs`: counts them into the obs progress
    /// total and, when the checkpoint policy asks to resume, pre-fills
    /// the record slots from a sidecar whose header matches `id`. A
    /// missing sidecar is a fresh start; any other failure is an error.
    pub fn begin(
        explorer: &'a Explorer,
        designs: &'a [CacheDesign],
        options: &'a SweepOptions,
        workers: usize,
        id: u64,
    ) -> Result<Self, CheckpointError> {
        let start = Instant::now();
        let obs = explorer.obs.as_deref();
        if let Some(o) = obs {
            o.counters
                .total
                .fetch_add(designs.len() as u64, Ordering::Relaxed);
        }
        let slots: Vec<OnceLock<Record>> = designs.iter().map(|_| OnceLock::new()).collect();
        let mut entries: Vec<(usize, Record)> = Vec::new();
        if let Some(policy) = options.checkpoint.as_ref().filter(|p| p.resume) {
            match Checkpoint::read(&policy.path) {
                Ok(ck) => {
                    if ck.sweep_id != id {
                        return Err(CheckpointError::SweepMismatch {
                            expected: id,
                            found: ck.sweep_id,
                        });
                    }
                    for (idx, mut record) in ck.entries {
                        if idx >= designs.len() {
                            return Err(CheckpointError::BadEntry {
                                index: idx as u64,
                                designs: designs.len(),
                            });
                        }
                        // Entries persist geometry only; the sweep id just
                        // matched, so the grid's design (with policies) is
                        // the one this record was measured for.
                        record.design = designs[idx];
                        let _ = slots[idx].set(record.clone());
                        entries.push((idx, record));
                    }
                }
                Err(CheckpointError::Io { ref source, .. })
                    if source.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        let records_resumed = entries.len();
        if let Some(o) = obs.filter(|_| records_resumed > 0) {
            o.counters.add_done(records_resumed as u64);
            o.point(
                "supervise",
                "resume",
                &[("records", FieldValue::U64(records_resumed as u64))],
            );
        }
        Ok(Sweep {
            explorer,
            designs,
            options,
            id,
            workers,
            start,
            // A deadline past the end of representable time never fires.
            deadline: options.deadline.and_then(|d| start.checked_add(d)),
            hists: SweepHists::default(),
            slots,
            records_resumed,
            sink: Mutex::new(Sink {
                entries,
                ..Sink::default()
            }),
            errors: Mutex::new(Vec::new()),
            source_error: Mutex::new(None),
            replayed: AtomicU64::new(0),
            scanned: AtomicU64::new(0),
            scalar_lane_events: AtomicU64::new(0),
            generated: AtomicU64::new(0),
            generate_ns: AtomicU64::new(0),
            retried: AtomicUsize::new(0),
            peak_chunk_bytes: AtomicU64::new(0),
            cancelled: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            banks: 0,
            max_bank_width: 0,
            simulate_time: Duration::ZERO,
            worker_busy: Vec::new(),
        })
    }

    /// Simulates `units` over the work-stealing pool, inside one
    /// `simulate` span; called once per sweep. `conflict_free(i)` is
    /// design `i`'s placement flag.
    pub fn run(
        &mut self,
        units: &[Unit<'_>],
        conflict_free: impl Fn(usize) -> bool + Sync,
    ) -> Result<(), RunError> {
        let phase_start = Instant::now();
        let span = Span::begin(self.explorer.obs.as_deref(), "simulate");
        let this = &*self;
        let busy = try_steal_loop(self.workers, units.len(), |w, u| {
            this.run_unit(w, u, &units[u], &conflict_free);
        });
        drop(span);
        self.simulate_time = phase_start.elapsed();
        self.banks = units.len();
        self.max_bank_width = units.iter().map(|u| u.members.len()).max().unwrap_or(0);
        self.worker_busy = busy.map_err(RunError::Panic)?;
        match lock(&self.source_error).take() {
            Some(e) => Err(RunError::Source(e)),
            None => Ok(()),
        }
    }

    /// Flushes the checkpoint one last time, collects the record slots in
    /// sweep order (the `select` phase), and reports the telemetry the
    /// runner owns. Callers add their own phases' fields.
    pub fn finish(self) -> SweepOutcome {
        let (checkpoints_written, checkpoints_failed) = match self.options.checkpoint.as_ref() {
            Some(policy) => {
                let mut sink = lock(&self.sink);
                if sink.since_flush > 0 || sink.flushes == 0 {
                    self.flush(&mut sink, policy);
                }
                (sink.written, sink.failed)
            }
            None => (0, 0),
        };

        let phase_start = Instant::now();
        let span = Span::begin(self.explorer.obs.as_deref(), "select");
        let records: Vec<Option<Record>> =
            self.slots.into_iter().map(OnceLock::into_inner).collect();
        let mut errors = self.errors.into_inner().unwrap_or_else(|p| p.into_inner());
        errors.sort_by_key(|e| e.design_index);
        drop(span);
        let select_time = phase_start.elapsed();

        let mut telemetry = SweepTelemetry {
            designs_evaluated: records.iter().filter(|r| r.is_some()).count(),
            trace_events_generated: self.generated.into_inner(),
            trace_events_replayed: self.replayed.into_inner(),
            trace_events_scanned: self.scanned.into_inner(),
            scalar_lane_events: self.scalar_lane_events.into_inner(),
            fused_groups: self.banks,
            max_bank_width: self.max_bank_width,
            workers: self.workers,
            simulate_time: self.simulate_time,
            generate_time: Duration::from_nanos(self.generate_ns.into_inner()),
            select_time,
            total_time: self.start.elapsed(),
            worker_busy: self.worker_busy,
            designs_quarantined: errors.len(),
            designs_retried: self.retried.into_inner(),
            checkpoints_written,
            checkpoints_failed,
            records_resumed: self.records_resumed,
            cancelled: self.cancelled.into_inner(),
            peak_chunk_bytes: self.peak_chunk_bytes.into_inner(),
            ..SweepTelemetry::default()
        };
        self.hists.fill(&mut telemetry);
        // Busy time is measured strictly inside the simulate windows, so
        // the true utilization can only exceed 1 by clock noise; anything
        // more means busy-time overcounting.
        debug_assert!(
            telemetry.worker_utilization() <= 1.05,
            "worker busy time overcounted: utilization {}",
            telemetry.worker_utilization()
        );
        SweepOutcome {
            records,
            errors,
            telemetry,
        }
    }

    /// True once the deadline has passed (emitting the cancel event
    /// exactly once) or a trace source failed.
    fn halted(&self) -> bool {
        if self.stopped.load(Ordering::Relaxed) || self.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            // `swap` so exactly one worker emits the cancel event.
            if !self.cancelled.swap(true, Ordering::Relaxed) {
                if let Some(o) = self.explorer.obs.as_deref() {
                    o.point("supervise", "deadline_cancel", &[]);
                }
            }
            return true;
        }
        false
    }

    fn run_unit(&self, w: usize, u: usize, unit: &Unit<'_>, cf: &(impl Fn(usize) -> bool + Sync)) {
        if self.halted() {
            return;
        }
        let members = &unit.members;
        if members.iter().all(|&i| self.slots[i].get().is_some()) {
            return; // every member resumed from the checkpoint
        }
        let fault = &self.options.fault;
        if self
            .attempt(w, members, &unit.feed, cf, true, || {
                fault.maybe_panic_group(u)
            })
            .is_none()
        {
            return;
        }
        // Fallback: re-run each member alone; only a design that also
        // panics there is quarantined.
        let mut retried_here = 0u64;
        for &i in members {
            if self.slots[i].get().is_some() || self.halted() {
                continue;
            }
            self.retried.fetch_add(1, Ordering::Relaxed);
            retried_here += 1;
            if let Some(message) = self.attempt(w, &[i], &unit.feed, cf, false, || {
                fault.maybe_panic_design(i)
            }) {
                self.quarantine(i, "fallback", message);
            }
        }
        if let Some(o) = self.explorer.obs.as_deref() {
            o.point(
                "supervise",
                "retry",
                &[
                    ("group", FieldValue::U64(u as u64)),
                    ("count", FieldValue::U64(retried_here)),
                ],
            );
        }
    }

    /// Replays `members` over `feed` under `catch_unwind` (after the
    /// fault `hook`) and lands the records as a `scan` of a bank or a
    /// `sim` of one fallback design (`bank` false). Returns the panic message if
    /// the attempt panicked; a deadline or source failure mid-replay
    /// lands nothing and is not a panic.
    ///
    /// `AssertUnwindSafe` is sound: the attempt only reads immutable
    /// inputs, and a panic cannot leave a half-written record because a
    /// slot is set only after the replay returns (see also the panic-
    /// safety audit in `memsim::bank`).
    fn attempt(
        &self,
        w: usize,
        members: &[usize],
        feed: &Feed<'_>,
        cf: &(impl Fn(usize) -> bool + Sync),
        bank: bool,
        hook: impl FnOnce(),
    ) -> Option<String> {
        let start = Instant::now();
        let replay = catch_unwind(AssertUnwindSafe(|| {
            hook();
            self.replay(members, feed, cf)
        }));
        match replay {
            Ok(Ok(Some(pass))) => self.land(w, members, bank, pass, start.elapsed()),
            Ok(Ok(None)) => {} // deadline fired mid-replay: partial result
            Ok(Err(e)) => {
                self.stopped.store(true, Ordering::Relaxed);
                lock(&self.source_error).get_or_insert(e);
            }
            Err(payload) => return Some(panic_message(payload)),
        }
        None
    }

    /// One pass of `feed` through a fresh bank of `members`. `None` when
    /// the deadline fired between chunks: the bank is abandoned, since a
    /// partial replay must never produce a record.
    fn replay(
        &self,
        members: &[usize],
        feed: &Feed<'_>,
        cf: &(impl Fn(usize) -> bool + Sync),
    ) -> Result<Option<Pass>, TraceSourceError> {
        let lanes: Vec<(CacheDesign, bool)> =
            members.iter().map(|&i| (self.designs[i], cf(i))).collect();
        let evaluator = &self.explorer.evaluator;
        let mut bank = evaluator.replay_bank(&lanes);
        let (mut source, capacity, fill_field): (Box<dyn TraceSource + '_>, usize, _) = match feed {
            Feed::Plan(plan) => (
                Box::new(PlanSource::from_plan((*plan).clone())),
                PLAN_CHUNK_EVENTS,
                "gen_us",
            ),
            Feed::Stream(workload) => (workload.open()?, workload.chunk_capacity(), "parse_us"),
        };
        let obs = self.explorer.obs.as_deref();
        let pass = stream_into(&mut bank, source.as_mut(), capacity, |chunk| {
            if let Some(o) = obs {
                o.counters.add_events(chunk.len() as u64);
            }
            let bytes = std::mem::size_of_val(chunk) as u64;
            self.peak_chunk_bytes.fetch_max(bytes, Ordering::Relaxed);
            match self.halted() {
                true => ControlFlow::Break(()),
                false => ControlFlow::Continue(()),
            }
        })?;
        if matches!(feed, Feed::Plan(_)) {
            self.generated.fetch_add(pass.events, Ordering::Relaxed);
            let ns = u64::try_from(pass.fill_time.as_nanos()).unwrap_or(u64::MAX);
            self.generate_ns.fetch_add(ns, Ordering::Relaxed);
        }
        if !pass.complete {
            return Ok(None);
        }
        let fill_us = u64::try_from(pass.fill_time.as_micros()).unwrap_or(u64::MAX);
        Ok(Some(Pass {
            scalar_lane_events: bank.scalar_lane_events(),
            records: evaluator.evaluate_bank_reports(&lanes, &bank.finish()),
            events: pass.events,
            fill_us: (fill_field, fill_us),
        }))
    }

    /// Scatters a completed pass into the record slots and accounts for
    /// it: a bank logs a `scan` unit, a design alone a `sim` unit.
    fn land(&self, w: usize, members: &[usize], bank: bool, pass: Pass, dur: Duration) {
        let width = members.len() as u64;
        let fresh = members
            .iter()
            .filter(|&&i| self.slots[i].get().is_none())
            .count();
        self.scanned.fetch_add(pass.events, Ordering::Relaxed);
        self.scalar_lane_events
            .fetch_add(pass.scalar_lane_events, Ordering::Relaxed);
        self.replayed
            .fetch_add(pass.events * width, Ordering::Relaxed);
        if bank {
            self.hists.scan.record(dur);
        } else {
            self.hists.design.record(dur);
        }
        for (&i, record) in members.iter().zip(pass.records) {
            self.complete(i, record);
        }
        if let Some(o) = self.explorer.obs.as_deref() {
            o.counters.add_done(fresh as u64);
            let (fill_field, fill_us) = pass.fill_us;
            let mut fields = vec![
                ("events", FieldValue::U64(pass.events)),
                (fill_field, FieldValue::U64(fill_us)),
                ("scalar", FieldValue::U64(pass.scalar_lane_events)),
            ];
            if bank {
                fields.push(("width", FieldValue::U64(width)));
                fields.push(("fresh", FieldValue::U64(fresh as u64)));
            }
            o.unit(
                "simulate",
                if bank { "scan" } else { "sim" },
                w as u64,
                dur,
                &fields,
            );
        }
    }

    /// Fills design `i`'s slot (first writer wins) and, under a
    /// checkpoint policy, queues the record and flushes when due.
    fn complete(&self, i: usize, record: Record) {
        if self.slots[i].set(record.clone()).is_err() {
            return;
        }
        if let Some(policy) = self.options.checkpoint.as_ref() {
            let mut sink = lock(&self.sink);
            sink.entries.push((i, record));
            sink.since_flush += 1;
            if sink.since_flush >= policy.every.max(1) {
                self.flush(&mut sink, policy);
            }
        }
    }

    fn quarantine(&self, i: usize, engine: &'static str, message: String) {
        if let Some(o) = self.explorer.obs.as_deref() {
            o.counters.quarantined.fetch_add(1, Ordering::Relaxed);
            o.point(
                "supervise",
                "quarantine",
                &[
                    ("design", FieldValue::U64(i as u64)),
                    ("engine", FieldValue::Str(engine.to_string())),
                    ("message", FieldValue::Str(message.clone())),
                ],
            );
        }
        lock(&self.errors).push(SweepError {
            design_index: i,
            design: self.designs[i],
            engine,
            message,
        });
    }

    /// Writes every queued record to the sidecar atomically. A failed
    /// flush loses nothing but recency: the previous checkpoint is still
    /// intact on disk (atomic rename), so the sweep keeps going and the
    /// counter reports it.
    fn flush(&self, sink: &mut Sink, policy: &CheckpointPolicy) {
        let nth = sink.flushes;
        sink.flushes += 1;
        sink.since_flush = 0;
        let flush_start = Instant::now();
        let ok = !self.options.fault.should_fail_checkpoint(nth)
            && Checkpoint {
                sweep_id: self.id,
                entries: sink.entries.clone(),
            }
            .write_atomic(&policy.path)
            .is_ok();
        if ok {
            sink.written += 1;
        } else {
            sink.failed += 1;
        }
        let dur = flush_start.elapsed();
        self.hists.flush.record(dur);
        if let Some(o) = self.explorer.obs.as_deref() {
            o.point(
                "checkpoint",
                "flush",
                &[
                    (
                        "dur_us",
                        FieldValue::U64(u64::try_from(dur.as_micros()).unwrap_or(u64::MAX)),
                    ),
                    ("ok", FieldValue::U64(u64::from(ok))),
                    ("records", FieldValue::U64(sink.entries.len() as u64)),
                ],
            );
        }
    }
}

/// Locks in the simulate phase never panic while held (pushes and atomic
/// file writes only), so a poisoned mutex means a runner bug — recover
/// the data rather than cascading the panic.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}
