//! External trace workloads: streamed `.din` sweeps with bounded memory.
//!
//! The kernel sweep engines ([`Explorer::explore_designs_with_telemetry`])
//! materialize every trace into a shared [`memsim::TraceArena`] before any
//! simulation starts — fine for paper kernels (tens of thousands of
//! events), hopeless for a multi-gigabyte recorded workload. This module
//! is the streaming counterpart: a [`TraceWorkload`] names an external
//! Dinero `.din` trace (file or in-memory text), carries its content
//! [`TraceFingerprint`] from one cheap preparation pass, and
//! [`Explorer::explore_trace`] sweeps a design grid over it by pulling
//! fixed-capacity chunks through [`memsim::TraceSource`] and feeding them
//! into incremental [`ReplayBank`] steppers.
//!
//! Memory stays `O(chunk_capacity × workers)` regardless of trace length:
//! each worker owns one chunk buffer and one bank of cache models. The
//! grid is sharded into banks of [`TRACE_BANK_WIDTH`] designs; each shard
//! re-streams the trace once, so the whole sweep reads the file
//! `⌈designs / TRACE_BANK_WIDTH⌉` times while every design still consumes
//! every event exactly once (the telemetry's replayed/scanned split).
//!
//! Bit-identity: lane state in a [`ReplayBank`] persists across
//! [`feed`](ReplayBank::feed) calls, so chunked replay is the same
//! computation as a whole-slice scan for *any* chunk size (see
//! `memsim::bank`), and records land in write-once slots indexed by
//! design, so worker count and scheduling cannot reorder or change them.
//!
//! External traces carry no kernel, so there is nothing to tile or place:
//! the grid has no tiling axis ([`TraceWorkload::design_space`] pins
//! `B = 1`) and layouts are never computed.

use crate::checkpoint::{fnv1a, Checkpoint, CheckpointError};
use crate::explore::{panic_message, try_steal_loop, SweepHists};
use crate::metrics::{CacheDesign, Evaluator, Record};
use crate::obs::{FieldValue, Span};
use crate::supervisor::{SweepError, SweepOptions, SweepOutcome};
use crate::telemetry::SweepTelemetry;
use crate::{DesignSpace, Explorer};
use memsim::{
    fingerprint_source, DinSource, ReplayBank, TraceEvent, TraceFingerprint, TraceSource,
    TraceSourceError, DEFAULT_CHUNK_CAPACITY,
};
use std::fmt;
use std::io::{self, BufReader};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Designs stepped in lockstep per shard of a streamed sweep. Each shard
/// re-streams the trace once, so this bounds both the number of passes
/// over the file (`⌈designs / width⌉`) and the per-worker model state.
pub const TRACE_BANK_WIDTH: usize = 64;

/// Errors of a streamed trace sweep.
#[derive(Debug)]
pub enum TraceError {
    /// The trace itself failed: I/O or a malformed record. Callers map
    /// this to the same exit discipline as any other input failure.
    Source(TraceSourceError),
    /// A sweep worker panicked outside the supervisor's quarantine.
    WorkerPanic {
        /// Panic payload, downcast to text.
        message: String,
    },
    /// Checkpoint sidecar failure (resume mismatch or unreadable file).
    Checkpoint(CheckpointError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Source(e) => write!(f, "trace source failed: {e}"),
            TraceError::WorkerPanic { message } => {
                write!(f, "streamed sweep worker panicked: {message}")
            }
            TraceError::Checkpoint(e) => write!(f, "checkpoint failed: {e}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Source(e) => Some(e),
            TraceError::WorkerPanic { .. } => None,
            TraceError::Checkpoint(e) => Some(e),
        }
    }
}

impl From<TraceSourceError> for TraceError {
    fn from(e: TraceSourceError) -> Self {
        TraceError::Source(e)
    }
}

impl From<CheckpointError> for TraceError {
    fn from(e: CheckpointError) -> Self {
        TraceError::Checkpoint(e)
    }
}

/// Where a workload's bytes come from. Every shard opens its own reader,
/// so the input must be re-openable: a path is re-opened, in-memory text
/// is shared behind an [`Arc`].
#[derive(Clone, Debug)]
enum TraceInput {
    Path(PathBuf),
    Text { name: String, text: Arc<String> },
}

/// Shared in-memory text served as a reader, so inline traces (serve
/// jobs) stream through the same `DinSource` as files without copying
/// the text per shard.
#[derive(Debug)]
struct TextReader {
    text: Arc<String>,
    pos: usize,
}

impl io::Read for TextReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let bytes = self.text.as_bytes();
        let n = out.len().min(bytes.len() - self.pos);
        out[..n].copy_from_slice(&bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// An external `.din` trace prepared for streamed sweeps: a re-openable
/// input, its content fingerprint (one cheap preparation pass — the
/// trace is never materialized), and the chunk capacity every pass uses.
#[derive(Clone, Debug)]
pub struct TraceWorkload {
    input: TraceInput,
    fingerprint: TraceFingerprint,
    chunk_capacity: usize,
}

impl TraceWorkload {
    /// Prepares the `.din` file at `path`: one streaming pass computes
    /// the fingerprint and event count (bounded memory; the file may be
    /// arbitrarily large).
    ///
    /// # Errors
    ///
    /// A [`TraceError::Source`] if the file cannot be read or holds a
    /// malformed record.
    pub fn from_path(path: impl Into<PathBuf>) -> Result<Self, TraceError> {
        Self::with_input(TraceInput::Path(path.into()), DEFAULT_CHUNK_CAPACITY)
    }

    /// Prepares in-memory `.din` text (the serve daemon's inline-trace
    /// jobs). `name` labels errors the way a path would.
    ///
    /// # Errors
    ///
    /// A [`TraceError::Source`] on a malformed record.
    pub fn from_text(name: impl Into<String>, text: impl Into<String>) -> Result<Self, TraceError> {
        let input = TraceInput::Text {
            name: name.into(),
            text: Arc::new(text.into()),
        };
        Self::with_input(input, DEFAULT_CHUNK_CAPACITY)
    }

    fn with_input(input: TraceInput, chunk_capacity: usize) -> Result<Self, TraceError> {
        let mut workload = TraceWorkload {
            input,
            fingerprint: TraceFingerprint::default(),
            chunk_capacity: chunk_capacity.max(1),
        };
        workload.fingerprint = fingerprint_source(&mut *workload.open()?, workload.chunk_capacity)?;
        Ok(workload)
    }

    /// Replaces the chunk capacity (events per [`fill`](TraceSource::fill)
    /// call; builder-style). Records are invariant to this by
    /// construction — it only trades memory against read-loop overhead.
    pub fn with_chunk_capacity(mut self, capacity: usize) -> Self {
        self.chunk_capacity = capacity.max(1);
        self
    }

    /// The workload's display name (path or inline label).
    pub fn name(&self) -> &str {
        match &self.input {
            TraceInput::Path(p) => p.to_str().unwrap_or("trace.din"),
            TraceInput::Text { name, .. } => name,
        }
    }

    /// Content fingerprint from the preparation pass — the cache-key
    /// identity of this workload (replaces the kernel text for external
    /// traces).
    pub fn fingerprint(&self) -> TraceFingerprint {
        self.fingerprint
    }

    /// Events in the trace, counted by the preparation pass.
    pub fn events(&self) -> u64 {
        self.fingerprint.events()
    }

    /// Events per chunk each streaming pass holds resident.
    pub fn chunk_capacity(&self) -> usize {
        self.chunk_capacity
    }

    /// Opens a fresh source over the input (each shard streams its own).
    ///
    /// # Errors
    ///
    /// A [`TraceSourceError::Io`] if a path input cannot be opened.
    pub fn open(&self) -> Result<Box<dyn TraceSource + Send>, TraceSourceError> {
        match &self.input {
            TraceInput::Path(p) => Ok(Box::new(DinSource::open(p)?)),
            TraceInput::Text { name, text } => {
                let reader = BufReader::new(TextReader {
                    text: Arc::clone(text),
                    pos: 0,
                });
                Ok(Box::new(DinSource::from_reader(reader, name.clone())))
            }
        }
    }

    /// The design grid streamed sweeps use by default: the paper's
    /// `(T, L, S)` axes with tiling pinned to `B = 1` — an external trace
    /// has no kernel to re-tile, so the tiling axis is meaningless.
    pub fn design_space() -> DesignSpace {
        DesignSpace {
            tilings: vec![1],
            ..DesignSpace::paper()
        }
    }
}

/// Stable identity of a streamed sweep configuration — the
/// [`sweep_id`](crate::supervisor::sweep_id) analogue keyed by trace
/// content instead of kernel name, so a checkpoint sidecar can never be
/// resumed against a different trace, grid, or evaluator.
pub fn trace_sweep_id(
    workload: &TraceWorkload,
    designs: &[CacheDesign],
    evaluator: &Evaluator,
) -> u64 {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"trace\0");
    bytes.extend_from_slice(&workload.fingerprint().digest().to_le_bytes());
    bytes.extend_from_slice(&workload.events().to_le_bytes());
    for d in designs {
        for word in [d.cache_size as u64, d.line as u64, d.assoc as u64, d.tiling] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
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

impl Explorer {
    /// Sweeps `designs` over a streamed external trace. Convenience form
    /// of [`explore_trace_supervised`](Self::explore_trace_supervised)
    /// with default options, erroring out instead of quarantining: the
    /// result is complete or the call fails.
    ///
    /// # Errors
    ///
    /// [`TraceError::Source`] if the trace cannot be streamed,
    /// [`TraceError::WorkerPanic`] if any design's evaluation panicked.
    pub fn explore_trace(
        &self,
        workload: &TraceWorkload,
        designs: &[CacheDesign],
    ) -> Result<(Vec<Record>, SweepTelemetry), TraceError> {
        let outcome = self.explore_trace_supervised(workload, designs, &SweepOptions::default())?;
        if let Some(e) = outcome.errors.into_iter().next() {
            return Err(TraceError::WorkerPanic { message: e.message });
        }
        let records = outcome
            .records
            .into_iter()
            .map(|r| r.expect("no errors and no deadline leaves every slot filled"))
            .collect();
        Ok((records, outcome.telemetry))
    }

    /// Sweeps `designs` over a streamed external trace under the
    /// fault-isolation supervisor: panicking shards are retried one
    /// design at a time (each retry re-streams the trace alone), designs
    /// that still panic are quarantined into [`SweepError`]s, a
    /// cooperative deadline (checked between chunks) yields a well-formed
    /// partial [`SweepOutcome`], and a [`CheckpointPolicy`]
    /// (crate::CheckpointPolicy) persists/resumes completed records under
    /// a [`trace_sweep_id`] header.
    ///
    /// A [`TraceSourceError`] is *not* quarantined — the workload itself
    /// is broken, so the sweep stops and reports it.
    ///
    /// # Errors
    ///
    /// [`TraceError::Source`] on stream failure, [`TraceError::Checkpoint`]
    /// on sidecar mismatch, [`TraceError::WorkerPanic`] only if a panic
    /// escapes the per-shard quarantine.
    pub fn explore_trace_supervised(
        &self,
        workload: &TraceWorkload,
        designs: &[CacheDesign],
        options: &SweepOptions,
    ) -> Result<SweepOutcome, TraceError> {
        let sweep_start = Instant::now();
        let shards: Vec<Vec<usize>> = (0..designs.len())
            .collect::<Vec<_>>()
            .chunks(TRACE_BANK_WIDTH)
            .map(<[usize]>::to_vec)
            .collect();
        let workers = self.worker_count(shards.len());
        let id = trace_sweep_id(workload, designs, &self.evaluator);
        let obs = self.obs.as_deref();
        if let Some(o) = obs {
            o.counters
                .total
                .fetch_add(designs.len() as u64, Ordering::Relaxed);
        }

        // Resume: pre-fill output slots from the sidecar file (same
        // protocol as the kernel supervisor, different sweep id).
        let record_slots: Vec<OnceLock<Record>> = designs.iter().map(|_| OnceLock::new()).collect();
        let mut resumed_entries: Vec<(usize, Record)> = Vec::new();
        if let Some(policy) = options.checkpoint.as_ref().filter(|p| p.resume) {
            match Checkpoint::read(&policy.path) {
                Ok(ck) => {
                    if ck.sweep_id != id {
                        return Err(CheckpointError::SweepMismatch {
                            expected: id,
                            found: ck.sweep_id,
                        }
                        .into());
                    }
                    for (idx, mut record) in ck.entries {
                        if idx >= designs.len() {
                            return Err(CheckpointError::BadEntry {
                                index: idx as u64,
                                designs: designs.len(),
                            }
                            .into());
                        }
                        record.design = designs[idx];
                        let _ = record_slots[idx].set(record.clone());
                        resumed_entries.push((idx, record));
                    }
                }
                Err(CheckpointError::Io { ref source, .. })
                    if source.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        let records_resumed = resumed_entries.len();
        if let Some(o) = obs {
            if records_resumed > 0 {
                o.counters.add_done(records_resumed as u64);
                o.point(
                    "supervise",
                    "resume",
                    &[("records", FieldValue::U64(records_resumed as u64))],
                );
            }
        }

        let hists = SweepHists::default();
        let phase_start = Instant::now();
        let simulate_span = Span::begin(obs, "simulate");
        let replayed = AtomicU64::new(0);
        let scanned = AtomicU64::new(0);
        let peak_chunk_bytes = AtomicU64::new(0);
        let retried = AtomicUsize::new(0);
        let cancelled = AtomicBool::new(false);
        let stop = AtomicBool::new(false);
        let deadline = options.deadline.map(|d| sweep_start + d);
        let errors: Mutex<Vec<SweepError>> = Mutex::new(Vec::new());
        let source_error: Mutex<Option<TraceSourceError>> = Mutex::new(None);
        let sink = Mutex::new(CheckpointSink {
            entries: resumed_entries,
            since_flush: 0,
            flushes: 0,
            written: 0,
            failed: 0,
        });

        let fail_source = |e: TraceSourceError| {
            stop.store(true, Ordering::Relaxed);
            let mut slot = source_error.lock().unwrap_or_else(|p| p.into_inner());
            if slot.is_none() {
                *slot = Some(e);
            }
        };
        let quarantine = |e: SweepError| {
            if let Some(o) = obs {
                o.counters.quarantined.fetch_add(1, Ordering::Relaxed);
                o.point(
                    "supervise",
                    "quarantine",
                    &[
                        ("design", FieldValue::U64(e.design_index as u64)),
                        ("engine", FieldValue::Str(e.engine.to_string())),
                        ("message", FieldValue::Str(e.message.clone())),
                    ],
                );
            }
            errors.lock().unwrap_or_else(|p| p.into_inner()).push(e);
        };
        let flush_with_id = |sink: &mut CheckpointSink, policy: &crate::CheckpointPolicy| {
            let nth = sink.flushes;
            sink.flushes += 1;
            sink.since_flush = 0;
            let flush_start = Instant::now();
            let ok = if options.fault.should_fail_checkpoint(nth) {
                sink.failed += 1;
                false
            } else {
                let ck = Checkpoint {
                    sweep_id: id,
                    entries: sink.entries.clone(),
                };
                match ck.write_atomic(&policy.path) {
                    Ok(()) => {
                        sink.written += 1;
                        true
                    }
                    Err(_) => {
                        sink.failed += 1;
                        false
                    }
                }
            };
            let dur = flush_start.elapsed();
            hists.flush.record(dur);
            if let Some(o) = obs {
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
        };
        let complete = |idx: usize, record: Record| {
            if record_slots[idx].set(record.clone()).is_ok() {
                if let Some(policy) = options.checkpoint.as_ref() {
                    let mut sink = sink.lock().unwrap_or_else(|p| p.into_inner());
                    sink.entries.push((idx, record));
                    sink.since_flush += 1;
                    if sink.since_flush >= policy.every.max(1) {
                        flush_with_id(&mut sink, policy);
                    }
                }
            }
        };
        let out_of_time = || {
            if cancelled.load(Ordering::Relaxed) {
                return true;
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                if !cancelled.swap(true, Ordering::Relaxed) {
                    if let Some(o) = obs {
                        o.point("supervise", "deadline_cancel", &[]);
                    }
                }
                return true;
            }
            false
        };
        // One full streaming pass over the workload, feeding `bank`.
        // Returns the events fed and the microseconds spent parsing them
        // (inside `TraceSource::fill`), or `None` when the deadline fired
        // mid-stream (the bank is then abandoned: a partial replay must
        // never produce a record).
        let stream_into = |bank: &mut ReplayBank| -> Result<Option<(u64, u64)>, TraceSourceError> {
            let mut src = workload.open()?;
            let mut buf: Vec<TraceEvent> = Vec::with_capacity(workload.chunk_capacity());
            let mut events = 0u64;
            let mut parse = Duration::ZERO;
            loop {
                let fill_start = Instant::now();
                let n = src.fill(&mut buf, workload.chunk_capacity())?;
                parse += fill_start.elapsed();
                if n == 0 {
                    let parse_us = u64::try_from(parse.as_micros()).unwrap_or(u64::MAX);
                    return Ok(Some((events, parse_us)));
                }
                events += n as u64;
                let bytes = (buf.len() * std::mem::size_of::<TraceEvent>()) as u64;
                peak_chunk_bytes.fetch_max(bytes, Ordering::Relaxed);
                bank.feed(&buf);
                if let Some(o) = obs {
                    o.counters.add_events(n as u64);
                }
                if out_of_time() {
                    return Ok(None);
                }
            }
        };
        // Per-design retry, shared by the quarantine fallback: re-streams
        // the whole trace through a bank of one.
        let simulate_one =
            |w: usize, i: usize| -> Result<Result<Option<Record>, TraceSourceError>, String> {
                let unit_start = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| {
                    options.fault.maybe_panic_design(i);
                    let d = designs[i];
                    let config = d
                        .cache_config()
                        .unwrap_or_else(|e| panic!("invalid design {d}: {e}"));
                    let mut bank =
                        ReplayBank::with_options(&[config], self.evaluator.bus_encoding, false);
                    let (events, parse_us) = match stream_into(&mut bank)? {
                        Some(pass) => pass,
                        None => return Ok(None),
                    };
                    scanned.fetch_add(events, Ordering::Relaxed);
                    replayed.fetch_add(events, Ordering::Relaxed);
                    let record = self
                        .evaluator
                        .evaluate_bank_reports(&[(d, false)], &bank.finish())
                        .pop()
                        .expect("bank of one yields one record");
                    Ok(Some((record, events, parse_us)))
                }))
                .map_err(panic_message);
                match result {
                    Ok(Ok(Some((record, events, parse_us)))) => {
                        let dur = unit_start.elapsed();
                        hists.design.record(dur);
                        if let Some(o) = obs {
                            o.counters.add_done(1);
                            o.unit(
                                "simulate",
                                "sim",
                                w as u64,
                                dur,
                                &[
                                    ("events", FieldValue::U64(events)),
                                    ("parse_us", FieldValue::U64(parse_us)),
                                ],
                            );
                        }
                        Ok(Ok(Some(record)))
                    }
                    Ok(Ok(None)) => Ok(Ok(None)),
                    Ok(Err(e)) => Ok(Err(e)),
                    Err(message) => Err(message),
                }
            };

        let worker_busy = try_steal_loop(workers, shards.len(), |w, s| {
            if out_of_time() || stop.load(Ordering::Relaxed) {
                return;
            }
            let members = &shards[s];
            let fresh = members
                .iter()
                .filter(|&&i| record_slots[i].get().is_none())
                .count();
            if fresh == 0 {
                return; // whole shard resumed from the checkpoint
            }
            let unit_start = Instant::now();
            let scan = catch_unwind(AssertUnwindSafe(
                || -> Result<Option<(Vec<Record>, u64, u64)>, TraceSourceError> {
                    options.fault.maybe_panic_group(s);
                    let bank_designs: Vec<(CacheDesign, bool)> =
                        members.iter().map(|&i| (designs[i], false)).collect();
                    let configs: Vec<memsim::CacheConfig> = bank_designs
                        .iter()
                        .map(|(d, _)| {
                            d.cache_config()
                                .unwrap_or_else(|e| panic!("invalid design {d}: {e}"))
                        })
                        .collect();
                    let mut bank =
                        ReplayBank::with_options(&configs, self.evaluator.bus_encoding, false);
                    let (events, parse_us) = match stream_into(&mut bank)? {
                        Some(pass) => pass,
                        None => return Ok(None),
                    };
                    scanned.fetch_add(events, Ordering::Relaxed);
                    replayed.fetch_add(events * members.len() as u64, Ordering::Relaxed);
                    let records = self
                        .evaluator
                        .evaluate_bank_reports(&bank_designs, &bank.finish());
                    Ok(Some((records, events, parse_us)))
                },
            ));
            match scan {
                Ok(Ok(Some((records, events, parse_us)))) => {
                    let dur = unit_start.elapsed();
                    hists.scan.record(dur);
                    for (&i, record) in members.iter().zip(records) {
                        complete(i, record);
                    }
                    if let Some(o) = obs {
                        o.counters.add_done(fresh as u64);
                        o.unit(
                            "simulate",
                            "scan",
                            w as u64,
                            dur,
                            &[
                                ("events", FieldValue::U64(events)),
                                ("parse_us", FieldValue::U64(parse_us)),
                                ("width", FieldValue::U64(members.len() as u64)),
                                ("fresh", FieldValue::U64(fresh as u64)),
                            ],
                        );
                    }
                }
                Ok(Ok(None)) => {} // deadline fired mid-stream: partial result
                Ok(Err(e)) => fail_source(e),
                Err(payload) => {
                    // Fallback: re-stream each member alone; only a design
                    // that also fails there is quarantined.
                    let _ = panic_message(payload);
                    let mut retried_here = 0u64;
                    for &i in members {
                        if record_slots[i].get().is_some()
                            || out_of_time()
                            || stop.load(Ordering::Relaxed)
                        {
                            continue;
                        }
                        retried.fetch_add(1, Ordering::Relaxed);
                        retried_here += 1;
                        match simulate_one(w, i) {
                            Ok(Ok(Some(record))) => complete(i, record),
                            Ok(Ok(None)) => {} // deadline
                            Ok(Err(e)) => fail_source(e),
                            Err(message) => quarantine(SweepError {
                                design_index: i,
                                design: designs[i],
                                engine: "stream-fallback",
                                message,
                            }),
                        }
                    }
                    if let Some(o) = obs {
                        o.point(
                            "supervise",
                            "retry",
                            &[
                                ("group", FieldValue::U64(s as u64)),
                                ("count", FieldValue::U64(retried_here)),
                            ],
                        );
                    }
                }
            }
        });
        drop(simulate_span);
        let worker_busy = worker_busy.map_err(|message| TraceError::WorkerPanic { message })?;
        if let Some(e) = source_error.into_inner().unwrap_or_else(|p| p.into_inner()) {
            return Err(TraceError::Source(e));
        }
        let simulate_time = phase_start.elapsed();

        // Final flush so the sidecar captures the tail of the sweep.
        let (checkpoints_written, checkpoints_failed) = match options.checkpoint.as_ref() {
            Some(policy) => {
                let mut sink = sink.lock().unwrap_or_else(|p| p.into_inner());
                if sink.since_flush > 0 || sink.flushes == 0 {
                    flush_with_id(&mut sink, policy);
                }
                (sink.written, sink.failed)
            }
            None => (0, 0),
        };

        let phase_start = Instant::now();
        let select_span = Span::begin(obs, "select");
        let records: Vec<Option<Record>> =
            record_slots.into_iter().map(OnceLock::into_inner).collect();
        let mut errors = errors.into_inner().unwrap_or_else(|p| p.into_inner());
        errors.sort_by_key(|e| e.design_index);
        drop(select_span);
        let select_time = phase_start.elapsed();

        let max_bank_width = shards.iter().map(Vec::len).max().unwrap_or(0);
        let mut telemetry = SweepTelemetry {
            designs_evaluated: records.iter().filter(|r| r.is_some()).count(),
            layouts_computed: 0,
            traces_generated: 1,
            trace_events_generated: workload.events(),
            trace_events_replayed: replayed.into_inner(),
            trace_events_scanned: scanned.into_inner(),
            fused_groups: shards.len(),
            max_bank_width,
            workers,
            simulate_time,
            select_time,
            total_time: sweep_start.elapsed(),
            worker_busy,
            designs_quarantined: errors.len(),
            designs_retried: retried.into_inner(),
            checkpoints_written,
            checkpoints_failed,
            records_resumed,
            cancelled: cancelled.into_inner(),
            peak_chunk_bytes: peak_chunk_bytes.into_inner(),
            ..SweepTelemetry::default()
        };
        hists.fill(&mut telemetry);
        Ok(SweepOutcome {
            records,
            errors,
            telemetry,
        })
    }
}

/// Mutable checkpoint state shared by workers (see
/// `supervisor::Sink` — duplicated here because both are private
/// implementation details of their engines).
struct CheckpointSink {
    entries: Vec<(usize, Record)>,
    since_flush: usize,
    flushes: usize,
    written: usize,
    failed: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::din::{write_din, DinLabel, DinRecord};

    fn din_text(records: &[DinRecord]) -> String {
        let mut buf = Vec::new();
        write_din(&mut buf, records).unwrap();
        String::from_utf8(buf).unwrap()
    }

    fn sample_records(n: u64) -> Vec<DinRecord> {
        (0..n)
            .map(|i| DinRecord {
                label: if i % 7 == 3 {
                    DinLabel::Write
                } else {
                    DinLabel::Read
                },
                addr: (i * 4) % 512,
            })
            .collect()
    }

    fn small_grid() -> Vec<CacheDesign> {
        let mut v = Vec::new();
        for t in [64usize, 128, 256] {
            for l in [8usize, 16] {
                for s in [1usize, 2] {
                    v.push(CacheDesign::new(t, l, s, 1));
                }
            }
        }
        v
    }

    #[test]
    fn streamed_matches_materialized_replay() {
        let records = sample_records(3000);
        let workload = TraceWorkload::from_text("inline.din", din_text(&records))
            .unwrap()
            .with_chunk_capacity(97);
        let designs = small_grid();
        let explorer = Explorer::default();
        let (streamed, telemetry) = explorer.explore_trace(&workload, &designs).unwrap();

        // Materialized reference: same events through the whole-slice path.
        let events: Vec<TraceEvent> = records
            .iter()
            .map(|r| memsim::source::din_event(r.label, r.addr))
            .collect();
        let bank: Vec<(CacheDesign, bool)> = designs.iter().map(|&d| (d, false)).collect();
        let reference = explorer.evaluator.evaluate_bank_with_trace(&bank, &events);
        assert_eq!(streamed, reference);
        assert_eq!(telemetry.trace_events_generated, 3000);
        assert_eq!(telemetry.designs_evaluated, designs.len());
        assert!(telemetry.peak_chunk_bytes > 0);
        assert_eq!(telemetry.fused_groups, 1); // 12 designs, one shard
    }

    #[test]
    fn chunk_capacity_is_invisible_in_records() {
        let text = din_text(&sample_records(500));
        let designs = small_grid();
        let explorer = Explorer::default();
        let base = TraceWorkload::from_text("t.din", text.clone()).unwrap();
        let (reference, _) = explorer.explore_trace(&base, &designs).unwrap();
        for cap in [1usize, 7, 64, 4096] {
            let w = TraceWorkload::from_text("t.din", text.clone())
                .unwrap()
                .with_chunk_capacity(cap);
            assert_eq!(w.fingerprint(), base.fingerprint());
            let (records, _) = explorer.explore_trace(&w, &designs).unwrap();
            assert_eq!(records, reference, "chunk capacity {cap} changed records");
        }
    }

    #[test]
    fn malformed_trace_is_a_typed_source_error() {
        let workload = TraceWorkload::from_text("bad.din", "0 40\n9 zz\n");
        match workload {
            Err(TraceError::Source(TraceSourceError::Parse { path, .. })) => {
                assert_eq!(path, "bad.din");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let err = TraceWorkload::from_path("/nonexistent/trace.din").unwrap_err();
        assert!(matches!(
            err,
            TraceError::Source(TraceSourceError::Io { .. })
        ));
        assert!(err.to_string().contains("trace source failed"));
    }

    #[test]
    fn sweep_id_tracks_content_and_grid() {
        let a = TraceWorkload::from_text("a.din", "0 40\n0 44\n").unwrap();
        let b = TraceWorkload::from_text("b.din", "0 40\n1 44\n").unwrap();
        let eval = Evaluator::default();
        let grid = small_grid();
        let id_a = trace_sweep_id(&a, &grid, &eval);
        assert_eq!(id_a, trace_sweep_id(&a, &grid, &eval));
        assert_ne!(id_a, trace_sweep_id(&b, &grid, &eval));
        assert_ne!(id_a, trace_sweep_id(&a, &grid[..3], &eval));
    }

    #[test]
    fn trace_design_space_pins_tiling() {
        let space = TraceWorkload::design_space();
        assert_eq!(space.tilings, vec![1]);
        assert!(space.designs().iter().all(|d| d.tiling == 1));
    }
}
