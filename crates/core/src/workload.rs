//! External trace workloads: streamed `.din` sweeps with bounded memory.
//!
//! The kernel sweep ([`Explorer::explore_designs_with_telemetry`])
//! walks each compiled kernel trace plan chunk by chunk through the
//! [sweep runner](crate::sweep). This module is the `.din` counterpart
//! on the same runner: a [`TraceWorkload`] names an external
//! Dinero `.din` trace (file or in-memory text), carries its content
//! [`TraceFingerprint`] from one cheap preparation pass, and
//! [`Explorer::explore_trace`] sweeps a design grid over it by pulling
//! fixed-capacity chunks through [`memsim::TraceSource`] and feeding them
//! into incremental [`memsim::ReplayBank`] steppers.
//!
//! Memory stays `O(chunk_capacity × workers)` regardless of trace length:
//! each worker owns one chunk buffer and one bank of cache models. The
//! grid is sharded into banks of [`TRACE_BANK_WIDTH`] designs; each shard
//! re-streams the trace once, so the whole sweep reads the file
//! `⌈designs / TRACE_BANK_WIDTH⌉` times while every design still consumes
//! every event exactly once (the telemetry's replayed/scanned split).
//!
//! Bit-identity: lane state in a [`memsim::ReplayBank`] persists across
//! [`feed`](memsim::ReplayBank::feed) calls, so chunked replay is the same
//! computation as a whole-slice scan for *any* chunk size (see
//! `memsim::bank`), and records land in write-once slots indexed by
//! design, so worker count and scheduling cannot reorder or change them.
//!
//! External traces carry no kernel, so there is nothing to tile or place:
//! the grid has no tiling axis ([`TraceWorkload::design_space`] pins
//! `B = 1`) and layouts are never computed.

use crate::checkpoint::{fnv1a, CheckpointError};
use crate::metrics::{CacheDesign, Evaluator, Record};
use crate::supervisor::{push_grid, SweepOptions, SweepOutcome};
use crate::sweep::{Feed, RunError, Sweep, Unit};
use crate::telemetry::SweepTelemetry;
use crate::{DesignSpace, Explorer};
use memsim::{
    fingerprint_source, DinSource, TraceFingerprint, TraceSource, TraceSourceError,
    DEFAULT_CHUNK_CAPACITY,
};
use std::fmt;
use std::io::{self, BufReader};
use std::path::PathBuf;
use std::sync::Arc;

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
    push_grid(&mut bytes, designs);
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
    /// fault-isolation supervisor. The grid is cut into shards of
    /// [`TRACE_BANK_WIDTH`] designs, each a unit of the
    /// [sweep runner](crate::sweep) that re-opens and streams the trace:
    /// panicking shards are retried one design at a time (each retry
    /// re-streams the trace alone), designs that still panic are
    /// quarantined into [`SweepError`](crate::SweepError)s, a
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
        let shards: Vec<Unit<'_>> = (0..designs.len())
            .step_by(TRACE_BANK_WIDTH)
            .map(|start| {
                let members = (start..designs.len().min(start + TRACE_BANK_WIDTH)).collect();
                Unit {
                    members,
                    feed: Feed::Stream(workload),
                }
            })
            .collect();
        let workers = self.worker_count(shards.len());
        let id = trace_sweep_id(workload, designs, &self.evaluator);
        let mut sweep = Sweep::begin(self, designs, options, workers, id)?;
        sweep.run(&shards, |_| false).map_err(|e| match e {
            RunError::Source(e) => TraceError::Source(e),
            RunError::Panic(message) => TraceError::WorkerPanic { message },
        })?;
        let mut outcome = sweep.finish();
        outcome.telemetry.traces_generated = 1;
        outcome.telemetry.trace_events_generated = workload.events();
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsim::din::{write_din, DinLabel, DinRecord};
    use memsim::TraceEvent;

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
        let fifo: Vec<CacheDesign> = grid
            .iter()
            .map(|d| d.with_replacement(memsim::Replacement::Fifo))
            .collect();
        assert_ne!(id_a, trace_sweep_id(&a, &fifo, &eval));
    }

    #[test]
    fn trace_design_space_pins_tiling() {
        let space = TraceWorkload::design_space();
        assert_eq!(space.tilings, vec![1]);
        assert!(space.designs().iter().all(|d| d.tiling == 1));
    }
}
