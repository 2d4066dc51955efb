//! Chunked trace sources: the streaming side of the replay layer.
//!
//! Every sweep engine used to assume a fully materialized
//! `&[TraceEvent]` slice. A [`TraceSource`] instead hands out
//! fixed-capacity chunks of events on demand, so a multi-GB Dinero
//! `.din` trace can be swept with peak memory bounded by
//! O(chunk × concurrent readers) rather than O(trace). Three
//! implementations cover the system's workloads:
//!
//! * [`SliceSource`] — an in-memory slice, chunked by subslicing,
//! * [`DinSource`] — a buffered, incrementally parsed `.din` reader
//!   with typed I/O and parse errors ([`TraceSourceError`]),
//! * [`IterSource`] — any event iterator without an intermediate
//!   collect.
//!
//! Kernel traces have their own source downstream,
//! `memexplore::metrics::PlanSource`, which walks a compiled
//! `loopir::TraceGen` plan chunk by chunk (`TraceGen::fill`).
//!
//! Chunking is *protocol-invariant*: replaying the chunks of any source
//! through [`ReplayBank::feed`](crate::ReplayBank::feed) /
//! [`finish`](crate::ReplayBank::finish) produces counters bit-identical
//! to one whole-slice scan, for every chunk capacity ≥ 1 (lane state and
//! the shared CPU buses persist across `run_slice` calls — the compressed
//! kernel traces rely on the same invariant at every block boundary).
//!
//! A [`TraceFingerprint`] accumulates a streaming 128-bit FNV-1a hash
//! over the event bytes plus an exact event count, giving external
//! traces a stable content address (used by the `memx serve` result
//! cache in place of kernel IR) without a second pass.

use crate::din::{parse_din_line, DinLabel, ParseDinError};
use crate::sim::TraceEvent;
use std::fmt;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::path::Path;

/// Default events per chunk (64 Ki events ≈ 1 MiB of `TraceEvent`s):
/// large enough that per-chunk overhead vanishes against replay cost,
/// small enough that a worker's resident buffer stays around a megabyte.
pub const DEFAULT_CHUNK_CAPACITY: usize = 1 << 16;

/// A typed failure while pulling events from a source. `Io` and `Parse`
/// both carry the originating path (or a pseudo-path label for in-memory
/// readers) so CLI layers can surface `file:line`-quality diagnostics and
/// map the failure to the bad-input exit code.
#[derive(Debug)]
pub enum TraceSourceError {
    /// The underlying reader failed.
    Io {
        /// Path (or label) of the source.
        path: String,
        /// The I/O error.
        error: io::Error,
    },
    /// A `.din` line failed to parse.
    Parse {
        /// Path (or label) of the source.
        path: String,
        /// The parse error, with its 1-based line number.
        error: ParseDinError,
    },
}

impl fmt::Display for TraceSourceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceSourceError::Io { path, error } => write!(f, "{path}: {error}"),
            TraceSourceError::Parse { path, error } => write!(f, "{path}: {error}"),
        }
    }
}

impl std::error::Error for TraceSourceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceSourceError::Io { error, .. } => Some(error),
            TraceSourceError::Parse { error, .. } => Some(error),
        }
    }
}

/// An incremental producer of trace-event chunks.
///
/// The protocol: each [`fill`](Self::fill) call clears `buf`, appends up
/// to `capacity` events, and returns how many it appended; `Ok(0)` means
/// the source is exhausted (and stays exhausted). After an `Err` the
/// source is poisoned — no events were leaked into `buf` beyond the ones
/// already reported by *earlier* successful fills, and callers must not
/// keep pulling.
pub trait TraceSource {
    /// Pulls the next chunk. See the trait docs for the contract.
    ///
    /// # Errors
    ///
    /// A typed [`TraceSourceError`] on I/O failure or malformed input.
    fn fill(
        &mut self,
        buf: &mut Vec<TraceEvent>,
        capacity: usize,
    ) -> Result<usize, TraceSourceError>;
}

/// A materialized slice served in chunks.
pub struct SliceSource<'a> {
    events: &'a [TraceEvent],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    /// A source over `events`, starting at the beginning.
    pub fn new(events: &'a [TraceEvent]) -> Self {
        SliceSource { events, pos: 0 }
    }
}

impl TraceSource for SliceSource<'_> {
    fn fill(
        &mut self,
        buf: &mut Vec<TraceEvent>,
        capacity: usize,
    ) -> Result<usize, TraceSourceError> {
        buf.clear();
        let n = capacity.max(1).min(self.events.len() - self.pos);
        buf.extend_from_slice(&self.events[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Any event iterator served in chunks (e.g. direct `loopir::TraceGen`
/// emission, or `memsim::synth` generation without a collect).
pub struct IterSource<I> {
    iter: I,
}

impl<I: Iterator<Item = TraceEvent>> IterSource<I> {
    /// A source draining `iter`.
    pub fn new(iter: I) -> Self {
        IterSource { iter }
    }
}

impl<I: Iterator<Item = TraceEvent>> TraceSource for IterSource<I> {
    fn fill(
        &mut self,
        buf: &mut Vec<TraceEvent>,
        capacity: usize,
    ) -> Result<usize, TraceSourceError> {
        buf.clear();
        buf.extend(self.iter.by_ref().take(capacity.max(1)));
        Ok(buf.len())
    }
}

/// Converts one Dinero record to the replay event convention used
/// throughout: byte-granular accesses (`size` 1), instruction fetches
/// replayed as reads — exactly what `memx simulate-din` has always done,
/// so streamed and materialized `.din` replay agree bit for bit.
pub fn din_event(label: DinLabel, addr: u64) -> TraceEvent {
    TraceEvent {
        addr,
        size: 1,
        is_write: label == DinLabel::Write,
    }
}

/// A buffered, incrementally parsed `.din` reader: multi-GB traces
/// stream through a fixed line buffer plus one chunk buffer, never a
/// whole-file `Vec`. Parsing matches [`crate::din::parse_din`] line for
/// line (blank lines skipped, `0x` prefixes accepted, 1-based line
/// numbers in errors); a malformed line or mid-stream I/O failure
/// surfaces as a typed [`TraceSourceError`] with no partial record
/// leaked into the chunk delivered alongside the error.
#[derive(Debug)]
pub struct DinSource<R> {
    reader: R,
    path: String,
    line_no: usize,
    line: String,
    done: bool,
}

impl DinSource<BufReader<File>> {
    /// Opens a `.din` file for streaming.
    ///
    /// # Errors
    ///
    /// [`TraceSourceError::Io`] if the file cannot be opened.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, TraceSourceError> {
        let path = path.as_ref();
        let label = path.display().to_string();
        let file = File::open(path).map_err(|error| TraceSourceError::Io {
            path: label.clone(),
            error,
        })?;
        Ok(DinSource::from_reader(BufReader::new(file), label))
    }
}

impl<R: BufRead> DinSource<R> {
    /// A source over any buffered reader; `path` labels diagnostics.
    pub fn from_reader(reader: R, path: impl Into<String>) -> Self {
        DinSource {
            reader,
            path: path.into(),
            line_no: 0,
            line: String::new(),
            done: false,
        }
    }
}

impl<R: BufRead> TraceSource for DinSource<R> {
    fn fill(
        &mut self,
        buf: &mut Vec<TraceEvent>,
        capacity: usize,
    ) -> Result<usize, TraceSourceError> {
        buf.clear();
        let capacity = capacity.max(1);
        while !self.done && buf.len() < capacity {
            self.line.clear();
            let n =
                self.reader
                    .read_line(&mut self.line)
                    .map_err(|error| TraceSourceError::Io {
                        path: self.path.clone(),
                        error,
                    })?;
            if n == 0 {
                self.done = true;
                break;
            }
            self.line_no += 1;
            let trimmed = self.line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let record =
                parse_din_line(trimmed, self.line_no).map_err(|error| TraceSourceError::Parse {
                    path: self.path.clone(),
                    error,
                })?;
            buf.push(din_event(record.label, record.addr));
        }
        Ok(buf.len())
    }
}

// FNV-1a, 128-bit — the same constants as the serve cache's content
// addressing (kept local: memsim sits below core in the crate DAG).
const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// A streaming content fingerprint of a trace: a 128-bit FNV-1a hash
/// over each event's `(addr, size, is_write)` bytes plus an exact event
/// count. Feeding the same events in the same order yields the same
/// fingerprint regardless of chunk boundaries, so any [`TraceSource`]
/// impl over the same content addresses identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceFingerprint {
    hash: u128,
    events: u64,
}

impl Default for TraceFingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceFingerprint {
    /// An empty fingerprint (the FNV offset basis, zero events).
    pub fn new() -> Self {
        TraceFingerprint {
            hash: FNV128_OFFSET,
            events: 0,
        }
    }

    /// Absorbs a chunk of events.
    pub fn update(&mut self, chunk: &[TraceEvent]) {
        let mut h = self.hash;
        for e in chunk {
            for b in e.addr.to_le_bytes() {
                h = (h ^ u128::from(b)).wrapping_mul(FNV128_PRIME);
            }
            for b in e.size.to_le_bytes() {
                h = (h ^ u128::from(b)).wrapping_mul(FNV128_PRIME);
            }
            h = (h ^ u128::from(u8::from(e.is_write))).wrapping_mul(FNV128_PRIME);
        }
        self.hash = h;
        self.events += chunk.len() as u64;
    }

    /// The 128-bit digest accumulated so far.
    pub fn digest(&self) -> u128 {
        self.hash
    }

    /// Events absorbed so far.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The digest as fixed-width lowercase hex.
    pub fn to_hex(&self) -> String {
        format!("{:032x}", self.hash)
    }
}

/// Drains a source, computing its fingerprint (the streaming pre-pass
/// that gives an external trace a content address and an event count
/// without materializing it).
///
/// # Errors
///
/// Propagates the source's first [`TraceSourceError`].
pub fn fingerprint_source(
    source: &mut dyn TraceSource,
    chunk_capacity: usize,
) -> Result<TraceFingerprint, TraceSourceError> {
    let mut fp = TraceFingerprint::new();
    let mut buf = Vec::with_capacity(chunk_capacity.max(1));
    while source.fill(&mut buf, chunk_capacity)? > 0 {
        fp.update(&buf);
    }
    Ok(fp)
}

/// Drains a source into one `Vec` — the materialized reference for
/// differential tests (and small inputs where streaming buys nothing).
///
/// # Errors
///
/// Propagates the source's first [`TraceSourceError`].
pub fn collect_source(
    source: &mut dyn TraceSource,
    chunk_capacity: usize,
) -> Result<Vec<TraceEvent>, TraceSourceError> {
    let mut out = Vec::new();
    let mut buf = Vec::with_capacity(chunk_capacity.max(1));
    while source.fill(&mut buf, chunk_capacity)? > 0 {
        out.extend_from_slice(&buf);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::ReplayBank;

    fn stride_events(n: u64) -> Vec<TraceEvent> {
        (0..n)
            .map(|i| {
                if i % 5 == 0 {
                    TraceEvent::write(i * 12 % 4096, 4)
                } else {
                    TraceEvent::read(i * 12 % 4096, 4)
                }
            })
            .collect()
    }

    #[test]
    fn slice_source_chunks_cover_the_slice_in_order() {
        let events = stride_events(1000);
        for capacity in [1usize, 7, 64, 1000, 5000] {
            let mut src = SliceSource::new(&events);
            let collected = collect_source(&mut src, capacity).unwrap();
            assert_eq!(collected, events, "capacity {capacity}");
        }
    }

    #[test]
    fn iter_source_matches_slice_source() {
        let events = stride_events(321);
        let mut it = IterSource::new(events.iter().copied());
        assert_eq!(collect_source(&mut it, 10).unwrap(), events);
    }

    #[test]
    fn exhausted_source_keeps_returning_zero() {
        let events = stride_events(3);
        let mut src = SliceSource::new(&events);
        let mut buf = Vec::new();
        assert_eq!(src.fill(&mut buf, 10).unwrap(), 3);
        assert_eq!(src.fill(&mut buf, 10).unwrap(), 0);
        assert_eq!(src.fill(&mut buf, 10).unwrap(), 0);
        assert!(buf.is_empty());
    }

    #[test]
    fn din_source_matches_materialized_parser() {
        let text = "0 40\n\n1 0x80\n2 100\n0 deadbeef\n";
        let mut src = DinSource::from_reader(text.as_bytes(), "<mem>");
        let streamed = collect_source(&mut src, 2).unwrap();
        let records = crate::din::parse_din(text.as_bytes()).unwrap();
        let materialized: Vec<TraceEvent> =
            records.iter().map(|r| din_event(r.label, r.addr)).collect();
        assert_eq!(streamed, materialized);
        assert_eq!(streamed[1], TraceEvent::write(0x80, 1));
        assert_eq!(streamed[2], TraceEvent::read(0x100, 1)); // ifetch → read
    }

    #[test]
    fn din_source_reports_typed_parse_errors_without_leaking_records() {
        let text = "0 40\n0 41\nbogus line here\n0 42\n";
        let mut src = DinSource::from_reader(text.as_bytes(), "<mem>");
        let mut buf = Vec::new();
        // Capacity larger than the prefix: the error arrives on the fill
        // that would have contained the bad line, with nothing delivered.
        let err = src.fill(&mut buf, 100).unwrap_err();
        match err {
            TraceSourceError::Parse { path, error } => {
                assert_eq!(path, "<mem>");
                assert_eq!(error, ParseDinError::MalformedLine { line: 3 });
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn din_source_error_line_numbers_survive_chunking() {
        let text = "0 40\n0 41\n7 42\n";
        for capacity in [1usize, 2, 3, 100] {
            let mut src = DinSource::from_reader(text.as_bytes(), "t.din");
            let err = collect_source(&mut src, capacity).unwrap_err();
            assert!(
                err.to_string().contains("line 3"),
                "capacity {capacity}: {err}"
            );
        }
    }

    #[test]
    fn open_missing_file_is_a_typed_io_error() {
        let err = DinSource::open("/nonexistent/trace.din").unwrap_err();
        assert!(matches!(err, TraceSourceError::Io { .. }), "{err}");
        assert!(err.to_string().contains("/nonexistent/trace.din"));
    }

    #[test]
    fn fingerprint_is_chunk_invariant_and_content_sensitive() {
        let events = stride_events(777);
        let digests: Vec<TraceFingerprint> = [1usize, 13, 256, 777, 4096]
            .iter()
            .map(|&c| {
                let mut src = SliceSource::new(&events);
                fingerprint_source(&mut src, c).unwrap()
            })
            .collect();
        assert!(digests.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(digests[0].events(), 777);
        // Any perturbation moves the digest.
        let mut flipped = events.clone();
        flipped[100].is_write = !flipped[100].is_write;
        let mut src = SliceSource::new(&flipped);
        assert_ne!(fingerprint_source(&mut src, 64).unwrap(), digests[0]);
    }

    #[test]
    fn feed_finish_is_bit_identical_to_run_slice() {
        let events = stride_events(2000);
        let configs = [
            CacheConfig::new(64, 8, 1).unwrap(),
            CacheConfig::new(128, 16, 2).unwrap(),
        ];
        let mut whole = ReplayBank::new(&configs);
        whole.run_slice(&events);
        let whole = whole.into_reports();
        for capacity in [1usize, 3, 100, 4096] {
            let mut bank = ReplayBank::new(&configs);
            let mut src = SliceSource::new(&events);
            let mut buf = Vec::with_capacity(capacity);
            while src.fill(&mut buf, capacity).unwrap() > 0 {
                bank.feed(&buf);
            }
            let chunked = bank.finish();
            for (a, b) in whole.iter().zip(&chunked) {
                assert_eq!(a.stats, b.stats, "capacity {capacity}");
                assert_eq!(a.cpu_bus, b.cpu_bus, "capacity {capacity}");
                assert_eq!(a.mem_bus, b.mem_bus, "capacity {capacity}");
            }
        }
    }
}
