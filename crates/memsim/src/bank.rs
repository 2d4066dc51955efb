//! Fused one-pass replay: a bank of per-design cache states advanced in
//! lockstep over a single scan of a shared trace.
//!
//! Design-space sweeps evaluate many cache configurations against the same
//! immutable event stream (see [`TraceArena`](crate::TraceArena)). Replaying
//! the stream once per configuration makes trace *consumption*
//! O(designs × trace length) even after trace *generation* has been
//! deduplicated. A [`ReplayBank`] instead owns N independent lanes — one
//! [`Cache`] plus its [`CacheStats`] and memory-side bus per design — and
//! steps all of them per event, so the trace is streamed exactly once per
//! bank no matter how many designs consume it.
//!
//! Two pieces of per-event work depend only on the trace and the line size,
//! not on the cache behind it, and are therefore shared across every lane
//! with the same line size (a [`LineClass`]):
//!
//! * the split of a multi-byte access into line-level sub-accesses, and
//! * the processor↔cache address bus, whose switching sequence is a pure
//!   function of the (encoded) sub-access address stream.
//!
//! Lanes with equal line sizes receive bit-identical CPU-bus statistics —
//! exactly what N independent [`Simulator`](crate::Simulator) runs would
//! have produced, since each run would observe the same address sequence
//! from the same idle-bus initial state. Everything else (hit/miss state,
//! replacement metadata, fills, writebacks, the memory-side bus, the
//! optional classifier and line buffer) is private lane state and evolves
//! exactly as in a lone simulator. The single-design [`Simulator`]
//! (crate::Simulator) is itself a bank of one, so there is exactly one
//! stepping code path to test and to trust.
//!
//! # Example
//!
//! ```
//! use memsim::{CacheConfig, ReplayBank, Simulator, TraceEvent};
//!
//! let configs = [CacheConfig::new(64, 8, 1)?, CacheConfig::new(128, 16, 2)?];
//! let trace: Vec<TraceEvent> = (0..64).map(|i| TraceEvent::read(i * 4, 4)).collect();
//!
//! let mut bank = ReplayBank::new(&configs);
//! bank.run_slice(&trace);
//! let fused = bank.into_reports();
//!
//! // Bit-identical to N independent simulations of the same slice.
//! for (config, report) in configs.iter().zip(&fused) {
//!     let lone = Simulator::simulate_slice(*config, &trace);
//!     assert_eq!(lone.stats, report.stats);
//!     assert_eq!(lone.cpu_bus, report.cpu_bus);
//!     assert_eq!(lone.mem_bus, report.mem_bus);
//! }
//! # Ok::<(), memsim::ConfigError>(())
//! ```

use crate::bus::{BusEncoding, BusMonitor, BusStats};
use crate::cache::{BulkScratch, Cache};
use crate::classify::Classifier;
use crate::config::CacheConfig;
use crate::sim::{SimReport, TraceEvent};
use crate::stats::CacheStats;

/// Per-line-size state shared by every lane with that line size: the
/// current event's line-level sub-accesses and the processor-side address
/// bus (a pure function of the sub-access stream).
#[derive(Clone, Debug)]
struct LineClass {
    /// `line.trailing_zeros()` — the line size is a validated power of two.
    shift: u32,
    cpu_bus: BusMonitor,
    /// Sub-access byte addresses of the event currently being stepped
    /// (scratch, rewritten per event).
    sub_addrs: Vec<u64>,
    /// Indices of the lanes in this class, in lane order.
    members: Vec<usize>,
}

impl LineClass {
    /// Splits `event` into one access per line touched (the Dinero-style
    /// `-atype` splitting) and drives each address onto the shared CPU bus.
    fn split(&mut self, event: TraceEvent) {
        self.sub_addrs.clear();
        let first_line = event.addr >> self.shift;
        let last_line = last_line(&event, self.shift);
        if first_line == last_line {
            self.cpu_bus.observe_cpu(event.addr);
            self.sub_addrs.push(event.addr);
            return;
        }
        for l in first_line..=last_line {
            let addr = if l == first_line {
                event.addr
            } else {
                l << self.shift
            };
            self.cpu_bus.observe_cpu(addr);
            self.sub_addrs.push(addr);
        }
    }
}

/// One design's private replay state.
#[derive(Clone, Debug)]
struct Lane {
    cache: Cache,
    stats: CacheStats,
    /// Cache↔memory address bus (fills + writebacks); the CPU side lives
    /// in the lane's [`LineClass`].
    mem_bus: BusMonitor,
    classifier: Option<Classifier>,
    /// Line-aligned address held by the single-entry line buffer, if one
    /// is configured (Su–Despain block buffering).
    line_buffer: Option<Option<u64>>,
    /// Index of this lane's [`LineClass`].
    class: usize,
}

impl Lane {
    /// The per-event core: processes one line-level sub-access by byte
    /// address. This and [`access_line`](Self::access_line) are the only
    /// places in the crate where an event reaches a cache — the
    /// single-design [`Simulator`](crate::Simulator) goes through them too.
    fn access_one(&mut self, addr: u64, is_write: bool) {
        self.access_line(addr >> self.cache.line_shift(), is_write);
    }

    /// The same core by line number (`addr >> line_shift`). Every consumer
    /// downstream of the sub-access split is line-granular — the cache,
    /// the line buffer, the memory-side bus (fills and writebacks are
    /// line-aligned), and the classifier (its shadow cache and first-touch
    /// set key on the line) — so the byte offset can be dropped at the
    /// split and the shift shared across the line class.
    fn access_line(&mut self, line_addr: u64, is_write: bool) {
        let line_base = line_addr << self.cache.line_shift();
        if let Some(buffered) = &mut self.line_buffer {
            if !is_write && *buffered == Some(line_base) {
                // Served entirely by the buffer; the arrays stay quiet and
                // replacement state is untouched (the buffered line was the
                // MRU line already).
                self.stats.reads += 1;
                self.stats.read_hits += 1;
                self.stats.buffer_hits += 1;
                if let Some(c) = &mut self.classifier {
                    c.observe(line_base, true);
                }
                return;
            }
        }
        let out = self.cache.access_line(line_addr, is_write);
        if let Some(buffered) = &mut self.line_buffer {
            // The buffer tracks the most recently accessed line once it is
            // resident (hit or freshly filled); write-through no-allocate
            // misses leave it unchanged.
            if out.hit || out.fill.is_some() {
                *buffered = Some(line_base);
            }
        }
        let w = u64::from(is_write);
        let h = u64::from(out.hit);
        self.stats.writes += w;
        self.stats.write_hits += w & h;
        self.stats.reads += 1 - w;
        self.stats.read_hits += (1 - w) & h;
        if let Some(fill) = out.fill {
            self.stats.fills += 1;
            self.mem_bus.observe_mem(fill);
        }
        if out.evicted.is_some() {
            self.stats.evictions += 1;
        }
        if let Some(wb) = out.writeback {
            self.stats.writebacks += 1;
            self.mem_bus.observe_mem(wb);
        }
        if let Some(c) = &mut self.classifier {
            c.observe(line_base, out.hit);
        }
    }

    /// [`run_slice`](ReplayBank::run_slice) fast path for lanes without a
    /// line buffer: identical to [`access_line`](Self::access_line) except
    /// that the read/write *totals* are skipped — they are a property of
    /// the stream, not the lane, so the caller bulk-adds them once per
    /// lane after the replay loop.
    #[inline]
    fn access_line_bulk(&mut self, line_addr: u64, is_write: bool) {
        let out = self.cache.access_line(line_addr, is_write);
        let w = u64::from(is_write);
        let h = u64::from(out.hit);
        self.stats.write_hits += w & h;
        self.stats.read_hits += (1 - w) & h;
        if let Some(fill) = out.fill {
            self.stats.fills += 1;
            self.mem_bus.observe_mem(fill);
        }
        if out.evicted.is_some() {
            self.stats.evictions += 1;
        }
        if let Some(wb) = out.writeback {
            self.stats.writebacks += 1;
            self.mem_bus.observe_mem(wb);
        }
        if let Some(c) = &mut self.classifier {
            c.observe(line_addr << self.cache.line_shift(), out.hit);
        }
    }
}

/// A bank of independent cache states that replays a trace in one scan.
///
/// Lane order follows the configuration order given at construction;
/// [`into_reports`](Self::into_reports) returns one [`SimReport`] per lane
/// in that order.
///
/// # Panic safety
///
/// Sweep supervisors run bank scans under `catch_unwind` and fall back to
/// per-design simulation when a scan panics, which makes the bank's
/// unwind behaviour part of its contract:
///
/// * A bank is **plain owned data** — `Vec`s of counters, cache arrays,
///   and bus monitors; no interior mutability, locks, raw pointers, or
///   `unsafe`. It is therefore `UnwindSafe`/`RefUnwindSafe` by
///   construction (asserted by a compile-time test below), and a panic
///   mid-step cannot corrupt anything outside the bank itself.
/// * A caught panic **poisons the bank's value, not its invariants**: a
///   lane may have stepped more events than its neighbour. Callers must
///   discard the bank after a caught panic and re-simulate — exactly what
///   the supervisor's fallback path does — rather than resume stepping
///   it.
#[derive(Clone, Debug)]
pub struct ReplayBank {
    lanes: Vec<Lane>,
    classes: Vec<LineClass>,
    /// Forces the scalar per-access lane loop even where the bulk path
    /// applies — the pre-bulk engine, kept for honest baseline
    /// benchmarking and differential tests.
    scalar_replay: bool,
    /// Per-chunk line stream, `(line << 1) | is_write` per sub-access,
    /// reused across classes, chunks and feeds.
    line_scratch: Vec<u64>,
    /// Buffers of [`Cache::run_lines`], reused across lanes and chunks.
    bulk_scratch: BulkScratch,
    /// Index of the class with the smallest line size — the one whose CPU
    /// bus stays live while per-class accounting is deferred (see
    /// [`cpu_stale`](Self::cpu_stale)).
    cpu_live_class: usize,
    /// While every event replayed so far fits inside one line of *every*
    /// class, all classes observe the identical byte-address sequence and
    /// their CPU buses are bit-equal. The chunk scan then skips the
    /// encode/popcount accounting for every class but
    /// [`cpu_live_class`](Self::cpu_live_class); this flag records that
    /// the other classes' monitors lag and must be re-synced (copied from
    /// the live class) before they are read or driven again.
    cpu_stale: bool,
    /// Set once an event has straddled a line of the smallest class: the
    /// per-class sub-access sequences (and hence buses) genuinely differ
    /// from then on, so deferred accounting is disabled for good.
    cpu_diverged: bool,
}

/// Internal replay chunk: bounds the per-class stream buffer so it stays
/// cache-resident while every member lane scans it, instead of streaming
/// a whole multi-megabyte slice through each lane in turn.
const REPLAY_CHUNK: usize = 1 << 15;

impl ReplayBank {
    /// A bank with Gray-coded buses and no miss classification.
    pub fn new(configs: &[CacheConfig]) -> Self {
        Self::with_options(configs, BusEncoding::Gray, false)
    }

    /// Full control over bus encoding and classification (applied to every
    /// lane, as [`Simulator::with_options`](crate::Simulator::with_options)
    /// does for its single lane).
    pub fn with_options(configs: &[CacheConfig], encoding: BusEncoding, classify: bool) -> Self {
        let mut classes: Vec<LineClass> = Vec::new();
        let mut lanes = Vec::with_capacity(configs.len());
        for (i, &config) in configs.iter().enumerate() {
            let shift = config.line().trailing_zeros();
            let class = match classes.iter().position(|c| c.shift == shift) {
                Some(c) => c,
                None => {
                    classes.push(LineClass {
                        shift,
                        cpu_bus: BusMonitor::new(encoding),
                        sub_addrs: Vec::new(),
                        members: Vec::new(),
                    });
                    classes.len() - 1
                }
            };
            classes[class].members.push(i);
            lanes.push(Lane {
                cache: Cache::new(config),
                stats: CacheStats::new(),
                mem_bus: BusMonitor::new(encoding),
                classifier: classify
                    .then(|| Classifier::new(&config).expect("valid config implies valid shadow")),
                line_buffer: None,
                class,
            });
        }
        let cpu_live_class = classes
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.shift)
            .map_or(0, |(i, _)| i);
        ReplayBank {
            lanes,
            classes,
            scalar_replay: false,
            line_scratch: Vec::new(),
            bulk_scratch: BulkScratch::default(),
            cpu_live_class,
            cpu_stale: false,
            cpu_diverged: false,
        }
    }

    /// Disables the bulk lane loop (builder-style): every lane takes the
    /// scalar per-access path regardless of eligibility, and every CPU bus
    /// keeps live accounting. This is the engine exactly as it was before
    /// bulk replay landed — benchmarks time it as the baseline, and the
    /// differential tests pit it against the bulk path event for event.
    pub fn with_scalar_replay(mut self) -> Self {
        self.scalar_replay = true;
        self
    }

    /// Adds a single-entry line buffer in front of every lane
    /// (builder-style). See
    /// [`Simulator::with_line_buffer`](crate::Simulator::with_line_buffer).
    pub fn with_line_buffers(mut self) -> Self {
        for lane in &mut self.lanes {
            lane.line_buffer = Some(None);
        }
        self
    }

    /// Number of lanes (designs) in the bank.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the bank has no lanes.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Number of distinct line sizes — the split/CPU-bus work per event.
    pub fn line_classes(&self) -> usize {
        self.classes.len()
    }

    /// Advances every lane by one event: each line-size class splits the
    /// event and drives the shared CPU bus once, then its lanes process
    /// the resulting sub-accesses.
    pub fn step(&mut self, event: TraceEvent) {
        self.sync_cpu_buses();
        if let Some(live) = self.classes.get(self.cpu_live_class) {
            if (event.addr >> live.shift) != last_line(&event, live.shift) {
                self.cpu_diverged = true;
            }
        }
        let classes = &mut self.classes;
        let lanes = &mut self.lanes;
        for class in classes.iter_mut() {
            class.split(event);
        }
        for class in classes.iter() {
            for &i in &class.members {
                let lane = &mut lanes[i];
                for &addr in &class.sub_addrs {
                    lane.access_one(addr, event.is_write);
                }
            }
        }
    }

    /// Runs every event of an iterator through the whole bank.
    pub fn run<I: IntoIterator<Item = TraceEvent>>(&mut self, events: I) {
        for e in events {
            self.step(e);
        }
    }

    /// Replays a materialized trace slice (e.g. from a
    /// [`TraceArena`](crate::TraceArena)) in one scan.
    ///
    /// Class-major fast path: the slice is split once per line-size class
    /// into a flat stream of line numbers (driving the shared CPU bus as
    /// it is built), then the stream is replayed through each member lane
    /// in a tight loop. Lanes never interact, so lane-major order yields
    /// the same counters as the event-major [`step`](Self::step) loop
    /// while paying the split, the bus observation, and the byte-to-line
    /// shift once per class instead of once per lane per event.
    pub fn run_slice(&mut self, events: &[TraceEvent]) {
        for chunk in events.chunks(REPLAY_CHUNK) {
            self.run_chunk(chunk);
        }
    }

    /// The one chunk scan. Each line-size class builds a flat stream of
    /// `(line << 1) | is_write` elements (driving the shared CPU bus as it
    /// goes) and replays it through its member lanes. Eligible lanes (no
    /// line buffer, no classifier, LRU/FIFO up to 8 ways, either write
    /// policy) resolve the whole stream with [`Cache::run_lines`];
    /// ineligible ones keep the scalar per-access loop. Under
    /// [`with_scalar_replay`](Self::with_scalar_replay) every lane takes
    /// the scalar loop and every bus keeps live accounting.
    ///
    /// CPU-bus accounting is deferred where it provably repeats — the bus
    /// sees addresses, not their direction, so writes change nothing
    /// here. An event that stays inside one line of the *smallest* line
    /// size stays inside one line of every larger size (any `2^{k+1}`
    /// boundary is also a `2^k` boundary), so a chunk with no such
    /// straddler drives the identical byte-address sequence onto every
    /// class's bus. The live (smallest-line) class is scanned first and
    /// keeps real accounting; if it saw no straddler the other classes
    /// skip the encode/popcount work entirely and are marked stale (see
    /// [`sync_cpu_buses`](Self::sync_cpu_buses)). The first straddler
    /// re-syncs from the live class's pre-chunk state and disables the
    /// optimisation for the rest of the run.
    fn run_chunk(&mut self, events: &[TraceEvent]) {
        if self.classes.is_empty() {
            return;
        }
        let live = self.cpu_live_class;
        if self.classes[live].shift == 0 && events.iter().any(|e| last_line(e, 0) >> 63 != 0) {
            // With 1-byte lines a stream element has no spare bit for the
            // write flag at the top of the address space: step the chunk.
            for &e in events {
                self.step(e);
            }
            return;
        }
        let deferrable = !self.scalar_replay && !self.cpu_diverged && self.classes.len() > 1;
        let saved = deferrable.then(|| self.classes[live].cpu_bus);

        let spanned = Self::scan_class(
            &mut self.classes[live],
            &mut self.lanes,
            events,
            true,
            self.scalar_replay,
            &mut self.line_scratch,
            &mut self.bulk_scratch,
        );
        if spanned {
            if let Some(saved) = saved {
                if self.cpu_stale {
                    for (i, class) in self.classes.iter_mut().enumerate() {
                        if i != live {
                            class.cpu_bus = saved;
                        }
                    }
                    self.cpu_stale = false;
                }
                self.cpu_diverged = true;
            }
        }
        let observe_others = self.cpu_diverged || !deferrable;
        for c in 0..self.classes.len() {
            if c == live {
                continue;
            }
            Self::scan_class(
                &mut self.classes[c],
                &mut self.lanes,
                events,
                observe_others,
                self.scalar_replay,
                &mut self.line_scratch,
                &mut self.bulk_scratch,
            );
        }
        if !observe_others {
            self.cpu_stale = true;
        }
    }

    /// Catches every deferred CPU-bus monitor up to the live class. While
    /// [`cpu_stale`](Self::cpu_stale) is set the monitors are bit-equal by
    /// construction, so a plain copy of the live state *is* the sequence
    /// the lagging class would have observed.
    fn sync_cpu_buses(&mut self) {
        if self.cpu_stale {
            let live = self.classes[self.cpu_live_class].cpu_bus;
            for (i, class) in self.classes.iter_mut().enumerate() {
                if i != self.cpu_live_class {
                    class.cpu_bus = live;
                }
            }
            self.cpu_stale = false;
        }
    }

    /// One class's share of a chunk: builds the line stream (observing
    /// the CPU bus unless the caller has proven this class's sequence
    /// identical to the live class's) and replays it through the class's
    /// member lanes. Returns whether any event straddled a line boundary
    /// of this class.
    fn scan_class(
        class: &mut LineClass,
        lanes: &mut [Lane],
        events: &[TraceEvent],
        observe: bool,
        scalar: bool,
        stream: &mut Vec<u64>,
        scratch: &mut BulkScratch,
    ) -> bool {
        let (max_line, writes) = if observe {
            build_stream::<true>(class, events, stream)
        } else {
            build_stream::<false>(class, events, stream)
        };
        let spanned = stream.len() != events.len();
        debug_assert!(
            observe || !spanned,
            "deferred bus accounting requires a straddle-free chunk"
        );
        let reads = stream.len() as u64 - writes;
        for &i in &class.members {
            let lane = &mut lanes[i];
            if lane.line_buffer.is_some() {
                // The buffer's read-hit shortcut changes per-access
                // accounting, so buffered lanes take the full path.
                for &e in stream.iter() {
                    lane.access_line(e >> 1, e & 1 != 0);
                }
                continue;
            }
            if !scalar && lane.classifier.is_none() && lane.cache.bulk_eligible() {
                let out = lane.cache.run_lines(stream, max_line, writes != 0, scratch);
                lane.mem_bus.observe_mem_run(&scratch.mem);
                let stats = &mut lane.stats;
                stats.read_hits += out.hits - out.write_hits;
                stats.write_hits += out.write_hits;
                stats.fills += out.fills;
                stats.writebacks += out.writebacks;
                stats.evictions += out.evictions;
            } else {
                for &e in stream.iter() {
                    lane.access_line_bulk(e >> 1, e & 1 != 0);
                }
            }
            lane.stats.reads += reads;
            lane.stats.writes += writes;
        }
        spanned
    }

    /// Feeds one chunk of a streamed trace — the incremental stepper
    /// form of [`run_slice`](Self::run_slice). Lane state and the shared
    /// CPU buses persist across calls, so feeding a trace chunk by chunk
    /// (any chunking) then calling [`finish`](Self::finish) yields
    /// reports bit-identical to one whole-slice scan.
    pub fn feed(&mut self, chunk: &[TraceEvent]) {
        self.run_slice(chunk);
    }

    /// Ends a [`feed`](Self::feed) run: one report per lane, in lane
    /// order (alias of [`into_reports`](Self::into_reports), named for
    /// the streaming protocol).
    pub fn finish(self) -> Vec<SimReport> {
        self.into_reports()
    }

    /// [`run_slice`](Self::run_slice) with a progress hook: the slice is
    /// replayed in chunks of `every` events and `tick(n)` reports each
    /// chunk's size as it completes. Lane state and the shared CPU buses
    /// persist across `run_slice` calls, so chunked replay produces
    /// counters bit-identical to one whole-slice scan — the hook costs one
    /// extra split per chunk boundary and nothing per event.
    pub fn run_slice_ticked(
        &mut self,
        events: &[TraceEvent],
        every: usize,
        tick: &(dyn Fn(u64) + Sync),
    ) {
        for chunk in events.chunks(every.max(1)) {
            self.run_slice(chunk);
            tick(chunk.len() as u64);
        }
    }

    /// Lane `i`'s current counters (the run can continue afterwards).
    pub fn stats(&self, i: usize) -> &CacheStats {
        &self.lanes[i].stats
    }

    /// Read access to lane `i`'s cache.
    pub fn cache(&self, i: usize) -> &Cache {
        &self.lanes[i].cache
    }

    /// Lane `i`'s processor-side bus statistics (shared with every lane of
    /// equal line size).
    pub fn cpu_bus(&self, i: usize) -> BusStats {
        let class = if self.cpu_stale {
            self.cpu_live_class
        } else {
            self.lanes[i].class
        };
        self.classes[class].cpu_bus.cpu()
    }

    /// Finishes the run and returns one report per lane, in lane order.
    pub fn into_reports(self) -> Vec<SimReport> {
        let classes = self.classes;
        let live = self.cpu_live_class;
        let stale = self.cpu_stale;
        self.lanes
            .into_iter()
            .map(|lane| SimReport {
                config: *lane.cache.config(),
                stats: lane.stats,
                cpu_bus: classes[if stale { live } else { lane.class }].cpu_bus.cpu(),
                mem_bus: lane.mem_bus.mem(),
                miss_classes: lane.classifier.map(|c| c.counts()),
            })
            .collect()
    }

    /// Convenience: replay a slice through a fresh bank in one call.
    pub fn simulate_slice(configs: &[CacheConfig], events: &[TraceEvent]) -> Vec<SimReport> {
        let mut bank = ReplayBank::new(configs);
        bank.run_slice(events);
        bank.into_reports()
    }
}

/// Line number of `event`'s last byte under `2^shift`-byte lines.
#[inline]
fn last_line(event: &TraceEvent, shift: u32) -> u64 {
    (event.addr + u64::from(event.size.max(1)) - 1) >> shift
}

/// Splits a chunk into `class`'s line stream — one `(line << 1) |
/// is_write` element per line touched, the Dinero-style `-atype`
/// splitting — driving each sub-access address onto the class's CPU bus
/// when `OBSERVE`. Returns the largest line number and the number of
/// write elements.
fn build_stream<const OBSERVE: bool>(
    class: &mut LineClass,
    events: &[TraceEvent],
    stream: &mut Vec<u64>,
) -> (u64, u64) {
    stream.clear();
    stream.reserve(events.len());
    let shift = class.shift;
    let mut max_line = 0u64;
    let mut writes = 0u64;
    for e in events {
        let w = u64::from(e.is_write);
        let first_line = e.addr >> shift;
        let last_line = last_line(e, shift);
        if OBSERVE {
            class.cpu_bus.observe_cpu(e.addr);
        }
        stream.push((first_line << 1) | w);
        writes += w;
        max_line = max_line.max(last_line);
        for l in (first_line + 1)..=last_line {
            if OBSERVE {
                class.cpu_bus.observe_cpu(l << shift);
            }
            stream.push((l << 1) | w);
            writes += w;
        }
    }
    (max_line, writes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use crate::Replacement;

    fn stride_trace(n: u64, stride: u64) -> Vec<TraceEvent> {
        (0..n)
            .map(|i| TraceEvent::read((i * stride) % 512, 4))
            .collect()
    }

    #[test]
    fn bank_matches_independent_simulators() {
        let configs = [
            CacheConfig::new(64, 8, 1).unwrap(),
            CacheConfig::new(64, 8, 2).unwrap(),
            CacheConfig::new(128, 16, 4).unwrap(),
            CacheConfig::new(256, 8, 1).unwrap(),
        ];
        let trace = stride_trace(500, 12);
        let fused = ReplayBank::simulate_slice(&configs, &trace);
        for (config, report) in configs.iter().zip(&fused) {
            let lone = Simulator::simulate_slice(*config, &trace);
            assert_eq!(lone.stats, report.stats, "{config}");
            assert_eq!(lone.cpu_bus, report.cpu_bus, "{config}");
            assert_eq!(lone.mem_bus, report.mem_bus, "{config}");
        }
    }

    #[test]
    fn equal_line_sizes_share_one_class() {
        let configs = [
            CacheConfig::new(64, 8, 1).unwrap(),
            CacheConfig::new(128, 8, 2).unwrap(),
            CacheConfig::new(64, 16, 1).unwrap(),
        ];
        let bank = ReplayBank::new(&configs);
        assert_eq!(bank.len(), 3);
        assert_eq!(bank.line_classes(), 2);
    }

    #[test]
    fn shared_cpu_bus_is_identical_across_a_class() {
        let configs = [
            CacheConfig::new(64, 8, 1).unwrap(),
            CacheConfig::new(512, 8, 4).unwrap(),
        ];
        let mut bank = ReplayBank::new(&configs);
        bank.run_slice(&stride_trace(200, 28));
        assert_eq!(bank.cpu_bus(0), bank.cpu_bus(1));
        let reports = bank.into_reports();
        assert_eq!(reports[0].cpu_bus, reports[1].cpu_bus);
        // Different cache sizes still miss differently.
        assert_ne!(
            reports[0].stats.read_misses(),
            reports[1].stats.read_misses()
        );
    }

    #[test]
    fn spanning_accesses_split_per_line_size() {
        let configs = [
            CacheConfig::new(64, 8, 1).unwrap(),
            CacheConfig::new(64, 16, 1).unwrap(),
        ];
        let mut bank = ReplayBank::new(&configs);
        bank.step(TraceEvent::read(6, 4)); // spans 8 B lines, not 16 B ones
        assert_eq!(bank.stats(0).reads, 2);
        assert_eq!(bank.stats(1).reads, 1);
    }

    #[test]
    fn empty_bank_steps_harmlessly() {
        let mut bank = ReplayBank::new(&[]);
        bank.run_slice(&stride_trace(10, 4));
        assert!(bank.is_empty());
        assert_eq!(bank.line_classes(), 0);
        assert!(bank.into_reports().is_empty());
    }

    #[test]
    fn empty_trace_yields_zeroed_reports() {
        let configs = [CacheConfig::new(64, 8, 1).unwrap()];
        let reports = ReplayBank::simulate_slice(&configs, &[]);
        assert_eq!(reports[0].stats, CacheStats::new());
        assert_eq!(reports[0].cpu_bus.transfers, 0);
    }

    #[test]
    fn classified_bank_matches_classified_simulator() {
        let configs = [
            CacheConfig::new(32, 8, 1).unwrap(),
            CacheConfig::new(64, 8, 2).unwrap(),
        ];
        let trace = stride_trace(300, 8);
        let mut bank = ReplayBank::with_options(&configs, BusEncoding::Gray, true);
        bank.run_slice(&trace);
        for (config, report) in configs.iter().zip(bank.into_reports()) {
            let mut sim = Simulator::with_options(*config, BusEncoding::Gray, true);
            sim.run_slice(&trace);
            assert_eq!(sim.into_report().miss_classes, report.miss_classes);
        }
    }

    #[test]
    fn line_buffered_bank_matches_buffered_simulator() {
        let configs = [
            CacheConfig::new(64, 8, 1).unwrap(),
            CacheConfig::new(128, 16, 2).unwrap(),
        ];
        let trace = stride_trace(300, 4);
        let mut bank = ReplayBank::new(&configs).with_line_buffers();
        bank.run_slice(&trace);
        for (config, report) in configs.iter().zip(bank.into_reports()) {
            let mut sim = Simulator::new(*config).with_line_buffer();
            sim.run_slice(&trace);
            let lone = sim.into_report();
            assert_eq!(lone.stats, report.stats, "{config}");
            assert!(report.stats.buffer_hits > 0, "{config}");
        }
    }

    /// A read-only trace that revisits lines at several strides, so every
    /// geometry sees a mix of hits, cold fills, and capacity evictions.
    fn revisit_trace(n: u64) -> Vec<TraceEvent> {
        (0..n)
            .map(|i| {
                let addr = match i % 4 {
                    0 => (i * 12) % 2048,
                    1 => (i * 7) % 512,
                    2 => (i / 2 * 20) % 1024,
                    _ => (i * 36) % 4096 + 6, // spans small lines
                };
                TraceEvent::read(addr, 4)
            })
            .collect()
    }

    fn all_policy_configs() -> Vec<CacheConfig> {
        let mut configs = Vec::new();
        for &(size, line, assoc) in &[
            (64usize, 8usize, 1usize),
            (128, 8, 2),
            (256, 16, 4),
            (512, 8, 8),
            (1024, 16, 16),
            (256, 32, 2),
        ] {
            let base = CacheConfig::new(size, line, assoc).unwrap();
            configs.push(base.with_replacement(Replacement::Lru));
            configs.push(base.with_replacement(Replacement::Fifo));
            if assoc.is_power_of_two() && assoc > 1 {
                configs.push(base.with_replacement(Replacement::Plru));
            }
            configs.push(base.with_replacement(Replacement::Random { seed: 11 }));
        }
        configs
    }

    #[test]
    fn bulk_replay_matches_scalar_replay() {
        let configs = all_policy_configs();
        let trace = revisit_trace(6000);
        let mut bulk = ReplayBank::new(&configs);
        bulk.run_slice(&trace);
        let mut scalar = ReplayBank::new(&configs).with_scalar_replay();
        scalar.run_slice(&trace);
        for ((config, b), s) in configs
            .iter()
            .zip(bulk.into_reports())
            .zip(scalar.into_reports())
        {
            assert_eq!(b.stats, s.stats, "{config}");
            assert_eq!(b.cpu_bus, s.cpu_bus, "{config}");
            assert_eq!(b.mem_bus, s.mem_bus, "{config}");
        }
    }

    #[test]
    fn bulk_replay_is_chunk_invariant() {
        let configs = all_policy_configs();
        let trace = revisit_trace(5000);
        let mut whole = ReplayBank::new(&configs);
        whole.run_slice(&trace);
        let whole = whole.into_reports();
        for chunk_size in [1usize, 7, 333, 4096] {
            let mut fed = ReplayBank::new(&configs);
            for chunk in trace.chunks(chunk_size) {
                fed.feed(chunk);
            }
            for (config, (w, f)) in configs.iter().zip(whole.iter().zip(fed.finish())) {
                assert_eq!(w.stats, f.stats, "{config} @ chunk {chunk_size}");
                assert_eq!(w.cpu_bus, f.cpu_bus, "{config} @ chunk {chunk_size}");
                assert_eq!(w.mem_bus, f.mem_bus, "{config} @ chunk {chunk_size}");
            }
        }
    }

    #[test]
    fn deferred_cpu_bus_accounting_survives_divergence() {
        // Aligned reads keep every class's CPU bus provably identical (the
        // deferred path), then a read straddling only the smallest line
        // forces the re-sync + divergence transition mid-run.
        let configs = [
            CacheConfig::new(64, 4, 1).unwrap(),
            CacheConfig::new(64, 16, 1).unwrap(),
        ];
        let mut trace: Vec<TraceEvent> = (0..100).map(|i| TraceEvent::read(i * 4, 4)).collect();
        trace.push(TraceEvent::read(2, 4)); // spans a 4 B line, not a 16 B one
        trace.extend((0..100).map(|i| TraceEvent::read(i * 8, 4)));
        let mut bank = ReplayBank::new(&configs);
        for chunk in trace.chunks(13) {
            bank.feed(chunk);
        }
        for (config, report) in configs.iter().zip(bank.finish()) {
            let lone = Simulator::simulate_slice(*config, &trace);
            assert_eq!(lone.stats, report.stats, "{config}");
            assert_eq!(lone.cpu_bus, report.cpu_bus, "{config}");
            assert_eq!(lone.mem_bus, report.mem_bus, "{config}");
        }
    }

    #[test]
    fn one_write_disables_bulk_for_the_rest_of_the_run() {
        // A dirty line left by an early write must still produce its
        // writeback when a much later read evicts it. The name predates
        // write-aware bulk replay: every chunk here now stays on the bulk
        // path, so this pins a writeback across a long clean stretch of it.
        let configs = [CacheConfig::new(16, 8, 1).unwrap()];
        let mut bank = ReplayBank::new(&configs);
        bank.feed(&[TraceEvent::write(0, 4)]);
        let quiet: Vec<TraceEvent> = (0..100).map(|_| TraceEvent::read(8, 4)).collect();
        bank.feed(&quiet); // reads that never touch set 0
        bank.feed(&[TraceEvent::read(16, 4)]); // evicts the dirty line
        let report = &bank.finish()[0];
        assert_eq!(report.stats.writebacks, 1);
    }

    #[test]
    fn one_byte_lines_at_the_top_of_the_address_space_match_stepping() {
        // A 1-byte line number at or above 2^63 leaves no spare bit for the
        // stream's write flag; such chunks must still replay exactly.
        let configs = [
            CacheConfig::new(16, 1, 2).unwrap(),
            CacheConfig::new(16, 4, 2).unwrap(),
        ];
        let top = 1u64 << 63;
        let trace: Vec<TraceEvent> = (0..64u64)
            .map(|i| match i % 4 {
                0 => TraceEvent::write(top | (i * 16 % 64), 1),
                1 => TraceEvent::read(i * 16 % 64, 1),
                _ => TraceEvent::read(top | (i * 8 % 64), 2),
            })
            .collect();
        let reports = ReplayBank::simulate_slice(&configs, &trace);
        for (config, report) in configs.iter().zip(&reports) {
            let lone = Simulator::simulate_slice(*config, &trace);
            assert_eq!(lone.stats, report.stats, "{config}");
            assert_eq!(lone.cpu_bus, report.cpu_bus, "{config}");
            assert_eq!(lone.mem_bus, report.mem_bus, "{config}");
        }
    }

    #[test]
    fn bank_is_unwind_safe_and_send() {
        // The supervisor relies on these bounds to wrap bank scans in
        // `catch_unwind` and to run banks on stealing workers; adding
        // interior mutability or raw pointers to a lane would break this
        // at compile time, here.
        fn assert_bounds<T: std::panic::UnwindSafe + std::panic::RefUnwindSafe + Send>() {}
        assert_bounds::<ReplayBank>();
    }

    #[test]
    fn writes_and_writebacks_stay_per_lane() {
        let configs = [
            CacheConfig::new(16, 8, 1).unwrap(),
            CacheConfig::new(64, 8, 1).unwrap(),
        ];
        let mut bank = ReplayBank::new(&configs);
        bank.run([TraceEvent::write(0, 4), TraceEvent::read(16, 4)]);
        let reports = bank.into_reports();
        // The 16 B cache evicts the dirty line; the 64 B one keeps it.
        assert_eq!(reports[0].stats.writebacks, 1);
        assert_eq!(reports[1].stats.writebacks, 0);
        assert_eq!(reports[0].mem_bus.transfers, 3);
        assert_eq!(reports[1].mem_bus.transfers, 2);
    }
}
