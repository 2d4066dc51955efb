//! The trace-driven simulation loop.

use crate::bank::ReplayBank;
use crate::bus::{BusEncoding, BusStats};
use crate::cache::Cache;
use crate::classify::MissClassCounts;
use crate::config::CacheConfig;
use crate::stats::CacheStats;

/// One trace event fed to the simulator.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// Byte address of the first byte accessed.
    pub addr: u64,
    /// Access width in bytes (≥ 1).
    pub size: u32,
    /// Store if true, load otherwise.
    pub is_write: bool,
}

impl TraceEvent {
    /// A load of `size` bytes at `addr`.
    pub fn read(addr: u64, size: u32) -> Self {
        TraceEvent {
            addr,
            size,
            is_write: false,
        }
    }

    /// A store of `size` bytes at `addr`.
    pub fn write(addr: u64, size: u32) -> Self {
        TraceEvent {
            addr,
            size,
            is_write: true,
        }
    }
}

/// Everything measured in one simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// The simulated configuration.
    pub config: CacheConfig,
    /// Hit/miss counters.
    pub stats: CacheStats,
    /// Processor↔cache address-bus activity.
    pub cpu_bus: BusStats,
    /// Cache↔memory address-bus activity (fills + writebacks).
    pub mem_bus: BusStats,
    /// Three-C classification, if enabled.
    pub miss_classes: Option<MissClassCounts>,
}

/// Drives trace events through a [`Cache`], a
/// [`BusMonitor`](crate::BusMonitor), and optionally a
/// [`Classifier`](crate::Classifier).
///
/// Accesses wider than a line, or unaligned accesses spanning a line
/// boundary, are split into one access per line touched (each counted
/// separately, as Dinero does with its `-atype` splitting).
///
/// Internally this is a [`ReplayBank`] of exactly one lane, so the
/// single-design and fused multi-design paths share one stepping core.
///
/// # Example
///
/// ```
/// use memsim::{CacheConfig, Simulator, TraceEvent};
///
/// let cfg = CacheConfig::new(64, 8, 2)?;
/// let mut sim = Simulator::new(cfg);
/// sim.run([TraceEvent::read(0, 4), TraceEvent::read(4, 4), TraceEvent::read(8, 4)]);
/// let report = sim.into_report();
/// assert_eq!(report.stats.reads, 3);
/// assert_eq!(report.stats.read_misses(), 2); // lines 0 and 8
/// # Ok::<(), memsim::ConfigError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Simulator {
    bank: ReplayBank,
}

impl Simulator {
    /// A simulator with a Gray-coded bus and no miss classification.
    pub fn new(config: CacheConfig) -> Self {
        Self::with_options(config, BusEncoding::Gray, false)
    }

    /// Full control over bus encoding and classification.
    pub fn with_options(config: CacheConfig, encoding: BusEncoding, classify: bool) -> Self {
        Simulator {
            bank: ReplayBank::with_options(&[config], encoding, classify),
        }
    }

    /// Adds a single-entry line buffer in front of the cache
    /// (builder-style). Read hits to the buffered line are counted in
    /// [`CacheStats::buffer_hits`] and do not consult the arrays; writes
    /// always go to the cache and invalidate the buffer when they allocate
    /// a different line.
    pub fn with_line_buffer(mut self) -> Self {
        self.bank = self.bank.with_line_buffers();
        self
    }

    /// Processes one event (splitting line-spanning accesses).
    pub fn step(&mut self, event: TraceEvent) {
        self.bank.step(event);
    }

    /// Runs every event of an iterator.
    pub fn run<I: IntoIterator<Item = TraceEvent>>(&mut self, events: I) {
        self.bank.run(events);
    }

    /// Replays a materialized trace slice without consuming it.
    ///
    /// A lone simulator replays event by event through the same stepping
    /// core as [`step`](Self::step); the class-major batch replay of
    /// [`ReplayBank::run_slice`] only pays off when several lanes share
    /// the per-class stream, which a bank of one never does.
    pub fn run_slice(&mut self, events: &[TraceEvent]) {
        for &event in events {
            self.bank.step(event);
        }
    }

    /// Feeds one chunk of a streamed trace — the incremental stepper
    /// form of [`run_slice`](Self::run_slice). Simulator state persists
    /// across calls, so chunked feeding (any chunking) followed by
    /// [`finish`](Self::finish) reports bit-identically to one
    /// whole-slice scan.
    pub fn feed(&mut self, chunk: &[TraceEvent]) {
        self.run_slice(chunk);
    }

    /// Ends a [`feed`](Self::feed) run (alias of
    /// [`into_report`](Self::into_report), named for the streaming
    /// protocol).
    pub fn finish(self) -> SimReport {
        self.into_report()
    }

    /// Current counters (the run can continue afterwards).
    pub fn stats(&self) -> &CacheStats {
        self.bank.stats(0)
    }

    /// Read access to the underlying cache.
    pub fn cache(&self) -> &Cache {
        self.bank.cache(0)
    }

    /// Finishes the run and returns the collected report.
    pub fn into_report(self) -> SimReport {
        self.bank
            .into_reports()
            .pop()
            .expect("a Simulator is a bank of exactly one lane")
    }

    /// Convenience: simulate a whole trace in one call.
    pub fn simulate<I: IntoIterator<Item = TraceEvent>>(
        config: CacheConfig,
        events: I,
    ) -> SimReport {
        let mut sim = Simulator::new(config);
        sim.run(events);
        sim.into_report()
    }

    /// Convenience: simulate a materialized trace slice in one call.
    pub fn simulate_slice(config: CacheConfig, events: &[TraceEvent]) -> SimReport {
        let mut sim = Simulator::new(config);
        sim.run_slice(events);
        sim.into_report()
    }

    /// Convenience: simulate with three-C classification enabled.
    pub fn simulate_classified<I: IntoIterator<Item = TraceEvent>>(
        config: CacheConfig,
        events: I,
    ) -> SimReport {
        let mut sim = Simulator::with_options(config, BusEncoding::Gray, true);
        sim.run(events);
        sim.into_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spanning_access_touches_both_lines() {
        let cfg = CacheConfig::new(64, 8, 1).unwrap();
        let mut sim = Simulator::new(cfg);
        sim.step(TraceEvent::read(6, 4)); // bytes 6..10 span lines 0 and 1
        let r = sim.into_report();
        assert_eq!(r.stats.reads, 2);
        assert_eq!(r.stats.read_misses(), 2);
    }

    #[test]
    fn aligned_access_is_single() {
        let cfg = CacheConfig::new(64, 8, 1).unwrap();
        let mut sim = Simulator::new(cfg);
        sim.step(TraceEvent::read(8, 8));
        assert_eq!(sim.stats().reads, 1);
    }

    #[test]
    fn report_counts_fills_and_writebacks() {
        let cfg = CacheConfig::new(16, 8, 1).unwrap(); // 2 sets
        let mut sim = Simulator::new(cfg);
        sim.run([
            TraceEvent::write(0, 4),
            TraceEvent::read(16, 4), // evicts dirty line 0
        ]);
        let r = sim.into_report();
        assert_eq!(r.stats.fills, 2);
        assert_eq!(r.stats.writebacks, 1);
        assert_eq!(r.mem_bus.transfers, 3); // 2 fills + 1 writeback
    }

    #[test]
    fn classification_is_optional_and_consistent() {
        let cfg = CacheConfig::new(32, 8, 1).unwrap();
        let trace: Vec<TraceEvent> = (0..50)
            .map(|i| TraceEvent::read((i * 8) % 128, 4))
            .collect();
        let plain = Simulator::simulate(cfg, trace.iter().copied());
        assert!(plain.miss_classes.is_none());
        let classified = Simulator::simulate_classified(cfg, trace);
        let classes = classified.miss_classes.unwrap();
        assert_eq!(classes.total(), classified.stats.misses());
        assert_eq!(plain.stats, classified.stats);
    }

    #[test]
    fn cpu_bus_sees_every_line_access() {
        let cfg = CacheConfig::new(64, 8, 1).unwrap();
        let mut sim = Simulator::new(cfg);
        sim.run([TraceEvent::read(0, 4), TraceEvent::read(6, 4)]); // second spans
        let r = sim.into_report();
        assert_eq!(r.cpu_bus.transfers, 3);
    }

    #[test]
    fn zero_size_access_counts_once() {
        let cfg = CacheConfig::new(64, 8, 1).unwrap();
        let mut sim = Simulator::new(cfg);
        sim.step(TraceEvent::read(0, 0));
        assert_eq!(sim.stats().reads, 1);
    }

    #[test]
    fn line_buffer_absorbs_same_line_reads() {
        let cfg = CacheConfig::new(64, 8, 1).unwrap();
        let mut sim = Simulator::new(cfg).with_line_buffer();
        sim.run([
            TraceEvent::read(0, 4), // miss, fills + buffers line 0
            TraceEvent::read(4, 4), // buffer hit
            TraceEvent::read(0, 4), // buffer hit
            TraceEvent::read(8, 4), // different line: cache miss
            TraceEvent::read(4, 4), // back to line 0: cache hit, re-buffers
            TraceEvent::read(0, 4), // buffer hit
        ]);
        let st = sim.stats();
        assert_eq!(st.reads, 6);
        assert_eq!(st.read_hits, 4);
        assert_eq!(st.buffer_hits, 3);
    }

    #[test]
    fn line_buffer_never_changes_hit_miss_totals() {
        let cfg = CacheConfig::new(32, 8, 2).unwrap();
        let trace: Vec<TraceEvent> = (0..200)
            .map(|i| TraceEvent::read((i * 4) % 256, 4))
            .collect();
        let plain = Simulator::simulate(cfg, trace.iter().copied()).stats;
        let mut buffered = Simulator::new(cfg).with_line_buffer();
        buffered.run(trace);
        let bstats = *buffered.stats();
        assert_eq!(plain.read_hits, bstats.read_hits);
        assert_eq!(plain.fills, bstats.fills);
        assert!(bstats.buffer_hits <= bstats.read_hits);
        assert!(bstats.buffer_hits > 0);
    }

    #[test]
    fn plain_simulator_reports_zero_buffer_hits() {
        let cfg = CacheConfig::new(64, 8, 1).unwrap();
        let report = Simulator::simulate(cfg, (0..32).map(|i| TraceEvent::read(i, 1)));
        assert_eq!(report.stats.buffer_hits, 0);
    }
}
