//! Hit/miss counters.

use std::fmt;

/// Aggregate access counters for one simulation run.
///
/// All counts are in *line accesses*: a multi-byte reference spanning a line
/// boundary counts once per line touched (see
/// [`Simulator`](crate::sim::Simulator)).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheStats {
    /// Read accesses.
    pub reads: u64,
    /// Read accesses that hit.
    pub read_hits: u64,
    /// Write accesses.
    pub writes: u64,
    /// Write accesses that hit.
    pub write_hits: u64,
    /// Lines fetched from the next level.
    pub fills: u64,
    /// Valid lines evicted (clean or dirty).
    pub evictions: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
    /// Read hits served by the line buffer without touching the cell
    /// arrays (always `<= read_hits`; zero when no buffer is configured).
    pub buffer_hits: u64,
}

impl CacheStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Read misses.
    pub fn read_misses(&self) -> u64 {
        self.reads - self.read_hits
    }

    /// Write misses.
    pub fn write_misses(&self) -> u64 {
        self.writes - self.write_hits
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.read_misses() + self.write_misses()
    }

    /// Overall miss ratio in `[0, 1]`; 0 for an empty run.
    pub fn miss_rate(&self) -> f64 {
        ratio(self.misses(), self.accesses())
    }

    /// Overall hit ratio in `[0, 1]`; 0 for an empty run.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.read_hits + self.write_hits, self.accesses())
    }

    /// Read miss ratio — the paper's *miss rate* (its models count reads
    /// only).
    pub fn read_miss_rate(&self) -> f64 {
        ratio(self.read_misses(), self.reads)
    }

    /// Merges another run's counters into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.reads += other.reads;
        self.read_hits += other.read_hits;
        self.writes += other.writes;
        self.write_hits += other.write_hits;
        self.fills += other.fills;
        self.evictions += other.evictions;
        self.writebacks += other.writebacks;
        self.buffer_hits += other.buffer_hits;
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses ({} reads, {} writes), miss rate {:.4}, {} fills, {} writebacks",
            self.accesses(),
            self.reads,
            self.writes,
            self.miss_rate(),
            self.fills,
            self.writebacks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CacheStats {
        CacheStats {
            reads: 100,
            read_hits: 90,
            writes: 50,
            write_hits: 40,
            fills: 20,
            evictions: 12,
            writebacks: 5,
            buffer_hits: 3,
        }
    }

    #[test]
    fn derived_ratios() {
        let s = sample();
        assert_eq!(s.accesses(), 150);
        assert_eq!(s.misses(), 20);
        assert!((s.miss_rate() - 20.0 / 150.0).abs() < 1e-12);
        assert!((s.read_miss_rate() - 0.1).abs() < 1e-12);
        assert!((s.hit_rate() + s.miss_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_has_zero_rates() {
        let s = CacheStats::new();
        assert_eq!(s.miss_rate(), 0.0);
        assert_eq!(s.read_miss_rate(), 0.0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = sample();
        a.merge(&sample());
        assert_eq!(a.reads, 200);
        assert_eq!(a.writebacks, 10);
        assert_eq!(a.buffer_hits, 6);
    }

    #[test]
    fn display_mentions_miss_rate() {
        assert!(format!("{}", sample()).contains("miss rate"));
    }
}
