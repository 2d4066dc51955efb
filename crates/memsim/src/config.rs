//! Cache configuration and validation.

use std::error::Error;
use std::fmt;

/// Replacement policy for set-associative caches.
///
/// Direct-mapped caches have a single candidate way, so the policy is
/// irrelevant there. The paper's model assumes LRU (the default).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Replacement {
    /// Least-recently-used (exact).
    #[default]
    Lru,
    /// First-in-first-out (fill order).
    Fifo,
    /// Tree-based pseudo-LRU, as in most real embedded caches.
    Plru,
    /// Uniform random victim with a deterministic seed.
    Random {
        /// Seed for the per-cache PRNG, so runs are reproducible.
        seed: u64,
    },
}

impl fmt::Display for Replacement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Replacement::Lru => write!(f, "LRU"),
            Replacement::Fifo => write!(f, "FIFO"),
            Replacement::Plru => write!(f, "PLRU"),
            Replacement::Random { seed } => write!(f, "random(seed={seed})"),
        }
    }
}

/// Write-handling policy.
///
/// The paper considers read energy only, but the simulator substrate stays
/// general.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum WritePolicy {
    /// Write-back with write-allocate (default; matches embedded D-caches).
    #[default]
    WriteBackAllocate,
    /// Write-through with no-write-allocate.
    WriteThroughNoAllocate,
}

/// Errors returned by [`CacheConfig::new`] and friends.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// Size, line size, or associativity was zero or not a power of two.
    NotPowerOfTwo {
        /// The offending field name.
        field: &'static str,
        /// The offending value.
        value: usize,
    },
    /// Line size exceeds total size.
    LineLargerThanCache {
        /// Line size in bytes.
        line: usize,
        /// Total size in bytes.
        size: usize,
    },
    /// More ways requested than there are lines.
    TooManyWays {
        /// Requested associativity.
        assoc: usize,
        /// Number of lines (`size / line`).
        lines: usize,
    },
    /// Tree-PLRU on more than [`PLRU_MAX_WAYS`] ways: a set's tree bits
    /// live in one `u64`, which holds the 63 nodes of a 64-way tree.
    PlruTooWide {
        /// Requested associativity.
        assoc: usize,
    },
}

/// The widest set tree-PLRU replacement supports.
pub(crate) const PLRU_MAX_WAYS: usize = 64;

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::NotPowerOfTwo { field, value } => {
                write!(f, "{field} must be a non-zero power of two, got {value}")
            }
            ConfigError::LineLargerThanCache { line, size } => {
                write!(f, "line size {line} exceeds cache size {size}")
            }
            ConfigError::TooManyWays { assoc, lines } => {
                write!(f, "associativity {assoc} exceeds line count {lines}")
            }
            ConfigError::PlruTooWide { assoc } => write!(
                f,
                "tree-PLRU replacement supports at most {PLRU_MAX_WAYS} ways, got {assoc}"
            ),
        }
    }
}

impl Error for ConfigError {}

/// A validated cache geometry plus policies.
///
/// Invariants (enforced at construction): `size`, `line`, and `assoc` are
/// powers of two, `line <= size`, and `assoc <= size / line`. A fully
/// associative cache is expressed as `assoc == size / line`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct CacheConfig {
    size: usize,
    line: usize,
    assoc: usize,
    /// Replacement policy.
    pub replacement: Replacement,
    /// Write policy.
    pub write_policy: WritePolicy,
}

impl CacheConfig {
    /// Validates and builds a configuration with LRU replacement and
    /// write-back/write-allocate.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any invariant listed on the type fails.
    pub fn new(size: usize, line: usize, assoc: usize) -> Result<Self, ConfigError> {
        for (field, value) in [
            ("cache size", size),
            ("line size", line),
            ("associativity", assoc),
        ] {
            if value == 0 || !value.is_power_of_two() {
                return Err(ConfigError::NotPowerOfTwo { field, value });
            }
        }
        if line > size {
            return Err(ConfigError::LineLargerThanCache { line, size });
        }
        let lines = size / line;
        if assoc > lines {
            return Err(ConfigError::TooManyWays { assoc, lines });
        }
        Ok(CacheConfig {
            size,
            line,
            assoc,
            replacement: Replacement::default(),
            write_policy: WritePolicy::default(),
        })
    }

    /// A fully associative configuration of the same capacity.
    pub fn fully_associative(size: usize, line: usize) -> Result<Self, ConfigError> {
        let lines = size / line.max(1);
        Self::new(size, line, lines.max(1))
    }

    /// Replaces the replacement policy (builder-style).
    pub fn with_replacement(mut self, replacement: Replacement) -> Self {
        self.replacement = replacement;
        self
    }

    /// [`with_replacement`](Self::with_replacement) for a policy chosen at
    /// run time: refuses a policy this geometry cannot carry.
    ///
    /// # Errors
    ///
    /// [`ConfigError::PlruTooWide`] for tree-PLRU on more than
    /// [`PLRU_MAX_WAYS`] ways.
    pub fn try_with_replacement(self, replacement: Replacement) -> Result<Self, ConfigError> {
        if replacement == Replacement::Plru && self.assoc > PLRU_MAX_WAYS {
            return Err(ConfigError::PlruTooWide { assoc: self.assoc });
        }
        Ok(self.with_replacement(replacement))
    }

    /// Replaces the write policy (builder-style).
    pub fn with_write_policy(mut self, write_policy: WritePolicy) -> Self {
        self.write_policy = write_policy;
        self
    }

    /// Total capacity in bytes.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Line (block) size in bytes.
    pub fn line(&self) -> usize {
        self.line
    }

    /// Degree of set associativity (ways).
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Number of cache lines (`size / line`).
    pub fn num_lines(&self) -> usize {
        self.size / self.line
    }

    /// Number of sets (`lines / assoc`).
    pub fn num_sets(&self) -> usize {
        self.num_lines() / self.assoc
    }

    /// Maps a byte address to `(set index, tag)`.
    pub fn locate(&self, addr: u64) -> (usize, u64) {
        // Geometry is validated power-of-two, so the divisions reduce to
        // shifts — this is the hottest address computation in a sweep.
        let line_shift = self.line.trailing_zeros();
        let sets_shift = self.size.trailing_zeros() - line_shift - self.assoc.trailing_zeros();
        let line_addr = addr >> line_shift;
        let set = (line_addr & ((1u64 << sets_shift) - 1)) as usize;
        let tag = line_addr >> sets_shift;
        (set, tag)
    }

    /// The line-aligned base address containing `addr`.
    pub fn line_base(&self, addr: u64) -> u64 {
        addr & !(self.line as u64 - 1)
    }
}

impl fmt::Display for CacheConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "C{}L{}SA{} ({})",
            self.size, self.line, self.assoc, self.replacement
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_config_derives_geometry() {
        let c = CacheConfig::new(64, 8, 2).unwrap();
        assert_eq!(c.num_lines(), 8);
        assert_eq!(c.num_sets(), 4);
    }

    #[test]
    fn locate_splits_set_and_tag() {
        let c = CacheConfig::new(64, 8, 1).unwrap(); // 8 sets
        assert_eq!(c.locate(0), (0, 0));
        assert_eq!(c.locate(8), (1, 0));
        assert_eq!(c.locate(64), (0, 1));
        assert_eq!(c.locate(71), (0, 1));
        assert_eq!(c.line_base(71), 64);
    }

    #[test]
    fn non_power_of_two_rejected() {
        assert!(matches!(
            CacheConfig::new(48, 8, 1),
            Err(ConfigError::NotPowerOfTwo {
                field: "cache size",
                ..
            })
        ));
        assert!(matches!(
            CacheConfig::new(64, 6, 1),
            Err(ConfigError::NotPowerOfTwo {
                field: "line size",
                ..
            })
        ));
        assert!(matches!(
            CacheConfig::new(64, 8, 3),
            Err(ConfigError::NotPowerOfTwo {
                field: "associativity",
                ..
            })
        ));
        assert!(matches!(
            CacheConfig::new(0, 8, 1),
            Err(ConfigError::NotPowerOfTwo { .. })
        ));
    }

    #[test]
    fn oversized_line_rejected() {
        assert!(matches!(
            CacheConfig::new(8, 16, 1),
            Err(ConfigError::LineLargerThanCache { .. })
        ));
    }

    #[test]
    fn too_many_ways_rejected() {
        assert!(matches!(
            CacheConfig::new(64, 8, 16),
            Err(ConfigError::TooManyWays { .. })
        ));
    }

    #[test]
    fn fully_associative_has_one_set() {
        let c = CacheConfig::fully_associative(64, 8).unwrap();
        assert_eq!(c.num_sets(), 1);
        assert_eq!(c.assoc(), 8);
    }

    #[test]
    fn display_is_compact() {
        let c = CacheConfig::new(64, 8, 2).unwrap();
        assert_eq!(format!("{c}"), "C64L8SA2 (LRU)");
    }

    #[test]
    fn error_messages_are_lowercase_and_informative() {
        let e = CacheConfig::new(48, 8, 1).unwrap_err();
        let msg = format!("{e}");
        assert!(msg.contains("48"));
        assert!(msg.starts_with("cache size"));
    }
}
