//! Belady's MIN: the fewest misses any demand-fetch cache of `C` lines
//! can take on a line stream.
//!
//! MIN evicts, on a miss with a full cache, the resident line whose next
//! use lies furthest in the future (a line never used again first). No
//! demand-fetch policy over `C` frames misses less often (Belady, 1966),
//! and a set-associative LRU, FIFO or PLRU cache of `C` lines is one such
//! policy, restricted further by its set mapping. So on a read-only trace
//! `OPT(C)` is an admissible floor on every cache of `C` lines, whatever
//! its associativity or replacement — the certified search uses it to
//! bound leaves it has not simulated.
//!
//! # How it runs
//!
//! [`NextUse::new`] links every access to the next access of the same
//! line in one backward pass over a hash table from line to its latest
//! position (4 bytes a slot: the slot holds the position, and the stream
//! holds the line), so it allocates O(n) and nothing sized by the address
//! span:
//! a hostile layout's lines can lie anywhere in `u64`, and the table's
//! hash mixes every bit of a line number, so strided lines do not share
//! a probe sequence.
//!
//! [`NextUse::min_misses`] then needs no map and no heap. A resident line
//! is represented by its next-use position, held in a 64-ary hierarchical
//! bitset over `[0, n)` (`⌈log₆₄ n⌉` levels). Access `i` hits exactly when
//! bit `i` is set, because only the line accessed at `i` can have `i` as
//! its next use. The victim is a resident line never used again (kept as
//! a count), else the highest set bit. One pass costs O(n log₆₄ n).

use crate::sim::TraceEvent;

/// Next-use position of a line never accessed again.
const NEVER: u32 = u32::MAX;

/// Appends the lines `event` touches at `2^shift`-byte lines, in order —
/// the simulator's splitting rule: one access per line the bytes
/// `[addr, addr + max(size, 1))` cover — except a line equal to the last
/// one in `out`. An access to the line just accessed hits in every cache
/// of at least one line, MIN's included, so dropping it changes no miss
/// count and shortens the stream.
pub fn push_lines(out: &mut Vec<u64>, event: TraceEvent, shift: u32) {
    let first = event.addr >> shift;
    let first = if out.last() == Some(&first) {
        first + 1
    } else {
        first
    };
    out.extend(first..=crate::bank::last_line(&event, shift));
}

/// A line stream reduced to its next-use links: `next[i]` is the
/// position of the next access to the line accessed at `i`. Its buffers
/// outlive each stream, so one `NextUse` serves a series of streams
/// ([`link`](Self::link)) without allocating again.
#[derive(Clone, Debug, Default)]
pub struct NextUse {
    next: Vec<u32>,
    distinct: u64,
    latest: LatestUse,
    resident: NextUseSet,
}

impl NextUse {
    /// Links the accesses of `lines` (line numbers in access order).
    ///
    /// # Panics
    ///
    /// Panics if the stream has `u32::MAX` accesses or more.
    pub fn new(lines: &[u64]) -> Self {
        let mut next_use = NextUse::default();
        next_use.link(lines);
        next_use
    }

    /// Replaces the stream with `lines`, reusing the buffers.
    ///
    /// # Panics
    ///
    /// Panics if the stream has `u32::MAX` accesses or more.
    pub fn link(&mut self, lines: &[u64]) {
        assert!(
            lines.len() < NEVER as usize,
            "a line stream shorter than u32::MAX accesses"
        );
        self.latest.clear();
        self.next.clear();
        self.next.resize(lines.len(), NEVER);
        for i in (0..lines.len()).rev() {
            self.next[i] = self.latest.replace(lines, i as u32);
        }
        self.distinct = self.latest.len as u64;
    }

    /// Distinct lines: the compulsory misses, and `OPT(C)` for every
    /// `C` at least this large.
    pub fn distinct(&self) -> u64 {
        self.distinct
    }

    /// Misses of Belady's MIN with `capacity` lines, cold-started.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn min_misses(&mut self, capacity: usize) -> u64 {
        assert!(capacity > 0, "a cache holds at least one line");
        if capacity as u64 >= self.distinct {
            return self.distinct;
        }
        let resident = &mut self.resident;
        resident.reset(self.next.len());
        // Resident lines never used again, and all resident lines.
        let mut dead = 0usize;
        let mut held = 0usize;
        let mut misses = 0u64;
        for (i, &next) in self.next.iter().enumerate() {
            if !resident.remove(i) {
                misses += 1;
                if held < capacity {
                    held += 1;
                } else if dead > 0 {
                    dead -= 1;
                } else {
                    let victim = resident.max().expect("a full cache holds a line");
                    resident.remove(victim);
                }
            }
            if next == NEVER {
                dead += 1;
            } else {
                resident.insert(next as usize);
            }
        }
        misses
    }
}

/// The latest position of each line seen so far, as a linear-probing
/// hash table of positions into the stream being linked: a slot's line is
/// `lines[slot]`, so a slot takes 4 bytes. At most half full; empty slots
/// hold [`NEVER`].
#[derive(Clone, Debug, Default)]
struct LatestUse {
    slots: Vec<u32>,
    len: usize,
}

impl LatestUse {
    /// Empties the table, keeping its size (at least 1,024 slots).
    fn clear(&mut self) {
        if self.slots.is_empty() {
            self.slots = vec![NEVER; 1 << 10];
        } else {
            self.slots.fill(NEVER);
        }
        self.len = 0;
    }

    /// The SplitMix64 finalizer: every input bit reaches every output
    /// bit, so lines a power of two apart spread over the table.
    fn hash(line: u64) -> usize {
        let mut z = line.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as usize
    }

    /// Records `pos` as the latest position of line `lines[pos]`;
    /// returns the previous one, or [`NEVER`].
    fn replace(&mut self, lines: &[u64], pos: u32) -> u32 {
        let line = lines[pos as usize];
        let mask = self.slots.len() - 1;
        let mut h = Self::hash(line) & mask;
        loop {
            let slot = self.slots[h];
            if slot == NEVER {
                self.slots[h] = pos;
                self.len += 1;
                if 2 * self.len > self.slots.len() {
                    self.grow(lines);
                }
                return NEVER;
            }
            if lines[slot as usize] == line {
                self.slots[h] = pos;
                return slot;
            }
            h = (h + 1) & mask;
        }
    }

    fn grow(&mut self, lines: &[u64]) {
        let grown = vec![NEVER; 2 * self.slots.len()];
        let old = std::mem::replace(&mut self.slots, grown);
        let mask = self.slots.len() - 1;
        for pos in old.into_iter().filter(|&pos| pos != NEVER) {
            let mut h = Self::hash(lines[pos as usize]) & mask;
            while self.slots[h] != NEVER {
                h = (h + 1) & mask;
            }
            self.slots[h] = pos;
        }
    }
}

/// A set of positions in `[0, n)` as a 64-ary hierarchical bitset: level
/// 0 holds one bit per position, and bit `j` of a word at level `k + 1`
/// is set iff word `j` of level `k` is non-zero.
#[derive(Clone, Debug, Default)]
struct NextUseSet {
    levels: Vec<Vec<u64>>,
}

impl NextUseSet {
    /// Empties the set and sizes it for positions in `[0, n)`.
    fn reset(&mut self, n: usize) {
        let mut depth = 0;
        let mut words = n.div_ceil(64).max(1);
        loop {
            if depth == self.levels.len() {
                self.levels.push(Vec::new());
            }
            let level = &mut self.levels[depth];
            level.clear();
            level.resize(words, 0);
            depth += 1;
            if words == 1 {
                break;
            }
            words = words.div_ceil(64);
        }
        self.levels.truncate(depth);
    }

    fn insert(&mut self, mut i: usize) {
        for level in &mut self.levels {
            let word = &mut level[i / 64];
            let was_empty = *word == 0;
            *word |= 1 << (i % 64);
            if !was_empty {
                return;
            }
            i /= 64;
        }
    }

    /// Removes `i`; returns whether it was present.
    fn remove(&mut self, mut i: usize) -> bool {
        let bit = 1u64 << (i % 64);
        if self.levels[0][i / 64] & bit == 0 {
            return false;
        }
        for level in &mut self.levels {
            let word = &mut level[i / 64];
            *word &= !(1 << (i % 64));
            if *word != 0 {
                break;
            }
            i /= 64;
        }
        true
    }

    fn max(&self) -> Option<usize> {
        let mut i = 0usize;
        for level in self.levels.iter().rev() {
            let word = level[i];
            if word == 0 {
                return None;
            }
            i = i * 64 + 63 - word.leading_zeros() as usize;
        }
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Belady's MIN as written down: a resident list, and on each miss a
    /// scan forward from `i` for every resident line's next use. O(n·C)
    /// per access at worst; shares nothing with [`NextUse`].
    fn naive_min(lines: &[u64], capacity: usize) -> u64 {
        let mut resident: Vec<u64> = Vec::new();
        let mut misses = 0;
        for (i, &x) in lines.iter().enumerate() {
            if resident.contains(&x) {
                continue;
            }
            misses += 1;
            if resident.len() == capacity {
                let next_use = |line: u64| {
                    lines[i + 1..]
                        .iter()
                        .position(|&y| y == line)
                        .unwrap_or(usize::MAX)
                };
                let (victim, _) = resident
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &line)| next_use(line))
                    .expect("a full cache holds a line");
                resident.swap_remove(victim);
            }
            resident.push(x);
        }
        misses
    }

    #[test]
    fn matches_the_naive_min_on_random_streams() {
        let mut rng = StdRng::seed_from_u64(0x0b7);
        // One `NextUse` relinked per case: buffers sized by earlier,
        // longer streams must not leak into shorter ones.
        let mut opt = NextUse::default();
        for case in 0..400 {
            let n = rng.gen_range(0..300);
            let span = rng.gen_range(1..40u64);
            // A huge base: ids must not be sized by the address span.
            let base = if case % 2 == 0 { 0 } else { u64::MAX - 64 };
            let lines: Vec<u64> = (0..n).map(|_| base + rng.gen_range(0..span)).collect();
            opt.link(&lines);
            let distinct = {
                let mut d = lines.clone();
                d.sort_unstable();
                d.dedup();
                d.len()
            };
            assert_eq!(opt.distinct(), distinct as u64);
            for capacity in [1, 2, 3, 5, 8, distinct.max(1), distinct + 3] {
                assert_eq!(
                    opt.min_misses(capacity),
                    naive_min(&lines, capacity),
                    "case {case}: capacity {capacity} on {lines:?}"
                );
            }
        }
    }

    #[test]
    fn never_reused_lines_are_evicted_first() {
        // 1 and 2 alternate; 7, 8, 9 are touched once each. With two
        // lines MIN keeps 1 and 2 and cycles the one-shot lines through
        // the frame a dead line frees.
        let lines = [1, 2, 7, 1, 2, 8, 1, 2, 9, 1, 2];
        let mut opt = NextUse::new(&lines);
        assert_eq!(opt.min_misses(2), naive_min(&lines, 2));
        assert_eq!(opt.min_misses(3), 5);
    }

    #[test]
    fn one_line_misses_on_every_change_of_line() {
        let lines = [3, 3, 4, 4, 4, 3, 5, 5, 3];
        assert_eq!(NextUse::new(&lines).min_misses(1), 5);
    }

    #[test]
    fn capacity_at_or_above_the_distinct_count_is_compulsory() {
        let lines = [9, 1, 9, 2, 1, 2, 9];
        let mut opt = NextUse::new(&lines);
        assert_eq!(opt.distinct(), 3);
        for c in [3, 4, 1 << 20] {
            assert_eq!(opt.min_misses(c), 3);
        }
        assert_eq!(NextUse::new(&[]).min_misses(1), 0);
    }

    #[test]
    fn hierarchical_set_tracks_its_maximum_across_levels() {
        let n = 64 * 64 * 3 + 5;
        let mut set = NextUseSet::default();
        set.reset(1 << 20);
        set.insert(1 << 19);
        set.reset(n);
        assert_eq!(set.levels.len(), 3);
        assert_eq!(set.max(), None);
        for i in [0, 63, 64, 4095, 4096, n - 1] {
            set.insert(i);
        }
        assert_eq!(set.max(), Some(n - 1));
        assert!(set.remove(n - 1) && !set.remove(n - 1));
        assert_eq!(set.max(), Some(4096));
        assert!(set.remove(4096));
        assert_eq!(set.max(), Some(4095));
        for i in [4095, 64, 63] {
            assert!(set.remove(i));
        }
        assert_eq!(set.max(), Some(0));
        assert!(set.remove(0));
        assert_eq!(set.max(), None);
    }

    #[test]
    fn push_lines_splits_like_the_simulator() {
        let mut out = Vec::new();
        push_lines(&mut out, TraceEvent::read(6, 4), 2);
        push_lines(&mut out, TraceEvent::read(8, 0), 2);
        push_lines(&mut out, TraceEvent::read(16, 4), 2);
        push_lines(&mut out, TraceEvent::read(19, 2), 2);
        // The repeat of line 2 is a hit everywhere and is dropped; the
        // access spanning lines 4 and 5 keeps its second line.
        assert_eq!(out, [1, 2, 4, 5]);
    }
}
