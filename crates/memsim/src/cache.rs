//! The cache proper: sets, ways, and replacement state.

use crate::config::{CacheConfig, ConfigError, Replacement, WritePolicy, PLRU_MAX_WAYS};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The result of a single line access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// Line-aligned address of a dirty line written back to memory, if any.
    pub writeback: Option<u64>,
    /// Line-aligned address of the line brought in from memory, if any
    /// (`None` on hits and on write-through misses without allocation).
    pub fill: Option<u64>,
    /// Line-aligned address evicted to make room (clean or dirty), if any.
    pub evicted: Option<u64>,
}

/// A set-associative cache with pluggable replacement and write policies.
///
/// Addresses are byte addresses; the cache tracks presence per line. Data
/// contents are not modelled — this is a performance/energy simulator, not a
/// functional one.
///
/// # Example
///
/// ```
/// use memsim::{Cache, CacheConfig, Replacement};
///
/// let cfg = CacheConfig::new(32, 8, 2)?.with_replacement(Replacement::Lru);
/// let mut cache = Cache::new(cfg);
/// cache.read(0);
/// cache.read(32);   // same set, second way
/// cache.read(0);    // LRU refresh
/// let out = cache.read(64); // evicts line 32, not line 0
/// assert_eq!(out.evicted, Some(32));
/// assert!(cache.read(0).hit);
/// # Ok::<(), memsim::ConfigError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    config: CacheConfig,
    /// Tag keys, set-major: set `s` owns `keys[s * assoc..(s + 1) * assoc]`.
    /// A valid way stores `(tag << 1) | 1`; an invalid way stores `0`. The
    /// tag is `addr >> (line_shift + sets_shift)`, which leaves the marker
    /// bit free whenever the cache maps more than one byte per set
    /// (debug-asserted in [`access_line`](Self::access_line)). Keeping the
    /// probe loop on a flat `u64` array — tags only, no replacement
    /// metadata interleaved — is what makes `access` cheap: it is the
    /// inner loop of every sweep.
    keys: Vec<u64>,
    /// Monotonic counter value at last *use* (LRU) or at *fill* (FIFO),
    /// parallel to `keys`; only read for valid ways.
    stamps: Vec<u64>,
    /// Dirty flags, parallel to `keys`.
    dirty: Vec<bool>,
    /// Set once a write-back-allocate write may have left a dirty line;
    /// cleared only by [`flush`](Self::flush). While it is clear, a
    /// read-only bulk scan can skip dirty bookkeeping altogether.
    maybe_dirty: bool,
    /// Tree-PLRU direction bits (bit per internal node), one word per set
    /// when the policy is [`Replacement::Plru`]; empty under any other
    /// policy, which never reads them.
    plru_bits: Vec<u64>,
    /// `line.trailing_zeros()` — precomputed, the geometry is validated.
    /// The two shifts are bytes so that they and
    /// [`maybe_dirty`](Self::maybe_dirty) share one word: every sweep
    /// lane embeds a `Cache`.
    line_shift: u8,
    /// `num_sets.trailing_zeros()` — shift between line number and tag.
    sets_shift: u8,
    /// `num_sets - 1` — mask from line number to set index.
    set_mask: u64,
    /// The replacement policy the cache actually runs. Tree-PLRU over one
    /// or two ways picks exactly the victims LRU picks (see
    /// [`new`](Self::new)), so such caches run as direct-mapped or LRU
    /// caches while [`config`](Self::config) still reports PLRU.
    policy: Replacement,
    clock: u64,
    rng: Option<StdRng>,
}

impl Cache {
    /// Builds an empty (all-invalid) cache.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.replacement != Replacement::Plru || config.assoc() <= PLRU_MAX_WAYS,
            "{}",
            ConfigError::PlruTooWide {
                assoc: config.assoc()
            }
        );
        let rng = match config.replacement {
            Replacement::Random { seed } => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        };
        let lines = config.num_sets() * config.assoc();
        // A one-way tree has no bits and a two-way tree one bit that
        // always points away from the last way touched — the LRU way once
        // both are valid, and an invalid way is taken first either way.
        let policy = match config.replacement {
            Replacement::Plru if config.assoc() <= 2 => Replacement::Lru,
            replacement => replacement,
        };
        Cache {
            line_shift: config.line().trailing_zeros() as u8,
            sets_shift: config.num_sets().trailing_zeros() as u8,
            set_mask: config.num_sets() as u64 - 1,
            config,
            keys: vec![0; lines],
            stamps: vec![0; lines],
            dirty: vec![false; lines],
            maybe_dirty: false,
            plru_bits: match policy {
                Replacement::Plru => vec![0; config.num_sets()],
                _ => Vec::new(),
            },
            policy,
            clock: 0,
            rng,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// `line.trailing_zeros()` — the shift from byte address to line number.
    pub fn line_shift(&self) -> u32 {
        u32::from(self.line_shift)
    }

    /// Invalidates every line, returning the cache to its initial state.
    pub fn flush(&mut self) {
        self.keys.iter_mut().for_each(|k| *k = 0);
        self.dirty.iter_mut().for_each(|d| *d = false);
        self.maybe_dirty = false;
        self.plru_bits.iter_mut().for_each(|b| *b = 0);
        self.clock = 0;
    }

    /// Reads the line containing `addr`.
    pub fn read(&mut self, addr: u64) -> AccessOutcome {
        self.access(addr, false)
    }

    /// Writes the line containing `addr`.
    pub fn write(&mut self, addr: u64) -> AccessOutcome {
        self.access(addr, true)
    }

    /// Performs one line access. Multi-byte accesses that span a line
    /// boundary must be split by the caller (see
    /// [`Simulator`](crate::sim::Simulator), which does this).
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        self.access_line(addr >> self.line_shift, is_write)
    }

    /// Performs one access by line number (`addr >> line_shift`). This is
    /// the core of [`access`](Self::access); the fused
    /// [`ReplayBank`](crate::ReplayBank) calls it directly with line
    /// numbers precomputed once per line-size class.
    pub fn access_line(&mut self, line_addr: u64, is_write: bool) -> AccessOutcome {
        self.clock += 1;
        let set_idx = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.sets_shift;
        debug_assert!(tag <= u64::MAX >> 1, "tag must leave the marker bit free");
        let key = (tag << 1) | 1;
        let assoc = self.config.assoc();
        let replacement = self.policy;
        let write_policy = self.config.write_policy;
        let clock = self.clock;
        let dirties = is_write && write_policy == WritePolicy::WriteBackAllocate;
        if dirties {
            self.maybe_dirty = true;
        }

        let base = set_idx * assoc;
        let set = &self.keys[base..base + assoc];

        // Hit path.
        if let Some(way_idx) = set.iter().position(|&k| k == key) {
            if replacement == Replacement::Lru {
                self.stamps[base + way_idx] = clock;
            }
            if dirties {
                self.dirty[base + way_idx] = true;
            }
            if replacement == Replacement::Plru {
                touch_plru(&mut self.plru_bits[set_idx], way_idx, assoc);
            }
            return AccessOutcome {
                hit: true,
                writeback: None,
                fill: None,
                evicted: None,
            };
        }

        // Miss path.
        if is_write && write_policy == WritePolicy::WriteThroughNoAllocate {
            // Write goes straight to memory; nothing is allocated.
            return AccessOutcome {
                hit: false,
                writeback: None,
                fill: None,
                evicted: None,
            };
        }

        // Choose a victim way: first invalid way, else per policy.
        let victim_idx = match set.iter().position(|&k| k == 0) {
            Some(idx) => idx,
            None => match replacement {
                Replacement::Lru | Replacement::Fifo => self.stamps[base..base + assoc]
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, s)| s)
                    .map(|(i, _)| i)
                    .expect("associativity is at least 1"),
                Replacement::Plru => plru_victim(self.plru_bits[set_idx], assoc),
                Replacement::Random { .. } => self
                    .rng
                    .as_mut()
                    .expect("random policy always has an rng")
                    .gen_range(0..assoc),
            },
        };

        let victim = base + victim_idx;
        let old_key = self.keys[victim];
        let (writeback, evicted) = if old_key != 0 {
            let evicted_base = line_base(old_key, set_idx, self.sets_shift, self.line_shift);
            (
                self.dirty[victim].then_some(evicted_base),
                Some(evicted_base),
            )
        } else {
            (None, None)
        };

        self.keys[victim] = key;
        self.stamps[victim] = clock;
        self.dirty[victim] = dirties;
        if replacement == Replacement::Plru {
            touch_plru(&mut self.plru_bits[set_idx], victim_idx, assoc);
        }

        AccessOutcome {
            hit: false,
            writeback,
            fill: Some(line_addr << self.line_shift),
            evicted,
        }
    }

    /// Whether [`run_lines`](Self::run_lines) reproduces this cache's
    /// canonical behaviour: LRU, FIFO and tree-PLRU lanes at 1–64 ways —
    /// the widest tree whose node bits fit the one `u64` per set — under
    /// either write policy. Seeded-random lanes keep the scalar loop
    /// (their victims are RNG draws made one access at a time), and so do
    /// caches of more than 64 ways, which no grid builds.
    pub(crate) fn bulk_eligible(&self) -> bool {
        matches!(
            self.policy,
            Replacement::Lru | Replacement::Fifo | Replacement::Plru
        ) && self.config.assoc() <= 64
    }

    /// Whether [`run_lines`](Self::run_lines) is worth calling on a
    /// stream of `len` elements: the lane is
    /// [`bulk_eligible`](Self::bulk_eligible), and either direct-mapped
    /// or fed at least one element per set. The set-associative tiers
    /// rebuild one word group per set on every call (and the exact tier
    /// writes every set back), so a huge cache fed a short chunk would pay
    /// for all its sets instead of the lines it touches; such a chunk
    /// takes the scalar per-line loop, which touches only the sets it maps
    /// to.
    pub(crate) fn bulk_pays(&self, len: usize) -> bool {
        self.bulk_eligible() && (self.config.assoc() == 1 || len >= self.config.num_sets())
    }

    /// Replays a stream of line accesses through the cache in one tight
    /// scan — the bulk-lane fast path of
    /// [`ReplayBank`](crate::ReplayBank).
    ///
    /// Each element is `(line << 1) | is_write`; `max_line` bounds the
    /// stream's line numbers and `has_writes` says whether any element
    /// carries the write flag. The scan is equivalent to calling
    /// [`access_line`](Self::access_line) on each element in turn,
    /// provided [`bulk_eligible`](Self::bulk_eligible) holds
    /// (debug-asserted).
    ///
    /// Every memory-side transfer is appended to `scratch.mem` in scalar
    /// order — an access's fill, then the writeback of the dirty line it
    /// evicted — so the caller drives the memory bus from it in one
    /// predictable scan after the loop. Counters come back in bulk; the
    /// caller adds the read/write totals itself (a property of the
    /// stream, not the lane).
    ///
    /// Each tier is monomorphized on whether dirty state can matter: a
    /// write in the stream, or a dirty line possibly left by an earlier
    /// one. A read-only stream through a clean cache — every kernel
    /// trace — carries no dirty bookkeeping at all; carrying it anyway
    /// slows kernel-trace replay by about half (DESIGN.md §4m).
    ///
    /// The tiers, by lane shape:
    ///
    /// * **direct-mapped** (PLRU at one way included) skips the
    ///   `stamps`/`clock` bookkeeping entirely: with one way per set the
    ///   victim is always way 0 and the stamp array is never read back;
    /// * **LRU/FIFO at 2–8 ways** (PLRU at two ways included) takes the
    ///   exact packed-recency tier when every tag fits 15 bits;
    /// * everything else — wide tags, LRU/FIFO at 16–64 ways and tree-PLRU
    ///   at 4–64 ways — takes the fixed-way digest probe
    ///   ([`run_lines_probe`](Self::run_lines_probe)): per-set SWAR digest
    ///   words (8 bits per way: valid bit + 7 tag bits) resolve hits and
    ///   invalid ways with bitwise compares instead of a per-way key scan.
    pub(crate) fn run_lines(
        &mut self,
        stream: &[u64],
        max_line: u64,
        has_writes: bool,
        scratch: &mut BulkScratch,
    ) -> BulkOutcome {
        debug_assert!(self.bulk_eligible());
        self.maybe_dirty |=
            has_writes && self.config.write_policy == WritePolicy::WriteBackAllocate;
        if has_writes || self.maybe_dirty {
            self.run_lines_with::<true>(stream, max_line, scratch)
        } else {
            self.run_lines_with::<false>(stream, max_line, scratch)
        }
    }

    /// [`run_lines`](Self::run_lines) with the dirty-state question
    /// settled at compile time: `W == false` promises a read-only stream
    /// and an all-clean cache, so no read miss can ever write back.
    fn run_lines_with<const W: bool>(
        &mut self,
        stream: &[u64],
        max_line: u64,
        scratch: &mut BulkScratch,
    ) -> BulkOutcome {
        debug_assert!(
            W || self.dirty.iter().all(|&d| !d),
            "clean bulk replay requires an all-clean cache"
        );
        let BulkScratch { words, mem } = scratch;
        mem.clear();
        let mut out = BulkOutcome::default();
        // When every tag in the stream and in the cache fits 15 bits, an
        // LRU/FIFO set's whole state — keys *and* recency order — packs
        // into exact 16-bit way entries (one u64 word for 2/4 ways, a word
        // pair for 8), and the probe needs no confirming key load and the
        // miss no stamp scan. The exact tier checks the resident keys as
        // it packs them and declines, leaving the cache untouched, if a
        // line left by an earlier wide-tag scan is too wide. Everything
        // else — wide tags (real `.din` address streams), 16–64 ways, and
        // tree-PLRU at 4 ways and up (narrower trees run as LRU), whose
        // order is the tree and not a packable recency list — takes the
        // 7-bit-digest probe, which accelerates but never replaces the
        // canonical arrays.
        let narrow = (max_line >> self.sets_shift) < (1 << 15) && self.policy != Replacement::Plru;
        let packed = match (narrow, self.config.assoc()) {
            (_, 1) => {
                self.run_lines_direct::<W>(stream, mem, &mut out);
                true
            }
            (true, 2) => self.run_lines_exact::<2, W>(stream, words, mem, &mut out),
            (true, 4) => self.run_lines_exact::<4, W>(stream, words, mem, &mut out),
            (true, 8) => self.run_lines_exact8::<W>(stream, words, mem, &mut out),
            _ => false,
        };
        if !packed {
            match self.config.assoc() {
                2 => self.run_lines_probe::<2, W>(stream, words, mem, &mut out),
                4 => self.run_lines_probe::<4, W>(stream, words, mem, &mut out),
                8 => self.run_lines_probe::<8, W>(stream, words, mem, &mut out),
                16 => self.run_lines_probe::<16, W>(stream, words, mem, &mut out),
                32 => self.run_lines_probe::<32, W>(stream, words, mem, &mut out),
                64 => self.run_lines_probe::<64, W>(stream, words, mem, &mut out),
                _ => unreachable!("bulk_eligible gates associativity"),
            }
        }
        out.fills = mem.len() as u64 - out.writebacks;
        out
    }

    /// Direct-mapped bulk scan: the set's one key is the whole state. The
    /// dirty flag lives in the canonical `dirty` array.
    fn run_lines_direct<const W: bool>(
        &mut self,
        stream: &[u64],
        mem: &mut Vec<u64>,
        out: &mut BulkOutcome,
    ) {
        let set_mask = self.set_mask;
        let sets_shift = self.sets_shift;
        let line_shift = self.line_shift;
        let write_back = u64::from(self.config.write_policy == WritePolicy::WriteBackAllocate);
        let keys = &mut self.keys[..];
        let dirty = &mut self.dirty[..];
        // The extra `& (len - 1)` is a no-op (sets are a power of two)
        // that lets the compiler prove the index in bounds.
        let idx_mask = keys.len() - 1;
        for &e in stream {
            let line = e >> 1;
            let set = (line & set_mask) as usize & idx_mask;
            let key = ((line >> sets_shift) << 1) | 1;
            let old = keys[set];
            if !W {
                keys[set] = key;
                if old == key {
                    out.hits += 1;
                } else {
                    out.evictions += u64::from(old != 0);
                    mem.push(line << line_shift);
                }
                continue;
            }
            let dirty_in = e & write_back;
            if old == key {
                out.hits += 1;
                out.write_hits += e & 1;
                dirty[set] |= dirty_in != 0;
                continue;
            }
            if e & 1 > write_back {
                continue; // write-through no-allocate miss: memory only
            }
            keys[set] = key;
            out.evictions += u64::from(old != 0);
            mem.push(line << line_shift);
            let writeback = u64::from(dirty[set]);
            out.writebacks += writeback;
            push_if(mem, line_base(old, set, sets_shift, line_shift), writeback);
            dirty[set] = dirty_in != 0;
        }
        self.clock += stream.len() as u64;
    }

    /// Packs every set for the exact tier, `stride` words per set: its
    /// ways newest-first — recency order for LRU, fill order for FIFO —
    /// as 16-bit entries, slot `i` at bits `16 * (i % 4)` of word `i / 4`,
    /// and under `W` slot `i`'s dirty flag at bit `i` of the set's last
    /// word. Invalid ways (key 0, stamp 0) sink to the oldest slots; valid
    /// stamps are ≥ 1 and unique within a set. Returns `false` if a
    /// resident key does not fit its entry (a line left by an earlier
    /// wide-tag scan); the cache itself is never touched.
    fn pack_sets<const A: usize, const W: bool>(
        &self,
        words: &mut Vec<u64>,
        stride: usize,
    ) -> bool {
        let (key_sets, _) = self.keys.as_chunks::<A>();
        let (stamp_sets, _) = self.stamps.as_chunks::<A>();
        let (dirty_sets, _) = self.dirty.as_chunks::<A>();
        words.clear();
        words.resize(key_sets.len() * stride, 0);
        let mut resident = 0;
        for (((keys, stamps), dirty), set_words) in key_sets
            .iter()
            .zip(stamp_sets)
            .zip(dirty_sets)
            .zip(words.chunks_exact_mut(stride))
        {
            // Newest-first insertion sort of the way indices by stamp.
            let mut order: [(u64, usize); A] = [(0, 0); A];
            for (j, &stamp) in stamps.iter().enumerate() {
                let entry = (stamp, j);
                let mut k = j;
                while k > 0 && order[k - 1].0 < entry.0 {
                    order[k] = order[k - 1];
                    k -= 1;
                }
                order[k] = entry;
            }
            for (i, &(_, j)) in order.iter().enumerate() {
                resident |= keys[j];
                set_words[i / 4] |= keys[j] << (16 * (i % 4));
                if W {
                    set_words[stride - 1] |= u64::from(dirty[j]) << i;
                }
            }
        }
        resident <= 0xffff
    }

    /// Writes packed sets back to the canonical arrays — the inverse of
    /// [`pack_sets`](Self::pack_sets) up to way order: slot `i` becomes
    /// way `i` with stamp `clock − i` (and, under `W`, slot `i`'s dirty
    /// flag). This keeps newest-first stamp order; a set's valid slots
    /// never outnumber its accesses, so valid stamps stay ≥ 1 and future
    /// fills (stamped > clock) stay newest.
    fn unpack_sets<const A: usize, const W: bool>(&mut self, words: &[u64], stride: usize) {
        let clock = self.clock;
        let (key_sets, _) = self.keys.as_chunks_mut::<A>();
        let (stamp_sets, _) = self.stamps.as_chunks_mut::<A>();
        let (dirty_sets, _) = self.dirty.as_chunks_mut::<A>();
        for (((keys, stamps), dirty), set_words) in key_sets
            .iter_mut()
            .zip(stamp_sets)
            .zip(dirty_sets)
            .zip(words.chunks_exact(stride))
        {
            for i in 0..A {
                let key = (set_words[i / 4] >> (16 * (i % 4))) & 0xffff;
                keys[i] = key;
                stamps[i] = if key == 0 { 0 } else { clock - i as u64 };
                if W {
                    dirty[i] = (set_words[stride - 1] >> i) & 1 != 0;
                }
            }
        }
    }

    /// Exact packed-recency bulk scan, monomorphized per associativity:
    /// each set is one `u64` of `A` 16-bit way entries (full key, never
    /// zero when valid), ordered newest-first — recency order for LRU,
    /// fill order for FIFO. The order *is* the replacement state:
    ///
    /// * **probe** — splat the key and SWAR-compare; a match is a hit with
    ///   no confirming load (entries are exact);
    /// * **LRU hit** — move the matched entry to slot 0 with three masks
    ///   and a shift;
    /// * **FIFO hit** — nothing: fill order is untouched by hits;
    /// * **miss** — the victim is whatever 16-bit entry falls off the top
    ///   of `(word << 16) | key`; a zero entry was an invalid way (no
    ///   eviction). No stamp scan, no invalid-way scan.
    ///
    /// With dirty state in play (`W`) each set owns a second word: an
    /// `A`-bit dirty mask in the same slot order (bit `i` = slot `i`),
    /// permuted in lockstep with the entries — a hit moves its bit to the
    /// front, a miss shifts the mask and the bit falling off the top says
    /// whether the victim writes back. The entries keep all 16 bits, so
    /// the 15-bit tag eligibility is the same as for a clean scan.
    ///
    /// Words are rebuilt from the canonical `keys`/`stamps`/`dirty` arrays
    /// at scan start (sorting each set's ways newest-first) and written
    /// back at scan end: slot `i` becomes way `i` with stamp `clock − i`
    /// and slot `i`'s dirty bit. Ways are interchangeable — sets carry no
    /// way identity, only membership, stamp *order* and per-line dirty
    /// state, all of which the write-back preserves exactly — so a later
    /// scalar scan, digest scan, or rebuilt exact scan continues
    /// bit-identically. Returns `false`, having changed nothing, when a
    /// resident key does not fit its 16-bit entry.
    fn run_lines_exact<const A: usize, const W: bool>(
        &mut self,
        stream: &[u64],
        words: &mut Vec<u64>,
        mem: &mut Vec<u64>,
        out: &mut BulkOutcome,
    ) -> bool {
        debug_assert_eq!(A, self.config.assoc());
        let set_mask = self.set_mask;
        let sets_shift = self.sets_shift;
        let line_shift = self.line_shift;
        let is_lru = self.policy == Replacement::Lru;
        let write_back = u64::from(self.config.write_policy == WritePolicy::WriteBackAllocate);
        let word_mask: u64 = if 16 * A == 64 {
            u64::MAX
        } else {
            (1u64 << (16 * A)) - 1
        };
        let stride = 1 + usize::from(W);

        if !self.pack_sets::<A, W>(words, stride) {
            return false;
        }

        let words = &mut words[..];
        let idx_mask = words.len() / stride - 1;
        let fills_before = mem.len();
        for &e in stream {
            let line = e >> 1;
            let set = (line & set_mask) as usize & idx_mask;
            let at = set * stride;
            let key = ((line >> sets_shift) << 1) | 1;
            let dirty_in = e & write_back;
            let w = words[at];
            let x = w ^ (key * EXACT16_LO);
            let zeros = x.wrapping_sub(EXACT16_LO) & !x & EXACT16_HI & word_mask;
            if zeros != 0 {
                if W {
                    out.hits += 1;
                    out.write_hits += e & 1;
                }
                // Slot 0 is already MRU — skip the reorder store so the
                // next probe of this set needs no forwarded load.
                if is_lru && zeros & 0x8000 == 0 {
                    let slot = (zeros.trailing_zeros() / 16) as usize;
                    let below = (1u64 << (16 * slot)) - 1;
                    words[at] = (w & !((below << 16) | 0xffff)) | ((w & below) << 16) | key;
                    if W {
                        words[at + 1] = mask_to_front(words[at + 1], slot, dirty_in);
                    }
                } else if W {
                    words[at + 1] |= dirty_in << (zeros.trailing_zeros() / 16);
                }
                continue;
            }
            if W && e & 1 > write_back {
                continue; // write-through no-allocate miss: memory only
            }
            let evicted = (w >> (16 * (A - 1))) & 0xffff;
            out.evictions += u64::from(evicted != 0);
            words[at] = ((w << 16) & word_mask) | key;
            mem.push(line << line_shift);
            if W {
                let d = words[at + 1];
                let writeback = d >> (A - 1);
                out.writebacks += writeback;
                push_if(
                    mem,
                    line_base(evicted, set, sets_shift, line_shift),
                    writeback,
                );
                words[at + 1] = ((d << 1) & ((1 << A) - 1)) | dirty_in;
            }
        }
        if !W {
            // Hits are the complement of the misses this scan appended.
            out.hits += (stream.len() - (mem.len() - fills_before)) as u64;
        }

        self.clock += stream.len() as u64;
        self.unpack_sets::<A, W>(words, stride);
        true
    }

    /// [`run_lines_exact`](Self::run_lines_exact) for 8-way sets: the
    /// recency sequence spans a *pair* of u64 words — `lo` holds slots
    /// 0–3 (newest first), `hi` slots 4–7 — kept as two plain u64s rather
    /// than one u128 so every store forwards cleanly to the next probe of
    /// the same set. A miss shifts both words with `lo`'s top entry
    /// carrying into `hi`; an LRU hit in `hi` removes the entry there and
    /// pushes `lo`'s top entry down as it reinserts the key at slot 0.
    /// With dirty state in play the set's third word is its 8-bit dirty
    /// mask, permuted over the global slot numbers 0–7.
    fn run_lines_exact8<const W: bool>(
        &mut self,
        stream: &[u64],
        words: &mut Vec<u64>,
        mem: &mut Vec<u64>,
        out: &mut BulkOutcome,
    ) -> bool {
        const A: usize = 8;
        debug_assert_eq!(A, self.config.assoc());
        let set_mask = self.set_mask;
        let sets_shift = self.sets_shift;
        let line_shift = self.line_shift;
        let is_lru = self.policy == Replacement::Lru;
        let write_back = u64::from(self.config.write_policy == WritePolicy::WriteBackAllocate);
        let stride = 2 + usize::from(W);

        if !self.pack_sets::<A, W>(words, stride) {
            return false;
        }

        let words = &mut words[..];
        let idx_mask = words.len() / stride - 1;
        let fills_before = mem.len();
        for &e in stream {
            let line = e >> 1;
            let set = (line & set_mask) as usize & idx_mask;
            let at = set * stride;
            let key = ((line >> sets_shift) << 1) | 1;
            let dirty_in = e & write_back;
            let lo = words[at];
            let hi = words[at + 1];
            let splat = key * EXACT16_LO;
            let xl = lo ^ splat;
            let zl = xl.wrapping_sub(EXACT16_LO) & !xl & EXACT16_HI;
            if zl != 0 {
                if W {
                    out.hits += 1;
                    out.write_hits += e & 1;
                }
                // Slot 0 is already MRU — skip the reorder store so the
                // next probe of this set needs no forwarded load.
                if is_lru && zl & 0x8000 == 0 {
                    let slot = (zl.trailing_zeros() / 16) as usize;
                    let below = (1u64 << (16 * slot)) - 1;
                    words[at] = (lo & !((below << 16) | 0xffff)) | ((lo & below) << 16) | key;
                    if W {
                        words[at + 2] = mask_to_front(words[at + 2], slot, dirty_in);
                    }
                } else if W {
                    words[at + 2] |= dirty_in << (zl.trailing_zeros() / 16);
                }
                continue;
            }
            let xh = hi ^ splat;
            let zh = xh.wrapping_sub(EXACT16_LO) & !xh & EXACT16_HI;
            if zh != 0 {
                let slot = (zh.trailing_zeros() / 16) as usize;
                if W {
                    out.hits += 1;
                    out.write_hits += e & 1;
                }
                if is_lru {
                    let below = (1u64 << (16 * slot)) - 1;
                    // The key leaves `hi`; lo's oldest entry slides down
                    // into hi's slot 0 as the key re-enters lo at slot 0.
                    words[at + 1] =
                        (hi & !((below << 16) | 0xffff)) | ((hi & below) << 16) | (lo >> 48);
                    words[at] = (lo << 16) | key;
                    if W {
                        words[at + 2] = mask_to_front(words[at + 2], 4 + slot, dirty_in);
                    }
                } else if W {
                    words[at + 2] |= dirty_in << (4 + slot);
                }
                continue;
            }
            if W && e & 1 > write_back {
                continue; // write-through no-allocate miss: memory only
            }
            let evicted = hi >> 48;
            out.evictions += u64::from(evicted != 0);
            words[at + 1] = (hi << 16) | (lo >> 48);
            words[at] = (lo << 16) | key;
            mem.push(line << line_shift);
            if W {
                let d = words[at + 2];
                let writeback = d >> (A - 1);
                out.writebacks += writeback;
                push_if(
                    mem,
                    line_base(evicted, set, sets_shift, line_shift),
                    writeback,
                );
                words[at + 2] = ((d << 1) & 0xff) | dirty_in;
            }
        }
        if !W {
            out.hits += (stream.len() - (mem.len() - fills_before)) as u64;
        }

        self.clock += stream.len() as u64;
        self.unpack_sets::<A, W>(words, stride);
        true
    }

    /// Fixed-way bulk scan, monomorphized per associativity: each set's
    /// ways pack into SWAR digest words (8 bits per way: valid marker + 7
    /// tag bits; `A / 8` words per set, one partly used word below 8
    /// ways), rebuilt from the canonical `keys` once per call, so a probe
    /// is a few loads plus bitwise compares instead of `A` key loads, and
    /// digest collisions are resolved against the full key. Ways keep
    /// their positions, and the canonical `keys`, `stamps`, `dirty` and
    /// `plru_bits` arrays stay the replacement state.
    ///
    /// A hit refreshes the way's stamp under LRU and applies the way's
    /// (keep, set) mask pair to the set's tree bits under PLRU — the
    /// path [`touch_plru`] walks, precomputed once per scan. A miss takes
    /// the first invalid way (a clear valid marker), else the
    /// stamp-minimal way (LRU, FIFO) or the tree's victim (PLRU) — the
    /// scalar path's choice exactly — and writes key, stamp, dirty flag,
    /// tree bits and digest. Nothing needs writing back at scan end, so a
    /// later chunk on the scalar loop continues bit-identically.
    ///
    /// Kept out of line: its 12 instances would otherwise swell the tier
    /// dispatch that every kernel-trace lane runs through.
    #[inline(never)]
    fn run_lines_probe<const A: usize, const W: bool>(
        &mut self,
        stream: &[u64],
        digests: &mut Vec<u64>,
        mem: &mut Vec<u64>,
        out: &mut BulkOutcome,
    ) {
        debug_assert_eq!(A, self.config.assoc());
        let stride = A.div_ceil(8);
        let used = if A >= 8 { u64::MAX } else { (1 << (8 * A)) - 1 };

        let (key_sets, _) = self.keys.as_chunks::<A>();
        digests.clear();
        digests.resize(key_sets.len() * stride, 0);
        for (keys, set_digests) in key_sets.iter().zip(digests.chunks_exact_mut(stride)) {
            for (j, &k) in keys.iter().enumerate() {
                if k != 0 {
                    set_digests[j / 8] |= digest_byte(k) << (8 * (j % 8));
                }
            }
        }

        let set_mask = self.set_mask;
        let sets_shift = self.sets_shift;
        let line_shift = self.line_shift;
        let write_back = u64::from(self.config.write_policy == WritePolicy::WriteBackAllocate);
        let lru = self.policy == Replacement::Lru;
        let plru = self.policy == Replacement::Plru;
        // Way `j`'s tree update under PLRU: `bits & keep | set`.
        let touch: [(u64, u64); A] = std::array::from_fn(|j| {
            let (mut keep, mut set) = (u64::MAX, 0);
            if plru {
                touch_plru(&mut keep, j, A);
                touch_plru(&mut set, j, A);
            }
            (keep, set)
        });
        let keys = &mut self.keys[..];
        let stamps = &mut self.stamps[..];
        let dirty = &mut self.dirty[..];
        let tree = &mut self.plru_bits[..];
        let idx_mask = digests.len() / stride - 1;
        let mut clock = self.clock;
        for &e in stream {
            clock += 1;
            let line = e >> 1;
            let set = (line & set_mask) as usize & idx_mask;
            let key = ((line >> sets_shift) << 1) | 1;
            let dirty_in = e & write_back;
            let base = set * A;
            let set_digests = &mut digests[set * stride..(set + 1) * stride];
            // Splat the probe byte; zero bytes of the XOR mark candidate
            // ways.
            let splat = digest_byte(key) * SWAR_LO;
            let mut way = A;
            'probe: for (i, &w) in set_digests.iter().enumerate() {
                let x = w ^ splat;
                let mut zeros = x.wrapping_sub(SWAR_LO) & !x & SWAR_HI & used;
                while zeros != 0 {
                    let j = i * 8 + zeros.trailing_zeros() as usize / 8;
                    if keys[base + j] == key {
                        way = j;
                        break 'probe;
                    }
                    zeros &= zeros - 1;
                }
            }
            if way < A {
                out.hits += 1;
                if lru {
                    stamps[base + way] = clock;
                } else if plru {
                    let (keep, set_bits) = touch[way];
                    tree[set] = (tree[set] & keep) | set_bits;
                }
                if W {
                    out.write_hits += e & 1;
                    dirty[base + way] |= dirty_in != 0;
                }
                continue;
            }
            if W && e & 1 > write_back {
                continue; // write-through no-allocate miss: memory only
            }
            let mut victim = A;
            for (i, &w) in set_digests.iter().enumerate() {
                let free = !w & SWAR_HI & used;
                if free != 0 {
                    victim = i * 8 + free.trailing_zeros() as usize / 8;
                    break;
                }
            }
            if victim == A {
                out.evictions += 1;
                victim = if plru {
                    plru_victim(tree[set], A)
                } else {
                    let ways = &stamps[base..base + A];
                    let mut v = 0;
                    let mut best = ways[0];
                    for (j, &stamp) in ways.iter().enumerate().skip(1) {
                        if stamp < best {
                            best = stamp;
                            v = j;
                        }
                    }
                    v
                };
            }
            let old = keys[base + victim];
            keys[base + victim] = key;
            stamps[base + victim] = clock;
            if plru {
                let (keep, set_bits) = touch[victim];
                tree[set] = (tree[set] & keep) | set_bits;
            }
            let shift = 8 * (victim % 8);
            let w = &mut set_digests[victim / 8];
            *w = (*w & !(0xff << shift)) | (digest_byte(key) << shift);
            mem.push(line << line_shift);
            if W {
                let writeback = u64::from(dirty[base + victim]);
                out.writebacks += writeback;
                push_if(mem, line_base(old, set, sets_shift, line_shift), writeback);
                dirty[base + victim] = dirty_in != 0;
            }
        }
        self.clock = clock;
    }

    /// True if the line containing `addr` is currently cached (no state
    /// change — useful in tests and in the conflict-miss classifier).
    pub fn contains(&self, addr: u64) -> bool {
        let line_addr = addr >> self.line_shift;
        let set_idx = (line_addr & self.set_mask) as usize;
        let key = ((line_addr >> self.sets_shift) << 1) | 1;
        let base = set_idx * self.config.assoc();
        self.keys[base..base + self.config.assoc()].contains(&key)
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> usize {
        self.keys.iter().filter(|&&k| k != 0).count()
    }
}

/// Counters accumulated by one [`Cache::run_lines`] scan. `hits` covers
/// reads and writes (`write_hits` of them are writes); read and write
/// totals are a property of the stream and stay with the caller.
#[derive(Clone, Copy, Default, Debug)]
pub(crate) struct BulkOutcome {
    pub hits: u64,
    pub write_hits: u64,
    pub fills: u64,
    pub writebacks: u64,
    pub evictions: u64,
}

/// Reusable buffers of [`Cache::run_lines`], owned by the caller so one
/// allocation serves every lane and every chunk.
#[derive(Clone, Debug, Default)]
pub(crate) struct BulkScratch {
    /// Per-set words of the set-associative tiers: packed-recency words
    /// (and dirty masks) of the exact tier, or SWAR digest words of the
    /// fixed-way probe tier. Every scan rebuilds them from the canonical
    /// arrays, so one buffer serves both.
    words: Vec<u64>,
    /// Memory-side transfers of the last scan — fills and writebacks, in
    /// access order.
    pub mem: Vec<u64>,
}

#[cfg(test)]
impl BulkScratch {
    /// `u64`s allocated for per-set words by either packed tier.
    pub(crate) fn set_words_capacity(&self) -> usize {
        self.words.capacity()
    }
}

/// Line-aligned byte address of the line stored as `key` in set `set`.
#[inline]
fn line_base(key: u64, set: usize, sets_shift: u8, line_shift: u8) -> u64 {
    (((key >> 1) << sets_shift) | set as u64) << line_shift
}

/// Appends `addr` to `mem` when `keep` is 1 and not when it is 0, without
/// a data-dependent branch (whether a victim is dirty is a coin flip on
/// write-heavy traces).
#[inline]
fn push_if(mem: &mut Vec<u64>, addr: u64, keep: u64) {
    mem.push(addr);
    let len = mem.len() - 1 + keep as usize;
    mem.truncate(len);
}

/// Moves bit `slot` of a slot-ordered mask to slot 0 (OR-ing in `bit`),
/// shifting the slots in front of it back by one — the dirty-mask twin of
/// an LRU move-to-front on the packed entries.
#[inline]
fn mask_to_front(mask: u64, slot: usize, bit: u64) -> u64 {
    let below = (1u64 << slot) - 1;
    let moved = ((mask >> slot) & 1) | bit;
    (mask & !((below << 1) | 1)) | ((mask & below) << 1) | moved
}

/// `0x01` repeated — the SWAR splat multiplier.
const SWAR_LO: u64 = 0x0101_0101_0101_0101;
/// `0x80` repeated — the SWAR high-bit mask.
const SWAR_HI: u64 = 0x8080_8080_8080_8080;
/// `0x0001` repeated per 16-bit lane — the exact-key splat multiplier.
const EXACT16_LO: u64 = 0x0001_0001_0001_0001;
/// `0x8000` repeated per 16-bit lane — the exact-key high-bit mask.
const EXACT16_HI: u64 = 0x8000_8000_8000_8000;

/// One way's 8-bit digest: valid marker plus the low 7 tag bits. Never
/// zero for a valid way, so it cannot collide with an empty digest byte.
#[inline]
fn digest_byte(key: u64) -> u64 {
    0x80 | ((key >> 1) & 0x7f)
}

/// Walks the PLRU tree from the root, flipping the bits along the path to
/// point *away* from `way`, marking it most-recently used.
fn touch_plru(bits: &mut u64, way: usize, assoc: usize) {
    debug_assert!(assoc.is_power_of_two());
    let mut node = 0usize; // root
    let mut lo = 0usize;
    let mut hi = assoc;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        let go_right = way >= mid;
        // Bit semantics: 0 = victim on the left, 1 = victim on the right.
        // Point the victim pointer at the *other* half.
        if go_right {
            *bits &= !(1 << node);
            lo = mid;
            node = 2 * node + 2;
        } else {
            *bits |= 1 << node;
            hi = mid;
            node = 2 * node + 1;
        }
    }
}

/// Follows the PLRU victim pointers from the root to a leaf. Nodes are
/// numbered heap-style (children of `n` are `2n + 1` and `2n + 2`), so
/// after `log2(assoc)` steps the node index less `assoc − 1` is the way.
fn plru_victim(bits: u64, assoc: usize) -> usize {
    debug_assert!(assoc.is_power_of_two());
    let mut node = 0usize;
    for _ in 0..assoc.trailing_zeros() {
        node = 2 * node + 1 + ((bits >> node) & 1) as usize;
    }
    node + 1 - assoc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Replacement, WritePolicy};

    fn cache(size: usize, line: usize, assoc: usize) -> Cache {
        Cache::new(CacheConfig::new(size, line, assoc).unwrap())
    }

    #[test]
    fn cold_miss_then_hit_within_line() {
        let mut c = cache(64, 8, 1);
        assert!(!c.read(0x10).hit);
        assert!(c.read(0x17).hit);
        assert!(!c.read(0x18).hit);
    }

    #[test]
    fn direct_mapped_conflict() {
        let mut c = cache(64, 8, 1); // 8 sets
        assert!(!c.read(0).hit);
        assert!(!c.read(64).hit); // same set 0, evicts
        assert!(!c.read(0).hit); // evicted again
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn two_way_lru_keeps_recently_used() {
        let mut c = cache(32, 8, 2); // 2 sets, addresses 0,16,32 map to set 0
        c.read(0);
        c.read(16);
        c.read(0); // refresh 0
        let out = c.read(32);
        assert_eq!(out.evicted, Some(16));
        assert!(c.contains(0));
        assert!(!c.contains(16));
    }

    #[test]
    fn plru_wider_than_64_ways_is_refused() {
        // 1 KiB of 4 B lines is 256 lines, so 128 ways is a valid
        // geometry; its PLRU tree would need node bits past the u64.
        let cfg = CacheConfig::new(1024, 4, 128).unwrap();
        assert_eq!(
            cfg.try_with_replacement(Replacement::Plru),
            Err(ConfigError::PlruTooWide { assoc: 128 })
        );
        assert!(cfg.try_with_replacement(Replacement::Lru).is_ok());
        let refused = std::panic::catch_unwind(|| {
            Cache::new(cfg.with_replacement(Replacement::Plru));
        })
        .expect_err("Cache::new refuses a 128-way PLRU set");
        let message = refused
            .downcast_ref::<String>()
            .expect("formatted assertion message");
        assert_eq!(
            message,
            "tree-PLRU replacement supports at most 64 ways, got 128"
        );
        let widest = CacheConfig::new(1024, 4, 64).unwrap();
        assert!(widest.try_with_replacement(Replacement::Plru).is_ok());
    }

    #[test]
    fn fifo_evicts_in_fill_order() {
        let cfg = CacheConfig::new(32, 8, 2)
            .unwrap()
            .with_replacement(Replacement::Fifo);
        let mut c = Cache::new(cfg);
        c.read(0);
        c.read(16);
        c.read(0); // does NOT refresh under FIFO
        let out = c.read(32);
        assert_eq!(out.evicted, Some(0));
    }

    #[test]
    fn plru_four_way_behaves_sanely() {
        let cfg = CacheConfig::new(32, 8, 4)
            .unwrap()
            .with_replacement(Replacement::Plru);
        let mut c = Cache::new(cfg);
        for a in [0u64, 32, 64, 96] {
            assert!(!c.read(a).hit);
        }
        // All four resident; a fifth distinct line evicts exactly one.
        let out = c.read(128);
        assert!(out.evicted.is_some());
        assert_eq!(c.valid_lines(), 4);
        // The most recently touched line (96) must survive one eviction
        // under tree-PLRU.
        assert!(c.contains(128));
    }

    #[test]
    fn plru_never_evicts_most_recent() {
        let cfg = CacheConfig::new(64, 8, 8)
            .unwrap()
            .with_replacement(Replacement::Plru);
        let mut c = Cache::new(cfg);
        for i in 0..8u64 {
            c.read(i * 64);
        }
        for i in 8..64u64 {
            let just_read = i * 64;
            let out = c.read(just_read);
            assert_ne!(out.evicted, Some(just_read));
            assert!(c.contains(just_read));
        }
    }

    #[test]
    fn narrow_plru_runs_as_lru_and_matches_the_literal_tree() {
        // A literal tree-PLRU model over one and two ways — keys plus
        // direction bits driven by `touch_plru`/`plru_victim` — must pick
        // the victims of the cache, which runs such trees as LRU.
        for assoc in [1usize, 2] {
            let cfg = CacheConfig::new(64, 8, assoc)
                .unwrap()
                .with_replacement(Replacement::Plru);
            let mut c = Cache::new(cfg);
            assert_eq!(c.config().replacement, Replacement::Plru);
            let sets = cfg.num_sets();
            let mut keys = vec![None; sets * assoc];
            let mut bits = vec![0u64; sets];
            let mut x = 12345u64;
            for _ in 0..4000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let line = (x >> 33) % 40;
                let set = line as usize % sets;
                let ways = &mut keys[set * assoc..(set + 1) * assoc];
                let (hit, way) = match ways.iter().position(|&k| k == Some(line)) {
                    Some(j) => (true, j),
                    None => (
                        false,
                        ways.iter()
                            .position(Option::is_none)
                            .unwrap_or_else(|| plru_victim(bits[set], assoc)),
                    ),
                };
                let evicted = if hit { None } else { ways[way] };
                ways[way] = Some(line);
                touch_plru(&mut bits[set], way, assoc);
                let out = c.read(line * 8);
                assert_eq!(out.hit, hit, "assoc {assoc}");
                assert_eq!(out.evicted, evicted.map(|l| l * 8), "assoc {assoc}");
            }
        }
    }

    #[test]
    fn plru_victim_follows_the_tree_pointers() {
        // All-zero bits point left at every node, all-one bits right.
        for assoc in [1usize, 2, 4, 8, 16, 32, 64] {
            assert_eq!(plru_victim(0, assoc), 0);
            assert_eq!(plru_victim(u64::MAX, assoc), assoc - 1);
            // Touching a way points every node on its path away from it.
            for way in 0..assoc {
                let mut bits = 0;
                touch_plru(&mut bits, way, assoc);
                assert!(assoc == 1 || plru_victim(bits, assoc) != way);
            }
        }
    }

    #[test]
    fn random_replacement_is_deterministic_per_seed() {
        let mk = |seed| {
            let cfg = CacheConfig::new(32, 8, 4)
                .unwrap()
                .with_replacement(Replacement::Random { seed });
            let mut c = Cache::new(cfg);
            let mut evictions = Vec::new();
            for i in 0..64u64 {
                if let Some(e) = c.read(i * 8 % 512).evicted {
                    evictions.push(e);
                }
            }
            evictions
        };
        assert_eq!(mk(7), mk(7));
    }

    #[test]
    fn writeback_marks_dirty_and_writes_back() {
        let mut c = cache(16, 8, 1); // 2 sets
        c.write(0);
        let out = c.read(16); // set 0 conflict, dirty victim
        assert_eq!(out.writeback, Some(0));
        assert_eq!(out.evicted, Some(0));
        let out2 = c.read(32); // clean victim now
        assert_eq!(out2.writeback, None);
        assert_eq!(out2.evicted, Some(16));
    }

    #[test]
    fn write_through_does_not_allocate() {
        let cfg = CacheConfig::new(16, 8, 1)
            .unwrap()
            .with_write_policy(WritePolicy::WriteThroughNoAllocate);
        let mut c = Cache::new(cfg);
        assert!(!c.write(0).hit);
        assert!(!c.contains(0));
        c.read(0);
        assert!(c.write(0).hit); // write hits update in place
        let out = c.read(16);
        assert_eq!(out.writeback, None); // never dirty
    }

    #[test]
    fn flush_restores_cold_state() {
        let mut c = cache(64, 8, 2);
        c.read(0);
        c.read(64);
        assert!(c.valid_lines() > 0);
        c.flush();
        assert_eq!(c.valid_lines(), 0);
        assert!(!c.read(0).hit);
    }

    #[test]
    fn fill_reports_line_base() {
        let mut c = cache(64, 16, 1);
        let out = c.read(0x23);
        assert_eq!(out.fill, Some(0x20));
    }

    #[test]
    fn evicted_address_round_trips() {
        let mut c = cache(64, 8, 1); // 8 sets
        c.read(8 * 3 + 64 * 5); // set 3, tag 5
        let out = c.read(8 * 3 + 64 * 9); // same set, different tag
        assert_eq!(out.evicted, Some(8 * 3 + 64 * 5));
    }

    #[test]
    fn fully_associative_no_conflict_misses() {
        let mut c = Cache::new(CacheConfig::fully_associative(64, 8).unwrap());
        // 8 lines with addresses that would all collide direct-mapped.
        for i in 0..8u64 {
            assert!(!c.read(i * 64).hit);
        }
        for i in 0..8u64 {
            assert!(c.read(i * 64).hit, "line {i} should still be resident");
        }
    }
}
