//! Off-chip memory assignment (§4.1).
//!
//! Conflict misses occur when data that will be reused soon is displaced by
//! another reference mapping to the same cache line. For *compatible* access
//! patterns (same `H` — the accesses keep a loop-invariant distance), a data
//! layout exists that avoids conflicts entirely: give each reference class
//! its own cache-line range by padding array base addresses and row pitches.
//!
//! The paper's Compress walk-through: with a line of 2 and a cache of 8,
//! `a[0][0]` (class 1 leader) sits at address 0 → line 0; the natural
//! address 32 of `a[1][0]` (class 2 leader) also maps to line 0, conflicting
//! every iteration, so the row pitch is padded 32 → 36, putting `a[1][0]` on
//! line 2. Its Example 2 pads *between* arrays instead (`b` moved to 38,
//! `c` to 76).
//!
//! [`optimize_layout`] implements this as a bounded search. Arrays are
//! placed in declaration order; for each, (row pitch, base) pairs within one
//! cache size of padding are scored by how many class byte footprints
//! (member span plus one line of phase slack, taken modulo the cache size)
//! collide — with each other or with classes of already-placed arrays — and
//! the least-colliding, least-padded assignment wins. Later multi-row
//! arrays must keep their pitch congruent (mod cache size) with earlier
//! ones so inter-class spacing survives row boundaries. Unlike a fixed
//! target-line scheme, collision scoring lets stencil classes (rows `i−1`,
//! `i`, `i+1`, whose spacing is forced to multiples of the pitch) settle
//! into any equally-spaced conflict-free arrangement.
//!
//! # Cost
//!
//! The search costs what it scores, not what the cache size could offer:
//!
//! * Candidates are visited lazily, pitch-major and then base, in
//!   increasing padding, and the search stops at the first candidate with
//!   no collision at all. No candidate list is built.
//! * A congruent pitch `natural + k·elem ≡ r (mod T)` is found in closed
//!   form: with `g = gcd(elem, T)` the congruence has a solution iff `g`
//!   divides `r − natural`, and solutions repeat every `T/g` steps, which
//!   is at least the `⌈T/elem⌉` steps the search may pad. So there is at
//!   most one congruent pitch; when there is none, every pitch is tried.
//! * The ranges of earlier arrays are scored against each other once per
//!   array; a candidate only scores its own ranges, into reused scratch.
//! * At most [`CANDIDATE_BUDGET`] candidates are scored per array. The
//!   budget binds only when no candidate is collision-free, which happens
//!   when the footprints placed so far exceed the cache (pigeonhole) or
//!   when incompatible patterns cannot be separated; the search then keeps
//!   the best candidate seen within the budget. Below the budget the result
//!   is exactly that of scoring every candidate.
//!
//! Address arithmetic is checked: a pitch, candidate address or array end
//! beyond `u64` is [`PlacementError::AddressOverflow`], not a wrapped
//! layout. A class leader outside its array at the first iteration point
//! is [`PlacementError::SubscriptOutOfBounds`], not a panic.

use crate::classes::{partition_classes, RefClass};

use loopir::layout::Placement;
use loopir::{ArrayId, DataLayout, Kernel};
use std::error::Error;
use std::fmt;

/// Most (row pitch, base) candidates [`optimize_layout`] scores for one
/// array. A scan that finds a collision-free candidate stops there: on the
/// shipped example kernels the longest scan over the expansive grid's
/// `(T, L)` pairs is 16,384 candidates. The budget bounds the scans that
/// find none (`O((T/elem)²)` candidates otherwise).
pub const CANDIDATE_BUDGET: u64 = 1 << 20;

/// Errors from [`optimize_layout`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PlacementError {
    /// The kernel declares no arrays.
    NoArrays,
    /// Cache or line size was zero or line exceeds cache.
    BadGeometry {
        /// Cache size passed in.
        cache_size: u64,
        /// Line size passed in.
        line: u64,
    },
    /// A row pitch, element address or array end of this array does not
    /// fit in 64 bits.
    AddressOverflow {
        /// Name of the array being placed.
        array: String,
    },
    /// A class leader's subscript lies outside its array at the first
    /// iteration point (e.g. `a[i-1]` with `i` starting at 0).
    SubscriptOutOfBounds {
        /// Name of the array.
        array: String,
        /// Which subscript (0 = outermost).
        dim: usize,
        /// The subscript's value.
        index: i64,
        /// The dimension's extent.
        extent: usize,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::NoArrays => write!(f, "kernel declares no arrays"),
            PlacementError::BadGeometry { cache_size, line } => {
                write!(f, "bad cache geometry: size {cache_size}, line {line}")
            }
            PlacementError::AddressOverflow { array } => {
                write!(f, "addresses of array `{array}` overflow 64 bits")
            }
            PlacementError::SubscriptOutOfBounds {
                array,
                dim,
                index,
                extent,
            } => write!(
                f,
                "subscript {dim} of `{array}` out of bounds: {index} not in 0..{extent}"
            ),
        }
    }
}

impl Error for PlacementError {}

/// The outcome of a placement optimisation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlacementReport {
    /// The optimised layout.
    pub layout: DataLayout,
    /// Cache line each class leader landed on (in `partition_classes`
    /// order, writes included).
    pub leader_lines: Vec<u64>,
    /// Number of classes whose line range collides with another class.
    pub colliding_classes: usize,
    /// Total classes considered.
    pub total_classes: usize,
    /// Extra off-chip bytes relative to the natural packed layout.
    pub padding_bytes: u64,
    /// True when no class ranges collide *and* the total line requirement
    /// fits the cache — the conflict-free guarantee of §4.1 applies.
    pub conflict_free: bool,
}

/// First iteration point of the nest (lower bounds, evaluated outside-in).
fn first_iteration(kernel: &Kernel) -> Vec<i64> {
    let mut ivs: Vec<i64> = Vec::with_capacity(kernel.nest.depth());
    for l in &kernel.nest.loops {
        let lo = l.lower.eval(&ivs);
        ivs.push(lo);
    }
    ivs
}

/// The subscripts of a class leader at the first iteration point.
fn leader_subscripts(kernel: &Kernel, class: &RefClass, ivs: &[i64]) -> Vec<i64> {
    kernel.nest.refs[class.leader()]
        .subscripts
        .iter()
        .map(|s| s.eval(ivs))
        .collect()
}

/// Where a class leader sits inside its array: its byte address under a
/// placement is `base + row · row_pitch + offset`, or `None` when that
/// offset overflows 64 bits. A subscript outside the array is an error
/// whatever the cache geometry.
fn leader_position(
    kernel: &Kernel,
    array: ArrayId,
    subs: &[i64],
) -> Result<Option<(u64, u64)>, PlacementError> {
    let a = kernel.array(array);
    assert_eq!(subs.len(), a.dims.len(), "subscript arity mismatch");
    for (dim, (&index, &extent)) in subs.iter().zip(&a.dims).enumerate() {
        if index < 0 || index as usize >= extent {
            return Err(PlacementError::SubscriptOutOfBounds {
                array: a.name.clone(),
                dim,
                index,
                extent,
            });
        }
    }
    let elem = a.elem_size as u64;
    if a.dims.len() == 1 {
        return Ok((subs[0] as u64).checked_mul(elem).map(|o| (0, o)));
    }
    let weights = a.weights();
    let inner = subs[1..]
        .iter()
        .zip(&weights[1..])
        .try_fold(0u64, |acc, (&s, &w)| {
            acc.checked_add((s as u64).checked_mul(w as u64)?)
        });
    Ok(inner
        .and_then(|i| i.checked_mul(elem))
        .map(|o| (subs[0] as u64, o)))
}

/// A circular byte range `[start, start+len)` on a ring of `n` bytes (the
/// cache size). `len` already includes one line of phase slack.
#[derive(Clone, Copy, Debug)]
struct ByteRange {
    start: u64,
    len: u64,
}

impl ByteRange {
    #[cfg(test)]
    fn overlaps(&self, other: &ByteRange, n: u64) -> bool {
        self.overlap_len(other, n) > 0
    }

    /// Bytes shared by the two circular ranges.
    fn overlap_len(&self, other: &ByteRange, n: u64) -> u64 {
        let (la, lb) = (self.len.min(n), other.len.min(n));
        if la == n || lb == n {
            return la.min(lb);
        }
        // Shift so self starts at 0; other covers [d, d+lb) with a possible
        // wrapped tail [0, d+lb-n).
        let d = (other.start + n - self.start) % n;
        let head = if d < la { lb.min(la - d) } else { 0 };
        let tail = (d + lb).saturating_sub(n).min(la);
        (head + tail).min(la.min(lb))
    }
}

/// Pairwise collision score: how many ranges collide with another, and how
/// many total bytes overlap. The byte term gives the search a gradient when
/// the ranges cannot all be disjoint (small caches), so it spreads them as
/// evenly as possible instead of picking an arbitrary tied candidate.
///
/// `fixed` are the ranges of already-placed arrays, scored against each
/// other once per array; [`Scorer::score`] adds one candidate's ranges.
/// The score equals scoring all ranges together, pair by pair.
struct Scorer<'a> {
    fixed: &'a [ByteRange],
    n: u64,
    /// Which fixed ranges collide among themselves.
    fixed_colliding: Vec<bool>,
    /// Overlap bytes among the fixed ranges.
    fixed_bytes: u64,
    /// Per-candidate flags: the fixed ones, then the candidate's.
    colliding: Vec<bool>,
}

impl<'a> Scorer<'a> {
    fn new(fixed: &'a [ByteRange], n: u64) -> Self {
        let mut fixed_colliding = vec![false; fixed.len()];
        let mut fixed_bytes = 0u64;
        for i in 0..fixed.len() {
            for j in (i + 1)..fixed.len() {
                let ov = fixed[i].overlap_len(&fixed[j], n);
                if ov > 0 {
                    fixed_colliding[i] = true;
                    fixed_colliding[j] = true;
                    fixed_bytes = fixed_bytes.saturating_add(ov);
                }
            }
        }
        Scorer {
            fixed,
            n,
            fixed_colliding,
            fixed_bytes,
            colliding: Vec::new(),
        }
    }

    /// `(colliding ranges, overlap bytes)` of the fixed ranges plus `new`.
    fn score(&mut self, new: &[ByteRange]) -> (usize, u64) {
        let (n, f) = (self.n, self.fixed.len());
        self.colliding.clear();
        self.colliding.extend_from_slice(&self.fixed_colliding);
        self.colliding.resize(f + new.len(), false);
        let mut bytes = self.fixed_bytes;
        for (j, r) in new.iter().enumerate() {
            for (i, fixed) in self.fixed.iter().enumerate() {
                let ov = fixed.overlap_len(r, n);
                if ov > 0 {
                    self.colliding[i] = true;
                    self.colliding[f + j] = true;
                    bytes = bytes.saturating_add(ov);
                }
            }
            for (k, later) in new.iter().enumerate().skip(j + 1) {
                let ov = r.overlap_len(later, n);
                if ov > 0 {
                    self.colliding[f + j] = true;
                    self.colliding[f + k] = true;
                    bytes = bytes.saturating_add(ov);
                }
            }
        }
        (self.colliding.iter().filter(|&&c| c).count(), bytes)
    }
}

/// The one pitch step `k < steps` with `natural + k·elem ≡ residue (mod
/// n)`, if there is one. Solutions of the linear congruence
/// `k·elem ≡ residue − natural` repeat every `n / gcd(elem, n)` steps,
/// which is at least `steps = ⌈n/elem⌉`, so at most one lies in range.
fn congruent_step(natural: u64, elem: u64, n: u64, residue: u64, steps: u64) -> Option<u64> {
    let (elem, n128) = (elem as u128, n as u128);
    let target = (residue as u128 + n128 - natural as u128 % n128) % n128;
    let g = gcd(elem, n128);
    if !target.is_multiple_of(g) {
        return None;
    }
    let m = n128 / g;
    let k = (target / g) % m * mod_inverse((elem / g) % m, m) % m;
    u64::try_from(k).ok().filter(|&k| k < steps)
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Inverse of `a` modulo `m` (`a` and `m` coprime; 0 when `m` is 1).
fn mod_inverse(a: u128, m: u128) -> u128 {
    // Extended Euclid on signed values; `m` < 2^64, so they fit in i128.
    let (mut r0, mut r1) = (m as i128, a as i128);
    let (mut t0, mut t1) = (0i128, 1i128);
    while r1 != 0 {
        let q = r0 / r1;
        (r0, r1) = (r1, r0 - q * r1);
        (t0, t1) = (t1, t0 - q * t1);
    }
    t0.rem_euclid(m as i128) as u128
}

/// Optimises the layout of `kernel` for a direct-mapped (or limited-
/// associativity) cache of `cache_size` bytes with `line`-byte lines.
///
/// Returns the padded layout plus a report. When the constraints cannot all
/// be met (incompatible patterns, or more class lines than the cache holds),
/// the best-effort layout with the fewest collisions is returned with
/// `conflict_free = false`.
///
/// Per array, row pitches `natural + k·elem` are tried in increasing `k`
/// (only the congruent one when an earlier array fixed the residue of a
/// shared `H`, else all `k < ⌈T/elem⌉`), and for each pitch the bases
/// `cursor + k·elem` in increasing `k`. A candidate replaces the best so
/// far only if it scores strictly fewer collisions, or ties with strictly
/// less padding; the first collision-free candidate ends the scan. The
/// scan stops after [`CANDIDATE_BUDGET`] candidates, which only happens
/// when none is collision-free.
///
/// # Errors
///
/// [`PlacementError::NoArrays`] for array-less kernels,
/// [`PlacementError::BadGeometry`] for non-positive or inconsistent cache
/// geometry, [`PlacementError::AddressOverflow`] when an array's pitch,
/// a candidate address or the array's end does not fit in 64 bits, and
/// [`PlacementError::SubscriptOutOfBounds`] when a class leader's
/// subscripts at the first iteration point lie outside its array.
pub fn optimize_layout(
    kernel: &Kernel,
    cache_size: u64,
    line: u64,
) -> Result<PlacementReport, PlacementError> {
    if kernel.arrays.is_empty() {
        return Err(PlacementError::NoArrays);
    }
    if cache_size == 0 || line == 0 || line > cache_size {
        return Err(PlacementError::BadGeometry { cache_size, line });
    }
    let num_lines = cache_size / line;

    // Writes participate: an allocated store occupies a line too.
    let classes = partition_classes(kernel, false);
    let ivs = first_iteration(kernel);
    // Every class leader's position in its array (checked in class order,
    // so an out-of-bounds leader fails before any search).
    let positions: Vec<Option<(u64, u64)>> = classes
        .iter()
        .map(|c| leader_position(kernel, c.array, &leader_subscripts(kernel, c, &ivs)))
        .collect::<Result<_, _>>()?;
    let overflow = |a: usize| PlacementError::AddressOverflow {
        array: kernel.arrays[a].name.clone(),
    };

    // Scoring units. Classes of the same array with the same `H` share
    // data: the element a leading row-class fetches is reused by a trailing
    // row-class a full row of iterations later, so the *whole window*
    // between the group's lowest and highest member must stay resident for
    // that reuse to survive — one protected byte range per (array, H)
    // group. When the window exceeds the cache, the long reuse is lost to
    // capacity in any layout (a fully associative cache of the same size
    // also misses it), so the group degrades gracefully to one range per
    // class protecting each stream's leading edge.
    //
    // Every range carries one line of phase slack: two lockstep streams
    // stay on disjoint cache lines at *every* phase iff the circular byte
    // gap between their footprints is at least one line on both sides.
    // (Scoring on leader line indexes alone is wrong: a half-line
    // separation has distinct leader lines at the first iteration but
    // collides as the streams drift across line boundaries.)
    struct Unit {
        array: ArrayId,
        /// Class whose leader is the group's lowest address.
        leader_class: usize,
        /// Protected bytes (span + element width + line slack).
        footprint: u64,
    }
    let mut units: Vec<Unit> = Vec::new();
    {
        // Span plus element width plus line slack, saturating: any
        // footprint past the cache protects the whole ring anyway.
        let footprint = |span: u64, elem: u64| {
            span.saturating_mul(elem)
                .saturating_add(elem - 1)
                .saturating_add(line)
        };
        let mut grouped: Vec<bool> = vec![false; classes.len()];
        for i in 0..classes.len() {
            if grouped[i] {
                continue;
            }
            let group: Vec<usize> = (i..classes.len())
                .filter(|&j| classes[j].array == classes[i].array && classes[j].h == classes[i].h)
                .collect();
            for &j in &group {
                grouped[j] = true;
            }
            let elem = kernel.array(classes[i].array).elem_size as u64;
            let min_off = group
                .iter()
                .map(|&j| *classes[j].linear_offsets.first().expect("non-empty class"))
                .min()
                .expect("non-empty group");
            let max_off = group
                .iter()
                .map(|&j| *classes[j].linear_offsets.last().expect("non-empty class"))
                .max()
                .expect("non-empty group");
            let window = footprint(max_off.abs_diff(min_off), elem);
            if window <= cache_size {
                let leader_class = group
                    .iter()
                    .copied()
                    .min_by_key(|&j| *classes[j].linear_offsets.first().expect("non-empty"))
                    .expect("non-empty group");
                units.push(Unit {
                    array: classes[i].array,
                    leader_class,
                    footprint: window,
                });
            } else {
                for &j in &group {
                    units.push(Unit {
                        array: classes[j].array,
                        leader_class: j,
                        footprint: footprint(classes[j].element_span().unsigned_abs(), elem),
                    });
                }
            }
        }
    }
    let fits = units
        .iter()
        .try_fold(0u64, |sum, u| sum.checked_add(u.footprint))
        .is_some_and(|sum| sum <= cache_size);

    // Unit indices per array.
    let per_array: Vec<Vec<usize>> = (0..kernel.arrays.len())
        .map(|a| {
            units
                .iter()
                .enumerate()
                .filter(|(_, u)| u.array == ArrayId(a))
                .map(|(i, _)| i)
                .collect()
        })
        .collect();

    let mut placements: Vec<Placement> = Vec::with_capacity(kernel.arrays.len());
    let mut fixed_ranges: Vec<ByteRange> = Vec::new();
    let mut base_cursor = 0u64;
    // Row-pitch residues (mod cache) keyed by the `H` of already-placed
    // classes: arrays accessed with the same `H` advance through memory in
    // lockstep only if their pitches agree mod the cache size, so a later
    // array sharing an `H` with an earlier one must match that residue.
    // Arrays with unrelated access patterns (e.g. a streaming coefficient
    // plane vs. a small resident look-up table) stay unconstrained — forcing
    // a shared pitch there would inflate the small array and wreck its
    // locality.
    let mut residue_by_h: Vec<(Vec<i64>, u64)> = Vec::new();
    // Reused per candidate.
    let mut new_ranges: Vec<ByteRange> = Vec::new();

    for (aidx, array) in kernel.arrays.iter().enumerate() {
        let elem = array.elem_size as u64;
        let natural_pitch = array.dims[1..]
            .iter()
            .try_fold(elem, |p, &d| p.checked_mul(d as u64))
            .or(array.dims[1..].contains(&0).then_some(0))
            .ok_or_else(|| overflow(aidx))?;
        let multi_row = array.dims.len() > 1 && array.dims[0] > 1;
        let unit_ids = &per_array[aidx];
        let unit_pos: Vec<(u64, u64)> = unit_ids
            .iter()
            .map(|&ui| positions[units[ui].leader_class].ok_or_else(|| overflow(aidx)))
            .collect::<Result<_, _>>()?;
        let steps = cache_size.div_ceil(elem);

        // Pitches `natural_pitch + first_pad + j·elem`, `j < pitch_count`:
        // every padding step for a free multi-row array, the one congruent
        // step when an earlier array sharing an `H` fixed the residue (all
        // steps again if no step is congruent: differing element sizes can
        // cause this), and the natural pitch alone for a single row.
        let (first_pad, pitch_count) = if multi_row {
            let required_residue: Option<u64> = unit_ids.iter().find_map(|&ui| {
                let h = &classes[units[ui].leader_class].h;
                residue_by_h.iter().find(|(rh, _)| rh == h).map(|(_, r)| *r)
            });
            match required_residue
                .and_then(|r| congruent_step(natural_pitch, elem, cache_size, r, steps))
            {
                Some(k) => (k.checked_mul(elem).ok_or_else(|| overflow(aidx))?, 1),
                None => (0, steps),
            }
        } else {
            (natural_pitch.max(elem) - natural_pitch, 1)
        };
        // This array's protected ranges under placement `p`, onto `out`.
        let push_ranges = |p: Placement, out: &mut Vec<ByteRange>| {
            for (&ui, &(row, offset)) in unit_ids.iter().zip(&unit_pos) {
                let addr = row
                    .checked_mul(p.row_pitch)
                    .and_then(|a| a.checked_add(offset))
                    .and_then(|a| a.checked_add(p.base))
                    .ok_or_else(|| overflow(aidx))?;
                out.push(ByteRange {
                    start: addr % cache_size,
                    len: units[ui].footprint.min(cache_size),
                });
            }
            Ok(())
        };

        // Candidate search, pitch-major, stopping at the first zero score.
        let mut scorer = Scorer::new(&fixed_ranges, cache_size);
        // (collision score, padding, placement)
        let mut best: Option<((usize, u64), u64, Placement)> = None;
        let mut scored = 0u64;
        'search: for jp in 0..pitch_count {
            let pitch_pad = jp
                .checked_mul(elem)
                .and_then(|pad| pad.checked_add(first_pad))
                .ok_or_else(|| overflow(aidx))?;
            let row_pitch = natural_pitch
                .checked_add(pitch_pad)
                .ok_or_else(|| overflow(aidx))?;
            for kb in 0..steps {
                if scored == CANDIDATE_BUDGET {
                    break 'search;
                }
                scored += 1;
                let base = kb
                    .checked_mul(elem)
                    .and_then(|pad| base_cursor.checked_add(pad))
                    .ok_or_else(|| overflow(aidx))?;
                let p = Placement { base, row_pitch };
                new_ranges.clear();
                push_ranges(p, &mut new_ranges)?;
                let score = scorer.score(&new_ranges);
                let padding = (base - base_cursor).saturating_add(pitch_pad);
                if best.is_none_or(|(bs, bp, _)| score < bs || (score == bs && padding < bp)) {
                    best = Some((score, padding, p));
                    if score == (0, 0) {
                        break 'search;
                    }
                }
            }
        }

        let (_, _, placement) = best.expect("search space is non-empty for every array");
        push_ranges(placement, &mut fixed_ranges)?;
        if multi_row {
            for &ui in unit_ids {
                let h = &classes[units[ui].leader_class].h;
                if !residue_by_h.iter().any(|(rh, _)| rh == h) {
                    residue_by_h.push((h.clone(), placement.row_pitch % cache_size));
                }
            }
        }
        // Advance the cursor past this array.
        let rows = array.dims[0] as u64;
        let end = if array.dims.len() == 1 {
            rows.checked_mul(elem)
                .and_then(|size| placement.base.checked_add(size))
        } else {
            rows.saturating_sub(1)
                .checked_mul(placement.row_pitch)
                .and_then(|span| span.checked_add(natural_pitch))
                .and_then(|span| placement.base.checked_add(span))
        };
        base_cursor = end.ok_or_else(|| overflow(aidx))?;
        placements.push(placement);
    }

    // Final report: recompute leader positions and collisions over all
    // classes.
    let layout = DataLayout::from_placements(kernel, placements);
    let leader_addrs: Vec<u64> = classes
        .iter()
        .map(|c| {
            let subs = leader_subscripts(kernel, c, &ivs);
            layout.element_address(kernel, c.array, &subs)
        })
        .collect();
    let leader_lines: Vec<u64> = leader_addrs
        .iter()
        .map(|&addr| (addr / line) % num_lines)
        .collect();
    let final_ranges: Vec<ByteRange> = units
        .iter()
        .map(|u| ByteRange {
            start: leader_addrs[u.leader_class] % cache_size,
            len: u.footprint.min(cache_size),
        })
        .collect();
    let (colliding_classes, _) = Scorer::new(&[], cache_size).score(&final_ranges);
    let padding_bytes = layout.padding_overhead(kernel);
    Ok(PlacementReport {
        layout,
        leader_lines,
        colliding_classes,
        total_classes: units.len(),
        padding_bytes,
        conflict_free: fits && colliding_classes == 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopir::kernels;
    use loopir::{AccessKind, TraceGen};
    use memsim::{CacheConfig, Simulator, TraceEvent};

    fn miss_rate(kernel: &Kernel, layout: &DataLayout, t: usize, l: usize, s: usize) -> f64 {
        let cfg = CacheConfig::new(t, l, s).unwrap();
        let events = TraceGen::new(kernel, layout)
            .filter(|a| a.kind == AccessKind::Read)
            .map(|a| TraceEvent::read(a.addr, a.size));
        Simulator::simulate(cfg, events).stats.read_miss_rate()
    }

    #[test]
    fn matadd_reproduces_example_2_addresses() {
        // Paper §4.1, Example 2: byte elements, line 2, three lines (the
        // stated minimum): a at 0, b moved to 38, c to 76.
        let proto = kernels::matadd(6);
        let arrays = proto
            .arrays
            .iter()
            .map(|a| loopir::ArrayDecl::new(a.name.clone(), &a.dims, 1))
            .collect();
        let k = Kernel::new("matadd-bytes", arrays, proto.nest.clone());
        let r = optimize_layout(&k, 6, 2).unwrap();
        assert!(r.conflict_free, "{r:?}");
        assert_eq!(r.layout.placement(ArrayId(0)).base, 0);
        assert_eq!(r.layout.placement(ArrayId(1)).base, 38);
        assert_eq!(r.layout.placement(ArrayId(2)).base, 76);
        assert_eq!(r.leader_lines, vec![0, 1, 2]);
    }

    #[test]
    fn optimized_compress_eliminates_conflict_misses() {
        let k = kernels::compress(31);
        let r = optimize_layout(&k, 64, 8).unwrap();
        assert!(r.conflict_free, "{r:?}");
        let cfg = CacheConfig::new(64, 8, 1).unwrap();
        let events = TraceGen::new(&k, &r.layout)
            .filter(|a| a.kind == AccessKind::Read)
            .map(|a| TraceEvent::read(a.addr, a.size));
        let report = Simulator::simulate_classified(cfg, events);
        let classes = report.miss_classes.unwrap();
        assert_eq!(
            classes.conflict, 0,
            "optimized layout must have no conflict misses: {classes:?}"
        );
    }

    #[test]
    fn optimized_beats_natural_for_the_paper_kernels() {
        for k in kernels::all_paper_kernels() {
            let natural = DataLayout::natural(&k);
            let r = optimize_layout(&k, 64, 8).unwrap();
            let mr_nat = miss_rate(&k, &natural, 64, 8, 1);
            let mr_opt = miss_rate(&k, &r.layout, 64, 8, 1);
            assert!(
                mr_opt <= mr_nat + 1e-9,
                "{}: optimized {mr_opt} exceeds natural {mr_nat}",
                k.name
            );
        }
    }

    #[test]
    fn stencil_classes_settle_on_equally_spaced_lines() {
        // SOR's three row classes must be pitched apart; collision scoring
        // should find a conflict-free arrangement in a 64 B / 8 B cache.
        let k = kernels::sor(31);
        let r = optimize_layout(&k, 64, 8).unwrap();
        assert!(r.conflict_free, "{r:?}");
    }

    #[test]
    fn padding_is_bounded() {
        let k = kernels::matadd(6);
        let r = optimize_layout(&k, 32, 4).unwrap();
        // Each array may add at most ~one cache size of padding.
        assert!(r.padding_bytes <= 3 * 32 + 3 * 32);
        assert!(r.layout.check_no_overlap(&k).is_ok());
    }

    #[test]
    fn layouts_never_overlap() {
        for k in kernels::all_paper_kernels() {
            for (t, l) in [(32u64, 4u64), (64, 8), (128, 16), (512, 32)] {
                let r = optimize_layout(&k, t, l).unwrap();
                assert!(
                    r.layout.check_no_overlap(&k).is_ok(),
                    "{} at C{t}L{l}",
                    k.name
                );
            }
        }
    }

    #[test]
    fn bad_geometry_is_rejected() {
        let k = kernels::matadd(6);
        assert!(matches!(
            optimize_layout(&k, 0, 4),
            Err(PlacementError::BadGeometry { .. })
        ));
        assert!(matches!(
            optimize_layout(&k, 8, 16),
            Err(PlacementError::BadGeometry { .. })
        ));
    }

    #[test]
    fn tiny_cache_reports_not_conflict_free() {
        // Compress needs 4+ lines; a 2-line cache cannot hold the classes.
        let k = kernels::compress(31);
        let r = optimize_layout(&k, 16, 8).unwrap();
        assert!(!r.conflict_free);
    }

    #[test]
    fn overflowing_pitch_is_a_typed_error() {
        // 2^62 elements of 8 bytes: the natural row pitch is 2^65 bytes,
        // which used to wrap to a pitch of 0.
        let a = loopir::ArrayDecl::new("a", &[4, 1 << 62], 8);
        let nest = loopir::LoopNest {
            loops: vec![loopir::Loop::new(0, 3)],
            refs: vec![loopir::ArrayRef::read(
                ArrayId(0),
                vec![loopir::AffineExpr::var(0), loopir::AffineExpr::constant(0)],
            )],
        };
        let k = Kernel::new("huge", vec![a], nest);
        assert_eq!(
            optimize_layout(&k, 1024, 16),
            Err(PlacementError::AddressOverflow { array: "a".into() })
        );
    }

    #[test]
    fn overflowing_array_end_is_a_typed_error() {
        // 2^61 elements of 8 bytes end at 2^64, one past the last address.
        let a = loopir::ArrayDecl::new("a", &[1 << 61], 8);
        let b = loopir::ArrayDecl::new("b", &[2], 8);
        let nest = loopir::LoopNest {
            loops: vec![loopir::Loop::new(0, 1)],
            refs: vec![
                loopir::ArrayRef::read(ArrayId(0), vec![loopir::AffineExpr::var(0)]),
                loopir::ArrayRef::read(ArrayId(1), vec![loopir::AffineExpr::var(0)]),
            ],
        };
        let k = Kernel::new("long", vec![a, b], nest);
        assert_eq!(
            optimize_layout(&k, 1024, 16),
            Err(PlacementError::AddressOverflow { array: "a".into() })
        );
    }

    #[test]
    fn congruent_step_matches_a_scan() {
        for n in [1u64, 6, 8, 16, 24, 100, 1024] {
            for elem in [1u64, 2, 3, 4, 6, 8, 12, 200] {
                for natural in [0u64, 4, 7, 30, 128, 1000] {
                    let steps = n.div_ceil(elem);
                    for residue in 0..n {
                        let scanned: Vec<u64> = (0..steps)
                            .filter(|&k| (natural + k * elem) % n == residue)
                            .collect();
                        assert!(scanned.len() <= 1, "n {n} elem {elem}: {scanned:?}");
                        assert_eq!(
                            congruent_step(natural, elem, n, residue, steps),
                            scanned.first().copied(),
                            "n {n} elem {elem} natural {natural} residue {residue}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_scores_equal_scoring_all_pairs() {
        // Naive reference: every pair of the concatenated ranges.
        fn all_pairs(ranges: &[ByteRange], n: u64) -> (usize, u64) {
            let mut colliding = vec![false; ranges.len()];
            let mut bytes = 0;
            for i in 0..ranges.len() {
                for j in (i + 1)..ranges.len() {
                    let ov = ranges[i].overlap_len(&ranges[j], n);
                    if ov > 0 {
                        colliding[i] = true;
                        colliding[j] = true;
                        bytes += ov;
                    }
                }
            }
            (colliding.iter().filter(|&&c| c).count(), bytes)
        }
        let n = 64;
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % m
        };
        for _ in 0..500 {
            let mut ranges = |count: u64| -> Vec<ByteRange> {
                (0..count)
                    .map(|_| ByteRange {
                        start: next(n),
                        len: 1 + next(n + 8),
                    })
                    .collect()
            };
            let fixed = ranges(3);
            let new = ranges(2);
            let mut scorer = Scorer::new(&fixed, n);
            // Scored twice: the scratch must not leak between candidates.
            scorer.score(&new);
            let all: Vec<ByteRange> = fixed.iter().chain(&new).copied().collect();
            assert_eq!(scorer.score(&new), all_pairs(&all, n));
        }
    }

    #[test]
    fn line_ranges_overlap_logic() {
        let n = 8;
        let a = ByteRange { start: 0, len: 2 };
        let b = ByteRange { start: 2, len: 2 };
        let c = ByteRange { start: 1, len: 2 };
        let d = ByteRange { start: 7, len: 2 }; // wraps to 0
        assert!(!a.overlaps(&b, n));
        assert!(a.overlaps(&c, n));
        assert!(a.overlaps(&d, n));
        assert!(!b.overlaps(&d, n));
        let full = ByteRange { start: 3, len: 8 };
        assert!(full.overlaps(&a, n));
    }
}
