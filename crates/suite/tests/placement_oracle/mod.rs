//! The off-chip assignment search as it was before candidates became
//! lazy and budgeted: every row-pitch candidate up to one cache size of
//! padding is collected (then filtered by the shared-`H` residue) before
//! the first is scored, and every candidate clones the fixed ranges and
//! scores all pairs afresh. Kept verbatim, over the public `analysis` and
//! `loopir` API only, as the oracle `analysis::optimize_layout` must match
//! on every input whose scan fits `analysis::placement::CANDIDATE_BUDGET`.
//!
//! Test binaries and `bench_search` include this file as a module.
#![allow(dead_code)]

use analysis::classes::{partition_classes, RefClass};
use analysis::{PlacementError, PlacementReport};
use loopir::layout::Placement;
use loopir::{ArrayId, DataLayout, Kernel};

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

/// Computes the byte address of `subs` under a candidate placement.
fn candidate_address(kernel: &Kernel, array: ArrayId, p: Placement, subs: &[i64]) -> u64 {
    let a = kernel.array(array);
    if a.dims.len() == 1 {
        return p.base + subs[0] as u64 * a.elem_size as u64;
    }
    let weights = a.weights();
    let inner: u64 = subs[1..]
        .iter()
        .zip(&weights[1..])
        .map(|(&s, &w)| s as u64 * w as u64)
        .sum();
    p.base + subs[0] as u64 * p.row_pitch + inner * a.elem_size as u64
}

/// A circular byte range `[start, start+len)` on a ring of `n` bytes (the
/// cache size). `len` already includes one line of phase slack.
#[derive(Clone, Copy, Debug)]
struct ByteRange {
    start: u64,
    len: u64,
}

impl ByteRange {
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
fn collisions(ranges: &[ByteRange], n: u64) -> (usize, u64) {
    let mut colliding = vec![false; ranges.len()];
    let mut overlap_bytes = 0u64;
    for i in 0..ranges.len() {
        for j in (i + 1)..ranges.len() {
            let ov = ranges[i].overlap_len(&ranges[j], n);
            if ov > 0 {
                colliding[i] = true;
                colliding[j] = true;
                overlap_bytes += ov;
            }
        }
    }
    (colliding.iter().filter(|&&c| c).count(), overlap_bytes)
}

/// Optimises the layout of `kernel` for a direct-mapped (or limited-
/// associativity) cache of `cache_size` bytes with `line`-byte lines.
///
/// Returns the padded layout plus a report. When the constraints cannot all
/// be met (incompatible patterns, or more class lines than the cache holds),
/// the best-effort layout with the fewest collisions is returned with
/// `conflict_free = false`.
///
/// # Errors
///
/// [`PlacementError::NoArrays`] for array-less kernels and
/// [`PlacementError::BadGeometry`] for non-positive or inconsistent cache
/// geometry.
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
            let window = (max_off - min_off).unsigned_abs() * elem + elem - 1 + line;
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
                        footprint: classes[j].element_span().unsigned_abs() * elem + elem - 1
                            + line,
                    });
                }
            }
        }
    }
    let fits = units.iter().map(|u| u.footprint).sum::<u64>() <= cache_size;

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

    for (aidx, array) in kernel.arrays.iter().enumerate() {
        let elem = array.elem_size as u64;
        let natural_pitch: u64 = array.dims[1..].iter().map(|&d| d as u64).product::<u64>() * elem;
        let multi_row = array.dims.len() > 1 && array.dims[0] > 1;
        let unit_ids = &per_array[aidx];

        // Residue this array must honour: the residue of any earlier-placed
        // array sharing an `H` with one of this array's classes.
        let required_residue: Option<u64> = unit_ids.iter().find_map(|&ui| {
            let h = &classes[units[ui].leader_class].h;
            residue_by_h.iter().find(|(rh, _)| rh == h).map(|(_, r)| *r)
        });
        let pitch_candidates: Vec<u64> = if multi_row {
            (0..cache_size.div_ceil(elem))
                .map(|k| natural_pitch + k * elem)
                .filter(|&p| required_residue.is_none_or(|r| p % cache_size == r))
                .collect()
        } else {
            vec![natural_pitch.max(elem)]
        };
        // Fall back to unconstrained pitches if the residue filter emptied
        // the candidate list (differing element sizes can cause this).
        let pitch_candidates = if pitch_candidates.is_empty() {
            (0..cache_size.div_ceil(elem))
                .map(|k| natural_pitch + k * elem)
                .collect()
        } else {
            pitch_candidates
        };

        // (collision score, padding, placement, protected ranges)
        type Candidate = ((usize, u64), u64, Placement, Vec<ByteRange>);
        let mut best: Option<Candidate> = None;
        'search: for &pitch in &pitch_candidates {
            for k in 0..cache_size.div_ceil(elem) {
                let base = base_cursor + k * elem;
                let p = Placement {
                    base,
                    row_pitch: pitch,
                };
                let new_ranges: Vec<ByteRange> = unit_ids
                    .iter()
                    .map(|&ui| {
                        let subs =
                            leader_subscripts(kernel, &classes[units[ui].leader_class], &ivs);
                        let addr = candidate_address(kernel, ArrayId(aidx), p, &subs);
                        ByteRange {
                            start: addr % cache_size,
                            len: units[ui].footprint.min(cache_size),
                        }
                    })
                    .collect();
                let mut all: Vec<ByteRange> = fixed_ranges.clone();
                all.extend(new_ranges.iter().copied());
                let score = collisions(&all, cache_size);
                let padding = (base - base_cursor) + (pitch - natural_pitch);
                let better = match &best {
                    None => true,
                    Some((bs, bp, _, _)) => score < *bs || (score == *bs && padding < *bp),
                };
                if better {
                    let zero = score == (0, 0);
                    best = Some((score, padding, p, new_ranges));
                    if zero {
                        break 'search;
                    }
                }
            }
        }

        let (_, _, placement, new_ranges) =
            best.expect("search space is non-empty for every array");
        fixed_ranges.extend(new_ranges);
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
            placement.base + array.byte_size() as u64
        } else {
            placement.base + (rows - 1) * placement.row_pitch + natural_pitch
        };
        base_cursor = end;
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
    let (colliding_classes, _) = collisions(&final_ranges, cache_size);
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
