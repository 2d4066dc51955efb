//! Configuration selection under time and/or energy bounds.
//!
//! The paper's §3: "the minimum energy cache configuration for Compress is
//! C16L4 and the minimum time configuration is C512L64. If the number of
//! processor cycles is bound to 5,000, the minimum energy configuration is
//! C64L16; if the energy is bound to 5,500 nJ, the minimum time
//! configuration is C512L64." These selectors implement exactly those
//! queries, plus the energy–time Pareto frontier.

use crate::metrics::Record;

/// The record with minimum energy, ties broken by fewer cycles then smaller
/// cache. `None` for an empty slice.
///
/// # Example
///
/// ```
/// use memexplore::{select, DesignSpace, Explorer};
/// use loopir::kernels;
///
/// let records = Explorer::default().explore(&kernels::matadd(6), &DesignSpace::small());
/// let best = select::min_energy(&records).expect("non-empty space");
/// assert!(records.iter().all(|r| best.energy_nj <= r.energy_nj));
/// ```
pub fn min_energy(records: &[Record]) -> Option<&Record> {
    records.iter().min_by(|a, b| {
        (a.energy_nj, a.cycles, a.design.cache_size)
            .partial_cmp(&(b.energy_nj, b.cycles, b.design.cache_size))
            .expect("metrics are finite")
    })
}

/// The record with minimum cycles, ties broken by lower energy then smaller
/// cache. `None` for an empty slice.
pub fn min_cycles(records: &[Record]) -> Option<&Record> {
    records.iter().min_by(|a, b| {
        (a.cycles, a.energy_nj, a.design.cache_size)
            .partial_cmp(&(b.cycles, b.energy_nj, b.design.cache_size))
            .expect("metrics are finite")
    })
}

/// Minimum-energy configuration among those meeting a cycle bound
/// ("time is the hard constraint"). `None` when nothing meets the bound.
pub fn min_energy_bounded(records: &[Record], max_cycles: f64) -> Option<&Record> {
    let feasible: Vec<&Record> = records.iter().filter(|r| r.cycles <= max_cycles).collect();
    feasible
        .into_iter()
        .min_by(|a, b| a.energy_nj.partial_cmp(&b.energy_nj).expect("finite"))
}

/// Minimum-cycles configuration among those meeting an energy bound
/// ("energy is the hard constraint"). `None` when nothing meets the bound.
pub fn min_cycles_bounded(records: &[Record], max_energy_nj: f64) -> Option<&Record> {
    let feasible: Vec<&Record> = records
        .iter()
        .filter(|r| r.energy_nj <= max_energy_nj)
        .collect();
    feasible
        .into_iter()
        .min_by(|a, b| a.cycles.partial_cmp(&b.cycles).expect("finite"))
}

/// Minimum-energy configuration meeting *both* bounds.
pub fn min_energy_double_bounded(
    records: &[Record],
    max_cycles: f64,
    max_energy_nj: f64,
) -> Option<&Record> {
    records
        .iter()
        .filter(|r| r.cycles <= max_cycles && r.energy_nj <= max_energy_nj)
        .min_by(|a, b| a.energy_nj.partial_cmp(&b.energy_nj).expect("finite"))
}

/// The energy–time Pareto frontier: records not dominated in
/// (cycles, energy). Returned sorted by cycles ascending.
///
/// # Example
///
/// ```
/// use memexplore::{select, DesignSpace, Explorer};
/// use loopir::kernels;
///
/// let records = Explorer::default().explore(&kernels::matadd(6), &DesignSpace::small());
/// let frontier = select::pareto(&records);
/// // The frontier walks from fastest to cheapest.
/// assert!(frontier.windows(2).all(|w| w[0].cycles <= w[1].cycles));
/// assert!(frontier.windows(2).all(|w| w[0].energy_nj >= w[1].energy_nj));
/// ```
pub fn pareto(records: &[Record]) -> Vec<&Record> {
    let mut sorted: Vec<&Record> = records.iter().collect();
    sorted.sort_by(|a, b| {
        (a.cycles, a.energy_nj)
            .partial_cmp(&(b.cycles, b.energy_nj))
            .expect("finite")
    });
    let mut frontier: Vec<&Record> = Vec::new();
    let mut best_energy = f64::INFINITY;
    for r in sorted {
        if r.energy_nj < best_energy {
            best_energy = r.energy_nj;
            frontier.push(r);
        }
    }
    frontier
}

/// Whether `a` strictly dominates `b` in the paper's three objectives
/// — cycles, energy, **and cache size** (all ≤, at least one <).
///
/// This is the dominance relation of the multi-objective mode: a smaller
/// cache with equal time and energy is a strictly better embedded design.
pub fn dominates3(a: &Record, b: &Record) -> bool {
    let le = a.cycles <= b.cycles
        && a.energy_nj <= b.energy_nj
        && a.design.cache_size <= b.design.cache_size;
    le && (a.cycles < b.cycles
        || a.energy_nj < b.energy_nj
        || a.design.cache_size < b.design.cache_size)
}

/// Sort key that totally orders frontier records: metrics first, then the
/// remaining design coordinates so ties are broken deterministically.
fn canonical_key(r: &Record) -> (f64, f64, usize, usize, usize, u64) {
    (
        r.cycles,
        r.energy_nj,
        r.design.cache_size,
        r.design.line,
        r.design.assoc,
        r.design.tiling,
    )
}

/// The exact three-objective Pareto frontier over
/// `(cycles, energy, cache size)`: every record not strictly dominated by
/// another (ties are kept — equal points dominate nothing).
///
/// The result is sorted by the canonical key (cycles, energy, cache size,
/// then the remaining design coordinates), so two frontiers computed from
/// the same underlying records — e.g. by the banked sweep and a scalar
/// per-design reference — compare equal with `==`, bitwise on the floating-point metrics.
/// `memx pareto` is this function over the records of one sweep.
///
/// # Example
///
/// ```
/// use memexplore::{select, DesignSpace, Explorer};
/// use loopir::kernels;
///
/// let records = Explorer::default().explore(&kernels::matadd(6), &DesignSpace::small());
/// let frontier = select::pareto3(&records);
/// assert!(!frontier.is_empty());
/// // No frontier member dominates another.
/// for a in &frontier {
///     assert!(!frontier.iter().any(|b| select::dominates3(b, a)));
/// }
/// ```
pub fn pareto3(records: &[Record]) -> Vec<Record> {
    let mut frontier: Vec<Record> = records
        .iter()
        .filter(|r| !records.iter().any(|other| dominates3(other, r)))
        .cloned()
        .collect();
    frontier.sort_by(|a, b| {
        canonical_key(a)
            .partial_cmp(&canonical_key(b))
            .expect("metrics are finite")
    });
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::CacheDesign;

    fn rec(t: usize, cycles: f64, energy: f64) -> Record {
        Record {
            design: CacheDesign::new(t, 4, 1, 1),
            miss_rate: 0.1,
            cycles,
            energy_nj: energy,
            trip_count: 1000,
            conflict_free: true,
        }
    }

    fn sample() -> Vec<Record> {
        vec![
            rec(16, 9000.0, 3000.0),
            rec(32, 7000.0, 3500.0),
            rec(64, 5000.0, 4200.0),
            rec(128, 4200.0, 5200.0),
            rec(512, 4000.0, 8000.0),
            rec(256, 6000.0, 6000.0), // dominated by the 64-byte point
        ]
    }

    #[test]
    fn unbounded_minima() {
        let r = sample();
        assert_eq!(min_energy(&r).unwrap().design.cache_size, 16);
        assert_eq!(min_cycles(&r).unwrap().design.cache_size, 512);
    }

    #[test]
    fn cycle_bound_moves_the_energy_optimum() {
        let r = sample();
        // Bound 5000: only the 64/128/512 points qualify; cheapest is 64.
        let best = min_energy_bounded(&r, 5000.0).unwrap();
        assert_eq!(best.design.cache_size, 64);
    }

    #[test]
    fn energy_bound_moves_the_time_optimum() {
        let r = sample();
        let best = min_cycles_bounded(&r, 5500.0).unwrap();
        assert_eq!(best.design.cache_size, 128);
    }

    #[test]
    fn double_bound_can_be_infeasible() {
        let r = sample();
        assert!(min_energy_double_bounded(&r, 4000.0, 3000.0).is_none());
        let ok = min_energy_double_bounded(&r, 6000.0, 5000.0).unwrap();
        assert_eq!(ok.design.cache_size, 64);
    }

    #[test]
    fn pareto_excludes_dominated_points() {
        let r = sample();
        let front = pareto(&r);
        let sizes: Vec<usize> = front.iter().map(|r| r.design.cache_size).collect();
        assert_eq!(sizes, vec![512, 128, 64, 32, 16]);
        assert!(!sizes.contains(&256));
    }

    #[test]
    fn empty_input_yields_none() {
        let r: Vec<Record> = Vec::new();
        assert!(min_energy(&r).is_none());
        assert!(min_cycles(&r).is_none());
        assert!(min_energy_bounded(&r, 1e9).is_none());
        assert!(pareto(&r).is_empty());
    }

    #[test]
    fn unreachable_bounds_yield_none() {
        let r = sample();
        assert!(min_energy_bounded(&r, 10.0).is_none());
        assert!(min_cycles_bounded(&r, 10.0).is_none());
    }

    #[test]
    fn dominates3_requires_strictness() {
        let a = rec(16, 100.0, 100.0);
        let b = rec(16, 100.0, 100.0);
        assert!(!dominates3(&a, &b)); // ties dominate nothing
        let c = rec(16, 100.0, 101.0);
        assert!(dominates3(&a, &c));
        assert!(!dominates3(&c, &a));
        // Smaller cache alone is a strict improvement.
        let d = rec(32, 100.0, 100.0);
        assert!(dominates3(&a, &d));
    }

    #[test]
    fn dominates3_needs_all_three_axes() {
        let fast_big = rec(512, 10.0, 100.0);
        let slow_small = rec(16, 100.0, 10.0);
        assert!(!dominates3(&fast_big, &slow_small));
        assert!(!dominates3(&slow_small, &fast_big));
    }

    #[test]
    fn pareto3_keeps_cache_size_tradeoffs_pareto2_drops() {
        // Same cycles/energy at different sizes: 2-D pareto keeps one,
        // 3-D dominance removes the bigger cache.
        let r = vec![rec(16, 100.0, 100.0), rec(32, 100.0, 100.0)];
        let f = pareto3(&r);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].design.cache_size, 16);
        // But a bigger cache that buys speed survives.
        let r = vec![rec(16, 100.0, 100.0), rec(32, 90.0, 100.0)];
        assert_eq!(pareto3(&r).len(), 2);
    }

    #[test]
    fn pareto3_ties_are_kept_and_ordered() {
        let mut a = rec(16, 100.0, 100.0);
        a.design.line = 8;
        let mut b = rec(16, 100.0, 100.0);
        b.design.line = 4;
        let f = pareto3(&[a.clone(), b.clone()]);
        assert_eq!(f, vec![b, a]); // canonical order breaks the tie by line
    }

    #[test]
    fn pareto3_is_order_independent() {
        let mut r = sample();
        let f1 = pareto3(&r);
        r.reverse();
        let f2 = pareto3(&r);
        assert_eq!(f1, f2);
    }

    #[test]
    fn pareto3_of_empty_is_empty() {
        assert!(pareto3(&[]).is_empty());
    }

    #[test]
    fn pareto3_members_are_mutually_nondominated() {
        let f = pareto3(&sample());
        for a in &f {
            assert!(!f.iter().any(|b| dominates3(b, a)));
        }
        // Every excluded record is dominated by some frontier member.
        for r in sample() {
            if !f.contains(&r) {
                assert!(f.iter().any(|m| dominates3(m, &r)), "{:?}", r.design);
            }
        }
    }
}
