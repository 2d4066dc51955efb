//! Property-based tests over randomly generated affine kernels.

mod placement_oracle;

use analysis::placement::{optimize_layout, PlacementError};
use loopir::transform::{tile, tile_all};
use loopir::{
    check_subscripts, AccessKind, AffineExpr, ArrayDecl, ArrayId, ArrayRef, Bound, DataLayout,
    Kernel, Loop, LoopNest, MemoryAccess, TraceGen,
};
use memsim::{CacheConfig, Simulator, TraceEvent};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A random rectangular 2-D stencil kernel: 1–3 arrays of the same shape,
/// 2–6 references with constant offsets in {-1, 0, 1}, loops over the
/// interior so every reference stays in bounds.
fn arb_kernel() -> impl Strategy<Value = Kernel> {
    let dims = (5usize..12, 5usize..12);
    let n_arrays = 1usize..=3;
    let refs = proptest::collection::vec(
        (0usize..3, -1i64..=1, -1i64..=1, proptest::bool::ANY),
        2..=6,
    );
    (dims, n_arrays, refs).prop_map(|((rows, cols), n_arrays, refs)| {
        let arrays: Vec<ArrayDecl> = (0..n_arrays)
            .map(|i| ArrayDecl::new(format!("a{i}"), &[rows, cols], 4))
            .collect();
        let body: Vec<ArrayRef> = refs
            .into_iter()
            .map(|(aid, c0, c1, is_write)| {
                let subs = vec![AffineExpr::var(0) + c0, AffineExpr::var(1) + c1];
                let array = ArrayId(aid % n_arrays);
                if is_write {
                    ArrayRef::write(array, subs)
                } else {
                    ArrayRef::read(array, subs)
                }
            })
            .collect();
        let nest = LoopNest {
            loops: vec![Loop::new(1, rows as i64 - 2), Loop::new(1, cols as i64 - 2)],
            refs: body,
        };
        Kernel::new("random", arrays, nest)
    })
}

fn address_multiset(kernel: &Kernel, layout: &DataLayout) -> BTreeMap<u64, usize> {
    let mut m = BTreeMap::new();
    for a in TraceGen::new(kernel, layout) {
        *m.entry(a.addr).or_insert(0) += 1;
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn trace_length_is_iterations_times_refs(kernel in arb_kernel()) {
        let layout = DataLayout::natural(&kernel);
        let n = TraceGen::new(&kernel, &layout).count();
        let expected = kernel.nest.const_iteration_count().unwrap() as usize
            * kernel.nest.refs.len();
        prop_assert_eq!(n, expected);
    }

    #[test]
    fn tiling_preserves_the_address_multiset(kernel in arb_kernel(), b in 1u64..6) {
        let layout = DataLayout::natural(&kernel);
        let tiled = tile_all(&kernel, b);
        prop_assert_eq!(
            address_multiset(&kernel, &layout),
            address_multiset(&tiled, &layout)
        );
    }

    #[test]
    fn optimized_layouts_never_overlap(kernel in arb_kernel(), geom in 0usize..4) {
        let (t, l) = [(32u64, 4u64), (64, 8), (128, 16), (256, 8)][geom];
        let report = optimize_layout(&kernel, t, l).unwrap();
        prop_assert!(report.layout.check_no_overlap(&kernel).is_ok());
        // Padding stays within one cache size per array (pitch) plus one
        // per gap (base), times rows for the pitch component.
        let rows = kernel.arrays[0].dims[0] as u64;
        let bound = kernel.arrays.len() as u64 * t * (rows + 1);
        prop_assert!(report.padding_bytes <= bound);
    }

    #[test]
    fn optimized_evaluation_never_misses_more_than_natural(kernel in arb_kernel()) {
        // The raw optimizer is a heuristic (padding can enlarge a borderline
        // working set), but the Evaluator arbitrates against the natural
        // layout, so at the evaluation level the guarantee is strict.
        use memexplore::{CacheDesign, Evaluator};
        let d = CacheDesign::new(64, 8, 1, 1);
        let optimized = Evaluator::default().evaluate(&kernel, d).miss_rate;
        let natural = Evaluator::default().unoptimized().evaluate(&kernel, d).miss_rate;
        prop_assert!(
            optimized <= natural + 1e-12,
            "optimized {} vs natural {}", optimized, natural
        );
    }

    #[test]
    fn lru_inclusion_property_holds(kernel in arb_kernel()) {
        // A fully-associative LRU cache of twice the capacity never misses
        // more (stack-algorithm inclusion).
        let layout = DataLayout::natural(&kernel);
        let events: Vec<TraceEvent> = TraceGen::new(&kernel, &layout)
            .filter(|a| a.kind == AccessKind::Read)
            .map(|a| TraceEvent::read(a.addr, a.size))
            .collect();
        let small = CacheConfig::fully_associative(64, 8).unwrap();
        let large = CacheConfig::fully_associative(128, 8).unwrap();
        let m_small = Simulator::simulate(small, events.iter().copied()).stats.misses();
        let m_large = Simulator::simulate(large, events).stats.misses();
        prop_assert!(m_large <= m_small, "large {} > small {}", m_large, m_small);
    }

    #[test]
    fn conflict_free_reports_imply_zero_conflict_misses(kernel in arb_kernel()) {
        let report = optimize_layout(&kernel, 128, 8).unwrap();
        prop_assume!(report.conflict_free);
        let cfg = CacheConfig::new(128, 8, 1).unwrap();
        let events = TraceGen::new(&kernel, &report.layout)
            .filter(|a| a.kind == AccessKind::Read)
            .map(|a| TraceEvent::read(a.addr, a.size));
        let sim = Simulator::simulate_classified(cfg, events);
        prop_assert_eq!(sim.miss_classes.unwrap().conflict, 0);
    }
}

/// The naive walk the strength-reduced `TraceGen` replaced, kept as its
/// oracle: every subscript evaluated and every address linearised by
/// `DataLayout::element_address` at every iteration point, pushing into
/// `out` so a panicking walk leaves its valid prefix behind.
fn oracle_walk(kernel: &Kernel, layout: &DataLayout, out: &mut Vec<MemoryAccess>) {
    fn level(
        kernel: &Kernel,
        layout: &DataLayout,
        ivs: &mut Vec<i64>,
        out: &mut Vec<MemoryAccess>,
    ) {
        let Some(lp) = kernel.nest.loops.get(ivs.len()) else {
            for r in &kernel.nest.refs {
                let subs: Vec<i64> = r.subscripts.iter().map(|s| s.eval(ivs)).collect();
                out.push(MemoryAccess {
                    addr: layout.element_address(kernel, r.array, &subs),
                    size: kernel.array(r.array).elem_size as u32,
                    kind: r.kind,
                    array: r.array,
                });
            }
            return;
        };
        let (lo, hi) = (lp.lower.eval(ivs), lp.upper.eval(ivs));
        let mut v = lo;
        while v <= hi {
            ivs.push(v);
            level(kernel, layout, ivs, out);
            ivs.pop();
            v += lp.step;
        }
    }
    level(kernel, layout, &mut Vec::new(), out);
}

/// Runs `f`, returning its panic message if it panicked.
fn panic_message(f: impl FnOnce()) -> Option<String> {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).err()?;
    Some(match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast_ref::<&str>()
            .map_or_else(String::new, |s| s.to_string()),
    })
}

/// A loop bound for level `l` of a random nest: a constant, or affine in
/// (and possibly capped with `min`) one outer variable.
#[derive(Clone, Debug)]
enum BoundSpec {
    Const(i64),
    Outer(usize, i64),
    Min(usize, i64, i64),
}

impl BoundSpec {
    fn bound(&self, l: usize) -> Bound {
        match *self {
            BoundSpec::Const(k) => Bound::Const(k),
            BoundSpec::Outer(p, c) => Bound::Affine(AffineExpr::var(p % l) + c),
            BoundSpec::Min(p, c, cap) => Bound::Min(AffineExpr::var(p % l) + c, cap),
        }
    }
}

fn arb_bound() -> impl Strategy<Value = BoundSpec> {
    prop_oneof![
        (0i64..6).prop_map(BoundSpec::Const),
        (0usize..3, 0i64..3).prop_map(|(p, c)| BoundSpec::Outer(p, c)),
        (0usize..3, 0i64..4, 0i64..7).prop_map(|(p, c, cap)| BoundSpec::Min(p, c, cap)),
    ]
}

/// Every iteration point of `loops`, plus the all-lower-bounds point that
/// placement evaluates class leaders at (it may lie in an empty range).
fn points_of(loops: &[Loop]) -> Vec<Vec<i64>> {
    fn walk(loops: &[Loop], ivs: &mut Vec<i64>, out: &mut Vec<Vec<i64>>) {
        let Some(lp) = loops.get(ivs.len()) else {
            out.push(ivs.clone());
            return;
        };
        let (lo, hi) = (lp.lower.eval(ivs), lp.upper.eval(ivs));
        let mut v = lo;
        while v <= hi {
            ivs.push(v);
            walk(loops, ivs, out);
            ivs.pop();
            v += lp.step;
        }
    }
    let mut out = Vec::new();
    walk(loops, &mut Vec::new(), &mut out);
    let mut first = Vec::new();
    for lp in loops {
        first.push(lp.lower.eval(&first));
    }
    out.push(first);
    out
}

/// A random affine kernel over 1-D to 3-D arrays: 1–3 loop levels with
/// steps 1–3, inner bounds affine in outer variables and capped with
/// `min` (so inner ranges are sometimes empty), 1–4 read or write
/// references whose subscripts may run backwards. Subscripts are shifted
/// to start at 0 and extents sized from the points actually visited, give
/// or take one element: a tight extent keeps every reference in bounds
/// while the iteration *box* often leaves it, which sends runs through the
/// generator's per-run endpoint check, and a short one makes the kernel
/// fail part-way. The outermost loop has constant bounds, possibly
/// negative, so the kernel can be tiled.
fn arb_affine_kernel() -> impl Strategy<Value = Kernel> {
    let outer = (-2i64..3, 0i64..7, 1i64..=3);
    let inner = proptest::collection::vec((arb_bound(), arb_bound(), 1i64..=3), 0..=2);
    let arrays = proptest::collection::vec((1usize..=3, -1i64..=1, 1usize..=2), 1..=3);
    let refs = proptest::collection::vec(
        (
            0usize..3,
            0u8..10,
            proptest::collection::vec((proptest::collection::vec(-1i64..=2, 3), 0i64..3), 3),
        ),
        1..=4,
    );
    (outer, inner, arrays, refs).prop_map(|((lo0, len0, step0), inner, arrays, refs)| {
        let mut loops = vec![Loop::with_step(lo0, lo0 + len0, step0)];
        for (i, (lower, upper, step)) in inner.into_iter().enumerate() {
            // Constant bounds must not describe an empty loop.
            let upper = match (&lower, upper) {
                (BoundSpec::Const(lo), BoundSpec::Const(hi)) => BoundSpec::Const(lo + hi),
                (_, upper) => upper,
            };
            loops.push(Loop {
                lower: lower.bound(i + 1),
                upper: upper.bound(i + 1),
                step,
            });
        }
        let depth = loops.len();
        let points = points_of(&loops);
        let mut top: Vec<Vec<i64>> = arrays.iter().map(|&(rank, ..)| vec![0; rank]).collect();
        let body: Vec<(usize, bool, Vec<AffineExpr>)> = refs
            .into_iter()
            .map(|(aid, write_roll, subs)| {
                let aid = aid % arrays.len();
                let subs = subs
                    .into_iter()
                    .take(arrays[aid].0)
                    .enumerate()
                    .map(|(k, (coeffs, c))| {
                        let e = coeffs
                            .iter()
                            .take(depth)
                            .enumerate()
                            .fold(AffineExpr::constant(c), |e, (d, &k)| {
                                e + AffineExpr::linear(d, k, 0)
                            });
                        let lo = points.iter().map(|p| e.eval(p)).min().unwrap_or(0);
                        let e = e - lo.min(0);
                        let hi = points.iter().map(|p| e.eval(p)).max().unwrap_or(0);
                        top[aid][k] = top[aid][k].max(hi);
                        e
                    })
                    .collect();
                (aid, write_roll < 3, subs)
            })
            .collect();
        let decls: Vec<ArrayDecl> = arrays
            .iter()
            .zip(&top)
            .enumerate()
            .map(|(i, (&(_, slack, elem), top))| {
                let dims: Vec<usize> = top
                    .iter()
                    .map(|&t| (t + 1 + slack).max(1) as usize)
                    .collect();
                ArrayDecl::new(format!("a{i}"), &dims, 4 * elem)
            })
            .collect();
        let refs = body
            .into_iter()
            .map(|(aid, is_write, subs)| {
                if is_write {
                    ArrayRef::write(ArrayId(aid), subs)
                } else {
                    ArrayRef::read(ArrayId(aid), subs)
                }
            })
            .collect();
        Kernel::new("affine", decls, LoopNest { loops, refs })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn trace_gen_matches_the_naive_walk(
        kernel in arb_affine_kernel(),
        b in 1u64..=17,
        geom in 0usize..5,
    ) {
        // Tiling needs a unit step on the tiled (outermost) loop.
        let kernel = if kernel.nest.loops[0].step == 1 {
            tile(&kernel, &[b])
        } else {
            kernel
        };
        // Placement evaluates class leaders and rejects a kernel whose
        // leader lies outside its array; such kernels keep the natural
        // layout.
        let natural = DataLayout::natural(&kernel);
        let layout = match [(32u64, 4u64), (64, 8), (128, 16), (256, 8)].get(geom) {
            Some(&(t, l)) => match optimize_layout(&kernel, t, l) {
                Ok(report) => report.layout,
                Err(PlacementError::SubscriptOutOfBounds { .. }) => natural,
                Err(e) => panic!("placement failed: {e}"),
            },
            None => natural,
        };
        // Same events, then the same panic (if any), whether the trace is
        // pulled event by event or folded.
        let mut expected = Vec::new();
        let oracle_panic = panic_message(|| oracle_walk(&kernel, &layout, &mut expected));
        let mut by_next = Vec::new();
        let next_panic = panic_message(|| {
            for a in TraceGen::new(&kernel, &layout) {
                by_next.push(a);
            }
        });
        let mut by_fold = Vec::new();
        let fold_panic = panic_message(|| {
            TraceGen::new(&kernel, &layout).for_each(|a| by_fold.push(a));
        });
        prop_assert_eq!(&by_next, &expected, "kernel {}", kernel);
        prop_assert_eq!(&next_panic, &oracle_panic);
        prop_assert_eq!(&by_fold, &expected, "kernel {}", kernel);
        prop_assert_eq!(&fold_panic, &oracle_panic);
    }

    #[test]
    fn tiled_paper_kernels_match_the_naive_walk(k in 0usize..5, b in 1u64..=17) {
        let kernel = &loopir::kernels::all_paper_kernels()[k];
        let tiled = tile_all(kernel, b);
        let layout = optimize_layout(kernel, 64, 8).unwrap().layout;
        let mut expected = Vec::new();
        oracle_walk(&tiled, &layout, &mut expected);
        let got: Vec<MemoryAccess> = TraceGen::new(&tiled, &layout).collect();
        prop_assert_eq!(got, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `check_subscripts` takes one step per innermost run, yet names the
    /// same access a naive per-event walk panics at: the same subscript
    /// message, and the same reference (the walk emits every reference
    /// once per point, so the failing one is the prefix length modulo the
    /// reference count). A kernel it passes walks to the end. The
    /// generator's subscripts never go below 0, so one subscript is
    /// nudged by -1, 0 or +1 to leave its array from below as well.
    #[test]
    fn subscript_check_names_the_naive_walks_first_out_of_bounds_access(
        kernel in arb_affine_kernel(),
        b in 1u64..=17,
        (r, k, delta) in (0usize..4, 0usize..3, -1i64..=1),
    ) {
        let mut kernel = kernel;
        let refs = &mut kernel.nest.refs;
        let n = refs.len();
        let subs = &mut refs[r % n].subscripts;
        let k = k % subs.len();
        subs[k] = subs[k].clone() + delta;
        let tiled = (kernel.nest.loops[0].step == 1).then(|| tile(&kernel, &[b]));
        for kernel in std::iter::once(&kernel).chain(&tiled) {
            let layout = DataLayout::natural(kernel);
            let mut prefix = Vec::new();
            let oracle_panic = panic_message(|| oracle_walk(kernel, &layout, &mut prefix));
            match (check_subscripts(kernel), oracle_panic) {
                (Ok(()), None) => {}
                (Err(e), Some(message)) => {
                    prop_assert_eq!(e.to_string(), message, "kernel {}", kernel);
                    prop_assert_eq!(e.reference, prefix.len() % kernel.nest.refs.len());
                }
                (got, want) => prop_assert!(
                    false,
                    "kernel {}: check says {:?}, the walk panics with {:?}",
                    kernel,
                    got,
                    want
                ),
            }
        }
    }
}

/// Reads `a[i]` and writes `c[i + 1]` for `i` in `0..=7`, with `c`
/// holding 8 elements: the write to `c[8]` is the only out-of-bounds
/// reference.
fn write_overflows_kernel() -> Kernel {
    let a = ArrayDecl::new("a", &[8], 4);
    let c = ArrayDecl::new("c", &[8], 4);
    let nest = LoopNest {
        loops: vec![Loop::new(0, 7)],
        refs: vec![
            ArrayRef::read(ArrayId(0), vec![AffineExpr::var(0)]),
            ArrayRef::write(ArrayId(1), vec![AffineExpr::var(0) + 1]),
        ],
    };
    Kernel::new("write-oob", vec![a, c], nest)
}

#[test]
#[should_panic(expected = "out of bounds")]
fn read_trace_panics_when_only_a_write_leaves_its_array() {
    let kernel = write_overflows_kernel();
    let _ = memexplore::metrics::read_trace(&kernel, &DataLayout::natural(&kernel));
}

#[test]
fn lazy_out_of_bounds_trace_yields_the_oracle_prefix_then_the_same_panic() {
    let kernel = write_overflows_kernel();
    let layout = DataLayout::natural(&kernel);
    let mut prefix = Vec::new();
    let oracle_panic = panic_message(|| oracle_walk(&kernel, &layout, &mut prefix));
    let oracle_panic = oracle_panic.expect("the oracle walk panics");
    assert!(oracle_panic.contains("out of bounds"), "{oracle_panic}");
    // 8 reads and 7 writes precede the write to c[8].
    assert_eq!(prefix.len(), 15);
    let taken: Vec<MemoryAccess> = TraceGen::new(&kernel, &layout).take(prefix.len()).collect();
    assert_eq!(taken, prefix);
    let gen_panic = panic_message(|| {
        let _ = TraceGen::new(&kernel, &layout).nth(prefix.len());
    });
    assert_eq!(gen_panic.as_deref(), Some(oracle_panic.as_str()));
}

/// The `(T, L)` pairs of the expansive grid, in sweep order.
fn expansive_pairs() -> Vec<(u64, u64)> {
    let space = memexplore::DesignSpace::expansive();
    let mut pairs = Vec::new();
    for &t in &space.cache_sizes {
        for &l in &space.line_sizes {
            if l <= t && t / l >= space.min_lines {
                pairs.push((t as u64, l as u64));
            }
        }
    }
    pairs
}

/// `optimize_layout` and the eager oracle agree: the same report, or
/// both reject the kernel (a class leader outside its array is a typed
/// error here and a panic in the oracle's address arithmetic).
fn assert_placement_matches_the_oracle(kernel: &Kernel, t: u64, l: u64) {
    let got = std::panic::catch_unwind(|| optimize_layout(kernel, t, l));
    let want = std::panic::catch_unwind(|| placement_oracle::optimize_layout(kernel, t, l));
    match (got, want) {
        (Ok(got), Ok(want)) => assert_eq!(got, want, "kernel {kernel} at T={t} L={l}"),
        (Ok(Err(PlacementError::SubscriptOutOfBounds { .. })), Err(_)) => {}
        (got, want) => panic!(
            "kernel {kernel} at T={t} L={l}: one side panicked: {:?} vs {:?}",
            got.is_ok(),
            want.is_ok()
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Affine kernels can pin two classes of one array at a fixed, too
    /// short distance, so no candidate is collision-free and both searches
    /// scan every (pitch, base) pair: at most `(T/4)²` = 65,536 candidates
    /// up to 1 KiB, which the budget covers (and a debug run can afford).
    #[test]
    fn affine_kernel_placement_matches_the_eager_oracle(
        kernel in arb_affine_kernel(),
        pair in 0usize..144,
    ) {
        let pairs: Vec<(u64, u64)> =
            expansive_pairs().into_iter().filter(|&(t, _)| t <= 1024).collect();
        let (t, l) = pairs[pair % pairs.len()];
        assert_placement_matches_the_oracle(&kernel, t, l);
    }

    /// The stencil kernels' classes share one `H` per array. Up to 4 KiB
    /// every scan fits the budget (`(T/4)²` ≤ 2^20 candidates); above it
    /// the windows (at most 12 × 12 × 4 bytes per array) fit the cache
    /// with room to spare, so a collision-free candidate ends the scan
    /// early. Any expansive pair up to 8 MiB, sampled.
    #[test]
    fn stencil_kernel_placement_matches_the_eager_oracle(
        kernel in arb_kernel(),
        pair in 0usize..144,
    ) {
        let (t, l) = expansive_pairs()[pair];
        assert_placement_matches_the_oracle(&kernel, t, l);
    }
}
