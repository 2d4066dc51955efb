//! The plan-backed trace source against the materialized read trace.
//!
//! Sweeps and search batches stream each kernel trace from
//! its compiled plan (`memexplore::metrics::PlanSource`, built on
//! `loopir::TraceGen::fill`) instead of holding it. Here, on random affine
//! kernels — negative induction variables, `min`-capped and empty inner
//! runs, steps above one, subscripts that run backwards, tiled nests, and
//! kernels that leave an array part-way — the source's chunks at several
//! capacities must concatenate to exactly the reads of `read_trace`, and
//! an out-of-bounds kernel must panic at the same event with the same
//! message.
//!
//! The kernel generator is the one `random_kernels.rs` checks the
//! generator itself against a naive walk with.

use analysis::placement::{optimize_layout, PlacementError};
use loopir::transform::tile;
use loopir::{
    AccessKind, AffineExpr, ArrayDecl, ArrayId, ArrayRef, Bound, DataLayout, Kernel, Loop,
    LoopNest, TraceGen,
};
use memexplore::metrics::{read_trace, PlanSource};
use memsim::{TraceEvent, TraceSource};
use proptest::prelude::*;

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

/// The reads of a whole walk pulled through a `PlanSource` in chunks of
/// `capacity`, with the panic message if the walk panicked (the events
/// before the panic included).
fn chunked_reads(
    kernel: &Kernel,
    layout: &DataLayout,
    capacity: usize,
) -> (Vec<TraceEvent>, Option<String>) {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    let panic = panic_message(|| {
        let mut source = PlanSource::new(kernel, layout);
        while source
            .fill(&mut buf, capacity)
            .expect("a plan source never fails")
            > 0
        {
            assert!(buf.len() <= capacity);
            out.extend_from_slice(&buf);
        }
    });
    // After a panic, `buf` holds the events of the chunk it cut short.
    out.extend_from_slice(&buf);
    (out, panic)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn plan_source_chunks_concatenate_to_the_read_trace(
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
        let natural = DataLayout::natural(&kernel);
        let layout = match [(32u64, 4u64), (64, 8), (128, 16), (256, 8)].get(geom) {
            // A class leader outside its array keeps the natural layout.
            Some(&(t, l)) => match optimize_layout(&kernel, t, l) {
                Ok(report) => report.layout,
                Err(PlacementError::SubscriptOutOfBounds { .. }) => natural,
                Err(e) => panic!("placement failed: {e}"),
            },
            None => natural,
        };
        let mut expected = Vec::new();
        let expected_panic = panic_message(|| {
            for a in TraceGen::new(&kernel, &layout) {
                if a.kind == AccessKind::Read {
                    expected.push(TraceEvent::read(a.addr, a.size));
                }
            }
        });
        if expected_panic.is_none() {
            prop_assert_eq!(&expected, &read_trace(&kernel, &layout));
        }
        for capacity in [1, 3, 7, 4096] {
            let (got, panic) = chunked_reads(&kernel, &layout, capacity);
            prop_assert_eq!(&got, &expected, "capacity {} on {}", capacity, kernel);
            prop_assert_eq!(&panic, &expected_panic);
        }
    }
}

#[test]
fn plan_source_matches_read_trace_on_tiled_paper_kernels() {
    for kernel in loopir::kernels::all_paper_kernels() {
        let layout = optimize_layout(&kernel, 64, 8).unwrap().layout;
        for b in [1, 3, 16] {
            let tiled = loopir::transform::tile_all(&kernel, b);
            let expected = read_trace(&tiled, &layout);
            for capacity in [1, 3, 7, 4096] {
                let (got, panic) = chunked_reads(&tiled, &layout, capacity);
                assert_eq!(panic, None);
                assert!(got == expected, "{} B={b} capacity {capacity}", kernel.name);
            }
        }
    }
}
