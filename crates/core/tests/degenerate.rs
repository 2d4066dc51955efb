//! Degenerate-configuration edge cases for the evaluator, the sweep and
//! the Pareto frontier over its records.
//!
//! The paper grid never reaches these corners (it requires ≥ 4 lines and
//! kernels always read something), so they get dedicated coverage:
//! single-line caches (`T == L`), fully associative caches
//! (`S == T / L`), tilings as large as the loop itself (a single tile),
//! and kernels whose read trace is empty.

use loopir::transform::tile_all;
use loopir::DataLayout;
use loopir::{kernels, AffineExpr, ArrayDecl, ArrayId, ArrayRef, Kernel, Loop, LoopNest};
use memexplore::metrics::read_trace;
use memexplore::{select, CacheDesign, DesignSpace, Evaluator, Explorer, Record};

/// A kernel that only writes — its read trace is empty.
fn write_only_kernel() -> Kernel {
    let arrays = vec![ArrayDecl::new("out", &[8, 8], 4)];
    let refs = vec![ArrayRef::write(
        ArrayId(0),
        vec![AffineExpr::var(0), AffineExpr::var(1)],
    )];
    Kernel::new(
        "WriteOnly",
        arrays,
        LoopNest {
            loops: vec![Loop::new(0, 7), Loop::new(0, 7)],
            refs,
        },
    )
}

#[test]
fn single_line_cache_evaluates_sanely() {
    // T == L: one line, no index bits, every distinct line conflicts.
    let kernel = kernels::dequant(15);
    let record = Evaluator::default().evaluate(&kernel, CacheDesign::new(16, 16, 1, 1));
    assert!(record.miss_rate > 0.0 && record.miss_rate <= 1.0);
    assert!(record.cycles > 0.0 && record.cycles.is_finite());
    assert!(record.energy_nj > 0.0 && record.energy_nj.is_finite());
}

#[test]
fn fully_associative_never_misses_more_than_direct_mapped() {
    // S == T / L removes all conflict misses; with LRU (a stack
    // algorithm) the miss count can only drop relative to direct-mapped.
    let kernel = kernels::sor(15);
    let evaluator = Evaluator::default();
    let direct = evaluator.evaluate(&kernel, CacheDesign::new(64, 8, 1, 1));
    let full = evaluator.evaluate(&kernel, CacheDesign::new(64, 8, 8, 1));
    assert!(full.miss_rate <= direct.miss_rate);
}

#[test]
fn tiling_covering_the_whole_loop_replays_the_untiled_trace() {
    // A tile at least as large as the loop extent is a single tile — the
    // iteration order, and therefore the trace, must be exactly the
    // untiled one.
    let kernel = kernels::matadd(6); // 6-iteration loops
    let layout = DataLayout::natural(&kernel);
    let untiled = read_trace(&kernel, &layout);
    for b in [8u64, 16, 1024] {
        let tiled = read_trace(&tile_all(&kernel, b), &layout);
        assert_eq!(untiled, tiled, "tile size {b} must be a single tile");
    }
}

#[test]
fn empty_read_trace_yields_zeroed_record() {
    let kernel = write_only_kernel();
    let record = Evaluator::default().evaluate(&kernel, CacheDesign::new(64, 8, 1, 1));
    assert_eq!(record.trip_count, 0);
    assert_eq!(record.miss_rate, 0.0);
    assert_eq!(record.cycles, 0.0);
    assert_eq!(record.energy_nj, 0.0);
}

/// The Pareto frontier of `kernel` over `space` from the banked sweep,
/// checked (records and frontier) against each design evaluated alone.
fn engine_frontiers(kernel: &Kernel, space: &DesignSpace) -> Vec<Record> {
    let designs = space.designs();
    let evaluator = Evaluator::default();
    let alone: Vec<Record> = designs
        .iter()
        .map(|&d| evaluator.evaluate(kernel, d))
        .collect();
    let reference = select::pareto3(&alone);
    let swept = Explorer::default().explore_designs(kernel, &designs);
    assert_eq!(swept, alone);
    assert_eq!(select::pareto3(&swept), reference);
    reference
}

#[test]
fn pareto_engines_agree_on_a_degenerate_space() {
    // min_lines == 1 admits T == L; assoc 8 reaches fully associative at
    // T/L == 8. Banked replay must stay exact out here too.
    let space = DesignSpace {
        cache_sizes: vec![16, 32, 64],
        line_sizes: vec![8, 16],
        assocs: vec![1, 8],
        tilings: vec![1, 16],
        min_lines: 1,
        ..Default::default()
    };
    let frontier = engine_frontiers(&kernels::dequant(15), &space);
    assert!(!frontier.is_empty());
}

#[test]
fn pareto_engines_agree_on_an_empty_read_trace() {
    // Every design costs the same (zero), so the frontier collapses to
    // the smallest cache and the sweep must agree with the reference on
    // which records survive the tie-break.
    let frontier = engine_frontiers(&write_only_kernel(), &DesignSpace::small());
    assert!(!frontier.is_empty());
    let smallest = DesignSpace::small().cache_sizes[0];
    assert!(frontier.iter().all(|r| r.design.cache_size == smallest));
}
