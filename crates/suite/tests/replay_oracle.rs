//! The scalar-replay oracle: on every paper kernel, the sweep's records
//! must equal, bit for bit, what `Evaluator::evaluate_with_trace` gives
//! each design alone — a scalar `Simulator` over the raw, uncompressed
//! trace, with no classify step, no compression and no bank.
//!
//! The sweep runner feeds both engines from the same prepared inputs
//! (fused banks and per-design units replay the same compressed trace),
//! so comparing the engines with each other cannot catch a fault they
//! share. This suite keeps an independent reference for both, on the
//! paper grid and on an ample grid where the analytic fast path resolves
//! groups in closed form. Records of the Pareto frontier `memx pareto`
//! prints (`select::pareto3` over the sweep) are checked against the same
//! reference.

use loopir::kernels;
use loopir::transform::tile_all;
use loopir::Kernel;
use memexplore::metrics::read_trace;
use memexplore::{select, CacheDesign, DesignSpace, Engine, Evaluator, Explorer, Record};
use std::collections::HashMap;

/// Each design's record from a scalar replay of its own trace. Layouts
/// and traces are shared per `(T, L)` and `(T, L, B)` only to save time;
/// every design still replays alone.
fn scalar_records(evaluator: &Evaluator, kernel: &Kernel, designs: &[CacheDesign]) -> Vec<Record> {
    let mut layouts = HashMap::new();
    let mut traces = HashMap::new();
    designs
        .iter()
        .map(|&d| {
            let (layout, conflict_free) = layouts
                .entry((d.cache_size, d.line))
                .or_insert_with(|| evaluator.layout_for(kernel, d.cache_size, d.line))
                .clone();
            let trace = traces
                .entry((d.cache_size, d.line, d.tiling))
                .or_insert_with(|| read_trace(&tile_all(kernel, d.tiling), &layout));
            evaluator.evaluate_with_trace(d, trace, conflict_free)
        })
        .collect()
}

/// A grid whose every cache holds the kernel's whole array footprint, so
/// the analytic fast path can resolve its trace groups.
fn ample_space(kernel: &Kernel) -> DesignSpace {
    let footprint = memexplore::analytic::kernel_footprint_bytes(kernel);
    let base = usize::try_from(footprint.next_power_of_two()).expect("small kernels");
    DesignSpace {
        cache_sizes: vec![base, base * 2],
        line_sizes: vec![8, 16],
        assocs: vec![1, 2],
        tilings: vec![1],
        min_lines: 1,
        ..Default::default()
    }
}

fn assert_replay_oracle(kernel: &Kernel) {
    for space in [DesignSpace::paper(), ample_space(kernel)] {
        let designs = space.designs();
        let oracle = scalar_records(&Evaluator::default(), kernel, &designs);
        let by_design: HashMap<CacheDesign, &Record> =
            designs.iter().copied().zip(&oracle).collect();
        for engine in [Engine::Fused, Engine::PerDesign] {
            let explorer = Explorer::default().with_engine(engine);
            let swept = explorer.explore_designs(kernel, &designs);
            for ((got, want), d) in swept.iter().zip(&oracle).zip(&designs) {
                assert_eq!(
                    got, want,
                    "{} ({engine}): sweep diverged from scalar replay at {d}",
                    kernel.name
                );
            }
            for r in &select::pareto3(&swept) {
                assert_eq!(
                    Some(&r),
                    by_design.get(&r.design),
                    "{} ({engine}): frontier record diverged from scalar replay",
                    kernel.name
                );
            }
        }
    }
}

#[test]
fn scalar_replay_oracle_on_compress() {
    assert_replay_oracle(&kernels::compress(31));
}

#[test]
fn scalar_replay_oracle_on_matmul() {
    assert_replay_oracle(&kernels::matmul(31));
}

#[test]
fn scalar_replay_oracle_on_pde() {
    assert_replay_oracle(&kernels::pde(31));
}

#[test]
fn scalar_replay_oracle_on_sor() {
    assert_replay_oracle(&kernels::sor(31));
}

#[test]
fn scalar_replay_oracle_on_dequant() {
    assert_replay_oracle(&kernels::dequant(31));
}
