//! Shrunk counterexamples from past property-test failures, promoted to
//! named deterministic tests.
//!
//! The vendored proptest does not persist or replay
//! `.proptest-regressions` seed files, so the kernels those files record
//! would otherwise only be re-hit by luck. Each kernel below is the
//! minimal counterexample proptest shrank a historical failure to
//! (reconstructed verbatim from the seed comments); every invariant of
//! the originating suite runs against it on every `cargo test`, not just
//! when the RNG happens to land nearby.

use analysis::classes::{partition_cases, partition_classes};
use analysis::min_cache::MinCacheReport;
use analysis::missrate::analytical_miss_rate;
use analysis::placement::optimize_layout;
use loopir::transform::tile_all;
use loopir::{
    AccessKind, AffineExpr, ArrayDecl, ArrayId, ArrayRef, DataLayout, Kernel, Loop, LoopNest,
    TraceGen,
};
use memexplore::{select, CacheDesign, DesignSpace, Evaluator, Explorer, Objective, SearchOptions};
use memsim::{CacheConfig, Replacement, Simulator, TraceEvent, WritePolicy};
use std::collections::BTreeMap;

/// `tests/random_kernels.proptest-regressions` seed b93d340a: three 5×6
/// arrays, reads of `a1[i0][i1]`, `a0[i0+1][i1]`, `a0[i0][i1-1]`.
fn seed_three_arrays_offset_reads() -> Kernel {
    let arrays: Vec<ArrayDecl> = (0..3)
        .map(|i| ArrayDecl::new(format!("a{i}"), &[5, 6], 4))
        .collect();
    let refs = vec![
        ArrayRef::read(ArrayId(1), vec![AffineExpr::var(0), AffineExpr::var(1)]),
        ArrayRef::read(ArrayId(0), vec![AffineExpr::var(0) + 1, AffineExpr::var(1)]),
        ArrayRef::read(ArrayId(0), vec![AffineExpr::var(0), AffineExpr::var(1) - 1]),
    ];
    Kernel::new(
        "SeedB93d",
        arrays,
        LoopNest {
            loops: vec![Loop::new(1, 3), Loop::new(1, 4)],
            refs,
        },
    )
}

/// `tests/random_kernels.proptest-regressions` seed cc629130: two 6×9
/// arrays, four reads all shifted toward the `i0 - 1` / `i1 - 1` corner.
fn seed_two_arrays_corner_reads() -> Kernel {
    let arrays: Vec<ArrayDecl> = (0..2)
        .map(|i| ArrayDecl::new(format!("a{i}"), &[6, 9], 4))
        .collect();
    let refs = vec![
        ArrayRef::read(
            ArrayId(0),
            vec![AffineExpr::var(0) - 1, AffineExpr::var(1) - 1],
        ),
        ArrayRef::read(ArrayId(0), vec![AffineExpr::var(0) - 1, AffineExpr::var(1)]),
        ArrayRef::read(ArrayId(1), vec![AffineExpr::var(0) - 1, AffineExpr::var(1)]),
        ArrayRef::read(ArrayId(1), vec![AffineExpr::var(0), AffineExpr::var(1) - 1]),
    ];
    Kernel::new(
        "SeedCc62",
        arrays,
        LoopNest {
            loops: vec![Loop::new(1, 4), Loop::new(1, 7)],
            refs,
        },
    )
}

/// `crates/analysis/tests/properties.proptest-regressions` seed 483f5f84:
/// one 5×5 array with a single centred read.
fn seed_single_centred_read() -> Kernel {
    let arrays = vec![ArrayDecl::new("a0", &[5, 5], 4)];
    let refs = vec![ArrayRef::read(
        ArrayId(0),
        vec![AffineExpr::var(0), AffineExpr::var(1)],
    )];
    Kernel::new(
        "Seed483f",
        arrays,
        LoopNest {
            loops: vec![Loop::new(1, 3), Loop::new(1, 3)],
            refs,
        },
    )
}

fn sweep_seeds() -> Vec<Kernel> {
    vec![
        seed_three_arrays_offset_reads(),
        seed_two_arrays_corner_reads(),
    ]
}

fn address_multiset(kernel: &Kernel, layout: &DataLayout) -> BTreeMap<u64, usize> {
    let mut m = BTreeMap::new();
    for a in TraceGen::new(kernel, layout) {
        *m.entry(a.addr).or_insert(0) += 1;
    }
    m
}

#[test]
fn seed_kernels_trace_length_is_iterations_times_refs() {
    for kernel in sweep_seeds() {
        let layout = DataLayout::natural(&kernel);
        let n = TraceGen::new(&kernel, &layout).count();
        let expected =
            kernel.nest.const_iteration_count().unwrap() as usize * kernel.nest.refs.len();
        assert_eq!(n, expected, "{}", kernel.name);
    }
}

#[test]
fn seed_kernels_tiling_preserves_the_address_multiset() {
    for kernel in sweep_seeds() {
        let layout = DataLayout::natural(&kernel);
        for b in 1..6 {
            let tiled = tile_all(&kernel, b);
            assert_eq!(
                address_multiset(&kernel, &layout),
                address_multiset(&tiled, &layout),
                "{} tiled by {b}",
                kernel.name
            );
        }
    }
}

#[test]
fn seed_kernels_optimized_layouts_never_overlap() {
    for kernel in sweep_seeds() {
        for (t, l) in [(32u64, 4u64), (64, 8), (128, 16), (256, 8)] {
            let report = optimize_layout(&kernel, t, l).unwrap();
            assert!(
                report.layout.check_no_overlap(&kernel).is_ok(),
                "{} at T={t} L={l}",
                kernel.name
            );
            let rows = kernel.arrays[0].dims[0] as u64;
            let bound = kernel.arrays.len() as u64 * t * (rows + 1);
            assert!(report.padding_bytes <= bound, "{}", kernel.name);
        }
    }
}

#[test]
fn seed_kernels_optimized_evaluation_never_misses_more_than_natural() {
    for kernel in sweep_seeds() {
        let d = CacheDesign::new(64, 8, 1, 1);
        let optimized = Evaluator::default().evaluate(&kernel, d).miss_rate;
        let natural = Evaluator::default()
            .unoptimized()
            .evaluate(&kernel, d)
            .miss_rate;
        assert!(
            optimized <= natural + 1e-12,
            "{}: optimized {optimized} vs natural {natural}",
            kernel.name
        );
    }
}

#[test]
fn seed_kernels_lru_inclusion_property_holds() {
    for kernel in sweep_seeds() {
        let layout = DataLayout::natural(&kernel);
        let events: Vec<TraceEvent> = TraceGen::new(&kernel, &layout)
            .filter(|a| a.kind == AccessKind::Read)
            .map(|a| TraceEvent::read(a.addr, a.size))
            .collect();
        let small = CacheConfig::fully_associative(64, 8).unwrap();
        let large = CacheConfig::fully_associative(128, 8).unwrap();
        let m_small = Simulator::simulate(small, events.iter().copied())
            .stats
            .misses();
        let m_large = Simulator::simulate(large, events).stats.misses();
        assert!(m_large <= m_small, "{}", kernel.name);
    }
}

#[test]
fn seed_kernels_conflict_free_reports_imply_zero_conflict_misses() {
    for kernel in sweep_seeds() {
        let report = optimize_layout(&kernel, 128, 8).unwrap();
        if !report.conflict_free {
            continue; // the property only constrains conflict-free reports
        }
        let cfg = CacheConfig::new(128, 8, 1).unwrap();
        let events = TraceGen::new(&kernel, &report.layout)
            .filter(|a| a.kind == AccessKind::Read)
            .map(|a| TraceEvent::read(a.addr, a.size));
        let sim = Simulator::simulate_classified(cfg, events);
        assert_eq!(sim.miss_classes.unwrap().conflict, 0, "{}", kernel.name);
    }
}

#[test]
fn search_seed_policy_cost_ties_keep_the_first_sweep_variant() {
    // Found while developing `search_props`: the energy model is
    // replacement- and write-policy-independent, so a grid with policy
    // axes is full of *bitwise-identical* costs. A numeric gap-0 stop
    // (`incumbent − bound ≤ 0`) terminates on the first tie and can
    // return a later-in-sweep-order policy variant; certification must
    // compare full tie-break keys so the incumbent stays bit-identical
    // to the sweep's first-wins minimum.
    let space = DesignSpace {
        cache_sizes: vec![32, 64],
        line_sizes: vec![4, 8],
        assocs: vec![1, 2],
        tilings: vec![1, 2],
        min_lines: 1,
        replacements: vec![Replacement::Lru, Replacement::Fifo, Replacement::Plru],
        write_policies: vec![WritePolicy::default()],
    };
    let explorer = Explorer::default();
    for kernel in sweep_seeds() {
        let records = explorer.explore(&kernel, &space);
        for objective in [Objective::Energy, Objective::Cycles] {
            let out = explorer.search(
                &kernel,
                &space,
                &SearchOptions {
                    objective,
                    ..Default::default()
                },
            );
            assert!(out.complete, "{}/{objective}", kernel.name);
            let oracle = match objective {
                Objective::Energy => select::min_energy(&records),
                _ => select::min_cycles(&records),
            }
            .expect("non-empty");
            assert_eq!(
                out.incumbent.as_ref().expect("incumbent"),
                oracle,
                "{}/{objective}: wrong policy variant survived the tie",
                kernel.name
            );
        }
    }
}

#[test]
fn search_seed_loose_cycles_bound_still_terminates_complete() {
    // Found while developing `search_oracle`: MatMult's cycles bound
    // (derived from the untiled trace's miss floor) is loose enough to
    // prune nothing, which exercises the exhaust-the-heap exit path.
    // The search must still drain every candidate and certify gap 0
    // rather than spinning or reporting an open bound.
    let kernel = loopir::kernels::matmul(7);
    let space = DesignSpace {
        cache_sizes: vec![16, 32, 64],
        line_sizes: vec![4, 8],
        assocs: vec![1, 2],
        tilings: vec![1, 2, 4],
        min_lines: 1,
        ..Default::default()
    };
    let explorer = Explorer::default();
    let records = explorer.explore(&kernel, &space);
    let out = explorer.search(
        &kernel,
        &space,
        &SearchOptions {
            objective: Objective::Cycles,
            ..Default::default()
        },
    );
    assert!(out.complete);
    assert_eq!(out.gap(), 0.0);
    assert_eq!(
        out.incumbent.as_ref().expect("incumbent"),
        select::min_cycles(&records).expect("non-empty")
    );
}

#[test]
fn analysis_seed_classes_cover_every_distinct_read() {
    let kernel = seed_single_centred_read();
    let classes = partition_classes(&kernel, true);
    let covered: usize = classes.iter().map(|c| c.members.len()).sum();
    assert_eq!(covered, 1);
    assert_eq!(classes.len(), 1);
}

#[test]
fn analysis_seed_cases_partition_the_classes() {
    let kernel = seed_single_centred_read();
    let classes = partition_classes(&kernel, false);
    let cases = partition_cases(&classes);
    let total: usize = cases.iter().map(Vec::len).sum();
    assert_eq!(total, classes.len());
}

#[test]
fn analysis_seed_min_cache_bound_scales_with_line() {
    let kernel = seed_single_centred_read();
    let mut prev = 0;
    for ls in 2u32..6 {
        let line = 1u64 << ls;
        let report = MinCacheReport::analyze(&kernel, line);
        assert!(report.total_lines >= 1);
        assert!(report.min_cache_bytes() >= prev, "line {line}");
        prev = report.min_cache_bytes();
    }
}

#[test]
fn analysis_seed_analytical_miss_rate_is_a_weakly_decreasing_rate() {
    let kernel = seed_single_centred_read();
    let mut prev = f64::INFINITY;
    for l in [4u64, 8, 16, 32] {
        let mr = analytical_miss_rate(&kernel, l);
        assert!((0.0..=1.0).contains(&mr), "line {l}: {mr}");
        assert!(mr <= prev, "line {l}: {mr} > {prev}");
        prev = mr;
    }
}

#[test]
fn analysis_seed_placement_report_is_internally_consistent() {
    let kernel = seed_single_centred_read();
    for (t, l) in [(64u64, 8u64), (128, 16), (256, 8)] {
        let report = optimize_layout(&kernel, t, l).expect("placement succeeds");
        assert!(report.layout.check_no_overlap(&kernel).is_ok());
        // One small array always fits conflict-free.
        assert!(report.conflict_free, "T={t} L={l}");
    }
}

/// `tests/kernels/worst.mx`: two ~40 KB reuse windows that cannot share a
/// 64 KiB cache, so no candidate layout is collision-free and the scan
/// over every (pitch, base) pair (2^28 candidates per array) used to run
/// for minutes. The candidate budget bounds it; the best-effort layout
/// must still be a valid, non-overlapping one.
#[test]
fn hostile_geometry_placement_is_bounded_and_valid() {
    let path = format!("{}/tests/kernels/worst.mx", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("worst.mx is readable");
    let kernel = loopir::parse_kernel(&text).expect("worst.mx parses");
    let report = optimize_layout(&kernel, 65536, 16).expect("placeable");
    assert!(!report.conflict_free, "{report:?}");
    assert!(report.colliding_classes > 0, "{report:?}");
    assert!(
        report.layout.check_no_overlap(&kernel).is_ok(),
        "{report:?}"
    );
}
