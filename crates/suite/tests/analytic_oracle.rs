//! Differential oracle for the analytic fast path.
//!
//! `memexplore::analytic::try_group_records` (built on `analysis::exact`)
//! resolves a whole trace group in closed form instead of replaying it.
//! No sweep or search calls it any more; the benchmark harness's staged
//! run still does, and that is only sound if the closed form is
//! *bit-identical* to simulation, so two layers pin it:
//!
//! 1. **End to end**: on seven kernels (the paper's five plus the stencil
//!    and conv2d extras), every trace group it resolves must equal the
//!    scalar reference (`Evaluator::evaluate_with_trace`, one design at a
//!    time) — on the paper grid (where the capacity gate keeps it
//!    dormant) and on an ample grid sized to actually trigger it.
//! 2. **Unit**: any report the classifier approves as analytic-exact must
//!    reproduce the naive `memsim::reference` model's counters exactly,
//!    over random read traces and random geometries.

use analysis::exact::{exact_report, profile_read_class};
use loopir::transform::tile_all;
use loopir::{kernels, Kernel};
use memexplore::analytic::{kernel_footprint_bytes, try_group_records};
use memexplore::metrics::read_trace;
use memexplore::{CacheDesign, DesignSpace, Evaluator};
use memsim::reference::ReferenceCache;
use memsim::{BusEncoding, CacheConfig, TraceEvent};
use proptest::prelude::*;

/// The paper's five evaluation kernels plus the two library extras.
fn seven_kernels() -> Vec<Kernel> {
    let mut v = kernels::all_paper_kernels();
    v.push(kernels::stencil(31));
    v.push(kernels::conv2d(16, 3));
    v
}

/// A grid whose every cache holds the kernel's whole array footprint, so
/// the capacity gate admits each trace group to classification.
fn ample_space(kernel: &Kernel) -> DesignSpace {
    let footprint: u64 = kernel_footprint_bytes(kernel);
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

/// A trace group: its (layout, tiling) key and its bank.
type Group = ((loopir::DataLayout, u64), Vec<(CacheDesign, bool)>);

/// Groups `space`'s designs by trace (layout, tiling), offers each group
/// to the closed form, and checks every resolved record against the
/// scalar reference. Returns how many groups resolved, of how many.
fn assert_analytic_oracle(kernel: &Kernel, space: &DesignSpace) -> (usize, usize) {
    let evaluator = Evaluator::default();
    let footprint = kernel_footprint_bytes(kernel);
    let mut groups: Vec<Group> = Vec::new();
    for d in space.designs() {
        let (layout, conflict_free) = evaluator.layout_for(kernel, d.cache_size, d.line);
        let key = (layout, d.tiling);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, bank)) => bank.push((d, conflict_free)),
            None => groups.push((key, vec![(d, conflict_free)])),
        }
    }
    let mut resolved = 0;
    for ((layout, tiling), bank) in &groups {
        let trace = read_trace(&tile_all(kernel, *tiling), layout);
        let Some(records) = try_group_records(&evaluator, footprint, bank, &trace) else {
            continue;
        };
        resolved += 1;
        for (record, &(d, conflict_free)) in records.iter().zip(bank) {
            assert_eq!(
                *record,
                evaluator.evaluate_with_trace(d, &trace, conflict_free),
                "{}: closed form diverged from the scalar reference at {d}",
                kernel.name
            );
        }
    }
    (resolved, groups.len())
}

#[test]
fn analytic_matches_simulation_on_the_paper_grid() {
    // The paper grid's caches sit far below every kernel footprint, so
    // the capacity gate keeps the closed form dormant there.
    let space = DesignSpace::paper();
    for kernel in seven_kernels() {
        let (resolved, _) = assert_analytic_oracle(&kernel, &space);
        assert_eq!(
            resolved, 0,
            "{}: paper grid should never classify",
            kernel.name
        );
    }
}

#[test]
fn analytic_fast_path_fires_and_matches_on_ample_grids() {
    for kernel in seven_kernels() {
        let (resolved, groups) = assert_analytic_oracle(&kernel, &ample_space(&kernel));
        assert!(
            resolved > 0,
            "{}: ample grid should trigger the closed form (0 of {groups} groups)",
            kernel.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any (trace, geometry) the classifier approves must reproduce the
    /// naive reference model's counters exactly. Rejections are fine —
    /// they just mean the design simulates — but an approval is a claim
    /// of bit-identity, checked here against an implementation that
    /// shares no code with either the classifier or the replay engine.
    #[test]
    fn approved_classifications_match_the_reference_model(
        accesses in proptest::collection::vec((0u64..4096, 1u32..9), 1..200),
        line_pow in 2u32..7,   // 4..=64 B lines
        cache_pow in 6u32..13, // 64..=4096 B caches
        assoc_pow in 0u32..3,  // 1, 2, 4 ways
    ) {
        let line = 1usize << line_pow;
        let cache = 1usize << cache_pow;
        let assoc = 1usize << assoc_pow;
        prop_assume!(line <= cache && assoc <= cache / line);
        let events: Vec<TraceEvent> = accesses
            .iter()
            .map(|&(addr, size)| TraceEvent::read(addr, size))
            .collect();
        let profile = profile_read_class(&events, line, BusEncoding::Gray)
            .expect("read-only traces always profile");
        let config = CacheConfig::new(cache, line, assoc).expect("powers of two");
        if let Some(report) = exact_report(&profile, config) {
            let stats = ReferenceCache::simulate(config, events.iter().copied());
            prop_assert_eq!(report.stats, stats);
        }
    }
}
