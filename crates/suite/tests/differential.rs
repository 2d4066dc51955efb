//! Differential harness: the analytical miss-rate model vs the
//! trace-driven simulator, for every kernel in `loopir::kernels`.
//!
//! Three layers of checks over `DesignSpace::small()` sweeps run by the
//! sweep engine:
//!
//! 1. **conservation** — for every design, hit + miss counts equal the
//!    materialized trace length exactly (nothing is dropped, duplicated,
//!    or split by the chunked replay path);
//! 2. **lower bound** — the analytical model counts compulsory (spatial)
//!    misses only, so for *single-pass* kernels — whose only reuse is the
//!    spatial reuse the model already counts — the simulated miss rate
//!    may not undercut it by more than `LOWER_BOUND_TOL` at any design
//!    point. Kernels with cross-iteration temporal reuse (matmul, FIR,
//!    conv2d, matvec, transpose) legitimately beat the model and are
//!    excluded from this bound;
//! 3. **convergence** — at ample capacity (`C1024`, where the paper's
//!    conflict-free placement holds the whole reuse window) the model is
//!    an upper bound within `AMPLE_TOL` for every kernel, and a
//!    two-sided match within `AMPLE_TOL` for the single-pass kernels.

use loopir::transform::tile_all;
use loopir::{kernels, Kernel};
use memexplore::metrics::read_trace;
use memexplore::{CacheDesign, DesignSpace, Evaluator, Explorer};
use memsim::Simulator;

/// The simulated miss rate may exceed the compulsory-only analytical
/// estimate freely (capacity/conflict misses), but for single-pass
/// kernels it may undercut it only by edge effects of the closed forms.
const LOWER_BOUND_TOL: f64 = 0.02;

/// Agreement required at ample capacity (measured headroom: the largest
/// observed deviation for single-pass kernels is PDE at +0.035).
const AMPLE_TOL: f64 = 0.05;

/// Kernels whose only data reuse is the spatial reuse the analytical
/// model counts — one pass over each array, stencil or streaming access.
fn single_pass_kernels() -> Vec<Kernel> {
    vec![
        kernels::compress(15),
        kernels::pde(15),
        kernels::sor(15),
        kernels::dequant(15),
        kernels::matadd(15),
        kernels::stencil(15),
    ]
}

/// Every kernel constructor in `loopir::kernels`, at sizes small enough
/// to sweep exhaustively.
fn every_kernel() -> Vec<Kernel> {
    let mut ks = single_pass_kernels();
    ks.extend([
        kernels::matmul(8),
        kernels::transpose(15),
        kernels::fir(64, 8),
        kernels::conv2d(15, 3),
        kernels::matvec(15),
    ]);
    ks
}

#[test]
fn sweep_counts_conserve_trace_length() {
    let evaluator = Evaluator::default();
    let explorer = Explorer::new(evaluator.clone());
    let space = DesignSpace::small();
    let designs = space.designs();
    for kernel in every_kernel() {
        let records = explorer.explore_designs(&kernel, &designs);
        assert_eq!(records.len(), designs.len());
        for (record, &design) in records.iter().zip(&designs) {
            // Regenerate the trace independently of the sweep.
            let (layout, _) = evaluator.layout_for(&kernel, design.cache_size, design.line);
            let tiled = tile_all(&kernel, design.tiling);
            let trace = read_trace(&tiled, &layout);
            let config = design.cache_config().expect("small() designs are valid");
            let report = Simulator::simulate_slice(config, &trace);
            let hits = report.stats.read_hits;
            let misses = report.stats.read_misses();
            assert_eq!(
                hits + misses,
                trace.len() as u64,
                "{}: hits + misses != trace length at {design}",
                kernel.name
            );
            assert_eq!(
                record.trip_count,
                hits + misses,
                "{}: sweep record trip count diverged at {design}",
                kernel.name
            );
            let miss_rate = misses as f64 / (hits + misses) as f64;
            assert!(
                (record.miss_rate - miss_rate).abs() < 1e-12,
                "{}: sweep miss rate {} vs replayed {} at {design}",
                kernel.name,
                record.miss_rate,
                miss_rate
            );
        }
    }
}

#[test]
fn analytical_model_is_a_lower_bound_for_single_pass_kernels() {
    let evaluator = Evaluator::default();
    let explorer = Explorer::new(evaluator.clone());
    let space = DesignSpace::small();
    let designs = space.designs();
    for kernel in single_pass_kernels() {
        let records = explorer.explore_designs(&kernel, &designs);
        for (record, &design) in records.iter().zip(&designs) {
            let ana = evaluator.evaluate_analytical(&kernel, design).miss_rate;
            assert!(
                record.miss_rate >= ana - LOWER_BOUND_TOL,
                "{}: simulated {} undercut analytical {} at {design}",
                kernel.name,
                record.miss_rate,
                ana
            );
        }
    }
}

#[test]
fn analytical_model_is_an_upper_bound_at_ample_capacity() {
    // A real cache with ample capacity exploits every form of locality
    // the model counts plus temporal reuse the model ignores, so the
    // model can only overestimate (within edge effects).
    let evaluator = Evaluator::default();
    for kernel in every_kernel() {
        for line in [8usize, 16] {
            let design = CacheDesign::new(1024, line, 1, 1);
            let sim = evaluator.evaluate(&kernel, design).miss_rate;
            let ana = evaluator.evaluate_analytical(&kernel, design).miss_rate;
            assert!(
                sim <= ana + AMPLE_TOL,
                "{}: simulated {sim} exceeds analytical {ana} at {design}",
                kernel.name
            );
        }
    }
}

#[test]
fn analytical_model_converges_for_single_pass_kernels() {
    let evaluator = Evaluator::default();
    for kernel in single_pass_kernels() {
        for line in [8usize, 16] {
            let design = CacheDesign::new(1024, line, 1, 1);
            let sim = evaluator.evaluate(&kernel, design).miss_rate;
            let ana = evaluator.evaluate_analytical(&kernel, design).miss_rate;
            assert!(
                (sim - ana).abs() <= AMPLE_TOL,
                "{}: simulated {sim} vs analytical {ana} at {design}",
                kernel.name
            );
        }
    }
}
