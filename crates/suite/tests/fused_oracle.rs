//! The fused-replay oracle: on every paper kernel, the fused one-pass
//! engine must produce records *bit-identical* to the per-design engine
//! over the full paper grid — for both the exhaustive explore sweep and
//! the Pareto frontier `memx pareto` takes over it.
//!
//! This is the acceptance gate of the trace-group refactor
//! (`memsim::ReplayBank` + `memexplore::Engine::Fused`): banking designs
//! that replay the same trace slice is a pure scheduling change, so every
//! counter, cycle count, and energy figure must agree exactly — float bit
//! patterns included, since `Record` equality is bitwise. One test per
//! kernel so a divergence names the kernel that produced it.

use loopir::kernels;
use loopir::Kernel;
use memexplore::{select, DesignSpace, Engine, Explorer};

fn assert_fused_oracle(kernel: &Kernel) {
    let space = DesignSpace::paper();
    let fused = Explorer::default().with_engine(Engine::Fused);
    let per_design = Explorer::default().with_engine(Engine::PerDesign);

    // Exhaustive sweep: same records, in the same deterministic order.
    let (fr, ft) = fused.explore_with_telemetry(kernel, &space);
    let (pr, pt) = per_design.explore_with_telemetry(kernel, &space);
    assert_eq!(
        fr, pr,
        "{}: fused explore records diverged from per-design",
        kernel.name
    );
    assert_eq!(fr.len(), space.designs().len(), "{}", kernel.name);

    // Both engines do the same logical work; the fused one scans less.
    assert_eq!(
        ft.trace_events_replayed, pt.trace_events_replayed,
        "{}: logical replay counts must agree",
        kernel.name
    );
    assert!(
        ft.fused_groups > 0 && ft.trace_events_scanned < ft.trace_events_replayed,
        "{}: fused engine should bank designs ({} groups, {} scanned vs {} replayed)",
        kernel.name,
        ft.fused_groups,
        ft.trace_events_scanned,
        ft.trace_events_replayed
    );

    // Pareto frontier over each sweep: the same records.
    let (ff, pf) = (select::pareto3(&fr), select::pareto3(&pr));
    assert!(!ff.is_empty(), "{}", kernel.name);
    assert_eq!(
        ff, pf,
        "{}: fused frontier diverged from per-design",
        kernel.name
    );
}

#[test]
fn fused_matches_per_design_on_compress() {
    assert_fused_oracle(&kernels::compress(31));
}

#[test]
fn fused_matches_per_design_on_matmul() {
    assert_fused_oracle(&kernels::matmul(31));
}

#[test]
fn fused_matches_per_design_on_pde() {
    assert_fused_oracle(&kernels::pde(31));
}

#[test]
fn fused_matches_per_design_on_sor() {
    assert_fused_oracle(&kernels::sor(31));
}

#[test]
fn fused_matches_per_design_on_dequant() {
    assert_fused_oracle(&kernels::dequant(31));
}
