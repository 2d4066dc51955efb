//! The fused-replay oracle: on every paper kernel, the banked sweep must
//! produce records *bit-identical* to a per-design scalar reference over
//! the full paper grid — for both the exhaustive explore sweep and the
//! Pareto frontier `memx pareto` takes over it — while doing the same
//! logical replay work in fewer physical scans.
//!
//! Banking designs that replay the same trace slice
//! (`memsim::ReplayBank`) is a pure scheduling change, so every counter,
//! cycle count, and energy figure must agree exactly with each design
//! replaying its own trace through one `Simulator`
//! (`Evaluator::evaluate_with_trace`) — float bit patterns included,
//! since `Record` equality is bitwise. One test per kernel so a
//! divergence names the kernel that produced it.

use loopir::kernels;
use loopir::transform::tile_all;
use loopir::Kernel;
use memexplore::metrics::read_trace;
use memexplore::{select, DesignSpace, Evaluator, Explorer, Record};
use std::collections::HashMap;

fn assert_fused_oracle(kernel: &Kernel) {
    let space = DesignSpace::paper();
    let designs = space.designs();
    let explorer = Explorer::default();

    // The per-design reference: each design replays its own read trace
    // alone (layouts and traces are cached per pair and tiling only to
    // save time), and its events count once per design.
    let evaluator = Evaluator::default();
    let mut layouts = HashMap::new();
    let mut traces = HashMap::new();
    let mut replayed = 0u64;
    let pr: Vec<Record> = designs
        .iter()
        .map(|&d| {
            let (layout, conflict_free) = layouts
                .entry((d.cache_size, d.line))
                .or_insert_with(|| evaluator.layout_for(kernel, d.cache_size, d.line))
                .clone();
            let trace = traces
                .entry((d.cache_size, d.line, d.tiling))
                .or_insert_with(|| read_trace(&tile_all(kernel, d.tiling), &layout));
            replayed += trace.len() as u64;
            evaluator.evaluate_with_trace(d, trace, conflict_free)
        })
        .collect();

    // Exhaustive sweep: same records, in the same deterministic order.
    let (fr, ft) = explorer.explore_with_telemetry(kernel, &space);
    assert_eq!(
        fr, pr,
        "{}: fused explore records diverged from per-design",
        kernel.name
    );
    assert_eq!(fr.len(), designs.len(), "{}", kernel.name);

    // Both do the same logical work; the banks scan less.
    assert_eq!(
        ft.trace_events_replayed, replayed,
        "{}: logical replay counts must agree",
        kernel.name
    );
    assert!(
        ft.fused_groups > 0 && ft.trace_events_scanned < ft.trace_events_replayed,
        "{}: the sweep should bank designs ({} groups, {} scanned vs {} replayed)",
        kernel.name,
        ft.fused_groups,
        ft.trace_events_scanned,
        ft.trace_events_replayed
    );

    // Pareto frontier over each record list: the same records.
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
