//! `optimize_layout` against the enumerator it replaced.
//!
//! The oracle in `placement_oracle/` is the eager search kept verbatim:
//! it builds every pitch candidate before scoring the first and scores
//! every candidate from scratch. The lazy, budgeted search must return a
//! byte-identical `PlacementReport` (layout, leader lines, colliding
//! classes, padding, `conflict_free`) wherever the oracle's scan fits the
//! candidate budget: every `(T, L)` pair of the expansive grid on every
//! shipped kernel, and the scaled-down hostile kernel whose scan has no
//! collision-free candidate at all.

mod placement_oracle;

use analysis::placement::optimize_layout;
use loopir::{parse_kernel, Kernel};
use memexplore::DesignSpace;

fn kernel_file(path: &str) -> Kernel {
    let path = format!("{}/{path}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    parse_kernel(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The shipped `examples/kernels/*.mx` names, in file-name order.
const EXAMPLES: [&str; 8] = [
    "compress", "conv2d", "dequant", "matadd", "matmul", "pde", "sor", "stencil",
];

/// Every `(T, L)` pair of the expansive grid, in sweep order.
fn expansive_pairs() -> Vec<(u64, u64)> {
    let space = DesignSpace::expansive();
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

fn assert_identical(kernel: &Kernel, t: u64, l: u64) {
    let got = optimize_layout(kernel, t, l).expect("placeable");
    let want = placement_oracle::optimize_layout(kernel, t, l).expect("placeable");
    assert_eq!(
        format!("{got:?}"),
        format!("{want:?}"),
        "{} at T={t} L={l}",
        kernel.name
    );
    assert_eq!(got, want);
}

#[test]
fn expansive_grid_has_144_pairs() {
    assert_eq!(expansive_pairs().len(), 144);
}

#[test]
fn every_example_kernel_is_covered() {
    let dir = format!("{}/../../examples/kernels", env!("CARGO_MANIFEST_DIR"));
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("examples/kernels exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mx"))
        .map(|p| p.file_stem().expect("named").to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names, EXAMPLES);
}

/// One test per kernel, so the harness runs them side by side.
macro_rules! example_matches_the_oracle {
    ($($test:ident => $name:literal),* $(,)?) => {$(
        #[test]
        fn $test() {
            let kernel = kernel_file(&format!("../../examples/kernels/{}.mx", $name));
            for (t, l) in expansive_pairs() {
                assert_identical(&kernel, t, l);
            }
        }
    )*};
}

example_matches_the_oracle! {
    compress_matches_the_oracle_on_every_expansive_pair => "compress",
    conv2d_matches_the_oracle_on_every_expansive_pair => "conv2d",
    dequant_matches_the_oracle_on_every_expansive_pair => "dequant",
    matadd_matches_the_oracle_on_every_expansive_pair => "matadd",
    matmul_matches_the_oracle_on_every_expansive_pair => "matmul",
    pde_matches_the_oracle_on_every_expansive_pair => "pde",
    sor_matches_the_oracle_on_every_expansive_pair => "sor",
    stencil_matches_the_oracle_on_every_expansive_pair => "stencil",
}

#[test]
fn scaled_down_hostile_kernel_matches_the_oracle() {
    let kernel = kernel_file("tests/kernels/worst_small.mx");
    assert_identical(&kernel, 4096, 16);
    let report = optimize_layout(&kernel, 4096, 16).expect("placeable");
    assert!(!report.conflict_free, "{report:?}");
}
