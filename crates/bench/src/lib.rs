//! Figure-regeneration harness for the DAC'99 reproduction.
//!
//! One library function per paper figure (`figures::fig01` … `fig10`), each
//! returning the rendered text tables; the `fig01`…`fig10` binaries print
//! them, and `all_figures` prints everything (this is what populates
//! `EXPERIMENTS.md`). Criterion benchmarks in `benches/` time the underlying
//! machinery and the ablation studies.

pub mod figures;
pub mod tables;

pub use tables::Table;

/// Argument hygiene for the `bench_*` binaries: they take no arguments,
/// and like `memx` they must fail fast on anything unexpected instead of
/// silently ignoring it — exit code 2 with a one-line `error:` message.
pub fn reject_args(bin: &str) {
    if let Some(arg) = std::env::args().nth(1) {
        eprintln!("error: unknown argument `{arg}` for {bin} (takes no arguments)");
        std::process::exit(2);
    }
}
