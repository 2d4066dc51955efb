//! Umbrella crate: the home of the workspace-level examples and
//! integration tests.
//!
//! The crate itself exports nothing — its value is in `tests/` and in
//! the `[[example]]` entries of its manifest. `cargo test -p suite`
//! runs the cross-crate integration suite:
//!
//! * `tests/differential.rs` — the sweep engine against the naive
//!   regenerate-per-design reference, bit for bit.
//! * `tests/fused_oracle.rs` — the fused one-pass replay engine against
//!   the per-design engine on every paper kernel, explore and pareto.
//! * `tests/replay_oracle.rs` — sweep records and the Pareto frontier
//!   over them against a scalar replay of each design alone.
//! * `tests/regression_kernels.rs` — pinned metrics for the paper's
//!   five kernels so model drift is caught at the digit level.
//! * `tests/paper_claims.rs` — the qualitative claims of the source
//!   paper (tiling helps, Gray coding helps, ...) hold end to end.
//! * `tests/end_to_end.rs`, `tests/pipeline.rs` — kernel text in,
//!   report out, through every public layer.
//! * `tests/random_kernels.rs` — property tests over randomly generated
//!   kernels.
//! * `tests/extensions.rs` — the beyond-paper extensions (replacement
//!   policies, write policies, line buffer, icache split).
//!
//! The examples under `examples/` double as documentation: each one is
//! a runnable walkthrough of one workflow (quickstart, tiling study,
//! off-chip placement, MPEG decoder, ...).
