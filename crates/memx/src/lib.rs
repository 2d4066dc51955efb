//! Command implementations behind the `memx` binary.
//!
//! `memx` is the operator-facing entry point of the exploration flow: it
//! reads kernels in the [`loopir::parse`] text format, or recorded Dinero
//! `.din` address traces, and runs the paper's analyses on them.
//!
//! ```text
//! memx explore  KERNEL.mx|TRACE.din        # exhaustive sweep + selection
//! memx pareto   KERNEL.mx|TRACE.din        # three-objective frontier
//! memx search   KERNEL.mx|TRACE.din        # certified bound-guided search
//! memx sweep    KERNEL.mx|TRACE.din --distributed N
//! memx worker   KERNEL.mx|TRACE.din --start I --end J --checkpoint PATH
//! memx serve    [--addr HOST:PORT]         # the same jobs over HTTP
//! memx submit   ADDR KERNEL.mx|TRACE.din [--job explore|pareto|search]
//! memx report   LOG.jsonl
//! memx simulate KERNEL.mx --cache N --line N
//! memx simulate-din TRACE.din --cache N --line N
//! memx place | min-cache | classes | trace KERNEL.mx
//! ```
//!
//! [`cli::USAGE`] lists every flag. An explore, pareto or search run is
//! one [`JobSpec`] over one [`serve::JobInput`], whether it comes from
//! the command line or from a `memx serve` request, and both surfaces
//! run it through the same runner. Its knobs are the rows of one table,
//! in [`knobs`], which every surface parses, checks and renders them by.
//! Each command returns an [`Output`] split by stream (records on stdout,
//! notes on stderr), so everything is unit-testable without spawning a
//! process.

pub mod cli;
pub mod commands;
pub mod knobs;
pub mod serve;
pub mod sweep;

pub use cli::{parse_args, Command, ObsFlags, Supervise, UsageError};
pub use commands::{run, Output, RunError};
pub use serve::{http_request, wait_health, JobSpec, ServeConfig, Server, SubmitRequest};
