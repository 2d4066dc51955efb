//! **MemExplore** — energy-aware data-cache design-space exploration for
//! embedded systems.
//!
//! This is the primary contribution of Shiue & Chakrabarti, *Memory
//! Exploration for Low Power, Embedded Systems* (DAC 1999): choose the
//! on-chip data-cache configuration `(cache size T, line size L, set
//! associativity S, tiling size B)` for a given application using **three**
//! performance metrics — cache size, processor cycles, and *energy* — rather
//! than the traditional two. The headline findings this crate reproduces:
//!
//! * increasing cache size / line size / tiling / associativity reduces the
//!   miss rate and cycle count but **not necessarily the energy**;
//! * off-chip data placement is the single largest performance lever
//!   (conflict misses can be eliminated for compatible patterns);
//! * the minimum-energy configuration differs from the minimum-time one, and
//!   the whole-program optimum differs from every kernel's optimum.
//!
//! The exploration loop (paper's `Algorithm MemExplore`):
//!
//! ```text
//! for cache size T (powers of 2, < M)
//!   for line size L (powers of 2, < T)
//!     for set associativity S (powers of 2, ≤ 8)
//!       for tiling size B (powers of 2, ≤ T/L)
//!         estimate cycles C and energy E
//! select (T, L, S, B) maximizing performance under the given bounds
//! ```
//!
//! # Quick start
//!
//! ```
//! use memexplore::{DesignSpace, Explorer};
//! use loopir::kernels;
//!
//! let explorer = Explorer::default(); // CY7C SRAM, optimized placement
//! let records = explorer.explore(&kernels::compress(31), &DesignSpace::small());
//! let best = memexplore::select::min_energy(&records).expect("non-empty space");
//! println!("minimum-energy configuration: {}", best.design);
//! ```

pub mod analytic;
mod arbitrate;
pub mod cache;
pub mod checkpoint;
pub mod composite;
pub mod cycles;
pub mod explore;
pub mod fault;
pub mod metrics;
pub mod obs;
pub mod search;
pub mod select;
pub mod shard;
pub mod spm;
pub mod supervisor;
mod sweep;
pub mod telemetry;
pub mod workload;

pub use cache::{fnv1a_128, CacheKey, CacheStats, FlightGuard, Lookup, ResultCache};
pub use checkpoint::{Checkpoint, CheckpointError};
pub use composite::{CompositeProgram, CompositeRecord};
pub use cycles::CycleModel;
pub use explore::{DesignSpace, Engine, ExploreError, Explorer};
pub use fault::FaultPlan;
pub use metrics::{CacheDesign, Evaluator, PlacementMode, Record};
pub use obs::{
    Event, EventKind, FieldValue, LatencyHistogram, LatencySummary, Obs, ObsConfig, ObsSink,
    RunReport,
};
pub use search::{Objective, SearchOptions, SearchOutcome};
pub use shard::{
    backoff_delay, partition, run_sharded, CoordinatorOptions, MergeStats, ShardError,
    ShardExecutor, ShardHandle, ShardOutput, ShardSpec, ShardedOutcome, ThreadExecutor,
};
pub use supervisor::{CheckpointPolicy, SweepError, SweepOptions, SweepOutcome};
pub use telemetry::SweepTelemetry;
pub use workload::{trace_sweep_id, TraceError, TraceWorkload, TRACE_BANK_WIDTH};
