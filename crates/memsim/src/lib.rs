//! Trace-driven set-associative cache simulator.
//!
//! This crate is the Dinero-IV-style substrate of the DAC'99 *Memory
//! Exploration for Low Power, Embedded Systems* reproduction. The paper
//! derived miss rates from closed-form expressions and notes (§4.1) that a
//! trace-driven simulator is the interchangeable alternative; we build the
//! simulator so every analytical claim can be cross-checked against exact
//! cache behaviour.
//!
//! Features:
//!
//! * set-associative caches with LRU / FIFO / tree-PLRU / random replacement
//!   ([`CacheConfig`], [`Cache`]),
//! * write-back + write-allocate and write-through + no-write-allocate
//!   policies,
//! * hit/miss statistics ([`CacheStats`]) and three-C miss classification
//!   (compulsory / capacity / conflict, [`classify::Classifier`]),
//! * address-bus activity tracking with Gray-coded or binary buses
//!   ([`bus::BusMonitor`]) — the `Add_bs` input of the paper's energy model,
//! * a [`sim::Simulator`] that drives a trace through all of the above,
//! * a [`bank::ReplayBank`] that steps many cache designs in lockstep over
//!   a single scan of a shared trace (the fused sweep engine's work unit;
//!   the `Simulator` is a bank of one),
//! * Belady's MIN over a line stream ([`opt::NextUse`]), the optimal
//!   replacement floor the certified search bounds leaves with,
//! * a deliberately naive [`reference::ReferenceCache`] sharing no code
//!   with the optimized path, for differential testing, and
//! * Dinero `.din` trace interop ([`din`]).
//!
//! # Example
//!
//! ```
//! use memsim::{Cache, CacheConfig};
//!
//! let config = CacheConfig::new(64, 8, 1)?; // 64 B direct-mapped, 8 B lines
//! let mut cache = Cache::new(config);
//! assert!(!cache.read(0x100).hit);  // cold miss
//! assert!(cache.read(0x104).hit);   // same 8 B line
//! # Ok::<(), memsim::ConfigError>(())
//! ```

pub mod arena;
pub mod bank;
pub mod bus;
pub mod cache;
pub mod classify;
pub mod config;
pub mod din;
pub mod opt;
pub mod reference;
pub mod sim;
pub mod source;
pub mod stats;
pub mod synth;
pub mod zarena;

pub use arena::TraceArena;
pub use bank::ReplayBank;
pub use bus::{gray_encode, BusEncoding, BusMonitor, BusStats};
pub use cache::{AccessOutcome, Cache};
pub use classify::{Classifier, MissClass, MissClassCounts};
pub use config::{CacheConfig, ConfigError, Replacement, WritePolicy};
pub use opt::NextUse;
pub use sim::{SimReport, Simulator, TraceEvent};
pub use source::{
    collect_source, din_event, fingerprint_source, DinSource, IterSource, SliceSource,
    TraceFingerprint, TraceSource, TraceSourceError, DEFAULT_CHUNK_CAPACITY,
};
pub use stats::CacheStats;
pub use zarena::CompressedTrace;
