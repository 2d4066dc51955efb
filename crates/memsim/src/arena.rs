//! Trace-once storage shared across simulations.
//!
//! Design-space sweeps evaluate many cache configurations against the same
//! access trace. Regenerating the trace for every `(T, L, S, B)` point is
//! the dominant redundant cost of a sweep: all associativities over one
//! layout/tiling see byte-identical event streams. A [`TraceArena`]
//! materializes each distinct trace exactly once into one flat
//! `Vec<TraceEvent>` and hands out `&[TraceEvent]` slices, so simulators
//! replay a shared immutable buffer instead of re-walking the loop nest.
//!
//! The arena is built in two stages to fit parallel sweeps: produce each
//! keyed trace independently (possibly on worker threads), then
//! [`TraceArena::assemble`] them in deterministic key order. The finished
//! arena is immutable and can be shared by reference across scoped threads.
//!
//! The `memexplore` sweep no longer uses it: kernel traces are streamed
//! from their compiled plans in chunks instead. The arena stays because
//! memxbench's traced `paper_sweep` run re-stages the old pipeline with
//! it; it can go once that run reads the engine's own per-layer spans.
//!
//! # Example
//!
//! ```
//! use memsim::{CacheConfig, Simulator, TraceArena, TraceEvent};
//!
//! let arena = TraceArena::assemble(vec![
//!     ("stream", (0..8).map(|i| TraceEvent::read(i * 4, 4)).collect()),
//!     ("stride", (0..8).map(|i| TraceEvent::read(i * 64, 4)).collect()),
//! ]);
//! let cfg = CacheConfig::new(64, 16, 1)?;
//! let stream = Simulator::simulate_slice(cfg, arena.get(&"stream").unwrap());
//! let stride = Simulator::simulate_slice(cfg, arena.get(&"stride").unwrap());
//! assert!(stream.stats.read_misses() < stride.stats.read_misses());
//! assert_eq!(arena.events().len(), 16);
//! # Ok::<(), memsim::ConfigError>(())
//! ```

use crate::sim::TraceEvent;
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;

/// A flat, immutable store of trace events addressed by key.
///
/// `K` identifies one logical trace — sweeps typically key by the
/// parameters the trace depends on (e.g. `(cache size, line size, tiling)`).
#[derive(Clone, Debug)]
pub struct TraceArena<K> {
    events: Vec<TraceEvent>,
    spans: HashMap<K, Range<usize>>,
}

impl<K: Eq + Hash> TraceArena<K> {
    /// An empty arena.
    pub fn new() -> Self {
        TraceArena {
            events: Vec::new(),
            spans: HashMap::new(),
        }
    }

    /// Builds an arena from independently generated traces, concatenating
    /// them in the given order. Later duplicates of a key are dropped (the
    /// first occurrence wins), keeping assembly deterministic.
    pub fn assemble(traces: impl IntoIterator<Item = (K, Vec<TraceEvent>)>) -> Self {
        let mut arena = TraceArena::new();
        for (key, trace) in traces {
            arena.insert(key, trace);
        }
        arena
    }

    /// Appends one keyed trace; returns `false` (and drops the trace) if
    /// the key is already present.
    pub fn insert(&mut self, key: K, trace: Vec<TraceEvent>) -> bool {
        if self.spans.contains_key(&key) {
            return false;
        }
        let start = self.events.len();
        self.events.extend_from_slice(&trace);
        self.spans.insert(key, start..self.events.len());
        true
    }

    /// Generates and stores the trace for `key` unless already present,
    /// then returns its slice. Serial-use convenience; parallel builders
    /// should pre-generate and [`assemble`](Self::assemble).
    pub fn intern_with(
        &mut self,
        key: K,
        generate: impl FnOnce() -> Vec<TraceEvent>,
    ) -> &[TraceEvent] {
        let span = match self.spans.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.get().clone(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let trace = generate();
                let start = self.events.len();
                self.events.extend_from_slice(&trace);
                e.insert(start..self.events.len()).clone()
            }
        };
        &self.events[span]
    }

    /// The stored trace for `key`, if any.
    pub fn get<Q>(&self, key: &Q) -> Option<&[TraceEvent]>
    where
        K: std::borrow::Borrow<Q>,
        Q: Eq + Hash + ?Sized,
    {
        self.spans.get(key).map(|span| &self.events[span.clone()])
    }

    /// Number of distinct traces stored.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the arena holds no traces.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The whole flat event buffer (all traces back to back).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }
}

impl<K: Eq + Hash> Default for TraceArena<K> {
    fn default() -> Self {
        TraceArena::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reads(addrs: &[u64]) -> Vec<TraceEvent> {
        addrs.iter().map(|&a| TraceEvent::read(a, 4)).collect()
    }

    #[test]
    fn spans_map_back_to_their_traces() {
        let arena = TraceArena::assemble(vec![
            (1u32, reads(&[0, 4, 8])),
            (2, reads(&[100])),
            (3, Vec::new()),
        ]);
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.get(&1).unwrap().len(), 3);
        assert_eq!(arena.get(&2).unwrap()[0].addr, 100);
        assert_eq!(arena.get(&3).unwrap(), &[]);
        assert!(arena.get(&4).is_none());
        assert_eq!(arena.events().len(), 4);
    }

    #[test]
    fn first_insert_wins() {
        let mut arena = TraceArena::new();
        assert!(arena.insert("k", reads(&[1])));
        assert!(!arena.insert("k", reads(&[2, 3])));
        assert_eq!(arena.get("k").unwrap().len(), 1);
        assert_eq!(arena.events().len(), 1);
    }

    #[test]
    fn intern_with_generates_once() {
        let mut arena = TraceArena::new();
        let mut calls = 0;
        for _ in 0..3 {
            let slice = arena.intern_with(7u64, || {
                calls += 1;
                reads(&[0, 8])
            });
            assert_eq!(slice.len(), 2);
        }
        assert_eq!(calls, 1);
        assert_eq!(arena.events().len(), 2);
    }

    #[test]
    fn empty_arena_behaves() {
        let arena: TraceArena<u8> = TraceArena::default();
        assert!(arena.is_empty());
        assert_eq!(arena.events().len(), 0);
    }
}
