//! Differential tests: the optimized simulator against the naive
//! reference model on random traces and geometries.
//!
//! [`memsim::reference::ReferenceCache`] shares no code with the
//! production [`Simulator`] — flat line vector vs per-set ways, division
//! vs shifts, per-byte splitting vs arithmetic line walks — so agreement
//! on every counter across random traces is strong evidence both address
//! paths are right.
//!
//! The bulk lane scans of a [`ReplayBank`] are checked against the same
//! reference in `bank_differential.rs`; the wide-then-narrow tier switch
//! is pinned here.

use memsim::reference::ReferenceCache;
use memsim::{CacheConfig, Replacement, ReplayBank, Simulator, TraceEvent, WritePolicy};
use proptest::prelude::*;

/// Random traces with unaligned, line-spanning, and zero-size accesses.
fn arb_trace() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec(
        (
            0u64..2048,
            prop_oneof![Just(0u32), Just(1), Just(4), Just(8), Just(13), Just(32)],
            proptest::bool::ANY,
        ),
        1..300,
    )
    .prop_map(|v| {
        v.into_iter()
            .map(|(addr, size, w)| TraceEvent {
                addr,
                size,
                is_write: w,
            })
            .collect()
    })
}

/// Valid `(size, line, assoc)` triples, including fully associative ones.
fn arb_geometry() -> impl Strategy<Value = (usize, usize, usize)> {
    (2u32..7, 2u32..5, 0u32..4).prop_filter_map("valid geometry", |(ts, ls, ss)| {
        let t = 1usize << (ts + 3); // 32..1024
        let l = 1usize << ls; // 4..16
        let s = 1usize << ss; // 1..8
        (l <= t && s <= t / l).then_some((t, l, s))
    })
}

fn arb_policy() -> impl Strategy<Value = (Replacement, WritePolicy)> {
    (
        prop_oneof![Just(Replacement::Lru), Just(Replacement::Fifo)],
        prop_oneof![
            Just(WritePolicy::WriteBackAllocate),
            Just(WritePolicy::WriteThroughNoAllocate),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn optimized_simulator_matches_the_reference(
        trace in arb_trace(),
        geom in arb_geometry(),
        policy in arb_policy(),
    ) {
        let (t, l, s) = geom;
        let (replacement, write_policy) = policy;
        let cfg = CacheConfig::new(t, l, s)
            .expect("filtered to valid")
            .with_replacement(replacement)
            .with_write_policy(write_policy);
        let optimized = Simulator::simulate(cfg, trace.iter().copied()).stats;
        let reference = ReferenceCache::simulate(cfg, trace.iter().copied());
        prop_assert_eq!(optimized, reference, "config {}", cfg);
    }

    #[test]
    fn reference_agrees_on_fully_associative_caches(trace in arb_trace()) {
        // One set exercises the whole-vector search and the LRU ordering
        // with the maximum number of resident candidates.
        let cfg = CacheConfig::fully_associative(128, 8).expect("valid");
        let optimized = Simulator::simulate(cfg, trace.iter().copied()).stats;
        let reference = ReferenceCache::simulate(cfg, trace.iter().copied());
        prop_assert_eq!(optimized, reference);
    }
}

/// A handful of deterministic geometry/trace corners kept out of the
/// property loop so failures name themselves.
#[test]
fn single_line_cache_hits_only_within_the_line() {
    // T == L: one line, every new line evicts the previous one.
    let cfg = CacheConfig::new(8, 8, 1).expect("valid");
    let trace = [
        TraceEvent::read(0, 4),
        TraceEvent::read(4, 4), // same line: hit
        TraceEvent::read(8, 4), // new line: evicts
        TraceEvent::read(0, 4), // miss again
    ];
    let optimized = Simulator::simulate(cfg, trace.iter().copied()).stats;
    let reference = ReferenceCache::simulate(cfg, trace.iter().copied());
    assert_eq!(optimized, reference);
    assert_eq!(optimized.read_hits, 1);
    assert_eq!(optimized.evictions, 2);
}

#[test]
fn access_spanning_many_lines_matches() {
    let cfg = CacheConfig::new(64, 4, 2).expect("valid");
    let trace = [TraceEvent::read(2, 33), TraceEvent::write(1, 17)];
    let optimized = Simulator::simulate(cfg, trace.iter().copied()).stats;
    let reference = ReferenceCache::simulate(cfg, trace.iter().copied());
    assert_eq!(optimized, reference);
    assert_eq!(optimized.reads, 9); // bytes 2..35 touch lines 0..8
}

#[test]
fn empty_trace_yields_zeroed_stats() {
    let cfg = CacheConfig::new(64, 8, 2).expect("valid");
    let optimized = Simulator::simulate(cfg, std::iter::empty()).stats;
    let reference = ReferenceCache::simulate(cfg, std::iter::empty());
    assert_eq!(optimized, reference);
    assert_eq!(optimized.accesses(), 0);
    assert_eq!(optimized.miss_rate(), 0.0);
}

#[test]
fn wide_resident_line_keeps_a_narrow_chunk_exact() {
    // A wide-tag line left resident by one chunk must not be truncated
    // into a 16-bit packed entry when the next chunk's own tags are
    // narrow: line 0 would then alias the wide line and hit.
    let cfg = CacheConfig::new(1024, 16, 2).expect("valid");
    let trace = [
        TraceEvent::read(1 << 36, 4),
        TraceEvent::read(0, 4),
        TraceEvent::read(1024, 4),
        TraceEvent::read(2048, 4),
    ];
    let mut bank = ReplayBank::new(&[cfg]);
    for event in trace.chunks(1) {
        bank.feed(event);
    }
    let report = bank.finish().pop().expect("one lane");
    assert_eq!(report.stats, ReferenceCache::simulate(cfg, trace));
    assert_eq!(report.stats.read_hits, 0);
}
