//! Differential tests: a fused [`ReplayBank`] against N independent
//! [`Simulator`] runs of the same trace.
//!
//! The bank is the work unit of the fused sweep engine — one scan of the
//! trace steps every lane — so these properties are the losslessness
//! argument in executable form: for random traces (unaligned, spanning,
//! zero-size, empty), random geometry mixes (shared and distinct line
//! sizes, 1–64 ways), LRU/FIFO/PLRU replacement, and both write policies,
//! every counter of every lane must be bit-identical to a lone simulator
//! fed the same events, including the degenerate bank-of-one and
//! empty-trace cases.
//!
//! The bank's bulk lane scans are also pitted against its own scalar
//! per-access loop ([`ReplayBank::with_scalar_replay`]) on write-bearing
//! traces with narrow and wide (up to 2^40) addresses, so every tier —
//! direct-mapped, exact packed-recency and the fixed-way SWAR digest
//! probe, at every associativity from 1 to 64 under LRU, FIFO and PLRU —
//! replays stores, dirty evictions and writebacks at every chunking. A feed that alternates chunk lengths moves lanes with many
//! sets between the scalar loop (a chunk shorter than their set count)
//! and their bulk tier within one run, so each tier must hand its state
//! to the scalar loop, and take it back, bit for bit.
//!
//! Belady's MIN ([`NextUse`]) is pitted against every lane too: on a
//! read-only trace, MIN with `T/L` lines never misses more often than
//! any lane of that geometry — bulk, scalar, line-buffered or random —
//! which is what makes it an admissible floor for the certified search.

use memsim::opt::push_lines;
use memsim::reference::ReferenceCache;
use memsim::{
    BusEncoding, CacheConfig, NextUse, Replacement, ReplayBank, Simulator, TraceEvent, WritePolicy,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Random traces with unaligned, line-spanning, and zero-size accesses;
/// may be empty.
fn arb_trace() -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec(
        (
            0u64..2048,
            prop_oneof![Just(0u32), Just(1), Just(4), Just(8), Just(13), Just(32)],
            proptest::bool::ANY,
        ),
        0..300,
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

/// One random valid configuration: power-of-two geometry up to 64 ways
/// (capped at the line count, so small caches come out fully
/// associative), LRU, FIFO or PLRU, either write policy.
fn arb_config() -> impl Strategy<Value = CacheConfig> {
    (
        2u32..8,
        2u32..5,
        0u32..7,
        prop_oneof![
            Just(Replacement::Lru),
            Just(Replacement::Fifo),
            Just(Replacement::Plru)
        ],
        prop_oneof![
            Just(WritePolicy::WriteBackAllocate),
            Just(WritePolicy::WriteThroughNoAllocate),
        ],
    )
        .prop_map(|(ts, ls, ss, repl, wp)| {
            let t = 1usize << (ts + 3); // 32..1024
            let l = 1usize << ls; // 4..16
            let s = (1usize << ss).min(t / l); // 1..64
            CacheConfig::new(t, l, s)
                .expect("valid geometry")
                .with_replacement(repl)
                .with_write_policy(wp)
        })
}

/// Write-bearing traces: a read-only prefix (0..1500 reads cycling over
/// the body's addresses, so the first write lands mid-chunk) followed by
/// a body mixing a 4 KiB hot region with far regions at `k << 36`. The
/// far share is 0, 5% or 30%, so some traces keep narrow tags throughout
/// and others switch tiers between chunks.
fn arb_write_trace() -> impl Strategy<Value = Vec<TraceEvent>> {
    (
        0usize..1500,
        prop_oneof![Just(0u32), Just(5), Just(30)],
        proptest::collection::vec(
            (
                0u32..100,
                1u64..=16,
                0u64..4096,
                prop_oneof![Just(1u32), Just(4), Just(8), Just(13)],
                0u32..4,
            ),
            1..600,
        ),
    )
        .prop_map(|(prefix, far_pct, v)| {
            let body: Vec<TraceEvent> = v
                .into_iter()
                .map(|(roll, k, off, size, w)| TraceEvent {
                    addr: if roll < far_pct {
                        (k << 36) | (off % 1024)
                    } else {
                        off
                    },
                    size,
                    is_write: w == 0,
                })
                .collect();
            let reads = body.iter().cycle().take(prefix).map(|e| TraceEvent {
                is_write: false,
                ..*e
            });
            reads.chain(body.iter().copied()).collect()
        })
}

/// Every bulk tier's lane shape — LRU/FIFO/PLRU × both write policies ×
/// assoc 1–64 — over three geometries: 32 lines of 8 B (up to 32 ways)
/// and 64 lines of 16 B, small enough that `arb_write_trace`'s hot
/// region keeps them evicting and writing back, and 256 lines of 16 B,
/// where 64 ways still leave four sets. A random lane stays on the
/// scalar loop inside the same bank.
fn all_tier_lanes() -> Vec<CacheConfig> {
    let mut configs = Vec::new();
    for (size, line) in [(256usize, 8usize), (1024, 16), (4096, 16)] {
        let assocs = [1usize, 2, 4, 8, 16, 32, 64];
        for &assoc in assocs.iter().filter(|&&a| a <= size / line) {
            for replacement in [Replacement::Lru, Replacement::Fifo, Replacement::Plru] {
                for write_policy in [
                    WritePolicy::WriteBackAllocate,
                    WritePolicy::WriteThroughNoAllocate,
                ] {
                    configs.push(
                        CacheConfig::new(size, line, assoc)
                            .expect("valid geometry")
                            .with_replacement(replacement)
                            .with_write_policy(write_policy),
                    );
                }
            }
        }
    }
    configs.push(
        CacheConfig::new(512, 8, 4)
            .expect("valid geometry")
            .with_replacement(Replacement::Random { seed: 3 }),
    );
    configs
}

/// Feeds `trace` in `chunk`-event pieces through a bulk bank and a
/// scalar-replay bank of the same lanes.
fn bulk_and_scalar(
    configs: &[CacheConfig],
    trace: &[TraceEvent],
    chunk: usize,
) -> (Vec<memsim::SimReport>, Vec<memsim::SimReport>) {
    let (bulk, scalar) = feed_both(configs, trace, std::iter::repeat(chunk));
    (bulk.finish(), scalar.finish())
}

/// Feeds `trace` through a bulk bank and a scalar-replay bank of the same
/// lanes, in pieces of the successive lengths `chunks` yields.
fn feed_both(
    configs: &[CacheConfig],
    mut trace: &[TraceEvent],
    chunks: impl IntoIterator<Item = usize>,
) -> (ReplayBank, ReplayBank) {
    let mut bulk = ReplayBank::new(configs);
    let mut scalar = ReplayBank::new(configs).with_scalar_replay();
    for chunk in chunks {
        if trace.is_empty() {
            break;
        }
        let (part, rest) = trace.split_at(chunk.min(trace.len()));
        bulk.feed(part);
        scalar.feed(part);
        trace = rest;
    }
    (bulk, scalar)
}

/// Banks of 1..=6 lanes — duplicates allowed, so equal line sizes (and
/// even fully identical lanes) share a line class.
fn arb_bank() -> impl Strategy<Value = Vec<CacheConfig>> {
    proptest::collection::vec(arb_config(), 1..=6)
}

fn arb_encoding() -> impl Strategy<Value = BusEncoding> {
    prop_oneof![Just(BusEncoding::Gray), Just(BusEncoding::Binary)]
}

/// Read-only traces: either generator's events, every write turned into
/// a read.
fn arb_read_trace() -> impl Strategy<Value = Vec<TraceEvent>> {
    prop_oneof![arb_trace(), arb_write_trace()].prop_map(|trace| {
        trace
            .into_iter()
            .map(|e| TraceEvent {
                is_write: false,
                ..e
            })
            .collect()
    })
}

proptest! {
    // Each case replays up to 2,100 events through up to 127 lanes three
    // times.
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn belady_min_never_misses_more_than_any_lane(
        trace in arb_read_trace(),
        extra in arb_bank(),
        chunk in prop_oneof![Just(1usize), Just(7), Just(333), Just(4096)],
    ) {
        let mut configs = all_tier_lanes();
        configs.extend(extra);
        let (bulk, scalar) = bulk_and_scalar(&configs, &trace, chunk);
        let mut buffered = ReplayBank::new(&configs).with_line_buffers();
        buffered.run_slice(&trace);
        let buffered = buffered.into_reports();
        let mut streams: HashMap<usize, NextUse> = HashMap::new();
        for (k, config) in configs.iter().enumerate() {
            let next_use = streams.entry(config.line()).or_insert_with(|| {
                let shift = config.line().trailing_zeros();
                let mut lines = Vec::new();
                for &event in &trace {
                    push_lines(&mut lines, event, shift);
                }
                NextUse::new(&lines)
            });
            let opt = next_use.min_misses(config.num_lines());
            for (engine, reports) in [("bulk", &bulk), ("scalar", &scalar), ("buffered", &buffered)] {
                let misses = reports[k].stats.read_misses();
                prop_assert!(
                    opt <= misses,
                    "{} lane {} @ chunk {}: MIN {} > {} misses", engine, config, chunk, opt, misses
                );
            }
            prop_assert!(next_use.distinct() <= opt, "MIN below the compulsory floor");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bank_is_bit_identical_to_independent_simulators(
        trace in arb_trace(),
        configs in arb_bank(),
        encoding in arb_encoding(),
    ) {
        let mut bank = ReplayBank::with_options(&configs, encoding, false);
        bank.run_slice(&trace);
        let fused = bank.into_reports();
        prop_assert_eq!(fused.len(), configs.len());
        for (config, report) in configs.iter().zip(&fused) {
            let mut sim = Simulator::with_options(*config, encoding, false);
            sim.run_slice(&trace);
            let lone = sim.into_report();
            prop_assert_eq!(lone.stats, report.stats, "stats for {}", config);
            prop_assert_eq!(lone.cpu_bus, report.cpu_bus, "cpu bus for {}", config);
            prop_assert_eq!(lone.mem_bus, report.mem_bus, "mem bus for {}", config);
        }
    }

    #[test]
    fn bulk_replay_with_writes_matches_scalar_replay(
        trace in arb_write_trace(),
        chunk in prop_oneof![Just(1usize), Just(7), Just(333), Just(4096), Just(65_536)],
    ) {
        let configs = all_tier_lanes();
        let (bulk, scalar) = bulk_and_scalar(&configs, &trace, chunk);
        for ((config, b), s) in configs.iter().zip(&bulk).zip(&scalar) {
            prop_assert_eq!(b.stats, s.stats, "stats for {} @ chunk {}", config, chunk);
            prop_assert_eq!(b.cpu_bus, s.cpu_bus, "cpu bus for {} @ chunk {}", config, chunk);
            prop_assert_eq!(b.mem_bus, s.mem_bus, "mem bus for {} @ chunk {}", config, chunk);
            if matches!(config.replacement, Replacement::Lru | Replacement::Fifo) {
                let reference = ReferenceCache::simulate(*config, trace.iter().copied());
                prop_assert_eq!(b.stats, reference, "reference for {} @ chunk {}", config, chunk);
            }
        }
    }

    #[test]
    fn classified_bank_matches_classified_simulators(
        trace in arb_trace(),
        configs in arb_bank(),
    ) {
        let mut bank = ReplayBank::with_options(&configs, BusEncoding::Gray, true);
        bank.run_slice(&trace);
        for (config, report) in configs.iter().zip(bank.into_reports()) {
            let mut sim = Simulator::with_options(*config, BusEncoding::Gray, true);
            sim.run_slice(&trace);
            let lone = sim.into_report();
            prop_assert_eq!(lone.stats, report.stats, "stats for {}", config);
            prop_assert_eq!(
                lone.miss_classes, report.miss_classes, "classes for {}", config
            );
        }
    }

    #[test]
    fn line_buffered_bank_matches_buffered_simulators(
        trace in arb_trace(),
        configs in arb_bank(),
    ) {
        let mut bank = ReplayBank::new(&configs).with_line_buffers();
        bank.run_slice(&trace);
        for (config, report) in configs.iter().zip(bank.into_reports()) {
            let mut sim = Simulator::new(*config).with_line_buffer();
            sim.run_slice(&trace);
            let lone = sim.into_report();
            prop_assert_eq!(lone.stats, report.stats, "stats for {}", config);
            prop_assert_eq!(lone.mem_bus, report.mem_bus, "mem bus for {}", config);
        }
    }

    #[test]
    fn bank_of_one_is_exactly_a_simulator(
        trace in arb_trace(),
        config in arb_config(),
    ) {
        let fused = ReplayBank::simulate_slice(&[config], &trace)
            .pop()
            .expect("one lane in, one report out");
        let lone = Simulator::simulate_slice(config, &trace);
        prop_assert_eq!(lone.stats, fused.stats);
        prop_assert_eq!(lone.cpu_bus, fused.cpu_bus);
        prop_assert_eq!(lone.mem_bus, fused.mem_bus);
    }
}

proptest! {
    // Each case replays 9,000 events through 121 lanes twice.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn bulk_lanes_cross_to_the_scalar_loop_and_back(
        trace in arb_write_trace(),
    ) {
        // 9,000 events cycling the body, fed 1, 4,096, 7, 333, 1, … events
        // at a time: a lane with more than 7 sets (or, past 1 set, more
        // than 1) leaves its bulk tier for the scalar loop and returns.
        let long: Vec<TraceEvent> = trace.iter().copied().cycle().take(9_000).collect();
        let configs = all_tier_lanes();
        let chunks = [1usize, 4096, 7, 333].into_iter().cycle();
        let (bulk, scalar) = feed_both(&configs, &long, chunks);
        let (crossed, total) = (bulk.scalar_lane_events(), scalar.scalar_lane_events());
        prop_assert!(0 < crossed && crossed < total, "{} of {} scalar", crossed, total);
        for ((config, b), s) in configs.iter().zip(bulk.finish()).zip(scalar.finish()) {
            prop_assert_eq!(b.stats, s.stats, "stats for {}", config);
            prop_assert_eq!(b.cpu_bus, s.cpu_bus, "cpu bus for {}", config);
            prop_assert_eq!(b.mem_bus, s.mem_bus, "mem bus for {}", config);
        }
    }
}

/// Deterministic corners kept out of the property loop so failures name
/// themselves.
#[test]
fn empty_trace_through_a_wide_bank_is_all_zero() {
    let configs = [
        CacheConfig::new(64, 8, 1).expect("valid"),
        CacheConfig::new(128, 16, 2).expect("valid"),
        CacheConfig::new(256, 8, 4).expect("valid"),
    ];
    for report in ReplayBank::simulate_slice(&configs, &[]) {
        assert_eq!(report.stats.accesses(), 0);
        assert_eq!(report.cpu_bus.transfers, 0);
        assert_eq!(report.mem_bus.transfers, 0);
    }
}

#[test]
fn identical_lanes_produce_identical_reports() {
    let config = CacheConfig::new(64, 8, 2)
        .expect("valid")
        .with_replacement(Replacement::Fifo);
    let trace: Vec<TraceEvent> = (0..200)
        .map(|i| TraceEvent::read(i * 12 % 512, 4))
        .collect();
    let reports = ReplayBank::simulate_slice(&[config, config], &trace);
    assert_eq!(reports[0].stats, reports[1].stats);
    assert_eq!(reports[0].cpu_bus, reports[1].cpu_bus);
    assert_eq!(reports[0].mem_bus, reports[1].mem_bus);
}

#[test]
fn write_policy_mix_in_one_bank_matches_lone_runs() {
    let wb = CacheConfig::new(64, 8, 1).expect("valid");
    let wt = wb.with_write_policy(WritePolicy::WriteThroughNoAllocate);
    let trace: Vec<TraceEvent> = (0..100)
        .map(|i| {
            if i % 3 == 0 {
                TraceEvent::write(i * 8 % 256, 4)
            } else {
                TraceEvent::read(i * 8 % 256, 4)
            }
        })
        .collect();
    for (config, report) in [wb, wt]
        .iter()
        .zip(ReplayBank::simulate_slice(&[wb, wt], &trace))
    {
        let lone = Simulator::simulate_slice(*config, &trace);
        assert_eq!(lone.stats, report.stats, "{config}");
        assert_eq!(lone.mem_bus, report.mem_bus, "{config}");
    }
}

#[test]
fn first_write_after_a_long_read_prefix_matches_scalar_replay() {
    // 40,000 reads, then one write in three: the first write lands in the
    // middle of a 4,096-event feed and of the second internal chunk of a
    // 65,536-event feed, with every bulk lane already warm and clean.
    let trace: Vec<TraceEvent> = (0..60_000u64)
        .map(|i| {
            let addr = match i % 5 {
                0 => (i * 52) % 4096,
                1 => ((i % 16 + 1) << 36) | (i * 8 % 1024),
                _ => (i * 12) % 2048,
            };
            if i >= 40_000 && i % 3 == 0 {
                TraceEvent::write(addr, 4)
            } else {
                TraceEvent::read(addr, 4)
            }
        })
        .collect();
    let configs = all_tier_lanes();
    for chunk in [4096usize, 65_536] {
        let (bulk, scalar) = bulk_and_scalar(&configs, &trace, chunk);
        for ((config, b), s) in configs.iter().zip(&bulk).zip(&scalar) {
            assert_eq!(b.stats, s.stats, "{config} @ chunk {chunk}");
            assert_eq!(b.cpu_bus, s.cpu_bus, "{config} @ chunk {chunk}");
            assert_eq!(b.mem_bus, s.mem_bus, "{config} @ chunk {chunk}");
        }
        let wb = |i: usize| bulk[i].stats.writebacks;
        assert!(
            (0..configs.len()).any(|i| wb(i) > 0),
            "the trace must exercise writebacks"
        );
    }
}
