//! Certified-search benchmark: bound-guided best-first search vs the
//! exhaustive sweep.
//!
//! Three parts, all written to `BENCH_search.json`:
//!
//! * **Paper grid** — for every paper kernel and both single objectives,
//!   run the exhaustive sweep + min-select and the gap-0 search, assert
//!   the incumbents are bit-identical, and record timings and prune
//!   counts.
//! * **Expansive search** — per shipped `examples/kernels/*.mx`, the
//!   exact (gap 0) energy search over `DesignSpace::expansive()` on one
//!   worker: leaves simulated and pruned, the Belady-MIN floor work
//!   (trace keys, lines, milliseconds) and the total time. Next to it,
//!   MatMult's paper-grid cycles search against the paper-grid sweep,
//!   both on one worker, asserting the same minimum.
//! * **Big grid** — on `DesignSpace::expansive()` (over a million
//!   candidates, including the replacement/write-policy axes) run the
//!   search alone at a 1% gap target. The exhaustive baseline is
//!   *extrapolated* from the paper grid's measured per-design cost; the
//!   run asserts the certified gap stays ≤ 1% and the search beats the
//!   extrapolated sweep by ≥ 10×.
//! * **Replay throughput** — the replay layer under the big grid: for each
//!   of its 21 (associativity, replacement) pairs, a 12-lane
//!   `memsim::ReplayBank` (T ∈ 4/16/64 KiB × L ∈ 16/64 B × both write
//!   policies) replays MatMult's natural-layout read trace in the search's
//!   4,096-event chunks, once on the bulk tiers and once under
//!   `with_scalar_replay`. The run asserts the two banks' reports are
//!   bit-identical and records design-events/s for each.
//! * **Placement** — the layout phase's first layer on the big grid: per
//!   shipped `examples/kernels/*.mx`, the total time of
//!   `analysis::optimize_layout` over the grid's 144 `(T, L)` pairs
//!   against the eager enumerator it replaced (the test-only oracle in
//!   `crates/suite/tests/placement_oracle/`), asserting identical reports;
//!   plus the hostile `Worst` kernel at 64 KiB, whose scan has no
//!   collision-free candidate and stops at the candidate budget (the
//!   oracle is not run there: it did not finish within a minute), and its
//!   scaled-down copy at 4 KiB, which the oracle does finish.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p bench --bin bench_search
//! ```

#[path = "../../../suite/tests/placement_oracle/mod.rs"]
mod placement_oracle;

use analysis::placement::{optimize_layout, PlacementError, PlacementReport};
use loopir::{kernels, parse_kernel, DataLayout, Kernel};
use memexplore::metrics::{read_trace, PLAN_CHUNK_EVENTS};
use memexplore::{select, DesignSpace, Explorer, Objective, SearchOptions};
use memsim::{CacheConfig, ReplayBank, TraceEvent, WritePolicy};
use std::time::Instant;

const RUNS: usize = 3;
const BIG_GAP: f64 = 0.01;
const BIG_SPEEDUP_FLOOR: f64 = 10.0;

fn best_of<T>(runs: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best: Option<(f64, T)> = None;
    for _ in 0..runs {
        let start = Instant::now();
        let value = f();
        let secs = start.elapsed().as_secs_f64();
        if best.as_ref().is_none_or(|(b, _)| secs < *b) {
            best = Some((secs, value));
        }
    }
    best.expect("runs >= 1")
}

/// Replays `trace` through a bank of `configs` in the search's chunk
/// size; returns the reports and the bank's scalar lane-events.
fn replay(
    configs: &[CacheConfig],
    trace: &[TraceEvent],
    scalar: bool,
) -> (Vec<memsim::SimReport>, u64) {
    let mut bank = ReplayBank::new(configs);
    if scalar {
        bank = bank.with_scalar_replay();
    }
    for chunk in trace.chunks(PLAN_CHUNK_EVENTS) {
        bank.feed(chunk);
    }
    let scalar_events = bank.scalar_lane_events();
    (bank.finish(), scalar_events)
}

/// The replay-throughput rows: one per (associativity, replacement) pair
/// of the big grid, bulk tiers against the scalar lane loop.
fn replay_rows(big_space: &DesignSpace) -> (String, usize, Vec<String>) {
    let kernel = kernels::matmul(31);
    let trace = read_trace(&kernel, &DataLayout::natural(&kernel));
    let mut rows = Vec::new();
    for &assoc in &big_space.assocs {
        for &replacement in &big_space.replacements {
            let mut configs = Vec::new();
            for size in [4 << 10, 16 << 10, 64 << 10] {
                for line in [16, 64] {
                    for &write_policy in &[
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
            let design_events = (trace.len() * configs.len()) as f64;
            let (bulk_secs, (bulk, bulk_scalar)) =
                best_of(RUNS, || replay(&configs, &trace, false));
            let (scalar_secs, (scalar, _)) = best_of(RUNS, || replay(&configs, &trace, true));
            for (b, s) in bulk.iter().zip(&scalar) {
                assert!(
                    b.stats == s.stats && b.cpu_bus == s.cpu_bus && b.mem_bus == s.mem_bus,
                    "{}: bulk replay diverged from the scalar loop",
                    b.config
                );
            }
            let (bulk_rate, scalar_rate) = (design_events / bulk_secs, design_events / scalar_secs);
            println!(
                "replay S={assoc:2} {replacement:4} | bulk {:7.1} M design-events/s | scalar {:6.1} M | {:5.2}x | {bulk_scalar} lane-events left scalar",
                bulk_rate / 1e6,
                scalar_rate / 1e6,
                bulk_rate / scalar_rate,
            );
            rows.push(format!(
                concat!(
                    "      {{\"assoc\": {}, \"replacement\": \"{}\", ",
                    "\"bulk_design_events_per_s\": {:.0}, ",
                    "\"scalar_design_events_per_s\": {:.0}, ",
                    "\"speedup\": {:.2}, \"bulk_scalar_lane_events\": {}}}"
                ),
                assoc,
                replacement,
                bulk_rate,
                scalar_rate,
                bulk_rate / scalar_rate,
                bulk_scalar,
            ));
        }
    }
    (kernel.name.clone(), trace.len(), rows)
}

/// The shipped example kernels, in path order (run from the repo root).
fn example_kernels() -> Vec<Kernel> {
    let mut paths: Vec<_> = std::fs::read_dir("examples/kernels")
        .expect("examples/kernels exists (run from the repo root)")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mx"))
        .collect();
    paths.sort();
    paths.iter().map(|p| kernel_file(p)).collect()
}

/// The expansive-search rows: per example kernel, the exact energy
/// search on one worker, best of `RUNS`.
fn expansive_rows(big_space: &DesignSpace) -> Vec<String> {
    let explorer = Explorer::default().with_workers(1);
    let mut rows = Vec::new();
    for kernel in example_kernels() {
        let (secs, out) = best_of(RUNS, || {
            explorer.search(&kernel, big_space, &SearchOptions::default())
        });
        assert!(
            out.complete && out.gap() == 0.0,
            "{}: expansive search not certified",
            kernel.name
        );
        let t = &out.telemetry;
        let best = out.incumbent.as_ref().expect("complete => incumbent");
        println!(
            "expansive {:10} | simulated {:5} pruned {:5} | floors {:3} keys {:9} lines {:7.1} ms | total {:.3} s | {}",
            kernel.name,
            t.designs_evaluated,
            t.designs_pruned,
            t.floor_units,
            t.floor_lines,
            t.floor_time.as_secs_f64() * 1e3,
            secs,
            best.design,
        );
        rows.push(format!(
            concat!(
                "      {{\"kernel\": \"{}\", \"incumbent\": \"{}\", ",
                "\"designs_simulated\": {}, \"designs_pruned\": {}, ",
                "\"floor_units\": {}, \"floor_capacities\": {}, \"floor_lines\": {}, ",
                "\"floor_ms\": {:.3}, \"simulate_ms\": {:.3}, \"total_secs\": {:.6}}}"
            ),
            kernel.name,
            best.design,
            t.designs_evaluated,
            t.designs_pruned,
            t.floor_units,
            t.floor_capacities,
            t.floor_lines,
            t.floor_time.as_secs_f64() * 1e3,
            t.simulate_time.as_secs_f64() * 1e3,
            secs,
        ));
    }
    rows
}

/// MatMult's paper-grid cycles search against the paper-grid sweep plus
/// `select::min_cycles`, both on one worker, best of `RUNS`.
fn matmul_cycles_row(space: &DesignSpace) -> String {
    let explorer = Explorer::default().with_workers(1);
    let kernel = kernels::matmul(31);
    let (sweep_secs, best) = best_of(RUNS, || {
        let records = explorer.explore(&kernel, space);
        select::min_cycles(&records)
            .cloned()
            .expect("non-empty grid")
    });
    let options = SearchOptions {
        objective: Objective::Cycles,
        ..Default::default()
    };
    let (search_secs, out) = best_of(RUNS, || explorer.search(&kernel, space, &options));
    assert_eq!(
        out.incumbent.as_ref(),
        Some(&best),
        "MatMult cycles: search diverged from the sweep minimum"
    );
    let t = &out.telemetry;
    println!(
        "paper MatMult cycles (1 worker) | simulated {} pruned {} | floors {:.1} ms | search {:.3} s | sweep {:.3} s",
        t.designs_evaluated,
        t.designs_pruned,
        t.floor_time.as_secs_f64() * 1e3,
        search_secs,
        sweep_secs,
    );
    format!(
        concat!(
            "{{\"kernel\": \"{}\", \"workers\": 1, \"designs\": {}, ",
            "\"designs_simulated\": {}, \"designs_pruned\": {}, \"floor_ms\": {:.3}, ",
            "\"search_secs\": {:.6}, \"sweep_secs\": {:.6}, \"incumbent_identical\": true}}"
        ),
        kernel.name,
        space.design_count(),
        t.designs_evaluated,
        t.designs_pruned,
        t.floor_time.as_secs_f64() * 1e3,
        search_secs,
        sweep_secs,
    )
}

/// Parses a kernel file (paths relative to the repository root).
fn kernel_file(path: &std::path::Path) -> Kernel {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "cannot read {} (run from the repo root): {e}",
            path.display()
        )
    });
    parse_kernel(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Total best-of-`RUNS` seconds of placing `kernel` at every pair, and the
/// reports.
fn place_all(
    kernel: &Kernel,
    pairs: &[(u64, u64)],
    place: fn(&Kernel, u64, u64) -> Result<PlacementReport, PlacementError>,
) -> (f64, Vec<PlacementReport>) {
    best_of(RUNS, || {
        pairs
            .iter()
            .map(|&(t, l)| place(kernel, t, l).expect("placeable"))
            .collect()
    })
}

/// The placement rows: per shipped kernel, lazy budgeted search against
/// the eager oracle over every `(T, L)` pair of the big grid, then the
/// hostile kernels.
fn placement_rows(big_space: &DesignSpace) -> (usize, Vec<String>, Vec<String>) {
    let mut pairs = Vec::new();
    for &t in &big_space.cache_sizes {
        for &l in &big_space.line_sizes {
            if l <= t && t / l >= big_space.min_lines {
                pairs.push((t as u64, l as u64));
            }
        }
    }
    let mut rows = Vec::new();
    for kernel in example_kernels() {
        let (secs, reports) = place_all(&kernel, &pairs, optimize_layout);
        let (oracle_secs, oracle) = place_all(&kernel, &pairs, placement_oracle::optimize_layout);
        assert!(
            reports == oracle,
            "{}: placement diverged from the eager oracle",
            kernel.name
        );
        println!(
            "place {:10} | {} pairs | lazy {:8.2} ms | eager oracle {:8.2} ms | {:6.1}x",
            kernel.name,
            pairs.len(),
            secs * 1e3,
            oracle_secs * 1e3,
            oracle_secs / secs,
        );
        rows.push(format!(
            concat!(
                "      {{\"kernel\": \"{}\", \"pairs\": {}, \"secs\": {:.6}, ",
                "\"oracle_secs\": {:.6}, \"speedup\": {:.1}, \"reports_identical\": true}}"
            ),
            kernel.name,
            pairs.len(),
            secs,
            oracle_secs,
            oracle_secs / secs,
        ));
    }
    let mut hostile = Vec::new();
    for (file, t, l, oracle) in [
        ("worst.mx", 65536u64, 16u64, false),
        ("worst_small.mx", 4096, 16, true),
    ] {
        let kernel = kernel_file(&std::path::Path::new("crates/suite/tests/kernels").join(file));
        let (secs, report) = place_all(&kernel, &[(t, l)], optimize_layout);
        assert!(
            !report[0].conflict_free,
            "{}: no layout is conflict-free",
            kernel.name
        );
        let oracle_secs = oracle.then(|| {
            let (secs, want) = place_all(&kernel, &[(t, l)], placement_oracle::optimize_layout);
            assert!(
                report == want,
                "{}: placement diverged from the eager oracle",
                kernel.name
            );
            secs
        });
        println!(
            "place {:10} | T={t} L={l} | lazy {:8.2} ms | eager oracle {}",
            kernel.name,
            secs * 1e3,
            oracle_secs.map_or("not run".to_string(), |s| format!("{:.2} ms", s * 1e3)),
        );
        hostile.push(format!(
            concat!(
                "      {{\"kernel\": \"{}\", \"cache\": {}, \"line\": {}, \"secs\": {:.6}, ",
                "\"oracle_secs\": {}, \"conflict_free\": false, \"reports_identical\": {}}}"
            ),
            kernel.name,
            t,
            l,
            secs,
            oracle_secs.map_or("null".to_string(), |s| format!("{s:.6}")),
            oracle_secs.map_or("null", |_| "true"),
        ));
    }
    (pairs.len(), rows, hostile)
}

fn main() {
    bench::reject_args("bench_search");
    let space = DesignSpace::paper();
    let designs = space.design_count();
    let explorer = Explorer::default();

    let mut rows = Vec::new();
    let mut secs_per_design: f64 = f64::INFINITY;
    for kernel in kernels::all_paper_kernels() {
        let (exhaustive_secs, records) = best_of(RUNS, || explorer.explore(&kernel, &space));
        // The cheapest measured sweep rate extrapolates most conservatively
        // (it understates the exhaustive cost of the big grid).
        secs_per_design = secs_per_design.min(exhaustive_secs / designs as f64);
        for objective in [Objective::Energy, Objective::Cycles] {
            let options = SearchOptions {
                objective,
                ..Default::default()
            };
            let (search_secs, out) = best_of(RUNS, || explorer.search(&kernel, &space, &options));
            let oracle = match objective {
                Objective::Energy => select::min_energy(&records),
                _ => select::min_cycles(&records),
            }
            .expect("non-empty grid");
            assert!(out.complete, "{}/{objective}: not certified", kernel.name);
            assert_eq!(
                out.incumbent.as_ref().expect("complete => incumbent"),
                oracle,
                "{}/{objective}: search diverged from the sweep minimum",
                kernel.name
            );
            let speedup = exhaustive_secs / search_secs;
            println!(
                "kernel {:10} | {objective:7} | {designs} designs | simulated {:3} pruned {:3} | exhaustive {:.3} s | search {:.3} s | speedup {:.2}x",
                kernel.name,
                out.telemetry.designs_evaluated,
                out.telemetry.designs_pruned,
                exhaustive_secs,
                search_secs,
                speedup,
            );
            rows.push(format!(
                concat!(
                    "      {{\n",
                    "        \"kernel\": \"{}\",\n",
                    "        \"objective\": \"{}\",\n",
                    "        \"designs\": {},\n",
                    "        \"designs_simulated\": {},\n",
                    "        \"designs_pruned\": {},\n",
                    "        \"expansions\": {},\n",
                    "        \"incumbent_identical\": true,\n",
                    "        \"certified_gap\": {:.6},\n",
                    "        \"exhaustive_secs\": {:.6},\n",
                    "        \"search_secs\": {:.6},\n",
                    "        \"speedup\": {:.3}\n",
                    "      }}"
                ),
                kernel.name,
                objective,
                designs,
                out.telemetry.designs_evaluated,
                out.telemetry.designs_pruned,
                out.expansions,
                out.gap(),
                exhaustive_secs,
                search_secs,
                speedup,
            ));
        }
    }

    // Big grid: a million-plus candidates, search only.
    let big_space = DesignSpace::expansive();
    let big_designs = big_space.design_count();
    assert!(
        big_designs >= 1_000_000,
        "expansive grid shrank below a million designs ({big_designs})"
    );
    let kernel = kernels::compress(31);
    let options = SearchOptions {
        objective: Objective::Energy,
        gap: BIG_GAP,
        ..Default::default()
    };
    let start = Instant::now();
    let out = explorer.search(&kernel, &big_space, &options);
    let big_secs = start.elapsed().as_secs_f64();
    let extrapolated = secs_per_design * big_designs as f64;
    let big_speedup = extrapolated / big_secs;
    assert!(
        out.relative_gap() <= BIG_GAP + 1e-12,
        "big grid: certified relative gap {} above the {BIG_GAP} target",
        out.relative_gap()
    );
    assert!(
        big_speedup >= BIG_SPEEDUP_FLOOR,
        "big grid: search {big_secs:.1}s vs extrapolated exhaustive {extrapolated:.1}s is only {big_speedup:.1}x (need {BIG_SPEEDUP_FLOOR}x)"
    );
    println!(
        "big grid {} | {big_designs} designs | simulated {} pruned {} | gap {:.4} ({:.2}%) | search {:.3} s | extrapolated exhaustive {:.1} s | {:.0}x",
        kernel.name,
        out.telemetry.designs_evaluated,
        out.telemetry.designs_pruned,
        out.gap(),
        out.relative_gap() * 100.0,
        big_secs,
        extrapolated,
        big_speedup,
    );

    let expansive = expansive_rows(&big_space);
    let matmul_cycles = matmul_cycles_row(&space);
    let (replay_kernel, replay_events, replay) = replay_rows(&big_space);
    let (place_pairs, place_rows, hostile_rows) = placement_rows(&big_space);

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"certified_search\",\n",
            "  \"runs_per_config\": {},\n",
            "  \"paper_grid\": {{\n",
            "    \"designs\": {},\n",
            "    \"kernels\": [\n{}\n    ]\n",
            "  }},\n",
            "  \"expansive\": {{\n",
            "    \"designs\": {},\n",
            "    \"objective\": \"energy\",\n",
            "    \"workers\": 1,\n",
            "    \"kernels\": [\n{}\n    ],\n",
            "    \"paper_matmul_cycles\": {}\n",
            "  }},\n",
            "  \"big_grid\": {{\n",
            "    \"kernel\": \"{}\",\n",
            "    \"designs\": {},\n",
            "    \"objective\": \"energy\",\n",
            "    \"gap_target\": {:.3},\n",
            "    \"certified_relative_gap\": {:.6},\n",
            "    \"complete\": {},\n",
            "    \"designs_simulated\": {},\n",
            "    \"designs_pruned\": {},\n",
            "    \"expansions\": {},\n",
            "    \"beam_discarded\": {},\n",
            "    \"search_secs\": {:.3},\n",
            "    \"extrapolated_exhaustive_secs\": {:.3},\n",
            "    \"speedup_vs_extrapolated\": {:.1},\n",
            "    \"speedup_floor\": {:.1}\n",
            "  }},\n",
            "  \"replay\": {{\n",
            "    \"kernel\": \"{}\",\n",
            "    \"trace_events\": {},\n",
            "    \"lanes_per_bank\": 12,\n",
            "    \"chunk_events\": {},\n",
            "    \"pairs\": [\n{}\n    ]\n",
            "  }},\n",
            "  \"placement\": {{\n",
            "    \"pairs_per_kernel\": {},\n",
            "    \"candidate_budget\": {},\n",
            "    \"kernels\": [\n{}\n    ],\n",
            "    \"hostile\": [\n{}\n    ]\n",
            "  }}\n",
            "}}\n"
        ),
        RUNS,
        designs,
        rows.join(",\n"),
        big_designs,
        expansive.join(",\n"),
        matmul_cycles,
        kernel.name,
        big_designs,
        BIG_GAP,
        out.relative_gap(),
        out.complete,
        out.telemetry.designs_evaluated,
        out.telemetry.designs_pruned,
        out.expansions,
        out.beam_discarded,
        big_secs,
        extrapolated,
        big_speedup,
        BIG_SPEEDUP_FLOOR,
        replay_kernel,
        replay_events,
        PLAN_CHUNK_EVENTS,
        replay.join(",\n"),
        place_pairs,
        analysis::placement::CANDIDATE_BUDGET,
        place_rows.join(",\n"),
        hostile_rows.join(",\n"),
    );
    std::fs::write("BENCH_search.json", &json).expect("can write BENCH_search.json");
    println!("wrote BENCH_search.json");
}
