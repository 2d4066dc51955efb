//! Sweep benchmark: fused one-pass bank replay vs a scalar per-design loop.
//!
//! For each of the paper's five kernels this runs the full
//! `DesignSpace::paper()` sweep through `Explorer` (every trace group one
//! banked replay) and through a scalar per-design loop (each design
//! generates its own read trace and replays it through one `Simulator`
//! via `Evaluator::evaluate_with_trace`, on one thread, with layouts
//! placed once per `(T, L)` pair), checks the two record streams are
//! bit-identical, and reports the replay-phase speedup (the loop's trace
//! and replay time over the sweep's `simulate_time`) alongside the
//! wall-clock speedup. Every sweep is measured at each worker count in
//! `{1, num_cpus}` — published rows carry a `workers` field so
//! single-worker numbers can no longer masquerade as the engine's
//! parallel throughput; the per-design loop always runs on one thread. Each kernel row also carries three per-layer
//! rates: `trace_mev_per_s` (trace generation timed alone on one thread,
//! every paper tiling under the natural layout), `replay_design_events_per_s`
//! (bank replay timed alone on one thread: every trace group of the
//! paper grid, its trace materialized beforehand, so neither layout nor
//! generation is in the window) and `layouts_per_s` (`(T, L)` pairs per
//! second of the fused run's layout phase, placement and arbitration
//! included). Everything is written to `BENCH_explore.json`
//! in the current directory. Each configuration is timed over several
//! runs and the best run is reported, which filters scheduler noise
//! without external tooling.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p bench --bin bench_explore
//! ```

use loopir::transform::tile_all;
use loopir::{kernels, DataLayout};
use memexplore::metrics::read_trace;
use memexplore::{CacheDesign, DesignSpace, Evaluator, Explorer, Record, SweepTelemetry};
use memsim::TraceEvent;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

const RUNS: usize = 3;

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

struct KernelResult {
    kernel: String,
    workers: usize,
    designs: usize,
    fused_secs: f64,
    per_design_secs: f64,
    replay_speedup: f64,
    total_speedup: f64,
    /// Fused ≡ the scalar per-design loop, bitwise.
    identical: bool,
    /// Trace-generation throughput in isolation (see [`trace_mev_per_s`]).
    trace_mev_per_s: f64,
    /// Bank-replay throughput in isolation (see [`replay_rate`]).
    replay: ReplayRate,
    /// `(T, L)` pairs placed and arbitrated per second of the fused run's
    /// layout phase.
    layouts_per_s: f64,
    telemetry: SweepTelemetry,
}

/// One layer timed in isolation on a fixed input: the kernel's read trace
/// under its natural layout at every paper tiling `B`, generated on one
/// thread. Returns millions of read events per second (best of [`RUNS`]).
fn trace_mev_per_s(kernel: &loopir::Kernel) -> f64 {
    let layout = DataLayout::natural(kernel);
    let tiled: Vec<loopir::Kernel> = DesignSpace::paper()
        .tilings
        .iter()
        .map(|&b| tile_all(kernel, b))
        .collect();
    let (secs, events) = best_of(RUNS, || {
        tiled
            .iter()
            .map(|k| read_trace(k, &layout).len())
            .sum::<usize>()
    });
    events as f64 / secs / 1e6
}

/// A trace group's designs with their conflict-free flags.
type Lanes = Vec<(CacheDesign, bool)>;

/// The replay layer alone on a fixed input.
#[derive(Clone, Copy)]
struct ReplayRate {
    /// Events per design times designs, summed over the trace groups.
    design_events: u64,
    /// Best-of-[`RUNS`] time to replay every group once.
    secs: f64,
}

/// One layer timed in isolation on a fixed input: the paper grid's trace
/// groups, each a bank of the designs sharing a (layout, tiling) trace,
/// replayed on one thread through `Evaluator::evaluate_bank_with_trace`.
/// Layouts come from `Evaluator::layout_for` and every group's trace is
/// materialized before the clock starts, so the window holds bank replay
/// and the record tail only.
fn replay_rate(kernel: &loopir::Kernel, designs: &[CacheDesign]) -> ReplayRate {
    let evaluator = Evaluator::default();
    let mut layouts: Vec<DataLayout> = Vec::new();
    let mut pairs: Vec<((usize, usize), (usize, bool))> = Vec::new();
    let mut groups: Vec<((usize, u64), Lanes)> = Vec::new();
    for &d in designs {
        let pair = (d.cache_size, d.line);
        let (id, conflict_free) = match pairs.iter().find(|(p, _)| *p == pair) {
            Some(&(_, placed)) => placed,
            None => {
                let (layout, conflict_free) = evaluator.layout_for(kernel, d.cache_size, d.line);
                let id = layouts
                    .iter()
                    .position(|l| *l == layout)
                    .unwrap_or_else(|| {
                        layouts.push(layout);
                        layouts.len() - 1
                    });
                pairs.push((pair, (id, conflict_free)));
                (id, conflict_free)
            }
        };
        let key = (id, d.tiling);
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, lanes)) => lanes.push((d, conflict_free)),
            None => groups.push((key, vec![(d, conflict_free)])),
        }
    }
    let inputs: Vec<(Lanes, Vec<TraceEvent>)> = groups
        .into_iter()
        .map(|((id, b), lanes)| (lanes, read_trace(&tile_all(kernel, b), &layouts[id])))
        .collect();
    let design_events = inputs
        .iter()
        .map(|(lanes, trace)| (lanes.len() * trace.len()) as u64)
        .sum();
    let (secs, _) = best_of(RUNS, || {
        inputs
            .iter()
            .map(|(lanes, trace)| evaluator.evaluate_bank_with_trace(lanes, trace).len())
            .sum::<usize>()
    });
    ReplayRate {
        design_events,
        secs,
    }
}

/// The scalar per-design baseline, timed as a whole.
struct PerDesign {
    records: Vec<Record>,
    /// Best-of-[`RUNS`] wall time of the whole loop.
    secs: f64,
    /// Of that run: trace generation plus replay, layouts excluded.
    simulate_secs: f64,
}

/// Evaluates every design on its own, on one thread: layouts are placed
/// once per `(T, L)` pair and kernels tiled once per `B`, then each design
/// generates its read trace and replays it through one `Simulator`
/// (`Evaluator::evaluate_with_trace`, the scalar reference).
fn per_design_loop(kernel: &loopir::Kernel, designs: &[CacheDesign]) -> PerDesign {
    let evaluator = Evaluator::default();
    let (secs, (records, simulate)) = best_of(RUNS, || {
        let mut layouts: HashMap<(usize, usize), (DataLayout, bool)> = HashMap::new();
        let mut tiled: HashMap<u64, loopir::Kernel> = HashMap::new();
        for d in designs {
            layouts
                .entry((d.cache_size, d.line))
                .or_insert_with(|| evaluator.layout_for(kernel, d.cache_size, d.line));
            tiled
                .entry(d.tiling)
                .or_insert_with(|| tile_all(kernel, d.tiling));
        }
        let start = Instant::now();
        let records: Vec<Record> = designs
            .iter()
            .map(|&d| {
                let (layout, conflict_free) = &layouts[&(d.cache_size, d.line)];
                let trace = read_trace(&tiled[&d.tiling], layout);
                evaluator.evaluate_with_trace(d, &trace, *conflict_free)
            })
            .collect();
        (records, start.elapsed())
    });
    PerDesign {
        records,
        secs,
        simulate_secs: simulate.as_secs_f64(),
    }
}

fn bench_kernel(
    kernel: &loopir::Kernel,
    designs: &[memexplore::CacheDesign],
    workers: usize,
    trace_mev_per_s: f64,
    replay: ReplayRate,
    per_design: &PerDesign,
) -> KernelResult {
    let fused = Explorer::default().with_workers(workers);
    let (fused_secs, (fused_records, fused_t)) = best_of(RUNS, || {
        fused.explore_designs_with_telemetry(kernel, designs)
    });

    KernelResult {
        kernel: kernel.name.clone(),
        workers,
        designs: designs.len(),
        fused_secs,
        per_design_secs: per_design.secs,
        replay_speedup: per_design.simulate_secs / fused_t.simulate_time.as_secs_f64(),
        total_speedup: per_design.secs / fused_secs,
        identical: fused_records == per_design.records,
        trace_mev_per_s,
        replay,
        layouts_per_s: fused_t.layouts_computed as f64 / fused_t.layout_time.as_secs_f64(),
        telemetry: fused_t,
    }
}

/// Multi-worker numbers on a strided subset of the expansive grid
/// (`DesignSpace::expansive()` has over a million candidates, so the
/// exhaustive sweep is infeasible — a fixed-stride sample keeps the
/// subset deterministic while still covering the full size/line/assoc/
/// tiling range).
struct ExpansiveResult {
    subset: usize,
    total: usize,
    workers: usize,
    serial_secs: f64,
    parallel_secs: f64,
    identical: bool,
}

fn bench_expansive(workers: usize) -> ExpansiveResult {
    const SUBSET: usize = 2048;
    let kernel = kernels::compress(31);
    let space = DesignSpace::expansive();
    let all = space.designs();
    let stride = (all.len() / SUBSET).max(1);
    let designs: Vec<memexplore::CacheDesign> = all.iter().copied().step_by(stride).collect();

    let serial = Explorer::default().with_workers(1);
    let parallel = Explorer::default().with_workers(workers);

    let (serial_secs, serial_records) = best_of(RUNS, || serial.explore_designs(&kernel, &designs));
    let (parallel_secs, parallel_records) =
        best_of(RUNS, || parallel.explore_designs(&kernel, &designs));

    ExpansiveResult {
        subset: designs.len(),
        total: all.len(),
        workers,
        serial_secs,
        parallel_secs,
        identical: serial_records == parallel_records,
    }
}

fn main() {
    bench::reject_args("bench_explore");
    let designs = DesignSpace::paper().designs();
    let num_cpus = std::thread::available_parallelism().map_or(1, usize::from);
    // One row per (kernel, worker count): serial first, then the
    // machine's full parallelism — even when they coincide, both rows
    // are published so consumers can always key on `workers`.
    let worker_counts: Vec<usize> = if num_cpus == 1 {
        vec![1]
    } else {
        vec![1, num_cpus]
    };

    let mut results: Vec<KernelResult> = Vec::new();
    for kernel in kernels::all_paper_kernels() {
        let trace_rate = trace_mev_per_s(&kernel);
        let replay = replay_rate(&kernel, &designs);
        let per_design = per_design_loop(&kernel, &designs);
        for &workers in &worker_counts {
            results.push(bench_kernel(
                &kernel,
                &designs,
                workers,
                trace_rate,
                replay,
                &per_design,
            ));
        }
    }

    let kernel = kernels::compress(31);
    let compress = &results[0];
    let serial: Vec<Record> = Explorer::default()
        .with_workers(1)
        .explore_designs(&kernel, &designs);
    let fused_compress = Explorer::default().explore_designs(&kernel, &designs);
    let identical_to_serial = fused_compress == serial;

    let expansive = bench_expansive(num_cpus.max(2));

    let json = render_json(&results, num_cpus, identical_to_serial, &expansive);
    std::fs::write("BENCH_explore.json", &json).expect("can write BENCH_explore.json");

    for r in &results {
        println!(
            "kernel {} | {} designs | {} worker(s) | fused {:.3} s | per-design {:.3} s | replay speedup {:.2}x | total {:.2}x | trace {:.1} Mev/s | replay {:.2e} design-events/s | {:.0} layouts/s",
            r.kernel, r.designs, r.workers, r.fused_secs, r.per_design_secs,
            r.replay_speedup, r.total_speedup, r.trace_mev_per_s,
            r.replay.design_events as f64 / r.replay.secs, r.layouts_per_s
        );
        assert!(
            r.identical,
            "{}: sweep diverged from the per-design loop",
            r.kernel
        );
    }
    println!("{}", compress.telemetry);
    for r in &results {
        let scan = &r.telemetry.scan_latency;
        if scan.count > 0 {
            println!(
                "kernel {} ({} workers) | fused scan latency: {scan}",
                r.kernel, r.workers
            );
        }
    }
    println!("records bit-identical to serial sweep: {identical_to_serial}");
    println!(
        "expansive subset ({} of {} designs) | serial {:.3} s | {} workers {:.3} s | speedup {:.2}x | identical {}",
        expansive.subset,
        expansive.total,
        expansive.serial_secs,
        expansive.workers,
        expansive.parallel_secs,
        expansive.serial_secs / expansive.parallel_secs,
        expansive.identical
    );
    println!("wrote BENCH_explore.json");

    assert!(identical_to_serial, "parallel sweep diverged from serial");
    assert!(
        expansive.identical,
        "multi-worker expansive sweep diverged from serial"
    );
}

fn render_json(
    results: &[KernelResult],
    num_cpus: usize,
    identical_to_serial: bool,
    expansive: &ExpansiveResult,
) -> String {
    let mut kernels_json = String::new();
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            kernels_json,
            concat!(
                "    {{\n",
                "      \"kernel\": \"{}\",\n",
                "      \"workers\": {},\n",
                "      \"designs\": {},\n",
                "      \"fused_secs\": {:.6},\n",
                "      \"per_design_secs\": {:.6},\n",
                "      \"replay_phase_speedup\": {:.3},\n",
                "      \"total_speedup\": {:.3},\n",
                "      \"records_identical\": {},\n",
                "      \"trace_mev_per_s\": {:.1},\n",
                "      \"replay_design_events\": {},\n",
                "      \"replay_secs\": {:.6},\n",
                "      \"replay_design_events_per_s\": {:.1},\n",
                "      \"layouts_per_s\": {:.1},\n",
                "      \"telemetry\": {}\n",
                "    }}{}"
            ),
            r.kernel,
            r.workers,
            r.designs,
            r.fused_secs,
            r.per_design_secs,
            r.replay_speedup,
            r.total_speedup,
            r.identical,
            r.trace_mev_per_s,
            r.replay.design_events,
            r.replay.secs,
            r.replay.design_events as f64 / r.replay.secs,
            r.layouts_per_s,
            r.telemetry.to_json(),
            if i + 1 < results.len() { ",\n" } else { "\n" }
        );
    }
    format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"explore_paper_space\",\n",
            "  \"runs_per_engine\": {},\n",
            "  \"num_cpus\": {},\n",
            "  \"engines\": [\"fused\", \"per-design-scalar\"],\n",
            "  \"kernels\": [\n{}  ],\n",
            "  \"records_identical_to_serial\": {},\n",
            "  \"expansive_subset\": {{\n",
            "    \"kernel\": \"Compress\",\n",
            "    \"subset_designs\": {},\n",
            "    \"grid_designs\": {},\n",
            "    \"workers\": {},\n",
            "    \"serial_secs\": {:.6},\n",
            "    \"parallel_secs\": {:.6},\n",
            "    \"speedup\": {:.3},\n",
            "    \"records_identical\": {}\n",
            "  }}\n",
            "}}\n"
        ),
        RUNS,
        num_cpus,
        kernels_json,
        identical_to_serial,
        expansive.subset,
        expansive.total,
        expansive.workers,
        expansive.serial_secs,
        expansive.parallel_secs,
        expansive.serial_secs / expansive.parallel_secs,
        expansive.identical,
    )
}
