//! Streaming-sweep benchmark: a multi-hundred-megabyte synthetic `.din`
//! workload swept over the trace grid without ever materializing the
//! trace.
//!
//! The harness synthesizes a hot/cold access mixture (`memsim::synth`),
//! writes it out as Dinero `.din` text until the file crosses the target
//! size (100 MB by default; override with `BENCH_STREAM_MB` — CI's smoke
//! run uses a small value), then streams it through the full
//! `TraceWorkload` grid sweep and reports sustained parse+replay
//! throughput alongside the peak resident chunk footprint, which is the
//! whole point: memory stays O(chunk × workers) no matter how large the
//! file grows. The run fails if the peak chunk footprint ever exceeds
//! the configured chunk capacity.
//!
//! Beside the parse+replay rate (`design_events_per_sec`) it reports the
//! replay layer alone (`replay_design_events_per_sec`): the same grid,
//! in the sweep's banks of `TRACE_BANK_WIDTH` designs, replayed from
//! chunks parsed into memory beforehand, one bank after another on one
//! thread (`replay_workers`). At most `REPLAY_EVENTS` events (the head of
//! the file) are held, so the probe stays under 64 MiB.
//!
//! Results are written to `BENCH_stream.json` in the current directory.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p bench --bin bench_stream
//! ```

use memexplore::{select, TraceWorkload, TRACE_BANK_WIDTH};
use memsim::din::{write_din, DinLabel, DinRecord};
use memsim::synth::{generate, Pattern};
use memsim::{ReplayBank, TraceEvent, DEFAULT_CHUNK_CAPACITY};
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::time::Instant;

/// Events synthesized per batch while growing the file.
const BATCH: usize = 1 << 20;

/// Footprint of the synthetic workload: 4 MiB with a 64 KiB hot region,
/// so the grid's caches see hits, misses, and writebacks alike.
const FOOTPRINT: u64 = 4 << 20;
const HOT_BYTES: u64 = 64 << 10;

/// Most events the replay-only probe parses into memory (64 MiB).
const REPLAY_EVENTS: usize = 1 << 22;

fn target_bytes() -> u64 {
    let mb: u64 = std::env::var("BENCH_STREAM_MB")
        .ok()
        .map(|v| {
            v.parse().unwrap_or_else(|_| {
                eprintln!("error: BENCH_STREAM_MB must be a whole number of megabytes, got `{v}`");
                std::process::exit(2);
            })
        })
        .unwrap_or(100);
    mb * 1_000_000
}

fn main() {
    bench::reject_args("bench_stream");
    let target = target_bytes();
    let path = std::env::temp_dir().join("bench_stream.din");

    // Synthesize the workload batch by batch until the file is big
    // enough. Every fourth access becomes a store so the write path
    // (writebacks, write energy) is exercised too.
    let synth_start = Instant::now();
    let mut written: u64 = 0;
    let mut events: u64 = 0;
    {
        let file = File::create(&path).expect("can create the scratch .din file");
        let mut out = BufWriter::new(file);
        let mut seed = 0x5eed;
        while written < target {
            let batch: Vec<DinRecord> = generate(
                Pattern::HotCold {
                    hot_bytes: HOT_BYTES,
                    hot_fraction: 0.9,
                },
                FOOTPRINT,
                4,
                BATCH,
                seed,
            )
            .iter()
            .enumerate()
            .map(|(i, e)| DinRecord {
                label: if i % 4 == 3 {
                    DinLabel::Write
                } else {
                    DinLabel::Read
                },
                addr: e.addr,
            })
            .collect();
            let mut bytes = Vec::new();
            write_din(&mut bytes, &batch).expect("in-memory write cannot fail");
            out.write_all(&bytes).expect("can grow the scratch file");
            written += bytes.len() as u64;
            events += batch.len() as u64;
            seed += 1;
        }
        out.flush().expect("can flush the scratch file");
    }
    let synth_secs = synth_start.elapsed().as_secs_f64();

    // Prepare (one fingerprint pass over the file) and sweep (the
    // streamed grid replay), timed separately.
    let prepare_start = Instant::now();
    let workload = TraceWorkload::from_path(&path).expect("the synthesized trace is well-formed");
    let prepare_secs = prepare_start.elapsed().as_secs_f64();
    assert_eq!(workload.events(), events, "fingerprint pass lost events");

    let designs = TraceWorkload::design_space().designs();
    let explorer = memexplore::Explorer::default();
    let sweep_start = Instant::now();
    let (records, telemetry) = explorer
        .explore_trace(&workload, &designs)
        .expect("streamed sweep succeeds");
    let sweep_secs = sweep_start.elapsed().as_secs_f64();

    let best = select::min_energy(&records).expect("non-empty sweep");
    let chunk_budget = (workload.chunk_capacity() * std::mem::size_of::<TraceEvent>()) as u64;
    assert!(
        telemetry.peak_chunk_bytes <= chunk_budget,
        "resident chunk {} B exceeds the {} B budget",
        telemetry.peak_chunk_bytes,
        chunk_budget
    );

    // Replay alone: parse the head of the file into chunks first, then
    // time only the bank scans.
    let mut chunks: Vec<Vec<TraceEvent>> = Vec::new();
    let mut replay_events = 0usize;
    let mut source = workload.open().expect("the synthesized trace reopens");
    while replay_events < REPLAY_EVENTS {
        let mut chunk = Vec::with_capacity(workload.chunk_capacity());
        let n = source
            .fill(&mut chunk, workload.chunk_capacity())
            .expect("the synthesized trace parses");
        if n == 0 {
            break;
        }
        replay_events += n;
        chunks.push(chunk);
    }
    drop(source);
    let configs: Vec<_> = designs
        .iter()
        .map(|d| d.cache_config().expect("grid designs are valid"))
        .collect();
    let replay_start = Instant::now();
    for shard in configs.chunks(TRACE_BANK_WIDTH) {
        let mut bank = ReplayBank::with_options(shard, explorer.evaluator.bus_encoding, false);
        for chunk in &chunks {
            bank.feed(chunk);
        }
        std::hint::black_box(bank.finish());
    }
    let replay_secs = replay_start.elapsed().as_secs_f64();
    drop(chunks);

    let events_per_sec = events as f64 / sweep_secs;
    let design_events_per_sec = events as f64 * designs.len() as f64 / sweep_secs;
    let replay_design_events_per_sec = replay_events as f64 * designs.len() as f64 / replay_secs;
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"stream_sweep\",\n",
            "  \"din_bytes\": {},\n",
            "  \"events\": {},\n",
            "  \"designs\": {},\n",
            "  \"synth_secs\": {:.6},\n",
            "  \"prepare_secs\": {:.6},\n",
            "  \"sweep_secs\": {:.6},\n",
            "  \"events_per_sec\": {:.1},\n",
            "  \"design_events_per_sec\": {:.1},\n",
            "  \"replay_events\": {},\n",
            "  \"replay_secs\": {:.6},\n",
            "  \"replay_design_events_per_sec\": {:.1},\n",
            "  \"replay_workers\": 1,\n",
            "  \"workers\": {},\n",
            "  \"chunk_capacity\": {},\n",
            "  \"peak_chunk_bytes_per_worker\": {},\n",
            "  \"chunk_budget_bytes\": {},\n",
            "  \"min_energy_nj\": {:.3}\n",
            "}}\n"
        ),
        written,
        events,
        designs.len(),
        synth_secs,
        prepare_secs,
        sweep_secs,
        events_per_sec,
        design_events_per_sec,
        replay_events,
        replay_secs,
        replay_design_events_per_sec,
        telemetry.workers,
        workload.chunk_capacity(),
        telemetry.peak_chunk_bytes,
        chunk_budget,
        best.energy_nj,
    );
    std::fs::write("BENCH_stream.json", &json).expect("can write BENCH_stream.json");
    std::fs::remove_file(&path).ok();

    println!(
        "{written} B ({events} events) streamed over {} designs in {sweep_secs:.3} s",
        designs.len()
    );
    println!(
        "{events_per_sec:.0} events/s ({design_events_per_sec:.2e} design-events/s) | \
         peak resident chunk {} B per worker (budget {} B, {} workers)",
        telemetry.peak_chunk_bytes, chunk_budget, telemetry.workers
    );
    println!(
        "replay alone: {replay_events} pre-parsed events in {replay_secs:.3} s \
         ({replay_design_events_per_sec:.2e} design-events/s)"
    );
    assert_eq!(DEFAULT_CHUNK_CAPACITY, workload.chunk_capacity());
    println!("wrote BENCH_stream.json");
}
