//! Shard-coordinator benchmark: one local worker vs N, with the merge
//! overhead broken out.
//!
//! For each paper kernel this partitions the full `DesignSpace::paper()`
//! grid into shards and drives them through the same coordinator
//! (`run_sharded` + `ThreadExecutor`) that backs `memx sweep
//! --distributed N`, at 1, 2, and `available_parallelism` worker slots.
//! Each configuration is checked bit-identical to the single-process
//! sweep, and the coordinator's own merge time (dedupe + slot fill) is
//! reported separately from the wall clock, so the distribution tax is
//! visible. Results go to `BENCH_shard.json` in the current directory;
//! each configuration is timed over several runs and the best run is
//! kept.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p bench --bin bench_shard
//! ```

use loopir::kernels;
use memexplore::shard::ShardFn;
use memexplore::{
    partition, run_sharded, CacheDesign, CoordinatorOptions, DesignSpace, Explorer, Record,
    ShardOutput, ShardSpec, ThreadExecutor,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

const RUNS: usize = 3;
/// Shards per worker slot — enough that the dispatch queue (not just the
/// initial fan-out) is exercised, matching the `memx sweep` default.
const SHARDS_PER_SLOT: usize = 2;

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

/// The worker body `memx worker` runs, minus the process boundary: a
/// serial sweep over the shard's slice of the grid.
fn shard_worker(kernel: loopir::Kernel, designs: Vec<CacheDesign>) -> Arc<ShardFn> {
    Arc::new(move |spec: &ShardSpec| {
        let records = Explorer::default()
            .with_workers(1)
            .explore_designs(&kernel, &designs[spec.start..spec.end]);
        Ok(ShardOutput {
            sweep_id: spec.sweep_id,
            entries: records.into_iter().enumerate().collect(),
            quarantined: Vec::new(),
        })
    })
}

struct Config {
    slots: usize,
    shards: usize,
    secs: f64,
    merge_secs: f64,
    identical: bool,
}

struct KernelResult {
    kernel: String,
    designs: usize,
    single_secs: f64,
    configs: Vec<Config>,
}

fn bench_kernel(kernel: &loopir::Kernel, designs: &[CacheDesign]) -> KernelResult {
    // Oracle: the undistributed sweep every configuration must reproduce.
    let (single_secs, baseline) = best_of(RUNS, || {
        Explorer::default().explore_designs(kernel, designs)
    });

    let cores = std::thread::available_parallelism().map_or(4, usize::from);
    let mut slot_counts = vec![1, 2, cores];
    slot_counts.sort_unstable();
    slot_counts.dedup();

    let worker = shard_worker(kernel.clone(), designs.to_vec());
    let configs = slot_counts
        .into_iter()
        .map(|slots| {
            let shards = (slots * SHARDS_PER_SLOT).max(1);
            let specs = partition(designs.len(), shards);
            let executor = ThreadExecutor::new(slots, Arc::clone(&worker));
            let options = CoordinatorOptions {
                poll: Duration::from_micros(200),
                ..CoordinatorOptions::default()
            };
            let local = |spec: &ShardSpec| worker(spec);
            let (secs, outcome) = best_of(RUNS, || {
                run_sharded(&executor, &specs, designs, &local, &options, None)
                    .expect("fault-free sweep completes")
            });
            let merged: Vec<Record> = outcome.completed_records();
            Config {
                slots,
                shards,
                secs,
                merge_secs: outcome.stats.merge_time.as_secs_f64(),
                identical: merged == baseline,
            }
        })
        .collect();

    KernelResult {
        kernel: kernel.name.clone(),
        designs: designs.len(),
        single_secs,
        configs,
    }
}

fn main() {
    bench::reject_args("bench_shard");
    let designs = DesignSpace::paper().designs();

    let results: Vec<KernelResult> = kernels::all_paper_kernels()
        .iter()
        .map(|k| bench_kernel(k, &designs))
        .collect();

    for r in &results {
        println!(
            "kernel {} | {} designs | single-process {:.3} s",
            r.kernel, r.designs, r.single_secs
        );
        for c in &r.configs {
            println!(
                "  {} worker(s), {} shards | {:.3} s | merge {:.6} s | speedup {:.2}x | identical {}",
                c.slots,
                c.shards,
                c.secs,
                c.merge_secs,
                r.single_secs / c.secs,
                c.identical
            );
            assert!(c.identical, "{}: sharded merge diverged", r.kernel);
        }
    }

    let json = render_json(&results);
    std::fs::write("BENCH_shard.json", &json).expect("can write BENCH_shard.json");
    println!("wrote BENCH_shard.json");
}

fn render_json(results: &[KernelResult]) -> String {
    let mut kernels_json = String::new();
    for (i, r) in results.iter().enumerate() {
        let mut configs_json = String::new();
        for (j, c) in r.configs.iter().enumerate() {
            let _ = write!(
                configs_json,
                concat!(
                    "        {{\n",
                    "          \"workers\": {},\n",
                    "          \"shards\": {},\n",
                    "          \"secs\": {:.6},\n",
                    "          \"merge_secs\": {:.6},\n",
                    "          \"speedup_vs_single\": {:.3},\n",
                    "          \"records_identical\": {}\n",
                    "        }}{}"
                ),
                c.slots,
                c.shards,
                c.secs,
                c.merge_secs,
                r.single_secs / c.secs,
                c.identical,
                if j + 1 < r.configs.len() { ",\n" } else { "\n" }
            );
        }
        let _ = write!(
            kernels_json,
            concat!(
                "    {{\n",
                "      \"kernel\": \"{}\",\n",
                "      \"designs\": {},\n",
                "      \"single_process_secs\": {:.6},\n",
                "      \"configs\": [\n{}      ]\n",
                "    }}{}"
            ),
            r.kernel,
            r.designs,
            r.single_secs,
            configs_json,
            if i + 1 < results.len() { ",\n" } else { "\n" }
        );
    }
    format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"shard_coordinator\",\n",
            "  \"runs_per_config\": {},\n",
            "  \"shards_per_worker\": {},\n",
            "  \"kernels\": [\n{}  ]\n",
            "}}\n"
        ),
        RUNS, SHARDS_PER_SLOT, kernels_json,
    )
}
