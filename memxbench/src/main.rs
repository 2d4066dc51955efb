//! MemExplore benchmark: one workload per process, end-to-end metrics
//! untraced, per-layer metrics from a separate traced run.
//!
//! ```text
//! memxbench --workload NAME --seed N --seconds S --trace 0|1
//! memxbench --steady K [--seconds S] [--trace 0|1] [--workload NAME]...
//! ```
//!
//! The first form runs one workload and prints, as its last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The second form is the steadiness report: it runs each
//! workload K times in child processes, seeds 1…K, and prints each
//! metric's median, quartiles and (q3 − q1) / median.

mod check;
mod din;
mod expansive;
mod inputs;
mod paper;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("ok_ratio", "ratio"),
];

/// Per-layer metrics, printed by every workload with `--trace 1`; a layer
/// a workload does not call reads 0.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("analysis.placement_ms", "ms"),
    ("analysis.placements", "count"),
    ("core.layout_ms", "ms"),
    ("core.layout_sim_ms", "ms"),
    ("loopir.trace_ms", "ms"),
    ("loopir.trace_events", "count"),
    ("loopir.trace_mev_per_s", "Mev/s"),
    ("core.classify_ms", "ms"),
    ("memsim.compress_ms", "ms"),
    ("memsim.compress_ratio", "ratio"),
    ("memsim.replay_ms", "ms"),
    ("memsim.replay_mdev_per_s", "Mdev/s"),
    ("core.select_ms", "ms"),
    ("memsim.din_prepare_ms", "ms"),
    ("memsim.din_parse_mev_per_s", "Mev/s"),
    ("core.stream_ms", "ms"),
    ("core.search_ms", "ms"),
    ("core.search_simulated", "count"),
    ("core.search_pruned", "count"),
    ("core.analytic_hits", "count"),
    ("memx.health_rtt_ms", "ms"),
    ("memx.run_ms", "ms"),
    ("memx.hit_ratio", "ratio"),
    ("memx.joins", "count"),
    ("memx.queue_depth_max", "count"),
    ("memx.gen_lag_p99_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p90_ms", "ms"),
    ("serve.slo_ratio", "ratio"),
    ("serve.max_rate_rps", "req/s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
];

pub const WORKLOADS: [&str; 4] = [
    "paper_sweep",
    "din_stream",
    "expansive_search",
    "serve_mixed",
];

/// One run's settings.
pub struct Cfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// Outputs produced and checked.
    pub attempted: u64,
    /// Outputs that failed their check.
    pub failed: u64,
    /// Checks not tied to one output (reference replay, pinned digests,
    /// staged-versus-engine identity); any message makes the run incorrect.
    pub errors: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn fail(&mut self, message: impl Into<String>) {
        self.errors.push(message.into());
    }
}

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    steady: Option<usize>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        steady: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}` (expected {})",
                        WORKLOADS.join(", ")
                    ));
                }
                args.workloads.push(w);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--steady" => {
                let k: usize = value()?.parse().map_err(|e| format!("--steady: {e}"))?;
                if k < 2 {
                    return Err("--steady needs at least 2 runs".into());
                }
                args.steady = Some(k);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.steady.is_none() && args.workloads.len() != 1 {
        return Err("give exactly one --workload (or --steady K)".into());
    }
    Ok(args)
}

fn run_workload(name: &str, cfg: &Cfg) -> Result<Outcome, String> {
    match name {
        "paper_sweep" => paper::run(cfg),
        "din_stream" => din::run(cfg),
        "expansive_search" => expansive::run(cfg),
        "serve_mixed" => serve::run(cfg),
        other => Err(format!("unknown workload `{other}`")),
    }
}

fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let names: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for &(name, unit) in names {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            None if trace => 0.0,
            None => return Err(format!("workload did not measure `{name}`")),
        };
        if !value.is_finite() {
            return Err(format!("metric `{name}` is not finite ({value})"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = outcome.failed == 0 && outcome.errors.is_empty() && outcome.attempted > 0;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("memxbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(k) = args.steady {
        return steady(&args, k);
    }
    let name = &args.workloads[0];
    let cfg = Cfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let outcome = match run_workload(name, &cfg) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("memxbench: {name}: {e}");
            return ExitCode::from(1);
        }
    };
    for e in &outcome.errors {
        println!("check failed: {e}");
    }
    for (name, value) in &outcome.metrics {
        println!("{name:<28} {value}");
    }
    match result_line(&outcome, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("memxbench: {name}: {e}");
            ExitCode::from(1)
        }
    }
}

/// The steadiness report: K child runs per workload, seeds 1…K.
fn steady(args: &Args, k: usize) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("memxbench: cannot locate own executable: {e}");
            return ExitCode::from(1);
        }
    };
    let workloads: Vec<String> = if args.workloads.is_empty() {
        WORKLOADS.iter().map(|w| w.to_string()).collect()
    } else {
        args.workloads.clone()
    };
    let mut ok = true;
    for w in &workloads {
        let mut series: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut units: BTreeMap<String, String> = BTreeMap::new();
        for seed in 1..=k as u64 {
            let out = std::process::Command::new(&exe)
                .args(["--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .output();
            let out = match out {
                Ok(o) if o.status.success() => o,
                Ok(o) => {
                    eprintln!(
                        "{w} seed {seed}: exit {:?}: {}",
                        o.status.code(),
                        String::from_utf8_lossy(&o.stderr).trim()
                    );
                    ok = false;
                    continue;
                }
                Err(e) => {
                    eprintln!("{w} seed {seed}: cannot start: {e}");
                    ok = false;
                    continue;
                }
            };
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            match memexplore::obs::parse_json(last) {
                Ok(json) => {
                    if json.get("correct") != Some(&memexplore::obs::Json::Bool(true)) {
                        eprintln!("{w} seed {seed}: incorrect output");
                        ok = false;
                    }
                    if let Some(memexplore::obs::Json::Obj(metrics)) = json.get("metrics") {
                        for (name, m) in metrics {
                            if let Some(v) = m.get("value").and_then(|v| v.as_f64()) {
                                series.entry(name.clone()).or_default().push(v);
                            }
                            if let Some(u) = m.get("unit").and_then(|u| u.as_str()) {
                                units.insert(name.clone(), u.to_string());
                            }
                        }
                    }
                }
                Err(e) => {
                    eprintln!("{w} seed {seed}: bad result line: {e}");
                    ok = false;
                }
            }
        }
        println!("== {w}: {k} runs, seeds 1..{k}, {} s each", args.seconds);
        println!(
            "{:<28} {:>8} {:>14} {:>14} {:>14} {:>8}",
            "metric", "unit", "q1", "median", "q3", "spread"
        );
        for (name, values) in &series {
            let (q1, q2, q3) = stats::quartiles_exclusive(values);
            let spread = if q2 != 0.0 { (q3 - q1) / q2.abs() } else { 0.0 };
            let flag = if spread > 0.1 { "  > 0.1" } else { "" };
            println!(
                "{name:<28} {:>8} {q1:>14.6} {q2:>14.6} {q3:>14.6} {spread:>8.4}{flag}",
                units.get(name).map_or("", String::as_str)
            );
        }
        println!("per run, in seed order:");
        for (name, values) in &series {
            let runs: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
            println!("  {name}: {}", runs.join(" "));
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
