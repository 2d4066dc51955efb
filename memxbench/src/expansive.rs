//! `expansive_search`: `Explorer::search` with the exact energy objective
//! over `DesignSpace::expansive()` (1,057,320 designs) on the seven paper
//! kernels other than MatMult, which alone takes about 51 s. One job is
//! one kernel's search; one pass is all seven.
//!
//! Chosen because it is the only path that runs 144 placements per
//! kernel, per-design `Simulator` replay, bound pruning and the analytic
//! leaf classifier.

use crate::check;
use crate::inputs::{self, KERNELS};
use crate::stats::{self, ms};
use crate::trace::{self, Tracer};
use crate::{Cfg, Outcome};
use analysis::placement::optimize_layout;
use loopir::transform::tile_all;
use loopir::Kernel;
use memexplore::metrics::read_trace;
use memexplore::{DesignSpace, Explorer, SearchOptions, SearchOutcome};
use std::time::{Duration, Instant};

/// Seed-0 digests of each kernel's incumbent (record and sweep index).
const PINNED_SEED0: [(&str, u64); 7] = [
    ("compress", 0x68c1_f117_8e1e_abf2),
    ("conv2d", 0x9325_09f8_50bd_2714),
    ("dequant", 0x4f90_9c7f_6145_2c2b),
    ("matadd", 0xe630_886e_0d77_9c69),
    ("pde", 0x3de8_4cbc_4ed2_1660),
    ("sor", 0xc1f1_e2ba_c552_d9f9),
    ("stencil", 0xc1f1_e2ba_c552_d9f9),
];

fn incumbent_digest(o: &SearchOutcome) -> u64 {
    let mut h = check::digest(o.incumbent.as_slice()).to_le_bytes().to_vec();
    h.extend_from_slice(&(o.incumbent_index.unwrap_or(usize::MAX) as u64).to_le_bytes());
    inputs::fnv(&h)
}

/// Checks one search outcome: a certified optimum whose record the
/// per-design evaluator and the reference cache both reproduce.
fn check_outcome(
    explorer: &Explorer,
    name: &str,
    kernel: &Kernel,
    o: &SearchOutcome,
) -> Result<(), String> {
    if !o.complete || o.gap() != 0.0 {
        return Err(format!("{name}: search stopped with gap {}", o.gap()));
    }
    let r = o
        .incumbent
        .as_ref()
        .ok_or(format!("{name}: no incumbent"))?;
    let again = explorer.evaluator.evaluate(kernel, r.design);
    if again != *r {
        return Err(format!(
            "{name}: Evaluator::evaluate disagrees with the incumbent {}",
            r.design
        ));
    }
    let (layout, _) = explorer
        .evaluator
        .layout_for(kernel, r.design.cache_size, r.design.line);
    let trace = read_trace(&tile_all(kernel, r.design.tiling), &layout);
    check::against_reference(r, &trace).map_err(|e| format!("{name}: {e}"))?;
    Ok(())
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let names: Vec<&str> = KERNELS.iter().copied().filter(|&k| k != "matmul").collect();
    // Timed before the warm-up and after the window, as in `paper_sweep`.
    let setup = || inputs::kernels(&names, cfg.seed);
    let (kernels, mut setup_s) = stats::setup_times(3, setup)?;
    let explorer = Explorer::default().with_workers(1);
    let space = DesignSpace::expansive();
    let options = SearchOptions::default();
    let mut out = Outcome::default();

    // Warm-up pass: checked, and timed as the traced run's untraced
    // reference.
    let warm = Instant::now();
    let mut expected = Vec::new();
    for (name, kernel) in &kernels {
        let o = explorer.search(kernel, &space, &options);
        if let Err(e) = check_outcome(&explorer, name, kernel, &o) {
            out.fail(e);
        }
        let digest = incumbent_digest(&o);
        if cfg.seed == 0 {
            let pinned = PINNED_SEED0.iter().find(|(k, _)| k == name).map(|p| p.1);
            if pinned != Some(digest) {
                out.fail(format!(
                    "{name}: seed-0 incumbent digest {digest:#018x} differs from the pinned {:#018x}",
                    pinned.unwrap_or(0)
                ));
            }
        }
        expected.push(digest);
    }
    let warm_s = warm.elapsed().as_secs_f64();

    if !cfg.trace {
        let mut pass_s = Vec::new();
        let mut job_ms: Vec<Vec<f64>> = vec![Vec::new(); kernels.len()];
        let mut window = stats::Window::new(cfg.seconds);
        while window.more() {
            let mut pass = Duration::ZERO;
            for (k, ((_, kernel), digest)) in kernels.iter().zip(&expected).enumerate() {
                let t = Instant::now();
                let o = explorer.search(kernel, &space, &options);
                let d = t.elapsed();
                pass += d;
                job_ms[k].push(ms(d));
                out.attempted += 1;
                if incumbent_digest(&o) != *digest {
                    out.failed += 1;
                }
            }
            pass_s.push(pass.as_secs_f64());
        }
        println!(
            "expansive_search: {} timed passes of {} kernels",
            pass_s.len(),
            kernels.len()
        );
        // Read before the second set-up batch, which is not the workload.
        out.set("peak_rss_mb", stats::peak_rss_mb());
        setup_s.extend(stats::setup_times(3, setup)?.1);
        crate::paper::print_kernel_medians("expansive_search", &kernels, &job_ms);
        let pass_ms: Vec<f64> = pass_s.iter().map(|s| s * 1e3).collect();
        // CPU-bound times, scaled to the reference host speed (see
        // `stats::Window`); the raw medians are printed beside them.
        let f = window.host_factor();
        println!(
            "expansive_search: host probe {:.3} ms (factor {f:.4}); raw setup_s {:.6}, raw wall_s {:.4}",
            window.probe_ms(),
            stats::median(&setup_s),
            stats::median(&pass_s)
        );
        out.set("setup_s", stats::median(&setup_s) * f);
        out.set("wall_s", stats::median(&pass_s) * f);
        out.set("p50_ms", stats::median(&pass_ms) * f);
        out.set("p95_ms", stats::quantile(&pass_ms, 0.95) * f);
    } else {
        let tracer = Tracer::new();
        let pairs = space_pairs(&space);
        let mut per_pass: Vec<[f64; 9]> = Vec::new();
        let mut window = stats::Window::new(cfg.seconds);
        while window.more() {
            let pass_start = Instant::now();
            let req = per_pass.len() as u64;
            let (mut search, mut simulated, mut pruned, mut analytic) = (Duration::ZERO, 0, 0, 0);
            let (mut placement, mut placements, mut layout) =
                (Duration::ZERO, 0u64, Duration::ZERO);
            for ((name, kernel), digest) in kernels.iter().zip(&expected) {
                let id = tracer.open("core.search", None, req);
                let o = explorer.search(kernel, &space, &options);
                search += tracer.close(id);
                simulated += o.telemetry.designs_evaluated;
                pruned += o.telemetry.designs_pruned;
                analytic += o.telemetry.analytic_groups;
                out.attempted += 1;
                if incumbent_digest(&o) != *digest {
                    out.failed += 1;
                    out.fail(format!("{name}: traced search found a different incumbent"));
                }
                // Probes: the placements and layouts `search` runs
                // internally, once per distinct (T, L), timed on their own.
                let probe = tracer.open("bench.probe", None, req);
                for &(t, l) in &pairs {
                    let id = tracer.open("analysis.placement", Some(probe), req);
                    let _ = optimize_layout(kernel, t as u64, l as u64);
                    placement += tracer.close(id);
                    placements += 1;
                    let id = tracer.open("core.layout", Some(probe), req);
                    let _ = explorer.evaluator.layout_for(kernel, t, l);
                    layout += tracer.close(id);
                }
                tracer.close(probe);
            }
            let covered = (search + placement + layout).as_secs_f64();
            per_pass.push([
                covered / pass_start.elapsed().as_secs_f64(),
                ms(placement),
                placements as f64,
                ms(layout),
                ms(layout) - ms(placement),
                ms(search),
                simulated as f64,
                pruned as f64,
                analytic as f64,
            ]);
        }
        for (i, name) in [
            "trace.coverage",
            "analysis.placement_ms",
            "analysis.placements",
            "core.layout_ms",
            "core.layout_sim_ms",
            "core.search_ms",
            "core.search_simulated",
            "core.search_pruned",
            "core.analytic_hits",
        ]
        .into_iter()
        .enumerate()
        {
            out.set(
                name,
                stats::median(&per_pass.iter().map(|p| p[i]).collect::<Vec<_>>()),
            );
        }
        let search_s = out.metrics["core.search_ms"] / 1e3;
        out.set("trace.overhead_pct", (search_s / warm_s - 1.0) * 100.0);
        println!("expansive_search: {} traced passes", per_pass.len());
        trace::print_self_times(&tracer.snapshot());
        trace::write_spans(&tracer, "expansive_search", cfg.seed);
    }
    out.set(
        "ok_ratio",
        (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
    );
    Ok(out)
}

/// Distinct `(T, L)` pairs of a grid, in sweep order, without
/// materializing its designs.
fn space_pairs(space: &DesignSpace) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for &t in &space.cache_sizes {
        for &l in &space.line_sizes {
            if l <= t && t / l >= space.min_lines {
                out.push((t, l));
            }
        }
    }
    out
}
