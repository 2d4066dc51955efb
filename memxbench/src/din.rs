//! `din_stream`: a seeded hot/cold `.din` trace of 2²⁰ events, one write
//! in four, built in memory, prepared with `TraceWorkload::from_text` and
//! swept by `Explorer::explore_trace` over the 95-design trace grid. One
//! job is one sweep, which is also one pass.
//!
//! Chosen because it exercises `.din` parsing and scalar replay with
//! writes and does no layout or trace generation: it should stay flat
//! when those speed up, and move when writes join the bulk replay path.

use crate::check;
use crate::inputs::{self, Rng};
use crate::stats::{self, ms};
use crate::trace::{self, Tracer};
use crate::{Cfg, Outcome};
use memexplore::{Explorer, Record, TraceWorkload};
use memsim::source::din_event;
use memsim::TraceEvent;
use std::time::Instant;

/// Seed-0 digest of the sweep's records and selections.
const PINNED_SEED0: u64 = 0x6760_1b9c_255e_985d;

/// Designs replayed through the reference cache.
const REFERENCE_SAMPLES: usize = 2;

fn sweep(explorer: &Explorer, workload: &TraceWorkload) -> Result<Vec<Record>, String> {
    let designs = TraceWorkload::design_space().designs();
    explorer
        .explore_trace(workload, &designs)
        .map(|(records, _)| records)
        .map_err(|e| format!("explore_trace failed: {e}"))
}

fn digest(records: &[Record]) -> u64 {
    check::sweep_digest(records, &check::select_all(records))
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    // Timed before the warm-up and after the window, as in `paper_sweep`.
    let setup = || {
        let text = inputs::din_text(cfg.seed);
        let workload = TraceWorkload::from_text("din_stream.din", text.clone())
            .map_err(|e| format!("generated trace rejected: {e}"))?;
        Ok((text, workload))
    };
    let ((text, workload), mut setup_s) = stats::setup_times(3, setup)?;
    let explorer = Explorer::default().with_workers(1);
    let mut out = Outcome::default();

    let records = sweep(&explorer, &workload)?;
    let sel = check::select_all(&records);
    if let Err(e) = check::check_selection(&records, &sel) {
        out.fail(e);
    }
    let events: Vec<TraceEvent> = memsim::din::parse_din(text.as_bytes())
        .map_err(|e| format!("generated trace does not parse: {e}"))?
        .into_iter()
        .map(|r| din_event(r.label, r.addr))
        .collect();
    if events.len() as u64 != workload.events() {
        out.fail(format!(
            "from_text counted {} events, the text holds {}",
            workload.events(),
            events.len()
        ));
    }
    let mut rng = Rng::new(cfg.seed ^ 0xd1);
    for _ in 0..REFERENCE_SAMPLES {
        let r = &records[rng.below(records.len() as u64) as usize];
        if let Err(e) = check::against_reference(r, &events) {
            out.fail(e);
        }
    }
    drop(events);
    let expected = check::sweep_digest(&records, &sel);
    if cfg.seed == 0 && expected != PINNED_SEED0 {
        out.fail(format!(
            "seed-0 digest {expected:#018x} differs from the pinned {PINNED_SEED0:#018x}"
        ));
    }

    let untraced = |out: &mut Outcome| -> Result<f64, String> {
        let t = Instant::now();
        let records = sweep(&explorer, &workload)?;
        let secs = t.elapsed().as_secs_f64();
        out.attempted += 1;
        if digest(&records) != expected {
            out.failed += 1;
        }
        Ok(secs)
    };

    if !cfg.trace {
        let mut pass_s = Vec::new();
        let mut window = stats::Window::new(cfg.seconds);
        while window.more() {
            pass_s.push(untraced(&mut out)?);
        }
        println!("din_stream: {} timed passes", pass_s.len());
        let pass_ms: Vec<f64> = pass_s.iter().map(|s| s * 1e3).collect();
        // Read before the second set-up batch, which is not the workload.
        out.set("peak_rss_mb", stats::peak_rss_mb());
        setup_s.extend(stats::setup_times(3, setup)?.1);

        // CPU-bound times, scaled to the reference host speed (see
        // `stats::Window`); the raw medians are printed beside them.
        let f = window.host_factor();
        println!(
            "din_stream: host probe {:.3} ms (factor {f:.4}); raw setup_s {:.6}, raw wall_s {:.4}",
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
        let mut untraced_s = Vec::new();
        let mut replica_s = Vec::new();
        let mut prepare_ms = Vec::new();
        let mut parse_mev = Vec::new();
        let mut window = stats::Window::new(cfg.seconds);
        while window.more() {
            untraced_s.push(untraced(&mut out)?);
            let req = replica_s.len() as u64;
            let t = Instant::now();
            let records = tracer.span("core.stream", None, req, || sweep(&explorer, &workload))?;
            replica_s.push(t.elapsed().as_secs_f64());
            out.attempted += 1;
            if digest(&records) != expected {
                out.failed += 1;
            }
            // Probes: preparation, then parsing alone (no replay).
            let copy = text.clone();
            let id = tracer.open("memsim.din_prepare", None, req);
            let prepared = TraceWorkload::from_text("din_stream.din", copy);
            prepare_ms.push(ms(tracer.close(id)));
            prepared.map_err(|e| format!("generated trace rejected: {e}"))?;
            let id = tracer.open("memsim.din_parse", None, req);
            let parsed = drain(&workload)?;
            let d = tracer.close(id);
            parse_mev.push(parsed as f64 / d.as_secs_f64() / 1e6);
        }
        let spans = tracer.snapshot();
        let stream_ms: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "core.stream")
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        out.set("memsim.din_prepare_ms", stats::median(&prepare_ms));
        out.set("memsim.din_parse_mev_per_s", stats::median(&parse_mev));
        out.set("core.stream_ms", stats::median(&stream_ms));
        let coverage: Vec<f64> = stream_ms
            .iter()
            .zip(&replica_s)
            .map(|(s, r)| s / 1e3 / r)
            .collect();
        out.set("trace.coverage", stats::median(&coverage));
        out.set(
            "trace.overhead_pct",
            (stats::median(&replica_s) / stats::median(&untraced_s) - 1.0) * 100.0,
        );
        println!(
            "din_stream: {} untraced and {} traced passes",
            untraced_s.len(),
            replica_s.len()
        );
        trace::print_self_times(&spans);
        trace::write_spans(&tracer, "din_stream", cfg.seed);
    }
    out.set(
        "ok_ratio",
        (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
    );
    Ok(out)
}

/// Streams the whole trace through `TraceSource::fill` without replaying
/// it; returns the event count.
fn drain(workload: &TraceWorkload) -> Result<u64, String> {
    let mut source = workload.open().map_err(|e| format!("open: {e}"))?;
    let mut buf = Vec::with_capacity(workload.chunk_capacity());
    let mut n = 0u64;
    loop {
        buf.clear();
        let got = source
            .fill(&mut buf, workload.chunk_capacity())
            .map_err(|e| format!("fill: {e}"))?;
        if got == 0 {
            return Ok(n);
        }
        n += got as u64;
    }
}
