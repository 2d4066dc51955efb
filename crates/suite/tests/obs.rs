//! Observability acceptance tests.
//!
//! Two contracts: (1) the canonical JSONL event encoding round-trips
//! bit-identically through emit → parse → re-emit for arbitrary events,
//! and (2) a [`RunReport`] rebuilt from a sweep's event log alone agrees
//! with the [`SweepTelemetry`] counters the sweep computed in-process —
//! the log is a faithful record, not a best-effort trace.

use loopir::kernels;
use memexplore::obs::{Event, EventKind, FieldValue};
use memexplore::{
    CheckpointPolicy, DesignSpace, Engine, Explorer, Objective, Obs, ObsConfig, ObsSink, RunReport,
    SearchOptions, SweepOptions, TraceWorkload,
};
use proptest::prelude::*;
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Property: emit → parse → re-emit is bit-identical
// ---------------------------------------------------------------------------

/// A lowercase identifier-ish string of 1..=8 chars.
fn arb_ident() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..26, 1..=8).prop_map(|ix| {
        ix.into_iter()
            .map(|i| (b'a' + i as u8) as char)
            .collect::<String>()
    })
}

/// Field keys prefixed with `x` so they never collide with the reserved
/// envelope names (`v`, `t_us`, `run`, `kind`, `phase`, `name`, `worker`).
fn arb_field_key() -> impl Strategy<Value = String> {
    arb_ident().prop_map(|s| format!("x{s}"))
}

/// Strings that stress the canonical escaping: quotes, backslashes,
/// control characters, and multi-byte unicode.
fn arb_string() -> impl Strategy<Value = String> {
    const CHARS: &[char] = &[
        'a',
        'Z',
        '0',
        ' ',
        '"',
        '\\',
        '\n',
        '\r',
        '\t',
        '\u{1}',
        '\u{1f}',
        '/',
        '{',
        '}',
        ':',
        ',',
        'é',
        'λ',
        '→',
        '\u{10348}',
    ];
    proptest::collection::vec(0usize..CHARS.len(), 0..12)
        .prop_map(|ix| ix.into_iter().map(|i| CHARS[i]).collect::<String>())
}

fn arb_field_value() -> impl Strategy<Value = FieldValue> {
    prop_oneof![
        (0u64..=u64::MAX).prop_map(FieldValue::U64),
        (i64::MIN..=i64::MAX).prop_map(FieldValue::I64),
        proptest::bool::ANY.prop_map(FieldValue::Bool),
        arb_string().prop_map(FieldValue::Str),
        // Raw number tokens: decimals survive verbatim through the parser.
        (i64::MIN..=i64::MAX, 0u32..1_000_000u32)
            .prop_map(|(i, frac)| FieldValue::Num(format!("{i}.{frac:06}"))),
    ]
}

fn arb_event() -> impl Strategy<Value = Event> {
    let envelope = (
        0u64..=u64::MAX,
        arb_ident(),
        prop_oneof![
            Just(EventKind::SpanBegin),
            Just(EventKind::SpanEnd),
            Just(EventKind::Point),
        ],
        arb_ident(),
        arb_ident(),
    );
    let extras = (
        prop_oneof![
            Just(None),
            (0u64..1024).prop_map(Some),
            (0u64..=u64::MAX).prop_map(Some),
        ],
        proptest::collection::vec((arb_field_key(), arb_field_value()), 0..5),
    );
    (envelope, extras).prop_map(|((t_us, run, kind, phase, name), (worker, fields))| Event {
        t_us,
        run,
        kind,
        phase,
        name,
        worker,
        fields,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn jsonl_event_round_trips_bit_identically(event in arb_event()) {
        let line = event.to_jsonl();
        let parsed = Event::parse(&line).expect("emitted line parses");
        // Byte identity of the re-emitted line is the contract; the parsed
        // value may normalize number representations (e.g. `5` -> U64).
        prop_assert_eq!(parsed.to_jsonl(), line);
    }
}

// ---------------------------------------------------------------------------
// End to end: the log reconciles with in-process telemetry
// ---------------------------------------------------------------------------

/// A `Write` sink sharing its buffer with the test.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("no poisoned writers")
            .extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl SharedBuf {
    fn take_text(&self) -> String {
        String::from_utf8(self.0.lock().expect("no poisoned writers").clone())
            .expect("JSONL is UTF-8")
    }
}

fn obs_into(buf: &SharedBuf) -> Arc<Obs> {
    Obs::new(ObsConfig {
        log: Some(ObsSink::Writer(Box::new(buf.clone()))),
        progress: false,
        run_id: Some("suite-test".to_string()),
    })
    .expect("in-memory obs hub")
}

#[test]
fn explore_log_reconciles_with_telemetry() {
    for engine in [Engine::Fused, Engine::PerDesign] {
        let kernel = kernels::compress(31);
        let space = DesignSpace::paper();
        let buf = SharedBuf::default();
        let obs = obs_into(&buf);
        let explorer = Explorer::default()
            .with_engine(engine)
            .with_obs(Arc::clone(&obs));
        let (records, telemetry) = explorer.explore_with_telemetry(&kernel, &space);
        obs.finish();

        let report = RunReport::from_jsonl(&buf.take_text()).expect("log parses");
        assert_eq!(report.run_id, "suite-test");
        assert_eq!(
            report.designs_done as usize, telemetry.designs_evaluated,
            "{engine:?}: log totals diverge from telemetry"
        );
        assert_eq!(report.designs_done as usize, records.len());
        assert_eq!(report.pruned, 0);
        assert_eq!(report.quarantined, 0);
        assert!(!report.cancelled);
        // Phase structure: layout, trace, simulate, select all closed.
        for phase in ["layout", "trace", "simulate", "select"] {
            assert!(
                report.phases.iter().any(|p| p.name == phase && p.spans > 0),
                "{engine:?}: phase {phase} missing from log"
            );
        }
        // Latency histograms rebuilt from the log match the sweep's own
        // counts (same per-unit events feed both).
        match engine {
            Engine::Fused => {
                assert_eq!(report.scan.count, telemetry.scan_latency.count);
                assert_eq!(report.scan.count as usize, telemetry.fused_groups);
            }
            Engine::PerDesign => {
                assert_eq!(report.sim.count, telemetry.design_latency.count);
                assert_eq!(report.sim.count as usize, telemetry.designs_evaluated);
            }
        }
        assert_eq!(report.layout.count, telemetry.layout_latency.count);
    }
}

#[test]
fn layout_phase_logs_placement_and_scoring_units() {
    // MatMult on the paper grid: some (T, L) pairs optimize to a padded
    // layout, which must be scored against the natural one.
    let kernel = kernels::matmul(31);
    let buf = SharedBuf::default();
    let obs = obs_into(&buf);
    let explorer = Explorer::default().with_obs(Arc::clone(&obs));
    let (_, telemetry) = explorer.explore_with_telemetry(&kernel, &DesignSpace::paper());
    obs.finish();

    let text = buf.take_text();
    let report = RunReport::from_jsonl(&text).expect("log parses");
    assert_eq!(report.layout.count, 25, "one place unit per (T, L) pair");
    assert!(report.score.count > 0, "no score units logged");
    assert_eq!(report.score.count, telemetry.score_latency.count);
    assert!(report.to_string().contains("score :"));
    assert!(telemetry.to_string().contains("latency score"));
    // Every score unit belongs to the layout phase and names its bank.
    // Each arbitrated pair is scored twice (natural and optimized), so the
    // widths sum to an even number of at most two per pair.
    let mut width = 0;
    for e in text.lines().map(|l| Event::parse(l).expect("event parses")) {
        if e.name == "score" {
            assert_eq!(e.phase, "layout");
            assert!(e.u64_field("events").is_some_and(|n| n > 0));
            width += e.u64_field("width").expect("width field");
        }
    }
    assert!(
        width > 0 && width % 2 == 0 && width <= 50,
        "widths sum to {width}"
    );
}

#[test]
fn pareto_log_reconciles_with_telemetry() {
    // `memx pareto` end to end: the frontier of one exhaustive sweep, its
    // telemetry embedded in the JSON output and its log in a file.
    let dir = std::env::temp_dir().join(format!("memx-obs-pareto-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is creatable");
    let log = dir.join("pareto.jsonl");
    let argv: Vec<String> = [
        "pareto",
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/kernels/compress.mx"
        ),
        "--format",
        "json",
        "--telemetry",
        "--log-json",
        log.to_str().expect("utf8 path"),
    ]
    .iter()
    .map(|a| a.to_string())
    .collect();
    let out = memx::run(memx::parse_args(&argv).expect("valid arguments")).expect("pareto runs");
    let json = memexplore::obs::parse_json(&out.stdout).expect("pareto JSON parses");
    let text = std::fs::read_to_string(&log).expect("log written");
    let _ = std::fs::remove_dir_all(&dir);

    use memexplore::obs::Json;
    let field = |j: &Json, k: &str| j.get(k).and_then(Json::as_u64).expect(k);
    let telemetry = json.get("telemetry").expect("telemetry embedded");
    let frontier = match json.get("frontier") {
        Some(Json::Arr(rows)) => rows.len() as u64,
        other => panic!("frontier is not an array: {other:?}"),
    };
    assert!(frontier > 0);
    assert_eq!(
        json.get("engine").and_then(Json::as_str),
        Some("exhaustive")
    );
    assert_eq!(field(&json, "frontier_size"), frontier);
    assert_eq!(field(telemetry, "frontier_size"), frontier);

    let report = RunReport::from_jsonl(&text).expect("log parses");
    let designs = DesignSpace::paper().designs().len() as u64;
    assert_eq!(report.designs_done, designs);
    assert_eq!(field(telemetry, "designs_evaluated"), designs);
    assert_eq!(report.pruned, 0);
    assert_eq!(field(telemetry, "designs_pruned"), 0);
    for phase in ["layout", "trace", "simulate", "select"] {
        assert!(
            report.phases.iter().any(|p| p.name == phase && p.spans > 0),
            "phase {phase} missing from log"
        );
    }
}

#[test]
fn search_log_reconciles_with_telemetry() {
    let kernel = kernels::sor(31);
    let buf = SharedBuf::default();
    let obs = obs_into(&buf);
    // The weighted objective prunes leaves on the paper grid.
    let options = SearchOptions {
        objective: Objective::Weighted {
            energy_weight: 1.0,
            cycles_weight: 0.5,
        },
        ..Default::default()
    };
    let out = Explorer::default().with_obs(Arc::clone(&obs)).search(
        &kernel,
        &DesignSpace::paper(),
        &options,
    );
    obs.finish();
    assert!(out.complete);

    let report = RunReport::from_jsonl(&buf.take_text()).expect("log parses");
    let t = &out.telemetry;
    // The log counts every design a bank simulated; telemetry splits them
    // into the leaves the search consumed and speculative records.
    assert!(report.designs_done > 0, "no scan units logged");
    assert_eq!(
        report.designs_done as usize,
        t.designs_evaluated + t.designs_speculative
    );
    assert_eq!(report.pruned as usize, t.designs_pruned);
    assert!(report.pruned > 0, "no pruned point logged");
    assert_eq!(report.scan.count, t.scan_latency.count);
    assert_eq!(report.scan.count as usize, t.simulated_groups);
    assert_eq!(t.fused_groups, t.simulated_groups + t.analytic_groups);
    // Each trace key's MIN floor work is one `floor` unit.
    assert!(t.floor_units > 0, "no floor unit ran");
    assert_eq!(report.floor_units as usize, t.floor_units);
    assert_eq!(report.floor_capacities, t.floor_capacities);
    assert_eq!(report.floor_lines, t.floor_lines);
    assert!(report.floor_time <= t.floor_time);
    let rendered = report.to_string();
    assert!(
        rendered.contains(&format!(
            "floors: {} trace keys, {} capacities, {} lines in ",
            t.floor_units, t.floor_capacities, t.floor_lines
        )),
        "{rendered}"
    );
    let json = memexplore::obs::parse_json(&t.to_json()).expect("telemetry json parses");
    assert_eq!(
        json.get("floor_units")
            .and_then(memexplore::obs::Json::as_u64),
        Some(t.floor_units as u64)
    );
    assert_eq!(
        json.get("floor_lines")
            .and_then(memexplore::obs::Json::as_u64),
        Some(t.floor_lines)
    );
}

#[test]
fn supervised_log_reconciles_with_telemetry_and_survives_resume() {
    let dir = std::env::temp_dir().join(format!("memx-obs-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is creatable");
    let ckpt: PathBuf = dir.join("sweep.ckpt");

    let kernel = kernels::compress(31);
    let designs = DesignSpace::paper().designs();
    let options = SweepOptions {
        checkpoint: Some(CheckpointPolicy {
            path: ckpt.clone(),
            every: 16,
            resume: false,
        }),
        ..SweepOptions::default()
    };

    let buf = SharedBuf::default();
    let obs = obs_into(&buf);
    let explorer = Explorer::default().with_obs(Arc::clone(&obs));
    let outcome = explorer
        .explore_supervised(&kernel, &designs, &options)
        .expect("supervised sweep succeeds");
    obs.finish();

    let report = RunReport::from_jsonl(&buf.take_text()).expect("log parses");
    assert_eq!(
        report.designs_done as usize,
        outcome.telemetry.designs_evaluated
    );
    assert_eq!(
        report.flushes_written as usize,
        outcome.telemetry.checkpoints_written
    );
    assert!(report.flushes_written > 0, "checkpointing must flush");
    assert_eq!(report.flushes_failed, 0);
    assert_eq!(report.flush.count, report.flushes_written);
    // The supervised sweep runs the same pipeline as the plain one: the
    // same phases, and one scan per trace group.
    let plain_buf = SharedBuf::default();
    let plain_obs = obs_into(&plain_buf);
    Explorer::default()
        .with_obs(Arc::clone(&plain_obs))
        .explore_designs(&kernel, &designs);
    plain_obs.finish();
    let plain = RunReport::from_jsonl(&plain_buf.take_text()).expect("log parses");
    let phases = |r: &RunReport| -> Vec<String> {
        r.phases
            .iter()
            .filter(|p| p.spans > 0)
            .map(|p| p.name.clone())
            .collect()
    };
    assert_eq!(phases(&report), phases(&plain));
    assert_eq!(report.scan.count as usize, outcome.telemetry.fused_groups);

    // Resume from the completed checkpoint: every design arrives via the
    // resume event, and the report still reconciles.
    let resume_options = SweepOptions {
        checkpoint: Some(CheckpointPolicy {
            path: ckpt,
            every: 16,
            resume: true,
        }),
        ..SweepOptions::default()
    };
    let buf2 = SharedBuf::default();
    let obs2 = obs_into(&buf2);
    let explorer2 = Explorer::default().with_obs(Arc::clone(&obs2));
    let resumed = explorer2
        .explore_supervised(&kernel, &designs, &resume_options)
        .expect("resumed sweep succeeds");
    obs2.finish();

    let report2 = RunReport::from_jsonl(&buf2.take_text()).expect("log parses");
    assert_eq!(
        resumed.telemetry.records_resumed,
        designs.len(),
        "everything resumes from a complete checkpoint"
    );
    assert_eq!(report2.records_resumed as usize, designs.len());
    assert_eq!(report2.designs_done as usize, designs.len());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn din_sweep_logs_parse_time_within_each_scan_unit() {
    // A write-bearing `.din` trace: every scan unit re-streams it, and the
    // time spent parsing inside `TraceSource::fill` is part of that unit.
    let text: String = (0..20_000u64)
        .map(|i| {
            format!(
                "{} {:x}\n",
                if i % 4 == 3 { 1 } else { 0 },
                (i * 52) % 65_536
            )
        })
        .collect();
    let workload = TraceWorkload::from_text("obs.din", text).expect("valid trace");
    let designs = TraceWorkload::design_space().designs();
    let buf = SharedBuf::default();
    let obs = obs_into(&buf);
    let explorer = Explorer::default().with_obs(Arc::clone(&obs));
    let (_, telemetry) = explorer
        .explore_trace(&workload, &designs)
        .expect("streamed sweep succeeds");
    obs.finish();

    let mut scans = 0;
    for e in buf
        .take_text()
        .lines()
        .map(|l| Event::parse(l).expect("event parses"))
    {
        if e.phase == "simulate" && e.name == "scan" {
            scans += 1;
            let parse_us = e.u64_field("parse_us").expect("parse_us field");
            let dur_us = e.u64_field("dur_us").expect("dur_us field");
            assert!(parse_us <= dur_us, "parse {parse_us} us > unit {dur_us} us");
            assert_eq!(e.u64_field("events"), Some(20_000));
        }
    }
    assert_eq!(scans, telemetry.fused_groups);
}
