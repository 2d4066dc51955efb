//! Stream-hygiene contract of the `memx` binary.
//!
//! * stdout carries only machine-readable records (explore report lines,
//!   pareto CSV/JSON) — `--telemetry`, progress, and notes never leak in.
//! * stdout is byte-identical with and without observability flags.
//! * every `--log-json` line parses as a canonical event and re-emits
//!   bit-identically, and `memx report` renders a summary from it.

use memexplore::Event;
use std::path::PathBuf;
use std::process::{Command, Output};

fn memx(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_memx"))
        .args(args)
        .output()
        .expect("memx binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn assert_ok(out: &Output) {
    assert_eq!(out.status.code(), Some(0), "memx failed: {}", stderr(out));
}

/// Self-cleaning scratch dir holding a small valid kernel.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("memx-hygiene-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir is creatable");
        Self { dir }
    }

    fn kernel(&self) -> String {
        let path = self.dir.join("k.mx");
        std::fs::write(
            &path,
            "kernel Compress\narray a[32][32] elem 4\nfor i = 1 .. 31\nfor j = 1 .. 31\n  read a[i][j]\n  read a[i-1][j-1]\n  write a[i][j]\n",
        )
        .expect("tempdir is writable");
        path.to_string_lossy().into_owned()
    }

    fn path(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn telemetry_goes_to_stderr_not_stdout() {
    let scratch = Scratch::new("telemetry");
    let kernel = scratch.kernel();

    let plain = memx(&["explore", &kernel]);
    let with_telemetry = memx(&["explore", &kernel, "--telemetry"]);
    assert_ok(&plain);
    assert_ok(&with_telemetry);
    // `--telemetry` must not change the record stream at all.
    assert_eq!(plain.stdout, with_telemetry.stdout);
    assert!(
        stderr(&with_telemetry).contains("sweep:"),
        "summary missing from stderr: {}",
        stderr(&with_telemetry)
    );
    assert!(
        !stdout(&with_telemetry).contains("sweep:"),
        "summary leaked into stdout: {}",
        stdout(&with_telemetry)
    );
}

#[test]
fn pareto_csv_stays_pure_rows_with_telemetry() {
    let scratch = Scratch::new("csv");
    let kernel = scratch.kernel();
    let out = memx(&["pareto", &kernel, "--telemetry"]);
    assert_ok(&out);
    let rows = stdout(&out);
    let mut lines = rows.lines();
    assert_eq!(
        lines.next(),
        Some("cache,line,assoc,tiling,miss_rate,cycles,energy_nj,conflict_free")
    );
    for line in lines {
        assert_eq!(
            line.split(',').count(),
            8,
            "non-CSV line on stdout: {line:?}"
        );
    }
    assert!(stderr(&out).contains("frontier :"), "{}", stderr(&out));
}

#[test]
fn stdout_is_byte_identical_with_observability_on() {
    let scratch = Scratch::new("identical");
    let kernel = scratch.kernel();
    let log = scratch.path("run.jsonl");

    let plain = memx(&["explore", &kernel, "--pareto"]);
    let observed = memx(&[
        "explore",
        &kernel,
        "--pareto",
        "--log-json",
        &log,
        "--progress",
    ]);
    assert_ok(&plain);
    assert_ok(&observed);
    assert_eq!(
        plain.stdout, observed.stdout,
        "observability must not change the record stream"
    );

    let plain = memx(&["pareto", &kernel]);
    let observed = memx(&["pareto", &kernel, "--log-json", &log]);
    assert_ok(&plain);
    assert_ok(&observed);
    assert_eq!(plain.stdout, observed.stdout);
}

#[test]
fn log_json_lines_round_trip_and_report_renders_them() {
    let scratch = Scratch::new("log");
    let kernel = scratch.kernel();
    let log = scratch.path("run.jsonl");

    assert_ok(&memx(&["explore", &kernel, "--log-json", &log]));
    let text = std::fs::read_to_string(&log).expect("log was written");
    assert!(!text.is_empty(), "log must contain events");
    for (i, line) in text.lines().enumerate() {
        let event = Event::parse(line).unwrap_or_else(|e| panic!("line {}: {e}: {line:?}", i + 1));
        assert_eq!(
            event.to_jsonl(),
            line,
            "line {} does not re-emit bit-identically",
            i + 1
        );
    }

    let report = memx(&["report", &log]);
    assert_ok(&report);
    let summary = stdout(&report);
    assert!(summary.contains("phases:"), "{summary}");
    assert!(summary.contains("simulate"), "{summary}");
    assert!(summary.contains("designs:"), "{summary}");
    // The paper grid is fully evaluated in an unsupervised explore, so the
    // report's recomputed total must equal the grid size parsed from the
    // explore banner on stdout.
    let banner = stdout(&memx(&["explore", &kernel]));
    let total: u64 = banner
        .split_whitespace()
        .nth(1)
        .expect("explore banner starts with `explored N`")
        .parse()
        .expect("count is numeric");
    assert!(
        summary.contains(&format!("designs: {total} completed")),
        "report total must match the sweep: {summary}"
    );
}

#[test]
fn report_rejects_garbage_with_line_number() {
    let scratch = Scratch::new("badlog");
    let bad = scratch.path("bad.jsonl");
    std::fs::write(&bad, "{\"v\":1}\n").expect("tempdir writable");
    let out = memx(&["report", &bad]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("line 1"), "{}", stderr(&out));

    let missing = scratch.path("nope.jsonl");
    let out = memx(&["report", &missing]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("cannot read"), "{}", stderr(&out));
}

#[test]
fn progress_writes_to_stderr_only() {
    let scratch = Scratch::new("progress");
    let kernel = scratch.kernel();
    let out = memx(&["explore", &kernel, "--progress"]);
    assert_ok(&out);
    assert!(
        stderr(&out).contains("designs"),
        "progress line missing from stderr: {}",
        stderr(&out)
    );
    assert!(!stdout(&out).contains('\r'), "progress leaked into stdout");
}
