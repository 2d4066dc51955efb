//! One job, every surface: the offline CLI, the daemon and the
//! zero-worker sweep must render the same job to the same bytes.
//!
//! `serve_oracle.rs` pins the daemon against the CLI on kernels; this
//! file covers `.din` recordings, the `memx sweep --distributed 0`
//! floor, and the kernel-only knobs on a trace, whose treatment differs
//! by surface on purpose (the CLI errors or warns, the JSON API rejects
//! the field) and must stay exactly as stated here.

mod common;

use common::{body_json, body_str, kernel_path, post_job};
use memexplore::obs::push_json_str;
use memx::{parse_args, run, Output, RunError, ServeConfig, Server};
use std::path::PathBuf;

/// Self-cleaning scratch dir for the recordings.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    /// `tag` keeps the tests of this binary, which run in parallel, out
    /// of each other's directories.
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("memx-job-parity-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir is creatable");
        Self { dir }
    }

    /// Records `examples/kernels/<name>.mx` as a `.din` trace (reads and
    /// writes) and returns the recording's path and text.
    fn record(&self, name: &str) -> (String, String) {
        let text = cli(&["trace", &kernel_path(name), "--din"])
            .expect("trace succeeds")
            .stdout;
        let path = self.dir.join(format!("{name}.din"));
        std::fs::write(&path, &text).expect("scratch dir is writable");
        (path.to_str().expect("utf-8 path").to_string(), text)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Parses and runs one `memx` command line in-process.
fn cli(args: &[&str]) -> Result<Output, RunError> {
    let argv: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    run(parse_args(&argv).expect("valid memx arguments"))
}

/// A `POST /v1/jobs` body carrying `din_text` inline as a trace job.
fn trace_job(command: &str, din_text: &str, extra: &str) -> String {
    let mut b = String::from("{\"command\":");
    push_json_str(&mut b, command);
    b.push_str(",\"trace\":");
    push_json_str(&mut b, din_text);
    b.push_str(extra);
    b.push('}');
    b
}

#[test]
fn din_jobs_render_the_same_bytes_offline_and_on_the_daemon() {
    let scratch = Scratch::new("serve");
    let server = Server::start(ServeConfig::default()).expect("bind ephemeral port");
    // One non-default knob set per kind; the CLI flags and the JSON
    // members name the same job.
    let jobs: [(&str, &[&str], &str); 3] = [
        (
            "explore",
            &["--pareto", "--bound-cycles", "100000"],
            ",\"pareto\":true,\"bound_cycles\":100000",
        ),
        ("pareto", &["--format", "json"], ",\"format\":\"json\""),
        (
            "search",
            &["--objective", "cycles", "--format", "csv"],
            ",\"objective\":\"cycles\",\"format\":\"csv\"",
        ),
    ];
    for name in ["compress", "sor"] {
        let (path, text) = scratch.record(name);
        for (kind, flags, members) in jobs {
            let mut args = vec![kind, path.as_str()];
            args.extend_from_slice(flags);
            let offline = cli(&args).unwrap_or_else(|e| panic!("{name}/{kind}: {e}"));
            let response = post_job(&server, &trace_job(kind, &text, members));
            assert_eq!(response.code, 200, "{name}/{kind}");
            let json = body_json(&response);
            assert_eq!(body_str(&json, "status"), "complete", "{name}/{kind}");
            // The CLI names a trace by its path; the daemon names an
            // inline trace `inline.din`. Nothing else may differ.
            let named = |s: &str| s.replace(&path, "inline.din");
            assert_eq!(
                body_str(&json, "stdout"),
                named(&offline.stdout),
                "{name}/{kind}: daemon stdout diverged from offline memx"
            );
            assert_eq!(
                body_str(&json, "stderr"),
                named(&offline.stderr),
                "{name}/{kind}: daemon stderr diverged from offline memx"
            );
        }
    }
    server.request_shutdown();
    server.join();
}

#[test]
fn zero_worker_sweep_is_the_local_explore() {
    let scratch = Scratch::new("sweep");
    let (din, _) = scratch.record("dequant");
    let kernel = kernel_path("dequant");
    for input in [kernel.as_str(), din.as_str()] {
        let flags = ["--pareto", "--bound-energy", "50000", "--part", "lp2m"];
        let mut explore = vec!["explore", input];
        explore.extend_from_slice(&flags);
        let mut sweep = vec!["sweep", input, "--distributed", "0"];
        sweep.extend_from_slice(&flags);
        let explored = cli(&explore).expect("explore succeeds");
        let swept = cli(&sweep).expect("sweep succeeds");
        assert_eq!(swept.stdout, explored.stdout, "{input}");
        let note = "note: no workers (--distributed 0, none attached); sweeping locally\n";
        assert_eq!(
            swept.stderr.strip_prefix(note),
            Some(explored.stderr.as_str()),
            "{input}"
        );
    }
}

#[test]
fn kernel_only_knobs_on_a_trace_keep_their_surface_rules() {
    let scratch = Scratch::new("knobs");
    let (din, text) = scratch.record("compress");
    let din = din.as_str();

    // CLI errors: the knob changes what is computed, exit 1.
    for (args, message) in [
        (
            vec!["explore", din, "--analytical"],
            "`--analytical` needs a kernel: the closed-form miss-rate model has no \
             meaning for a recorded `.din` trace",
        ),
        (
            vec!["search", din, "--space", "expansive"],
            "`--space expansive` needs a kernel: a `.din` trace sweeps the fixed trace grid",
        ),
    ] {
        let err = cli(&args).expect_err("kernel-only knob on a trace");
        assert_eq!(err.to_string(), message, "{args:?}");
        assert_eq!(err.exit_code(), 1, "{args:?}");
    }

    // CLI warnings: the knob only changes how it is computed, so the
    // result is the plain run's with one warning line in front.
    for (args, plain, warning) in [
        (
            vec!["explore", din, "--engine", "per-design"],
            vec!["explore", din],
            "warning: --engine per-design is ignored for `.din` traces \
             (streamed sweeps are always banked)\n",
        ),
        (
            vec!["pareto", din, "--engine", "per-design"],
            vec!["pareto", din],
            "warning: --engine per-design is ignored for `.din` traces \
             (streamed sweeps are always banked)\n",
        ),
        (
            vec!["search", din, "--beam", "4"],
            vec!["search", din],
            "warning: --beam is ignored for `.din` traces \
             (the trace grid is swept exhaustively)\n",
        ),
    ] {
        let warned = cli(&args).expect("warning only");
        let plain = cli(&plain).expect("plain run");
        assert_eq!(warned.stdout, plain.stdout, "{args:?}");
        assert_eq!(
            warned.stderr,
            format!("{warning}{}", plain.stderr),
            "{args:?}"
        );
    }

    // JSON: every kernel-only field is a 400, even on a job kind that
    // accepts it for a kernel.
    let server = Server::start(ServeConfig::default()).expect("bind ephemeral port");
    for (kind, member, field) in [
        ("explore", ",\"engine\":\"per-design\"", "engine"),
        ("explore", ",\"analytical\":true", "analytical"),
        ("pareto", ",\"exhaustive\":true", "exhaustive"),
        ("search", ",\"space\":\"expansive\"", "space"),
        ("search", ",\"beam\":4", "beam"),
        ("search", ",\"gap\":0.1", "gap"),
    ] {
        let response = post_job(&server, &trace_job(kind, &text, member));
        assert_eq!(response.code, 400, "{kind}/{field}");
        assert_eq!(
            body_str(&body_json(&response), "error"),
            format!(
                "field `{field}` needs a kernel workload (a streamed `.din` trace \
                 sweeps the fixed trace grid)"
            ),
            "{kind}/{field}"
        );
    }
    server.request_shutdown();
    server.join();
}
