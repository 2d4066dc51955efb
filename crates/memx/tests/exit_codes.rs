//! Exit-code contract of the `memx` binary.
//!
//! * 0 — success
//! * 1 — runtime failure (parse error, infeasible grid, …)
//! * 2 — invalid CLI input, invalid cache geometry (non-power-of-two
//!   size/line/assoc — the shift-based address math would silently
//!   mis-index), **or** an I/O failure (unreadable input, unwritable or
//!   corrupt checkpoint), always with a one-line `error: …` message on
//!   stderr
//!
//! These run the real binary (`CARGO_BIN_EXE_memx`) so the contract is
//! pinned end to end, not just at the library layer.

use std::path::PathBuf;
use std::process::{Command, Output};

fn memx(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_memx"))
        .args(args)
        .output()
        .expect("memx binary runs")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("memx exited normally")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Self-cleaning scratch dir holding a small valid kernel.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("memx-exit-{tag}-{}", std::process::id()));
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

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn assert_one_line_error(out: &Output) {
    let err = stderr(out);
    assert!(err.starts_with("error: "), "stderr: {err:?}");
    assert_eq!(
        err.trim_end().lines().count(),
        1,
        "I/O errors must be one line: {err:?}"
    );
}

#[test]
fn success_is_exit_zero() {
    let scratch = Scratch::new("ok");
    let out = memx(&["classes", &scratch.kernel()]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
}

#[test]
fn invalid_cli_is_exit_two_with_usage() {
    for args in [
        &["explore"][..],
        &["frobnicate"][..],
        &["explore", "k.mx", "--wat"][..],
        &["explore", "k.mx", "--resume"][..],
    ] {
        let out = memx(args);
        assert_eq!(exit_code(&out), 2, "args {args:?}");
        assert!(stderr(&out).contains("USAGE"), "args {args:?}");
    }
}

#[test]
fn unreadable_input_is_exit_two_one_line() {
    for args in [
        &["explore", "/nonexistent/k.mx"][..],
        &["classes", "/nonexistent/k.mx"][..],
        &[
            "simulate-din",
            "/nonexistent/t.din",
            "--cache",
            "64",
            "--line",
            "8",
        ][..],
    ] {
        let out = memx(args);
        assert_eq!(exit_code(&out), 2, "args {args:?}: {}", stderr(&out));
        assert_one_line_error(&out);
        assert!(stderr(&out).contains("cannot read"), "args {args:?}");
        // I/O failures do not dump the usage text; that is for CLI errors.
        assert!(!stderr(&out).contains("USAGE"), "args {args:?}");
    }
}

#[test]
fn unwritable_checkpoint_path_is_exit_two() {
    let scratch = Scratch::new("unwritable");
    let kernel = scratch.kernel();
    let out = memx(&[
        "explore",
        &kernel,
        "--checkpoint",
        "/nonexistent-dir/sweep.ckpt",
    ]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
    assert_one_line_error(&out);
    assert!(stderr(&out).contains("cannot write checkpoint"));
}

#[test]
fn corrupt_checkpoint_on_resume_is_exit_two() {
    let scratch = Scratch::new("corrupt");
    let kernel = scratch.kernel();
    let ckpt = scratch.path("sweep.ckpt");
    std::fs::write(&ckpt, [b'x'; 64]).expect("tempdir writable");
    let out = memx(&[
        "explore",
        &kernel,
        "--checkpoint",
        ckpt.to_str().expect("utf8 path"),
        "--resume",
    ]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
    assert_one_line_error(&out);
    assert!(
        stderr(&out).contains("not a checkpoint file"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn runtime_failures_are_exit_one() {
    let scratch = Scratch::new("runtime");
    // Unparseable kernel text: runtime, not I/O.
    let bad = scratch.path("bad.mx");
    std::fs::write(&bad, "this is not a kernel").expect("tempdir writable");
    let out = memx(&["classes", bad.to_str().expect("utf8 path")]);
    assert_eq!(exit_code(&out), 1, "stderr: {}", stderr(&out));
}

#[test]
fn placement_overflow_is_one_error_line_not_a_wrapped_layout() {
    let scratch = Scratch::new("place-overflow");
    // 2^62 elements of 8 bytes: the natural row pitch is 2^65 bytes.
    let huge = scratch.path("huge.mx");
    std::fs::write(
        &huge,
        "kernel Huge\narray a[4][4611686018427387904] elem 8\nfor i = 0 .. 3\n  read a[i][0]\n",
    )
    .expect("tempdir writable");
    let path = huge.to_str().expect("utf8 path");
    // `place` prints no layout and `simulate` no record; the sweep
    // commands, which place every (T, L) pair of their grid first, print
    // no records.
    for args in [
        &["place", path, "--cache", "1024", "--line", "16"][..],
        &["simulate", path, "--cache", "1024", "--line", "16"][..],
        &["explore", path][..],
        &["pareto", path][..],
        &["pareto", path, "--exhaustive"][..],
        &["search", path][..],
        &["search", path, "--space", "expansive"][..],
    ] {
        let out = memx(args);
        assert_eq!(exit_code(&out), 1, "{args:?} stderr: {}", stderr(&out));
        assert_one_line_error(&out);
        assert!(
            stderr(&out).contains("overflow"),
            "{args:?} stderr: {}",
            stderr(&out)
        );
        assert!(out.stdout.is_empty(), "{args:?} prints nothing on stdout");
    }
}

#[test]
fn leader_outside_its_array_is_one_error_line_not_a_panic() {
    let scratch = Scratch::new("place-bounds");
    // At i = 0 the one class leader reads a[-1].
    let lead = scratch.path("lead.mx");
    std::fs::write(
        &lead,
        "kernel Lead\narray a[8] elem 4\nfor i = 0 .. 7\n  read a[i-1]\n",
    )
    .expect("tempdir writable");
    let path = lead.to_str().expect("utf8 path");
    for args in [
        &["place", path, "--cache", "64", "--line", "8"][..],
        &["simulate", path, "--cache", "64", "--line", "8"][..],
        &["explore", path][..],
        &["pareto", path][..],
        &["search", path][..],
        // Nothing is placed under the natural layout; the layout phase
        // runs placement's bounds check anyway, before any trace.
        &[
            "simulate",
            path,
            "--cache",
            "64",
            "--line",
            "8",
            "--natural",
        ][..],
        &["explore", path, "--natural"][..],
        &["pareto", path, "--natural"][..],
        &["search", path, "--natural"][..],
    ] {
        let out = memx(args);
        assert_eq!(exit_code(&out), 1, "{args:?} stderr: {}", stderr(&out));
        assert_one_line_error(&out);
        assert!(
            stderr(&out).contains("out of bounds: -1 not in 0..8"),
            "{args:?} stderr: {}",
            stderr(&out)
        );
        assert!(out.stdout.is_empty(), "{args:?} prints nothing on stdout");
    }
}

#[test]
fn subscript_leaving_its_array_mid_nest_is_one_error_line_not_a_panic() {
    let scratch = Scratch::new("trail-bounds");
    // Every reference is in bounds at the first iteration point; at
    // i = 7 the read of a[i+1] reaches a[8].
    let trail = scratch.path("trail.mx");
    std::fs::write(
        &trail,
        "kernel Trail\narray a[8] elem 4\nfor i = 0 .. 7\n  read a[i+1]\n",
    )
    .expect("tempdir writable");
    let path = trail.to_str().expect("utf8 path");
    for natural in [false, true] {
        for command in [
            &["explore", path][..],
            &["pareto", path][..],
            &["search", path][..],
            &["simulate", path, "--cache", "64", "--line", "4"][..],
        ] {
            let mut args = command.to_vec();
            if natural {
                args.push("--natural");
            }
            let out = memx(&args);
            assert_eq!(exit_code(&out), 1, "{args:?} stderr: {}", stderr(&out));
            assert_one_line_error(&out);
            assert!(
                stderr(&out).contains("subscript 0 of `a` out of bounds: 8 not in 0..8"),
                "{args:?} stderr: {}",
                stderr(&out)
            );
            assert!(!stderr(&out).contains("panicked"), "{args:?}");
            assert!(out.stdout.is_empty(), "{args:?} prints nothing on stdout");
        }
    }
}

#[test]
fn bad_geometry_is_exit_two_everywhere() {
    let scratch = Scratch::new("geometry");
    let kernel = scratch.kernel();
    let din = scratch.path("t.din");
    std::fs::write(&din, "0 0\n0 8\n1 10\n").expect("tempdir writable");
    let din = din.to_str().expect("utf8 path").to_string();
    for args in [
        // Non-power-of-two cache size: shift-indexing cannot address it.
        &["simulate", &kernel, "--cache", "48", "--line", "8"][..],
        // Non-power-of-two line size.
        &["simulate", &kernel, "--cache", "64", "--line", "6"][..],
        // Line larger than the cache.
        &["simulate", &kernel, "--cache", "64", "--line", "128"][..],
        // More ways than lines.
        &[
            "simulate", &kernel, "--cache", "64", "--line", "32", "--assoc", "4",
        ][..],
        &["place", &kernel, "--cache", "48", "--line", "8"][..],
        &["min-cache", &kernel, "--line", "6"][..],
        &["simulate-din", &din, "--cache", "48", "--line", "8"][..],
        &["simulate-din", &din, "--cache", "64", "--line", "6"][..],
    ] {
        let out = memx(args);
        assert_eq!(exit_code(&out), 2, "args {args:?}: {}", stderr(&out));
        assert_one_line_error(&out);
        // Geometry errors are input errors, not CLI-syntax errors: the
        // message names the bad value instead of dumping the usage text.
        assert!(!stderr(&out).contains("USAGE"), "args {args:?}");
        assert!(
            stderr(&out).contains("geometry") || stderr(&out).contains("power of two"),
            "args {args:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn checkpointed_sweep_matches_plain_sweep_on_stdout() {
    let scratch = Scratch::new("ckpt-identity");
    let kernel = scratch.kernel();
    let ckpt = scratch.path("sweep.ckpt");
    let plain = memx(&["explore", &kernel, "--pareto"]);
    let supervised = memx(&[
        "explore",
        &kernel,
        "--pareto",
        "--checkpoint",
        ckpt.to_str().expect("utf8 path"),
        "--checkpoint-every",
        "16",
    ]);
    assert_eq!(exit_code(&plain), 0, "stderr: {}", stderr(&plain));
    assert_eq!(exit_code(&supervised), 0, "stderr: {}", stderr(&supervised));
    assert_eq!(
        String::from_utf8_lossy(&plain.stdout),
        String::from_utf8_lossy(&supervised.stdout),
        "supervised stdout must be byte-identical to a plain run"
    );
    assert!(ckpt.exists(), "sidecar file was written");
    // Resuming from the completed checkpoint reproduces the same stdout.
    let resumed = memx(&[
        "explore",
        &kernel,
        "--pareto",
        "--checkpoint",
        ckpt.to_str().expect("utf8 path"),
        "--resume",
    ]);
    assert_eq!(exit_code(&resumed), 0, "stderr: {}", stderr(&resumed));
    assert_eq!(plain.stdout, resumed.stdout);
    assert!(stderr(&resumed).contains("resumed"), "{}", stderr(&resumed));
}

#[test]
fn sweep_mismatch_on_resume_is_exit_two() {
    let scratch = Scratch::new("mismatch");
    let kernel = scratch.kernel();
    let ckpt = scratch.path("sweep.ckpt");
    let first = memx(&[
        "explore",
        &kernel,
        "--checkpoint",
        ckpt.to_str().expect("utf8 path"),
    ]);
    assert_eq!(exit_code(&first), 0, "stderr: {}", stderr(&first));
    // Same checkpoint, different evaluator (natural layout): rejected.
    let out = memx(&[
        "explore",
        &kernel,
        "--natural",
        "--checkpoint",
        ckpt.to_str().expect("utf8 path"),
        "--resume",
    ]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("different sweep"), "{}", stderr(&out));
}

#[test]
fn all_infeasible_grid_is_a_typed_error_not_empty_output() {
    let scratch = Scratch::new("infeasible");
    // Two reads 512 elements apart share a reference class, so the §3
    // minimum conflict-free cache is ~2 KiB at every line size — above the
    // paper grid's largest cache (1024 B). No candidate is feasible.
    let path = scratch.path("huge.mx");
    std::fs::write(
        &path,
        "kernel Infeasible\narray a[1024][1024] elem 4\nfor i = 0 .. 7\nfor j = 0 .. 255\n  read a[i][j]\n  read a[i][j+512]\n",
    )
    .expect("tempdir writable");
    let kernel = path.to_str().expect("utf8 path");
    for args in [
        &["search", kernel][..],
        &["pareto", kernel][..],
        &["explore", kernel][..],
    ] {
        let out = memx(args);
        assert_eq!(exit_code(&out), 1, "args {args:?}: {}", stderr(&out));
        assert_one_line_error(&out);
        assert!(
            stderr(&out).contains("infeasible"),
            "args {args:?}: {}",
            stderr(&out)
        );
        assert!(
            out.stdout.is_empty(),
            "no partial stdout on an infeasible grid: {:?}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn search_certifies_the_explore_optimum() {
    let scratch = Scratch::new("search");
    let kernel = scratch.kernel();
    let explored = memx(&["explore", &kernel]);
    let searched = memx(&["search", &kernel]);
    assert_eq!(exit_code(&explored), 0, "stderr: {}", stderr(&explored));
    assert_eq!(exit_code(&searched), 0, "stderr: {}", stderr(&searched));
    let line = |out: &Output| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .find(|l| l.starts_with("minimum energy"))
            .expect("minimum energy line")
            .to_string()
    };
    assert_eq!(line(&explored), line(&searched));
    assert!(
        String::from_utf8_lossy(&searched.stdout).contains("optimum certified"),
        "{}",
        String::from_utf8_lossy(&searched.stdout)
    );
}

/// A `HOST:PORT` that refuses connections: bind an ephemeral port, then
/// drop the listener so nothing is accepting there.
fn dead_addr() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    drop(listener);
    addr
}

#[test]
fn submit_refused_without_retries_is_exit_two_fast() {
    let scratch = Scratch::new("submit-refused");
    let kernel = scratch.kernel();
    let started = std::time::Instant::now();
    let out = memx(&["submit", &dead_addr(), &kernel]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
    assert_one_line_error(&out);
    assert!(
        stderr(&out).contains("cannot reach daemon"),
        "{}",
        stderr(&out)
    );
    // No retries requested: one connect attempt, no backoff sleeps.
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "refused submit must fail fast, took {:?}",
        started.elapsed()
    );
}

#[test]
fn submit_retries_report_attempt_count_on_exhaustion() {
    let scratch = Scratch::new("submit-retries");
    let kernel = scratch.kernel();
    let out = memx(&[
        "submit",
        &dead_addr(),
        &kernel,
        "--retries",
        "2",
        "--backoff",
        "10",
    ]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
    assert_one_line_error(&out);
    assert!(
        stderr(&out).contains("after 3 attempts"),
        "exhausted retries must name the attempt count: {}",
        stderr(&out)
    );
}

#[test]
fn submit_rejects_bad_retry_flags() {
    for args in [
        &["submit", "127.0.0.1:1", "k.mx", "--retries"][..],
        &["submit", "127.0.0.1:1", "k.mx", "--backoff", "0"][..],
        &["submit", "127.0.0.1:1", "k.mx", "--backoff"][..],
    ] {
        let out = memx(args);
        assert_eq!(exit_code(&out), 2, "args {args:?}: {}", stderr(&out));
    }
}

#[test]
fn sweep_without_workers_flag_is_exit_two_with_usage() {
    let scratch = Scratch::new("sweep-noflag");
    let kernel = scratch.kernel();
    let out = memx(&["sweep", &kernel]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
    assert!(stderr(&out).contains("--distributed"), "{}", stderr(&out));
}

#[test]
fn worker_bad_range_is_exit_two() {
    let scratch = Scratch::new("worker-range");
    let kernel = scratch.kernel();
    let ckpt = scratch.path("w.ckpt");
    let ckpt = ckpt.to_str().expect("utf8 path");
    // end <= start is a CLI error.
    let out = memx(&[
        "worker",
        &kernel,
        "--start",
        "5",
        "--end",
        "5",
        "--checkpoint",
        ckpt,
    ]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
    // A range past the grid is an I/O-class error (exit 2, one line).
    let out = memx(&[
        "worker",
        &kernel,
        "--start",
        "0",
        "--end",
        "999999",
        "--checkpoint",
        ckpt,
    ]);
    assert_eq!(exit_code(&out), 2, "stderr: {}", stderr(&out));
    assert_one_line_error(&out);
    assert!(stderr(&out).contains("exceeds"), "{}", stderr(&out));
}

#[test]
fn worker_checkpoint_is_the_result_stream() {
    let scratch = Scratch::new("worker-ok");
    let kernel = scratch.kernel();
    let ckpt = scratch.path("w.ckpt");
    let out = memx(&[
        "worker",
        &kernel,
        "--start",
        "0",
        "--end",
        "8",
        "--checkpoint",
        ckpt.to_str().expect("utf8 path"),
    ]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    assert!(
        ckpt.exists(),
        "final flush must leave the checkpoint behind"
    );
    assert!(
        stderr(&out).contains("designs [0..8) done"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn deadline_yields_partial_result_with_exit_zero() {
    let scratch = Scratch::new("deadline");
    let kernel = scratch.kernel();
    // A deadline that cannot fit the whole sweep: tiny but non-zero so at
    // least the cancellation path runs; the result must stay well-formed.
    let out = memx(&["explore", &kernel, "--telemetry", "--deadline", "0.000001"]);
    assert_eq!(exit_code(&out), 0, "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("explored"), "{stdout}");
}

/// Knob values that once panicked (exit 101) are invalid CLI input now:
/// exit 2, and the first stderr line names the flag and its rule.
#[test]
fn invalid_knob_values_are_exit_two_not_a_panic() {
    let scratch = Scratch::new("knobs");
    let kernel = scratch.kernel();
    let mut probes: Vec<(Vec<&str>, &str)> = Vec::new();
    for command in ["explore", "pareto"] {
        for em in ["-1", "nan"] {
            probes.push((
                vec![command, &kernel, "--em", em],
                "`--em` must be a positive finite number",
            ));
        }
    }
    for command in ["explore", "search"] {
        for deadline in ["inf", "1e30"] {
            probes.push((
                vec![command, &kernel, "--deadline", deadline],
                "`--deadline` must be a positive number of seconds",
            ));
        }
    }
    probes.extend([
        (
            vec!["serve", "--default-deadline", "inf"],
            "`--default-deadline` must be a positive number of seconds",
        ),
        (
            vec!["submit", "127.0.0.1:9", &kernel, "--wait-health", "1e30"],
            "`--wait-health` must be a positive number of seconds",
        ),
    ]);
    for (args, message) in probes {
        let out = memx(&args);
        let err = stderr(&out);
        assert_eq!(exit_code(&out), 2, "{args:?}: {err}");
        assert_eq!(
            err.lines().next(),
            Some(format!("error: {message}").as_str()),
            "{args:?}"
        );
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

/// A deadline that fits a `Duration` but lies past the end of the
/// clock's range never fires: the sweep runs to completion.
#[test]
fn deadline_beyond_the_clock_is_no_deadline() {
    let scratch = Scratch::new("far-deadline");
    let kernel = scratch.kernel();
    for command in ["explore", "search"] {
        let out = memx(&[command, &kernel, "--deadline", "1e19"]);
        assert_eq!(exit_code(&out), 0, "{command}: {}", stderr(&out));
        let plain = memx(&[command, &kernel]);
        assert_eq!(out.stdout, plain.stdout, "{command}");
    }
}
