//! Argument-hygiene contract of the `bench_*` binaries: they take no
//! arguments, and anything unexpected exits 2 with a one-line `error:`
//! message on stderr — the same fail-fast contract as `memx` itself.
//! Pinned against the real binaries via `CARGO_BIN_EXE_*`.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("bench binary runs")
}

fn assert_rejects(bin: &str, name: &str) {
    for args in [&["--wat"][..], &["extra"][..], &["--help", "now"][..]] {
        let out = run(bin, args);
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("error: "), "{name} {args:?}: {err:?}");
        assert_eq!(
            err.trim_end().lines().count(),
            1,
            "{name} {args:?} must fail with one line: {err:?}"
        );
        assert!(
            err.contains(name) && err.contains(args[0]),
            "{name} {args:?}: message must name the binary and the argument: {err:?}"
        );
        assert!(
            out.stdout.is_empty(),
            "{name} {args:?}: no stdout on a usage error"
        );
    }
}

#[test]
fn bench_explore_rejects_unknown_arguments() {
    assert_rejects(env!("CARGO_BIN_EXE_bench_explore"), "bench_explore");
}

#[test]
fn bench_search_rejects_unknown_arguments() {
    assert_rejects(env!("CARGO_BIN_EXE_bench_search"), "bench_search");
}

#[test]
fn bench_serve_rejects_unknown_arguments() {
    assert_rejects(env!("CARGO_BIN_EXE_bench_serve"), "bench_serve");
}
