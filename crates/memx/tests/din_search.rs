//! Certified search over a `.din` recording selects what the exhaustive
//! sweep selects.
//!
//! `memx search T.din` prunes with bounds and replays leaves one design
//! at a time; `memx explore T.din` streams the trace through the sweep
//! runner's banks. The two must agree on the optimum: the `minimum
//! energy` line of `search` (default objective) and the `minimum time`
//! line of `search --objective cycles` equal the same lines of
//! `explore`. The recordings come from `memx trace K.mx --din`, so they
//! carry the kernel's writes as well as its reads.

use std::path::{Path, PathBuf};

fn run(args: &[&str]) -> String {
    let argv: Vec<String> = args.iter().map(|a| a.to_string()).collect();
    let cmd = memx::parse_args(&argv).expect("valid memx arguments");
    memx::run(cmd).expect("memx command succeeds").stdout
}

fn line<'a>(stdout: &'a str, prefix: &str) -> &'a str {
    stdout
        .lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no `{prefix}` line in:\n{stdout}"))
}

/// Self-cleaning scratch dir for the recordings.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!("memx-din-search-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir is creatable");
        Self { dir }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn din_search_selects_the_explore_optimum() {
    let scratch = Scratch::new();
    let kernels = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/kernels");
    for name in ["compress", "sor"] {
        let kernel = kernels.join(format!("{name}.mx"));
        let recording = run(&["trace", kernel.to_str().expect("utf-8 path"), "--din"]);
        let din = scratch.dir.join(format!("{name}.din"));
        std::fs::write(&din, recording).expect("scratch dir is writable");
        let din = din.to_str().expect("utf-8 path");

        let explore = run(&["explore", din]);
        let search_energy = run(&["search", din]);
        let search_cycles = run(&["search", din, "--objective", "cycles"]);
        assert_eq!(
            line(&search_energy, "minimum energy"),
            line(&explore, "minimum energy"),
            "{name}: search and explore disagree on the energy optimum"
        );
        assert_eq!(
            line(&search_cycles, "minimum time"),
            line(&explore, "minimum time"),
            "{name}: search and explore disagree on the time optimum"
        );
    }
}
