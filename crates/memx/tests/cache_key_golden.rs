//! Golden content addresses of `memx serve` jobs.
//!
//! `JobSpec::cache_key` names a result in every daemon's cache, so its hex
//! must not move when the job knobs are refactored: a changed key silently
//! invalidates warm caches and breaks clients that pin keys. The other key
//! tests only compare keys with each other; this one pins the absolute hex
//! for every job kind, on a kernel and on a `.din` trace, at the defaults
//! and with every knob the kind takes set to a non-default value.

use memexplore::obs::{parse_json, push_json_str};
use memx::serve::JobSpec;

const KERNEL: &str =
    "kernel Compress\narray a[32][32] elem 4\nfor i = 1 .. 31\nfor j = 1 .. 31\n  \
     read a[i][j]\n  read a[i-1][j]\n  read a[i][j-1]\n  read a[i-1][j-1]\n  write a[i][j]\n";

const TRACE: &str = "0 0\n1 4\n0 8\n2 c\n0 100\n1 104\n";

fn key(command: &str, workload: &str, text: &str, members: &str) -> String {
    let mut body = format!("{{\"command\":\"{command}\",\"{workload}\":");
    push_json_str(&mut body, text);
    body.push_str(members);
    body.push('}');
    let json = parse_json(&body).expect("valid JSON");
    JobSpec::from_json(&json)
        .unwrap_or_else(|e| panic!("{body}: {e}"))
        .cache_key()
        .to_hex()
}

/// `(command, workload, members, key hex)`.
const GOLDEN: [(&str, &str, &str, &str); 16] = [
    ("explore", "kernel", "", "ceeab15c41e0335af50d0553ce7512e9"),
    (
        "explore",
        "kernel",
        ",\"part\":\"lp2m\",\"em_nj\":3.5,\"natural\":true,\"deadline_secs\":5,\
         \"analytical\":true,\"bound_cycles\":100000,\"bound_energy\":50000,\
         \"pareto\":true,\"engine\":\"per-design\"",
        "107997ce42f12aa73fa5531bd9ac26c1",
    ),
    ("explore", "trace", "", "adfb0f0b675c977abfb72b2b981afd04"),
    (
        "explore",
        "trace",
        ",\"part\":\"16m\",\"em_nj\":2.25,\"natural\":true,\"deadline_secs\":5,\
         \"bound_cycles\":1000,\"bound_energy\":700.5,\"pareto\":true",
        "3c65e57e9d3fc32663e4df003cde32d3",
    ),
    ("pareto", "kernel", "", "f3826056feb5e5731dcd4292290dbe27"),
    (
        "pareto",
        "kernel",
        ",\"part\":\"lp2m\",\"em_nj\":3.5,\"natural\":true,\"deadline_secs\":5,\
         \"engine\":\"per-design\",\"format\":\"json\",\"exhaustive\":true",
        "8ac8a252988c71e6a1eb24a53c620180",
    ),
    ("pareto", "trace", "", "6e861a837f478b9a159c1d913b2a1d70"),
    (
        "pareto",
        "trace",
        ",\"part\":\"16m\",\"em_nj\":2.25,\"natural\":true,\"deadline_secs\":5,\
         \"format\":\"json\"",
        "6532c8bee653a2211a072b5ef791c54a",
    ),
    ("search", "kernel", "", "9119667ee4af5774bdc66fbf76b56d88"),
    (
        "search",
        "kernel",
        ",\"part\":\"lp2m\",\"em_nj\":3.5,\"natural\":true,\"deadline_secs\":5,\
         \"objective\":\"weighted=1,0.5\",\"space\":\"expansive\",\"beam\":8,\
         \"gap\":0.05,\"format\":\"csv\"",
        "773db03b260b19938e6fc1caa9697fed",
    ),
    ("search", "trace", "", "e2c4182cd7a393327b75a237444cc563"),
    (
        "search",
        "trace",
        ",\"part\":\"16m\",\"em_nj\":2.25,\"natural\":true,\"deadline_secs\":5,\
         \"objective\":\"cycles\",\"format\":\"json\"",
        "275d540f5cac14c3e75b46bcb0c4bf91",
    ),
    (
        "shard",
        "kernel",
        ",\"end\":10",
        "4ebd03c98881f09415135955c4e674a4",
    ),
    (
        "shard",
        "kernel",
        ",\"part\":\"lp2m\",\"em_nj\":3.5,\"natural\":true,\"engine\":\"per-design\",\
         \"start\":5,\"end\":20",
        "a6182f2702c367672926266067a28e43",
    ),
    (
        "shard",
        "trace",
        ",\"end\":10",
        "bab9c42514ffe350680f61abf1be3351",
    ),
    (
        "shard",
        "trace",
        ",\"part\":\"16m\",\"em_nj\":2.25,\"natural\":true,\"start\":5,\"end\":20",
        "718a3c2187000d955434e4c2b60750bf",
    ),
];

#[test]
fn cache_keys_match_their_golden_hex() {
    let mut wrong = Vec::new();
    for (command, workload, members, golden) in GOLDEN {
        let text = if workload == "kernel" { KERNEL } else { TRACE };
        let got = key(command, workload, text, members);
        if got != golden {
            wrong.push(format!("{command}/{workload}{members}: {got}"));
        }
    }
    assert!(wrong.is_empty(), "keys moved:\n{}", wrong.join("\n"));
}
