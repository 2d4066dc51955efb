//! The daemon's slot threads: a burst of distinct misses larger than the
//! slot count queues, runs and answers every job with the offline CLI's
//! bytes, and leaves nothing counted waiting or active; a job that fails
//! its bounds check answers a typed 422 and leaves the daemon serving.

mod common;

use common::{body_json, cache_disposition, job_body, kernel_path, kernel_source, post_job};
use memexplore::obs::{parse_json, push_json_str, Json};
use memx::cli::{ObsFlags, Supervise};
use memx::{http_request, run, Command, JobSpec, ServeConfig, Server};

const SLOTS: usize = 2;

/// The response a complete explore job of Compress at `em_nj` must carry:
/// the offline `memx explore` output under the job's content address.
fn offline_body(request: &str, em_nj: f64) -> Vec<u8> {
    let spec = JobSpec::from_json(&parse_json(request).expect("valid JSON")).expect("valid job");
    let output = run(Command::Explore {
        file: kernel_path("compress"),
        part: "cy7c".into(),
        em_nj: Some(em_nj),
        natural: false,
        analytical: false,
        bound_cycles: None,
        bound_energy: None,
        pareto: false,
        telemetry: false,
        engine: "fused".into(),
        no_analytic: false,
        supervise: Supervise::default(),
        obs: ObsFlags::default(),
    })
    .expect("offline explore runs");
    let mut s = String::from("{\"status\":\"complete\",\"command\":\"explore\",\"key\":");
    push_json_str(&mut s, &spec.cache_key().to_hex());
    s.push_str(",\"stdout\":");
    push_json_str(&mut s, &output.stdout);
    s.push_str(",\"stderr\":");
    push_json_str(&mut s, &output.stderr);
    s.push_str("}\n");
    s.into_bytes()
}

fn stat(json: &Json, key: &str) -> u64 {
    json.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats lack `{key}`"))
}

#[test]
fn burst_of_distinct_misses_answers_like_memx_run() {
    let server = Server::start(ServeConfig {
        slots: SLOTS,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let source = kernel_source("compress");
    let jobs: Vec<(String, f64)> = (0..4 * SLOTS)
        .map(|i| {
            let em = 3.0 + i as f64 * 0.25;
            (
                job_body("explore", &source, &format!(",\"em_nj\":{em:?}")),
                em,
            )
        })
        .collect();
    let responses: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|(body, _)| scope.spawn(|| post_job(&server, body)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (r, (body, em)) in responses.iter().zip(&jobs) {
        assert_eq!(r.code, 200, "em_nj {em}");
        assert_eq!(cache_disposition(r), "miss", "em_nj {em}");
        assert!(
            r.body == offline_body(body, *em),
            "em_nj {em}: daemon bytes differ from memx::run"
        );
    }

    let addr = server.addr().to_string();
    let stats = http_request(&addr, "GET", "/v1/stats", b"").expect("reachable");
    let json = body_json(&stats);
    assert_eq!(stat(&json, "jobs"), jobs.len() as u64);
    assert_eq!(stat(&json, "active"), 0);
    assert_eq!(stat(&json, "queue_depth"), 0);
    let cache = json.get("cache").expect("stats expose the cache");
    assert_eq!(stat(cache, "misses"), jobs.len() as u64);
    server.request_shutdown();
    server.join();
}

#[test]
fn natural_layout_leader_outside_its_array_is_a_422() {
    let server = Server::start(ServeConfig::default()).expect("bind ephemeral port");
    // At i = 0 the one class leader reads a[-1], and `natural` places
    // nothing, so only the layout phase's bounds check stands between it
    // and trace generation.
    let lead = "kernel Lead\narray a[8] elem 4\nfor i = 0 .. 7\n  read a[i-1]\n";
    for command in ["explore", "pareto", "search"] {
        let r = post_job(&server, &job_body(command, lead, ",\"natural\":true"));
        assert_eq!(r.code, 422, "{command}");
        assert_eq!(
            r.headers.get("x-memx-status").map(String::as_str),
            Some("error"),
            "{command}"
        );
        assert_eq!(
            body_json(&r).get("error").and_then(Json::as_str),
            Some("natural layout: subscript 0 of `a` out of bounds: -1 not in 0..8"),
            "{command}"
        );
    }
    // The daemon keeps serving.
    let ok = post_job(&server, &job_body("search", &kernel_source("compress"), ""));
    assert_eq!(ok.code, 200);
    server.request_shutdown();
    server.join();
}
