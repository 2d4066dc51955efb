//! `serve_mixed`: an in-process `memx::Server` whose cache holds explore,
//! pareto and search results for the seven kernels other than MatMult,
//! under an open-loop load from one process over at most two connections.
//!
//! Chosen because it is the only workload that covers transport, cache
//! lookup, gate wait and compute under load.
//!
//! - Requests arrive as a seeded Poisson process at a fixed mean rate,
//!   `RATE_RPS`, about half the rate at which the backlog starts to grow
//!   on a 2-core host. Each is timed from its due time, so a stall also
//!   counts against the requests queued behind it. A due request goes to
//!   whichever connection is free. Random arrivals keep the schedule from
//!   locking into phase with the server's 10 ms idle accept poll.
//! - Nine in ten requests are hits drawn from the cached pool; one in ten
//!   is a miss, an SOR explore job with a seeded, unique `em_nj`, so every
//!   miss does the same compute under a new cache key.
//! - `wall_s` is the median time of one closed-loop pass over the pool
//!   plus one fresh miss, on one connection.
//! - The traced run adds `/v1/stats` polls, health round trips, in-process
//!   `memx::run` timings and a stepped rate ramp for the highest rate whose
//!   p99 meets the 250 ms limit without a growing backlog.
//! - A run whose generator falls behind its own schedule measures the
//!   client, not the server; it is reported as invalid and not scored.

use crate::inputs::{self, kernel_path, Rng, KERNELS};
use crate::stats::{self, ms};
use crate::trace::{self, Tracer};
use crate::{Cfg, Outcome};
use memexplore::obs::{parse_json, push_json_str};
use memexplore::Objective;
use memx::{http_request, Command, JobSpec, ObsFlags, ServeConfig, Server, Supervise};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Requests per second of the fixed-rate open loop.
const RATE_RPS: f64 = 62.0;
/// One request in `MISS_EVERY` is a miss.
const MISS_EVERY: usize = 10;
/// Latency limit for `slo_ratio` and the ramp.
const SLO_MS: f64 = 250.0;
/// Client connections.
const CONNECTIONS: usize = 2;
/// Closed-loop passes timed for `wall_s`.
const CLOSED_PASSES: usize = 5;
/// Misses per run whose bytes are compared with an in-process
/// `memx::run` (each costs one SOR sweep of compute).
const RUN_SAMPLES: usize = 12;
/// Ramp steps (multiples of `RATE_RPS`) and the length of each.
const RAMP: [f64; 5] = [1.0, 1.5, 2.0, 3.0, 4.0];
const RAMP_STEP_S: f64 = 1.5;
const COMMANDS: [&str; 3] = ["explore", "pareto", "search"];

/// One cached job of the pool.
struct PoolJob {
    kernel: &'static str,
    command: &'static str,
    body: Vec<u8>,
}

fn json_str(s: &str) -> String {
    let mut out = String::new();
    push_json_str(&mut out, s);
    out
}

fn pool_jobs(texts: &[(&'static str, String)]) -> Vec<PoolJob> {
    let mut pool = Vec::new();
    for (kernel, text) in texts {
        for command in COMMANDS {
            pool.push(PoolJob {
                kernel,
                command,
                body: format!(
                    "{{\"command\":\"{command}\",\"kernel\":{}}}",
                    json_str(text)
                )
                .into_bytes(),
            });
        }
    }
    pool
}

fn miss_body(sor_text: &str, em: f64) -> Vec<u8> {
    format!(
        "{{\"command\":\"explore\",\"kernel\":{},\"em_nj\":{em:?}}}",
        json_str(sor_text)
    )
    .into_bytes()
}

/// The `em_nj` of miss `j`: unique within a run, shifted by the seed.
fn miss_em(seed: u64, j: usize) -> f64 {
    let base = 3.0 + Rng::new(seed ^ 0xe3).below(1_000_000) as f64 * 1e-6;
    base + j as f64 * 1e-3
}

/// The body the server must answer for `request`, built from an
/// in-process `memx::run` of the same job: the response renders the
/// command's output under the job's content address.
fn expected_body(
    request: &[u8],
    command: &str,
    kernel: &str,
    em: Option<f64>,
) -> Result<(Vec<u8>, Duration), String> {
    let text = std::str::from_utf8(request).map_err(|e| e.to_string())?;
    let spec = JobSpec::from_json(&parse_json(text)?).map_err(|e| e.0)?;
    let file = kernel_path(kernel);
    let cmd = match command {
        "explore" => Command::Explore {
            file,
            part: "cy7c".into(),
            em_nj: em,
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
        },
        "pareto" => Command::Pareto {
            file,
            part: "cy7c".into(),
            em_nj: em,
            natural: false,
            format: "csv".into(),
            exhaustive: false,
            telemetry: false,
            engine: "fused".into(),
            no_analytic: false,
            supervise: Supervise::default(),
            obs: ObsFlags::default(),
        },
        _ => Command::Search {
            file,
            part: "cy7c".into(),
            em_nj: em,
            natural: false,
            objective: Objective::Energy,
            space: "paper".into(),
            beam: None,
            gap: 0.0,
            deadline_secs: None,
            format: "text".into(),
            telemetry: false,
            no_analytic: false,
            obs: ObsFlags::default(),
        },
    };
    let t = Instant::now();
    let output = memx::run(cmd).map_err(|e| format!("memx::run {command} {kernel}: {e}"))?;
    let took = t.elapsed();
    let mut s = String::from("{\"status\":\"complete\",\"command\":");
    push_json_str(&mut s, command);
    s.push_str(",\"key\":");
    push_json_str(&mut s, &spec.cache_key().to_hex());
    s.push_str(",\"stdout\":");
    push_json_str(&mut s, &output.stdout);
    s.push_str(",\"stderr\":");
    push_json_str(&mut s, &output.stderr);
    s.push_str("}\n");
    Ok((s.into_bytes(), took))
}

/// The structural check applied to every miss response: status, command
/// and the content address the job must be stored under.
fn miss_shape_ok(request: &[u8], response: &[u8]) -> bool {
    let key = std::str::from_utf8(request)
        .ok()
        .and_then(|t| parse_json(t).ok())
        .and_then(|j| JobSpec::from_json(&j).ok())
        .map(|s| s.cache_key().to_hex());
    let head = match (key, std::str::from_utf8(response)) {
        (Some(k), Ok(_)) => {
            format!("{{\"status\":\"complete\",\"command\":\"explore\",\"key\":\"{k}\",\"stdout\":")
        }
        _ => return false,
    };
    response.starts_with(head.as_bytes())
}

fn post(addr: &str, body: &[u8]) -> (u16, Vec<u8>) {
    match http_request(addr, "POST", "/v1/jobs", body) {
        Ok(r) => (r.code, r.body),
        Err(_) => (0, Vec::new()),
    }
}

/// Starts a server and primes its cache with every pool job over the
/// client connections; returns the server and each pool job's bytes.
fn start_and_prime(pool: &[PoolJob]) -> Result<(Server, Vec<Vec<u8>>), String> {
    let server = Server::start(ServeConfig {
        cache_entries: 1 << 16,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("cannot start the server: {e}"))?;
    let addr = server.addr().to_string();
    let mut answers: Vec<(usize, u16, Vec<u8>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let addr = &addr;
                s.spawn(move || {
                    (c..pool.len())
                        .step_by(CONNECTIONS)
                        .map(|i| {
                            let (code, body) = post(addr, &pool[i].body);
                            (i, code, body)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("priming threads do not panic"))
            .collect()
    });
    answers.sort_by_key(|a| a.0);
    let mut bytes = Vec::new();
    for (i, code, body) in answers {
        if code != 200 {
            let job = &pool[i];
            return Err(format!(
                "priming {} {} answered {code}",
                job.command, job.kernel
            ));
        }
        bytes.push(body);
    }
    Ok((server, bytes))
}

/// What one open-loop request is.
#[derive(Clone, Copy)]
enum Planned {
    Hit(usize),
    Miss(usize),
    Stats,
}

struct Sample {
    planned: Planned,
    due: Instant,
    picked: Instant,
    done: Instant,
    ok: bool,
    /// Miss response bytes, kept for the in-process comparison.
    body: Vec<u8>,
}

struct StatsPoll {
    queue_depth: f64,
    hits: f64,
    misses: f64,
    joins: f64,
}

fn parse_stats(body: &[u8]) -> Option<StatsPoll> {
    let j = parse_json(std::str::from_utf8(body).ok()?).ok()?;
    let cache = j.get("cache")?;
    Some(StatsPoll {
        queue_depth: j.get("queue_depth")?.as_f64()?,
        hits: cache.get("hits")?.as_f64()?,
        misses: cache.get("misses")?.as_f64()?,
        joins: cache.get("joins")?.as_f64()?,
    })
}

fn stats_now(addr: &str) -> Option<StatsPoll> {
    http_request(addr, "GET", "/v1/stats", b"")
        .ok()
        .and_then(|r| parse_stats(&r.body))
}

struct LoopResult {
    samples: Vec<Sample>,
    gen_lag_ms: Vec<f64>,
    polls: Vec<StatsPoll>,
}

/// Drives `plan` at `rate` requests per second. The generator thread
/// releases each request at its due time into a queue that the
/// connection threads drain; it never waits for them.
fn open_loop(
    addr: &str,
    plan: &[(f64, Planned)],
    pool_bytes: &[Vec<u8>],
    pool: &[PoolJob],
    miss_bodies: &[Vec<u8>],
    tracer: Option<&Tracer>,
    req_base: u64,
) -> LoopResult {
    let queue: Mutex<(VecDeque<(usize, Instant)>, bool)> = Mutex::new((VecDeque::new(), false));
    let ready = Condvar::new();
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::with_capacity(plan.len()));
    let polls: Mutex<Vec<StatsPoll>> = Mutex::new(Vec::new());
    let mut gen_lag_ms = Vec::with_capacity(plan.len());
    std::thread::scope(|s| {
        for _ in 0..CONNECTIONS {
            let (queue, ready, samples, polls) = (&queue, &ready, &samples, &polls);
            s.spawn(move || loop {
                let (i, due) = {
                    let mut q = queue.lock().expect("no holder panics");
                    loop {
                        if let Some(item) = q.0.pop_front() {
                            break item;
                        }
                        if q.1 {
                            return;
                        }
                        q = ready.wait(q).expect("no holder panics");
                    }
                };
                let picked = Instant::now();
                let planned = plan[i].1;
                let span = tracer.map(|t| t.open("memx.http_request", None, req_base + i as u64));
                let (ok, body) = match planned {
                    Planned::Hit(p) => {
                        let (code, b) = post(addr, &pool[p].body);
                        (code == 200 && b == pool_bytes[p], Vec::new())
                    }
                    Planned::Miss(m) => {
                        let (code, b) = post(addr, &miss_bodies[m]);
                        (code == 200 && miss_shape_ok(&miss_bodies[m], &b), b)
                    }
                    Planned::Stats => {
                        if let Some(p) = stats_now(addr) {
                            polls.lock().expect("no holder panics").push(p);
                        }
                        (true, Vec::new())
                    }
                };
                if let (Some(t), Some(id)) = (tracer, span) {
                    t.close(id);
                }
                samples.lock().expect("no holder panics").push(Sample {
                    planned,
                    due,
                    picked,
                    done: Instant::now(),
                    ok,
                    body,
                });
            });
        }
        let start = Instant::now() + Duration::from_millis(5);
        for (i, &(offset, _)) in plan.iter().enumerate() {
            let due = start + Duration::from_secs_f64(offset);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            gen_lag_ms.push(ms(Instant::now().saturating_duration_since(due)));
            queue
                .lock()
                .expect("no holder panics")
                .0
                .push_back((i, due));
            ready.notify_one();
        }
        queue.lock().expect("no holder panics").1 = true;
        ready.notify_all();
    });
    LoopResult {
        samples: samples.into_inner().expect("no holder panics"),
        gen_lag_ms,
        polls: polls.into_inner().expect("no holder panics"),
    }
}

/// A seeded request plan over `seconds`: Poisson arrivals at `rate`
/// (each with its due offset in seconds), exactly one miss in every block
/// of `MISS_EVERY` requests at a random position, hits drawn uniformly
/// from the pool; with `stats_every`, a `/v1/stats` poll after every that
/// many requests.
fn make_plan(
    rng: &mut Rng,
    rate: f64,
    seconds: f64,
    pool: usize,
    next_miss: &mut usize,
    stats_every: Option<usize>,
) -> Vec<(f64, Planned)> {
    let n = (rate * seconds).round() as usize;
    let mut plan = Vec::with_capacity(n);
    let mut due = 0.0;
    let mut miss_at = 0;
    for i in 0..n {
        due += -rng.unit().ln() / rate;
        if i % MISS_EVERY == 0 {
            miss_at = i + rng.below(MISS_EVERY as u64) as usize;
        }
        if i == miss_at {
            plan.push((due, Planned::Miss(*next_miss)));
            *next_miss += 1;
        } else {
            plan.push((due, Planned::Hit(rng.below(pool as u64) as usize)));
        }
        if stats_every.is_some_and(|k| (i + 1) % k == 0) {
            plan.push((due, Planned::Stats));
        }
    }
    plan
}

fn latency_ms(s: &Sample) -> f64 {
    ms(s.done.saturating_duration_since(s.due))
}

/// Whether the queue wait (due → picked up) grows over a run: the median
/// of its last third exceeds that of its first third by more than
/// `slack_ms`.
fn grows(values: &[f64], slack_ms: f64) -> bool {
    let third = (values.len() / 3).max(1);
    values.len() >= 3
        && stats::median(&values[values.len() - third..])
            > stats::median(&values[..third]) + slack_ms
}

pub fn run(cfg: &Cfg) -> Result<Outcome, String> {
    let names: Vec<&'static str> = KERNELS.iter().copied().filter(|&k| k != "matmul").collect();
    let mut servers: Vec<Server> = Vec::new();
    let ((pool, sor_text, pool_bytes), setup_s) = stats::setup_times(3, || {
        let texts: Vec<(&'static str, String)> = names
            .iter()
            .map(|&k| Ok((k, inputs::kernel_text(k, 0)?)))
            .collect::<Result<_, String>>()?;
        let pool = pool_jobs(&texts);
        let sor_text = texts
            .iter()
            .find(|(k, _)| *k == "sor")
            .expect("sor is pooled")
            .1
            .clone();
        let (server, bytes) = start_and_prime(&pool)?;
        servers.push(server);
        Ok((pool, sor_text, bytes))
    })?;
    let server = servers.pop().expect("set-up started a server");
    for old in servers {
        old.request_shutdown();
        old.join();
    }
    let addr = server.addr().to_string();
    let mut out = Outcome::default();
    let mut rng = Rng::new(cfg.seed);

    // Miss bodies for every request that may need one: closed passes,
    // the open loop and the ramp.
    let n_open = (RATE_RPS * cfg.seconds).round() as usize;
    let ramp_total: usize = RAMP
        .iter()
        .map(|m| (RATE_RPS * m * RAMP_STEP_S).round() as usize)
        .sum();
    // Warm-up and timed closed passes (twice with the traced ones), one
    // miss per started block of `MISS_EVERY` in each plan.
    let n_miss =
        2 + 2 * CLOSED_PASSES + n_open / MISS_EVERY + 1 + ramp_total / MISS_EVERY + RAMP.len();
    let miss_ems: Vec<f64> = (0..n_miss).map(|j| miss_em(cfg.seed, j)).collect();
    let miss_bodies: Vec<Vec<u8>> = miss_ems
        .iter()
        .map(|&em| miss_body(&sor_text, em))
        .collect();
    let mut next_miss = 0usize;
    let mut miss_answers: Vec<(usize, Vec<u8>)> = Vec::new();

    // Closed-loop pass: every pool job in order, then one fresh miss.
    // Returns the pass's wall time and, when traced, the share of it that
    // the request spans cover (one connection, so they do not overlap).
    let closed_pass = |tracer: Option<&Tracer>,
                       req: u64,
                       next_miss: &mut usize,
                       out: &mut Outcome,
                       miss_answers: &mut Vec<(usize, Vec<u8>)>| {
        let t = Instant::now();
        let mut covered = Duration::ZERO;
        let mut send = |i: u64, body: &[u8]| {
            let id = tracer.map(|tr| tr.open("memx.http_request", None, req | i));
            let answer = post(&addr, body);
            if let (Some(tr), Some(id)) = (tracer, id) {
                covered += tr.close(id);
            }
            out.attempted += 1;
            answer
        };
        let mut bad = 0;
        for (p, job) in pool.iter().enumerate() {
            let (code, b) = send(p as u64, &job.body);
            if code != 200 || b != pool_bytes[p] {
                bad += 1;
            }
        }
        let m = *next_miss;
        *next_miss += 1;
        let (code, b) = send(0xffff, &miss_bodies[m]);
        let wall = t.elapsed().as_secs_f64();
        if code != 200 || !miss_shape_ok(&miss_bodies[m], &b) {
            bad += 1;
        }
        out.failed += bad;
        miss_answers.push((m, b));
        (wall, covered.as_secs_f64() / wall)
    };
    // Untimed warm-up.
    for _ in 0..2 {
        closed_pass(None, 0, &mut next_miss, &mut out, &mut miss_answers);
    }
    let closed_s: Vec<f64> = (0..CLOSED_PASSES)
        .map(|_| closed_pass(None, 0, &mut next_miss, &mut out, &mut miss_answers).0)
        .collect();

    let tracer = cfg.trace.then(Tracer::new);
    let before = stats_now(&addr);
    let stats_every = cfg.trace.then_some((RATE_RPS / 4.0) as usize);
    let plan = make_plan(
        &mut rng,
        RATE_RPS,
        cfg.seconds,
        pool.len(),
        &mut next_miss,
        stats_every,
    );
    let main = open_loop(
        &addr,
        &plan,
        &pool_bytes,
        &pool,
        &miss_bodies,
        tracer.as_ref(),
        0,
    );
    let after = stats_now(&addr);

    let mut hit_ms = Vec::new();
    let mut miss_ms = Vec::new();
    let mut all_ms = Vec::new();
    let mut in_slo = 0usize;
    let mut requests = 0usize;
    for s in &main.samples {
        if matches!(s.planned, Planned::Stats) {
            continue;
        }
        requests += 1;
        out.attempted += 1;
        let lat = latency_ms(s);
        if !s.ok {
            out.failed += 1;
        } else if lat <= SLO_MS {
            in_slo += 1;
        }
        all_ms.push(lat);
        match s.planned {
            Planned::Hit(_) => hit_ms.push(lat),
            Planned::Miss(m) => {
                miss_ms.push(lat);
                miss_answers.push((m, s.body.clone()));
            }
            Planned::Stats => {}
        }
    }
    let lag_p99 = stats::quantile(&main.gen_lag_ms, 0.99);
    println!(
        "serve_mixed: {} requests at {RATE_RPS} req/s over {CONNECTIONS} connections ({} hits, {} misses); generator lag p50 {:.3} ms p99 {lag_p99:.3} ms",
        requests,
        hit_ms.len(),
        miss_ms.len(),
        stats::median(&main.gen_lag_ms),
    );
    println!(
        "serve_mixed: hit p50 {:.3} p99 {:.3} ms; miss p50 {:.3} p90 {:.3} ms; slo_ratio {:.4}; closed pass {:.4} s",
        stats::median(&hit_ms),
        stats::quantile(&hit_ms, 0.99),
        stats::median(&miss_ms),
        stats::quantile(&miss_ms, 0.9),
        in_slo as f64 / requests.max(1) as f64,
        stats::median(&closed_s)
    );
    if grows(&main.gen_lag_ms, 5.0) {
        return Err(format!(
            "invalid run: the load generator fell behind its schedule (lag p99 {lag_p99:.3} ms)"
        ));
    }

    // Misses compared byte for byte with an in-process `memx::run`: a
    // seeded sample (plus the pool, which every hit was compared with).
    for (p, job) in pool.iter().enumerate() {
        let (expected, _) = expected_body(&job.body, job.command, job.kernel, None)?;
        if expected != pool_bytes[p] {
            out.fail(format!(
                "{} {}: server bytes differ from memx::run",
                job.command, job.kernel
            ));
        }
    }
    let mut miss_run_ms = Vec::new();
    for _ in 0..RUN_SAMPLES.min(miss_answers.len()) {
        let k = rng.below(miss_answers.len() as u64) as usize;
        let (m, ref got) = miss_answers[k];
        let (expected, took) = expected_body(&miss_bodies[m], "explore", "sor", Some(miss_ems[m]))?;
        miss_run_ms.push(ms(took));
        if expected != *got {
            out.failed += 1;
            out.fail(format!(
                "miss em_nj={}: server bytes differ from memx::run",
                miss_ems[m]
            ));
        }
    }

    if !cfg.trace {
        out.set("setup_s", stats::median(&setup_s));
        out.set("wall_s", stats::median(&closed_s));
        out.set("p50_ms", stats::median(&all_ms));
        out.set("p95_ms", stats::quantile(&all_ms, 0.95));
    } else {
        let tracer = tracer.expect("traced run");
        out.set("serve.hit_p50_ms", stats::median(&hit_ms));
        out.set("serve.hit_p99_ms", stats::quantile(&hit_ms, 0.99));
        out.set("serve.miss_p50_ms", stats::median(&miss_ms));
        out.set("serve.miss_p90_ms", stats::quantile(&miss_ms, 0.9));
        out.set("serve.slo_ratio", in_slo as f64 / requests.max(1) as f64);
        out.set("memx.gen_lag_p99_ms", lag_p99);
        out.set("memx.run_ms", stats::median(&miss_run_ms));
        if let (Some(b), Some(a)) = (&before, &after) {
            let (h, m, j) = (a.hits - b.hits, a.misses - b.misses, a.joins - b.joins);
            out.set("memx.hit_ratio", h / (h + m + j).max(1.0));
            out.set("memx.joins", j);
        }
        out.set(
            "memx.queue_depth_max",
            main.polls.iter().map(|p| p.queue_depth).fold(0.0, f64::max),
        );
        let rtt: Vec<f64> = (0..40)
            .map(|i| {
                let id = tracer.open("memx.health_rtt", None, 1 << 32 | i);
                let _ = http_request(&addr, "GET", "/v1/health", b"");
                ms(tracer.close(id))
            })
            .collect();
        out.set("memx.health_rtt_ms", stats::median(&rtt));

        // Coverage and overhead, on traced closed-loop passes.
        let traced: Vec<(f64, f64)> = (0..CLOSED_PASSES as u64)
            .map(|p| {
                closed_pass(
                    Some(&tracer),
                    2 << 32 | p << 16,
                    &mut next_miss,
                    &mut out,
                    &mut miss_answers,
                )
            })
            .collect();
        let traced_wall: Vec<f64> = traced.iter().map(|t| t.0).collect();
        out.set(
            "trace.coverage",
            stats::median(&traced.iter().map(|t| t.1).collect::<Vec<_>>()),
        );
        out.set(
            "trace.overhead_pct",
            (stats::median(&traced_wall) / stats::median(&closed_s) - 1.0) * 100.0,
        );

        // Stepped ramp: the highest rate whose p99 meets the limit and
        // whose queue wait does not grow.
        let mut max_rate = 0.0;
        for (step, mult) in RAMP.iter().enumerate() {
            let rate = RATE_RPS * mult;
            let plan = make_plan(
                &mut rng,
                rate,
                RAMP_STEP_S,
                pool.len(),
                &mut next_miss,
                None,
            );
            let r = open_loop(
                &addr,
                &plan,
                &pool_bytes,
                &pool,
                &miss_bodies,
                None,
                3 << 32 | (step as u64) << 16,
            );
            let mut lat = Vec::new();
            let mut wait = Vec::new();
            let mut samples = r.samples;
            samples.sort_by_key(|s| s.due);
            for s in &samples {
                out.attempted += 1;
                if !s.ok {
                    out.failed += 1;
                }
                lat.push(if s.ok { latency_ms(s) } else { f64::INFINITY });
                wait.push(ms(s.picked.saturating_duration_since(s.due)));
            }
            let p99 = stats::quantile(&lat, 0.99);
            let backlog = grows(&wait, 25.0) || grows(&r.gen_lag_ms, 5.0);
            println!("serve_mixed: ramp {rate} req/s: p99 {p99:.3} ms, backlog grows: {backlog}");
            if p99 > SLO_MS || backlog {
                break;
            }
            max_rate = rate;
        }
        out.set("serve.max_rate_rps", max_rate);
        trace::print_self_times(&tracer.snapshot());
        trace::write_spans(&tracer, "serve_mixed", cfg.seed);
    }
    server.request_shutdown();
    server.join();
    out.set("peak_rss_mb", stats::peak_rss_mb());
    out.set(
        "ok_ratio",
        (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
    );
    Ok(out)
}
