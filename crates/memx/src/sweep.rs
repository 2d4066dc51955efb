//! Distributed sweeps: the `memx sweep --distributed` coordinator, the
//! `memx worker` shard process, and the executors bridging them.
//!
//! The coordinator partitions the explore grid (paper grid for kernels,
//! trace grid for `.din` workloads) into contiguous shards, dispatches
//! them onto local worker *processes* (spawned from this binary) and/or
//! attached `memx serve` daemons (over the existing HTTP/1.1+JSON
//! transport), and merges the result streams back into grid order. The
//! merged stdout is byte-identical to the single-process `memx explore`
//! — workers evaluate exactly the designs of their slice, and per-design
//! records are deterministic (the property the resume oracle already
//! pins bit-exactly).
//!
//! Fault tolerance is the point, not an afterthought:
//!
//! * a worker crash (or SIGKILL) surfaces as a non-zero exit; the retry
//!   *resumes* the shard's checkpoint file, so completed designs are
//!   never re-simulated;
//! * a corrupt result stream fails the typed checkpoint validation and
//!   is re-dispatched fresh (never merged, never resumed);
//! * a straggler whose checkpoint stops growing gets a speculative twin
//!   (first complete wins, duplicates deduped by sweep id + entry index);
//! * a shard that exhausts its retry budget degrades to coordinator-
//!   local execution, down to zero surviving workers.
//!
//! The wire format between worker and coordinator is the checkpoint
//! sidecar itself ([`memexplore::Checkpoint`]): the worker streams
//! records into it as it sweeps, and its final flush *is* the result.
//! Quarantined designs ride alongside as `quarantine <idx> <message>`
//! lines on the worker's stdout.

use crate::commands::{self, Output, RunCtx, RunError};
use crate::knobs::{JobKind, OnTrace};
use crate::serve::{JobInput, JobSpec};
use memexplore::obs::{parse_json, Json};
use memexplore::{
    partition, run_sharded, CacheDesign, Checkpoint, CheckpointPolicy, CoordinatorOptions,
    Explorer, Record, ShardError, ShardExecutor, ShardHandle, ShardOutput, ShardSpec,
    ShardedOutcome, SweepOptions, SweepTelemetry, ThreadExecutor,
};
use std::cell::Cell;
use std::fmt::Write as _;
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command as ProcessCommand, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant, SystemTime};

// ---------------------------------------------------------------------------
// Quarantine lines
// ---------------------------------------------------------------------------

/// Quarantine messages travel as single stdout lines; embedded newlines
/// would desynchronize the line protocol.
fn sanitize(message: &str) -> String {
    message.replace(['\n', '\r'], " ")
}

/// Parses `quarantine <local_idx> <message>` lines out of a worker's
/// stdout (anything else on the stream is ignored).
fn parse_quarantine_lines(text: &str) -> Vec<(usize, String)> {
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("quarantine ")?;
            let (idx, message) = rest.split_once(' ')?;
            Some((idx.parse().ok()?, message.to_string()))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// memx worker
// ---------------------------------------------------------------------------

/// Runs one shard: evaluate `[shard_start, shard_end)` of the job's
/// grid and stream records into the checkpoint file (the coordinator's
/// wire format and this shard's crash-recovery journal). Quarantined
/// designs are reported as `quarantine <local_idx> <message>` stdout
/// lines; the process still exits 0 — a quarantine is a per-design
/// result, not a worker failure.
pub(crate) fn worker(
    spec: &JobSpec,
    file: &str,
    checkpoint: CheckpointPolicy,
) -> Result<Output, RunError> {
    let designs = spec.input.grid();
    let (start, end) = spec.knobs.shard_range()?;
    if end > designs.len() {
        return Err(RunError::Io(format!(
            "worker range [{start}..{end}) exceeds the {}-design grid of `{file}`",
            designs.len()
        )));
    }
    let slice = &designs[start..end];
    let options = SweepOptions {
        checkpoint: Some(checkpoint),
        ..SweepOptions::default()
    };
    let outcome = spec
        .input
        .sweep_supervised(&spec.explorer(None), slice, &options)?;
    let mut stdout = String::new();
    for e in &outcome.errors {
        let _ = writeln!(
            stdout,
            "quarantine {} {}",
            e.design_index,
            sanitize(&e.message)
        );
    }
    let mut stderr = String::new();
    let t = &outcome.telemetry;
    if t.records_resumed > 0 {
        let _ = writeln!(
            stderr,
            "note: resumed {} of {} records from the checkpoint",
            t.records_resumed,
            slice.len()
        );
    }
    let _ = writeln!(
        stderr,
        "worker: designs [{start}..{end}) done: {} records, {} quarantined",
        t.designs_evaluated,
        outcome.errors.len()
    );
    Ok(Output { stdout, stderr })
}

// ---------------------------------------------------------------------------
// Slices and merges
// ---------------------------------------------------------------------------

/// Sweeps one shard's slice of the grid under the fault-isolation
/// supervisor, shaped as a [`ShardOutput`] (local indices, sanitized
/// quarantine messages) — the coordinator-local, in-process and
/// shard-job path.
fn run_slice_output(
    input: &JobInput,
    explorer: &Explorer,
    slice: &[CacheDesign],
    shard: &ShardSpec,
) -> Result<ShardOutput, ShardError> {
    let outcome = input
        .sweep_supervised(explorer, slice, &SweepOptions::default())
        .map_err(|e| ShardError::WorkerLost {
            shard: shard.index,
            attempt: 0,
            message: e.to_string(),
        })?;
    Ok(ShardOutput {
        sweep_id: shard.sweep_id,
        entries: outcome
            .records
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.clone().map(|r| (i, r)))
            .collect(),
        quarantined: outcome
            .errors
            .iter()
            .map(|e| (e.design_index, sanitize(&e.message)))
            .collect(),
    })
}

/// Partitions `designs` into `count` contiguous shards, each stamped
/// with its slice's sweep id.
fn shard_specs(
    input: &JobInput,
    designs: &[CacheDesign],
    explorer: &Explorer,
    count: usize,
) -> Vec<ShardSpec> {
    let mut specs = partition(designs.len(), count);
    for spec in &mut specs {
        spec.sweep_id = input.sweep_id(&designs[spec.start..spec.end], &explorer.evaluator);
    }
    specs
}

/// The records of a sharded sweep in grid order, with a warning line per
/// quarantined design.
fn merged_records(
    outcome: &ShardedOutcome,
    designs: &[CacheDesign],
    stderr: &mut String,
) -> Result<Vec<Record>, RunError> {
    // Every empty slot must be accounted for by a quarantine; anything
    // else means a worker returned a validated but incomplete stream,
    // and silently shrinking the sweep would betray the byte-identity
    // contract.
    let quarantined: std::collections::BTreeSet<usize> =
        outcome.errors.iter().map(|e| e.design_index).collect();
    let mut records = Vec::with_capacity(designs.len());
    let mut missing = 0;
    for (i, slot) in outcome.records.iter().enumerate() {
        match slot {
            // Checkpoint entries persist geometry only; the sweep id
            // matched, so the grid's design is the one each record was
            // measured for (same fix-up the resume path applies).
            Some(r) => {
                let mut r = r.clone();
                r.design = designs[i];
                records.push(r);
            }
            None if !quarantined.contains(&i) => missing += 1,
            None => {}
        }
    }
    if missing > 0 {
        return Err(RunError::Other(
            format!("distributed sweep lost {missing} designs without a quarantine record").into(),
        ));
    }
    for e in &outcome.errors {
        let _ = writeln!(stderr, "warning: {e}");
    }
    Ok(records)
}

// ---------------------------------------------------------------------------
// Process executor (spawned `memx worker` children)
// ---------------------------------------------------------------------------

/// Launches shard attempts as `memx worker` child processes of this
/// binary. Heartbeats are derived from the shard's checkpoint sidecar:
/// the file (or its atomic-rename `.tmp` neighbour) growing or changing
/// counts as life, so a wedged worker that stops flushing goes stale
/// even though its process is still running.
struct ProcessExecutor {
    exe: PathBuf,
    file: String,
    /// Evaluator/engine flags every worker inherits.
    flags: Vec<String>,
    dir: PathBuf,
    slots: usize,
    checkpoint_every: usize,
}

impl ProcessExecutor {
    fn new(slots: usize, file: &str, spec: &JobSpec, dir: PathBuf) -> Result<Self, RunError> {
        let exe = std::env::current_exe()
            .map_err(|e| RunError::Io(format!("cannot locate the memx binary: {e}")))?;
        Ok(Self {
            exe,
            file: file.to_string(),
            flags: spec.knobs.flags(JobKind::Shard),
            dir,
            slots,
            checkpoint_every: 8,
        })
    }

    /// The attempt's checkpoint file. Attempt 0 and resuming retries
    /// share the shard's canonical sidecar (the resumable crash-recovery
    /// lineage); fresh re-dispatches — speculative twins and
    /// corrupt-stream retries — get their own file, because two live
    /// writers on one path would race the atomic rename.
    fn checkpoint_path(&self, spec: &ShardSpec, attempt: u32, resume: bool) -> PathBuf {
        if resume || attempt == 0 {
            self.dir.join(format!("shard-{}.ckpt", spec.index))
        } else {
            self.dir
                .join(format!("shard-{}-a{attempt}.ckpt", spec.index))
        }
    }
}

impl ShardExecutor for ProcessExecutor {
    fn launch(
        &self,
        spec: &ShardSpec,
        attempt: u32,
        resume: bool,
    ) -> Result<Box<dyn ShardHandle>, ShardError> {
        let path = self.checkpoint_path(spec, attempt, resume);
        if !resume {
            // A fresh attempt must not resume a predecessor's leftovers.
            let _ = std::fs::remove_file(&path);
        }
        let mut cmd = ProcessCommand::new(&self.exe);
        cmd.arg("worker")
            .arg(&self.file)
            .args(["--start", &spec.start.to_string()])
            .args(["--end", &spec.end.to_string()])
            .arg("--checkpoint")
            .arg(&path)
            .args(["--checkpoint-every", &self.checkpoint_every.to_string()])
            .args(&self.flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if resume {
            cmd.arg("--resume");
        }
        let child = cmd.spawn().map_err(|e| ShardError::Launch {
            shard: spec.index,
            attempt,
            message: format!("cannot spawn `memx worker`: {e}"),
        })?;
        Ok(Box::new(ProcessHandle {
            child,
            path,
            shard: spec.index,
            attempt,
            last_sig: Cell::new(None),
            last_change: Cell::new(Instant::now()),
        }))
    }

    fn slots(&self) -> usize {
        self.slots
    }
}

/// `(len, mtime)` of the checkpoint file and its `.tmp` neighbour — the
/// signal whose change resets the heartbeat clock.
type CheckpointSig = ((u64, Option<SystemTime>), (u64, Option<SystemTime>));

struct ProcessHandle {
    child: Child,
    path: PathBuf,
    shard: usize,
    attempt: u32,
    last_sig: Cell<Option<CheckpointSig>>,
    last_change: Cell<Instant>,
}

fn file_sig(path: &Path) -> (u64, Option<SystemTime>) {
    match std::fs::metadata(path) {
        Ok(m) => (m.len(), m.modified().ok()),
        Err(_) => (0, None),
    }
}

impl ShardHandle for ProcessHandle {
    fn poll(&mut self) -> Option<Result<ShardOutput, ShardError>> {
        let status = match self.child.try_wait() {
            Err(e) => {
                return Some(Err(ShardError::WorkerLost {
                    shard: self.shard,
                    attempt: self.attempt,
                    message: format!("cannot wait on worker: {e}"),
                }))
            }
            Ok(None) => return None,
            Ok(Some(status)) => status,
        };
        // The worker writes only a handful of quarantine/summary lines,
        // far below the pipe buffer, so draining after exit cannot
        // deadlock.
        let mut stdout = String::new();
        if let Some(mut s) = self.child.stdout.take() {
            let _ = s.read_to_string(&mut stdout);
        }
        let mut errtext = String::new();
        if let Some(mut s) = self.child.stderr.take() {
            let _ = s.read_to_string(&mut errtext);
        }
        if !status.success() {
            let tail = errtext
                .lines()
                .rev()
                .find(|l| !l.trim().is_empty())
                .unwrap_or("")
                .to_string();
            return Some(Err(ShardError::WorkerLost {
                shard: self.shard,
                attempt: self.attempt,
                message: if tail.is_empty() {
                    format!("worker exited with {status}")
                } else {
                    format!("worker exited with {status}: {tail}")
                },
            }));
        }
        match Checkpoint::read(&self.path) {
            Ok(ck) => Some(Ok(ShardOutput {
                sweep_id: ck.sweep_id,
                entries: ck.entries,
                quarantined: parse_quarantine_lines(&stdout),
            })),
            Err(e) => Some(Err(ShardError::CorruptStream {
                shard: self.shard,
                attempt: self.attempt,
                message: e.to_string(),
            })),
        }
    }

    fn heartbeat_age(&self) -> Duration {
        let sig: CheckpointSig = (
            file_sig(&self.path),
            file_sig(&self.path.with_extension("tmp")),
        );
        if self.last_sig.get() != Some(sig) {
            self.last_sig.set(Some(sig));
            self.last_change.set(Instant::now());
        }
        self.last_change.get().elapsed()
    }

    fn cancel(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ProcessHandle {
    fn drop(&mut self) {
        // Never leak a running child (or a zombie) past the handle.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------------
// HTTP executor (attached `memx serve` daemons)
// ---------------------------------------------------------------------------

/// Launches shard attempts as `shard` jobs on attached daemons,
/// round-robin. The response carries the checkpoint wire bytes
/// hex-encoded in `stdout` (decoded through the same typed validation a
/// file stream gets) and quarantine lines in `stderr`.
///
/// Liveness over HTTP is the transport's concern — the client enforces
/// its own I/O timeout, after which the attempt fails as lost — so the
/// heartbeat is reported as forever-fresh rather than pretending a
/// signal exists.
struct HttpExecutor {
    addrs: Vec<String>,
    /// Request-body prefix: `{"command":"shard",…knobs…,` awaiting
    /// `"start":…,"end":…}`.
    body_prefix: String,
    next: AtomicUsize,
}

impl HttpExecutor {
    fn new(addrs: Vec<String>, spec: &JobSpec, workload_text: &str) -> Self {
        use memexplore::obs::push_json_str;
        let (subject, _) = spec.input.subject();
        let mut b = String::from("{\"command\":\"shard\",\"");
        b.push_str(subject);
        b.push_str("\":");
        push_json_str(&mut b, workload_text);
        // The knobs a shard job takes, set away from their defaults; a
        // trace shard job rejects the kernel-only ones (one engine only).
        let kernel = matches!(spec.input, JobInput::Kernel(_));
        spec.knobs.write_json(&mut b, |k| {
            k.takes(JobKind::Shard)
                && !spec.knobs.is_default(k)
                && (kernel || k.on_trace == OnTrace::Same)
        });
        b.push(',');
        Self {
            addrs,
            body_prefix: b,
            next: AtomicUsize::new(0),
        }
    }
}

impl ShardExecutor for HttpExecutor {
    fn launch(
        &self,
        spec: &ShardSpec,
        attempt: u32,
        _resume: bool,
    ) -> Result<Box<dyn ShardHandle>, ShardError> {
        let addr = self.addrs[self.next.fetch_add(1, Ordering::Relaxed) % self.addrs.len()].clone();
        let body = format!(
            "{}\"start\":{},\"end\":{}}}",
            self.body_prefix, spec.start, spec.end
        );
        let shard = spec.index;
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let lost = |message: String| ShardError::WorkerLost {
                shard,
                attempt,
                message,
            };
            let corrupt = |message: String| ShardError::CorruptStream {
                shard,
                attempt,
                message,
            };
            let result = (|| {
                let resp = crate::serve::http_request(&addr, "POST", "/v1/jobs", body.as_bytes())
                    .map_err(|e| lost(format!("daemon {addr}: {e}")))?;
                let text = String::from_utf8_lossy(&resp.body).into_owned();
                let json = parse_json(&text)
                    .map_err(|e| lost(format!("daemon {addr}: malformed response: {e}")))?;
                if resp.code != 200 {
                    let msg = json
                        .get("error")
                        .and_then(Json::as_str)
                        .unwrap_or("daemon error");
                    return Err(lost(format!("daemon {addr} answered {}: {msg}", resp.code)));
                }
                let hex = json
                    .get("stdout")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .trim();
                let bytes = hex_decode(hex).map_err(corrupt)?;
                let ck = Checkpoint::from_bytes(&bytes).map_err(|e| corrupt(e.to_string()))?;
                let quarantined = parse_quarantine_lines(
                    json.get("stderr")
                        .and_then(Json::as_str)
                        .unwrap_or_default(),
                );
                Ok(ShardOutput {
                    sweep_id: ck.sweep_id,
                    entries: ck.entries,
                    quarantined,
                })
            })();
            let _ = tx.send(result);
        });
        Ok(Box::new(HttpHandle { rx, done: false }))
    }

    fn slots(&self) -> usize {
        self.addrs.len()
    }
}

struct HttpHandle {
    rx: mpsc::Receiver<Result<ShardOutput, ShardError>>,
    done: bool,
}

impl ShardHandle for HttpHandle {
    fn poll(&mut self) -> Option<Result<ShardOutput, ShardError>> {
        if self.done {
            return None;
        }
        match self.rx.try_recv() {
            Ok(result) => {
                self.done = true;
                Some(result)
            }
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => {
                self.done = true;
                None
            }
        }
    }

    fn heartbeat_age(&self) -> Duration {
        Duration::ZERO
    }

    fn cancel(&mut self) {
        // The request thread finishes on its own; its send just lands in
        // a closed channel.
        self.done = true;
    }
}

/// Routes launches round-robin across local worker processes and
/// attached daemons; total capacity is the sum of both pools.
struct MixedExecutor {
    process: Option<ProcessExecutor>,
    http: Option<HttpExecutor>,
    next: AtomicUsize,
}

impl ShardExecutor for MixedExecutor {
    fn launch(
        &self,
        spec: &ShardSpec,
        attempt: u32,
        resume: bool,
    ) -> Result<Box<dyn ShardHandle>, ShardError> {
        let p = self.process.as_ref().map_or(0, ShardExecutor::slots);
        let total = self.slots();
        let pick = self.next.fetch_add(1, Ordering::Relaxed) % total.max(1);
        match (&self.process, &self.http) {
            (Some(proc_exec), _) if pick < p => proc_exec.launch(spec, attempt, resume),
            (_, Some(http_exec)) => http_exec.launch(spec, attempt, resume),
            (Some(proc_exec), None) => proc_exec.launch(spec, attempt, resume),
            (None, None) => Err(ShardError::Launch {
                shard: spec.index,
                attempt,
                message: "no executors configured".into(),
            }),
        }
    }

    fn slots(&self) -> usize {
        self.process.as_ref().map_or(0, ShardExecutor::slots)
            + self.http.as_ref().map_or(0, ShardExecutor::slots)
    }
}

// ---------------------------------------------------------------------------
// memx sweep (the coordinator)
// ---------------------------------------------------------------------------

/// The coordinator knobs of a `memx sweep` command line; the job itself
/// (an explore) and its run settings come as a `JobSpec` and a `RunCtx`.
pub(crate) struct SweepRequest {
    pub file: String,
    pub distributed: usize,
    pub shards: Option<usize>,
    pub attach: Vec<String>,
    pub shard_dir: Option<String>,
    pub retry_budget: u32,
    pub backoff_ms: u64,
    pub straggler_ms: u64,
}

/// Runs the distributed sweep coordinator. With zero workers
/// (`--distributed 0` and nothing attached) this is exactly the local
/// `memx explore` — the graceful-degradation floor made explicit.
pub(crate) fn sweep(spec: &JobSpec, ctx: &RunCtx, req: &SweepRequest) -> Result<Output, RunError> {
    let slots = req.distributed + req.attach.len();
    if slots == 0 {
        let (mut output, _cancelled) = commands::run_job(spec, ctx)?;
        output.stderr.insert_str(
            0,
            "note: no workers (--distributed 0, none attached); sweeping locally\n",
        );
        return Ok(output);
    }
    let mut stderr = String::new();
    if let JobInput::Trace(_) = spec.input {
        spec.knobs.warn_on_trace(spec.kind, &mut stderr);
    }
    let designs = spec.input.grid();
    spec.input.check_grid(&designs, &mut stderr)?;
    let explorer = spec.explorer(None);
    let shard_count = req.shards.unwrap_or(2 * slots);
    let specs = shard_specs(&spec.input, &designs, &explorer, shard_count);

    let (dir, ephemeral) = match &req.shard_dir {
        Some(d) => (PathBuf::from(d), false),
        None => (
            std::env::temp_dir().join(format!("memx-sweep-{}", std::process::id())),
            true,
        ),
    };
    std::fs::create_dir_all(&dir)
        .map_err(|e| RunError::Io(format!("cannot create shard dir `{}`: {e}", dir.display())))?;

    let process = if req.distributed > 0 {
        Some(ProcessExecutor::new(
            req.distributed,
            &req.file,
            spec,
            dir.clone(),
        )?)
    } else {
        None
    };
    let http = if req.attach.is_empty() {
        None
    } else {
        let text = std::fs::read_to_string(&req.file)
            .map_err(|e| RunError::Io(format!("cannot read `{}`: {e}", req.file)))?;
        Some(HttpExecutor::new(req.attach.clone(), spec, &text))
    };
    let executor = MixedExecutor {
        process,
        http,
        next: AtomicUsize::new(0),
    };

    let local = |shard: &ShardSpec| {
        run_slice_output(
            &spec.input,
            &explorer,
            &designs[shard.start..shard.end],
            shard,
        )
    };
    let options = CoordinatorOptions {
        retry_budget: req.retry_budget,
        backoff: Duration::from_millis(req.backoff_ms),
        straggler_after: Duration::from_millis(req.straggler_ms),
        ..CoordinatorOptions::default()
    };
    let obs = commands::build_obs(&ctx.obs)?;
    let t0 = Instant::now();
    let outcome = run_sharded(
        &executor,
        &specs,
        &designs,
        &local,
        &options,
        obs.as_deref(),
    )
    .map_err(|e| RunError::Other(e.to_string().into()))?;
    if let Some(o) = &obs {
        o.finish();
    }
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }

    let records = merged_records(&outcome, &designs, &mut stderr)?;
    let mut out = spec.input.heading(records.len(), false);
    commands::write_selection(&mut out, &records, &spec.knobs);
    if ctx.telemetry {
        let mut t = SweepTelemetry {
            designs_evaluated: records.len(),
            designs_quarantined: outcome.errors.len(),
            workers: slots,
            total_time: t0.elapsed(),
            ..SweepTelemetry::default()
        };
        outcome.stats.fill(&mut t);
        let _ = writeln!(stderr, "{t}");
    }
    Ok(Output {
        stdout: out,
        stderr,
    })
}

// ---------------------------------------------------------------------------
// Serve integration: shard jobs and --distribute
// ---------------------------------------------------------------------------

/// A shard job (`memx serve`): sweeps `[shard_start, shard_end)` of the
/// job's grid. The stdout is the checkpoint wire bytes hex-encoded on
/// one line; quarantines go to `stderr` as `quarantine <idx> <message>`
/// lines.
pub(crate) fn shard(spec: &JobSpec, ctx: &RunCtx, stderr: &mut String) -> Result<String, RunError> {
    let designs = spec.input.grid();
    let (start, end) = spec.knobs.shard_range()?;
    if end > designs.len() {
        return Err(RunError::Other(
            format!(
                "shard range [{start}..{end}) is invalid for the {}-design grid",
                designs.len()
            )
            .into(),
        ));
    }
    let slice = &designs[start..end];
    let explorer = spec.explorer(ctx.workers);
    let shard = ShardSpec {
        index: 0,
        start,
        end,
        sweep_id: spec.input.sweep_id(slice, &explorer.evaluator),
    };
    let out = run_slice_output(&spec.input, &explorer, slice, &shard)
        .map_err(|e| RunError::Other(e.to_string().into()))?;
    for (idx, message) in &out.quarantined {
        let _ = writeln!(stderr, "quarantine {idx} {message}");
    }
    let bytes = Checkpoint {
        sweep_id: out.sweep_id,
        entries: out.entries,
    }
    .to_bytes();
    let mut stdout = hex_encode(&bytes);
    stdout.push('\n');
    Ok(stdout)
}

/// `memx serve --distribute N`: the records of an explore job, swept
/// through the shard coordinator on `ctx.distribute` in-process workers.
/// They are byte-identical to the undistributed sweep's by the same
/// argument as `memx sweep` (and pinned by the suite's oracle).
pub(crate) fn explore_sharded(
    spec: &JobSpec,
    ctx: &RunCtx,
    designs: &[CacheDesign],
    stderr: &mut String,
) -> Result<Vec<Record>, RunError> {
    let distribute = ctx.distribute;
    let workers = ctx.workers.unwrap_or(1);
    let explorer = spec.explorer(Some(workers));
    let specs = shard_specs(&spec.input, designs, &explorer, 2 * distribute);
    // Each in-process shard worker gets a share of the job's thread
    // budget so `--distribute` does not oversubscribe the slot's cores.
    // The executor's threads outlive this call's borrows, so they own
    // their input.
    let shard_explorer = spec.explorer(Some(workers / distribute));
    let shard_input = spec.input.clone();
    let shard_designs = designs.to_vec();
    let run: Arc<memexplore::shard::ShardFn> = Arc::new(move |shard: &ShardSpec| {
        run_slice_output(
            &shard_input,
            &shard_explorer,
            &shard_designs[shard.start..shard.end],
            shard,
        )
    });
    let executor = ThreadExecutor::new(distribute, run);
    let local = |shard: &ShardSpec| {
        run_slice_output(
            &spec.input,
            &explorer,
            &designs[shard.start..shard.end],
            shard,
        )
    };
    let outcome = run_sharded(
        &executor,
        &specs,
        designs,
        &local,
        &CoordinatorOptions::default(),
        None,
    )
    .map_err(|e| RunError::Other(e.to_string().into()))?;
    merged_records(&outcome, designs, stderr)
}

// ---------------------------------------------------------------------------
// Hex (std-only wire encoding for shard job responses)
// ---------------------------------------------------------------------------

pub(crate) fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(s, "{b:02x}");
    }
    s
}

pub(crate) fn hex_decode(text: &str) -> Result<Vec<u8>, String> {
    if !text.len().is_multiple_of(2) {
        return Err(format!("odd-length hex stream ({} chars)", text.len()));
    }
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(text.len() / 2);
    let nibble = |c: u8| -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(format!("non-hex byte {c:#04x} in result stream")),
        }
    };
    for pair in bytes.chunks_exact(2) {
        out.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0u8..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
        assert!(hex_decode("abc").unwrap_err().contains("odd-length"));
        assert!(hex_decode("zz").unwrap_err().contains("non-hex"));
    }

    #[test]
    fn quarantine_lines_round_trip() {
        let mut stdout = String::new();
        for (i, m) in [(3usize, "boom"), (7, "replay panicked")] {
            let _ = writeln!(stdout, "quarantine {i} {}", sanitize(m));
        }
        stdout.push_str("unrelated noise\n");
        assert_eq!(
            parse_quarantine_lines(&stdout),
            vec![(3, "boom".to_string()), (7, "replay panicked".to_string())]
        );
    }

    #[test]
    fn sanitize_flattens_newlines() {
        assert_eq!(sanitize("a\nb\r\nc"), "a b  c");
    }
}
