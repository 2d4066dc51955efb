//! Sweep-as-a-service: the `memx serve` daemon and its tiny HTTP client.
//!
//! The daemon accepts exploration jobs (explore / pareto / search — the
//! same commands the offline CLI runs, with the same knobs) over a
//! line-delimited HTTP/1.1+JSON API on a TCP socket:
//!
//! * `POST /v1/jobs` — run (or serve from cache) one job. The body is a
//!   JSON object; `command` picks the job kind and exactly one of
//!   `kernel` (inline loopir `.mx` text) or `trace` (inline Dinero `.din`
//!   text, swept by streaming) carries the workload. Unknown fields are
//!   rejected (400), so a typo'd knob can never silently fall back to a
//!   default.
//! * `GET  /v1/health` — liveness probe.
//! * `GET  /v1/stats` — job/cache/queue counters as JSON.
//! * `POST /v1/shutdown` — graceful stop (also SIGTERM on the binary).
//!
//! Completed results are memoized in a content-addressed
//! [`ResultCache`](memexplore::ResultCache): the key is a 128-bit FNV-1a
//! hash of the *canonical* job rendering — the parsed kernel's canonical
//! IR `Display`, the resolved model parameters, engine, objective, and
//! every knob, with defaults made explicit — so JSON key order,
//! whitespace, and spelled-out defaults cannot change the key, while any
//! semantic difference must. Single-flight deduplication makes concurrent
//! identical jobs simulate once; every submitter gets byte-identical
//! bytes. Cancelled (deadline) and failed jobs are never cached.
//!
//! The accept loop waits on the listener with `poll(2)`, so a connection
//! is read as soon as it arrives. Each connection gets a handler thread;
//! a hit answers there with the cached bytes. A miss goes into one FIFO
//! `SlotQueue` that `slots` long-lived slot threads take jobs from in
//! strict arrival order; each job runs on the existing work-stealing
//! sweep pool with `workers ≈ cores/slots` so concurrent jobs share the
//! machine instead of oversubscribing it. Per-job events (`serve`/`job`
//! with duration, cache disposition, status, queue depth, and the stage
//! timings `queue_us`, `compute_us` and `write_us`) flow through the obs
//! layer and surface in `memx report`.

use crate::commands::{self, Output, RunCtx, RunError};
use crate::knobs::{self, Id, JobKind, Knobs, Value, KNOBS};
use loopir::parse::parse_kernel;
use loopir::Kernel;
use memexplore::explore::panic_message;
use memexplore::obs::{parse_json, push_json_str, Json};
use memexplore::supervisor::sweep_id;
use memexplore::{
    trace_sweep_id, CacheDesign, CacheKey, DesignSpace, Evaluator, Explorer, FieldValue, Lookup,
    Obs, ResultCache, SweepOptions, SweepOutcome, TraceWorkload,
};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Version tag mixed into every cache key: bump it whenever the canonical
/// job rendering or the response byte format changes, so stale entries
/// from an older daemon can never be (mis)interpreted by a newer one.
const KEY_SCHEMA: &str = "memx-serve-job-v1";

/// Read timeout on accepted connections — a stalled client cannot pin a
/// handler thread forever.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Longest the accept loop waits for a connection before it looks at the
/// shutdown flag again.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Largest accepted request body (16 MiB leaves room for very large
/// generated kernels while bounding a hostile Content-Length).
const MAX_BODY: usize = 16 << 20;

// ---------------------------------------------------------------------------
// Job specification
// ---------------------------------------------------------------------------

/// The workload a job sweeps: a parsed kernel or a streamed trace.
///
/// This is the one place that knows what differs between the two; every
/// job kind and every surface (CLI, daemon, shard worker, coordinator)
/// goes through these methods.
#[derive(Clone, Debug)]
pub enum JobInput {
    /// Parsed kernel from the request's inline `.mx` text.
    Kernel(Kernel),
    /// Prepared trace from the request's inline `.din` text, swept by
    /// streaming over the fixed trace grid (tiling pinned at 1).
    Trace(TraceWorkload),
}

impl JobInput {
    /// Loads a workload file: a Dinero trace (by its `.din` extension),
    /// prepared by one streaming pass that fingerprints it in bounded
    /// memory however large it is, or else a loopir kernel.
    pub(crate) fn load(path: &str) -> Result<JobInput, RunError> {
        if commands::is_din_path(path) {
            TraceWorkload::from_path(path)
                .map(JobInput::Trace)
                .map_err(commands::trace_error)
        } else {
            commands::load(path).map(JobInput::Kernel)
        }
    }

    /// The explore grid: the paper grid for a kernel, the trace grid for
    /// a trace (an external trace cannot be re-tiled).
    pub(crate) fn grid(&self) -> Vec<CacheDesign> {
        match self {
            JobInput::Kernel(_) => DesignSpace::paper().designs(),
            JobInput::Trace(_) => TraceWorkload::design_space().designs(),
        }
    }

    /// Validates a grid before it is swept. A kernel grid must be valid
    /// and feasible for the kernel; the trace grid is fixed and valid.
    pub(crate) fn check_grid(
        &self,
        designs: &[CacheDesign],
        stderr: &mut String,
    ) -> Result<(), RunError> {
        match self {
            JobInput::Kernel(kernel) => commands::check_sweep_inputs(kernel, designs, stderr),
            JobInput::Trace(_) => Ok(()),
        }
    }

    /// The sweep id of `designs` over this input: what a checkpoint
    /// header or a shard's result stream carries, so a stream from
    /// another workload, slice or evaluator is rejected.
    pub(crate) fn sweep_id(&self, designs: &[CacheDesign], evaluator: &Evaluator) -> u64 {
        match self {
            JobInput::Kernel(kernel) => sweep_id(kernel, designs, evaluator),
            JobInput::Trace(workload) => trace_sweep_id(workload, designs, evaluator),
        }
    }

    /// Sweeps `designs` under the fault-isolation supervisor. Checkpoint
    /// and trace-source failures are I/O errors (exit 2); a worker panic
    /// that escapes quarantine is a runtime error (exit 1).
    pub(crate) fn sweep_supervised(
        &self,
        explorer: &Explorer,
        designs: &[CacheDesign],
        options: &SweepOptions,
    ) -> Result<SweepOutcome, RunError> {
        match self {
            JobInput::Kernel(kernel) => explorer
                .explore_supervised(kernel, designs, options)
                .map_err(commands::explore_error),
            JobInput::Trace(workload) => explorer
                .explore_trace_supervised(workload, designs, options)
                .map_err(commands::trace_error),
        }
    }

    /// `("kernel", name)` or `("trace", name)`: how headings, warnings
    /// and the JSON member of a rendered result name the workload.
    pub(crate) fn subject(&self) -> (&'static str, &str) {
        match self {
            JobInput::Kernel(kernel) => ("kernel", &kernel.name),
            JobInput::Trace(workload) => ("trace", workload.name()),
        }
    }

    /// The first stdout line of an explore over `count` records.
    pub(crate) fn heading(&self, count: usize, analytical: bool) -> String {
        match self {
            JobInput::Kernel(kernel) => format!(
                "explored {count} configurations of kernel {} ({})\n",
                kernel.name,
                if analytical {
                    "analytical model"
                } else {
                    "trace-driven simulation"
                }
            ),
            JobInput::Trace(workload) => format!(
                "explored {count} configurations of trace {} ({} events, streamed)\n",
                workload.name(),
                workload.events()
            ),
        }
    }
}

/// A fully validated job request: its kind, its workload and its knobs.
/// The knobs' defaults are the offline CLI's, so a request that only sets
/// `command` and `kernel` behaves exactly like `memx <command> KERNEL.mx`
/// (and `trace` like `memx <command> TRACE.din`).
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Which sweep to run.
    pub kind: JobKind,
    /// The workload (inline kernel or inline trace).
    pub input: JobInput,
    /// Every knob's value (see [`crate::knobs`]).
    pub knobs: Knobs,
}

/// A rejected job request — one line, reported as HTTP 400.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRequest(pub String);

impl std::fmt::Display for BadRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for BadRequest {}

fn bad(msg: impl Into<String>) -> BadRequest {
    BadRequest(msg.into())
}

fn field_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, BadRequest> {
    v.as_str()
        .ok_or_else(|| bad(format!("field `{key}` must be a string")))
}

impl JobSpec {
    /// The explorer this job sweeps with: the evaluator and engine come
    /// from the job, the worker-thread count from the caller.
    pub(crate) fn explorer(&self, workers: Option<usize>) -> Explorer {
        let mut explorer = Explorer::new(commands::make_evaluator(&self.knobs))
            .with_engine(commands::engine_kind(self.knobs.word(Id::Engine)));
        explorer.workers = workers.map(|w| w.max(1));
        explorer
    }

    /// Parses and validates a `POST /v1/jobs` body. Every key is checked
    /// against the knobs its job kind takes; anything else is an error,
    /// never a silent default.
    pub fn from_json(body: &Json) -> Result<JobSpec, BadRequest> {
        let Json::Obj(pairs) = body else {
            return Err(bad("request body must be a JSON object"));
        };
        let kind = match body.get("command") {
            None => return Err(bad("missing field `command`")),
            Some(v) => {
                let name = field_str(v, "command")?;
                JobKind::parse(name).ok_or_else(|| {
                    bad(format!(
                        "unknown command `{name}` (expected explore, pareto, search, or shard)"
                    ))
                })?
            }
        };
        let input = match (body.get("kernel"), body.get("trace")) {
            (Some(_), Some(_)) => {
                return Err(bad("fields `kernel` and `trace` are mutually exclusive"))
            }
            (None, None) => return Err(bad(
                "missing workload: set `kernel` (inline .mx text) or `trace` (inline .din text)",
            )),
            (Some(v), None) => {
                let text = field_str(v, "kernel")?;
                JobInput::Kernel(parse_kernel(text).map_err(|e| bad(format!("bad kernel: {e}")))?)
            }
            (None, Some(v)) => {
                let text = field_str(v, "trace")?.to_string();
                JobInput::Trace(
                    TraceWorkload::from_text("inline.din", text)
                        .map_err(|e| bad(format!("bad trace: {e}")))?,
                )
            }
        };
        let is_trace = matches!(input, JobInput::Trace(_));

        let mut knobs = Knobs::default();
        for (key, value) in pairs {
            let key = key.as_str();
            if matches!(key, "command" | "kernel" | "trace") {
                continue;
            }
            if is_trace && knobs::kernel_only(key) {
                return Err(bad(format!(
                    "field `{key}` needs a kernel workload (a streamed `.din` trace \
                     sweeps the fixed trace grid)"
                )));
            }
            // A deadline would truncate the shard's result stream, and
            // the coordinator would silently merge a partial sweep.
            if kind == JobKind::Shard && key == "deadline_secs" {
                return Err(bad("field `deadline_secs` does not apply to shard jobs \
                     (a partial shard would corrupt the merged sweep)"));
            }
            let row = KNOBS
                .iter()
                .find(|k| k.member == key && k.takes(kind))
                .ok_or_else(|| {
                    bad(format!(
                        "unknown field `{key}` for command `{}`",
                        kind.as_str()
                    ))
                })?;
            knobs.set(row.id, row.parse_json(value).map_err(bad)?);
        }
        if kind == JobKind::Shard {
            knobs.shard_range().map_err(bad)?;
        }
        Ok(JobSpec { kind, input, knobs })
    }

    /// The content address of this job: a 128-bit FNV-1a hash over the
    /// canonical rendering. Canonical means (a) the *parsed* kernel's
    /// `Display` (so formatting/comments in the request text are erased)
    /// — or, for trace jobs, the streaming fingerprint plus event count
    /// (so two spellings of the same recorded events share an entry), and
    /// (b) each keyed knob the kind takes, in table order, with its
    /// default made explicit (see [`crate::knobs`]).
    pub fn cache_key(&self) -> CacheKey {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(512);
        let _ = write!(s, "{KEY_SCHEMA}\0command={}\0", self.kind.as_str());
        match &self.input {
            JobInput::Kernel(kernel) => {
                let _ = write!(s, "kernel={kernel}\0");
            }
            JobInput::Trace(workload) => {
                let _ = write!(
                    s,
                    "trace={}:{}\0",
                    workload.fingerprint().to_hex(),
                    workload.events()
                );
            }
        }
        self.knobs.write_key(self.kind, &mut s);
        CacheKey::from_canonical(s.as_bytes())
    }
}

// ---------------------------------------------------------------------------
// Slot queue
// ---------------------------------------------------------------------------

struct QueueState<T> {
    /// Tasks not yet taken by a slot thread, oldest first.
    waiting: VecDeque<T>,
    /// Tasks taken and not yet finished.
    active: usize,
    /// Set by [`SlotQueue::close`]: no more tasks are accepted.
    closed: bool,
}

/// The one FIFO that feeds the slot threads. Tasks are taken strictly in
/// arrival order (no barging — a heavyweight expansive-space job cannot be
/// starved by a stream of cheap ones), and each of the `slots` threads
/// that pop from it runs one task at a time.
struct SlotQueue<T> {
    state: Mutex<QueueState<T>>,
    ready: Condvar,
}

impl<T> SlotQueue<T> {
    fn new() -> Self {
        SlotQueue {
            state: Mutex::new(QueueState {
                waiting: VecDeque::new(),
                active: 0,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Appends `task` and returns how many tasks wait ahead of it, or
    /// `None` (dropping the task) once the queue is closed.
    fn push(&self, task: T) -> Option<u64> {
        let mut st = self.state.lock().unwrap();
        if st.closed {
            return None;
        }
        let depth = st.waiting.len() as u64;
        st.waiting.push_back(task);
        drop(st);
        self.ready.notify_one();
        Some(depth)
    }

    /// Blocks until a task waits, then takes the oldest and counts it
    /// active. `None` once the queue is closed and every task is taken.
    fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap();
        loop {
            if let Some(task) = st.waiting.pop_front() {
                st.active += 1;
                return Some(task);
            }
            if st.closed {
                return None;
            }
            st = self.ready.wait(st).unwrap();
        }
    }

    /// Marks one task taken by [`SlotQueue::pop`] finished.
    fn finish(&self) {
        self.state.lock().unwrap().active -= 1;
    }

    /// Refuses further tasks; the slot threads drain what waits and exit.
    fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.ready.notify_all();
    }

    /// `(waiting, active)` snapshot.
    fn depth(&self) -> (u64, usize) {
        let st = self.state.lock().unwrap();
        (st.waiting.len() as u64, st.active)
    }
}

/// A cache miss waiting for a slot: the job, when it was queued, and
/// where its outcome goes.
struct Miss {
    spec: JobSpec,
    queued: Instant,
    reply: SyncSender<Computed>,
}

/// `commands::run_job`'s result (its output and whether a deadline
/// cancelled it), or the payload of its panic.
type JobResult = std::thread::Result<Result<(Output, bool), RunError>>;

/// A miss's outcome as its slot thread hands it back.
struct Computed {
    result: JobResult,
    /// Enqueue to slot start.
    queue: Duration,
    /// Slot start to the job's return.
    compute: Duration,
}

/// One slot thread: runs queued misses, oldest first, until the queue is
/// closed and drained. Long-lived, so every miss computes on one of a
/// fixed set of `slots` threads (and their allocator arenas) instead of
/// on its connection's fresh thread.
fn slot_loop(shared: &ServerShared) {
    let ctx = RunCtx {
        workers: Some(shared.workers_per_job),
        distribute: shared.distribute,
        ..RunCtx::default()
    };
    while let Some(miss) = shared.queue.pop() {
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| commands::run_job(&miss.spec, &ctx)));
        let compute = start.elapsed();
        // The slot is given back before the answer, so a client holding
        // its answer never sees its own job counted active.
        shared.queue.finish();
        let _ = miss.reply.send(Computed {
            result,
            queue: start - miss.queued,
            compute,
        });
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// `memx serve` configuration.
pub struct ServeConfig {
    /// Listen address (`HOST:PORT`; port 0 binds an ephemeral port).
    pub addr: String,
    /// Concurrent job slots (0 = one per available core).
    pub slots: usize,
    /// Result-cache bound, entries.
    pub cache_entries: usize,
    /// Result-cache bound, bytes.
    pub cache_bytes: usize,
    /// Deadline for jobs that do not set one (`None` = unbounded).
    pub default_deadline: Option<f64>,
    /// Route eligible explore jobs through the shard coordinator onto
    /// this many in-process workers (0/1 = undistributed).
    pub distribute: usize,
    /// Observability hub for per-job events (`None` = off).
    pub obs: Option<Arc<Obs>>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            slots: 0,
            cache_entries: 256,
            cache_bytes: 64 << 20,
            default_deadline: None,
            distribute: 0,
            obs: None,
        }
    }
}

struct ServerShared {
    cache: ResultCache,
    queue: SlotQueue<Miss>,
    obs: Option<Arc<Obs>>,
    shutdown: Arc<AtomicBool>,
    jobs: AtomicU64,
    /// Worker threads each slot's job may use, sized so `slots`
    /// concurrent jobs share the cores instead of oversubscribing.
    workers_per_job: usize,
    default_deadline: Option<f64>,
    /// In-process shard workers for eligible explore jobs (0/1 = off).
    distribute: usize,
}

/// A running daemon. Dropping the handle does NOT stop it; call
/// [`Server::request_shutdown`] then [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and starts the accept loop and the slot
    /// threads. Returns once the socket is live — jobs can be submitted
    /// immediately.
    ///
    /// # Errors
    ///
    /// Propagates the bind error (address in use, bad host, …).
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let slots = if config.slots == 0 {
            cores
        } else {
            config.slots
        };
        let shared = Arc::new(ServerShared {
            cache: ResultCache::new(config.cache_entries, config.cache_bytes),
            queue: SlotQueue::new(),
            obs: config.obs,
            shutdown: Arc::new(AtomicBool::new(false)),
            jobs: AtomicU64::new(0),
            workers_per_job: (cores / slots).max(1),
            default_deadline: config.default_deadline,
            distribute: config.distribute,
        });
        let slot_threads = (0..slots)
            .map(|_| {
                let slot_shared = Arc::clone(&shared);
                std::thread::spawn(move || slot_loop(&slot_shared))
            })
            .collect();
        let accept_shared = Arc::clone(&shared);
        let accept_thread =
            std::thread::spawn(move || accept_loop(listener, accept_shared, slot_threads));
        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The result cache (tests use this to force evictions).
    pub fn cache(&self) -> &ResultCache {
        &self.shared.cache
    }

    /// Jobs completed so far (any disposition).
    pub fn jobs_done(&self) -> u64 {
        self.shared.jobs.load(Ordering::Relaxed)
    }

    /// Asks the accept loop to stop after in-flight requests drain.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// True once the accept loop has exited.
    pub fn is_stopped(&self) -> bool {
        self.accept_thread.as_ref().is_none_or(|h| h.is_finished())
    }

    /// Waits for the accept loop (and its in-flight requests and slot
    /// threads) to finish.
    pub fn join(mut self) {
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>, slots: Vec<JoinHandle<()>>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_shared = Arc::clone(&shared);
                handlers.push(std::thread::spawn(move || {
                    let _ = handle_connection(stream, &conn_shared);
                }));
                handlers.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                wait_for_connection(&listener, ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    // Graceful drain: finish requests that were already accepted (their
    // misses are queued or running), then let the slots run dry and exit.
    for h in handlers {
        let _ = h.join();
    }
    shared.queue.close();
    for s in slots {
        let _ = s.join();
    }
    if let Some(obs) = &shared.obs {
        obs.finish();
    }
}

/// Blocks until `listener` has a connection waiting or `timeout` passes:
/// `poll(2)` on its descriptor, so a connection is accepted as soon as it
/// arrives, while the timeout bounds how late the shutdown flag is seen.
#[cfg(unix)]
fn wait_for_connection(listener: &TcpListener, timeout: Duration) {
    use std::ffi::{c_int, c_short, c_ulong};
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout_ms: c_int) -> c_int;
    }
    const POLLIN: c_short = 1;
    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout_ms = c_int::try_from(timeout.as_millis()).unwrap_or(c_int::MAX);
    // SAFETY: `fd` is one initialized `struct pollfd` that outlives the
    // call, and `nfds` is 1. An error or EINTR return only sends the loop
    // round again.
    unsafe {
        poll(&mut fd, 1, timeout_ms);
    }
}

#[cfg(not(unix))]
fn wait_for_connection(_listener: &TcpListener, timeout: Duration) {
    std::thread::sleep(timeout);
}

// ---------------------------------------------------------------------------
// HTTP plumbing (std-only, HTTP/1.1, one request per connection)
// ---------------------------------------------------------------------------

struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
}

fn read_request(stream: &mut TcpStream) -> io::Result<Request> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    if method.is_empty() || path.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed request line",
        ));
    }
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length")
                })?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request body too large",
        ));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    Ok(Request { method, path, body })
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

fn write_response(
    stream: &mut TcpStream,
    code: u16,
    extra_headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {code} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        status_text(code),
        body.len()
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

fn error_body(code: u16, message: &str) -> Vec<u8> {
    let mut s = String::from("{\"status\":\"error\",\"code\":");
    s.push_str(&code.to_string());
    s.push_str(",\"error\":");
    push_json_str(&mut s, message);
    s.push_str("}\n");
    s.into_bytes()
}

fn handle_connection(mut stream: TcpStream, shared: &ServerShared) -> io::Result<()> {
    let request = match read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            let body = error_body(400, &format!("malformed request: {e}"));
            return write_response(&mut stream, 400, &[], &body);
        }
    };
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/v1/health") => {
            let run_id = shared.obs.as_deref().map_or("-", |o| o.run_id());
            let mut body = String::from("{\"status\":\"ok\",\"run\":");
            push_json_str(&mut body, run_id);
            body.push_str("}\n");
            write_response(&mut stream, 200, &[], body.as_bytes())
        }
        ("GET", "/v1/stats") => {
            let body = stats_json(shared);
            write_response(&mut stream, 200, &[], body.as_bytes())
        }
        ("POST", "/v1/shutdown") => {
            shared.shutdown.store(true, Ordering::SeqCst);
            write_response(&mut stream, 200, &[], b"{\"status\":\"shutting-down\"}\n")
        }
        ("POST", "/v1/jobs") => handle_job(&mut stream, shared, &request.body),
        (_, "/v1/jobs") | (_, "/v1/health") | (_, "/v1/stats") | (_, "/v1/shutdown") => {
            let body = error_body(405, &format!("method {} not allowed", request.method));
            write_response(&mut stream, 405, &[], &body)
        }
        (_, path) => {
            let body = error_body(404, &format!("no such endpoint `{path}`"));
            write_response(&mut stream, 404, &[], &body)
        }
    }
}

fn stats_json(shared: &ServerShared) -> String {
    let st = shared.cache.stats();
    let (waiting, active) = shared.queue.depth();
    format!(
        concat!(
            "{{\"jobs\":{},\"active\":{},\"queue_depth\":{},",
            "\"cache\":{{\"hits\":{},\"misses\":{},\"joins\":{},\"evictions\":{},",
            "\"abandoned\":{},\"entries\":{},\"bytes\":{}}}}}\n"
        ),
        shared.jobs.load(Ordering::Relaxed),
        active,
        waiting,
        st.hits,
        st.misses,
        st.joins,
        st.evictions,
        st.abandoned,
        st.entries,
        st.bytes,
    )
}

// ---------------------------------------------------------------------------
// Job execution
// ---------------------------------------------------------------------------

/// Renders the response body for a finished job. This is the byte string
/// the cache stores, so hit and miss responses are identical by
/// construction; fixed key order keeps it deterministic.
fn job_body(status: &str, key: CacheKey, spec_kind: JobKind, output: &Output) -> Vec<u8> {
    let mut s = String::with_capacity(output.stdout.len() + output.stderr.len() + 128);
    s.push_str("{\"status\":");
    push_json_str(&mut s, status);
    s.push_str(",\"command\":");
    push_json_str(&mut s, spec_kind.as_str());
    s.push_str(",\"key\":");
    push_json_str(&mut s, &key.to_hex());
    s.push_str(",\"stdout\":");
    push_json_str(&mut s, &output.stdout);
    s.push_str(",\"stderr\":");
    push_json_str(&mut s, &output.stderr);
    s.push_str("}\n");
    s.into_bytes()
}

fn handle_job(stream: &mut TcpStream, shared: &ServerShared, body: &[u8]) -> io::Result<()> {
    let started = Instant::now();
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => {
            let b = error_body(400, "request body is not UTF-8");
            return write_response(stream, 400, &[], &b);
        }
    };
    let json = match parse_json(text) {
        Ok(j) => j,
        Err(e) => {
            let b = error_body(400, &format!("malformed JSON: {e}"));
            return write_response(stream, 400, &[], &b);
        }
    };
    let mut spec = match JobSpec::from_json(&json) {
        Ok(s) => s,
        Err(e) => {
            let b = error_body(400, &e.0);
            return write_response(stream, 400, &[], &b);
        }
    };
    if let (Value::Unset, Some(d)) = (spec.knobs.get(Id::Deadline), shared.default_deadline) {
        spec.knobs.set(Id::Deadline, Value::Num(d));
    }
    let kind = spec.kind;
    let key = spec.cache_key();
    let key_hex = key.to_hex();

    // Single-flight lookup: a hit (resident or coalesced onto a concurrent
    // leader) answers with the cached bytes, without touching the queue
    // or the sweep pool.
    let (cache, status, code, response, slot) = match shared.cache.lookup(key) {
        Lookup::Hit { value, coalesced } => {
            let cache = if coalesced { "join" } else { "hit" };
            (cache, "complete", 200, value, None)
        }
        Lookup::Miss(flight) => {
            // Leader: queue for a slot thread, then wait for its outcome.
            let (reply, answer) = mpsc::sync_channel(1);
            let miss = Miss {
                spec,
                queued: Instant::now(),
                reply,
            };
            let outcome = shared
                .queue
                .push(miss)
                .and_then(|depth| Some((depth, answer.recv().ok()?)));
            let (status, code, bytes, slot) = match outcome {
                Some((queue_depth, computed)) => {
                    let (status, code, bytes) = miss_response(computed.result, key, kind);
                    let slot = SlotTimes {
                        queue_depth,
                        queue: computed.queue,
                        compute: computed.compute,
                    };
                    (status, code, bytes, Some(slot))
                }
                // Refused by a closing queue, or its slot thread died
                // before answering: no job ran to an outcome.
                None => ("error", 500, error_body(500, "no slot ran the job"), None),
            };
            let bytes = Arc::new(bytes);
            if code == 200 {
                // Only completed results are cacheable; a cancelled
                // (deadline) job still answers its waiters with the
                // partial bytes but is re-simulated next time.
                flight.fulfill(Arc::clone(&bytes), status == "complete");
            } else {
                drop(flight); // abandon: waiters retry, nothing cached
            }
            ("miss", status, code, bytes, slot)
        }
    };
    shared.jobs.fetch_add(1, Ordering::Relaxed);
    let dur = started.elapsed();
    let headers = [
        ("X-Memx-Cache", cache),
        ("X-Memx-Key", key_hex.as_str()),
        ("X-Memx-Status", status),
    ];
    let written = write_response(stream, code, &headers, &response);
    record_job(
        shared,
        &JobRecord {
            kind,
            key_hex: &key_hex,
            cache,
            status,
            http: code,
            dur,
            slot,
            write: started.elapsed() - dur,
        },
    );
    written
}

/// The status, HTTP code and body of a miss whose job ran on a slot.
fn miss_response(result: JobResult, key: CacheKey, kind: JobKind) -> (&'static str, u16, Vec<u8>) {
    match result {
        Ok(Ok((output, cancelled))) => {
            let status = if cancelled { "cancelled" } else { "complete" };
            (status, 200, job_body(status, key, kind, &output))
        }
        Ok(Err(err)) => {
            // Runtime failure (e.g. infeasible grid): typed 422. Invalid
            // cache geometry is the client's fault: 400. I/O failures
            // cannot normally happen (inputs are inline), so anything of
            // that class is a 500.
            let code = match &err {
                RunError::Io(_) => 500,
                RunError::Geometry(_) => 400,
                RunError::Other(_) => 422,
            };
            ("error", code, error_body(code, &err.to_string()))
        }
        Err(panic) => {
            let msg = panic_message(panic);
            (
                "panic",
                500,
                error_body(500, &format!("job panicked: {msg}")),
            )
        }
    }
}

/// Where a miss spent its time before its answer was written.
struct SlotTimes {
    /// Jobs waiting ahead of it when it was queued.
    queue_depth: u64,
    /// Enqueue to slot start.
    queue: Duration,
    /// Slot start to the job's return.
    compute: Duration,
}

/// What the `serve`/`job` event records about one answered job.
struct JobRecord<'a> {
    kind: JobKind,
    key_hex: &'a str,
    cache: &'static str,
    status: &'static str,
    http: u16,
    /// Request read to response ready.
    dur: Duration,
    /// The slot stages of a miss (`None` for hits and joins).
    slot: Option<SlotTimes>,
    /// Writing the response.
    write: Duration,
}

fn micros(d: Duration) -> FieldValue {
    FieldValue::U64(u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
}

/// Emits the per-job observability event: `dur_us`, then the stage
/// timings — `queue_us` and `compute_us` for a miss, `write_us` for every
/// job.
fn record_job(shared: &ServerShared, job: &JobRecord<'_>) {
    let Some(obs) = &shared.obs else {
        return;
    };
    let mut fields = vec![
        ("dur_us", micros(job.dur)),
        ("command", FieldValue::Str(job.kind.as_str().to_string())),
        ("key", FieldValue::Str(job.key_hex.to_string())),
        ("cache", FieldValue::Str(job.cache.to_string())),
        ("status", FieldValue::Str(job.status.to_string())),
        (
            "queue_depth",
            FieldValue::U64(job.slot.as_ref().map_or(0, |s| s.queue_depth)),
        ),
        ("http", FieldValue::U64(u64::from(job.http))),
    ];
    if let Some(slot) = &job.slot {
        fields.push(("queue_us", micros(slot.queue)));
        fields.push(("compute_us", micros(slot.compute)));
    }
    fields.push(("write_us", micros(job.write)));
    obs.point("serve", "job", &fields);
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A parsed HTTP response from the daemon.
pub struct HttpResponse {
    /// Status code (200, 400, …).
    pub code: u16,
    /// Lower-cased header map.
    pub headers: HashMap<String, String>,
    /// Response body bytes.
    pub body: Vec<u8>,
}

/// One-shot HTTP request over a fresh connection — the tiny client used
/// by `memx submit`, the test battery, and the bench harness.
///
/// # Errors
///
/// Any transport failure (connect, write, read, malformed status line).
pub fn http_request(addr: &str, method: &str, path: &str, body: &[u8]) -> io::Result<HttpResponse> {
    let sock_addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "bad address"))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, IO_TIMEOUT)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let code: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line: {status_line:?}"),
            )
        })?;
    let mut headers = HashMap::new();
    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().ok();
            }
            headers.insert(name, value);
        }
    }
    let body = match content_length {
        Some(n) => {
            let mut buf = vec![0u8; n];
            reader.read_exact(&mut buf)?;
            buf
        }
        None => {
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf)?;
            buf
        }
    };
    Ok(HttpResponse {
        code,
        headers,
        body,
    })
}

/// Polls `GET /v1/health` until the daemon answers 200 or the budget runs
/// out. Used by `memx submit --wait-health` and the CI smoke job to avoid
/// racing the daemon's startup.
pub fn wait_health(addr: &str, budget: Duration) -> bool {
    // A budget past the end of representable time never runs out.
    let deadline = Instant::now().checked_add(budget);
    loop {
        if let Ok(r) = http_request(addr, "GET", "/v1/health", b"") {
            if r.code == 200 {
                return true;
            }
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return false;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
}

// ---------------------------------------------------------------------------
// Signals (binary path only)
// ---------------------------------------------------------------------------

static SIGNAL_FLAG: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SIGNAL_FLAG.store(true, Ordering::SeqCst);
}

/// Installs SIGTERM/SIGINT handlers that request a graceful shutdown.
/// Called only from the `memx serve` binary path — the in-process
/// [`Server`] used by tests never touches process-wide signal state.
pub fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    // SAFETY: `signal` with an async-signal-safe handler (one relaxed
    // atomic store) is the POSIX-sanctioned std-only way to observe
    // SIGTERM (15) and SIGINT (2).
    unsafe {
        signal(15, on_signal);
        signal(2, on_signal);
    }
}

/// True once SIGTERM or SIGINT has been delivered.
pub fn signal_received() -> bool {
    SIGNAL_FLAG.load(Ordering::SeqCst)
}

// ---------------------------------------------------------------------------
// memx submit
// ---------------------------------------------------------------------------

/// The `memx submit` request: the job and how to deliver it.
#[derive(Clone, PartialEq, Debug)]
pub struct SubmitRequest {
    /// Daemon address (`HOST:PORT`).
    pub addr: String,
    /// Workload file path (read locally, sent inline): `.mx` kernel
    /// text, or a `.din` trace submitted as a streamed trace job.
    pub file: String,
    /// Job kind (`--job`).
    pub job: JobKind,
    /// The job's knobs; the ones given on the command line are sent.
    pub knobs: Knobs,
    /// Poll health for up to this many seconds before submitting.
    pub wait_health_secs: Option<f64>,
    /// Retry transient transport failures this many times (`--retries`).
    pub retries: u32,
    /// Base backoff between retries, milliseconds (`--backoff`);
    /// exponential with deterministic jitter.
    pub backoff_ms: u64,
}

impl SubmitRequest {
    /// Renders the `POST /v1/jobs` body. Every knob given on the command
    /// line is sent, so a flag that does not apply to the chosen job kind
    /// surfaces as the daemon's typed 400 instead of being silently
    /// dropped. `workload_key` is `"kernel"` for `.mx` files and
    /// `"trace"` for `.din` files.
    pub(crate) fn body(&self, workload_key: &str, workload_text: &str) -> String {
        let mut b = String::from("{\"command\":");
        push_json_str(&mut b, self.job.as_str());
        b.push_str(",\"");
        b.push_str(workload_key);
        b.push_str("\":");
        push_json_str(&mut b, workload_text);
        self.knobs.write_json(&mut b, |k| self.knobs.given(k.id));
        b.push('}');
        b
    }
}

/// Runs `memx submit`: reads the kernel, posts the job, and relays the
/// daemon's response following the CLI exit-code contract — transport
/// failures and 400s are exit 2 (bad input / I/O), daemon-side runtime
/// failures (422/500) are exit 1.
///
/// # Errors
///
/// [`RunError`] per the contract above.
pub fn submit(req: &SubmitRequest) -> Result<Output, RunError> {
    let workload_text = std::fs::read_to_string(&req.file)
        .map_err(|e| RunError::Io(format!("cannot read `{}`: {e}", req.file)))?;
    let is_trace = commands::is_din_path(&req.file);
    if !is_trace {
        // Fail on an unparsable kernel locally — no point shipping it.
        parse_kernel(&workload_text)
            .map_err(|e| RunError::Other(format!("{}: {e}", req.file).into()))?;
    }
    if let Some(budget) = req.wait_health_secs {
        if !wait_health(&req.addr, Duration::from_secs_f64(budget)) {
            return Err(RunError::Io(format!(
                "daemon at {} did not become healthy within {budget} s",
                req.addr
            )));
        }
    }
    let body = req.body(if is_trace { "trace" } else { "kernel" }, &workload_text);
    let mut notes = String::new();
    let response = submit_with_retry(req, body.as_bytes(), &mut notes)?;
    let text = String::from_utf8_lossy(&response.body);
    let json = parse_json(&text)
        .map_err(|e| RunError::Other(format!("malformed daemon response: {e}").into()))?;
    if response.code != 200 {
        let msg = json
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("daemon error")
            .to_string();
        return Err(match response.code {
            400 => RunError::Io(format!("daemon rejected the job: {msg}")),
            code => RunError::Other(format!("job failed ({code}): {msg}").into()),
        });
    }
    let stdout = json
        .get("stdout")
        .and_then(Json::as_str)
        .unwrap_or_default()
        .to_string();
    let mut stderr = notes;
    stderr.push_str(
        json.get("stderr")
            .and_then(Json::as_str)
            .unwrap_or_default(),
    );
    let status = json.get("status").and_then(Json::as_str).unwrap_or("?");
    let disposition = response
        .headers
        .get("x-memx-cache")
        .map_or("?", String::as_str);
    let key = json.get("key").and_then(Json::as_str).unwrap_or("?");
    use std::fmt::Write as _;
    let _ = writeln!(
        stderr,
        "note: cache {disposition}, status {status}, key {key}"
    );
    Ok(Output { stdout, stderr })
}

/// True for transport failures worth retrying: the daemon is not up yet,
/// dropped the connection, or the socket timed out. A DNS failure or a
/// refused *response* (HTTP-level error) is not transient.
fn transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
    )
}

/// Posts the job, retrying transient transport failures up to
/// `req.retries` times with exponential backoff plus deterministic
/// jitter (the same [`memexplore::backoff_delay`] schedule the shard
/// coordinator uses). Each retry leaves a note for the final stderr.
fn submit_with_retry(
    req: &SubmitRequest,
    body: &[u8],
    notes: &mut String,
) -> Result<HttpResponse, RunError> {
    use std::fmt::Write as _;
    let mut attempt: u32 = 0;
    loop {
        match http_request(&req.addr, "POST", "/v1/jobs", body) {
            Ok(response) => return Ok(response),
            Err(e) if attempt < req.retries && transient(&e) => {
                attempt += 1;
                let delay = memexplore::backoff_delay(
                    Duration::from_millis(req.backoff_ms.max(1)),
                    0x6d65_6d78,
                    0,
                    attempt,
                );
                let _ = writeln!(
                    notes,
                    "note: retrying after transport error ({e}); attempt {attempt} of {}, \
                     backoff {} ms",
                    req.retries,
                    delay.as_millis()
                );
                std::thread::sleep(delay);
            }
            Err(e) => {
                return Err(RunError::Io(if attempt > 0 {
                    format!(
                        "cannot reach daemon at {} after {} attempts: {e}",
                        req.addr,
                        attempt + 1
                    )
                } else {
                    format!("cannot reach daemon at {}: {e}", req.addr)
                }));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compress_text() -> String {
        "kernel Compress\narray a[32][32] elem 4\nfor i = 1 .. 31\nfor j = 1 .. 31\n  \
         read a[i][j]\n  read a[i-1][j]\n  read a[i][j-1]\n  read a[i-1][j-1]\n  write a[i][j]\n"
            .to_string()
    }

    fn explore_spec(extra: &str) -> JobSpec {
        let mut body = String::from("{\"command\":\"explore\",\"kernel\":");
        push_json_str(&mut body, &compress_text());
        body.push_str(extra);
        body.push('}');
        JobSpec::from_json(&parse_json(&body).expect("valid JSON")).expect("valid spec")
    }

    #[test]
    fn defaults_hash_like_explicit_defaults() {
        let implicit = explore_spec("");
        let explicit = explore_spec(
            ",\"part\":\"cy7c\",\"natural\":false,\"engine\":\"fused\",\
             \"analytical\":false,\"pareto\":false",
        );
        assert_eq!(implicit.cache_key(), explicit.cache_key());
    }

    #[test]
    fn kernel_formatting_does_not_change_the_key() {
        let a = explore_spec("");
        let mut body = String::from("{\"command\":\"explore\",\"kernel\":");
        // Same kernel, different whitespace and a comment.
        push_json_str(
            &mut body,
            "# compress kernel\nkernel Compress\narray a[32][32] elem 4\nfor i = 1 .. 31\n\
             for j = 1 .. 31\n    read  a[i][j]\n    read a[i-1][j]\n    read a[i][j-1]\n    \
             read a[i-1][j-1]\n    write  a[i][j]\n",
        );
        body.push('}');
        let b = JobSpec::from_json(&parse_json(&body).expect("valid")).expect("valid spec");
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn deadline_is_not_part_of_the_key() {
        let a = explore_spec("");
        let b = explore_spec(",\"deadline_secs\":5.0");
        assert_eq!(a.cache_key(), b.cache_key());
    }

    #[test]
    fn each_knob_perturbs_the_key() {
        let base = explore_spec("");
        for extra in [
            ",\"part\":\"lp2m\"",
            ",\"em_nj\":3.5",
            ",\"natural\":true",
            ",\"engine\":\"per-design\"",
            ",\"analytical\":true",
            ",\"bound_cycles\":10000",
            ",\"bound_energy\":50000",
            ",\"pareto\":true",
        ] {
            let varied = explore_spec(extra);
            assert_ne!(base.cache_key(), varied.cache_key(), "{extra}");
        }
    }

    #[test]
    fn commands_never_share_keys() {
        let kernel = compress_text();
        let spec_of = |cmd: &str| {
            let mut body = format!("{{\"command\":\"{cmd}\",\"kernel\":");
            push_json_str(&mut body, &kernel);
            body.push('}');
            JobSpec::from_json(&parse_json(&body).expect("valid")).expect("valid spec")
        };
        let keys = [
            spec_of("explore").cache_key(),
            spec_of("pareto").cache_key(),
            spec_of("search").cache_key(),
        ];
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert_ne!(keys[1], keys[2]);
    }

    #[test]
    fn unknown_fields_are_rejected_per_command() {
        let mut body = String::from("{\"command\":\"explore\",\"kernel\":");
        push_json_str(&mut body, &compress_text());
        body.push_str(",\"exhaustive\":true}");
        let e = JobSpec::from_json(&parse_json(&body).expect("valid")).expect_err("must reject");
        assert!(e.0.contains("exhaustive"), "{e}");
        // ... and a field that is valid nowhere.
        let mut body = String::from("{\"command\":\"search\",\"kernel\":");
        push_json_str(&mut body, &compress_text());
        body.push_str(",\"turbo\":1}");
        let e = JobSpec::from_json(&parse_json(&body).expect("valid")).expect_err("must reject");
        assert!(e.0.contains("turbo"), "{e}");
    }

    #[test]
    fn missing_command_or_kernel_is_rejected() {
        let e = JobSpec::from_json(&parse_json("{}").expect("valid")).expect_err("no command");
        assert!(e.0.contains("command"), "{e}");
        let e = JobSpec::from_json(&parse_json("{\"command\":\"explore\"}").expect("valid"))
            .expect_err("no kernel");
        assert!(e.0.contains("kernel"), "{e}");
    }

    #[test]
    fn bad_kernel_text_is_rejected() {
        let e = JobSpec::from_json(
            &parse_json("{\"command\":\"explore\",\"kernel\":\"not a kernel\"}").expect("valid"),
        )
        .expect_err("bad kernel");
        assert!(e.0.contains("bad kernel"), "{e}");
    }

    fn trace_spec(cmd: &str, din_text: &str, extra: &str) -> Result<JobSpec, BadRequest> {
        let mut body = format!("{{\"command\":\"{cmd}\",\"trace\":");
        push_json_str(&mut body, din_text);
        body.push_str(extra);
        body.push('}');
        JobSpec::from_json(&parse_json(&body).expect("valid JSON"))
    }

    #[test]
    fn trace_jobs_key_by_content_not_spelling() {
        // Same four events, different address spellings and labels order —
        // the streaming fingerprint erases the text differences.
        let a = trace_spec("explore", "0 0\n1 4\n0 8\n2 c\n", "").expect("valid spec");
        let b = trace_spec("explore", "0 0x0\n1 0x4\n0 08\n2 0xc\n", "").expect("valid spec");
        assert_eq!(a.cache_key(), b.cache_key());
        // A different event stream must change the key.
        let c = trace_spec("explore", "0 0\n1 4\n0 8\n2 10\n", "").expect("valid spec");
        assert_ne!(a.cache_key(), c.cache_key());
        // And the key never collides with any kernel job's.
        assert_ne!(a.cache_key(), explore_spec("").cache_key());
    }

    #[test]
    fn trace_jobs_reject_kernel_shaped_knobs() {
        for (cmd, extra) in [
            ("explore", ",\"analytical\":true"),
            ("explore", ",\"engine\":\"per-design\""),
            ("pareto", ",\"exhaustive\":true"),
            ("search", ",\"space\":\"expansive\""),
            ("search", ",\"beam\":4"),
            ("search", ",\"gap\":0.1"),
        ] {
            let e = trace_spec(cmd, "0 0\n", extra).expect_err("must reject");
            assert!(e.0.contains("needs a kernel workload"), "{cmd}{extra}: {e}");
        }
        // Bounds, part, format, deadline stay valid for trace jobs.
        trace_spec("explore", "0 0\n", ",\"bound_cycles\":100,\"pareto\":true").expect("valid");
        trace_spec(
            "search",
            "0 0\n",
            ",\"objective\":\"cycles\",\"format\":\"json\"",
        )
        .expect("valid");
    }

    #[test]
    fn kernel_and_trace_are_mutually_exclusive() {
        let mut body = String::from("{\"command\":\"explore\",\"kernel\":");
        push_json_str(&mut body, &compress_text());
        body.push_str(",\"trace\":\"0 0\\n\"}");
        let e = JobSpec::from_json(&parse_json(&body).expect("valid")).expect_err("must reject");
        assert!(e.0.contains("mutually exclusive"), "{e}");
        let e = trace_spec("explore", "not a trace", "").expect_err("bad trace");
        assert!(e.0.contains("bad trace"), "{e}");
    }

    #[test]
    fn knob_values_that_used_to_panic_are_a_400() {
        let server = Server::start(ServeConfig::default()).expect("bind ephemeral port");
        let addr = server.addr().to_string();
        for (extra, message) in [
            (
                ",\"deadline_secs\":1e30",
                "field `deadline_secs` must be a positive number of seconds",
            ),
            (
                ",\"em_nj\":-1",
                "field `em_nj` must be a positive finite number",
            ),
        ] {
            let mut body = String::from("{\"command\":\"explore\",\"kernel\":");
            push_json_str(&mut body, &compress_text());
            body.push_str(extra);
            body.push('}');
            let e = JobSpec::from_json(&parse_json(&body).expect("valid")).expect_err(extra);
            assert_eq!(e.0, message);
            let response = http_request(&addr, "POST", "/v1/jobs", body.as_bytes()).expect("up");
            assert_eq!(response.code, 400, "{extra}");
            let json = parse_json(&String::from_utf8_lossy(&response.body)).expect("JSON");
            assert_eq!(json.get("error").and_then(Json::as_str), Some(message));
        }
        server.request_shutdown();
        server.join();
    }

    #[test]
    fn panic_payloads_keep_their_message() {
        let payload = catch_unwind(|| panic!("boom")).expect_err("the closure panics");
        assert_eq!(panic_message(payload), "boom");
        let payload = catch_unwind(|| panic!("{} {}", "formatted", 7)).expect_err("panics");
        assert_eq!(panic_message(payload), "formatted 7");
    }

    #[test]
    fn fair_gate_admits_in_fifo_order() {
        type Task = (usize, SyncSender<()>);
        let queue: Arc<SlotQueue<Task>> = Arc::new(SlotQueue::new());
        let order = Arc::new(Mutex::new(Vec::new()));
        // Hold the only slot so the submitters below must queue.
        let (held, _) = mpsc::sync_channel(1);
        assert_eq!(queue.push((usize::MAX, held)), Some(0));
        assert!(queue.pop().is_some());
        let mut handles = Vec::new();
        for i in 0..4 {
            let submit_queue = Arc::clone(&queue);
            handles.push(std::thread::spawn(move || {
                let (reply, answer) = mpsc::sync_channel(1);
                submit_queue.push((i, reply)).expect("queue is open");
                answer.recv().expect("the slot answers");
            }));
            // Give each thread time to enqueue before the next, so the
            // arrival order matches the spawn order.
            while queue.depth().0 < i as u64 + 1 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        // Release the held slot to one slot thread, as `slot_loop` runs.
        queue.finish();
        let slot_queue = Arc::clone(&queue);
        let slot_order = Arc::clone(&order);
        let slot = std::thread::spawn(move || {
            while let Some((i, reply)) = slot_queue.pop() {
                slot_order.lock().unwrap().push(i);
                slot_queue.finish();
                let _ = reply.send(());
            }
        });
        for h in handles {
            h.join().unwrap();
        }
        queue.close();
        slot.join().unwrap();
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn gate_depth_tracks_waiting_and_active() {
        let queue = SlotQueue::new();
        queue.push(0);
        queue.push(1);
        queue.pop();
        queue.pop();
        assert_eq!(queue.depth(), (0, 2));
        queue.finish();
        assert_eq!(queue.depth(), (0, 1));
        queue.finish();
        assert_eq!(queue.depth(), (0, 0));
    }
}
