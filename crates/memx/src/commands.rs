//! Command implementations: each returns its report as an [`Output`]
//! split by stream (records on stdout, human notes on stderr).

use crate::cli::{Command, ObsFlags, Supervise, USAGE};
use crate::knobs::{Id, JobKind, Knobs};
use crate::serve::{JobInput, JobSpec};
use analysis::classes::{partition_cases, partition_classes};
use analysis::min_cache::MinCacheReport;
use analysis::placement::optimize_layout;
use energy::SramPart;
use loopir::parse::parse_kernel;
use loopir::{AccessKind, ArrayId, DataLayout, Kernel, TraceGen};
use memexplore::metrics::read_trace;
use memexplore::{
    select, CacheDesign, CheckpointPolicy, DesignSpace, Engine, Evaluator, ExploreError, Explorer,
    FaultPlan, Objective, Obs, ObsConfig, ObsSink, PlacementMode, Record, RunReport, SearchOptions,
    SearchOutcome, SweepOptions, SweepOutcome, SweepTelemetry, TraceError,
};
use memsim::din::{write_din, DinLabel, DinRecord};
use memsim::{
    BusEncoding, CacheConfig, DinSource, Simulator, TraceEvent, TraceSource, TraceSourceError,
    DEFAULT_CHUNK_CAPACITY,
};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A command's result, split by stream. `stdout` carries the
/// machine-readable records/report; `stderr` carries human-facing notes
/// (telemetry summaries, resume/deadline warnings), so piped stdout stays
/// clean CSV/JSON even with `--telemetry`.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Output {
    /// Machine-readable command output.
    pub stdout: String,
    /// Human-facing notes and summaries.
    pub stderr: String,
}

impl Output {
    fn stdout_only(stdout: String) -> Self {
        Output {
            stdout,
            stderr: String::new(),
        }
    }
}

/// A failed command, classified by the exit-code contract: invalid CLI
/// input is exit 2 (handled by the parser), I/O failures and invalid
/// cache geometry are also exit 2, every other runtime failure is exit 1.
#[derive(Debug)]
pub enum RunError {
    /// Filesystem problem (unreadable input, unwritable or corrupt
    /// checkpoint) — one line on stderr, exit code 2.
    Io(String),
    /// Invalid cache geometry (non-power-of-two size/line/assoc, line
    /// larger than cache, more ways than lines). The simulator's
    /// shift-based address math would silently mis-index with such a
    /// geometry, so it dies at the boundary: exit code 2 offline, HTTP
    /// 400 on `memx serve`.
    Geometry(String),
    /// Any other runtime failure — exit code 1.
    Other(Box<dyn Error + Send + Sync>),
}

impl RunError {
    /// The process exit code this error maps to.
    pub fn exit_code(&self) -> u8 {
        match self {
            Self::Io(_) | Self::Geometry(_) => 2,
            Self::Other(_) => 1,
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(msg) | Self::Geometry(msg) => write!(f, "{msg}"),
            Self::Other(e) => write!(f, "{e}"),
        }
    }
}

impl Error for RunError {}

impl From<Box<dyn Error + Send + Sync>> for RunError {
    fn from(e: Box<dyn Error + Send + Sync>) -> Self {
        Self::Other(e)
    }
}

impl From<String> for RunError {
    fn from(e: String) -> Self {
        Self::Other(e.into())
    }
}

/// Executes a parsed command, reading kernel files from disk.
///
/// # Errors
///
/// [`RunError`] carrying the message and the exit code: I/O failures map
/// to exit 2 (like invalid CLI input), everything else to exit 1.
pub fn run(cmd: Command) -> Result<Output, RunError> {
    match cmd {
        Command::Help => Ok(Output::stdout_only(USAGE.to_string())),
        cmd @ (Command::Explore { .. } | Command::Pareto { .. } | Command::Search { .. }) => {
            let (spec, ctx) = cli_job(cmd)?;
            run_job(&spec, &ctx).map(|(out, _)| out)
        }
        Command::Sweep {
            file,
            knobs,
            telemetry,
            distributed,
            shards,
            attach,
            shard_dir,
            retry_budget,
            backoff_ms,
            straggler_ms,
            obs,
        } => {
            let spec = JobSpec {
                kind: JobKind::Explore,
                input: JobInput::load(&file)?,
                knobs,
            };
            let ctx = RunCtx {
                telemetry,
                obs,
                ..RunCtx::default()
            };
            let coordinator = crate::sweep::SweepRequest {
                file,
                distributed,
                shards,
                attach,
                shard_dir,
                retry_budget,
                backoff_ms,
                straggler_ms,
            };
            crate::sweep::sweep(&spec, &ctx, &coordinator)
        }
        Command::Worker {
            file,
            knobs,
            supervise,
        } => {
            let spec = JobSpec {
                kind: JobKind::Shard,
                input: JobInput::load(&file)?,
                knobs,
            };
            let checkpoint = CheckpointPolicy {
                path: PathBuf::from(supervise.checkpoint.unwrap_or_default()),
                every: match supervise.checkpoint_every {
                    0 => 32,
                    n => n,
                },
                resume: supervise.resume,
            };
            crate::sweep::worker(&spec, &file, checkpoint)
        }
        Command::Serve {
            addr,
            slots,
            cache_entries,
            cache_bytes,
            default_deadline,
            distribute,
            obs,
        } => {
            let obs_hub = build_obs(&obs)?;
            let server = crate::serve::Server::start(crate::serve::ServeConfig {
                addr: addr.clone(),
                slots,
                cache_entries,
                cache_bytes,
                default_deadline,
                distribute,
                obs: obs_hub,
            })
            .map_err(|e| RunError::Io(format!("cannot listen on `{addr}`: {e}")))?;
            // The listening line goes out before blocking (the CI smoke
            // job and scripts wait for it), so print directly rather than
            // through the deferred `Output`.
            println!(
                "memx serve listening on {} ({} job slot(s), cache {} entries / {} B)",
                server.addr(),
                if slots == 0 {
                    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
                } else {
                    slots
                },
                cache_entries,
                cache_bytes
            );
            let _ = std::io::Write::flush(&mut std::io::stdout());
            crate::serve::install_signal_handlers();
            while !crate::serve::signal_received() && !server.is_stopped() {
                std::thread::sleep(Duration::from_millis(50));
            }
            server.request_shutdown();
            server.join();
            Ok(Output {
                stdout: String::new(),
                stderr: "memx serve: shut down cleanly\n".to_string(),
            })
        }
        Command::Submit(request) => crate::serve::submit(&request),
        Command::Report { file } => report(&file),
        Command::Simulate {
            file,
            cache,
            line,
            assoc,
            tiling,
            natural,
            classify,
        } => {
            let kernel = load(&file)?;
            Ok(Output::stdout_only(simulate(
                &kernel, cache, line, assoc, tiling, natural, classify,
            )?))
        }
        Command::Place { file, cache, line } => {
            let kernel = load(&file)?;
            Ok(Output::stdout_only(place(&kernel, cache, line)?))
        }
        Command::MinCache { file, line } => {
            let kernel = load(&file)?;
            Ok(Output::stdout_only(min_cache(&kernel, line)?))
        }
        Command::Classes { file } => {
            let kernel = load(&file)?;
            Ok(Output::stdout_only(classes(&kernel)))
        }
        Command::Trace { file, reads_only } => {
            let kernel = load(&file)?;
            Ok(Output::stdout_only(trace(&kernel, reads_only)?))
        }
        Command::SimulateDin {
            file,
            cache,
            line,
            assoc,
            classify,
            format,
        } => Ok(Output::stdout_only(simulate_din(
            &file, cache, line, assoc, classify, &format,
        )?)),
    }
}

/// Renders the `memx report` summary from a `--log-json` event log.
fn report(path: &str) -> Result<Output, RunError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| RunError::Io(format!("cannot read `{path}`: {e}")))?;
    let report =
        RunReport::from_jsonl(&text).map_err(|e| RunError::Other(format!("{path}: {e}").into()))?;
    Ok(Output::stdout_only(report.to_string()))
}

/// Builds the observability hub from the CLI flags; `None` when both are
/// off, so the sweep path stays untouched (bit-identical output).
pub(crate) fn build_obs(flags: &ObsFlags) -> Result<Option<Arc<Obs>>, RunError> {
    if !flags.is_active() {
        return Ok(None);
    }
    let config = ObsConfig {
        log: flags
            .log_json
            .as_ref()
            .map(|p| ObsSink::Path(PathBuf::from(p))),
        progress: flags.progress,
        run_id: None,
    };
    Obs::new(config).map(Some).map_err(|e| {
        RunError::Io(format!(
            "cannot write event log `{}`: {e}",
            flags.log_json.as_deref().unwrap_or("<none>")
        ))
    })
}

/// Maps a streaming-source failure onto the exit-code contract: both an
/// unreadable file and a malformed record make the workload unusable, so
/// both are input failures (exit 2, like an unreadable kernel file).
fn source_error(e: TraceSourceError) -> RunError {
    match e {
        TraceSourceError::Io { path, error } => {
            RunError::Io(format!("cannot read `{path}`: {error}"))
        }
        parse @ TraceSourceError::Parse { .. } => RunError::Io(parse.to_string()),
    }
}

/// [`source_error`] lifted to whole streamed sweeps: checkpoint sidecar
/// failures follow the kernel supervisor's I/O discipline, worker panics
/// stay runtime failures (exit 1).
pub(crate) fn trace_error(e: TraceError) -> RunError {
    match e {
        TraceError::Source(e) => source_error(e),
        TraceError::Checkpoint(c) => RunError::Io(c.to_string()),
        panic @ TraceError::WorkerPanic { .. } => RunError::Other(panic.to_string().into()),
    }
}

/// A failed kernel run: checkpoint sidecar failures are I/O errors (exit
/// 2); a failed placement or a worker panic that escapes quarantine is a
/// runtime failure (exit 1).
pub(crate) fn explore_error(e: ExploreError) -> RunError {
    match e {
        ExploreError::Checkpoint(c) => RunError::Io(c.to_string()),
        other => RunError::Other(other.to_string().into()),
    }
}

/// True when the workload argument names a Dinero trace rather than a
/// kernel file — the sweep commands stream it instead of parsing loopir.
pub(crate) fn is_din_path(path: &str) -> bool {
    Path::new(path)
        .extension()
        .is_some_and(|e| e.eq_ignore_ascii_case("din"))
}

/// Validates cache geometry at the CLI/parse boundary. Everything
/// downstream (simulator lanes, the analytic fast path) assumes
/// power-of-two line and set counts for its shift-based address math, so
/// a bad geometry must die here with a typed exit-2 error — never reach
/// the sweep and return a silently wrong answer.
pub(crate) fn validate_geometry(
    cache: usize,
    line: usize,
    assoc: usize,
) -> Result<CacheConfig, RunError> {
    CacheConfig::new(cache, line, assoc)
        .map_err(|e| RunError::Geometry(format!("invalid cache geometry: {e}")))
}

fn simulate_din(
    path: &str,
    cache: usize,
    line: usize,
    assoc: usize,
    classify: bool,
    format: &str,
) -> Result<String, RunError> {
    let config = validate_geometry(cache, line, assoc)?;
    // Streamed: the trace is pulled through in fixed-capacity chunks, so
    // peak memory is one chunk however large the file is. Chunked feeding
    // is bit-identical to a whole-trace scan (lane state persists across
    // `feed` calls).
    let mut source = DinSource::open(path).map_err(source_error)?;
    let mut sim = Simulator::with_options(config, BusEncoding::Gray, classify);
    let mut chunk: Vec<TraceEvent> = Vec::with_capacity(DEFAULT_CHUNK_CAPACITY);
    let mut records = 0u64;
    loop {
        let n = source
            .fill(&mut chunk, DEFAULT_CHUNK_CAPACITY)
            .map_err(source_error)?;
        if n == 0 {
            break;
        }
        records += n as u64;
        sim.feed(&chunk);
    }
    let report = sim.finish();
    let stats = &report.stats;
    let mut out = String::new();
    match format {
        "csv" => {
            let mut header = String::from(
                "records,reads,read_hits,writes,write_hits,fills,evictions,writebacks,\
                 buffer_hits,miss_rate",
            );
            let mut row = format!(
                "{records},{},{},{},{},{},{},{},{},{:.6}",
                stats.reads,
                stats.read_hits,
                stats.writes,
                stats.write_hits,
                stats.fills,
                stats.evictions,
                stats.writebacks,
                stats.buffer_hits,
                stats.miss_rate()
            );
            if let Some(c) = &report.miss_classes {
                header.push_str(",compulsory,capacity,conflict");
                let _ = write!(row, ",{},{},{}", c.compulsory, c.capacity, c.conflict);
            }
            let _ = writeln!(out, "{header}");
            let _ = writeln!(out, "{row}");
        }
        "json" => {
            let _ = writeln!(out, "{{");
            let _ = writeln!(out, "  \"trace\": \"{path}\",");
            let _ = writeln!(out, "  \"config\": \"{config}\",");
            let _ = writeln!(out, "  \"records\": {records},");
            let _ = writeln!(out, "  \"reads\": {},", stats.reads);
            let _ = writeln!(out, "  \"read_hits\": {},", stats.read_hits);
            let _ = writeln!(out, "  \"writes\": {},", stats.writes);
            let _ = writeln!(out, "  \"write_hits\": {},", stats.write_hits);
            let _ = writeln!(out, "  \"fills\": {},", stats.fills);
            let _ = writeln!(out, "  \"evictions\": {},", stats.evictions);
            let _ = writeln!(out, "  \"writebacks\": {},", stats.writebacks);
            let _ = writeln!(out, "  \"buffer_hits\": {},", stats.buffer_hits);
            match &report.miss_classes {
                Some(c) => {
                    let _ = writeln!(out, "  \"miss_rate\": {:.6},", stats.miss_rate());
                    let _ = writeln!(
                        out,
                        "  \"miss_classes\": {{\"compulsory\":{},\"capacity\":{},\"conflict\":{}}}",
                        c.compulsory, c.capacity, c.conflict
                    );
                }
                None => {
                    let _ = writeln!(out, "  \"miss_rate\": {:.6}", stats.miss_rate());
                }
            }
            let _ = writeln!(out, "}}");
        }
        _ => {
            let _ = writeln!(out, "{records} records from {path} on {config}");
            let _ = writeln!(out, "{stats}");
            if let Some(c) = &report.miss_classes {
                let _ = writeln!(
                    out,
                    "miss classes: compulsory {}  capacity {}  conflict {}",
                    c.compulsory, c.capacity, c.conflict
                );
            }
        }
    }
    Ok(out)
}

/// Maps the validated `--engine` keyword to the sweep engine (the parser
/// only lets `fused` and `per-design` through).
pub(crate) fn engine_kind(engine: &str) -> Engine {
    match engine {
        "per-design" => Engine::PerDesign,
        _ => Engine::Fused,
    }
}

/// Builds a job's evaluator: off-chip part from the keyword (or a custom
/// `Em`), optionally with natural layout.
pub(crate) fn make_evaluator(knobs: &Knobs) -> Evaluator {
    let part = match knobs.num(Id::Em) {
        Some(em) => SramPart::custom(format!("custom (Em = {em} nJ)"), em),
        None => match knobs.word(Id::Part) {
            "lp2m" => SramPart::low_power_2mbit(),
            "16m" => SramPart::sram_16mbit(),
            _ => SramPart::cy7c_2mbit(),
        },
    };
    let mut evaluator = Evaluator::with_part(part);
    if knobs.on(Id::Natural) {
        evaluator.placement = PlacementMode::Natural;
    }
    evaluator
}

pub(crate) fn load(path: &str) -> Result<Kernel, RunError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| RunError::Io(format!("cannot read `{path}`: {e}")))?;
    parse_kernel(&text).map_err(|e| RunError::Other(format!("{path}: {e}").into()))
}

/// Analytic feasibility gate shared by the sweep and search commands: if
/// the §3 minimum conflict-free cache for a design's line size exceeds
/// its cache size for *every* design in the grid, no configuration can
/// approach the compulsory floor and the run cannot say anything useful —
/// that is a typed input error (exit 1), not an empty result stream.
fn check_feasibility<I: Iterator<Item = (usize, usize)>>(
    kernel: &Kernel,
    mut grid: I,
) -> Result<(), RunError> {
    let mut memo: HashMap<usize, u64> = HashMap::new();
    let mut smallest_bound = u64::MAX;
    let mut any = false;
    // `all` short-circuits on the first feasible design.
    let all_infeasible = grid.all(|(t, l)| {
        any = true;
        let bound = *memo
            .entry(l)
            .or_insert_with(|| MinCacheReport::analyze(kernel, l as u64).min_pow2_cache_bytes());
        smallest_bound = smallest_bound.min(bound);
        (t as u64) < bound
    });
    if any && all_infeasible {
        return Err(RunError::Other(
            format!(
                "design grid for kernel {} is infeasible: every cache size is below the \
                 kernel's minimum conflict-free cache ({smallest_bound} B at the best line \
                 size); see `memx min-cache`",
                kernel.name
            )
            .into(),
        ));
    }
    Ok(())
}

/// Pre-sweep validation (satellite guard against silently useless runs):
/// an empty design grid is an error; an analytically all-infeasible grid
/// is an error; tilings larger than every loop's trip count are flagged
/// as warnings (they degenerate to untiled runs).
pub(crate) fn check_sweep_inputs(
    kernel: &Kernel,
    designs: &[CacheDesign],
    stderr: &mut String,
) -> Result<(), RunError> {
    if designs.is_empty() {
        return Err(RunError::Other(
            format!(
                "design grid for kernel {} is empty: nothing to sweep",
                kernel.name
            )
            .into(),
        ));
    }
    // Geometry first: a non-power-of-two line or set count would silently
    // mis-index in the shift-based simulator, so it must die here.
    if let Some((design, e)) = designs
        .iter()
        .find_map(|d| d.cache_config().err().map(|e| (d, e)))
    {
        return Err(RunError::Geometry(format!(
            "invalid cache geometry in design grid: {design}: {e}"
        )));
    }
    check_feasibility(kernel, designs.iter().map(|d| (d.cache_size, d.line)))?;
    let max_trip = kernel
        .nest
        .loops
        .iter()
        .filter_map(|l| l.const_trip_count())
        .max();
    if let Some(max_trip) = max_trip {
        let mut excessive: Vec<u64> = designs
            .iter()
            .map(|d| d.tiling)
            .filter(|&b| b > 1 && b > max_trip)
            .collect();
        excessive.sort_unstable();
        excessive.dedup();
        if !excessive.is_empty() {
            let _ = writeln!(
                stderr,
                "warning: tiling size(s) {excessive:?} exceed the largest loop trip count \
                 ({max_trip}) of kernel {}; they behave as untiled",
                kernel.name
            );
        }
    }
    Ok(())
}

/// [`check_sweep_inputs`] for grids too large to materialize (the
/// expansive search spaces run to 10⁶–10⁷ candidates): the same
/// validations, derived from the grid axes alone.
fn check_space_inputs(
    kernel: &Kernel,
    space: &DesignSpace,
    stderr: &mut String,
) -> Result<(), RunError> {
    if space.design_count() == 0 {
        return Err(RunError::Other(
            format!(
                "design grid for kernel {} is empty: nothing to sweep",
                kernel.name
            )
            .into(),
        ));
    }
    // Geometry first, from the axes alone (the grid is too large to
    // materialize): every size on a power-of-two axis must actually be one.
    for (field, values) in [
        ("cache size", &space.cache_sizes),
        ("line size", &space.line_sizes),
        ("associativity", &space.assocs),
    ] {
        if let Some(&v) = values.iter().find(|&&v| v == 0 || !v.is_power_of_two()) {
            return Err(RunError::Geometry(format!(
                "invalid cache geometry in design space: {field} {v} is not a power of two"
            )));
        }
    }
    // Valid (T, L) pairs that contribute at least one design.
    let pairs = || {
        space.cache_sizes.iter().flat_map(|&t| {
            space.line_sizes.iter().filter_map(move |&l| {
                if l > t || t / l < space.min_lines {
                    return None;
                }
                let lines = (t / l) as u64;
                let has_assoc = space.assocs.iter().any(|&s| s as u64 <= lines);
                let has_tiling = space.tilings.iter().any(|&b| b <= lines);
                (has_assoc && has_tiling).then_some((t, l))
            })
        })
    };
    // Policy limits, also from the axes alone: every replacement policy
    // must fit every geometry it is paired with (tree-PLRU stops at 64
    // ways).
    for (t, l) in pairs() {
        for &s in space.assocs.iter().filter(|&&s| s <= t / l) {
            for &r in &space.replacements {
                let design = CacheDesign::new(t, l, s, 1).with_replacement(r);
                if let Err(e) = design.cache_config() {
                    return Err(RunError::Geometry(format!(
                        "invalid cache geometry in design space: {design}: {e}"
                    )));
                }
            }
        }
    }
    check_feasibility(kernel, pairs())?;
    let max_trip = kernel
        .nest
        .loops
        .iter()
        .filter_map(|l| l.const_trip_count())
        .max();
    if let Some(max_trip) = max_trip {
        let max_lines = pairs().map(|(t, l)| (t / l) as u64).max().unwrap_or(0);
        let mut excessive: Vec<u64> = space
            .tilings
            .iter()
            .copied()
            .filter(|&b| b > 1 && b > max_trip && b <= max_lines)
            .collect();
        excessive.sort_unstable();
        excessive.dedup();
        if !excessive.is_empty() {
            // Expansive grids have hundreds of tilings; keep the warning
            // to one line by summarizing the range.
            let shown = if excessive.len() > 8 {
                format!(
                    "{} tiling sizes in {}..={}",
                    excessive.len(),
                    excessive.first().expect("non-empty"),
                    excessive.last().expect("non-empty")
                )
            } else {
                format!("tiling size(s) {excessive:?}")
            };
            let _ = writeln!(
                stderr,
                "warning: {shown} exceed the largest loop trip count ({max_trip}) of \
                 kernel {}; they behave as untiled",
                kernel.name
            );
        }
    }
    Ok(())
}

/// Probes that the checkpoint sidecar will be writable before a long
/// sweep starts, using the same `.tmp` neighbour the atomic writer uses.
/// An unwritable path is an I/O error (exit 2) up front, not a silent
/// stream of failed flushes an hour in.
fn probe_checkpoint_writable(path: &Path) -> Result<(), RunError> {
    let probe = path.with_extension("tmp");
    std::fs::File::create(&probe)
        .map_err(|e| RunError::Io(format!("cannot write checkpoint `{}`: {e}", path.display())))?;
    let _ = std::fs::remove_file(&probe);
    Ok(())
}

/// Translates the CLI supervisor flags into [`SweepOptions`], probing the
/// checkpoint sidecar up front (an unwritable path is exit 2 before the
/// sweep starts, not a silent stream of failed flushes an hour in).
fn sweep_options(supervise: &Supervise, stderr: &mut String) -> Result<SweepOptions, RunError> {
    let checkpoint = match &supervise.checkpoint {
        Some(path) => {
            let path = PathBuf::from(path);
            if supervise.resume && !path.exists() {
                let _ = writeln!(
                    stderr,
                    "note: checkpoint `{}` not found; starting a fresh sweep",
                    path.display()
                );
            }
            probe_checkpoint_writable(&path)?;
            Some(CheckpointPolicy {
                path,
                every: match supervise.checkpoint_every {
                    0 => 32,
                    n => n,
                },
                resume: supervise.resume,
            })
        }
        None => None,
    };
    Ok(SweepOptions {
        checkpoint,
        deadline: supervise.deadline_secs.map(Duration::from_secs_f64),
        fault: FaultPlan::none(),
    })
}

/// Renders the supervisor's stderr notes — resume count, quarantine
/// warnings, partial-result warning — shared by the kernel and trace
/// sweeps so the two paths stay word-for-word comparable.
fn note_supervised(outcome: &SweepOutcome, total: usize, stderr: &mut String) {
    let t = &outcome.telemetry;
    if t.records_resumed > 0 {
        let _ = writeln!(
            stderr,
            "note: resumed {} of {total} records from the checkpoint",
            t.records_resumed
        );
    }
    for e in &outcome.errors {
        let _ = writeln!(stderr, "warning: {e}");
    }
    if t.cancelled {
        let _ = writeln!(
            stderr,
            "warning: deadline reached; result is partial ({} of {total} designs)",
            t.designs_evaluated
        );
    }
}

/// Per-invocation settings of a job run. None of them is part of the
/// job's identity: they never enter its cache key or its JSON.
pub(crate) struct RunCtx {
    /// Print the sweep's telemetry summary (`--telemetry`).
    pub telemetry: bool,
    /// Let the analytic fast path resolve trace groups (off with
    /// `--no-analytic`).
    pub analytic: bool,
    /// Checkpoint and resume flags; the deadline is the job's own.
    pub supervise: Supervise,
    /// Event log and progress line.
    pub obs: ObsFlags,
    /// Sweep worker threads (`None` = one per core).
    pub workers: Option<usize>,
    /// In-process shard workers for an explore job over a kernel
    /// (`memx serve --distribute`; 0 or 1 = undistributed).
    pub distribute: usize,
}

impl Default for RunCtx {
    fn default() -> Self {
        RunCtx {
            telemetry: false,
            analytic: true,
            supervise: Supervise::default(),
            obs: ObsFlags::default(),
            workers: None,
            distribute: 0,
        }
    }
}

/// The job of an explore, pareto or search command line and its run
/// settings. Each field passes the check of its knob's row, and
/// kernel-only knobs on a `.din` path are refused before the file is
/// read.
fn cli_job(cmd: Command) -> Result<(JobSpec, RunCtx), RunError> {
    let mut k = Knobs::default();
    let (kind, file, ctx) = match cmd {
        Command::Explore {
            file,
            part,
            em_nj,
            natural,
            analytical,
            bound_cycles,
            bound_energy,
            pareto,
            telemetry,
            engine,
            no_analytic,
            supervise,
            obs,
        } => {
            k.put_word(Id::Part, &part)?;
            k.put(Id::Em, em_nj)?;
            k.put(Id::Natural, natural)?;
            k.put(Id::Deadline, supervise.deadline_secs)?;
            k.put(Id::Analytical, analytical)?;
            k.put(Id::BoundCycles, bound_cycles)?;
            k.put(Id::BoundEnergy, bound_energy)?;
            k.put(Id::Pareto, pareto)?;
            k.put_word(Id::Engine, &engine)?;
            let ctx = RunCtx {
                telemetry,
                analytic: !no_analytic,
                supervise,
                obs,
                ..RunCtx::default()
            };
            (JobKind::Explore, file, ctx)
        }
        Command::Pareto {
            file,
            part,
            em_nj,
            natural,
            format,
            exhaustive,
            telemetry,
            engine,
            no_analytic,
            supervise,
            obs,
        } => {
            k.put_word(Id::Part, &part)?;
            k.put(Id::Em, em_nj)?;
            k.put(Id::Natural, natural)?;
            k.put(Id::Deadline, supervise.deadline_secs)?;
            k.put_word(Id::ParetoFormat, &format)?;
            k.put(Id::Exhaustive, exhaustive)?;
            k.put_word(Id::Engine, &engine)?;
            let ctx = RunCtx {
                telemetry,
                analytic: !no_analytic,
                supervise,
                obs,
                ..RunCtx::default()
            };
            (JobKind::Pareto, file, ctx)
        }
        Command::Search {
            file,
            part,
            em_nj,
            natural,
            objective,
            space,
            beam,
            gap,
            deadline_secs,
            format,
            telemetry,
            no_analytic,
            obs,
        } => {
            k.put_word(Id::Part, &part)?;
            k.put(Id::Em, em_nj)?;
            k.put(Id::Natural, natural)?;
            k.put(Id::Deadline, deadline_secs)?;
            k.put(Id::Objective, objective)?;
            k.put_word(Id::Space, &space)?;
            k.put(Id::Beam, beam)?;
            k.put(Id::Gap, gap)?;
            k.put_word(Id::SearchFormat, &format)?;
            let ctx = RunCtx {
                telemetry,
                analytic: !no_analytic,
                obs,
                ..RunCtx::default()
            };
            (JobKind::Search, file, ctx)
        }
        other => unreachable!("{other:?} is not an explore, pareto or search command"),
    };
    if is_din_path(&file) {
        k.refuse_on_trace(kind)?;
    }
    let spec = JobSpec {
        kind,
        input: JobInput::load(&file)?,
        knobs: k,
    };
    Ok((spec, ctx))
}

/// Runs one job: the single runner behind `memx explore|pareto|search`,
/// `memx sweep --distributed 0` and every `memx serve` job. The bool in
/// the result is the cancellation flag (deadline reached → partial
/// output), which keeps partial results out of the daemon's cache.
pub(crate) fn run_job(spec: &JobSpec, ctx: &RunCtx) -> Result<(Output, bool), RunError> {
    let mut stderr = String::new();
    if let JobInput::Trace(_) = spec.input {
        spec.knobs.warn_on_trace(spec.kind, &mut stderr);
    }
    let supervise = Supervise {
        deadline_secs: spec.knobs.num(Id::Deadline),
        ..ctx.supervise.clone()
    };
    let (stdout, cancelled) = match spec.kind {
        JobKind::Explore => explore(spec, ctx, &supervise, &mut stderr)?,
        JobKind::Pareto => pareto(spec, ctx, &supervise, &mut stderr)?,
        JobKind::Search => search(spec, ctx, &supervise, &mut stderr)?,
        JobKind::Shard => (crate::sweep::shard(spec, ctx, &mut stderr)?, false),
    };
    Ok((Output { stdout, stderr }, cancelled))
}

/// The explorer a job sweeps with, and the obs hub to finish once the
/// sweep is done (`None` when `--log-json` and `--progress` are off).
fn job_explorer(spec: &JobSpec, ctx: &RunCtx) -> Result<(Explorer, Option<Arc<Obs>>), RunError> {
    let obs = build_obs(&ctx.obs)?;
    let mut explorer = spec.explorer(ctx.workers).with_analytic(ctx.analytic);
    if let Some(o) = &obs {
        explorer = explorer.with_obs(Arc::clone(o));
    }
    Ok((explorer, obs))
}

/// Sweeps `designs` over `input`. A kernel with no supervisor flag runs
/// the plain sweep; everything else runs under the supervisor, with the
/// flags translated into [`SweepOptions`] and its events into stderr
/// notes (stdout stays byte-identical to an unsupervised run).
fn sweep_job(
    input: &JobInput,
    explorer: &Explorer,
    designs: &[CacheDesign],
    supervise: &Supervise,
    stderr: &mut String,
) -> Result<SweepOutcome, RunError> {
    if let (JobInput::Kernel(kernel), false) = (input, supervise.is_active()) {
        let (records, telemetry) = explorer
            .try_explore_designs_with_telemetry(kernel, designs)
            .map_err(explore_error)?;
        return Ok(SweepOutcome {
            records: records.into_iter().map(Some).collect(),
            errors: Vec::new(),
            telemetry,
        });
    }
    let options = sweep_options(supervise, stderr)?;
    let outcome = input.sweep_supervised(explorer, designs, &options)?;
    note_supervised(&outcome, designs.len(), stderr);
    Ok(outcome)
}

/// `memx explore`: the exhaustive sweep of the input's grid, then the
/// selection lines.
fn explore(
    spec: &JobSpec,
    ctx: &RunCtx,
    supervise: &Supervise,
    stderr: &mut String,
) -> Result<(String, bool), RunError> {
    let designs = spec.input.grid();
    spec.input.check_grid(&designs, stderr)?;
    let analytical = spec.knobs.on(Id::Analytical);
    let (records, sweep) = match &spec.input {
        JobInput::Kernel(kernel) if analytical => {
            if supervise.is_active() {
                let _ = writeln!(
                    stderr,
                    "warning: --checkpoint/--deadline are ignored with --analytical (no sweep runs)"
                );
            }
            if ctx.obs.is_active() {
                let _ = writeln!(
                    stderr,
                    "warning: --log-json/--progress are ignored with --analytical (no sweep runs)"
                );
            }
            let evaluator = make_evaluator(&spec.knobs);
            let records = designs
                .iter()
                .map(|&d| evaluator.evaluate_analytical(kernel, d))
                .collect();
            (records, None)
        }
        // Deadline jobs need the supervisor's cooperative cancellation,
        // so they keep the undistributed path.
        JobInput::Kernel(_) if ctx.distribute >= 2 && supervise.deadline_secs.is_none() => (
            crate::sweep::explore_sharded(spec, ctx, &designs, stderr)?,
            None,
        ),
        input => {
            let (explorer, obs) = job_explorer(spec, ctx)?;
            let outcome = sweep_job(input, &explorer, &designs, supervise, stderr)?;
            if let Some(o) = &obs {
                o.finish();
            }
            (outcome.completed_records(), Some(outcome.telemetry))
        }
    };
    let mut out = spec.input.heading(records.len(), analytical);
    write_selection(&mut out, &records, &spec.knobs);
    // The summary goes to stderr, never into the record stream: with
    // `--telemetry` a piped stdout must stay exactly the records.
    if ctx.telemetry {
        match &sweep {
            Some(t) => {
                let _ = writeln!(stderr, "{t}");
            }
            None => {
                let _ = writeln!(
                    stderr,
                    "telemetry: not available for the analytical model (no traces are simulated)"
                );
            }
        }
    }
    Ok((out, sweep.is_some_and(|t| t.cancelled)))
}

/// Writes the `minimum energy :` / `minimum time   :` / bounded-selection
/// / frontier lines over a completed record set, as an explore job's
/// bound and frontier knobs ask. Shared by every explore path so the
/// round-trip smoke can diff their selections byte-for-byte.
pub(crate) fn write_selection(out: &mut String, records: &[Record], knobs: &Knobs) {
    if let Some(r) = select::min_energy(records) {
        let _ = writeln!(out, "minimum energy : {}", fmt_record(r));
    }
    if let Some(r) = select::min_cycles(records) {
        let _ = writeln!(out, "minimum time   : {}", fmt_record(r));
    }
    if let Some(bound) = knobs.num(Id::BoundCycles) {
        match select::min_energy_bounded(records, bound) {
            Some(r) => {
                let _ = writeln!(out, "min energy @ cycles<={bound:.0} : {}", fmt_record(r));
            }
            None => {
                let _ = writeln!(out, "min energy @ cycles<={bound:.0} : infeasible");
            }
        }
    }
    if let Some(bound) = knobs.num(Id::BoundEnergy) {
        match select::min_cycles_bounded(records, bound) {
            Some(r) => {
                let _ = writeln!(out, "min time @ energy<={bound:.0} nJ : {}", fmt_record(r));
            }
            None => {
                let _ = writeln!(out, "min time @ energy<={bound:.0} nJ : infeasible");
            }
        }
    }
    if knobs.on(Id::Pareto) {
        let _ = writeln!(out, "pareto frontier:");
        for r in select::pareto(records) {
            let _ = writeln!(out, "  {}", fmt_record(r));
        }
    }
}

/// The one-line record format shared by `explore` and `search` stdout,
/// so the two commands' `minimum energy :` / `minimum time   :` lines
/// stay byte-diffable (the CI search smoke job greps exactly that).
pub(crate) fn fmt_record(r: &memexplore::Record) -> String {
    format!(
        "{}  miss rate {:.3}  cycles {:.0}  energy {:.0} nJ",
        r.design, r.miss_rate, r.cycles, r.energy_nj
    )
}

/// `memx search`: the certified bound-guided search over a kernel's
/// grid. The trace grid is small and every design replays the same
/// recorded stream, so over a trace the search is the exhaustive
/// streamed sweep plus exact selection.
fn search(
    spec: &JobSpec,
    ctx: &RunCtx,
    supervise: &Supervise,
    stderr: &mut String,
) -> Result<(String, bool), RunError> {
    let outcome = match &spec.input {
        JobInput::Kernel(kernel) => {
            let space = if spec.knobs.word(Id::Space) == "expansive" {
                DesignSpace::expansive()
            } else {
                DesignSpace::paper()
            };
            check_space_inputs(kernel, &space, stderr)?;
            let (explorer, obs) = job_explorer(spec, ctx)?;
            let options = SearchOptions {
                objective: spec.knobs.objective(),
                beam: spec.knobs.count(Id::Beam),
                gap: spec.knobs.num(Id::Gap).unwrap_or_default(),
                deadline: spec.knobs.num(Id::Deadline).map(Duration::from_secs_f64),
            };
            let outcome = explorer
                .try_search(kernel, &space, &options)
                .map_err(explore_error)?;
            if let Some(o) = &obs {
                o.finish();
            }
            if outcome.cancelled {
                let _ = writeln!(
                    stderr,
                    "warning: deadline reached; result is anytime ({} of {} candidates simulated)",
                    outcome.telemetry.designs_evaluated, outcome.candidates
                );
            }
            outcome
        }
        input => {
            let designs = input.grid();
            let (explorer, obs) = job_explorer(spec, ctx)?;
            let sweep = sweep_job(input, &explorer, &designs, supervise, stderr)?;
            if let Some(o) = &obs {
                o.finish();
            }
            trace_search_outcome(sweep, spec.knobs.objective())
        }
    };
    if ctx.telemetry && spec.knobs.word(Id::SearchFormat) != "json" {
        let _ = writeln!(stderr, "{}", outcome.telemetry);
        if let JobInput::Kernel(_) = spec.input {
            let _ = writeln!(
                stderr,
                "search: {} expansions, {} beam-discarded, certified gap {:.6}",
                outcome.expansions,
                outcome.beam_discarded,
                outcome.gap()
            );
        }
    }
    Ok((
        render_search(spec, &outcome, ctx.telemetry),
        outcome.cancelled,
    ))
}

/// Renders a [`SearchOutcome`] in the job's format. The JSON member and
/// the text heading name the input, so kernel and trace searches emit
/// the same shape.
fn render_search(spec: &JobSpec, outcome: &SearchOutcome, telemetry: bool) -> String {
    let (subject, name) = spec.input.subject();
    let space_name = match spec.input {
        JobInput::Kernel(_) => spec.knobs.word(Id::Space),
        JobInput::Trace(_) => "trace",
    };
    let objective = outcome.objective;
    let evaluated = outcome.telemetry.designs_evaluated;
    let pruned = outcome.telemetry.designs_pruned;
    let mut out = String::new();
    match spec.knobs.word(Id::SearchFormat) {
        "csv" => {
            let _ = writeln!(
                out,
                "objective,design,cache,line,assoc,tiling,miss_rate,cycles,energy_nj,\
                 cost,lower_bound,gap,relative_gap,complete,cancelled,candidates,\
                 evaluated,pruned"
            );
            if let Some(r) = &outcome.incumbent {
                let _ = writeln!(
                    out,
                    "\"{}\",{},{},{},{},{},{:.6},{:.1},{:.3},{:.3},{:.3},{:.6},{:.6},{},{},{},{},{}",
                    objective,
                    r.design,
                    r.design.cache_size,
                    r.design.line,
                    r.design.assoc,
                    r.design.tiling,
                    r.miss_rate,
                    r.cycles,
                    r.energy_nj,
                    outcome.incumbent_cost(),
                    outcome.lower_bound,
                    outcome.gap(),
                    outcome.relative_gap(),
                    outcome.complete,
                    outcome.cancelled,
                    outcome.candidates,
                    evaluated,
                    pruned
                );
            }
        }
        "json" => {
            let _ = writeln!(out, "{{");
            let _ = writeln!(out, "  \"{subject}\": \"{name}\",");
            let _ = writeln!(out, "  \"objective\": \"{objective}\",");
            let _ = writeln!(out, "  \"space\": \"{space_name}\",");
            let _ = writeln!(out, "  \"candidates\": {},", outcome.candidates);
            let _ = writeln!(out, "  \"evaluated\": {evaluated},");
            let _ = writeln!(out, "  \"pruned\": {pruned},");
            let _ = writeln!(out, "  \"expansions\": {},", outcome.expansions);
            let _ = writeln!(out, "  \"beam_discarded\": {},", outcome.beam_discarded);
            match &outcome.incumbent {
                Some(r) => {
                    let _ = writeln!(
                        out,
                        concat!(
                            "  \"incumbent\": {{\"design\":\"{}\",\"cache\":{},",
                            "\"line\":{},\"assoc\":{},\"tiling\":{},",
                            "\"miss_rate\":{:.6},\"cycles\":{:.1},",
                            "\"energy_nj\":{:.3},\"conflict_free\":{}}},"
                        ),
                        r.design,
                        r.design.cache_size,
                        r.design.line,
                        r.design.assoc,
                        r.design.tiling,
                        r.miss_rate,
                        r.cycles,
                        r.energy_nj,
                        r.conflict_free
                    );
                    let _ = writeln!(out, "  \"cost\": {:.3},", outcome.incumbent_cost());
                    let _ = writeln!(out, "  \"gap\": {:.6},", outcome.gap());
                    let _ = writeln!(out, "  \"relative_gap\": {:.6},", outcome.relative_gap());
                }
                None => {
                    let _ = writeln!(out, "  \"incumbent\": null,");
                }
            }
            if outcome.lower_bound.is_finite() {
                let _ = writeln!(out, "  \"lower_bound\": {:.3},", outcome.lower_bound);
            }
            if telemetry {
                let _ = writeln!(out, "  \"telemetry\": {},", outcome.telemetry.to_json());
            }
            let _ = writeln!(out, "  \"complete\": {},", outcome.complete);
            let _ = writeln!(out, "  \"cancelled\": {}", outcome.cancelled);
            let _ = writeln!(out, "}}");
        }
        _ => {
            let _ = writeln!(
                out,
                "searched {subject} {name}: {evaluated} of {} candidates simulated, \
                 {pruned} pruned (objective {objective}, space {space_name})",
                outcome.candidates
            );
            match &outcome.incumbent {
                Some(r) => {
                    let label = match objective {
                        Objective::Energy => "minimum energy ",
                        Objective::Cycles => "minimum time   ",
                        Objective::Weighted { .. } => "minimum weighted",
                    };
                    let _ = writeln!(out, "{label}: {}", fmt_record(r));
                    let _ = writeln!(out, "certified lower bound : {:.3}", outcome.lower_bound);
                    let _ = writeln!(
                        out,
                        "certified gap : {:.3} ({:.2}%){}",
                        outcome.gap(),
                        outcome.relative_gap() * 100.0,
                        if outcome.complete {
                            ", optimum certified"
                        } else {
                            ""
                        }
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "no incumbent: the search stopped before its first simulation"
                    );
                    if outcome.lower_bound.is_finite() {
                        let _ = writeln!(out, "certified lower bound : {:.3}", outcome.lower_bound);
                    }
                }
            }
        }
    }
    out
}

/// The search outcome of an exhaustive trace sweep. The sweep needs no
/// relaxation: a finished sweep certifies the incumbent exactly (gap 0);
/// a deadline-cut sweep certifies nothing beyond cost >= 0, which every
/// objective satisfies.
fn trace_search_outcome(sweep: SweepOutcome, objective: Objective) -> SearchOutcome {
    let cancelled = sweep.telemetry.cancelled;
    let incumbent_index = trace_search_winner(&sweep.records, objective);
    let incumbent = incumbent_index.and_then(|i| sweep.records[i].clone());
    let lower_bound = match (&incumbent, cancelled) {
        (Some(r), false) => objective.cost(r),
        _ => 0.0,
    };
    SearchOutcome {
        objective,
        incumbent,
        incumbent_index,
        lower_bound,
        complete: !cancelled && incumbent_index.is_some(),
        cancelled,
        candidates: sweep.records.len(),
        expansions: 0,
        beam_discarded: 0,
        telemetry: sweep.telemetry,
    }
}

/// Selects the best completed record under `objective`, replicating the
/// searcher's total order (objective cost, then the secondary metrics,
/// then smallest cache and lowest index) so `memx search` on a trace names
/// the same design the certified kernel search would.
fn trace_search_winner(records: &[Option<Record>], objective: Objective) -> Option<usize> {
    let floats = |r: &Record| -> [f64; 3] {
        match objective {
            Objective::Energy => [r.energy_nj, r.cycles, 0.0],
            Objective::Cycles => [r.cycles, r.energy_nj, 0.0],
            Objective::Weighted { .. } => [objective.cost(r), r.energy_nj, r.cycles],
        }
    };
    let mut best: Option<(usize, [f64; 3])> = None;
    for (index, record) in records.iter().enumerate() {
        let Some(r) = record else { continue };
        let candidate = floats(r);
        let better = match &best {
            None => true,
            Some((best_index, best_floats)) => {
                let mut decided = None;
                for (a, b) in candidate.iter().zip(best_floats.iter()) {
                    match a.partial_cmp(b).expect("objective costs are finite") {
                        Ordering::Equal => continue,
                        order => {
                            decided = Some(order);
                            break;
                        }
                    }
                }
                let best_record = records[*best_index].as_ref().expect("winner is complete");
                decided.unwrap_or_else(|| {
                    (r.design.cache_size, index).cmp(&(best_record.design.cache_size, *best_index))
                }) == Ordering::Less
            }
        };
        if better {
            best = Some((index, candidate));
        }
    }
    best.map(|(index, _)| index)
}

/// `memx pareto`: the three-objective frontier of the input's grid,
/// [`select::pareto3`] over the records of the same sweep `memx explore`
/// runs. A supervised kernel sweep simulates the same records, so its
/// frontier is byte-identical to the plain one when the run is clean
/// (CI's Pareto smoke run diffs the two), and well-formed over whatever
/// completed when it is not.
fn pareto(
    spec: &JobSpec,
    ctx: &RunCtx,
    supervise: &Supervise,
    stderr: &mut String,
) -> Result<(String, bool), RunError> {
    let designs = spec.input.grid();
    spec.input.check_grid(&designs, stderr)?;
    let (explorer, obs) = job_explorer(spec, ctx)?;
    let outcome = sweep_job(&spec.input, &explorer, &designs, supervise, stderr)?;
    let select_start = Instant::now();
    let frontier = select::pareto3(&outcome.completed_records());
    let select_time = select_start.elapsed();
    let mut sweep = outcome.telemetry;
    sweep.select_time += select_time;
    sweep.total_time += select_time;
    sweep.frontier_size = frontier.len();
    let engine_label = match (&spec.input, supervise.is_active()) {
        (JobInput::Trace(_), _) => "streamed",
        (JobInput::Kernel(_), true) => "supervised",
        (JobInput::Kernel(_), false) => "exhaustive",
    };
    if let Some(o) = &obs {
        o.finish();
    }
    if frontier.is_empty() {
        let (subject, name) = spec.input.subject();
        let _ = writeln!(
            stderr,
            "warning: the Pareto frontier of {subject} {name} is empty (no designs completed)"
        );
    }
    let out = render_frontier(spec, engine_label, &frontier, &sweep, ctx.telemetry, stderr);
    Ok((out, sweep.cancelled))
}

/// Renders a Pareto frontier as JSON or CSV. CSV telemetry goes to
/// `stderr` so piped rows stay pure.
fn render_frontier(
    spec: &JobSpec,
    engine_label: &str,
    frontier: &[Record],
    sweep: &SweepTelemetry,
    telemetry: bool,
    stderr: &mut String,
) -> String {
    let (subject, name) = spec.input.subject();
    let mut out = String::new();
    if spec.knobs.word(Id::ParetoFormat) == "json" {
        let rows: Vec<String> = frontier
            .iter()
            .map(|r| {
                format!(
                    concat!(
                        "    {{\"cache\":{},\"line\":{},\"assoc\":{},",
                        "\"tiling\":{},\"miss_rate\":{:.6},\"cycles\":{:.1},",
                        "\"energy_nj\":{:.3},\"conflict_free\":{}}}"
                    ),
                    r.design.cache_size,
                    r.design.line,
                    r.design.assoc,
                    r.design.tiling,
                    r.miss_rate,
                    r.cycles,
                    r.energy_nj,
                    r.conflict_free
                )
            })
            .collect();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"{subject}\": \"{name}\",");
        let _ = writeln!(out, "  \"engine\": \"{engine_label}\",");
        let _ = writeln!(out, "  \"frontier_size\": {},", frontier.len());
        let _ = writeln!(out, "  \"frontier\": [\n{}\n  ]{}", rows.join(",\n"), {
            if telemetry {
                ","
            } else {
                ""
            }
        });
        if telemetry {
            let _ = writeln!(out, "  \"telemetry\": {}", sweep.to_json());
        }
        let _ = writeln!(out, "}}");
    } else {
        let _ = writeln!(
            out,
            "cache,line,assoc,tiling,miss_rate,cycles,energy_nj,conflict_free"
        );
        for r in frontier {
            let _ = writeln!(
                out,
                "{},{},{},{},{:.6},{:.1},{:.3},{}",
                r.design.cache_size,
                r.design.line,
                r.design.assoc,
                r.design.tiling,
                r.miss_rate,
                r.cycles,
                r.energy_nj,
                r.conflict_free
            );
        }
        // Telemetry goes to stderr so piped CSV stays pure rows (the JSON
        // format embeds it instead, where it is valid structure).
        if telemetry {
            let _ = writeln!(stderr, "{sweep}");
        }
    }
    out
}

fn simulate(
    kernel: &Kernel,
    cache: usize,
    line: usize,
    assoc: usize,
    tiling: u64,
    natural: bool,
    classify: bool,
) -> Result<String, RunError> {
    // Validate geometry up front so the user gets a typed exit-2 error,
    // not a panic or a silently mis-indexed sweep.
    let config = validate_geometry(cache, line, assoc)?;
    // The cycle model only covers the paper's parameter ranges; reject the
    // rest here rather than panicking deep inside the evaluator.
    if ![1, 2, 4, 8, 16, 32, 64].contains(&assoc) {
        return Err(format!(
            "associativity {assoc} is outside the cycle model (use a power of two up to 64)"
        )
        .into());
    }
    if !(4..=1024).contains(&line) {
        return Err(
            format!("line size {line} B is outside the cycle model (use 4 to 1024)").into(),
        );
    }
    if tiling == 0 {
        return Err("tiling must be at least 1 (1 = untiled)".to_string().into());
    }
    let mut evaluator = Evaluator::default();
    if natural {
        evaluator.placement = PlacementMode::Natural;
    }
    let design = CacheDesign::new(cache, line, assoc, tiling);
    let (layout, conflict_free) = evaluator
        .try_layout_for(kernel, cache, line)
        .map_err(explore_error)?;
    let tiled = loopir::transform::tile_all(kernel, tiling);
    let record = evaluator.evaluate_with_trace(design, &read_trace(&tiled, &layout), conflict_free);

    let mut out = String::new();
    let _ = writeln!(out, "kernel {} on {}", kernel.name, config);
    let _ = writeln!(
        out,
        "reads {}  miss rate {:.4}  cycles {:.0}  energy {:.0} nJ  conflict-free {}",
        record.trip_count, record.miss_rate, record.cycles, record.energy_nj, record.conflict_free
    );
    if classify {
        let events = TraceGen::new(&tiled, &layout)
            .filter(|a| a.kind == AccessKind::Read)
            .map(|a| TraceEvent::read(a.addr, a.size));
        let report = Simulator::simulate_classified(config, events);
        let c = report.miss_classes.expect("classification enabled");
        let _ = writeln!(
            out,
            "miss classes: compulsory {}  capacity {}  conflict {}",
            c.compulsory, c.capacity, c.conflict
        );
    }
    Ok(out)
}

fn place(kernel: &Kernel, cache: u64, line: u64) -> Result<String, RunError> {
    validate_geometry(cache as usize, line as usize, 1)?;
    let report = optimize_layout(kernel, cache, line).map_err(|e| RunError::Other(e.into()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "off-chip assignment for {} (cache {cache} B, line {line} B):",
        kernel.name
    );
    for (i, a) in kernel.arrays.iter().enumerate() {
        let p = report.layout.placement(ArrayId(i));
        let natural: u64 =
            a.dims[1..].iter().map(|&d| d as u64).product::<u64>() * a.elem_size as u64;
        let _ = writeln!(
            out,
            "  {:<10} base {:>6}  row pitch {:>5} (natural {natural})",
            a.name, p.base, p.row_pitch
        );
    }
    let _ = writeln!(
        out,
        "padding {} B, conflict-free: {}, class leader lines: {:?}",
        report.padding_bytes, report.conflict_free, report.leader_lines
    );
    Ok(out)
}

fn min_cache(kernel: &Kernel, line: u64) -> Result<String, RunError> {
    if line == 0 || !line.is_power_of_two() {
        return Err(RunError::Geometry(format!(
            "invalid cache geometry: line size {line} must be a power of two"
        )));
    }
    if let Some(a) = kernel.arrays.iter().find(|a| a.elem_size as u64 > line) {
        return Err(format!(
            "line size {line} B is smaller than the {} B elements of array {}",
            a.elem_size, a.name
        )
        .into());
    }
    let report = MinCacheReport::analyze(kernel, line);
    Ok(format!(
        "{}: {} lines per class {:?} -> total {} lines, minimum cache {} B (next pow2 {} B)\n",
        kernel.name,
        report.lines_per_class.len(),
        report.lines_per_class,
        report.total_lines,
        report.min_cache_bytes(),
        report.min_pow2_cache_bytes()
    ))
}

fn classes(kernel: &Kernel) -> String {
    let classes = partition_classes(kernel, false);
    let cases = partition_cases(&classes);
    let mut out = format!("{} reference classes in {}:\n", classes.len(), kernel.name);
    for (i, c) in classes.iter().enumerate() {
        let array = kernel.array(c.array);
        let members: Vec<String> = c
            .members
            .iter()
            .map(|&m| {
                let r = &kernel.nest.refs[m];
                let subs: Vec<String> = r.subscripts.iter().map(|s| format!("[{s}]")).collect();
                format!("{}{}", array.name, subs.join(""))
            })
            .collect();
        let _ = writeln!(
            out,
            "  class {i}: array {} | {}",
            array.name,
            members.join(", ")
        );
    }
    let _ = writeln!(
        out,
        "{} case group(s) (classes sharing H): {cases:?}",
        cases.len()
    );
    out
}

fn trace(kernel: &Kernel, reads_only: bool) -> Result<String, Box<dyn Error + Send + Sync>> {
    let layout = DataLayout::natural(kernel);
    let records: Vec<DinRecord> = TraceGen::new(kernel, &layout)
        .filter(|a| !reads_only || a.kind == AccessKind::Read)
        .map(|a| DinRecord {
            label: if a.kind == AccessKind::Read {
                DinLabel::Read
            } else {
                DinLabel::Write
            },
            addr: a.addr,
        })
        .collect();
    let mut buf = Vec::new();
    write_din(&mut buf, &records)?;
    Ok(String::from_utf8(buf).expect("din output is ASCII"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::parse_args;

    fn write_kernel() -> (tempdir::TempDirGuard, String) {
        let dir = tempdir::tempdir();
        let path = dir.path.join("compress.mx");
        std::fs::write(
            &path,
            "kernel Compress\narray a[32][32] elem 4\nfor i = 1 .. 31\nfor j = 1 .. 31\n  read a[i][j]\n  read a[i-1][j]\n  read a[i][j-1]\n  read a[i-1][j-1]\n  write a[i][j]\n",
        )
        .expect("tempdir is writable");
        (dir, path.to_string_lossy().into_owned())
    }

    /// Minimal self-cleaning temp dir (no external dependency).
    mod tempdir {
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicU64, Ordering};

        pub struct TempDirGuard {
            pub path: PathBuf,
        }

        impl Drop for TempDirGuard {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.path);
            }
        }

        static COUNTER: AtomicU64 = AtomicU64::new(0);

        pub fn tempdir() -> TempDirGuard {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path = std::env::temp_dir().join(format!("memx-test-{}-{n}", std::process::id()));
            std::fs::create_dir_all(&path).expect("temp dir is creatable");
            TempDirGuard { path }
        }
    }

    #[test]
    fn simulate_command_end_to_end() {
        let (_dir, path) = write_kernel();
        let cmd = parse_args(&[
            "simulate".into(),
            path,
            "--cache".into(),
            "64".into(),
            "--line".into(),
            "8".into(),
            "--classify".into(),
        ])
        .expect("valid argv");
        let out = run(cmd).expect("command succeeds").stdout;
        assert!(out.contains("miss rate"));
        assert!(out.contains("conflict 0"), "{out}");
    }

    #[test]
    fn min_cache_command_matches_the_paper() {
        let (_dir, path) = write_kernel();
        let out = run(Command::MinCache {
            file: path,
            line: 16,
        })
        .expect("command succeeds")
        .stdout;
        assert!(out.contains("total 4 lines"), "{out}");
        assert!(out.contains("minimum cache 64 B"), "{out}");
    }

    #[test]
    fn classes_command_lists_two_classes() {
        let (_dir, path) = write_kernel();
        let out = run(Command::Classes { file: path })
            .expect("command succeeds")
            .stdout;
        assert!(out.contains("class 0"));
        assert!(out.contains("class 1"));
        assert!(!out.contains("class 2"));
    }

    #[test]
    fn trace_command_emits_din() {
        let (_dir, path) = write_kernel();
        let out = run(Command::Trace {
            file: path,
            reads_only: true,
        })
        .expect("command succeeds")
        .stdout;
        let first = out.lines().next().expect("non-empty trace");
        assert!(first.starts_with("0 "), "{first}");
        assert_eq!(out.lines().count(), 31 * 31 * 4);
    }

    #[test]
    fn place_command_reports_layout() {
        let (_dir, path) = write_kernel();
        let out = run(Command::Place {
            file: path,
            cache: 64,
            line: 8,
        })
        .expect("command succeeds")
        .stdout;
        assert!(out.contains("conflict-free: true"), "{out}");
    }

    #[test]
    fn explore_command_with_bounds() {
        let (_dir, path) = write_kernel();
        let out = run(Command::Explore {
            file: path,
            part: "cy7c".into(),
            em_nj: None,
            natural: false,
            analytical: true, // analytical keeps the test fast
            bound_cycles: Some(10_000.0),
            bound_energy: Some(1.0), // infeasible
            pareto: true,
            telemetry: false,
            engine: "fused".into(),
            no_analytic: false,
            supervise: Supervise::default(),
            obs: ObsFlags::default(),
        })
        .expect("command succeeds")
        .stdout;
        assert!(out.contains("minimum energy"));
        assert!(out.contains("infeasible"));
        assert!(out.contains("pareto"));
        assert!(!out.contains("telemetry"));
    }

    #[test]
    fn explore_telemetry_analytical_prints_note() {
        let (_dir, path) = write_kernel();
        let out = run(Command::Explore {
            file: path,
            part: "cy7c".into(),
            em_nj: None,
            natural: false,
            analytical: true,
            bound_cycles: None,
            bound_energy: None,
            pareto: false,
            telemetry: true,
            engine: "fused".into(),
            no_analytic: false,
            supervise: Supervise::default(),
            obs: ObsFlags::default(),
        })
        .expect("command succeeds");
        assert!(out.stderr.contains("telemetry: not available"), "{out:?}");
        assert!(!out.stdout.contains("telemetry"), "{out:?}");
    }

    #[test]
    fn explore_telemetry_reports_sweep_counters() {
        let (_dir, path) = write_kernel();
        let out = run(Command::Explore {
            file: path,
            part: "cy7c".into(),
            em_nj: None,
            natural: false,
            analytical: false,
            bound_cycles: None,
            bound_energy: None,
            pareto: false,
            telemetry: true,
            engine: "fused".into(),
            no_analytic: false,
            supervise: Supervise::default(),
            obs: ObsFlags::default(),
        })
        .expect("command succeeds");
        // The summary lives on stderr; stdout stays pure records.
        assert!(out.stderr.contains("sweep:"), "{out:?}");
        assert!(out.stderr.contains("worker utilization"), "{out:?}");
        assert!(out.stderr.contains("reuse"), "{out:?}");
        assert!(!out.stdout.contains("sweep:"), "{out:?}");
    }

    #[test]
    fn trace_then_simulate_din_round_trip() {
        let (dir, path) = write_kernel();
        let din = run(Command::Trace {
            file: path,
            reads_only: true,
        })
        .expect("trace succeeds")
        .stdout;
        let din_path = dir.path.join("t.din");
        std::fs::write(&din_path, din).expect("tempdir writable");
        let out = run(Command::SimulateDin {
            file: din_path.to_string_lossy().into_owned(),
            cache: 64,
            line: 8,
            assoc: 1,
            classify: true,
            format: "text".into(),
        })
        .expect("simulate-din succeeds")
        .stdout;
        assert!(out.contains("3844 records"), "{out}");
        assert!(out.contains("conflict"), "{out}");
    }

    /// Records the paper kernel's trace into a `.din` file so the trace
    /// command paths exercise a realistic external workload.
    fn write_din_file() -> (tempdir::TempDirGuard, String) {
        let (dir, path) = write_kernel();
        let din = run(Command::Trace {
            file: path,
            reads_only: false,
        })
        .expect("trace succeeds")
        .stdout;
        let din_path = dir.path.join("k.din");
        std::fs::write(&din_path, din).expect("tempdir writable");
        (dir, din_path.to_string_lossy().into_owned())
    }

    #[test]
    fn explore_din_streams_the_trace_grid() {
        let (_dir, din) = write_din_file();
        let out = run(Command::Explore {
            file: din,
            part: "cy7c".into(),
            em_nj: None,
            natural: false,
            analytical: false,
            bound_cycles: None,
            bound_energy: None,
            pareto: false,
            telemetry: true,
            engine: "fused".into(),
            no_analytic: false,
            supervise: Supervise::default(),
            obs: ObsFlags::default(),
        })
        .expect("command succeeds");
        // The trace grid pins tiling at 1: 95 (T, L, S) designs, not the
        // kernel grid's full (T, L, S, B) cross product.
        assert!(
            out.stdout.contains("explored 95 configurations of trace"),
            "{out:?}"
        );
        assert!(out.stdout.contains("events, streamed)"), "{out:?}");
        assert!(out.stdout.contains("minimum energy"), "{out:?}");
        // Streamed sweeps report their peak resident chunk footprint.
        assert!(out.stderr.contains("peak resident chunk"), "{out:?}");
    }

    #[test]
    fn explore_din_rejects_analytical() {
        let (_dir, din) = write_din_file();
        let err = run(Command::Explore {
            file: din,
            part: "cy7c".into(),
            em_nj: None,
            natural: false,
            analytical: true,
            bound_cycles: None,
            bound_energy: None,
            pareto: false,
            telemetry: false,
            engine: "fused".into(),
            no_analytic: false,
            supervise: Supervise::default(),
            obs: ObsFlags::default(),
        })
        .expect_err("analytical model needs a kernel");
        assert!(err.to_string().contains("--analytical"), "{err}");
    }

    #[test]
    fn simulate_din_csv_and_json_formats() {
        let (_dir, din) = write_din_file();
        let csv = run(Command::SimulateDin {
            file: din.clone(),
            cache: 64,
            line: 8,
            assoc: 1,
            classify: false,
            format: "csv".into(),
        })
        .expect("csv succeeds")
        .stdout;
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some(
                "records,reads,read_hits,writes,write_hits,fills,evictions,\
                 writebacks,buffer_hits,miss_rate"
            )
        );
        let row = lines.next().expect("one data row");
        assert_eq!(row.split(',').count(), 10, "{row}");
        assert_eq!(lines.next(), None);

        let json = run(Command::SimulateDin {
            file: din,
            cache: 64,
            line: 8,
            assoc: 1,
            classify: true,
            format: "json".into(),
        })
        .expect("json succeeds")
        .stdout;
        assert!(json.contains("\"miss_rate\":"), "{json}");
        assert!(json.contains("\"miss_classes\":"), "{json}");
        assert!(json.contains("\"records\":"), "{json}");
    }

    #[test]
    fn pareto_din_emits_trace_header_and_engine_warning() {
        let (_dir, din) = write_din_file();
        let out = run(Command::Pareto {
            file: din,
            part: "cy7c".into(),
            em_nj: None,
            natural: false,
            format: "json".into(),
            exhaustive: false,
            telemetry: false,
            engine: "per-design".into(),
            no_analytic: false,
            supervise: Supervise::default(),
            obs: ObsFlags::default(),
        })
        .expect("command succeeds");
        assert!(out.stdout.contains("\"trace\": \""), "{out:?}");
        assert!(out.stdout.contains("k.din"), "{out:?}");
        assert!(out.stdout.contains("\"engine\": \"streamed\""), "{out:?}");
        assert!(
            out.stderr.contains("--engine per-design is ignored"),
            "{out:?}"
        );
    }

    #[test]
    fn search_din_matches_explore_minimum_energy() {
        let (_dir, din) = write_din_file();
        let explore_out = run(Command::Explore {
            file: din.clone(),
            part: "cy7c".into(),
            em_nj: None,
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
        .expect("explore succeeds")
        .stdout;
        let min_line = explore_out
            .lines()
            .find(|l| l.starts_with("minimum energy"))
            .expect("explore names a minimum")
            .to_string();
        let search_out = run(Command::Search {
            file: din.clone(),
            part: "cy7c".into(),
            em_nj: None,
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
        })
        .expect("search succeeds")
        .stdout;
        assert!(search_out.contains(&min_line), "{search_out}\n{min_line}");
        assert!(search_out.contains("optimum certified"), "{search_out}");
        assert!(search_out.contains("searched trace "), "{search_out}");

        let err = run(Command::Search {
            file: din,
            part: "cy7c".into(),
            em_nj: None,
            natural: false,
            objective: Objective::Energy,
            space: "expansive".into(),
            beam: None,
            gap: 0.0,
            deadline_secs: None,
            format: "text".into(),
            telemetry: false,
            no_analytic: false,
            obs: ObsFlags::default(),
        })
        .expect_err("expansive space needs a kernel");
        assert!(err.to_string().contains("expansive"), "{err}");
    }

    #[test]
    fn pareto_command_emits_csv_with_telemetry_comments() {
        let (_dir, path) = write_kernel();
        let out = run(Command::Pareto {
            file: path,
            part: "cy7c".into(),
            em_nj: None,
            natural: false,
            format: "csv".into(),
            exhaustive: false,
            telemetry: true,
            engine: "fused".into(),
            no_analytic: false,
            supervise: Supervise::default(),
            obs: ObsFlags::default(),
        })
        .expect("command succeeds");
        let mut lines = out.stdout.lines();
        assert_eq!(
            lines.next(),
            Some("cache,line,assoc,tiling,miss_rate,cycles,energy_nj,conflict_free")
        );
        // Every stdout line is a pure CSV row; telemetry goes to stderr.
        assert!(
            out.stdout.lines().count() > 2,
            "frontier should be non-trivial: {out:?}"
        );
        assert!(
            out.stdout.lines().all(|l| !l.starts_with('#')),
            "stdout must stay pure CSV: {out:?}"
        );
        assert!(
            out.stderr.contains("frontier :"),
            "telemetry summary missing from stderr: {out:?}"
        );
    }

    #[test]
    fn pareto_command_json_matches_exhaustive_frontier() {
        let (_dir, path) = write_kernel();
        let run_with = |exhaustive: bool| {
            run(Command::Pareto {
                file: path.clone(),
                part: "cy7c".into(),
                em_nj: None,
                natural: false,
                format: "json".into(),
                exhaustive,
                telemetry: false,
                engine: "fused".into(),
                no_analytic: false,
                supervise: Supervise::default(),
                obs: ObsFlags::default(),
            })
            .expect("command succeeds")
            .stdout
        };
        // `--exhaustive` is accepted and ignored: one sweep, one frontier.
        let plain = run_with(false);
        assert_eq!(plain, run_with(true));
        assert!(plain.contains("\"engine\": \"exhaustive\""), "{plain}");
        assert!(plain.contains("\"frontier_size\""), "{plain}");
    }

    #[test]
    fn invalid_simulate_inputs_error_instead_of_panicking() {
        let (_dir, path) = write_kernel();
        let cases: &[(&[&str], &str)] = &[
            // Non-power-of-two cache: caught by CacheConfig.
            (&["--cache", "48", "--line", "8"], "48"),
            // Valid geometry but outside the cycle model's ranges.
            (&["--cache", "4096", "--line", "2048"], "line size 2048"),
            (
                &["--cache", "1024", "--line", "8", "--assoc", "128"],
                "associativity 128",
            ),
            (&["--cache", "64", "--line", "8", "--tiling", "0"], "tiling"),
        ];
        for (flags, needle) in cases {
            let mut argv = vec!["simulate".to_string(), path.clone()];
            argv.extend(flags.iter().map(|s| s.to_string()));
            let cmd = parse_args(&argv).expect("parses fine; validation is semantic");
            let e = match run(cmd) {
                Err(e) => e.to_string(),
                Ok(out) => panic!("{flags:?} should error, got: {}", out.stdout),
            };
            assert!(e.contains(needle), "{flags:?}: {e}");
            assert!(!e.contains('\n'), "error must be one line: {e:?}");
        }
    }

    #[test]
    fn invalid_min_cache_line_errors_instead_of_panicking() {
        let (_dir, path) = write_kernel();
        for line in [0u64, 3] {
            let e = run(Command::MinCache {
                file: path.clone(),
                line,
            })
            .expect_err("bad line must error");
            assert!(e.to_string().contains("power of two"), "{e}");
        }
        // Line smaller than the 4 B elements.
        let e = run(Command::MinCache {
            file: path.clone(),
            line: 2,
        })
        .expect_err("line < elem must error");
        assert!(e.to_string().contains("smaller"), "{e}");
    }

    #[test]
    fn explore_engines_agree_on_records() {
        let (_dir, path) = write_kernel();
        let run_with = |engine: &str| {
            run(Command::Explore {
                file: path.clone(),
                part: "cy7c".into(),
                em_nj: None,
                natural: false,
                analytical: false,
                bound_cycles: None,
                bound_energy: None,
                pareto: true,
                telemetry: false,
                engine: engine.into(),
                no_analytic: false,
                supervise: Supervise::default(),
                obs: ObsFlags::default(),
            })
            .expect("command succeeds")
        };
        assert_eq!(run_with("fused"), run_with("per-design"));
    }

    fn run_search(path: &str, objective: Objective, format: &str) -> Output {
        run(Command::Search {
            file: path.to_string(),
            part: "cy7c".into(),
            em_nj: None,
            natural: false,
            objective,
            space: "paper".into(),
            beam: None,
            gap: 0.0,
            deadline_secs: None,
            format: format.into(),
            telemetry: false,
            no_analytic: false,
            obs: ObsFlags::default(),
        })
        .expect("search succeeds")
    }

    #[test]
    fn search_command_matches_explore_minimum_lines() {
        let (_dir, path) = write_kernel();
        let explored = run(Command::Explore {
            file: path.clone(),
            part: "cy7c".into(),
            em_nj: None,
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
        .expect("explore succeeds")
        .stdout;
        let line_of = |out: &str, label: &str| {
            out.lines()
                .find(|l| l.starts_with(label))
                .unwrap_or_else(|| panic!("missing `{label}` in {out}"))
                .to_string()
        };
        let energy = run_search(&path, Objective::Energy, "text").stdout;
        assert_eq!(
            line_of(&energy, "minimum energy"),
            line_of(&explored, "minimum energy")
        );
        assert!(energy.contains("optimum certified"), "{energy}");
        let cycles = run_search(&path, Objective::Cycles, "text").stdout;
        assert_eq!(
            line_of(&cycles, "minimum time"),
            line_of(&explored, "minimum time")
        );
    }

    #[test]
    fn search_json_and_csv_outputs_are_well_formed() {
        let (_dir, path) = write_kernel();
        let json = run_search(&path, Objective::Energy, "json").stdout;
        assert!(json.contains("\"complete\": true"), "{json}");
        assert!(json.contains("\"incumbent\": {"), "{json}");
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        let csv = run_search(
            &path,
            Objective::Weighted {
                energy_weight: 1.0,
                cycles_weight: 2.0,
            },
            "csv",
        )
        .stdout;
        let mut lines = csv.lines();
        let header = lines.next().expect("header");
        let row = lines.next().expect("row");
        assert!(header.starts_with("objective,design,"), "{csv}");
        assert!(row.contains("weighted(energy=1,cycles=2)"), "{csv}");
        assert!(
            row.ends_with(",true,false,425,425,0") || row.contains(",true,false,"),
            "{csv}"
        );
    }

    #[test]
    fn search_deadline_zero_like_run_is_anytime() {
        let (_dir, path) = write_kernel();
        let out = run(Command::Search {
            file: path,
            part: "cy7c".into(),
            em_nj: None,
            natural: false,
            objective: Objective::Energy,
            space: "paper".into(),
            beam: None,
            gap: 0.0,
            deadline_secs: Some(1e-9),
            format: "text".into(),
            telemetry: false,
            no_analytic: false,
            obs: ObsFlags::default(),
        })
        .expect("search succeeds");
        assert!(out.stderr.contains("deadline reached"), "{out:?}");
        assert!(!out.stdout.contains("optimum certified"), "{out:?}");
    }

    #[test]
    fn explore_fused_telemetry_reports_trace_groups() {
        let (_dir, path) = write_kernel();
        let out = run(Command::Explore {
            file: path,
            part: "cy7c".into(),
            em_nj: None,
            natural: false,
            analytical: false,
            bound_cycles: None,
            bound_energy: None,
            pareto: false,
            telemetry: true,
            engine: "fused".into(),
            no_analytic: false,
            supervise: Supervise::default(),
            obs: ObsFlags::default(),
        })
        .expect("command succeeds");
        assert!(out.stderr.contains("fused"), "{out:?}");
        assert!(out.stderr.contains("trace groups"), "{out:?}");
    }

    #[test]
    fn pareto_engines_agree_on_the_frontier() {
        let (_dir, path) = write_kernel();
        let run_with = |engine: &str| {
            run(Command::Pareto {
                file: path.clone(),
                part: "cy7c".into(),
                em_nj: None,
                natural: false,
                format: "csv".into(),
                exhaustive: false,
                telemetry: false,
                engine: engine.into(),
                no_analytic: false,
                supervise: Supervise::default(),
                obs: ObsFlags::default(),
            })
            .expect("command succeeds")
        };
        assert_eq!(run_with("fused"), run_with("per-design"));
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let e = run(Command::Classes {
            file: "/nonexistent/k.mx".into(),
        })
        .expect_err("should fail");
        assert!(e.to_string().contains("cannot read"));
    }

    #[test]
    fn plru_wider_than_64_ways_is_an_invalid_geometry() {
        let kernel = loopir::kernels::compress(31);
        let plru = memsim::Replacement::Plru;
        let wide = CacheDesign::new(1024, 4, 128, 1).with_replacement(plru);
        let e = check_sweep_inputs(&kernel, &[wide], &mut String::new())
            .expect_err("a 128-way PLRU design is refused");
        assert_eq!(e.exit_code(), 2, "{e}");
        assert!(e.to_string().contains("at most 64 ways"), "{e}");
        let space = DesignSpace {
            cache_sizes: vec![1024],
            line_sizes: vec![4],
            assocs: vec![128],
            tilings: vec![1],
            replacements: vec![plru],
            ..DesignSpace::default()
        };
        let e = check_space_inputs(&kernel, &space, &mut String::new())
            .expect_err("a 128-way PLRU axis is refused");
        assert_eq!(e.exit_code(), 2, "{e}");
        assert!(e.to_string().contains("at most 64 ways"), "{e}");
    }

    /// A non-default value for the row, as typed after its flag.
    fn sample(row: &crate::knobs::Knob) -> Option<String> {
        use crate::knobs::Ty;
        match row.ty {
            Ty::Switch => None,
            Ty::Word(words) => Some(words[1].to_string()),
            Ty::Num(..) => Some("3.5".to_string()),
            Ty::Count(_, min) => Some((min + 7).to_string()),
            Ty::Objective => Some("weighted=1,0.5".to_string()),
        }
    }

    /// For every knob and every job kind that takes it, the CLI flag, the
    /// JSON member and the `memx submit` body name the same job: the
    /// same cache key, which a keyed knob moves off the default's.
    #[test]
    fn every_knob_keys_alike_on_every_surface() {
        use crate::knobs::KNOBS;
        use memexplore::obs::{parse_json, push_json_str};
        let (_dir, path) = write_kernel();
        let text = std::fs::read_to_string(&path).expect("kernel was written");
        let argv = |args: &[&str]| -> Vec<String> { args.iter().map(|a| a.to_string()).collect() };
        // A shard needs a range; the row under test overrides it.
        let shard_base = ["--start", "0", "--end", "100"];
        let json_key = |kind: JobKind, members: &str| {
            let mut body = format!("{{\"command\":\"{}\",\"kernel\":", kind.as_str());
            push_json_str(&mut body, &text);
            if kind == JobKind::Shard {
                body.push_str(",\"start\":0,\"end\":100");
            }
            body.push_str(members);
            body.push('}');
            JobSpec::from_json(&parse_json(&body).expect("valid JSON"))
                .unwrap_or_else(|e| panic!("{body}: {e}"))
                .cache_key()
        };
        let cli_key = |kind: JobKind, flags: &[&str]| {
            if kind == JobKind::Shard {
                let mut args = vec!["worker", path.as_str(), "--checkpoint", "c"];
                args.extend_from_slice(&shard_base);
                args.extend_from_slice(flags);
                let Command::Worker { knobs, .. } = parse_args(&argv(&args)).expect("valid") else {
                    panic!("{args:?} is a worker command");
                };
                let input = JobInput::load(&path).expect("kernel loads");
                return JobSpec { kind, input, knobs }.cache_key();
            }
            let mut args = vec![kind.as_str(), path.as_str()];
            args.extend_from_slice(flags);
            let cmd = parse_args(&argv(&args)).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            cli_job(cmd).expect("job builds").0.cache_key()
        };
        for row in &KNOBS {
            let value = sample(row);
            let mut flags = vec![row.flag];
            flags.extend(value.as_deref());
            let member = match &value {
                None => "true".to_string(),
                Some(v) => match row.ty {
                    crate::knobs::Ty::Word(_) | crate::knobs::Ty::Objective => {
                        let mut quoted = String::new();
                        push_json_str(&mut quoted, v);
                        quoted
                    }
                    _ => v.clone(),
                },
            };
            let members = format!(",\"{}\":{member}", row.member);
            for &kind in row.kinds {
                let at = format!("{} on {}", row.flag, kind.as_str());
                let key = json_key(kind, &members);
                assert_eq!(cli_key(kind, &flags), key, "{at}: CLI");
                if row.key.is_some() {
                    assert_ne!(json_key(kind, ""), key, "{at}: the knob must move the key");
                }
                if kind == JobKind::Shard {
                    continue;
                }
                let mut args = vec!["submit", "h:1", path.as_str(), "--job", kind.as_str()];
                args.extend_from_slice(&flags);
                let Command::Submit(request) = parse_args(&argv(&args)).expect("valid") else {
                    panic!("{args:?} is a submit command");
                };
                let body = request.body("kernel", &text);
                let spec = JobSpec::from_json(&parse_json(&body).expect("valid JSON"))
                    .unwrap_or_else(|e| panic!("{at}: {body}: {e}"));
                assert_eq!(spec.cache_key(), key, "{at}: memx submit");
            }
        }
    }
}
