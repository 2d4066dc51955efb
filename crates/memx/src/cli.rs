//! Argument parsing (no external parser crates).

use crate::knobs::{Id, JobKind, Knob, Knobs, KNOBS, SECONDS};
use crate::serve::SubmitRequest;
use memexplore::Objective;
use std::error::Error;
use std::fmt;

/// The usage text printed by `memx help` and on errors.
pub const USAGE: &str = "\
memx — energy-aware data-cache exploration (DAC'99)

USAGE:
  memx explore   KERNEL.mx|TRACE.din [--part cy7c|lp2m|16m] [--em NJ]
                 [--natural] [--analytical] [--bound-cycles N]
                 [--bound-energy NJ] [--pareto] [--telemetry]
                 [--engine fused|per-design] [--no-analytic]
                 [--checkpoint PATH [--checkpoint-every N] [--resume]]
                 [--deadline SECS] [--log-json FILE] [--progress]
  memx pareto    KERNEL.mx|TRACE.din [--part cy7c|lp2m|16m] [--em NJ]
                 [--natural] [--format csv|json] [--exhaustive]
                 [--telemetry] [--engine fused|per-design] [--no-analytic]
                 [--checkpoint PATH [--checkpoint-every N] [--resume]]
                 [--deadline SECS] [--log-json FILE] [--progress]
  memx search    KERNEL.mx|TRACE.din
                 [--objective energy|cycles|weighted=WE,WC]
                 [--space paper|expansive] [--beam N] [--gap F]
                 [--deadline SECS] [--format text|csv|json]
                 [--part cy7c|lp2m|16m] [--em NJ] [--natural]
                 [--telemetry] [--no-analytic]
                 [--log-json FILE] [--progress]
  memx sweep     KERNEL.mx|TRACE.din --distributed N [--shards K]
                 [--attach HOST:PORT]... [--shard-dir DIR]
                 [--retry-budget N] [--backoff-ms MS] [--straggler-ms MS]
                 [--part cy7c|lp2m|16m] [--em NJ] [--natural]
                 [--bound-cycles N] [--bound-energy NJ] [--pareto]
                 [--telemetry] [--engine fused|per-design]
                 [--log-json FILE] [--progress]
  memx worker    KERNEL.mx|TRACE.din --start I --end J --checkpoint PATH
                 [--checkpoint-every N] [--resume]
                 [--part cy7c|lp2m|16m] [--em NJ] [--natural]
                 [--engine fused|per-design]
  memx serve     [--addr HOST:PORT] [--slots N] [--cache-entries N]
                 [--cache-bytes N] [--default-deadline SECS]
                 [--distribute N] [--log-json FILE] [--progress]
  memx submit    ADDR KERNEL.mx|TRACE.din [--job explore|pareto|search]
                 [--part cy7c|lp2m|16m] [--em NJ] [--natural]
                 [--analytical] [--bound-cycles N] [--bound-energy NJ]
                 [--pareto] [--engine fused|per-design]
                 [--format csv|json|text] [--exhaustive]
                 [--objective energy|cycles|weighted=WE,WC]
                 [--space paper|expansive] [--beam N] [--gap F]
                 [--deadline SECS] [--wait-health SECS]
                 [--retries N] [--backoff MS]
  memx report    LOG.jsonl
  memx simulate  KERNEL.mx --cache N --line N [--assoc N] [--tiling B]
                 [--natural] [--classify]
  memx place     KERNEL.mx --cache N --line N
  memx min-cache KERNEL.mx --line N
  memx classes   KERNEL.mx
  memx trace     KERNEL.mx [--reads-only] [--din]
  memx simulate-din TRACE.din --cache N --line N [--assoc N] [--classify]
                 [--format text|csv|json]
  memx help

Distributed sweeps: `memx sweep --distributed N` shards the explore grid
across N local `memx worker` processes (plus any daemons named with
`--attach`), retries failures with exponential backoff, speculatively
re-dispatches stragglers, and merges results byte-identical to
`memx explore`. `memx worker` is the single-shard engine the coordinator
spawns; its checkpoint file is both the result stream and the
crash-recovery journal.

Workloads: the sweep commands (explore, pareto, search) and `memx submit`
accept either a loopir kernel file or a Dinero `.din` address trace
(detected by the `.din` extension). Traces are streamed in fixed-capacity
chunks, so multi-GB files run in bounded memory; the trace grid fixes
tiling at 1 because an external trace cannot be re-tiled.

Streams: records and reports go to stdout; telemetry summaries, progress,
notes, and warnings go to stderr, so piped output stays machine-readable.
`--log-json FILE` writes one JSON event per line; `memx report` renders a
run summary from such a log. `--checkpoint-every 0` selects the default
flush interval (32 records).

Pareto: `memx pareto` prints the exact frontier of the full sweep;
`--exhaustive` is accepted and has no effect.

Engines: every record comes from one banked replay of its trace group.
`--engine fused|per-design` and `--no-analytic` are accepted and have no
effect on what is computed or printed.

Kernel files use the loopir text format, e.g.:

  kernel Compress
  array a[32][32] elem 4
  for i = 1 .. 31
  for j = 1 .. 31
    read  a[i][j]
    read  a[i-1][j-1]
    write a[i][j]
";

/// Sweep-supervisor flags shared by `explore` and `pareto`
/// (checkpoint/resume/deadline). All default to off; the sweep then runs
/// supervised only when one of them is set. The deadline is a job knob
/// (see [`crate::knobs`]); the rest are run settings.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Supervise {
    /// Checkpoint sidecar path (`--checkpoint`).
    pub checkpoint: Option<String>,
    /// Flush the checkpoint after every N completed records
    /// (`--checkpoint-every`, default 32).
    pub checkpoint_every: usize,
    /// Resume from an existing checkpoint (`--resume`).
    pub resume: bool,
    /// Cooperative deadline in seconds (`--deadline`).
    pub deadline_secs: Option<f64>,
}

impl Supervise {
    /// True when any supervisor feature was requested.
    pub fn is_active(&self) -> bool {
        self.checkpoint.is_some() || self.deadline_secs.is_some()
    }

    /// Cross-flag validation, run after the flag loop.
    fn validate(&self) -> Result<(), UsageError> {
        if self.resume && self.checkpoint.is_none() {
            return Err(err("`--resume` requires `--checkpoint PATH`"));
        }
        if self.checkpoint_every > 0 && self.checkpoint.is_none() {
            return Err(err("`--checkpoint-every` requires `--checkpoint PATH`"));
        }
        Ok(())
    }

    /// Handles one supervisor flag; returns false if `flag` is not one.
    fn parse_flag(&mut self, flag: &str, args: &mut Args<'_>) -> Result<bool, UsageError> {
        match flag {
            "--checkpoint" => self.checkpoint = Some(args.value_of(flag)?.to_string()),
            "--checkpoint-every" => {
                // 0 selects the default flush interval (32 records), so
                // scripts can pass a computed value without special-casing.
                let n: usize = parse_num(flag, args.value_of(flag)?)?;
                self.checkpoint_every = if n == 0 { 32 } else { n };
            }
            "--resume" => self.resume = true,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// Observability flags shared by `explore` and `pareto` (`--log-json`,
/// `--progress`). Both default to off; with both off the sweep runs with
/// zero observability overhead and byte-identical output.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ObsFlags {
    /// JSONL event-log path (`--log-json FILE`).
    pub log_json: Option<String>,
    /// Live progress line on stderr (`--progress`).
    pub progress: bool,
}

impl ObsFlags {
    /// True when any observability feature was requested.
    pub fn is_active(&self) -> bool {
        self.log_json.is_some() || self.progress
    }

    /// Handles one observability flag; returns false if `flag` is not one.
    fn parse_flag(&mut self, flag: &str, args: &mut Args<'_>) -> Result<bool, UsageError> {
        match flag {
            "--log-json" => self.log_json = Some(args.value_of(flag)?.to_string()),
            "--progress" => self.progress = true,
            _ => return Ok(false),
        }
        Ok(true)
    }
}

/// A parsed command line.
#[derive(Clone, PartialEq, Debug)]
pub enum Command {
    /// Full design-space exploration with optional bounds.
    Explore {
        /// Path to the kernel file.
        file: String,
        /// Off-chip part keyword (`cy7c`, `lp2m`, `16m`).
        part: String,
        /// Custom `Em` (nJ/access) overriding `part`.
        em_nj: Option<f64>,
        /// Use the natural (unoptimized) layout.
        natural: bool,
        /// Use the paper's analytical miss-rate model.
        analytical: bool,
        /// Cycle bound for the min-energy selection.
        bound_cycles: Option<f64>,
        /// Energy bound (nJ) for the min-time selection.
        bound_energy: Option<f64>,
        /// Print the Pareto frontier.
        pareto: bool,
        /// Print sweep telemetry (trace reuse, phase times, utilization).
        telemetry: bool,
        /// `--engine fused|per-design`: accepted and ignored (every sweep
        /// replays banked); still part of the job's cache key.
        engine: String,
        /// `--no-analytic`: accepted and ignored (no sweep resolves
        /// records in closed form).
        no_analytic: bool,
        /// Supervisor options (checkpoint/resume/deadline).
        supervise: Supervise,
        /// Observability options (JSONL event log, live progress).
        obs: ObsFlags,
    },
    /// The three-objective Pareto frontier over the paper grid, with
    /// admissible branch-and-bound pruning.
    Pareto {
        /// Path to the kernel file.
        file: String,
        /// Off-chip part keyword (`cy7c`, `lp2m`, `16m`).
        part: String,
        /// Custom `Em` (nJ/access) overriding `part`.
        em_nj: Option<f64>,
        /// Use the natural (unoptimized) layout.
        natural: bool,
        /// Output format: `csv` (default) or `json`.
        format: String,
        /// `--exhaustive`: accepted and ignored (every frontier comes from
        /// the exhaustive sweep).
        exhaustive: bool,
        /// Print sweep telemetry (phase times, frontier size): on stderr
        /// with CSV, embedded in the JSON otherwise.
        telemetry: bool,
        /// `--engine fused|per-design`: accepted and ignored (every sweep
        /// replays banked); still part of the job's cache key.
        engine: String,
        /// `--no-analytic`: accepted and ignored.
        no_analytic: bool,
        /// Supervisor options (checkpoint/resume/deadline).
        supervise: Supervise,
        /// Observability options (JSONL event log, live progress).
        obs: ObsFlags,
    },
    /// Certified bound-guided best-first search for the grid's
    /// single-objective optimum (`memexplore::search`), with an anytime
    /// gap certificate — the way into the million-design grids.
    Search {
        /// Path to the kernel file.
        file: String,
        /// Off-chip part keyword (`cy7c`, `lp2m`, `16m`).
        part: String,
        /// Custom `Em` (nJ/access) overriding `part`.
        em_nj: Option<f64>,
        /// Use the natural (unoptimized) layout.
        natural: bool,
        /// Objective to minimize.
        objective: Objective,
        /// Grid keyword: `paper` (default) or `expansive`.
        space: String,
        /// Beam width (`None` = exact search).
        beam: Option<usize>,
        /// Relative gap target (`0` certifies the optimum).
        gap: f64,
        /// Wall-clock budget in seconds (anytime result on expiry).
        deadline_secs: Option<f64>,
        /// Output format: `text` (default), `csv`, or `json`.
        format: String,
        /// Print search telemetry on stderr.
        telemetry: bool,
        /// `--no-analytic`: accepted and ignored.
        no_analytic: bool,
        /// Observability options (JSONL event log, live progress).
        obs: ObsFlags,
    },
    /// Distributed exploration: shard the design grid across local
    /// worker processes and/or attached daemons, with retry/backoff,
    /// straggler re-dispatch, and a byte-identical merge.
    Sweep {
        /// Path to the kernel or `.din` trace file.
        file: String,
        /// The explore job's knobs (no analytical model, no deadline).
        knobs: Knobs,
        /// Print merged sweep telemetry (including shard counters).
        telemetry: bool,
        /// Local worker processes to spawn (0 = coordinator-local only,
        /// unless daemons are attached).
        distributed: usize,
        /// Shard count override (default: 2 per worker slot).
        shards: Option<usize>,
        /// Daemon addresses to attach as workers over HTTP.
        attach: Vec<String>,
        /// Directory for per-shard checkpoint files (default: a
        /// temporary directory).
        shard_dir: Option<String>,
        /// Extra attempts allowed per shard after the first.
        retry_budget: u32,
        /// Base retry backoff in milliseconds.
        backoff_ms: u64,
        /// Heartbeat age (ms) before a straggler is re-dispatched.
        straggler_ms: u64,
        /// Observability options (JSONL event log, live progress).
        obs: ObsFlags,
    },
    /// One shard of a distributed sweep: evaluate grid designs
    /// `[start, end)` and stream records into a checkpoint file (the
    /// coordinator's wire format and crash-recovery journal).
    Worker {
        /// Path to the kernel or `.din` trace file.
        file: String,
        /// The shard job's knobs, including its `[start, end)` range of
        /// global design indices.
        knobs: Knobs,
        /// Checkpoint path (required: it is the result stream), flush
        /// interval and resume flag.
        supervise: Supervise,
    },
    /// Run the sweep-as-a-service daemon: exploration jobs over
    /// HTTP+JSON, fair scheduling onto a shared worker pool, and a
    /// content-addressed result cache with single-flight deduplication.
    Serve {
        /// Listen address (`HOST:PORT`; port 0 picks a free port).
        addr: String,
        /// Concurrent job slots (0 = one per available core).
        slots: usize,
        /// Result-cache capacity in entries.
        cache_entries: usize,
        /// Result-cache capacity in bytes.
        cache_bytes: usize,
        /// Deadline applied to jobs that do not set one (`None` = no cap).
        default_deadline: Option<f64>,
        /// Route explore jobs through the embedded shard coordinator
        /// onto N in-process workers (0 = off).
        distribute: usize,
        /// Observability options (JSONL event log, live progress).
        obs: ObsFlags,
    },
    /// Submit one job to a running `memx serve` daemon and print its
    /// response (the tiny client the CI smoke job and scripts use).
    Submit(SubmitRequest),
    /// Render a run summary from a `--log-json` event log.
    Report {
        /// Path to the JSONL event log.
        file: String,
    },
    /// Simulate one configuration.
    Simulate {
        /// Path to the kernel file.
        file: String,
        /// Cache size in bytes.
        cache: usize,
        /// Line size in bytes.
        line: usize,
        /// Associativity.
        assoc: usize,
        /// Tiling size.
        tiling: u64,
        /// Use the natural layout.
        natural: bool,
        /// Enable three-C miss classification.
        classify: bool,
    },
    /// Run the off-chip assignment and report the layout.
    Place {
        /// Path to the kernel file.
        file: String,
        /// Cache size in bytes.
        cache: u64,
        /// Line size in bytes.
        line: u64,
    },
    /// The §3 minimum cache size bound.
    MinCache {
        /// Path to the kernel file.
        file: String,
        /// Line size in bytes.
        line: u64,
    },
    /// Print the reference classes and cases.
    Classes {
        /// Path to the kernel file.
        file: String,
    },
    /// Emit the address trace in Dinero `.din` format.
    Trace {
        /// Path to the kernel file.
        file: String,
        /// Keep only reads.
        reads_only: bool,
    },
    /// Simulate a Dinero `.din` trace directly (no kernel knowledge).
    SimulateDin {
        /// Path to the `.din` file.
        file: String,
        /// Cache size in bytes.
        cache: usize,
        /// Line size in bytes.
        line: usize,
        /// Associativity.
        assoc: usize,
        /// Enable three-C miss classification.
        classify: bool,
        /// Output format: `text` (default), `csv`, or `json`.
        format: String,
    },
    /// Print usage.
    Help,
}

/// A command-line usage problem (bad flag, missing value, …).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for UsageError {}

fn err(msg: impl Into<String>) -> UsageError {
    UsageError(msg.into())
}

/// A tiny flag cursor over the argument list.
struct Args<'a> {
    items: &'a [String],
    pos: usize,
}

impl<'a> Args<'a> {
    fn next(&mut self) -> Option<&'a str> {
        let item = self.items.get(self.pos)?;
        self.pos += 1;
        Some(item)
    }

    fn value_of(&mut self, flag: &str) -> Result<&'a str, UsageError> {
        self.next()
            .ok_or_else(|| err(format!("flag `{flag}` needs a value")))
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, UsageError> {
    value
        .parse()
        .map_err(|_| err(format!("bad value `{value}` for `{flag}`")))
}

/// A flag's value in seconds, by the rule every deadline obeys.
fn seconds(flag: &str, args: &mut Args<'_>) -> Result<f64, UsageError> {
    let v = parse_num(flag, args.value_of(flag)?)?;
    SECONDS.check(&format!("`{flag}`"), v).map_err(err)
}

/// Applies `flag` when it names a knob that `takes` admits, reading its
/// value through the knob's row; false when it names none. Rows that
/// share a flag (`--format`) are tried in turn, so `memx submit`, which
/// admits every kind's knobs, takes the keywords of each.
fn parse_knob(
    knobs: &mut Knobs,
    flag: &str,
    args: &mut Args<'_>,
    takes: impl Fn(&Knob) -> bool,
) -> Result<bool, UsageError> {
    let mut rows = KNOBS
        .iter()
        .filter(|k| k.flag == flag && takes(k))
        .peekable();
    let Some(first) = rows.peek() else {
        return Ok(false);
    };
    let text = if first.is_switch() {
        ""
    } else {
        args.value_of(flag)?
    };
    let mut refusal = String::new();
    for row in rows {
        match row.parse_text(text) {
            Ok(value) => {
                knobs.set(row.id, value);
                return Ok(true);
            }
            Err(e) => refusal = e,
        }
    }
    Err(err(refusal))
}

/// The explore, pareto or search command of `kind` with `knobs` and the
/// run settings.
fn job_command(
    kind: JobKind,
    file: String,
    knobs: &Knobs,
    telemetry: bool,
    no_analytic: bool,
    supervise: Supervise,
    obs: ObsFlags,
) -> Command {
    let part = knobs.word(Id::Part).to_string();
    let (em_nj, natural) = (knobs.num(Id::Em), knobs.on(Id::Natural));
    let supervise = Supervise {
        deadline_secs: knobs.num(Id::Deadline),
        ..supervise
    };
    match kind {
        JobKind::Explore => Command::Explore {
            file,
            part,
            em_nj,
            natural,
            analytical: knobs.on(Id::Analytical),
            bound_cycles: knobs.num(Id::BoundCycles),
            bound_energy: knobs.num(Id::BoundEnergy),
            pareto: knobs.on(Id::Pareto),
            telemetry,
            engine: knobs.word(Id::Engine).to_string(),
            no_analytic,
            supervise,
            obs,
        },
        JobKind::Pareto => Command::Pareto {
            file,
            part,
            em_nj,
            natural,
            format: knobs.word(Id::ParetoFormat).to_string(),
            exhaustive: knobs.on(Id::Exhaustive),
            telemetry,
            engine: knobs.word(Id::Engine).to_string(),
            no_analytic,
            supervise,
            obs,
        },
        _ => Command::Search {
            file,
            part,
            em_nj,
            natural,
            objective: knobs.objective(),
            space: knobs.word(Id::Space).to_string(),
            beam: knobs.count(Id::Beam),
            gap: knobs.num(Id::Gap).unwrap_or_default(),
            deadline_secs: supervise.deadline_secs,
            format: knobs.word(Id::SearchFormat).to_string(),
            telemetry,
            no_analytic,
            obs,
        },
    }
}

/// Parses the argument vector (without the program name).
///
/// # Errors
///
/// [`UsageError`] describing the first problem; callers print it together
/// with [`USAGE`].
pub fn parse_args(argv: &[String]) -> Result<Command, UsageError> {
    let mut args = Args {
        items: argv,
        pos: 0,
    };
    let sub = args.next().ok_or_else(|| err("missing subcommand"))?;
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "explore" | "pareto" | "search" => {
            let kind = JobKind::parse(sub).expect("a sweep subcommand names its job kind");
            let file = args
                .next()
                .ok_or_else(|| err(format!("{sub} needs a kernel or trace file")))?
                .to_string();
            let mut knobs = Knobs::default();
            let (mut telemetry, mut no_analytic) = (false, false);
            let mut supervise = Supervise::default();
            let mut obs = ObsFlags::default();
            while let Some(flag) = args.next() {
                match flag {
                    "--telemetry" => telemetry = true,
                    "--no-analytic" => no_analytic = true,
                    _ if parse_knob(&mut knobs, flag, &mut args, |k| k.takes(kind))? => {}
                    // A search is never checkpointed; its deadline is a knob.
                    _ if kind != JobKind::Search && supervise.parse_flag(flag, &mut args)? => {}
                    _ if obs.parse_flag(flag, &mut args)? => {}
                    other => return Err(err(format!("unknown flag `{other}` for {sub}"))),
                }
            }
            supervise.validate()?;
            Ok(job_command(
                kind,
                file,
                &knobs,
                telemetry,
                no_analytic,
                supervise,
                obs,
            ))
        }
        "serve" => {
            let mut addr = "127.0.0.1:7199".to_string();
            let mut slots = 0usize;
            let mut cache_entries = 256usize;
            let mut cache_bytes = 64usize << 20;
            let mut default_deadline = None;
            let mut distribute = 0usize;
            let mut obs = ObsFlags::default();
            while let Some(flag) = args.next() {
                match flag {
                    "--addr" => {
                        let v = args.value_of(flag)?;
                        if !v.contains(':') {
                            return Err(err(format!("`--addr` needs HOST:PORT, got `{v}`")));
                        }
                        addr = v.to_string();
                    }
                    "--slots" => slots = parse_num(flag, args.value_of(flag)?)?,
                    "--cache-entries" => {
                        let n: usize = parse_num(flag, args.value_of(flag)?)?;
                        if n == 0 {
                            return Err(err("`--cache-entries` must be at least 1"));
                        }
                        cache_entries = n;
                    }
                    "--cache-bytes" => {
                        let n: usize = parse_num(flag, args.value_of(flag)?)?;
                        if n == 0 {
                            return Err(err("`--cache-bytes` must be at least 1"));
                        }
                        cache_bytes = n;
                    }
                    "--default-deadline" => default_deadline = Some(seconds(flag, &mut args)?),
                    "--distribute" => distribute = parse_num(flag, args.value_of(flag)?)?,
                    other => {
                        if !obs.parse_flag(other, &mut args)? {
                            return Err(err(format!("unknown flag `{other}` for serve")));
                        }
                    }
                }
            }
            Ok(Command::Serve {
                addr,
                slots,
                cache_entries,
                cache_bytes,
                default_deadline,
                distribute,
                obs,
            })
        }
        "submit" => {
            let addr = args
                .next()
                .ok_or_else(|| err("submit needs a daemon ADDR (HOST:PORT)"))?
                .to_string();
            if !addr.contains(':') {
                return Err(err(format!("submit ADDR needs HOST:PORT, got `{addr}`")));
            }
            let file = args
                .next()
                .ok_or_else(|| err("submit needs a kernel or trace file"))?
                .to_string();
            let mut job = JobKind::Explore;
            let mut knobs = Knobs::default();
            let mut wait_health_secs = None;
            let mut retries = 0u32;
            let mut backoff_ms = 250u64;
            while let Some(flag) = args.next() {
                match flag {
                    "--job" => {
                        let v = args.value_of(flag)?;
                        job = JobKind::parse(v)
                            .filter(|&k| k != JobKind::Shard)
                            .ok_or_else(|| {
                                err(format!(
                                    "unknown job `{v}` (expected explore, pareto, or search)"
                                ))
                            })?;
                    }
                    "--wait-health" => wait_health_secs = Some(seconds(flag, &mut args)?),
                    "--retries" => retries = parse_num(flag, args.value_of(flag)?)?,
                    "--backoff" => {
                        let ms: u64 = parse_num(flag, args.value_of(flag)?)?;
                        if ms == 0 {
                            return Err(err("`--backoff` must be at least 1 millisecond"));
                        }
                        backoff_ms = ms;
                    }
                    // The knobs of every sweep kind: the daemon checks
                    // them against `--job`.
                    _ if parse_knob(&mut knobs, flag, &mut args, |k| {
                        k.kinds.iter().any(|&kind| kind != JobKind::Shard)
                    })? => {}
                    other => return Err(err(format!("unknown flag `{other}` for submit"))),
                }
            }
            Ok(Command::Submit(SubmitRequest {
                addr,
                file,
                job,
                knobs,
                wait_health_secs,
                retries,
                backoff_ms,
            }))
        }
        "sweep" => {
            let file = args
                .next()
                .ok_or_else(|| err("sweep needs a kernel or trace file"))?
                .to_string();
            let mut knobs = Knobs::default();
            let mut telemetry = false;
            let mut distributed = None;
            let mut shards = None;
            let mut attach = Vec::new();
            let mut shard_dir = None;
            let mut retry_budget = 3u32;
            let mut backoff_ms = 100u64;
            let mut straggler_ms = 10_000u64;
            let mut obs = ObsFlags::default();
            while let Some(flag) = args.next() {
                match flag {
                    "--telemetry" => telemetry = true,
                    "--distributed" => distributed = Some(parse_num(flag, args.value_of(flag)?)?),
                    "--shards" => {
                        let n: usize = parse_num(flag, args.value_of(flag)?)?;
                        if n == 0 {
                            return Err(err("`--shards` must be at least 1"));
                        }
                        shards = Some(n);
                    }
                    "--attach" => {
                        let v = args.value_of(flag)?;
                        if !v.contains(':') {
                            return Err(err(format!("`--attach` needs HOST:PORT, got `{v}`")));
                        }
                        attach.push(v.to_string());
                    }
                    "--shard-dir" => shard_dir = Some(args.value_of(flag)?.to_string()),
                    "--retry-budget" => retry_budget = parse_num(flag, args.value_of(flag)?)?,
                    "--backoff-ms" => {
                        let ms: u64 = parse_num(flag, args.value_of(flag)?)?;
                        if ms == 0 {
                            return Err(err("`--backoff-ms` must be at least 1"));
                        }
                        backoff_ms = ms;
                    }
                    "--straggler-ms" => {
                        let ms: u64 = parse_num(flag, args.value_of(flag)?)?;
                        if ms == 0 {
                            return Err(err("`--straggler-ms` must be at least 1"));
                        }
                        straggler_ms = ms;
                    }
                    // The merged sweep is an explore over shard jobs: it
                    // has no analytical model and no deadline.
                    _ if parse_knob(&mut knobs, flag, &mut args, |k| {
                        k.takes(JobKind::Explore) && ![Id::Analytical, Id::Deadline].contains(&k.id)
                    })? => {}
                    _ if obs.parse_flag(flag, &mut args)? => {}
                    other => return Err(err(format!("unknown flag `{other}` for sweep"))),
                }
            }
            // `--attach` alone is a valid worker pool; `--distributed`
            // is only mandatory when no daemon is attached.
            let distributed =
                match distributed {
                    Some(n) => n,
                    None if !attach.is_empty() => 0,
                    None => return Err(err(
                        "sweep needs `--distributed N` (0 = local only) or `--attach HOST:PORT`",
                    )),
                };
            Ok(Command::Sweep {
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
            })
        }
        "worker" => {
            let file = args
                .next()
                .ok_or_else(|| err("worker needs a kernel or trace file"))?
                .to_string();
            let mut knobs = Knobs::default();
            let mut supervise = Supervise::default();
            while let Some(flag) = args.next() {
                match flag {
                    _ if parse_knob(&mut knobs, flag, &mut args, |k| k.takes(JobKind::Shard))? => {}
                    _ if supervise.parse_flag(flag, &mut args)? => {}
                    other => return Err(err(format!("unknown flag `{other}` for worker"))),
                }
            }
            if !knobs.given(Id::Start) {
                return Err(err("worker needs `--start I`"));
            }
            if !knobs.given(Id::End) {
                return Err(err("worker needs `--end J`"));
            }
            knobs.shard_range().map_err(err)?;
            if supervise.checkpoint.is_none() {
                return Err(err("worker needs `--checkpoint PATH` (the result stream)"));
            }
            Ok(Command::Worker {
                file,
                knobs,
                supervise,
            })
        }
        "report" => {
            let file = args
                .next()
                .ok_or_else(|| err("report needs a JSONL log file"))?
                .to_string();
            if let Some(extra) = args.next() {
                return Err(err(format!("unexpected argument `{extra}`")));
            }
            Ok(Command::Report { file })
        }
        "simulate" => {
            let file = args
                .next()
                .ok_or_else(|| err("simulate needs a kernel file"))?
                .to_string();
            let (mut cache, mut line) = (None, None);
            let (mut assoc, mut tiling) = (1usize, 1u64);
            let (mut natural, mut classify) = (false, false);
            while let Some(flag) = args.next() {
                match flag {
                    "--cache" => cache = Some(parse_num(flag, args.value_of(flag)?)?),
                    "--line" => line = Some(parse_num(flag, args.value_of(flag)?)?),
                    "--assoc" => assoc = parse_num(flag, args.value_of(flag)?)?,
                    "--tiling" => tiling = parse_num(flag, args.value_of(flag)?)?,
                    "--natural" => natural = true,
                    "--classify" => classify = true,
                    other => return Err(err(format!("unknown flag `{other}` for simulate"))),
                }
            }
            Ok(Command::Simulate {
                file,
                cache: cache.ok_or_else(|| err("simulate needs --cache"))?,
                line: line.ok_or_else(|| err("simulate needs --line"))?,
                assoc,
                tiling,
                natural,
                classify,
            })
        }
        "place" | "min-cache" => {
            let is_place = sub == "place";
            let file = args
                .next()
                .ok_or_else(|| err(format!("{sub} needs a kernel file")))?
                .to_string();
            let (mut cache, mut line) = (None, None);
            while let Some(flag) = args.next() {
                match flag {
                    "--cache" if is_place => cache = Some(parse_num(flag, args.value_of(flag)?)?),
                    "--line" => line = Some(parse_num(flag, args.value_of(flag)?)?),
                    other => return Err(err(format!("unknown flag `{other}` for {sub}"))),
                }
            }
            let line = line.ok_or_else(|| err(format!("{sub} needs --line")))?;
            if is_place {
                Ok(Command::Place {
                    file,
                    cache: cache.ok_or_else(|| err("place needs --cache"))?,
                    line,
                })
            } else {
                Ok(Command::MinCache { file, line })
            }
        }
        "classes" => {
            let file = args
                .next()
                .ok_or_else(|| err("classes needs a kernel file"))?
                .to_string();
            if let Some(extra) = args.next() {
                return Err(err(format!("unexpected argument `{extra}`")));
            }
            Ok(Command::Classes { file })
        }
        "simulate-din" => {
            let file = args
                .next()
                .ok_or_else(|| err("simulate-din needs a trace file"))?
                .to_string();
            let (mut cache, mut line) = (None, None);
            let mut assoc = 1usize;
            let mut classify = false;
            let mut format = "text".to_string();
            while let Some(flag) = args.next() {
                match flag {
                    "--cache" => cache = Some(parse_num(flag, args.value_of(flag)?)?),
                    "--line" => line = Some(parse_num(flag, args.value_of(flag)?)?),
                    "--assoc" => assoc = parse_num(flag, args.value_of(flag)?)?,
                    "--classify" => classify = true,
                    "--format" => {
                        let v = args.value_of(flag)?;
                        if !["text", "csv", "json"].contains(&v) {
                            return Err(err(format!(
                                "unknown format `{v}` (expected text, csv, or json)"
                            )));
                        }
                        format = v.to_string();
                    }
                    other => return Err(err(format!("unknown flag `{other}` for simulate-din"))),
                }
            }
            Ok(Command::SimulateDin {
                file,
                cache: cache.ok_or_else(|| err("simulate-din needs --cache"))?,
                line: line.ok_or_else(|| err("simulate-din needs --line"))?,
                assoc,
                classify,
                format,
            })
        }
        "trace" => {
            let file = args
                .next()
                .ok_or_else(|| err("trace needs a kernel file"))?
                .to_string();
            let mut reads_only = false;
            while let Some(flag) = args.next() {
                match flag {
                    "--reads-only" => reads_only = true,
                    // `.din` is already the only output format; the flag is
                    // accepted so scripts can state the intent explicitly.
                    "--din" => {}
                    other => return Err(err(format!("unknown flag `{other}` for trace"))),
                }
            }
            Ok(Command::Trace { file, reads_only })
        }
        other => Err(err(format!("unknown subcommand `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_explore_with_all_flags() {
        let cmd = parse_args(&argv(
            "explore k.mx --part 16m --natural --analytical --bound-cycles 5000 --bound-energy 5500 --pareto --telemetry --engine per-design --no-analytic",
        ))
        .expect("valid");
        match cmd {
            Command::Explore {
                file,
                part,
                natural,
                analytical,
                bound_cycles,
                bound_energy,
                pareto,
                telemetry,
                em_nj,
                engine,
                no_analytic,
                supervise,
                obs,
            } => {
                assert_eq!(file, "k.mx");
                assert_eq!(part, "16m");
                assert!(natural && analytical && pareto && telemetry);
                assert!(no_analytic);
                assert_eq!(bound_cycles, Some(5000.0));
                assert_eq!(bound_energy, Some(5500.0));
                assert_eq!(em_nj, None);
                assert_eq!(engine, "per-design");
                assert_eq!(supervise, Supervise::default());
                assert!(!supervise.is_active());
                assert_eq!(obs, ObsFlags::default());
                assert!(!obs.is_active());
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn telemetry_defaults_off() {
        match parse_args(&argv("explore k.mx")).expect("valid") {
            Command::Explore { telemetry, .. } => assert!(!telemetry),
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parses_pareto_with_all_flags() {
        let cmd = parse_args(&argv(
            "pareto k.mx --part lp2m --natural --format json --exhaustive --telemetry --no-analytic",
        ))
        .expect("valid");
        match cmd {
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
                assert_eq!(file, "k.mx");
                assert_eq!(part, "lp2m");
                assert_eq!(em_nj, None);
                assert!(natural && exhaustive && telemetry);
                assert!(no_analytic);
                assert_eq!(format, "json");
                assert_eq!(engine, "fused");
                assert!(!supervise.is_active());
                assert!(!obs.is_active());
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn pareto_defaults_to_csv() {
        match parse_args(&argv("pareto k.mx")).expect("valid") {
            Command::Pareto {
                format,
                exhaustive,
                telemetry,
                ..
            } => {
                assert_eq!(format, "csv");
                assert!(!exhaustive && !telemetry);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn parses_search_with_all_flags() {
        let cmd = parse_args(&argv(
            "search k.mx --objective weighted=1,0.5 --space expansive --beam 16 \
             --gap 0.01 --deadline 30 --format json --part lp2m --natural \
             --telemetry --no-analytic --log-json run.jsonl --progress",
        ))
        .expect("valid");
        match cmd {
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
                assert_eq!(file, "k.mx");
                assert_eq!(part, "lp2m");
                assert_eq!(em_nj, None);
                assert!(natural && telemetry);
                assert!(no_analytic);
                assert_eq!(
                    objective,
                    Objective::Weighted {
                        energy_weight: 1.0,
                        cycles_weight: 0.5
                    }
                );
                assert_eq!(space, "expansive");
                assert_eq!(beam, Some(16));
                assert_eq!(gap, 0.01);
                assert_eq!(deadline_secs, Some(30.0));
                assert_eq!(format, "json");
                assert_eq!(obs.log_json.as_deref(), Some("run.jsonl"));
                assert!(obs.progress);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn search_defaults_to_exact_energy_on_the_paper_grid() {
        match parse_args(&argv("search k.mx")).expect("valid") {
            Command::Search {
                objective,
                space,
                beam,
                gap,
                deadline_secs,
                format,
                ..
            } => {
                assert_eq!(objective, Objective::Energy);
                assert_eq!(space, "paper");
                assert_eq!(beam, None);
                assert_eq!(gap, 0.0);
                assert_eq!(deadline_secs, None);
                assert_eq!(format, "text");
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn search_rejects_bad_values() {
        for (line, needle) in [
            ("search k.mx --objective speed", "unknown objective"),
            ("search k.mx --objective weighted=-1,2", "non-negative"),
            ("search k.mx --space tiny", "unknown space"),
            ("search k.mx --beam 0", "--beam"),
            ("search k.mx --gap -0.1", "--gap"),
            ("search k.mx --deadline 0", "--deadline"),
            ("search k.mx --format yaml", "unknown format"),
            ("search k.mx --checkpoint c.bin", "unknown flag"),
        ] {
            let e = parse_args(&argv(line)).expect_err(line);
            assert!(e.0.contains(needle), "{line}: {e}");
        }
    }

    #[test]
    fn engine_defaults_to_fused_and_rejects_unknown_values() {
        match parse_args(&argv("explore k.mx")).expect("valid") {
            Command::Explore { engine, .. } => assert_eq!(engine, "fused"),
            other => panic!("wrong command: {other:?}"),
        }
        match parse_args(&argv("pareto k.mx --engine per-design")).expect("valid") {
            Command::Pareto { engine, .. } => assert_eq!(engine, "per-design"),
            other => panic!("wrong command: {other:?}"),
        }
        let e = parse_args(&argv("explore k.mx --engine turbo")).expect_err("should fail");
        assert!(e.0.contains("turbo"));
        assert!(parse_args(&argv("pareto k.mx --engine")).is_err());
    }

    #[test]
    fn pareto_rejects_bad_format() {
        let e = parse_args(&argv("pareto k.mx --format xml")).expect_err("should fail");
        assert!(e.0.contains("xml"));
        assert!(parse_args(&argv("pareto")).is_err());
    }

    #[test]
    fn simulate_requires_geometry() {
        let e = parse_args(&argv("simulate k.mx --cache 64")).expect_err("should fail");
        assert!(e.0.contains("--line"));
        let ok = parse_args(&argv(
            "simulate k.mx --cache 64 --line 8 --assoc 2 --classify",
        ))
        .expect("valid");
        assert!(matches!(
            ok,
            Command::Simulate {
                cache: 64,
                line: 8,
                assoc: 2,
                classify: true,
                ..
            }
        ));
    }

    #[test]
    fn parses_supervisor_flags_on_both_sweeps() {
        let cmd = parse_args(&argv(
            "explore k.mx --checkpoint sweep.ckpt --checkpoint-every 8 --resume --deadline 2.5",
        ))
        .expect("valid");
        match cmd {
            Command::Explore { supervise, .. } => {
                assert_eq!(supervise.checkpoint.as_deref(), Some("sweep.ckpt"));
                assert_eq!(supervise.checkpoint_every, 8);
                assert!(supervise.resume);
                assert_eq!(supervise.deadline_secs, Some(2.5));
                assert!(supervise.is_active());
            }
            other => panic!("wrong command: {other:?}"),
        }
        match parse_args(&argv("pareto k.mx --checkpoint p.ckpt")).expect("valid") {
            Command::Pareto { supervise, .. } => {
                assert_eq!(supervise.checkpoint.as_deref(), Some("p.ckpt"));
                assert!(!supervise.resume);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn supervisor_flag_combinations_are_validated() {
        let e = parse_args(&argv("explore k.mx --resume")).expect_err("should fail");
        assert!(e.0.contains("--checkpoint"), "{e}");
        let e = parse_args(&argv("pareto k.mx --checkpoint-every 4")).expect_err("should fail");
        assert!(e.0.contains("--checkpoint"), "{e}");
        assert!(parse_args(&argv("explore k.mx --deadline 0")).is_err());
        assert!(parse_args(&argv("explore k.mx --deadline -3")).is_err());
        assert!(parse_args(&argv("explore k.mx --checkpoint")).is_err());
    }

    #[test]
    fn checkpoint_every_zero_selects_the_default_interval() {
        match parse_args(&argv("explore k.mx --checkpoint c --checkpoint-every 0")).expect("valid")
        {
            Command::Explore { supervise, .. } => assert_eq!(supervise.checkpoint_every, 32),
            other => panic!("wrong command: {other:?}"),
        }
        // The flag still requires a checkpoint path, even spelled as 0.
        assert!(parse_args(&argv("explore k.mx --checkpoint-every 0")).is_err());
    }

    #[test]
    fn parses_observability_flags_on_both_sweeps() {
        match parse_args(&argv("explore k.mx --log-json run.jsonl --progress")).expect("valid") {
            Command::Explore { obs, .. } => {
                assert_eq!(obs.log_json.as_deref(), Some("run.jsonl"));
                assert!(obs.progress && obs.is_active());
            }
            other => panic!("wrong command: {other:?}"),
        }
        match parse_args(&argv("pareto k.mx --progress")).expect("valid") {
            Command::Pareto { obs, .. } => {
                assert_eq!(obs.log_json, None);
                assert!(obs.progress && obs.is_active());
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse_args(&argv("explore k.mx --log-json")).is_err());
    }

    #[test]
    fn serve_defaults_and_flags() {
        match parse_args(&argv("serve")).expect("valid") {
            Command::Serve {
                addr,
                slots,
                cache_entries,
                cache_bytes,
                default_deadline,
                distribute,
                obs,
            } => {
                assert_eq!(addr, "127.0.0.1:7199");
                assert_eq!(slots, 0);
                assert_eq!(cache_entries, 256);
                assert_eq!(cache_bytes, 64 << 20);
                assert_eq!(default_deadline, None);
                assert_eq!(distribute, 0);
                assert!(!obs.is_active());
            }
            other => panic!("wrong command: {other:?}"),
        }
        match parse_args(&argv(
            "serve --addr 0.0.0.0:9000 --slots 4 --cache-entries 8 --cache-bytes 1024 \
             --default-deadline 30 --distribute 2 --log-json serve.jsonl --progress",
        ))
        .expect("valid")
        {
            Command::Serve {
                addr,
                slots,
                cache_entries,
                cache_bytes,
                default_deadline,
                distribute,
                obs,
            } => {
                assert_eq!(addr, "0.0.0.0:9000");
                assert_eq!(slots, 4);
                assert_eq!(cache_entries, 8);
                assert_eq!(cache_bytes, 1024);
                assert_eq!(default_deadline, Some(30.0));
                assert_eq!(distribute, 2);
                assert_eq!(obs.log_json.as_deref(), Some("serve.jsonl"));
                assert!(obs.progress);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn serve_rejects_bad_values() {
        for (line, needle) in [
            ("serve --addr nocolon", "HOST:PORT"),
            ("serve --cache-entries 0", "--cache-entries"),
            ("serve --cache-bytes 0", "--cache-bytes"),
            ("serve --default-deadline 0", "--default-deadline"),
            ("serve --default-deadline -5", "--default-deadline"),
            ("serve --telemetry", "unknown flag"),
            ("serve --wat", "unknown flag"),
        ] {
            let e = parse_args(&argv(line)).expect_err(line);
            assert!(e.0.contains(needle), "{line}: {e}");
        }
    }

    fn submit(line: &str) -> SubmitRequest {
        match parse_args(&argv(line)).expect("valid") {
            Command::Submit(request) => request,
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn submit_defaults_and_flags() {
        let request = submit("submit 127.0.0.1:7199 k.mx");
        assert_eq!(request.addr, "127.0.0.1:7199");
        assert_eq!(request.file, "k.mx");
        assert_eq!(request.job, JobKind::Explore);
        assert_eq!(request.knobs, Knobs::default());
        assert_eq!(request.knobs.word(Id::Part), "cy7c");
        assert_eq!(request.knobs.word(Id::Engine), "fused");
        assert_eq!(request.knobs.word(Id::Space), "paper");
        assert_eq!(request.knobs.num(Id::Gap), Some(0.0));
        assert_eq!(request.wait_health_secs, None);
        let request = submit(
            "submit h:1 k.mx --job search --objective cycles --space expansive \
             --beam 8 --gap 0.05 --deadline 10 --wait-health 5 --format json",
        );
        let knobs = request.knobs;
        assert_eq!(request.job, JobKind::Search);
        assert_eq!(knobs.objective(), Objective::Cycles);
        assert_eq!(knobs.word(Id::Space), "expansive");
        assert_eq!(knobs.count(Id::Beam), Some(8));
        assert_eq!(knobs.num(Id::Gap), Some(0.05));
        assert_eq!(knobs.num(Id::Deadline), Some(10.0));
        assert_eq!(request.wait_health_secs, Some(5.0));
        // `json` is a pareto keyword too; either row's value is sent as
        // the one `format` member.
        assert!(knobs.given(Id::ParetoFormat) || knobs.given(Id::SearchFormat));
        assert!(!knobs.given(Id::Part));
    }

    #[test]
    fn submit_rejects_bad_values() {
        for (line, needle) in [
            ("submit", "ADDR"),
            ("submit nocolon k.mx", "HOST:PORT"),
            ("submit h:1", "kernel or trace file"),
            ("submit h:1 k.mx --job simulate", "unknown job"),
            ("submit h:1 k.mx --beam 0", "--beam"),
            ("submit h:1 k.mx --gap -1", "--gap"),
            ("submit h:1 k.mx --deadline 0", "--deadline"),
            ("submit h:1 k.mx --wait-health 0", "--wait-health"),
            ("submit h:1 k.mx --telemetry", "unknown flag"),
        ] {
            let e = parse_args(&argv(line)).expect_err(line);
            assert!(e.0.contains(needle), "{line}: {e}");
        }
    }

    #[test]
    fn submit_parses_retry_flags_with_defaults() {
        let request = submit("submit h:1 k.mx");
        assert_eq!((request.retries, request.backoff_ms), (0, 250));
        let request = submit("submit h:1 k.mx --retries 4 --backoff 50");
        assert_eq!((request.retries, request.backoff_ms), (4, 50));
        for (line, needle) in [
            ("submit h:1 k.mx --retries many", "--retries"),
            ("submit h:1 k.mx --backoff 0", "--backoff"),
            ("submit h:1 k.mx --backoff", "--backoff"),
        ] {
            let e = parse_args(&argv(line)).expect_err(line);
            assert!(e.0.contains(needle), "{line}: {e}");
        }
    }

    #[test]
    fn serve_parses_distribute() {
        match parse_args(&argv("serve --distribute 4")).expect("valid") {
            Command::Serve { distribute, .. } => assert_eq!(distribute, 4),
            other => panic!("wrong command: {other:?}"),
        }
        match parse_args(&argv("serve")).expect("valid") {
            Command::Serve { distribute, .. } => assert_eq!(distribute, 0),
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn sweep_parses_with_defaults_and_flags() {
        match parse_args(&argv("sweep k.mx --distributed 2")).expect("valid") {
            Command::Sweep {
                file,
                distributed,
                shards,
                attach,
                retry_budget,
                backoff_ms,
                straggler_ms,
                knobs,
                ..
            } => {
                assert_eq!(file, "k.mx");
                assert_eq!(distributed, 2);
                assert_eq!(shards, None);
                assert!(attach.is_empty());
                assert_eq!(retry_budget, 3);
                assert_eq!(backoff_ms, 100);
                assert_eq!(straggler_ms, 10_000);
                assert!(!knobs.on(Id::Pareto));
            }
            other => panic!("wrong command: {other:?}"),
        }
        match parse_args(&argv(
            "sweep t.din --distributed 0 --shards 8 --attach h:1 --attach h:2 \
             --shard-dir /tmp/s --retry-budget 1 --backoff-ms 10 --straggler-ms 500 \
             --part lp2m --natural --pareto --telemetry --bound-cycles 9000",
        ))
        .expect("valid")
        {
            Command::Sweep {
                distributed,
                shards,
                attach,
                shard_dir,
                retry_budget,
                backoff_ms,
                straggler_ms,
                knobs,
                telemetry,
                ..
            } => {
                assert_eq!(distributed, 0);
                assert_eq!(shards, Some(8));
                assert_eq!(attach, vec!["h:1".to_string(), "h:2".to_string()]);
                assert_eq!(shard_dir.as_deref(), Some("/tmp/s"));
                assert_eq!(retry_budget, 1);
                assert_eq!(backoff_ms, 10);
                assert_eq!(straggler_ms, 500);
                assert_eq!(knobs.word(Id::Part), "lp2m");
                assert!(knobs.on(Id::Natural) && knobs.on(Id::Pareto) && telemetry);
                assert_eq!(knobs.num(Id::BoundCycles), Some(9000.0));
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn sweep_rejects_bad_values() {
        for (line, needle) in [
            ("sweep", "kernel or trace"),
            ("sweep k.mx", "--distributed"),
            ("sweep k.mx --distributed 2 --shards 0", "--shards"),
            ("sweep k.mx --distributed 2 --attach nocolon", "HOST:PORT"),
            ("sweep k.mx --distributed 2 --backoff-ms 0", "--backoff-ms"),
            (
                "sweep k.mx --distributed 2 --straggler-ms 0",
                "--straggler-ms",
            ),
            ("sweep k.mx --distributed 2 --checkpoint c", "unknown flag"),
            ("sweep k.mx --distributed 2 --analytical", "unknown flag"),
            ("sweep k.mx --distributed 2 --deadline 5", "unknown flag"),
        ] {
            let e = parse_args(&argv(line)).expect_err(line);
            assert!(e.0.contains(needle), "{line}: {e}");
        }
    }

    #[test]
    fn worker_parses_and_validates_its_range() {
        match parse_args(&argv(
            "worker k.mx --start 5 --end 10 --checkpoint s.ckpt --checkpoint-every 0 --resume \
             --engine per-design --part 16m",
        ))
        .expect("valid")
        {
            Command::Worker {
                file,
                knobs,
                supervise,
            } => {
                assert_eq!(file, "k.mx");
                assert_eq!(knobs.shard_range(), Ok((5, 10)));
                assert_eq!(supervise.checkpoint.as_deref(), Some("s.ckpt"));
                assert_eq!(supervise.checkpoint_every, 32);
                assert!(supervise.resume);
                assert_eq!(knobs.word(Id::Engine), "per-design");
                assert_eq!(knobs.word(Id::Part), "16m");
            }
            other => panic!("wrong command: {other:?}"),
        }
        for (line, needle) in [
            ("worker k.mx --end 3 --checkpoint c", "--start"),
            ("worker k.mx --start 0 --checkpoint c", "--end"),
            ("worker k.mx --start 3 --end 3 --checkpoint c", "greater"),
            ("worker k.mx --start 0 --end 5", "--checkpoint"),
            (
                "worker k.mx --start 0 --end 5 --checkpoint c --wat",
                "unknown flag",
            ),
        ] {
            let e = parse_args(&argv(line)).expect_err(line);
            assert!(e.0.contains(needle), "{line}: {e}");
        }
    }

    #[test]
    fn parses_report_command() {
        assert_eq!(
            parse_args(&argv("report run.jsonl")).expect("valid"),
            Command::Report {
                file: "run.jsonl".into()
            }
        );
        assert!(parse_args(&argv("report")).is_err());
        assert!(parse_args(&argv("report a.jsonl b.jsonl")).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_with_context() {
        let e = parse_args(&argv("explore k.mx --wat")).expect_err("should fail");
        assert!(e.0.contains("--wat") && e.0.contains("explore"));
    }

    #[test]
    fn unknown_part_is_rejected() {
        let e = parse_args(&argv("explore k.mx --part dram")).expect_err("should fail");
        assert!(e.0.contains("dram"));
    }

    #[test]
    fn help_variants() {
        for h in ["help", "--help", "-h"] {
            assert_eq!(parse_args(&argv(h)).expect("valid"), Command::Help);
        }
    }

    #[test]
    fn missing_subcommand() {
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn place_and_min_cache() {
        assert!(matches!(
            parse_args(&argv("place k.mx --cache 64 --line 8")).expect("valid"),
            Command::Place {
                cache: 64,
                line: 8,
                ..
            }
        ));
        assert!(matches!(
            parse_args(&argv("min-cache k.mx --line 16")).expect("valid"),
            Command::MinCache { line: 16, .. }
        ));
        // place's --cache is not valid for min-cache.
        assert!(parse_args(&argv("min-cache k.mx --cache 64 --line 8")).is_err());
    }

    #[test]
    fn simulate_din_parses() {
        let ok =
            parse_args(&argv("simulate-din t.din --cache 128 --line 16 --assoc 4")).expect("valid");
        match ok {
            Command::SimulateDin {
                cache,
                line,
                assoc,
                classify,
                format,
                ..
            } => {
                assert_eq!((cache, line, assoc), (128, 16, 4));
                assert!(!classify);
                assert_eq!(format, "text");
            }
            other => panic!("wrong command: {other:?}"),
        }
        assert!(parse_args(&argv("simulate-din t.din --line 16")).is_err());
    }

    #[test]
    fn simulate_din_formats() {
        for f in ["text", "csv", "json"] {
            let line = format!("simulate-din t.din --cache 64 --line 8 --format {f}");
            match parse_args(&argv(&line)).expect("valid") {
                Command::SimulateDin { format, .. } => assert_eq!(format, f),
                other => panic!("wrong command: {other:?}"),
            }
        }
        let e = parse_args(&argv(
            "simulate-din t.din --cache 64 --line 8 --format yaml",
        ))
        .expect_err("should fail");
        assert!(e.0.contains("yaml"));
    }

    #[test]
    fn trace_accepts_din_marker() {
        assert_eq!(
            parse_args(&argv("trace k.mx --din --reads-only")).expect("valid"),
            Command::Trace {
                file: "k.mx".into(),
                reads_only: true,
            }
        );
        assert!(parse_args(&argv("trace k.mx --json")).is_err());
    }

    #[test]
    fn bad_numbers_are_reported() {
        let e = parse_args(&argv("simulate k.mx --cache sixty --line 8")).expect_err("fail");
        assert!(e.0.contains("sixty"));
    }
}
