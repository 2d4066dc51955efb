//! The job knobs, in one table.
//!
//! An explore, pareto, search or shard job is its kind, its input and its
//! knobs. Every knob is one row of `KNOBS`: its CLI flag and JSON
//! member, the job kinds that take it, its default and validator
//! (`Ty`), its rule on a `.din` input (`OnTrace`) and its cache-key
//! label. The argv parsers, `JobSpec::from_json`, `JobSpec::cache_key`,
//! the `memx submit` body and the shard executors' requests are loops
//! over the table, so a knob is spelled, defaulted, checked and rendered
//! in one place. Run settings that are not part of a job's identity
//! (`--telemetry`, checkpoints, logs) and the coordinator and serve
//! settings are not knobs.

use memexplore::obs::{push_json_str, Json};
use memexplore::Objective;
use std::fmt::Write as _;
use std::time::Duration;

/// The job kinds: the three sweep commands and the distributed sweep's
/// shard.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum JobKind {
    /// Exhaustive paper-grid sweep (`memx explore`).
    Explore,
    /// Three-objective Pareto frontier (`memx pareto`).
    Pareto,
    /// Certified bound-guided search (`memx search`).
    Search,
    /// One shard of a distributed sweep: evaluate `[start, end)` of the
    /// workload's grid and answer with the checkpoint wire bytes
    /// (hex-encoded in `stdout`) plus quarantine lines (`stderr`). The
    /// `memx sweep --attach` coordinator is the client; `memx worker`
    /// runs one from the command line.
    Shard,
}

impl JobKind {
    /// The kind's name: its subcommand and its JSON `command`.
    pub fn as_str(self) -> &'static str {
        match self {
            JobKind::Explore => "explore",
            JobKind::Pareto => "pareto",
            JobKind::Search => "search",
            JobKind::Shard => "shard",
        }
    }

    pub(crate) fn parse(name: &str) -> Option<JobKind> {
        [
            JobKind::Explore,
            JobKind::Pareto,
            JobKind::Search,
            JobKind::Shard,
        ]
        .into_iter()
        .find(|k| k.as_str() == name)
    }
}

/// A knob's name: the index of its row in [`KNOBS`]. Each is named after
/// its flag; `ParetoFormat` and `SearchFormat` are the `--format` of the
/// two kinds that take one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Id {
    Part,
    Em,
    Natural,
    Deadline,
    Engine,
    Analytical,
    BoundCycles,
    BoundEnergy,
    Pareto,
    ParetoFormat,
    Exhaustive,
    Objective,
    Space,
    Beam,
    Gap,
    SearchFormat,
    Start,
    End,
}

/// A knob's value.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum Value {
    /// An optional knob left unset.
    Unset,
    /// A switch.
    On(bool),
    /// One of the row's keywords.
    Word(&'static str),
    /// A number.
    Num(f64),
    /// A non-negative integer.
    Count(usize),
    /// A search objective.
    Objective(Objective),
}

/// A numeric rule: the test, and what a value that fails it must be.
#[derive(Clone, Copy)]
pub(crate) struct Rule(fn(f64) -> bool, &'static str);

impl Rule {
    /// The value, or why it fails: "`{name}` must be …".
    pub(crate) fn check(self, name: &str, v: f64) -> Result<f64, String> {
        if (self.0)(v) {
            Ok(v)
        } else {
            Err(format!("{name} must be {}", self.1))
        }
    }
}

const ANY: Rule = Rule(|_| true, "a number");
const POSITIVE: Rule = Rule(|v| v.is_finite() && v > 0.0, "a positive finite number");
const FRACTION: Rule = Rule(
    |v| v.is_finite() && v >= 0.0,
    "a finite non-negative fraction",
);
/// Positive seconds that fit in a [`Duration`]; every deadline and wait
/// budget obeys it, so none can panic when it is converted.
pub(crate) const SECONDS: Rule = Rule(
    |v| v > 0.0 && Duration::try_from_secs_f64(v).is_ok(),
    "a positive number of seconds",
);

/// How a knob's value is spelled, checked and defaulted.
pub(crate) enum Ty {
    /// A bare flag or a JSON boolean, off by default.
    Switch,
    /// One of these keywords; the first is the default.
    Word(&'static [&'static str]),
    /// A number that obeys the rule; unset unless it has a default.
    Num(Option<f64>, Rule),
    /// An integer of at least `min`; unset unless it has a default.
    Count(Option<usize>, usize),
    /// `energy`, `cycles` or `weighted=WE,WC`; `energy` by default.
    Objective,
}

/// What a `.din` input does with a knob. A streamed trace sweep has one
/// engine and no analytical model, and it sweeps the fixed trace grid
/// exhaustively, so some knobs mean nothing there. The CLI acts on such
/// a knob only when it is set away from its default: it refuses the
/// knobs that would change what is computed (exit 1, before the file is
/// read), warns on those that only change how, and lets the rest pass.
/// The JSON API rejects every such member with a 400, even at its
/// default and even where a kernel job of that kind ignores it.
#[derive(PartialEq)]
pub(crate) enum OnTrace {
    /// Means the same on a trace.
    Same,
    /// The CLI refuses it with this message.
    Refuse(&'static str),
    /// The CLI warns that it is ignored, for this reason.
    Warn(&'static str),
    /// The CLI lets it pass without effect.
    Ignore,
}

/// One job knob.
pub(crate) struct Knob {
    pub id: Id,
    /// The CLI flag.
    pub flag: &'static str,
    /// The JSON member of a `POST /v1/jobs` body.
    pub member: &'static str,
    /// The job kinds that take it.
    pub kinds: &'static [JobKind],
    pub ty: Ty,
    pub on_trace: OnTrace,
    /// Its label in the cache key; `None` when it does not change the
    /// result bytes.
    pub key: Option<&'static str>,
}

use JobKind::{Explore, Pareto, Search, Shard};

const ALL: &[JobKind] = &[Explore, Pareto, Search, Shard];

/// Every job knob. The cache key renders a kind's knobs in this order.
/// `--format` has a row per kind because its keywords and default
/// differ.
pub(crate) const KNOBS: [Knob; 18] = [
    Knob {
        id: Id::Part,
        flag: "--part",
        member: "part",
        kinds: ALL,
        ty: Ty::Word(&["cy7c", "lp2m", "16m"]),
        on_trace: OnTrace::Same,
        key: Some("part"),
    },
    Knob {
        id: Id::Em,
        flag: "--em",
        member: "em_nj",
        kinds: ALL,
        ty: Ty::Num(None, POSITIVE),
        on_trace: OnTrace::Same,
        key: Some("em"),
    },
    Knob {
        id: Id::Natural,
        flag: "--natural",
        member: "natural",
        kinds: ALL,
        ty: Ty::Switch,
        on_trace: OnTrace::Same,
        key: Some("natural"),
    },
    // Not in the key: a deadline selects how long to wait, not what the
    // job computes, and cancelled results are never cached.
    Knob {
        id: Id::Deadline,
        flag: "--deadline",
        member: "deadline_secs",
        kinds: &[Explore, Pareto, Search],
        ty: Ty::Num(None, SECONDS),
        on_trace: OnTrace::Same,
        key: None,
    },
    Knob {
        id: Id::Engine,
        flag: "--engine",
        member: "engine",
        kinds: &[Explore, Pareto, Shard],
        ty: Ty::Word(&["fused", "per-design"]),
        on_trace: OnTrace::Warn("streamed sweeps are always banked"),
        key: Some("engine"),
    },
    Knob {
        id: Id::Analytical,
        flag: "--analytical",
        member: "analytical",
        kinds: &[Explore],
        ty: Ty::Switch,
        on_trace: OnTrace::Refuse(
            "`--analytical` needs a kernel: the closed-form miss-rate model \
             has no meaning for a recorded `.din` trace",
        ),
        key: Some("analytical"),
    },
    Knob {
        id: Id::BoundCycles,
        flag: "--bound-cycles",
        member: "bound_cycles",
        kinds: &[Explore],
        ty: Ty::Num(None, ANY),
        on_trace: OnTrace::Same,
        key: Some("bound_cycles"),
    },
    Knob {
        id: Id::BoundEnergy,
        flag: "--bound-energy",
        member: "bound_energy",
        kinds: &[Explore],
        ty: Ty::Num(None, ANY),
        on_trace: OnTrace::Same,
        key: Some("bound_energy"),
    },
    Knob {
        id: Id::Pareto,
        flag: "--pareto",
        member: "pareto",
        kinds: &[Explore],
        ty: Ty::Switch,
        on_trace: OnTrace::Same,
        key: Some("pareto"),
    },
    Knob {
        id: Id::ParetoFormat,
        flag: "--format",
        member: "format",
        kinds: &[Pareto],
        ty: Ty::Word(&["csv", "json"]),
        on_trace: OnTrace::Same,
        key: Some("format"),
    },
    // Accepted and ignored: every frontier comes from the one exhaustive
    // sweep.
    Knob {
        id: Id::Exhaustive,
        flag: "--exhaustive",
        member: "exhaustive",
        kinds: &[Pareto],
        ty: Ty::Switch,
        on_trace: OnTrace::Ignore,
        key: None,
    },
    Knob {
        id: Id::Objective,
        flag: "--objective",
        member: "objective",
        kinds: &[Search],
        ty: Ty::Objective,
        on_trace: OnTrace::Same,
        key: Some("objective"),
    },
    Knob {
        id: Id::Space,
        flag: "--space",
        member: "space",
        kinds: &[Search],
        ty: Ty::Word(&["paper", "expansive"]),
        on_trace: OnTrace::Refuse(
            "`--space expansive` needs a kernel: a `.din` trace sweeps \
             the fixed trace grid",
        ),
        key: Some("space"),
    },
    Knob {
        id: Id::Beam,
        flag: "--beam",
        member: "beam",
        kinds: &[Search],
        ty: Ty::Count(None, 1),
        on_trace: OnTrace::Warn("the trace grid is swept exhaustively"),
        key: Some("beam"),
    },
    Knob {
        id: Id::Gap,
        flag: "--gap",
        member: "gap",
        kinds: &[Search],
        ty: Ty::Num(Some(0.0), FRACTION),
        on_trace: OnTrace::Ignore,
        key: Some("gap"),
    },
    Knob {
        id: Id::SearchFormat,
        flag: "--format",
        member: "format",
        kinds: &[Search],
        ty: Ty::Word(&["text", "csv", "json"]),
        on_trace: OnTrace::Same,
        key: Some("format"),
    },
    Knob {
        id: Id::Start,
        flag: "--start",
        member: "start",
        kinds: &[Shard],
        ty: Ty::Count(Some(0), 0),
        on_trace: OnTrace::Same,
        key: Some("start"),
    },
    Knob {
        id: Id::End,
        flag: "--end",
        member: "end",
        kinds: &[Shard],
        ty: Ty::Count(Some(0), 0),
        on_trace: OnTrace::Same,
        key: Some("end"),
    },
];

impl Knob {
    pub(crate) fn takes(&self, kind: JobKind) -> bool {
        self.kinds.contains(&kind)
    }

    /// True for a bare flag, which takes no value.
    pub(crate) fn is_switch(&self) -> bool {
        matches!(self.ty, Ty::Switch)
    }

    fn default(&self) -> Value {
        match self.ty {
            Ty::Switch => Value::On(false),
            Ty::Word(words) => Value::Word(words[0]),
            Ty::Num(default, _) => default.map_or(Value::Unset, Value::Num),
            Ty::Count(default, _) => default.map_or(Value::Unset, Value::Count),
            Ty::Objective => Value::Objective(Objective::Energy),
        }
    }

    /// What a value of the knob must be, as in "field `beam` must be …".
    fn what(&self) -> &'static str {
        match self.ty {
            Ty::Switch => "a boolean",
            Ty::Word(_) | Ty::Objective => "a string",
            Ty::Num(_, rule) => rule.1,
            Ty::Count(_, 0) => "a non-negative integer",
            Ty::Count(..) => "a positive integer",
        }
    }

    /// Checks a number, count or objective against the row's rule;
    /// `name` is how the error names the knob on the caller's surface.
    fn check(&self, name: &str, value: Value) -> Result<Value, String> {
        match (&self.ty, value) {
            (Ty::Num(_, rule), Value::Num(v)) => rule.check(name, v).map(Value::Num),
            (Ty::Count(_, min), Value::Count(n)) if n < *min => {
                Err(format!("{name} must be {}", self.what()))
            }
            (Ty::Objective, Value::Objective(o)) => o.validate().map(|()| value),
            _ => Ok(value),
        }
    }

    /// Parses the value that follows the CLI flag (a switch has none).
    pub(crate) fn parse_text(&self, text: &str) -> Result<Value, String> {
        let bad = || format!("bad value `{text}` for `{}`", self.flag);
        let value = match self.ty {
            Ty::Switch => Value::On(true),
            Ty::Word(words) => match words.iter().find(|&&w| w == text) {
                Some(&w) => Value::Word(w),
                None => {
                    return Err(format!(
                        "unknown {} `{text}` (expected {})",
                        self.member,
                        spoken_list(words)
                    ))
                }
            },
            Ty::Num(..) => Value::Num(text.parse().map_err(|_| bad())?),
            Ty::Count(..) => Value::Count(text.parse().map_err(|_| bad())?),
            Ty::Objective => Value::Objective(text.parse()?),
        };
        self.check(&format!("`{}`", self.flag), value)
    }

    /// Parses the member's value in a `POST /v1/jobs` body.
    pub(crate) fn parse_json(&self, v: &Json) -> Result<Value, String> {
        let value = match (&self.ty, v) {
            (Ty::Switch, Json::Bool(b)) => Some(Value::On(*b)),
            (Ty::Word(_) | Ty::Objective, Json::Str(s)) => return self.parse_text(s),
            (Ty::Num(..), v) => v.as_f64().map(Value::Num),
            (Ty::Count(..), v) => v
                .as_u64()
                .and_then(|n| usize::try_from(n).ok())
                .map(Value::Count),
            _ => None,
        };
        let name = format!("field `{}`", self.member);
        match value {
            Some(value) => self.check(&name, value),
            None => Err(format!("{name} must be {}", self.what())),
        }
    }
}

/// `a or b`, `a, b, or c`.
fn spoken_list(words: &[&str]) -> String {
    match words {
        [a, b] => format!("{a} or {b}"),
        [init @ .., last] => format!("{}, or {last}", init.join(", ")),
        [] => String::new(),
    }
}

impl Value {
    /// The value as a flag argument or a JSON number or string; an
    /// objective in the spelling its parser reads back.
    fn text(self) -> String {
        match self {
            Value::Unset => String::new(),
            Value::On(b) => b.to_string(),
            Value::Word(w) => w.to_string(),
            Value::Num(v) => v.to_string(),
            Value::Count(n) => n.to_string(),
            Value::Objective(Objective::Weighted {
                energy_weight,
                cycles_weight,
            }) => format!("weighted={energy_weight},{cycles_weight}"),
            Value::Objective(o) => o.to_string(),
        }
    }

    /// The value in the cache key: floats as IEEE bit patterns (so `0.5`
    /// and `5e-1` agree), switches as 0/1, unset as `-`.
    fn key(self) -> String {
        match self {
            Value::Unset => "-".to_string(),
            Value::On(b) => u8::from(b).to_string(),
            Value::Num(v) => format!("{:016x}", v.to_bits()),
            Value::Objective(o) => o.to_string(),
            other => other.text(),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::On(b)
    }
}

impl From<Option<f64>> for Value {
    fn from(v: Option<f64>) -> Value {
        v.map_or(Value::Unset, Value::Num)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Num(v)
    }
}

impl From<Option<usize>> for Value {
    fn from(n: Option<usize>) -> Value {
        n.map_or(Value::Unset, Value::Count)
    }
}

impl From<Objective> for Value {
    fn from(o: Objective) -> Value {
        Value::Objective(o)
    }
}

/// A job's knob values, one per row of `KNOBS`, and which of them were
/// given explicitly (what `memx submit` forwards).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Knobs {
    values: [Value; KNOBS.len()],
    given: u32,
}

impl Default for Knobs {
    /// Every knob at its default, which is the same on every surface.
    fn default() -> Knobs {
        Knobs {
            values: std::array::from_fn(|i| KNOBS[i].default()),
            given: 0,
        }
    }
}

impl Knobs {
    /// The knob's value.
    pub(crate) fn get(&self, id: Id) -> Value {
        self.values[id as usize]
    }

    /// True when the knob was given explicitly.
    pub(crate) fn given(&self, id: Id) -> bool {
        self.given & (1 << id as u32) != 0
    }

    /// Sets an already checked value.
    pub(crate) fn set(&mut self, id: Id, value: Value) {
        self.values[id as usize] = value;
        self.given |= 1 << id as u32;
    }

    /// Sets a value from a hand-built command through the row's checks.
    pub(crate) fn put(&mut self, id: Id, value: impl Into<Value>) -> Result<(), String> {
        let row = &KNOBS[id as usize];
        let value = row.check(&format!("`{}`", row.flag), value.into())?;
        self.set(id, value);
        Ok(())
    }

    /// [`Knobs::put`] for a keyword, which must be one of the row's.
    pub(crate) fn put_word(&mut self, id: Id, word: &str) -> Result<(), String> {
        let value = KNOBS[id as usize].parse_text(word)?;
        self.set(id, value);
        Ok(())
    }

    /// A keyword knob's value.
    pub(crate) fn word(&self, id: Id) -> &'static str {
        match self.get(id) {
            Value::Word(w) => w,
            other => unreachable!("{id:?} is a keyword knob, not {other:?}"),
        }
    }

    /// A switch's value.
    pub(crate) fn on(&self, id: Id) -> bool {
        self.get(id) == Value::On(true)
    }

    /// A number knob's value (`None` when unset).
    pub(crate) fn num(&self, id: Id) -> Option<f64> {
        match self.get(id) {
            Value::Num(v) => Some(v),
            _ => None,
        }
    }

    /// A count knob's value (`None` when unset).
    pub(crate) fn count(&self, id: Id) -> Option<usize> {
        match self.get(id) {
            Value::Count(n) => Some(n),
            _ => None,
        }
    }

    /// The search objective.
    pub(crate) fn objective(&self) -> Objective {
        match self.get(Id::Objective) {
            Value::Objective(o) => o,
            other => unreachable!("the objective knob holds {other:?}"),
        }
    }

    /// A shard's `[start, end)`, which must not be empty.
    pub(crate) fn shard_range(&self) -> Result<(usize, usize), String> {
        let (start, end) = (
            self.count(Id::Start).unwrap_or(0),
            self.count(Id::End).unwrap_or(0),
        );
        if end <= start {
            return Err(
                "a shard needs a non-empty range: `end` must be greater than `start` \
                 (grid indices)"
                    .into(),
            );
        }
        Ok((start, end))
    }

    /// True when the row's knob holds its default.
    pub(crate) fn is_default(&self, row: &Knob) -> bool {
        self.get(row.id) == row.default()
    }

    /// The `kind` knobs set away from their default, in table order.
    fn moved(&self, kind: JobKind) -> impl Iterator<Item = &'static Knob> + '_ {
        KNOBS
            .iter()
            .filter(move |r| r.takes(kind) && !self.is_default(r))
    }

    /// Appends the `kind` job's part of the cache key: `label=value\0`
    /// for each keyed knob the kind takes, in table order, with defaults
    /// made explicit so that they hash like omitted ones.
    pub(crate) fn write_key(&self, kind: JobKind, s: &mut String) {
        for row in KNOBS.iter().filter(|r| r.takes(kind)) {
            if let Some(label) = row.key {
                let _ = write!(s, "{label}={}\0", self.get(row.id).key());
            }
        }
    }

    /// Appends `,"member":value` for each knob `pick` selects.
    pub(crate) fn write_json(&self, out: &mut String, pick: impl Fn(&Knob) -> bool) {
        for row in KNOBS.iter().filter(|r| pick(r)) {
            out.push_str(",\"");
            out.push_str(row.member);
            out.push_str("\":");
            match self.get(row.id) {
                v @ (Value::Word(_) | Value::Objective(_)) => push_json_str(out, &v.text()),
                v => out.push_str(&v.text()),
            }
        }
    }

    /// The CLI flags that set the `kind` knobs that are not at their
    /// default (what a spawned `memx worker` inherits).
    pub(crate) fn flags(&self, kind: JobKind) -> Vec<String> {
        let mut flags = Vec::new();
        for row in self.moved(kind) {
            flags.push(row.flag.to_string());
            if !row.is_switch() {
                flags.push(self.get(row.id).text());
            }
        }
        flags
    }

    /// The CLI's refusal of a `kind` knob that a `.din` input cannot
    /// honour, checked on the path before the file is read.
    pub(crate) fn refuse_on_trace(&self, kind: JobKind) -> Result<(), String> {
        for row in self.moved(kind) {
            if let OnTrace::Refuse(message) = row.on_trace {
                return Err(message.to_string());
            }
        }
        Ok(())
    }

    /// The CLI's warnings on a `kind` job over a `.din` input, the first
    /// stderr lines of its output. A JSON trace job cannot set these
    /// knobs.
    pub(crate) fn warn_on_trace(&self, kind: JobKind, stderr: &mut String) {
        for row in self.moved(kind) {
            if let OnTrace::Warn(why) = row.on_trace {
                let value = match self.get(row.id) {
                    Value::Word(w) => format!(" {w}"),
                    _ => String::new(),
                };
                let _ = writeln!(
                    stderr,
                    "warning: {}{value} is ignored for `.din` traces ({why})",
                    row.flag
                );
            }
        }
    }
}

/// True when a trace job rejects the JSON member (see [`OnTrace`]).
pub(crate) fn kernel_only(member: &str) -> bool {
    KNOBS
        .iter()
        .any(|r| r.member == member && r.on_trace != OnTrace::Same)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sit_at_their_ids_and_every_flag_is_documented() {
        let usage: Vec<&str> = crate::cli::USAGE
            .split(|c: char| c.is_whitespace() || c == '[' || c == ']')
            .collect();
        for (i, row) in KNOBS.iter().enumerate() {
            assert_eq!(row.id as usize, i, "{} is out of place", row.flag);
            assert!(usage.contains(&row.flag), "{} is not in USAGE", row.flag);
        }
    }

    #[test]
    fn shared_rules_reject_the_values_that_used_to_panic() {
        let em = &KNOBS[Id::Em as usize];
        let deadline = &KNOBS[Id::Deadline as usize];
        for text in ["-1", "0", "nan", "inf"] {
            assert!(em.parse_text(text).is_err(), "--em {text}");
        }
        for text in ["0", "-3", "nan", "inf", "1e30"] {
            assert!(deadline.parse_text(text).is_err(), "--deadline {text}");
        }
        assert_eq!(deadline.parse_text("2.5"), Ok(Value::Num(2.5)));
        assert_eq!(
            em.parse_json(&Json::Num("-1".into())),
            Err("field `em_nj` must be a positive finite number".to_string())
        );
    }
}
