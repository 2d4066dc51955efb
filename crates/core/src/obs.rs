//! Structured observability for sweeps: JSONL run logs, latency
//! histograms, and a live progress reporter.
//!
//! Design-space exploration lives or dies by run introspection — a fleet
//! of supervised sweeps cannot be scaled or debugged through a single
//! end-of-run summary. This module gives every sweep path three windows,
//! all std-only and all off by default:
//!
//! * **JSONL event log** ([`Obs`] with a sink): one JSON object per line
//!   — span begin/end events for the sweep phases and point events for
//!   per-unit work (trace-group scans, per-design fallback retries, layout
//!   placements) and supervisor activity (quarantine, fallback,
//!   checkpoint flush, resume, deadline cancel). Every event carries a
//!   monotonic timestamp relative to the run start, the run id, and
//!   (where applicable) the worker id. Lines are canonical: emitting a
//!   parsed [`Event`] reproduces the original bytes, which the round-trip
//!   proptests pin.
//! * **Latency histograms** ([`LatencyHistogram`]): lock-free log-linear
//!   histograms (percentiles at most 6.25% above the exact quantile)
//!   recorded per unit of work regardless of whether a log is configured,
//!   summarized into [`SweepTelemetry`](crate::SweepTelemetry) as
//!   [`LatencySummary`] fields with p50/p95/p99.
//! * **Live progress** ([`ProgressCounters`] + a ticker thread): workers
//!   bump relaxed atomics on the hot path; a sampling thread renders
//!   designs done/total, events/s, an ETA, and prune/quarantine counts to
//!   stderr a few times per second. The hot path never formats, locks, or
//!   syscalls for progress.
//!
//! [`RunReport`] closes the loop: it rebuilds a run summary — phase
//! breakdown, worker utilization, histogram percentiles, and the
//! error/quarantine timeline — from a log file alone, which is what
//! `memx report` renders.

use std::fmt::{self, Write as _};
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Version stamp of the JSONL event schema, emitted as `"v"` on every
/// line so downstream parsers can detect format changes. Version 2 adds
/// the stage timings of the `serve`/`job` event (`queue_us`, `compute_us`,
/// `write_us`); version 1 logs still parse, without them.
pub const EVENT_SCHEMA_VERSION: u64 = 2;

// ---------------------------------------------------------------------------
// JSON primitives (emission)
// ---------------------------------------------------------------------------

/// Appends `s` to `out` as a JSON string literal (with the surrounding
/// quotes). The escape set is canonical — `"`, `\`, and control
/// characters only — so escaping an unescaped string round-trips.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders a float as a JSON-safe token with `prec` decimal places.
/// Non-finite values have no JSON spelling (`{:.3}` would emit `NaN` or
/// `inf`, corrupting the document), so they degrade to `null`.
pub fn json_f64(x: f64, prec: usize) -> String {
    if x.is_finite() {
        format!("{x:.prec$}")
    } else {
        "null".to_string()
    }
}

// ---------------------------------------------------------------------------
// JSON parsing (for `memx report`, validation tests, and round-trips)
// ---------------------------------------------------------------------------

/// A parsed JSON value. Object keys keep document order and numbers keep
/// their raw token (so `u64` values above 2^53 survive a round-trip
/// bit-exactly — a float would silently lose them).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its raw token.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer token.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Looks up a key, if the value is an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut saw_digit = false;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                saw_digit |= b.is_ascii_digit();
                self.pos += 1;
            } else {
                break;
            }
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-UTF-8 number".to_string())?;
        if !saw_digit || raw.parse::<f64>().is_err() {
            return Err(format!("bad number `{raw}` at byte {start}"));
        }
        Ok(Json::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("bad low surrogate".to_string());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code).ok_or_else(|| "bad \\u escape".to_string())?,
                            );
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                _ => {
                    // Re-decode the UTF-8 sequence starting at b.
                    let start = self.pos - 1;
                    let len = match b {
                        _ if b < 0x80 => 1,
                        _ if b >= 0xF0 => 4,
                        _ if b >= 0xE0 => 3,
                        _ => 2,
                    };
                    let end = (start + len).min(self.bytes.len());
                    let s = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "non-UTF-8 string".to_string())?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| "non-UTF-8 escape".to_string())?;
        let v = u32::from_str_radix(s, 16).map_err(|_| format!("bad \\u escape `{s}`"))?;
        self.pos = end;
        Ok(v)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

/// Parses one JSON document (used by `memx report` and by the tests that
/// require telemetry and log output to be real JSON).
///
/// # Errors
///
/// A one-line description of the first syntax problem.
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = JsonParser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing input at byte {}", p.pos));
    }
    Ok(v)
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// The kind of a log line: a phase opening, a phase closing (carrying
/// `dur_us`), or a point-in-time event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A phase span opened.
    SpanBegin,
    /// A phase span closed; the event carries `dur_us`.
    SpanEnd,
    /// A point event (per-unit work, supervisor activity, notes).
    Point,
}

impl EventKind {
    /// The stable wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::SpanBegin => "begin",
            EventKind::SpanEnd => "end",
            EventKind::Point => "point",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "begin" => Some(EventKind::SpanBegin),
            "end" => Some(EventKind::SpanEnd),
            "point" => Some(EventKind::Point),
            _ => None,
        }
    }
}

/// A typed event payload value. Durations and counters are integers
/// (microseconds / counts), so emit → parse → re-emit is bit-identical;
/// [`FieldValue::Num`] preserves foreign numeric tokens verbatim.
#[derive(Clone, Debug, PartialEq)]
pub enum FieldValue {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// A raw numeric token that is not a `u64`/`i64` (kept verbatim).
    Num(String),
}

impl FieldValue {
    fn push_json(&self, out: &mut String) {
        match self {
            FieldValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::I64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::Str(s) => push_json_str(out, s),
            FieldValue::Num(raw) => out.push_str(raw),
        }
    }

    /// The value as a `u64`, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice, when it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            FieldValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Keys every event line carries, in emission order. Extra fields must
/// not collide with these.
const RESERVED_KEYS: &[&str] = &["v", "t_us", "run", "kind", "phase", "name", "worker"];

/// One JSONL log event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Monotonic timestamp, microseconds since the run started.
    pub t_us: u64,
    /// Run id (shared by every event of one run).
    pub run: String,
    /// Span begin/end or point.
    pub kind: EventKind,
    /// Sweep phase the event belongs to (`layout`, `trace`, `simulate`,
    /// `select`, `supervise`, `checkpoint`, `run`, …).
    pub phase: String,
    /// Event name within the phase (`scan`, `sim`, `place`, `flush`,
    /// `quarantine`, …).
    pub name: String,
    /// Worker id for per-unit events, absent for run-level events.
    pub worker: Option<u64>,
    /// Extra payload fields, in emission order.
    pub fields: Vec<(String, FieldValue)>,
}

impl Event {
    /// Renders the event as one canonical JSONL line (no trailing
    /// newline). Key order is fixed, so parse → emit reproduces a line
    /// this function produced byte-for-byte.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"v\":{},\"t_us\":{},\"run\":",
            EVENT_SCHEMA_VERSION, self.t_us
        );
        push_json_str(&mut out, &self.run);
        out.push_str(",\"kind\":");
        push_json_str(&mut out, self.kind.as_str());
        out.push_str(",\"phase\":");
        push_json_str(&mut out, &self.phase);
        out.push_str(",\"name\":");
        push_json_str(&mut out, &self.name);
        if let Some(w) = self.worker {
            let _ = write!(out, ",\"worker\":{w}");
        }
        for (key, value) in &self.fields {
            debug_assert!(
                !RESERVED_KEYS.contains(&key.as_str()),
                "field key `{key}` collides with a reserved event key"
            );
            out.push(',');
            push_json_str(&mut out, key);
            out.push(':');
            value.push_json(&mut out);
        }
        out.push('}');
        out
    }

    /// Parses one JSONL line.
    ///
    /// # Errors
    ///
    /// A one-line description when the line is not valid JSON or misses a
    /// required key.
    pub fn parse(line: &str) -> Result<Event, String> {
        let Json::Obj(pairs) = parse_json(line)? else {
            return Err("event line is not a JSON object".to_string());
        };
        let mut t_us = None;
        let mut run = None;
        let mut kind = None;
        let mut phase = None;
        let mut name = None;
        let mut worker = None;
        let mut fields = Vec::new();
        for (key, value) in pairs {
            match key.as_str() {
                "v" => {
                    let v = value.as_u64().ok_or("bad `v`")?;
                    if !(1..=EVENT_SCHEMA_VERSION).contains(&v) {
                        return Err(format!("unsupported event schema version {v}"));
                    }
                }
                "t_us" => t_us = Some(value.as_u64().ok_or("bad `t_us`")?),
                "run" => run = Some(value.as_str().ok_or("bad `run`")?.to_string()),
                "kind" => {
                    kind = Some(
                        EventKind::parse(value.as_str().ok_or("bad `kind`")?)
                            .ok_or("unknown `kind`")?,
                    );
                }
                "phase" => phase = Some(value.as_str().ok_or("bad `phase`")?.to_string()),
                "name" => name = Some(value.as_str().ok_or("bad `name`")?.to_string()),
                "worker" => worker = Some(value.as_u64().ok_or("bad `worker`")?),
                _ => {
                    let fv = match value {
                        Json::Bool(b) => FieldValue::Bool(b),
                        Json::Str(s) => FieldValue::Str(s),
                        Json::Num(raw) => {
                            if let Ok(u) = raw.parse::<u64>() {
                                FieldValue::U64(u)
                            } else if let Ok(i) = raw.parse::<i64>() {
                                FieldValue::I64(i)
                            } else {
                                FieldValue::Num(raw)
                            }
                        }
                        other => {
                            return Err(format!("field `{key}` has unsupported type {other:?}"))
                        }
                    };
                    fields.push((key, fv));
                }
            }
        }
        Ok(Event {
            t_us: t_us.ok_or("missing `t_us`")?,
            run: run.ok_or("missing `run`")?,
            kind: kind.ok_or("missing `kind`")?,
            phase: phase.ok_or("missing `phase`")?,
            name: name.ok_or("missing `name`")?,
            worker,
            fields,
        })
    }

    /// Looks up an extra field's `u64` value.
    pub fn u64_field(&self, key: &str) -> Option<u64> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_u64())
    }

    /// Looks up an extra field's string value.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_str())
    }
}

// ---------------------------------------------------------------------------
// Latency histograms
// ---------------------------------------------------------------------------

/// Linear sub-buckets per power of two: a sample lands in a bucket no
/// wider than 1/16 of its lower edge, so the bucket's largest value
/// overstates any sample in it by at most 6.25%.
const SUB_BUCKETS: u64 = 16;
/// `log2(SUB_BUCKETS)`.
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();
/// Buckets covering every `u64` nanosecond count: 16 exact buckets for
/// 0–15 ns, then 16 per power of two from 2^4 to 2^63.
const LATENCY_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB_BUCKETS as usize;

/// The log-linear bucket of a `ns`-nanosecond sample: values below 16 get
/// a bucket each; above, the power of two `2^e ≤ ns` picks a group of 16
/// and the four bits below the leading one pick the bucket in it.
fn latency_bucket(ns: u64) -> usize {
    if ns < SUB_BUCKETS {
        return ns as usize;
    }
    let e = 63 - ns.leading_zeros();
    let sub = (ns >> (e - SUB_BITS)) - SUB_BUCKETS;
    ((e - SUB_BITS + 1) as u64 * SUB_BUCKETS + sub) as usize
}

/// The largest nanosecond count [`latency_bucket`] maps to `bucket`.
fn latency_bucket_max(bucket: usize) -> u64 {
    let bucket = bucket as u64;
    if bucket < SUB_BUCKETS {
        return bucket;
    }
    let e = (bucket / SUB_BUCKETS) as u32 + SUB_BITS - 1;
    let lo = (SUB_BUCKETS + bucket % SUB_BUCKETS) << (e - SUB_BITS);
    lo + ((1u64 << (e - SUB_BITS)) - 1)
}

/// A lock-free log-linear latency histogram: nanosecond counts below 16
/// are exact, and each power-of-two range above splits into 16 equal
/// buckets (see [`latency_bucket`]), so a reported percentile is at most
/// 6.25% above the sample it stands for. Recording is two relaxed atomic
/// adds on a fixed-length array — cheap enough for per-unit
/// instrumentation on the sweep hot path. The 7.8 KB of buckets live on
/// the heap, so the structs that embed histograms stay small to move.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64]>,
    sum_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: (0..LATENCY_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.buckets[latency_bucket(ns)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Snapshots the counters into an owned summary.
    pub fn summary(&self) -> LatencySummary {
        let mut buckets = Vec::new();
        let mut count = 0;
        for (b, c) in self.buckets.iter().enumerate() {
            let c = c.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((b as u16, c));
                count += c;
            }
        }
        LatencySummary {
            count,
            total: Duration::from_nanos(self.sum_ns.load(Ordering::Relaxed)),
            buckets,
        }
    }
}

/// An immutable histogram snapshot carried in
/// [`SweepTelemetry`](crate::SweepTelemetry): sample count, summed time,
/// and the sparse log-linear buckets the percentiles are read from.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub total: Duration,
    /// Sparse `(log-linear bucket, count)` pairs, ascending by bucket.
    pub buckets: Vec<(u16, u64)>,
}

impl LatencySummary {
    /// The `q`-quantile (`0 < q ≤ 1`): the sample of rank `⌈q · count⌉`,
    /// reported as the largest value of its bucket — never below that
    /// sample and at most 6.25% above it. Zero when empty.
    pub fn percentile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for &(bucket, c) in &self.buckets {
            seen += c;
            if seen >= rank {
                return Duration::from_nanos(latency_bucket_max(usize::from(bucket)));
            }
        }
        Duration::ZERO
    }

    /// Median (bucket maximum).
    pub fn p50(&self) -> Duration {
        self.percentile(0.50)
    }

    /// 95th percentile (bucket maximum).
    pub fn p95(&self) -> Duration {
        self.percentile(0.95)
    }

    /// 99th percentile (bucket maximum).
    pub fn p99(&self) -> Duration {
        self.percentile(0.99)
    }

    /// Mean sample duration (zero when empty).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            Duration::ZERO
        } else {
            self.total / u32::try_from(self.count).unwrap_or(u32::MAX)
        }
    }

    /// Folds another summary into this one.
    pub fn merge(&mut self, other: &LatencySummary) {
        self.count += other.count;
        self.total += other.total;
        for &(bucket, c) in &other.buckets {
            match self.buckets.binary_search_by_key(&bucket, |&(b, _)| b) {
                Ok(i) => self.buckets[i].1 += c,
                Err(i) => self.buckets.insert(i, (bucket, c)),
            }
        }
    }

    /// Flat JSON rendering (embedded in `SweepTelemetry::to_json`). An
    /// empty histogram has no percentiles — they render as `null`, not a
    /// fake `0` that would read as "instant" downstream.
    pub fn to_json(&self) -> String {
        if self.count == 0 {
            return concat!(
                "{\"count\":0,\"total_us\":0,",
                "\"p50_us\":null,\"p95_us\":null,\"p99_us\":null}"
            )
            .to_string();
        }
        format!(
            concat!(
                "{{\"count\":{},\"total_us\":{},",
                "\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}"
            ),
            self.count,
            self.total.as_micros(),
            self.p50().as_micros(),
            self.p95().as_micros(),
            self.p99().as_micros(),
        )
    }
}

/// Formats a duration for humans (ns → µs → ms → s as it grows).
pub fn fmt_dur(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} samples, p50 {}, p95 {}, p99 {}",
            self.count,
            fmt_dur(self.p50()),
            fmt_dur(self.p95()),
            fmt_dur(self.p99()),
        )
    }
}

// ---------------------------------------------------------------------------
// Progress counters + ticker
// ---------------------------------------------------------------------------

/// Hot-path progress state: workers bump these with relaxed ordering; the
/// ticker thread (and nothing else) reads them. No locks, no formatting,
/// no syscalls on the worker side.
#[derive(Debug, Default)]
pub struct ProgressCounters {
    /// Designs completed (simulated or resumed).
    pub done: AtomicU64,
    /// Designs in the sweep grid.
    pub total: AtomicU64,
    /// Trace events scanned so far.
    pub events: AtomicU64,
    /// Designs skipped by the pruner.
    pub pruned: AtomicU64,
    /// Designs quarantined by the supervisor.
    pub quarantined: AtomicU64,
}

impl ProgressCounters {
    /// Relaxed add on `done`.
    pub fn add_done(&self, n: u64) {
        self.done.fetch_add(n, Ordering::Relaxed);
    }

    /// Relaxed add on `events`.
    pub fn add_events(&self, n: u64) {
        self.events.fetch_add(n, Ordering::Relaxed);
    }
}

fn fmt_rate(per_sec: f64) -> String {
    if per_sec >= 1e6 {
        format!("{:.1} Me/s", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.1} ke/s", per_sec / 1e3)
    } else {
        format!("{per_sec:.0} e/s")
    }
}

/// Renders one progress line from the counters (shared by the ticker and
/// the final report so both look the same).
fn render_progress(c: &ProgressCounters, elapsed: Duration) -> String {
    let done = c.done.load(Ordering::Relaxed);
    let total = c.total.load(Ordering::Relaxed);
    let events = c.events.load(Ordering::Relaxed);
    let pruned = c.pruned.load(Ordering::Relaxed);
    let quarantined = c.quarantined.load(Ordering::Relaxed);
    let secs = elapsed.as_secs_f64().max(1e-9);
    let mut line = if total > 0 {
        format!(
            "sweep {done}/{total} designs ({:.0}%)",
            done as f64 / total as f64 * 100.0
        )
    } else {
        format!("sweep {done} designs")
    };
    let _ = write!(line, " | {}", fmt_rate(events as f64 / secs));
    if done > 0 && total > done {
        let eta = (total - done) as f64 * secs / done as f64;
        let _ = write!(line, " | eta {:.0}s", eta.ceil());
    }
    if pruned > 0 {
        let _ = write!(line, " | {pruned} pruned");
    }
    if quarantined > 0 {
        let _ = write!(line, " | {quarantined} quarantined");
    }
    line
}

// ---------------------------------------------------------------------------
// The Obs hub
// ---------------------------------------------------------------------------

/// Where the JSONL log goes.
pub enum ObsSink {
    /// Create/truncate a file at this path.
    Path(PathBuf),
    /// Write into a caller-supplied sink (used by tests to capture the
    /// log in memory).
    Writer(Box<dyn Write + Send>),
}

/// Configuration of an [`Obs`] hub. Default: everything off.
#[derive(Default)]
pub struct ObsConfig {
    /// JSONL sink, if event logging is wanted.
    pub log: Option<ObsSink>,
    /// Start the stderr progress ticker.
    pub progress: bool,
    /// Run id override (tests); generated when `None`.
    pub run_id: Option<String>,
}

/// The observability hub threaded through a sweep: owns the run id, the
/// monotonic clock origin, the (optional) JSONL sink, the progress
/// counters, and the (optional) ticker thread. Cheap to share via `Arc`;
/// every method is `&self` and thread-safe.
pub struct Obs {
    run_id: String,
    start: Instant,
    log: Option<Mutex<Box<dyn Write + Send>>>,
    /// Hot-path progress counters (always present; the ticker is
    /// optional).
    pub counters: ProgressCounters,
    ticker: Mutex<Option<JoinHandle<()>>>,
    stop: Arc<AtomicBool>,
    finished: AtomicBool,
    progress: bool,
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("run_id", &self.run_id)
            .field("log", &self.log.is_some())
            .field("progress", &self.progress)
            .finish()
    }
}

/// Generates a run id from the wall clock and the process id — unique
/// enough to correlate log files with runs, with no RNG dependency.
fn generate_run_id() -> String {
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or(Duration::ZERO);
    format!("r{:x}-{:x}", now.as_secs(), std::process::id())
}

impl Obs {
    /// Builds a hub, opening the log sink and starting the ticker thread
    /// when requested.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the log file cannot be created.
    pub fn new(config: ObsConfig) -> io::Result<Arc<Obs>> {
        let log: Option<Mutex<Box<dyn Write + Send>>> = match config.log {
            None => None,
            Some(ObsSink::Writer(w)) => Some(Mutex::new(w)),
            Some(ObsSink::Path(path)) => {
                let file = std::fs::File::create(&path)?;
                Some(Mutex::new(Box::new(io::BufWriter::new(file))))
            }
        };
        let obs = Arc::new(Obs {
            run_id: config.run_id.unwrap_or_else(generate_run_id),
            start: Instant::now(),
            log,
            counters: ProgressCounters::default(),
            ticker: Mutex::new(None),
            stop: Arc::new(AtomicBool::new(false)),
            finished: AtomicBool::new(false),
            progress: config.progress,
        });
        if config.progress {
            let hub = Arc::clone(&obs);
            let stop = Arc::clone(&obs.stop);
            let handle = std::thread::spawn(move || {
                let mut last_len = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(200));
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let line = render_progress(&hub.counters, hub.start.elapsed());
                    let pad = last_len.saturating_sub(line.len());
                    last_len = line.len();
                    eprint!("\r{line}{}", " ".repeat(pad));
                    let _ = io::stderr().flush();
                }
            });
            *obs.ticker.lock().unwrap_or_else(|p| p.into_inner()) = Some(handle);
        }
        Ok(obs)
    }

    /// The run id stamped on every event.
    pub fn run_id(&self) -> &str {
        &self.run_id
    }

    /// Microseconds since the run started (monotonic).
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Emits one event to the JSONL sink (no-op without one). Write
    /// failures are swallowed — observability must never take the sweep
    /// down with it.
    pub fn emit(
        &self,
        kind: EventKind,
        phase: &str,
        name: &str,
        worker: Option<u64>,
        fields: &[(&str, FieldValue)],
    ) {
        let Some(log) = &self.log else { return };
        let event = Event {
            t_us: self.now_us(),
            run: self.run_id.clone(),
            kind,
            phase: phase.to_string(),
            name: name.to_string(),
            worker,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        };
        let mut line = event.to_jsonl();
        line.push('\n');
        let mut sink = log.lock().unwrap_or_else(|p| p.into_inner());
        let _ = sink.write_all(line.as_bytes());
    }

    /// Emits a point event.
    pub fn point(&self, phase: &str, name: &str, fields: &[(&str, FieldValue)]) {
        self.emit(EventKind::Point, phase, name, None, fields);
    }

    /// Emits a per-unit point event carrying the worker id and the unit's
    /// duration in microseconds (plus any extra fields).
    pub fn unit(
        &self,
        phase: &str,
        name: &str,
        worker: u64,
        dur: Duration,
        fields: &[(&str, FieldValue)],
    ) {
        if self.log.is_none() {
            return;
        }
        let mut all = vec![(
            "dur_us",
            FieldValue::U64(u64::try_from(dur.as_micros()).unwrap_or(u64::MAX)),
        )];
        all.extend(fields.iter().cloned());
        self.emit(EventKind::Point, phase, name, Some(worker), &all);
    }

    /// Stops the ticker (printing a final progress line) and flushes the
    /// log sink. Idempotent; also run on drop.
    pub fn finish(&self) {
        if self.finished.swap(true, Ordering::SeqCst) {
            return;
        }
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.ticker.lock().unwrap_or_else(|p| p.into_inner()).take() {
            let _ = handle.join();
        }
        if self.progress {
            let line = render_progress(&self.counters, self.start.elapsed());
            eprintln!("\r{line}");
        }
        if let Some(log) = &self.log {
            let _ = log.lock().unwrap_or_else(|p| p.into_inner()).flush();
        }
    }
}

impl Drop for Obs {
    fn drop(&mut self) {
        self.finish();
    }
}

/// A phase span: emits `begin` on creation, `end` (with `dur_us`) on
/// drop. A `None` hub makes it a zero-cost no-op.
pub struct Span<'a> {
    obs: Option<&'a Obs>,
    phase: &'static str,
    start: Instant,
}

impl<'a> Span<'a> {
    /// Opens a span over `phase` (emits the `begin` event now).
    pub fn begin(obs: Option<&'a Obs>, phase: &'static str) -> Self {
        if let Some(o) = obs {
            o.emit(EventKind::SpanBegin, phase, phase, None, &[]);
        }
        Span {
            obs,
            phase,
            start: Instant::now(),
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(o) = self.obs {
            let dur = self.start.elapsed();
            o.emit(
                EventKind::SpanEnd,
                self.phase,
                self.phase,
                None,
                &[(
                    "dur_us",
                    FieldValue::U64(u64::try_from(dur.as_micros()).unwrap_or(u64::MAX)),
                )],
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Report (log replay)
// ---------------------------------------------------------------------------

/// One aggregated phase in a [`RunReport`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhaseAgg {
    /// Phase name.
    pub name: String,
    /// Number of closed spans.
    pub spans: u64,
    /// Summed span duration.
    pub total: Duration,
}

/// One timeline entry (quarantine, failed flush, cancellation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimelineEntry {
    /// Offset from run start.
    pub t: Duration,
    /// Human description.
    pub what: String,
}

/// A run summary reconstructed from a JSONL log alone — what
/// `memx report` renders. The counters are *recomputed from the per-unit
/// events* (not copied from a summary line), so they cross-check the
/// emitting sweep's own telemetry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    /// Run id of the log's first event.
    pub run_id: String,
    /// Number of parsed events.
    pub events: usize,
    /// Largest timestamp seen.
    pub wall: Duration,
    /// Closed spans grouped by phase, in first-appearance order.
    pub phases: Vec<PhaseAgg>,
    /// Per-worker busy time summed from per-unit events, by worker id.
    pub worker_busy: Vec<(u64, Duration)>,
    /// Trace-group scan latencies (rebuilt, µs resolution).
    pub scan: LatencySummary,
    /// Per-design simulation latencies (rebuilt, µs resolution).
    pub sim: LatencySummary,
    /// Layout placement latencies (rebuilt, µs resolution).
    pub layout: LatencySummary,
    /// Layout scoring-bank latencies (rebuilt, µs resolution).
    pub score: LatencySummary,
    /// Checkpoint flush latencies (rebuilt, µs resolution).
    pub flush: LatencySummary,
    /// Designs completed (fresh scan members + lone simulations +
    /// resumed records).
    pub designs_done: u64,
    /// Lane-events resolved on the banks' scalar lane loop (summed from
    /// the `scalar` field of `scan` and `sim` units).
    pub scalar_lane_events: u64,
    /// Records restored from a checkpoint.
    pub records_resumed: u64,
    /// Designs skipped by the pruner.
    pub pruned: u64,
    /// Belady-MIN floor units of a certified search (`floor` events).
    pub floor_units: u64,
    /// `(line size, capacity)` floors those units resolved.
    pub floor_capacities: u64,
    /// Line accesses those units materialized.
    pub floor_lines: u64,
    /// Summed duration of those units.
    pub floor_time: Duration,
    /// Designs quarantined by the supervisor.
    pub quarantined: u64,
    /// Per-design fallback retries after a fused bank panic.
    pub retried: u64,
    /// Checkpoint flushes that reached the sidecar.
    pub flushes_written: u64,
    /// Checkpoint flushes that failed.
    pub flushes_failed: u64,
    /// Whether a deadline cancelled the run.
    pub cancelled: bool,
    /// Quarantines, failed flushes, and cancellations in time order.
    pub timeline: Vec<TimelineEntry>,
    /// Serve jobs completed (from `job` point events).
    pub jobs_done: u64,
    /// Serve jobs that ended cancelled (deadline) rather than complete.
    pub jobs_cancelled: u64,
    /// Serve jobs answered from the result cache.
    pub cache_hits: u64,
    /// Serve jobs that simulated (cold cache miss).
    pub cache_misses: u64,
    /// Serve jobs coalesced onto a concurrent identical job (single-flight).
    pub cache_joins: u64,
    /// Deepest admission queue observed across serve jobs.
    pub queue_depth_max: u64,
    /// End-to-end serve job latencies (rebuilt, µs resolution).
    pub job: LatencySummary,
    /// Serve misses' enqueue-to-slot-start waits (`queue_us`).
    pub job_queue: LatencySummary,
    /// Serve misses' compute times on their slot (`compute_us`).
    pub job_compute: LatencySummary,
    /// Serve jobs' response write times (`write_us`).
    pub job_write: LatencySummary,
}

impl RunReport {
    /// Parses and aggregates a whole JSONL log.
    ///
    /// # Errors
    ///
    /// The first malformed line, with its 1-based line number.
    pub fn from_jsonl(text: &str) -> Result<RunReport, String> {
        let mut report = RunReport::default();
        let scan = LatencyHistogram::new();
        let sim = LatencyHistogram::new();
        let layout = LatencyHistogram::new();
        let score = LatencyHistogram::new();
        let flush = LatencyHistogram::new();
        let job = LatencyHistogram::new();
        let job_queue = LatencyHistogram::new();
        let job_compute = LatencyHistogram::new();
        let job_write = LatencyHistogram::new();
        for (lineno, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let event = Event::parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            if report.events == 0 {
                report.run_id = event.run.clone();
            }
            report.events += 1;
            let t = Duration::from_micros(event.t_us);
            report.wall = report.wall.max(t);
            let dur = Duration::from_micros(event.u64_field("dur_us").unwrap_or(0));
            match event.kind {
                EventKind::SpanBegin => {}
                EventKind::SpanEnd => {
                    match report.phases.iter_mut().find(|p| p.name == event.phase) {
                        Some(p) => {
                            p.spans += 1;
                            p.total += dur;
                        }
                        None => report.phases.push(PhaseAgg {
                            name: event.phase.clone(),
                            spans: 1,
                            total: dur,
                        }),
                    }
                }
                EventKind::Point => {
                    if let Some(w) = event.worker {
                        match report.worker_busy.iter_mut().find(|(id, _)| *id == w) {
                            Some((_, busy)) => *busy += dur,
                            None => report.worker_busy.push((w, dur)),
                        }
                    }
                    report.scalar_lane_events += event.u64_field("scalar").unwrap_or(0);
                    match event.name.as_str() {
                        "scan" => {
                            scan.record(dur);
                            report.designs_done += event.u64_field("fresh").unwrap_or(0);
                        }
                        "sim" => {
                            sim.record(dur);
                            report.designs_done += 1;
                        }
                        "place" => layout.record(dur),
                        "score" => score.record(dur),
                        "floor" => {
                            report.floor_units += 1;
                            report.floor_capacities += event.u64_field("capacities").unwrap_or(0);
                            report.floor_lines += event.u64_field("lines").unwrap_or(0);
                            report.floor_time += dur;
                        }
                        "flush" => {
                            flush.record(dur);
                            if event.u64_field("ok") == Some(1) {
                                report.flushes_written += 1;
                            } else {
                                report.flushes_failed += 1;
                                report.timeline.push(TimelineEntry {
                                    t,
                                    what: "checkpoint flush failed".to_string(),
                                });
                            }
                        }
                        "resume" => {
                            let n = event.u64_field("records").unwrap_or(0);
                            report.records_resumed += n;
                            report.designs_done += n;
                        }
                        "pruned" => report.pruned += event.u64_field("count").unwrap_or(0),
                        "retry" => report.retried += event.u64_field("count").unwrap_or(1),
                        "quarantine" => {
                            report.quarantined += 1;
                            report.timeline.push(TimelineEntry {
                                t,
                                what: format!(
                                    "design #{} quarantined on {} engine: {}",
                                    event.u64_field("design").unwrap_or(0),
                                    event.str_field("engine").unwrap_or("?"),
                                    event.str_field("message").unwrap_or(""),
                                ),
                            });
                        }
                        "job" => {
                            job.record(dur);
                            for (field, hist) in [
                                ("queue_us", &job_queue),
                                ("compute_us", &job_compute),
                                ("write_us", &job_write),
                            ] {
                                if let Some(us) = event.u64_field(field) {
                                    hist.record(Duration::from_micros(us));
                                }
                            }
                            report.jobs_done += 1;
                            if event.str_field("status") == Some("cancelled") {
                                report.jobs_cancelled += 1;
                            }
                            match event.str_field("cache") {
                                Some("hit") => report.cache_hits += 1,
                                Some("miss") => report.cache_misses += 1,
                                Some("join") => report.cache_joins += 1,
                                _ => {}
                            }
                            report.queue_depth_max = report
                                .queue_depth_max
                                .max(event.u64_field("queue_depth").unwrap_or(0));
                        }
                        "deadline_cancel" => {
                            report.cancelled = true;
                            report.timeline.push(TimelineEntry {
                                t,
                                what: "deadline reached; sweep cancelled".to_string(),
                            });
                        }
                        _ => {}
                    }
                }
            }
        }
        report.worker_busy.sort_by_key(|&(id, _)| id);
        report.timeline.sort_by_key(|e| e.t);
        report.scan = scan.summary();
        report.sim = sim.summary();
        report.layout = layout.summary();
        report.score = score.summary();
        report.flush = flush.summary();
        report.job = job.summary();
        report.job_queue = job_queue.summary();
        report.job_compute = job_compute.summary();
        report.job_write = job_write.summary();
        Ok(report)
    }

    /// Mean fraction of the simulate phase each seen worker spent inside
    /// units of work (1.0 when the log has no simulate span or workers).
    pub fn worker_utilization(&self) -> f64 {
        let wall = self
            .phases
            .iter()
            .find(|p| p.name == "simulate")
            .map(|p| p.total.as_secs_f64())
            .unwrap_or(0.0);
        if wall <= 0.0 || self.worker_busy.is_empty() {
            return 1.0;
        }
        let busy: f64 = self.worker_busy.iter().map(|(_, d)| d.as_secs_f64()).sum();
        busy / (wall * self.worker_busy.len() as f64)
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run {}: {} events over {}",
            self.run_id,
            self.events,
            fmt_dur(self.wall)
        )?;
        writeln!(f, "phases:")?;
        for p in &self.phases {
            write!(
                f,
                "  {:<10}: {} span(s), {}",
                p.name,
                p.spans,
                fmt_dur(p.total)
            )?;
            if p.name == "simulate" {
                write!(f, ", {} scalar lane-events", self.scalar_lane_events)?;
            }
            writeln!(f)?;
        }
        let units = self.scan.count + self.sim.count;
        if units > 0 && !self.phases.iter().any(|p| p.name == "simulate") {
            // A search replays inside its own span: no simulate span.
            writeln!(
                f,
                "  {:<10}: {} unit(s) inside other spans, {} scalar lane-events",
                "simulate", units, self.scalar_lane_events
            )?;
        }
        if self.floor_units > 0 {
            writeln!(
                f,
                "floors: {} trace keys, {} capacities, {} lines in {}",
                self.floor_units,
                self.floor_capacities,
                self.floor_lines,
                fmt_dur(self.floor_time)
            )?;
        }
        if !self.worker_busy.is_empty() {
            writeln!(
                f,
                "workers: {} seen, {:.0}% utilization (from unit events)",
                self.worker_busy.len(),
                (self.worker_utilization() * 100.0).min(100.0)
            )?;
        }
        writeln!(f, "latency:")?;
        for (name, s) in [
            ("scan", &self.scan),
            ("sim", &self.sim),
            ("layout", &self.layout),
            ("score", &self.score),
            ("flush", &self.flush),
        ] {
            if s.count > 0 {
                writeln!(f, "  {name:<6}: {s}")?;
            } else {
                // No samples means no percentiles: `-`, not a fake 0.
                writeln!(f, "  {name:<6}: 0 samples, p50 -, p95 -, p99 -")?;
            }
        }
        if self.jobs_done > 0 {
            // Medians of the stage timings; `-` where no job recorded one
            // (hits never queue or compute, and older logs lack them).
            let median = |s: &LatencySummary| {
                if s.count == 0 {
                    "-".to_string()
                } else {
                    fmt_dur(s.percentile(0.5))
                }
            };
            writeln!(
                f,
                "serve: {} job(s) ({} cancelled), cache {} hit / {} miss / {} join, \
                 max queue depth {}, median queue {} / compute {} / write {}",
                self.jobs_done,
                self.jobs_cancelled,
                self.cache_hits,
                self.cache_misses,
                self.cache_joins,
                self.queue_depth_max,
                median(&self.job_queue),
                median(&self.job_compute),
                median(&self.job_write)
            )?;
            writeln!(f, "  job   : {}", self.job)?;
        }
        write!(
            f,
            "designs: {} completed ({} resumed), {} pruned, {} quarantined, {} retried",
            self.designs_done, self.records_resumed, self.pruned, self.quarantined, self.retried
        )?;
        if self.flushes_written > 0 || self.flushes_failed > 0 {
            write!(
                f,
                "\ncheckpoints: {} written, {} failed",
                self.flushes_written, self.flushes_failed
            )?;
        }
        if self.timeline.is_empty() {
            write!(f, "\ntimeline: clean run (no errors)")?;
        } else {
            write!(f, "\ntimeline:")?;
            for e in &self.timeline {
                write!(f, "\n  [{:>10}] {}", fmt_dur(e.t), e.what)?;
            }
        }
        if self.cancelled {
            write!(f, "\nresult: PARTIAL (deadline cancel)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(fields: Vec<(String, FieldValue)>) -> Event {
        Event {
            t_us: 1234,
            run: "r1-2".to_string(),
            kind: EventKind::Point,
            phase: "simulate".to_string(),
            name: "sim".to_string(),
            worker: Some(3),
            fields,
        }
    }

    #[test]
    fn event_round_trips_bit_identical() {
        let e = event(vec![
            ("dur_us".to_string(), FieldValue::U64(u64::MAX)),
            ("delta".to_string(), FieldValue::I64(-42)),
            ("ok".to_string(), FieldValue::Bool(true)),
            (
                "msg".to_string(),
                FieldValue::Str("a \"b\"\n\tc\\d".to_string()),
            ),
            ("ratio".to_string(), FieldValue::Num("0.125".to_string())),
        ]);
        let line = e.to_jsonl();
        let parsed = Event::parse(&line).expect("parse");
        assert_eq!(parsed, e);
        assert_eq!(parsed.to_jsonl(), line);
    }

    #[test]
    fn event_without_worker_round_trips() {
        let mut e = event(vec![]);
        e.worker = None;
        e.kind = EventKind::SpanEnd;
        let line = e.to_jsonl();
        assert_eq!(Event::parse(&line).expect("parse").to_jsonl(), line);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Event::parse("not json").is_err());
        assert!(Event::parse("{\"v\":1}").is_err());
        assert!(Event::parse("[1,2]").is_err());
        assert!(Event::parse(
            "{\"v\":99,\"t_us\":0,\"run\":\"r\",\"kind\":\"point\",\"phase\":\"p\",\"name\":\"n\"}"
        )
        .is_err());
    }

    #[test]
    fn json_parser_handles_nesting_and_escapes() {
        let doc = r#"{"a":[1,2.5,-3e2],"b":{"c":"xA\n"},"d":null,"e":false} "#;
        let v = parse_json(doc).expect("parse");
        assert_eq!(
            v.get("a").and_then(|a| match a {
                Json::Arr(items) => items.first().and_then(Json::as_u64),
                _ => None,
            }),
            Some(1)
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("xA\n")
        );
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    #[test]
    fn json_parser_preserves_large_u64() {
        let raw = format!("{{\"big\":{}}}", u64::MAX);
        let v = parse_json(&raw).expect("parse");
        assert_eq!(v.get("big").and_then(Json::as_u64), Some(u64::MAX));
    }

    #[test]
    fn json_f64_guards_non_finite() {
        assert_eq!(json_f64(1.5, 3), "1.500");
        assert_eq!(json_f64(f64::NAN, 3), "null");
        assert_eq!(json_f64(f64::INFINITY, 6), "null");
        assert_eq!(json_f64(f64::NEG_INFINITY, 6), "null");
    }

    #[test]
    fn empty_latency_summary_pins_null_json_and_dash_report() {
        let s = LatencySummary::default();
        assert_eq!(
            s.to_json(),
            "{\"count\":0,\"total_us\":0,\"p50_us\":null,\"p95_us\":null,\"p99_us\":null}"
        );
        let v = parse_json(&s.to_json()).expect("parse");
        assert_eq!(v.get("p50_us"), Some(&Json::Null));
        assert_eq!(v.get("p99_us"), Some(&Json::Null));

        let report = RunReport::default();
        let rendered = report.to_string();
        assert!(rendered.contains("scan  : 0 samples, p50 -, p95 -, p99 -"));
        assert!(rendered.contains("flush : 0 samples, p50 -, p95 -, p99 -"));
        assert!(!rendered.contains("p50_us: 0"));
    }

    #[test]
    fn histogram_percentiles_bound_samples() {
        let h = LatencyHistogram::new();
        for _ in 0..90 {
            h.record(Duration::from_nanos(900)); // bucket 896..=927
        }
        for _ in 0..10 {
            h.record(Duration::from_micros(100)); // bucket 98304..=102399
        }
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50(), Duration::from_nanos(927));
        assert_eq!(s.p99(), Duration::from_nanos(102_399));
        // The summary parses as JSON.
        parse_json(&s.to_json()).expect("summary json");
    }

    #[test]
    fn latency_buckets_tile_the_u64_range() {
        // Every bucket's maximum maps back to it, and the next value
        // starts the next bucket: the buckets cover 0..=u64::MAX in order
        // with no gap or overlap.
        assert_eq!(latency_bucket(u64::MAX), LATENCY_BUCKETS - 1);
        assert_eq!(latency_bucket_max(LATENCY_BUCKETS - 1), u64::MAX);
        for b in 0..LATENCY_BUCKETS - 1 {
            let max = latency_bucket_max(b);
            assert_eq!(latency_bucket(max), b, "bucket {b}");
            assert_eq!(latency_bucket(max + 1), b + 1, "bucket {b}");
        }
    }

    proptest::proptest! {
        #[test]
        fn percentiles_stay_within_a_sixteenth_of_the_exact_quantile(
            samples in proptest::collection::vec(
                proptest::prop_oneof![0u64..64, 0u64..1 << 20, 0u64..1 << 40],
                1..200,
            ),
            q in 0.001f64..=1.0,
        ) {
            let h = LatencyHistogram::new();
            for &ns in &samples {
                h.record(Duration::from_nanos(ns));
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = u128::from(sorted[rank - 1]);
            let got = h.summary().percentile(q).as_nanos();
            proptest::prop_assert!(got >= exact, "{} below exact {}", got, exact);
            proptest::prop_assert!(16 * got <= 17 * exact, "{} over exact {} by > 6.25%", got, exact);
        }
    }

    #[test]
    fn summary_merge_accumulates() {
        let a = LatencyHistogram::new();
        a.record(Duration::from_nanos(100));
        let b = LatencyHistogram::new();
        b.record(Duration::from_nanos(100));
        b.record(Duration::from_micros(5));
        let mut m = a.summary();
        m.merge(&b.summary());
        assert_eq!(m.count, 3);
        assert_eq!(m.total, Duration::from_nanos(5200));
    }

    #[test]
    fn obs_emits_parseable_jsonl_and_report_aggregates() {
        use std::sync::mpsc;
        // In-memory sink: a writer that forwards into a channel.
        struct ChanWriter(mpsc::Sender<Vec<u8>>);
        impl Write for ChanWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let _ = self.0.send(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let (tx, rx) = mpsc::channel();
        let obs = Obs::new(ObsConfig {
            log: Some(ObsSink::Writer(Box::new(ChanWriter(tx)))),
            progress: false,
            run_id: Some("rtest".to_string()),
        })
        .expect("obs");
        {
            let _run = Span::begin(Some(&obs), "run");
            {
                let _sim = Span::begin(Some(&obs), "simulate");
                obs.unit(
                    "simulate",
                    "scan",
                    0,
                    Duration::from_micros(40),
                    &[
                        ("events", FieldValue::U64(100)),
                        ("width", FieldValue::U64(5)),
                        ("fresh", FieldValue::U64(5)),
                        ("scalar", FieldValue::U64(300)),
                    ],
                );
                obs.unit(
                    "simulate",
                    "sim",
                    1,
                    Duration::from_micros(7),
                    &[("scalar", FieldValue::U64(100))],
                );
                obs.point(
                    "supervise",
                    "quarantine",
                    &[
                        ("design", FieldValue::U64(3)),
                        ("engine", FieldValue::Str("fused".to_string())),
                        ("message", FieldValue::Str("boom".to_string())),
                    ],
                );
                obs.point("supervise", "pruned", &[("count", FieldValue::U64(12))]);
                obs.point(
                    "checkpoint",
                    "flush",
                    &[("dur_us", FieldValue::U64(90)), ("ok", FieldValue::U64(1))],
                );
            }
        }
        obs.finish();
        let mut text = String::new();
        while let Ok(chunk) = rx.try_recv() {
            text.push_str(std::str::from_utf8(&chunk).expect("utf8"));
        }
        // Every line parses and re-emits identically.
        for line in text.lines() {
            let e = Event::parse(line).expect("line parses");
            assert_eq!(e.to_jsonl(), line);
            assert_eq!(e.run, "rtest");
        }
        let report = RunReport::from_jsonl(&text).expect("report");
        assert_eq!(report.run_id, "rtest");
        assert_eq!(report.designs_done, 6); // 5 fresh from the scan + 1 sim
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.pruned, 12);
        assert_eq!(report.flushes_written, 1);
        assert_eq!(report.scan.count, 1);
        assert_eq!(report.sim.count, 1);
        assert_eq!(report.flush.count, 1);
        assert!(!report.cancelled);
        assert_eq!(report.timeline.len(), 1);
        assert!(report.phases.iter().any(|p| p.name == "simulate"));
        // Utilization derived from unit events is a sane fraction here.
        let u = report.worker_utilization();
        assert!(u > 0.0);
        let rendered = report.to_string();
        assert!(rendered.contains("quarantined"));
        assert!(rendered.contains("phases:"));
        assert_eq!(report.scalar_lane_events, 400);
        let simulate = rendered
            .lines()
            .find(|l| l.starts_with("  simulate  : "))
            .expect("simulate phase line");
        assert!(simulate.ends_with(", 400 scalar lane-events"), "{simulate}");
    }

    #[test]
    fn report_prints_serve_stage_medians() {
        let job = |v: u64, cache: &str, stages: &str| {
            format!(
                "{{\"v\":{v},\"t_us\":5,\"run\":\"r\",\"kind\":\"point\",\"phase\":\"serve\",\
                 \"name\":\"job\",\"dur_us\":900,\"cache\":\"{cache}\",\"status\":\"complete\",\
                 \"queue_depth\":0{stages}}}\n"
            )
        };
        let mut text = job(
            2,
            "miss",
            ",\"queue_us\":40,\"compute_us\":800,\"write_us\":12",
        );
        text.push_str(&job(
            2,
            "miss",
            ",\"queue_us\":60,\"compute_us\":820,\"write_us\":12",
        ));
        text.push_str(&job(2, "hit", ",\"write_us\":12"));
        // A version 1 line has no stage timings and still counts as a job.
        text.push_str(&job(1, "hit", ""));
        let report = RunReport::from_jsonl(&text).expect("v1 and v2 lines parse");
        assert_eq!(report.jobs_done, 4);
        assert_eq!(report.job_queue.count, 2);
        assert_eq!(report.job_compute.count, 2);
        assert_eq!(report.job_write.count, 3);
        let serve = report
            .to_string()
            .lines()
            .find(|l| l.starts_with("serve: "))
            .expect("serve line")
            .to_string();
        assert!(
            // Bucket maxima (at most 6.25% high) of the lower middle samples.
            serve.ends_with("median queue 41.0 us / compute 819.2 us / write 12.3 us"),
            "{serve}"
        );
        // No stage recorded: a dash, not a fake 0.
        let hits_only = RunReport::from_jsonl(&job(1, "hit", "")).expect("parses");
        assert!(hits_only
            .to_string()
            .contains("median queue - / compute - / write -"));
    }

    #[test]
    fn report_rejects_malformed_line_with_position() {
        let good = event(vec![]).to_jsonl();
        let text = format!("{good}\nnot json\n");
        let err = RunReport::from_jsonl(&text).expect_err("must fail");
        assert!(err.starts_with("line 2:"), "{err}");
    }

    #[test]
    fn progress_line_renders_counts() {
        let c = ProgressCounters::default();
        c.total.store(100, Ordering::Relaxed);
        c.done.store(25, Ordering::Relaxed);
        c.events.store(2_000_000, Ordering::Relaxed);
        c.pruned.store(7, Ordering::Relaxed);
        let line = render_progress(&c, Duration::from_secs(1));
        assert!(line.contains("25/100"), "{line}");
        assert!(line.contains("Me/s"), "{line}");
        assert!(line.contains("eta"), "{line}");
        assert!(line.contains("7 pruned"), "{line}");
    }
}
