//! In-memory span recorder for the traced run.
//!
//! A span is taken by the benchmark around one call into a crate's public
//! function: name, start, end, parent span and request id. Spans stay in
//! memory while the run measures and are written out as JSONL when it
//! ends. Self time is a span's duration minus the part of it that its
//! children cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; its end is filled in by [`close`](Self::close).
    pub fn open(&self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start_ns = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("no span holder panics");
        spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        spans.len() - 1
    }

    pub fn close(&self, id: usize) -> Duration {
        let end_ns = self.ns(Instant::now());
        let mut spans = self.spans.lock().expect("no span holder panics");
        spans[id].end_ns = end_ns;
        Duration::from_nanos(spans[id].dur_ns())
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }

    pub fn snapshot(&self) -> Vec<SpanRec> {
        self.spans.lock().expect("no span holder panics").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.snapshot().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Default, Debug)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Aggregates spans by name: count, total duration and self time (the
/// duration minus the union of the children's intervals).
pub fn totals(spans: &[SpanRec]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let mut iv: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                (
                    spans[c].start_ns.max(s.start_ns),
                    spans[c].end_ns.min(s.end_ns),
                )
            })
            .filter(|(a, b)| b > a)
            .collect();
        iv.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (a, b) in iv {
            match cur {
                Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                Some((ca, cb)) => {
                    covered += cb - ca;
                    cur = Some((a, b));
                }
                None => cur = Some((a, b)),
            }
        }
        if let Some((ca, cb)) = cur {
            covered += cb - ca;
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(covered);
    }
    out
}

/// Whether a span name belongs to a measured layer (a crate's public
/// call) rather than to the benchmark's own grouping spans.
pub fn is_layer(name: &str) -> bool {
    ["analysis.", "core.", "loopir.", "memsim.", "memx."]
        .iter()
        .any(|p| name.starts_with(p))
}

/// Prints the self-time table of a traced run.
pub fn print_self_times(spans: &[SpanRec]) {
    println!(
        "{:<28} {:>8} {:>12} {:>12}",
        "span", "count", "total_ms", "self_ms"
    );
    for (name, t) in totals(spans) {
        println!(
            "{:<28} {:>8} {:>12.3} {:>12.3}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

/// Writes a traced run's spans to `.bench_spans/<workload>-seed<N>.jsonl`
/// in the working directory; a failure to write them is reported but does
/// not fail the run.
pub fn write_spans(tracer: &Tracer, workload: &str, seed: u64) {
    let path = std::path::PathBuf::from(format!(".bench_spans/{workload}-seed{seed}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("memxbench: cannot write {}: {e}", path.display()),
    }
}
