//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side of each call into a
//! layer's public API: name, start, end, parent span and job id. They
//! stay in memory until the run ends and are then written out as JSON
//! lines.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::report::json_str;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` for job `job` under the innermost open
    /// span; spans opened before [`Tracer::close`] become its children.
    pub fn open(&mut self, name: &'static str, job: u64) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.now_ns();
        id
    }

    /// Closes span `id`, the innermost open one.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(id), "spans close innermost first");
    }

    /// Runs `f` inside a span named `name` for job `job`.
    pub fn span<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, job);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span whose interval was measured elsewhere (e.g. on a
    /// reply channel), under the currently open span.
    pub fn record(&mut self, name: &'static str, job: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            parent: self.open.last().copied(),
            job,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Total duration (ns) of every span named `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut line = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            line.clear();
            write!(
                line,
                "{{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"job\": {}}}",
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.job
            )
            .expect("write to String");
            writeln!(out, "{line}")?;
        }
        out.flush()
    }

    /// Measured cost of recording one empty span, in ns.
    pub fn span_cost_ns() -> f64 {
        const N: u64 = 20_000;
        let mut probe = Self::default();
        let start = Instant::now();
        for i in 0..N {
            probe.span("probe", i, || ());
        }
        start.elapsed().as_nanos() as f64 / N as f64
    }
}
