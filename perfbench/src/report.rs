//! Output checks, nearest-rank statistics and the result line every
//! subcommand ends with.

use std::fmt::Write as _;

use bonsai_records::{Record, U32Rec};

/// How one output compares with its raw input sorted by `sort_unstable`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Exactly the raw input, sorted.
    Ok,
    /// Wrong, in exactly the way of the known terminal-record defect:
    /// every reserved terminal record (0) of the input came back as the
    /// smallest legal record (`Record::sanitize`) and everything else is
    /// right. Counted as a failure.
    TerminalRewrite,
    /// Wrong in any other way. Counted as a failure and makes the run
    /// incorrect.
    Wrong,
}

/// Compares `got` with `expected` (the raw input sorted); never
/// sanitizes the expectation.
pub fn check(expected: &[U32Rec], got: &[U32Rec]) -> Outcome {
    if expected == got {
        return Outcome::Ok;
    }
    let zeros = expected.iter().take_while(|r| r.is_terminal()).count();
    let explained = zeros > 0
        && expected.len() == got.len()
        && got[..zeros]
            .iter()
            .all(|&r| r == U32Rec::TERMINAL.sanitize())
        && got[zeros..] == expected[zeros..];
    if explained {
        Outcome::TerminalRewrite
    } else {
        Outcome::Wrong
    }
}

/// `input` sorted by `sort_unstable`: the only expectation any output
/// is compared with.
pub fn expected(input: &[U32Rec]) -> Vec<U32Rec> {
    let mut sorted = input.to_vec();
    sorted.sort_unstable();
    sorted
}

/// Tally of checked operations.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub terminal_rewrite: u64,
    pub wrong: u64,
    pub error_reply: u64,
    pub refused: u64,
    pub no_reply: u64,
}

impl Tally {
    pub fn record(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::Ok => self.ok += 1,
            Outcome::TerminalRewrite => self.terminal_rewrite += 1,
            Outcome::Wrong => self.wrong += 1,
        }
    }

    /// Wrong output + error reply + refused + no reply.
    pub fn failed(&self) -> u64 {
        self.terminal_rewrite + self.wrong + self.error_reply + self.refused + self.no_reply
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// The run is correct when every operation was accounted for and no
    /// output was wrong other than by the known, declared defect.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.ok + self.failed() == self.attempted && self.attempted > 0
    }

    pub fn line(&self, workload: &str) -> String {
        format!(
            "{workload}: attempted={} ok={} failed={} (terminal_rewrite={} wrong={} error_reply={} \
             refused={} no_reply={}) fail_frac={:.5}",
            self.attempted,
            self.ok,
            self.failed(),
            self.terminal_rewrite,
            self.wrong,
            self.error_reply,
            self.refused,
            self.no_reply,
            self.fail_frac()
        )
    }
}

/// Nearest-rank percentile `p` in `[0, 100]` of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// One named metric of a result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// The metrics and tally of one subcommand, printed as the machine
/// line `RESULT {...}` that `run.py` turns into the benchmark's result.
#[derive(Debug, Default)]
pub struct RunResult {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    /// Set when the run must not be folded into medians.
    pub invalid: Option<String>,
}

impl RunResult {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    pub fn to_json(&self) -> String {
        let mut out = String::new();
        write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}",
            self.tally.correct(),
            self.tally.attempted,
            self.tally.failed()
        )
        .expect("write to String");
        match &self.invalid {
            Some(reason) => write!(out, ", \"invalid\": {}", json_str(reason)),
            None => write!(out, ", \"invalid\": null"),
        }
        .expect("write to String");
        out.push_str(", \"metrics\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "{}: {{\"value\": {}, \"unit\": {}, \"samples\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit),
                m.samples
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values become `null`.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Peak resident set (`VmHWM`) of process `pid` in MB, from procfs.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// FNV-1a over a stream of `u64`s: the simulated-stats digest.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn add(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Adds the simulated (deterministic) fields of `report` — per-pass
/// cycles, stalls, bytes and run counts — to `digest`. Host-dependent
/// and observability-only fields (fast-forwarded and overlap cycles,
/// cache counters, virtual worker cycles) are left out.
pub fn digest_report(digest: &mut Digest, report: &bonsai_amt::SortReport) {
    digest.add(report.total_cycles);
    digest.add(report.n_records);
    digest.add(report.record_bytes);
    digest.add(report.passes.len() as u64);
    for p in &report.passes {
        for v in [
            u64::from(p.stage),
            p.cycles,
            p.records,
            p.runs_in,
            p.runs_out,
            p.bytes_read,
            p.bytes_written,
            p.input_stalls,
            p.output_stalls,
        ] {
            digest.add(v);
        }
    }
}
