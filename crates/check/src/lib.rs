//! Static configuration analyzer and diagnostic framework for Bonsai.
//!
//! The analytical model (PAPER.md, §IV) exists so that a configuration
//! can be proven sane *before* committing to a multi-minute cycle
//! simulation or an FPGA build. This crate is the substrate for that
//! guarantee: a [`Diagnostic`] type with **stable `BONxxx` codes**, a
//! machine-readable [`codes`] registry, and dependency-free numeric
//! checks that the configuration types in `bonsai-amt`, `bonsai-memsim`
//! and `bonsai-model` call from their `try_new` constructors.
//!
//! Three code ranges are reserved:
//!
//! | Range      | Layer                | Example |
//! |------------|----------------------|---------|
//! | `BON00x`   | AMT / record shape   | [`codes::P_NOT_POWER_OF_TWO`] |
//! | `BON01x`   | Loader / memory      | [`codes::BATCH_BELOW_BUS_WIDTH`] |
//! | `BON02x`   | Resource model       | [`codes::LUT_BUDGET_EXCEEDED`] |
//! | `BON03x`   | Pipeline graph       | [`codes::GRAPH_DEADLOCK`] |
//! | `BON04x`   | Simulation runtime   | [`codes::SIM_PASS_LIVELOCK`] |
//! | `BON05x`   | Runtime topology     | [`codes::RUNTIME_QUEUE_ZERO`] |
//! | `BON06x`   | Occupancy reachability | [`codes::PROVE_DEADLOCK_REACHABLE`] |
//! | `BON07x`   | Wire protocol        | [`codes::WIRE_BAD_MAGIC`] |
//! | `BON1xx`   | Simulation sanitizer | [`codes::SAN_FIFO_OVERFLOW`] |
//!
//! Every code is catalogued with cause and fix in
//! [`docs/diagnostics.md`](https://github.com/bonsai-sort/bonsai/blob/main/docs/diagnostics.md);
//! a test in this crate keeps that catalogue in sync with the registry.
//!
//! This crate deliberately has **no dependencies** — not even on
//! `bonsai-records` — so that every other crate in the workspace can
//! depend on it without cycles. The integration tests reach back up the
//! stack through dev-dependencies.

pub mod graph;
pub mod prove;

use std::fmt;

/// How severe a diagnostic is.
///
/// `Error` means the configuration cannot work (it would panic, wedge
/// the simulator, or fail synthesis); `Warning` means it will run but
/// contradicts the paper's design intent (e.g. wasted bandwidth).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but runnable configuration.
    Warning,
    /// The configuration is invalid and must be rejected.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// A single finding from the static analyzer or the simulation
/// sanitizer.
///
/// The `code` is stable across releases: scripts and CI may match on
/// it. The `context` carries the numbers that triggered the finding as
/// `(name, value)` pairs so callers can render or assert on them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable machine-readable code, e.g. `"BON001"`.
    pub code: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable, single-sentence description of the finding.
    pub message: String,
    /// `(name, value)` pairs recording the offending quantities.
    pub context: Vec<(&'static str, String)>,
}

impl Diagnostic {
    /// Construct an error diagnostic.
    #[must_use]
    pub fn error(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: Severity::Error,
            message: message.into(),
            context: Vec::new(),
        }
    }

    /// Construct a warning diagnostic.
    #[must_use]
    pub fn warning(code: &'static str, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: Severity::Warning,
            message: message.into(),
            context: Vec::new(),
        }
    }

    /// Attach a named quantity to the diagnostic (builder style).
    #[must_use]
    pub fn with(mut self, name: &'static str, value: impl fmt::Display) -> Self {
        self.context.push((name, value.to_string()));
        self
    }

    /// `true` if this diagnostic is an [`Severity::Error`].
    #[must_use]
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}", self.code, self.severity, self.message)?;
        if !self.context.is_empty() {
            write!(f, " (")?;
            for (i, (name, value)) in self.context.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{name}={value}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// `true` if any diagnostic in the slice is an error.
#[must_use]
pub fn has_errors(diagnostics: &[Diagnostic]) -> bool {
    diagnostics.iter().any(Diagnostic::is_error)
}

/// Partition a finding list: `(errors, warnings)`.
#[must_use]
pub fn partition(diagnostics: Vec<Diagnostic>) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
    diagnostics.into_iter().partition(Diagnostic::is_error)
}

/// The stable diagnostic code registry.
///
/// Codes are never renumbered or reused; retired codes would be kept as
/// tombstones. Each constant documents its own trigger; cause and fix
/// live in `docs/diagnostics.md`.
pub mod codes {
    use super::Severity;

    /// Static metadata about one diagnostic code.
    #[derive(Debug, Clone, Copy)]
    pub struct CodeInfo {
        /// The stable code string, e.g. `"BON001"`.
        pub code: &'static str,
        /// Default severity the analyzer emits this code with.
        pub severity: Severity,
        /// One-line summary (matches the catalogue heading).
        pub summary: &'static str,
    }

    // --- BON00x: AMT / record shape -------------------------------------

    /// Root throughput `p` is not a power of two (or is zero).
    pub const P_NOT_POWER_OF_TWO: &str = "BON001";
    /// Leaf count `l` is not a power of two >= 2.
    pub const L_NOT_POWER_OF_TWO: &str = "BON002";
    /// Root width `p` exceeds the leaf count `l`.
    pub const P_EXCEEDS_LEAVES: &str = "BON003";
    /// Record width is zero bytes.
    pub const RECORD_WIDTH_ZERO: &str = "BON004";
    /// Loader batch is not a whole number of records.
    pub const BATCH_NOT_RECORD_MULTIPLE: &str = "BON005";

    // --- BON01x: loader / memory ----------------------------------------

    /// Loader batch smaller than one DRAM bus beat.
    pub const BATCH_BELOW_BUS_WIDTH: &str = "BON010";
    /// Leaf buffers are not double-buffered.
    pub const BUFFER_NOT_DOUBLE: &str = "BON011";
    /// Loader batch size is zero bytes.
    pub const BATCH_ZERO: &str = "BON012";
    /// Memory model has zero banks.
    pub const MEMORY_ZERO_BANKS: &str = "BON013";
    /// Memory port bandwidth is zero bytes/cycle.
    pub const MEMORY_ZERO_BANDWIDTH: &str = "BON014";
    /// Memory capacity cannot hold a single loader batch.
    pub const CAPACITY_BELOW_BATCH: &str = "BON015";
    /// Burst setup overhead wastes most of the bandwidth.
    pub const BURST_EFFICIENCY_LOW: &str = "BON016";
    /// Write-back payload width is zero bytes.
    pub const WRITE_PAYLOAD_ZERO: &str = "BON017";

    // --- BON02x: resource model -----------------------------------------

    /// Configuration exceeds the LUT budget (Eq. 9).
    pub const LUT_BUDGET_EXCEEDED: &str = "BON020";
    /// Configuration exceeds the BRAM budget (Eq. 10).
    pub const BRAM_BUDGET_EXCEEDED: &str = "BON021";
    /// `p` exceeds the hardware's maximum synthesizable root width.
    pub const P_EXCEEDS_MAX: &str = "BON022";
    /// `l` exceeds the hardware's maximum routable leaf count.
    pub const L_EXCEEDS_MAX: &str = "BON023";
    /// Unroll or pipeline factor is zero.
    pub const COPIES_ZERO: &str = "BON024";
    /// Presorter chunk is not a power of two >= 2.
    pub const PRESORT_NOT_POWER_OF_TWO: &str = "BON025";
    /// Presorter chunk exceeds one loader batch of records.
    pub const PRESORT_EXCEEDS_BATCH: &str = "BON026";

    // --- BON04x: simulation runtime -------------------------------------

    /// A simulated merge pass exceeded its livelock cycle bound.
    pub const SIM_PASS_LIVELOCK: &str = "BON040";

    // --- BON05x: runtime topology ---------------------------------------

    /// Job queue depth is zero while more than one producer submits.
    pub const RUNTIME_QUEUE_ZERO: &str = "BON050";
    /// Pass workers exceed the merge groups any pass can offer.
    pub const RUNTIME_WORKERS_EXCEED_GROUPS: &str = "BON051";
    /// Worker × pass-worker product oversubscribes the host cores.
    pub const RUNTIME_OVERSUBSCRIBED: &str = "BON054";
    /// Queue depth below the worker count starves the pool.
    pub const RUNTIME_QUEUE_BELOW_WORKERS: &str = "BON055";

    // --- BON06x: occupancy reachability (bonsai-prove) ------------------

    /// Exhaustive occupancy reachability found a deadlocked marking.
    pub const PROVE_DEADLOCK_REACHABLE: &str = "BON060";
    /// Exhaustive occupancy reachability found a FIFO/credit overflow.
    pub const PROVE_OVERFLOW_REACHABLE: &str = "BON061";
    /// The reachability state budget ran out before coverage.
    pub const PROVE_BUDGET_EXHAUSTED: &str = "BON062";
    /// A certified occupancy bound failed independent re-verification.
    pub const PROVE_CERTIFICATE_INVALID: &str = "BON063";
    /// The static throughput floor exceeds an observed/model throughput.
    pub const PROVE_BOUND_UNSOUND: &str = "BON064";
    /// A static refutation did not reproduce in simulation.
    pub const PROVE_REPLAY_DIVERGED: &str = "BON065";

    // --- BON07x: wire protocol (bonsai-net) -----------------------------

    /// A wire frame's magic word did not match; the byte stream is
    /// desynchronized and the connection cannot be trusted further.
    pub const WIRE_BAD_MAGIC: &str = "BON070";
    /// A wire frame carried an unsupported protocol version.
    pub const WIRE_BAD_VERSION: &str = "BON071";
    /// The connection closed mid-frame (truncated header or payload).
    pub const WIRE_TRUNCATED: &str = "BON072";
    /// A wire frame declared a payload larger than the server accepts.
    pub const WIRE_PAYLOAD_OVERSIZED: &str = "BON073";
    /// A wire payload is not a whole number of records.
    pub const WIRE_PAYLOAD_RAGGED: &str = "BON074";
    /// A wire frame's record width does not match the server's record
    /// type.
    pub const WIRE_WIDTH_UNSUPPORTED: &str = "BON075";
    /// The server is shutting down; the job was rejected, not run.
    pub const WIRE_SERVER_CLOSED: &str = "BON076";
    /// The job was accepted but failed server-side (invalid config,
    /// BON040 livelock, or a panicking job); the payload carries the
    /// underlying diagnostic text.
    pub const WIRE_JOB_FAILED: &str = "BON077";

    // --- BON03x: pipeline-graph analyses --------------------------------

    /// The pipeline graph can deadlock (zero-credit edge or dataflow
    /// cycle over the credit/backpressure dependency graph).
    pub const GRAPH_DEADLOCK: &str = "BON030";
    /// An edge FIFO is shallower than the consumer's flush requirement.
    pub const GRAPH_FIFO_BELOW_FLUSH: &str = "BON031";
    /// Source→sink min-cut bandwidth below the required throughput.
    pub const GRAPH_BANDWIDTH_INFEASIBLE: &str = "BON032";
    /// The analytical model predicts below the graph's static latency
    /// lower bound (critical path / min-cut certification failed).
    pub const GRAPH_LATENCY_BOUND_VIOLATION: &str = "BON033";
    /// A node lies on no source→sink dataflow path.
    pub const GRAPH_DEAD_COMPONENT: &str = "BON034";
    /// A memory-channel node has zero assigned banks.
    pub const GRAPH_CHANNEL_ZERO_BANKS: &str = "BON035";
    /// Model latency drifted beyond tolerance from a SimEngine probe.
    pub const GRAPH_MODEL_DRIFT: &str = "BON036";
    /// The graph IR itself is malformed (dangling edge, missing
    /// source/sink).
    pub const GRAPH_MALFORMED: &str = "BON037";

    // --- BON1xx: simulation sanitizer -----------------------------------

    /// A FIFO rejected a push (overflow) during simulation.
    pub const SAN_FIFO_OVERFLOW: &str = "BON101";
    /// A merger emitted a descending record inside one run.
    pub const SAN_OUT_OF_ORDER: &str = "BON102";
    /// A merger consumed and produced different record counts.
    pub const SAN_RECORD_CONSERVATION: &str = "BON103";
    /// A simulation pass lost or duplicated records end to end.
    pub const SAN_PASS_CONSERVATION: &str = "BON104";
    /// Per-bank byte accounting disagrees with aggregate counters.
    pub const SAN_BYTE_ACCOUNTING: &str = "BON105";
    /// Terminal-record flush protocol violated at the root.
    pub const SAN_FLUSH_PROTOCOL: &str = "BON106";

    /// Every registered code, in catalogue order.
    pub const ALL: &[CodeInfo] = &[
        CodeInfo {
            code: P_NOT_POWER_OF_TWO,
            severity: Severity::Error,
            summary: "p not a power of two",
        },
        CodeInfo {
            code: L_NOT_POWER_OF_TWO,
            severity: Severity::Error,
            summary: "l not a power of two >= 2",
        },
        CodeInfo {
            code: P_EXCEEDS_LEAVES,
            severity: Severity::Warning,
            summary: "p exceeds leaf count l",
        },
        CodeInfo {
            code: RECORD_WIDTH_ZERO,
            severity: Severity::Error,
            summary: "record width is zero",
        },
        CodeInfo {
            code: BATCH_NOT_RECORD_MULTIPLE,
            severity: Severity::Error,
            summary: "batch not a whole number of records",
        },
        CodeInfo {
            code: BATCH_BELOW_BUS_WIDTH,
            severity: Severity::Error,
            summary: "loader batch smaller than one DRAM burst",
        },
        CodeInfo {
            code: BUFFER_NOT_DOUBLE,
            severity: Severity::Warning,
            summary: "leaf buffers not double-buffered",
        },
        CodeInfo {
            code: BATCH_ZERO,
            severity: Severity::Error,
            summary: "loader batch size is zero",
        },
        CodeInfo {
            code: MEMORY_ZERO_BANKS,
            severity: Severity::Error,
            summary: "memory has zero banks",
        },
        CodeInfo {
            code: MEMORY_ZERO_BANDWIDTH,
            severity: Severity::Error,
            summary: "memory port bandwidth is zero",
        },
        CodeInfo {
            code: CAPACITY_BELOW_BATCH,
            severity: Severity::Error,
            summary: "memory capacity below one batch",
        },
        CodeInfo {
            code: BURST_EFFICIENCY_LOW,
            severity: Severity::Warning,
            summary: "burst efficiency below 50%",
        },
        CodeInfo {
            code: WRITE_PAYLOAD_ZERO,
            severity: Severity::Error,
            summary: "write-back payload width is zero",
        },
        CodeInfo {
            code: LUT_BUDGET_EXCEEDED,
            severity: Severity::Error,
            summary: "LUT budget exceeded (Eq. 9)",
        },
        CodeInfo {
            code: BRAM_BUDGET_EXCEEDED,
            severity: Severity::Error,
            summary: "BRAM budget exceeded (Eq. 10)",
        },
        CodeInfo {
            code: P_EXCEEDS_MAX,
            severity: Severity::Error,
            summary: "p exceeds hardware max_p",
        },
        CodeInfo {
            code: L_EXCEEDS_MAX,
            severity: Severity::Error,
            summary: "l exceeds hardware max_l",
        },
        CodeInfo {
            code: COPIES_ZERO,
            severity: Severity::Error,
            summary: "unroll or pipeline factor is zero",
        },
        CodeInfo {
            code: PRESORT_NOT_POWER_OF_TWO,
            severity: Severity::Error,
            summary: "presort chunk not a power of two >= 2",
        },
        CodeInfo {
            code: PRESORT_EXCEEDS_BATCH,
            severity: Severity::Warning,
            summary: "presort chunk exceeds one batch",
        },
        CodeInfo {
            code: SIM_PASS_LIVELOCK,
            severity: Severity::Error,
            summary: "simulated pass exceeded its livelock cycle bound",
        },
        CodeInfo {
            code: RUNTIME_QUEUE_ZERO,
            severity: Severity::Error,
            summary: "zero-depth job queue with concurrent producers",
        },
        CodeInfo {
            code: RUNTIME_WORKERS_EXCEED_GROUPS,
            severity: Severity::Warning,
            summary: "pass workers exceed available merge groups",
        },
        CodeInfo {
            code: RUNTIME_OVERSUBSCRIBED,
            severity: Severity::Warning,
            summary: "worker x pass-worker product oversubscribes cores",
        },
        CodeInfo {
            code: RUNTIME_QUEUE_BELOW_WORKERS,
            severity: Severity::Warning,
            summary: "queue depth below worker count starves the pool",
        },
        CodeInfo {
            code: PROVE_DEADLOCK_REACHABLE,
            severity: Severity::Error,
            summary: "occupancy reachability found a deadlock",
        },
        CodeInfo {
            code: PROVE_OVERFLOW_REACHABLE,
            severity: Severity::Error,
            summary: "occupancy reachability found an overflow",
        },
        CodeInfo {
            code: PROVE_BUDGET_EXHAUSTED,
            severity: Severity::Warning,
            summary: "reachability state budget exhausted",
        },
        CodeInfo {
            code: PROVE_CERTIFICATE_INVALID,
            severity: Severity::Error,
            summary: "occupancy certificate failed re-verification",
        },
        CodeInfo {
            code: PROVE_BOUND_UNSOUND,
            severity: Severity::Error,
            summary: "static throughput floor exceeds observed throughput",
        },
        CodeInfo {
            code: PROVE_REPLAY_DIVERGED,
            severity: Severity::Warning,
            summary: "static refutation did not reproduce in simulation",
        },
        CodeInfo {
            code: WIRE_BAD_MAGIC,
            severity: Severity::Error,
            summary: "wire frame magic mismatch (stream desynchronized)",
        },
        CodeInfo {
            code: WIRE_BAD_VERSION,
            severity: Severity::Error,
            summary: "wire protocol version unsupported",
        },
        CodeInfo {
            code: WIRE_TRUNCATED,
            severity: Severity::Error,
            summary: "wire frame truncated mid-header or mid-payload",
        },
        CodeInfo {
            code: WIRE_PAYLOAD_OVERSIZED,
            severity: Severity::Error,
            summary: "wire payload exceeds the server's frame limit",
        },
        CodeInfo {
            code: WIRE_PAYLOAD_RAGGED,
            severity: Severity::Error,
            summary: "wire payload not a whole number of records",
        },
        CodeInfo {
            code: WIRE_WIDTH_UNSUPPORTED,
            severity: Severity::Error,
            summary: "wire record width unsupported by the server",
        },
        CodeInfo {
            code: WIRE_SERVER_CLOSED,
            severity: Severity::Error,
            summary: "server shutting down; job rejected at submit",
        },
        CodeInfo {
            code: WIRE_JOB_FAILED,
            severity: Severity::Error,
            summary: "accepted job failed server-side",
        },
        CodeInfo {
            code: GRAPH_DEADLOCK,
            severity: Severity::Error,
            summary: "pipeline graph can deadlock",
        },
        CodeInfo {
            code: GRAPH_FIFO_BELOW_FLUSH,
            severity: Severity::Error,
            summary: "FIFO below the consumer's flush requirement",
        },
        CodeInfo {
            code: GRAPH_BANDWIDTH_INFEASIBLE,
            severity: Severity::Error,
            summary: "min-cut bandwidth below required throughput",
        },
        CodeInfo {
            code: GRAPH_LATENCY_BOUND_VIOLATION,
            severity: Severity::Error,
            summary: "model predicts below the static latency bound",
        },
        CodeInfo {
            code: GRAPH_DEAD_COMPONENT,
            severity: Severity::Error,
            summary: "node on no source->sink path",
        },
        CodeInfo {
            code: GRAPH_CHANNEL_ZERO_BANKS,
            severity: Severity::Error,
            summary: "memory channel has zero assigned banks",
        },
        CodeInfo {
            code: GRAPH_MODEL_DRIFT,
            severity: Severity::Warning,
            summary: "model drifted from simulation beyond tolerance",
        },
        CodeInfo {
            code: GRAPH_MALFORMED,
            severity: Severity::Error,
            summary: "pipeline graph IR is malformed",
        },
        CodeInfo {
            code: SAN_FIFO_OVERFLOW,
            severity: Severity::Error,
            summary: "sanitizer: FIFO overflow",
        },
        CodeInfo {
            code: SAN_OUT_OF_ORDER,
            severity: Severity::Error,
            summary: "sanitizer: out-of-order output in run",
        },
        CodeInfo {
            code: SAN_RECORD_CONSERVATION,
            severity: Severity::Error,
            summary: "sanitizer: merger record conservation",
        },
        CodeInfo {
            code: SAN_PASS_CONSERVATION,
            severity: Severity::Error,
            summary: "sanitizer: pass record conservation",
        },
        CodeInfo {
            code: SAN_BYTE_ACCOUNTING,
            severity: Severity::Error,
            summary: "sanitizer: byte accounting mismatch",
        },
        CodeInfo {
            code: SAN_FLUSH_PROTOCOL,
            severity: Severity::Error,
            summary: "sanitizer: flush protocol violation",
        },
    ];

    /// Look up a code's registry entry.
    #[must_use]
    pub fn lookup(code: &str) -> Option<&'static CodeInfo> {
        ALL.iter().find(|info| info.code == code)
    }
}

/// Check the AMT shape parameters `p` (root throughput, records/cycle)
/// and `l` (leaf count). Emits `BON001`, `BON002`, `BON003`.
#[must_use]
pub fn check_amt_shape(p: usize, l: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if p == 0 || !p.is_power_of_two() {
        out.push(
            Diagnostic::error(
                codes::P_NOT_POWER_OF_TWO,
                "root throughput p must be a power of two >= 1",
            )
            .with("p", p),
        );
    }
    if l < 2 || !l.is_power_of_two() {
        out.push(
            Diagnostic::error(
                codes::L_NOT_POWER_OF_TWO,
                "leaf count l must be a power of two >= 2",
            )
            .with("l", l),
        );
    }
    if p.is_power_of_two() && l.is_power_of_two() && p > l {
        out.push(
            Diagnostic::warning(
                codes::P_EXCEEDS_LEAVES,
                "root width p exceeds leaf count l; levels above log2(l) add no throughput",
            )
            .with("p", p)
            .with("l", l),
        );
    }
    out
}

/// Check the loader's internal shape: batch size, record width and leaf
/// buffering. Emits `BON012`, `BON004`, `BON005`, `BON011`.
#[must_use]
pub fn check_loader_shape(
    batch_bytes: usize,
    record_bytes: usize,
    buffer_batches: usize,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if batch_bytes == 0 {
        out.push(
            Diagnostic::error(codes::BATCH_ZERO, "loader batch size must be positive")
                .with("batch_bytes", batch_bytes),
        );
    }
    if record_bytes == 0 {
        out.push(
            Diagnostic::error(codes::RECORD_WIDTH_ZERO, "record width must be positive")
                .with("record_bytes", record_bytes),
        );
    } else if !batch_bytes.is_multiple_of(record_bytes) {
        out.push(
            Diagnostic::error(
                codes::BATCH_NOT_RECORD_MULTIPLE,
                "loader batch must hold a whole number of records",
            )
            .with("batch_bytes", batch_bytes)
            .with("record_bytes", record_bytes),
        );
    }
    if buffer_batches < 2 {
        out.push(
            Diagnostic::warning(
                codes::BUFFER_NOT_DOUBLE,
                "leaf buffers should be at least double-buffered to hide refill latency",
            )
            .with("buffer_batches", buffer_batches),
        );
    }
    out
}

/// Check the memory model's own parameters. Emits `BON013`, `BON014`.
#[must_use]
pub fn check_memory_shape(
    banks: usize,
    read_bytes_per_cycle: usize,
    write_bytes_per_cycle: usize,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if banks == 0 {
        out.push(
            Diagnostic::error(
                codes::MEMORY_ZERO_BANKS,
                "memory must have at least one bank",
            )
            .with("banks", banks),
        );
    }
    if read_bytes_per_cycle == 0 || write_bytes_per_cycle == 0 {
        out.push(
            Diagnostic::error(
                codes::MEMORY_ZERO_BANDWIDTH,
                "memory port bandwidth must be positive in both directions",
            )
            .with("read_bytes_per_cycle", read_bytes_per_cycle)
            .with("write_bytes_per_cycle", write_bytes_per_cycle),
        );
    }
    out
}

/// Cross-check the loader against the memory it reads from. Emits
/// `BON010`, `BON015`, `BON016`.
#[must_use]
pub fn check_loader_against_memory(
    batch_bytes: usize,
    read_bytes_per_cycle: usize,
    burst_setup_cycles: u64,
    capacity_bytes: u64,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if batch_bytes == 0 || read_bytes_per_cycle == 0 {
        // Shape errors are reported by the shape checks; nothing to
        // cross-validate here.
        return out;
    }
    if batch_bytes < read_bytes_per_cycle {
        out.push(
            Diagnostic::error(
                codes::BATCH_BELOW_BUS_WIDTH,
                "loader batch is smaller than one DRAM burst; the bus cannot issue a partial beat",
            )
            .with("batch_bytes", batch_bytes)
            .with("read_bytes_per_cycle", read_bytes_per_cycle),
        );
    }
    if capacity_bytes < batch_bytes as u64 {
        out.push(
            Diagnostic::error(
                codes::CAPACITY_BELOW_BATCH,
                "memory capacity cannot hold a single loader batch",
            )
            .with("capacity_bytes", capacity_bytes)
            .with("batch_bytes", batch_bytes),
        );
    }
    // Burst efficiency = transfer / (transfer + setup); below 50% the
    // setup overhead dominates and batching has failed its purpose.
    let transfer_cycles = batch_bytes.div_ceil(read_bytes_per_cycle) as u64;
    if batch_bytes >= read_bytes_per_cycle && transfer_cycles < burst_setup_cycles {
        out.push(
            Diagnostic::warning(
                codes::BURST_EFFICIENCY_LOW,
                "burst setup cycles dominate the transfer; grow the batch to amortize them",
            )
            .with("transfer_cycles", transfer_cycles)
            .with("burst_setup_cycles", burst_setup_cycles),
        );
    }
    out
}

/// Check synthesis limits for the tree shape. Emits `BON022`, `BON023`.
#[must_use]
pub fn check_tool_limits(p: usize, l: usize, max_p: usize, max_l: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if p > max_p {
        out.push(
            Diagnostic::error(
                codes::P_EXCEEDS_MAX,
                "root width p exceeds the maximum the tools can synthesize",
            )
            .with("p", p)
            .with("max_p", max_p),
        );
    }
    if l > max_l {
        out.push(
            Diagnostic::error(
                codes::L_EXCEEDS_MAX,
                "leaf count l exceeds the maximum the tools can route",
            )
            .with("l", l)
            .with("max_l", max_l),
        );
    }
    out
}

/// Check the LUT budget (paper Eq. 9). Emits `BON020`.
#[must_use]
pub fn check_lut_budget(required_lut: f64, available_lut: f64) -> Vec<Diagnostic> {
    if required_lut > available_lut {
        vec![Diagnostic::error(
            codes::LUT_BUDGET_EXCEEDED,
            "configuration exceeds the device LUT budget (Eq. 9)",
        )
        .with("required_lut", format!("{required_lut:.0}"))
        .with("available_lut", format!("{available_lut:.0}"))]
    } else {
        Vec::new()
    }
}

/// Check the BRAM budget (paper Eq. 10). Emits `BON021`.
#[must_use]
pub fn check_bram_budget(required_bytes: u64, available_bytes: u64) -> Vec<Diagnostic> {
    if required_bytes > available_bytes {
        vec![Diagnostic::error(
            codes::BRAM_BUDGET_EXCEEDED,
            "configuration exceeds the device BRAM budget (Eq. 10)",
        )
        .with("required_bytes", required_bytes)
        .with("available_bytes", available_bytes)]
    } else {
        Vec::new()
    }
}

/// Check unroll/pipeline replication factors. Emits `BON024`.
#[must_use]
pub fn check_copies(unroll: usize, pipeline: usize) -> Vec<Diagnostic> {
    if unroll == 0 || pipeline == 0 {
        vec![Diagnostic::error(
            codes::COPIES_ZERO,
            "unroll and pipeline factors must both be at least 1",
        )
        .with("unroll", unroll)
        .with("pipeline", pipeline)]
    } else {
        Vec::new()
    }
}

/// Check the presorter chunk length against the loader batch. Emits
/// `BON025`, `BON026`.
#[must_use]
pub fn check_presort(chunk: usize, batch_records: usize) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if chunk < 2 || !chunk.is_power_of_two() {
        out.push(
            Diagnostic::error(
                codes::PRESORT_NOT_POWER_OF_TWO,
                "presorter chunk must be a power of two >= 2 (it is a bitonic network)",
            )
            .with("chunk", chunk),
        );
    } else if batch_records > 0 && chunk > batch_records {
        out.push(
            Diagnostic::warning(
                codes::PRESORT_EXCEEDS_BATCH,
                "presorter chunk spans more than one loader batch; runs will straddle refills",
            )
            .with("chunk", chunk)
            .with("batch_records", batch_records),
        );
    }
    out
}

/// Check the parallel runtime's thread/queue topology. Emits `BON050`,
/// `BON054`, `BON055`.
///
/// `workers` and `pass_workers` follow the runtime convention that `0`
/// means "one per core"; `cores` is the host core count used to resolve
/// them (and the oversubscription bound). `producers` is the number of
/// threads submitting jobs concurrently.
#[must_use]
pub fn check_runtime_shape(
    workers: usize,
    pass_workers: usize,
    queue_depth: usize,
    producers: usize,
    cores: usize,
) -> Vec<Diagnostic> {
    let cores = cores.max(1);
    let resolved_workers = if workers == 0 { cores } else { workers };
    let resolved_pass_workers = if pass_workers == 0 {
        cores
    } else {
        pass_workers
    };
    let mut out = Vec::new();
    if queue_depth == 0 && producers > 1 {
        out.push(
            Diagnostic::error(
                codes::RUNTIME_QUEUE_ZERO,
                "a zero-depth job queue serializes concurrent producers through a single \
                 clamped slot; give the queue real capacity",
            )
            .with("queue_depth", queue_depth)
            .with("producers", producers),
        );
    }
    if resolved_workers * resolved_pass_workers > cores {
        out.push(
            Diagnostic::warning(
                codes::RUNTIME_OVERSUBSCRIBED,
                "job workers times pass workers exceeds the host cores; threads will \
                 time-slice instead of running in parallel",
            )
            .with("workers", resolved_workers)
            .with("pass_workers", resolved_pass_workers)
            .with("cores", cores),
        );
    }
    // Only an *explicit* worker count can contradict the queue depth;
    // the auto (`0`) sentinel sizes the pool to whatever host it lands
    // on, so there is no stated intent for the depth to mismatch.
    if queue_depth > 0 && workers > 0 && queue_depth < workers {
        out.push(
            Diagnostic::warning(
                codes::RUNTIME_QUEUE_BELOW_WORKERS,
                "queue depth below the worker count cannot keep every worker fed; \
                 idle workers will starve behind the submitters",
            )
            .with("queue_depth", queue_depth)
            .with("workers", workers),
        );
    }
    out
}

/// Check one job's pass-sharding width against the merge groups the
/// engine can actually offer. Emits `BON051`.
///
/// `pass_workers` must already be resolved (no `0` sentinel);
/// `max_groups` is the group count of the widest merge pass — for the
/// first pass, `ceil(initial_runs / fan_in)`; later passes only shrink.
#[must_use]
pub fn check_pass_sharding(pass_workers: usize, max_groups: usize) -> Vec<Diagnostic> {
    if max_groups > 0 && pass_workers > max_groups {
        vec![Diagnostic::warning(
            codes::RUNTIME_WORKERS_EXCEED_GROUPS,
            "pass workers exceed the merge groups of the widest pass; the surplus \
             threads never claim a group",
        )
        .with("pass_workers", pass_workers)
        .with("max_groups", max_groups)]
    } else {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_code_severity_and_context() {
        let d =
            Diagnostic::error(codes::P_NOT_POWER_OF_TWO, "p must be a power of two").with("p", 6);
        let s = d.to_string();
        assert!(s.contains("BON001"), "{s}");
        assert!(s.contains("error"), "{s}");
        assert!(s.contains("p=6"), "{s}");
    }

    #[test]
    fn registry_codes_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for info in codes::ALL {
            assert!(info.code.starts_with("BON"), "{}", info.code);
            assert_eq!(info.code.len(), 6, "{}", info.code);
            assert!(seen.insert(info.code), "duplicate code {}", info.code);
        }
    }

    #[test]
    fn lookup_finds_registered_codes() {
        assert!(codes::lookup("BON001").is_some());
        assert!(codes::lookup("BON999").is_none());
    }

    #[test]
    fn has_errors_ignores_warnings() {
        let warns = vec![Diagnostic::warning(codes::BUFFER_NOT_DOUBLE, "w")];
        assert!(!has_errors(&warns));
        let errs = vec![
            Diagnostic::warning(codes::BUFFER_NOT_DOUBLE, "w"),
            Diagnostic::error(codes::BATCH_ZERO, "e"),
        ];
        assert!(has_errors(&errs));
    }

    #[test]
    fn valid_shapes_produce_no_diagnostics() {
        assert!(check_amt_shape(16, 64).is_empty());
        assert!(check_loader_shape(4096, 4, 2).is_empty());
        assert!(check_memory_shape(4, 32, 32).is_empty());
        assert!(check_loader_against_memory(4096, 32, 8, 1 << 30).is_empty());
        assert!(check_tool_limits(16, 64, 32, 256).is_empty());
        assert!(check_lut_budget(1000.0, 2000.0).is_empty());
        assert!(check_bram_budget(1 << 20, 1 << 21).is_empty());
        assert!(check_copies(1, 2).is_empty());
        assert!(check_presort(16, 1024).is_empty());
        assert!(check_runtime_shape(2, 1, 16, 1, 8).is_empty());
        assert!(check_pass_sharding(2, 8).is_empty());
    }
}
