//! `bonsai-lint`: the static configuration pass for CI.
//!
//! With no arguments, lints every configuration the experiment suite
//! and examples construct — shape checks, the four pipeline-graph
//! analyses (deadlock, FIFO flush depth, min-cut bandwidth, dead
//! components), the latency-bound certification and one
//! model-vs-simulation drift probe — and exits non-zero if any
//! error-severity `BONxxx` diagnostic fires. With overrides, lints a
//! single raw configuration instead — the hook CI uses to prove the
//! linter rejects a deliberately broken config:
//!
//! ```sh
//! bonsai-lint                        # lint the whole in-repo suite
//! bonsai-lint --p 6 --l 16           # BON001: p not a power of two
//! bonsai-lint --buffer-batches 0     # BON030: zero-credit deadlock
//! bonsai-lint --p 32 --record-bytes 8  # BON032: min-cut infeasible
//! bonsai-lint --json                 # machine-readable report
//! bonsai-lint --dump-graph dot       # emit the pipeline-graph IR
//! ```
//!
//! `--runtime` switches to the BON05x runtime-topology pass over the
//! parallel sort runtime's thread/queue shape instead of the engine
//! configuration:
//!
//! ```sh
//! bonsai-lint --runtime                         # lint in-repo topologies
//! bonsai-lint --runtime --queue-depth 0 --producers 2   # BON050
//! bonsai-lint --runtime --workers 4 --pass-workers 4 --cores 4  # BON054
//! ```
//!
//! `--prove` switches to the BON06x occupancy-reachability pass: the
//! configuration is lowered to a bounded token net and exhaustively
//! explored, yielding a machine-checked certificate, a replayable
//! counterexample, or a budget warning:
//!
//! ```sh
//! bonsai-lint --prove                           # certify all in-repo configs
//! bonsai-lint --prove --buffer-batches 0        # BON060: deadlock + replay
//! bonsai-lint --prove --credit-slack 2          # BON061: FIFO overflow
//! bonsai-lint --prove --state-budget 4          # BON062: budget exhausted
//! bonsai-lint --prove --assume-throughput 1     # BON064: bound vs observed
//! bonsai-lint --prove-selftest                  # BON063: checker liveness
//! ```

use bonsai_amt::graph::{lower_to_graph, LowerOptions};
use bonsai_amt::prove::{net_from_config, NetOptions};
use bonsai_bench::lint::{self, LintFinding, ProveLintOptions, RawEngineLint, RawRuntimeLint};
use bonsai_check::prove::certificate_selftest;
use bonsai_memsim::MemoryConfig;
use std::process::ExitCode;

#[derive(Debug, Default)]
struct Overrides {
    p: Option<usize>,
    l: Option<usize>,
    batch_bytes: Option<u64>,
    record_bytes: Option<u64>,
    buffer_batches: Option<u64>,
    presort: Option<usize>,
    memory: Option<MemoryConfig>,
    banks: Option<usize>,
    payload_bytes: Option<u64>,
    json: bool,
    dump_graph: Option<DumpFormat>,
    runtime: bool,
    workers: Option<usize>,
    pass_workers: Option<usize>,
    queue_depth: Option<usize>,
    producers: Option<usize>,
    cores: Option<usize>,
    records: Option<usize>,
    prove: bool,
    prove_selftest: bool,
    state_budget: Option<usize>,
    credit_slack: Option<u32>,
    replay_records: Option<usize>,
    assume_throughput: Option<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DumpFormat {
    Dot,
    Json,
}

impl Overrides {
    fn any_config(&self) -> bool {
        self.p.is_some()
            || self.l.is_some()
            || self.batch_bytes.is_some()
            || self.record_bytes.is_some()
            || self.buffer_batches.is_some()
            || self.presort.is_some()
            || self.memory.is_some()
            || self.banks.is_some()
            || self.payload_bytes.is_some()
    }

    fn raw(&self) -> RawEngineLint {
        let defaults = RawEngineLint::default();
        RawEngineLint {
            p: self.p.unwrap_or(defaults.p),
            l: self.l.unwrap_or(defaults.l),
            batch_bytes: self.batch_bytes.unwrap_or(defaults.batch_bytes),
            record_bytes: self.record_bytes.unwrap_or(defaults.record_bytes),
            buffer_batches: self.buffer_batches.unwrap_or(defaults.buffer_batches),
            presort: Some(self.presort.unwrap_or(16)),
            memory: self.memory.unwrap_or(defaults.memory),
            banks: self.banks,
            payload_bytes: self.payload_bytes,
        }
    }

    fn any_runtime_config(&self) -> bool {
        self.workers.is_some()
            || self.pass_workers.is_some()
            || self.queue_depth.is_some()
            || self.producers.is_some()
            || self.records.is_some()
    }

    fn raw_runtime(&self) -> RawRuntimeLint {
        let defaults = RawRuntimeLint::default();
        RawRuntimeLint {
            workers: self.workers.unwrap_or(defaults.workers),
            pass_workers: self.pass_workers.unwrap_or(defaults.pass_workers),
            queue_depth: self.queue_depth.unwrap_or(defaults.queue_depth),
            producers: self.producers.unwrap_or(defaults.producers),
            cores: self.cores,
            records: self.records,
        }
    }

    fn any_prove_config(&self) -> bool {
        self.state_budget.is_some()
            || self.credit_slack.is_some()
            || self.replay_records.is_some()
            || self.assume_throughput.is_some()
    }

    fn prove_options(&self) -> ProveLintOptions {
        let defaults = ProveLintOptions::default();
        ProveLintOptions {
            state_budget: self.state_budget.unwrap_or(defaults.state_budget),
            credit_slack: self.credit_slack.unwrap_or(defaults.credit_slack),
            replay_records: self.replay_records.unwrap_or(defaults.replay_records),
            assume_throughput: self.assume_throughput,
        }
    }
}

/// Every mode funnels its findings through this one serializer so
/// `--json`'s schema and the 0/1 exit contract are identical across
/// config-lint, `--runtime`, `--prove` and `--prove-selftest`.
fn emit(findings: &[LintFinding], json: bool) -> ExitCode {
    let (report, errors, _warnings) = if json {
        let (json, errors, warnings) = lint::render_json(findings);
        (format!("{json}\n"), errors, warnings)
    } else {
        lint::render(findings)
    };
    print!("{report}");
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

const USAGE: &str = "usage: bonsai-lint [--p N] [--l N] [--batch-bytes N] \
[--record-bytes N] [--buffer-batches N] [--presort N] \
[--memory ddr4|single|hbm|ssd] [--banks N] [--payload-bytes N] \
[--json] [--dump-graph dot|json]
       bonsai-lint --runtime [--workers N] [--pass-workers N] \
[--queue-depth N] [--producers N] [--cores N] [--records N] [--json]
       bonsai-lint --prove [engine flags] [--state-budget N] \
[--credit-slack N] [--replay-records N] [--assume-throughput B/S] [--json]
       bonsai-lint --prove-selftest [engine flags] [--json]

Without overrides, lints every in-repo experiment configuration (shape
checks, pipeline-graph analyses, latency-bound certification, drift
probe) plus every in-repo runtime topology. With overrides, lints a
single raw engine configuration.

  --json             emit the report as a JSON object for CI annotation
  --dump-graph FMT   print the lowered pipeline-graph IR (Graphviz `dot`
                     or the documented `json` schema, docs/GRAPH_IR.md)
                     instead of a lint report

`--runtime` runs the BON05x thread/queue topology pass instead. Without
further overrides it lints the in-repo runtime shapes; with overrides it
judges one raw topology (docs/diagnostics.md, Runtime topology):

  --workers N        job workers (0 = one per core)
  --pass-workers N   per-job pass-sharding threads (0 = one per core)
  --queue-depth N    bounded job-queue depth
  --producers N      concurrent submitting threads
  --cores N          judge against an N-core host (default: this host)
  --records N        also bound pass-workers by the merge groups of an
                     N-record job on the reference DRAM engine (BON051)

`--prove` runs the BON06x occupancy-reachability pass: exhaustive
explicit-state exploration of the configuration's bounded token net.
Without engine flags it proves every in-repo engine configuration; with
engine flags it proves that one raw configuration. Certified configs get
their inductive occupancy certificate independently re-verified (BON063)
and their static throughput floor cross-checked (BON064); refuted ones
get a minimal counterexample trace replayed against SimEngine (BON060/
BON061, BON065 on divergence); exhausted budgets warn (BON062):

  --state-budget N       explored-state budget (default 262144)
  --credit-slack N       grant N extra leaf credits beyond capacity —
                         the deliberate FIFO-overflow probe (BON061)
  --replay-records N     records for counterexample replay (0 = skip)
  --assume-throughput B  cross-check the static floor against an
                         observed throughput of B bytes/second (BON064)

`--prove-selftest` checks the certificate checker itself is alive: it
corrupts a valid certificate and exits 1 with BON063 when the checker
rejects it (a vacuous checker is reported distinctly and exits 1
without BON063).

exit codes:
  0  no error-severity diagnostics (warnings allowed)
  1  at least one BONxxx error diagnostic fired
  2  invalid command line (unknown flag or malformed value)";

fn usage_error() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn parse_args() -> Overrides {
    let mut over = Overrides::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| -> u64 {
            args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("bonsai-lint: {what} needs an integer value");
                usage_error()
            })
        };
        match flag.as_str() {
            "--p" => over.p = Some(value("--p") as usize),
            "--l" => over.l = Some(value("--l") as usize),
            "--batch-bytes" => over.batch_bytes = Some(value("--batch-bytes")),
            "--record-bytes" => over.record_bytes = Some(value("--record-bytes")),
            "--buffer-batches" => over.buffer_batches = Some(value("--buffer-batches")),
            "--presort" => over.presort = Some(value("--presort") as usize),
            "--banks" => over.banks = Some(value("--banks") as usize),
            "--payload-bytes" => over.payload_bytes = Some(value("--payload-bytes")),
            "--memory" => {
                over.memory = Some(match args.next().as_deref() {
                    Some("ddr4") => MemoryConfig::ddr4_aws_f1(),
                    Some("single") => MemoryConfig::ddr4_single_bank(),
                    Some("hbm") => MemoryConfig::hbm_u50(),
                    Some("ssd") => MemoryConfig::throttled_to_ssd(),
                    other => {
                        eprintln!("bonsai-lint: --memory wants ddr4|single|hbm|ssd, got {other:?}");
                        usage_error()
                    }
                });
            }
            "--json" => over.json = true,
            "--runtime" => over.runtime = true,
            "--prove" => over.prove = true,
            "--prove-selftest" => over.prove_selftest = true,
            "--state-budget" => over.state_budget = Some(value("--state-budget") as usize),
            "--credit-slack" => over.credit_slack = Some(value("--credit-slack") as u32),
            "--replay-records" => over.replay_records = Some(value("--replay-records") as usize),
            "--assume-throughput" => {
                over.assume_throughput = Some(
                    args.next()
                        .and_then(|v| v.parse::<f64>().ok())
                        .filter(|v| v.is_finite() && *v >= 0.0)
                        .unwrap_or_else(|| {
                            eprintln!(
                                "bonsai-lint: --assume-throughput needs bytes/second (a \
                                 non-negative number)"
                            );
                            usage_error()
                        }),
                );
            }
            "--workers" => over.workers = Some(value("--workers") as usize),
            "--pass-workers" => over.pass_workers = Some(value("--pass-workers") as usize),
            "--queue-depth" => over.queue_depth = Some(value("--queue-depth") as usize),
            "--producers" => over.producers = Some(value("--producers") as usize),
            "--cores" => over.cores = Some(value("--cores") as usize),
            "--records" => over.records = Some(value("--records") as usize),
            "--dump-graph" => {
                over.dump_graph = Some(match args.next().as_deref() {
                    Some("dot") => DumpFormat::Dot,
                    Some("json") => DumpFormat::Json,
                    other => {
                        eprintln!("bonsai-lint: --dump-graph wants dot|json, got {other:?}");
                        usage_error()
                    }
                });
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => {
                eprintln!("bonsai-lint: unknown flag {other}");
                usage_error()
            }
        }
    }
    over
}

fn main() -> ExitCode {
    let over = parse_args();

    // Each mode's flags only make sense in that mode; a mixed line is a
    // usage error, not a silently ignored knob.
    let proving = over.prove || over.prove_selftest;
    if over.runtime && (over.any_config() || over.dump_graph.is_some() || proving) {
        eprintln!("bonsai-lint: --runtime cannot be combined with engine or prove flags");
        usage_error();
    }
    if !over.runtime && over.any_runtime_config() {
        eprintln!("bonsai-lint: runtime topology flags need --runtime");
        usage_error();
    }
    if proving && over.dump_graph.is_some() {
        eprintln!("bonsai-lint: --prove cannot be combined with --dump-graph");
        usage_error();
    }
    if !proving && over.any_prove_config() {
        eprintln!("bonsai-lint: prove flags need --prove");
        usage_error();
    }

    if over.runtime {
        let findings = if over.any_runtime_config() || over.cores.is_some() {
            vec![over.raw_runtime().lint()]
        } else {
            lint::lint_runtime_all()
        };
        return emit(&findings, over.json);
    }

    if over.prove_selftest {
        // Arm the checker against the configuration's own net (the
        // default raw engine unless overridden) and demand it reject a
        // deliberately corrupted certificate.
        let cfg = over.raw().config();
        let net = match net_from_config(&cfg, &NetOptions::default()) {
            Ok(net) => net,
            Err(fatal) => {
                return emit(
                    &[LintFinding {
                        target: "prove/selftest".into(),
                        diagnostics: fatal,
                    }],
                    over.json,
                );
            }
        };
        return match certificate_selftest(&net) {
            Ok(diag) => emit(
                &[LintFinding {
                    target: "prove/selftest".into(),
                    diagnostics: vec![diag],
                }],
                over.json,
            ),
            Err(why) => {
                eprintln!("bonsai-lint: certificate checker selftest FAILED: {why}");
                ExitCode::FAILURE
            }
        };
    }

    if over.prove {
        let opts = over.prove_options();
        let findings = if over.any_config() {
            let raw = over.raw();
            vec![LintFinding {
                target: format!(
                    "prove/cli/p{}_l{}_b{}_r{}",
                    raw.p, raw.l, raw.batch_bytes, raw.record_bytes
                ),
                diagnostics: lint::engine_prove_diagnostics(&raw.config(), &opts),
            }]
        } else {
            lint::prove_all(&opts)
        };
        return emit(&findings, over.json);
    }

    if let Some(format) = over.dump_graph {
        let raw = over.raw();
        let opts = LowerOptions {
            payload_bytes: raw.payload_bytes,
        };
        return match lower_to_graph(&raw.config(), &opts) {
            Ok(graph) => {
                match format {
                    DumpFormat::Dot => print!("{}", graph.to_dot()),
                    DumpFormat::Json => println!("{}", graph.to_json()),
                }
                ExitCode::SUCCESS
            }
            Err(diags) => {
                for d in diags {
                    eprintln!("{d}");
                }
                ExitCode::FAILURE
            }
        };
    }

    let findings = if over.any_config() {
        vec![over.raw().lint()]
    } else {
        lint::lint_all()
    };
    emit(&findings, over.json)
}
