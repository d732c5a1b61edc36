//! Saturation bench for the sort service: jobs/sec over loopback at
//! 1, 8, and 64 concurrent clients.
//!
//! Each row starts a fresh in-process [`bonsai_net::Server`] on an
//! ephemeral loopback port, splits the same fixed total of
//! [`TOTAL_JOBS`] jobs across its clients, pipelines up to
//! [`WINDOW`] jobs per connection, and verifies every reply
//! (exactly-once acknowledgement, output equal to the input sorted). The figure of merit is aggregate jobs/sec; with the
//! total fixed, rows differ only in concurrency, so the 64-client row
//! measures what contention costs — accept loop, per-connection
//! threads, the shared bounded queue — and none of it is workload
//! noise.
//!
//! Gate: the 64-client row must reach at least the 1-client rate. On a
//! multi-core host saturation should *win* (more connections keep more
//! runtime workers fed); like the other wall-clock gates
//! (`perf_adaptive`, `runtime_smoke`) it arms only on hosts with ≥ 4
//! cores, because on one core concurrency can only add overhead.
//! Exactly-once verification is always on, every row, every host.
//!
//! Every row also records each job's send-to-reply latency and emits
//! `lat_p50_ms`/`lat_p99_ms` columns; when the gate fails, the
//! per-clients latency distribution is printed so the failure shows
//! whether the regression is queueing (p99 blowup at 64 clients) or a
//! uniform slowdown.
//!
//! Usage: `net_saturation [out.json]` (default `BENCH_9.json`; the
//! `BONSAI_BENCH_OUT` environment variable overrides the default when
//! no argument is given).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Instant;

use bonsai_amt::{AmtConfig, SimEngineConfig};
use bonsai_bench::perf::{bench_json, bench_out_path, percentile, JsonField};
use bonsai_gensort::dist::uniform_u32;
use bonsai_net::{Client, Reply, Server, ServerConfig};
use bonsai_records::U32Rec;
use bonsai_runtime::RuntimeConfig;

/// Jobs per row, split across that row's clients (64 divides it, so
/// every concurrency level gets whole shares).
const TOTAL_JOBS: u64 = 192;

/// Records per job.
const RECORDS: usize = 2048;

/// Max pipelined jobs per connection.
const WINDOW: usize = 4;

/// Concurrency levels, one row each.
const CLIENTS: [u64; 3] = [1, 8, 64];

struct Row {
    clients: u64,
    jobs: u64,
    elapsed_s: f64,
    jobs_per_s: f64,
    /// Per-job send-to-reply latency in milliseconds, ascending.
    latencies_ms: Vec<f64>,
}

/// Runs one client's share of the jobs; returns each job's
/// send-to-reply latency in milliseconds (so `len()` is the
/// acknowledged-job count).
fn run_client(addr: SocketAddr, client_idx: u64, jobs: u64) -> Vec<f64> {
    let mut client = Client::<U32Rec>::connect(addr).expect("connect loopback");
    let mut pending: HashMap<u64, (Vec<U32Rec>, Instant)> = HashMap::new();
    let mut latencies_ms = Vec::with_capacity(jobs as usize);
    let recv_one =
        |client: &mut Client<U32Rec>,
         pending: &mut HashMap<_, (Vec<U32Rec>, Instant)>,
         latencies_ms: &mut Vec<f64>| match client.recv().expect("recv") {
            Reply::Sorted { job_id, records } => {
                let (expected, sent_at) = pending
                    .remove(&job_id)
                    .expect("each job acknowledged exactly once");
                assert_eq!(records, expected, "job {job_id}: output mismatch");
                latencies_ms.push(sent_at.elapsed().as_secs_f64() * 1e3);
            }
            Reply::ServerError { code, message, .. } => panic!("{code}: {message}"),
        };
    for job in 0..jobs {
        let seed = client_idx * 1_000_003 + job;
        let data = uniform_u32(RECORDS, seed);
        let mut expected = data.clone();
        expected.sort_unstable();
        pending.insert(job, (expected, Instant::now()));
        client.send(job, &data).expect("send");
        while pending.len() >= WINDOW {
            recv_one(&mut client, &mut pending, &mut latencies_ms);
        }
    }
    while !pending.is_empty() {
        recv_one(&mut client, &mut pending, &mut latencies_ms);
    }
    latencies_ms
}

fn measure(clients: u64) -> Row {
    let config = ServerConfig {
        runtime: RuntimeConfig {
            workers: 0, // one per core
            queue_depth: 64,
            ..RuntimeConfig::default()
        },
        engine: SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4),
        ..ServerConfig::default()
    };
    let server = Server::<U32Rec>::bind("127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();

    let start = Instant::now();
    let mut latencies_ms: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| scope.spawn(move || run_client(addr, c, TOTAL_JOBS / clients)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();

    assert_eq!(
        latencies_ms.len() as u64,
        TOTAL_JOBS,
        "every job acknowledged exactly once"
    );
    let stats = server.shutdown();
    assert_eq!(stats.jobs_ok, TOTAL_JOBS);
    assert_eq!(stats.jobs_failed, 0);
    assert_eq!(stats.wire_errors, 0);
    assert_eq!(stats.connections, clients);

    latencies_ms.sort_unstable_by(f64::total_cmp);
    let row = Row {
        clients,
        jobs: TOTAL_JOBS,
        elapsed_s,
        jobs_per_s: TOTAL_JOBS as f64 / elapsed_s.max(1e-9),
        latencies_ms,
    };
    println!(
        "{:>3} clients: {} jobs x {} records in {:>6.3}s = {:>8.1} jobs/sec \
         (lat p50 {:>7.3}ms p99 {:>7.3}ms)",
        row.clients,
        row.jobs,
        RECORDS,
        row.elapsed_s,
        row.jobs_per_s,
        percentile(&row.latencies_ms, 50.0),
        percentile(&row.latencies_ms, 99.0),
    );
    row
}

/// One line per concurrency row summarizing where the per-job wall time
/// went — printed before the saturation gate panics so a CI failure
/// shows whether the regression is queueing (p99 blowup at 64c) or
/// uniform slowdown (p50 shift everywhere).
fn print_latency_distributions(rows: &[Row]) {
    eprintln!("per-clients latency distribution (ms):");
    for r in rows {
        eprintln!(
            "  {:>3} clients: min {:>8.3}  p50 {:>8.3}  p90 {:>8.3}  p99 {:>8.3}  max {:>8.3}",
            r.clients,
            r.latencies_ms.first().copied().unwrap_or(0.0),
            percentile(&r.latencies_ms, 50.0),
            percentile(&r.latencies_ms, 90.0),
            percentile(&r.latencies_ms, 99.0),
            r.latencies_ms.last().copied().unwrap_or(0.0),
        );
    }
}

fn render_json(rows: &[Row]) -> String {
    let base_rate = rows[0].jobs_per_s;
    let json_rows: Vec<Vec<(&str, JsonField)>> = rows
        .iter()
        .map(|r| {
            vec![
                ("clients", JsonField::U64(r.clients)),
                ("jobs", JsonField::U64(r.jobs)),
                ("records", JsonField::U64(RECORDS as u64)),
                (
                    "elapsed_s",
                    JsonField::F64 {
                        value: r.elapsed_s,
                        precision: 6,
                    },
                ),
                (
                    "jobs_per_s",
                    JsonField::F64 {
                        value: r.jobs_per_s,
                        precision: 1,
                    },
                ),
                (
                    "speedup_vs_1c",
                    JsonField::F64 {
                        value: r.jobs_per_s / base_rate,
                        precision: 3,
                    },
                ),
                (
                    "lat_p50_ms",
                    JsonField::F64 {
                        value: percentile(&r.latencies_ms, 50.0),
                        precision: 3,
                    },
                ),
                (
                    "lat_p99_ms",
                    JsonField::F64 {
                        value: percentile(&r.latencies_ms, 99.0),
                        precision: 3,
                    },
                ),
            ]
        })
        .collect();
    bench_json("net_saturation", &json_rows)
}

fn main() {
    let out_path = bench_out_path("BENCH_9.json");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    println!("== net_saturation: sort-service jobs/sec over loopback ==");
    let rows: Vec<Row> = CLIENTS.into_iter().map(measure).collect();

    // The saturation gate: concurrency must not cost throughput. Wall
    // clock, so it arms only where parallel speedup is possible at all
    // (same ≥ 4 core rule as the other wall-clock gates).
    let single = &rows[0];
    let saturated = rows.last().expect("rows is non-empty");
    if cores >= 4 {
        if saturated.jobs_per_s < single.jobs_per_s {
            print_latency_distributions(&rows);
            panic!(
                "64-client throughput ({:.1} jobs/sec) fell below 1-client ({:.1}) on a {cores}-core host",
                saturated.jobs_per_s, single.jobs_per_s,
            );
        }
    } else {
        println!(
            "note: {cores}-core host, saturation gate not armed \
             (64c {:.2}x vs 1c; verification ran on every row)",
            saturated.jobs_per_s / single.jobs_per_s,
        );
    }

    let json = render_json(&rows);
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");
}
