//! `svc_mixed`: an open loop through the `bonsai-net` server.
//!
//! The server runs in a child process (`perfbench serve`) with the
//! `bonsai-serve` defaults and the adaptive scheduler. This process is
//! the load generator: one connection, one sender thread that writes
//! each job when its seeded schedule says, and one receiver thread that
//! timestamps and checks every reply. Latency runs from the *scheduled*
//! send time to the reply, so a stalled sender still charges the wait.

use std::io::{BufRead, BufReader, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bonsai_net::frame::{read_response, write_request};
use bonsai_net::{Client, Reply, Server, ServerConfig};
use bonsai_records::U32Rec;
use bonsai_runtime::{PassScheduler, RuntimeConfig};

use crate::gen::{self, SvcJob};
use crate::report::{self, median, percentile, sorted, Outcome, RunResult, Tally};

/// Server setups per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// Control-frame token that stops the child server.
const SHUTDOWN_TOKEN: u64 = 0x5EB0_0715;
/// How long after the last send the receiver waits for missing replies.
const DRAIN: Duration = Duration::from_secs(30);
/// Generator lag (p99) beyond which a run is invalid: the offered load
/// was not the scheduled one.
pub const MAX_LAG_P99_MS: f64 = 50.0;

/// The server the benchmark measures: `bonsai-serve` defaults
/// (DRAM AMT(4, 16), one worker per core, queue depth 16, 8 in flight
/// per client) with the adaptive scheduler selected explicitly.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        runtime: RuntimeConfig {
            scheduler: PassScheduler::Adaptive,
            ..RuntimeConfig::default()
        },
        engine: gen::svc_engine(),
        shutdown_token: Some(SHUTDOWN_TOKEN),
        ..ServerConfig::default()
    }
}

/// `perfbench serve`: sets the server up [`SETUPS`] times, printing
/// each set-up time (`Server::bind` until an untimed warm-up job is
/// answered), keeps the last one and serves until the shutdown frame.
pub fn serve(seed: u64) -> Result<(), String> {
    // The parent holds this process's stdin open for as long as it wants
    // the server; end of input means the parent is gone, so stop rather
    // than outlive it. The thread ends with the process.
    std::thread::spawn(|| {
        let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
        std::process::exit(2);
    });
    let warmup = gen::warmup_job(seed);
    let stdout = std::io::stdout();
    for setup in 0..SETUPS {
        let start = Instant::now();
        let server = Server::<U32Rec>::bind("127.0.0.1:0", server_config())
            .map_err(|e| format!("bind: {e}"))?;
        let mut client =
            Client::<U32Rec>::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        match client
            .sort(0, &warmup)
            .map_err(|e| format!("warm-up: {e}"))?
        {
            Reply::Sorted { .. } => {}
            Reply::ServerError { code, message, .. } => {
                return Err(format!("warm-up refused: {code} {message}"))
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        drop(client);
        let mut out = stdout.lock();
        writeln!(out, "setup_s {elapsed}").map_err(|e| e.to_string())?;
        if setup + 1 < SETUPS {
            server.shutdown();
            continue;
        }
        writeln!(out, "listening {}", server.local_addr()).map_err(|e| e.to_string())?;
        out.flush().map_err(|e| e.to_string())?;
        drop(out);
        server.wait();
        let stats = server.shutdown();
        println!(
            "server_stats jobs_ok={} jobs_failed={} jobs_rejected={} wire_errors={} \
             shape_cache_hits={} shape_cache_misses={} reprograms={}",
            stats.jobs_ok,
            stats.jobs_failed,
            stats.jobs_rejected,
            stats.wire_errors,
            stats.shape_cache_hits,
            stats.shape_cache_misses,
            stats.reprograms
        );
    }
    Ok(())
}

/// The child server process; killed and reaped if dropped early. It
/// also exits on its own once `_stdin` closes, e.g. when this process is
/// killed.
struct ServerChild {
    child: Child,
    stdout: BufReader<std::process::ChildStdout>,
    _stdin: std::process::ChildStdin,
}

impl ServerChild {
    fn spawn(exe: &Path, seed: u64) -> Result<(Self, Vec<f64>, String), String> {
        let mut child = Command::new(exe)
            .args(["serve", "--seed", &seed.to_string()])
            .stdout(Stdio::piped())
            .stdin(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let stdin = child.stdin.take().expect("piped stdin");
        let mut server = Self {
            child,
            stdout,
            _stdin: stdin,
        };
        let mut setups = Vec::new();
        loop {
            let line = server.line()?;
            if let Some(v) = line.strip_prefix("setup_s ") {
                setups.push(v.parse::<f64>().map_err(|e| format!("setup_s: {e}"))?);
            } else if let Some(addr) = line.strip_prefix("listening ") {
                return Ok((server, setups, addr.to_string()));
            }
        }
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("server exited early".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("server output: {e}")),
        }
    }

    /// Stops the server through its control frame and returns its
    /// final counters line.
    fn shutdown(mut self, addr: &str) -> Result<String, String> {
        let mut client = Client::<U32Rec>::connect(addr).map_err(|e| format!("connect: {e}"))?;
        client
            .request_shutdown(SHUTDOWN_TOKEN)
            .map_err(|e| format!("shutdown: {e}"))?;
        let stats = self.line()?;
        let status = self.child.wait().map_err(|e| format!("wait server: {e}"))?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(stats)
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// What the receiver saw for one job.
#[derive(Debug, Clone, Copy)]
enum Seen {
    Pending,
    Replied(Instant, Outcome),
    Error,
}

/// Runs the open loop; returns the metrics of the window.
pub fn run(exe: &Path, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let jobs = gen::svc_schedule(seed, seconds);
    let expected: Arc<Vec<Vec<U32Rec>>> =
        Arc::new(jobs.iter().map(|j| report::expected(&j.data)).collect());
    let (server, setups, addr) = ServerChild::spawn(exe, seed)?;

    let stream = TcpStream::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
    let n = jobs.len();
    let receiver = {
        let expected = Arc::clone(&expected);
        std::thread::spawn(move || receive(&mut reader, &expected))
    };
    let (dues, lags, sent) = send(stream, &jobs);
    let seen = receiver
        .join()
        .map_err(|_| "receiver panicked".to_string())?;

    let peak_rss = report::peak_rss_mb(&server.child.id().to_string());
    let stats = server.shutdown(&addr)?;
    println!("svc_mixed: {stats}");

    let mut tally = Tally {
        attempted: n as u64,
        refused: (n - sent) as u64,
        ..Tally::default()
    };
    let (mut small, mut big) = (Vec::new(), Vec::new());
    let mut good_records = 0u64;
    let mut last_reply = dues.first().copied();
    for (i, job) in jobs.iter().enumerate().take(sent) {
        match seen[i] {
            Seen::Pending => tally.no_reply += 1,
            Seen::Error => tally.error_reply += 1,
            Seen::Replied(at, outcome) => {
                tally.record(outcome);
                if outcome == Outcome::Ok {
                    good_records += job.data.len() as u64;
                }
                let ms = at.saturating_duration_since(dues[i]).as_secs_f64() * 1e3;
                if job.big { &mut big } else { &mut small }.push(ms);
                last_reply = last_reply.max(Some(at));
            }
        }
    }
    let small = sorted(small);
    let big = sorted(big);
    let lags = sorted(lags);
    let window = match (dues.first(), last_reply) {
        (Some(&first), Some(last)) => last.saturating_duration_since(first).as_secs_f64(),
        _ => f64::NAN,
    };
    let lag_p99 = percentile(&lags, 99.0);

    let mut result = RunResult {
        tally,
        ..RunResult::default()
    };
    result.metric(
        "records_per_s",
        good_records as f64 / window,
        "records/s",
        n,
    );
    result.metric("p50_ms", percentile(&small, 50.0), "ms", small.len());
    result.metric("setup_s", median(&setups), "s", setups.len());
    result.metric("peak_rss_mb", peak_rss.unwrap_or(f64::NAN), "MB", 1);
    result.metric("small_p50_ms", percentile(&small, 50.0), "ms", small.len());
    result.metric("small_p90_ms", percentile(&small, 90.0), "ms", small.len());
    result.metric("small_p99_ms", percentile(&small, 99.0), "ms", small.len());
    result.metric("big_p50_ms", percentile(&big, 50.0), "ms", big.len());
    result.metric("big_p90_ms", percentile(&big, 90.0), "ms", big.len());
    result.metric("fail_frac", tally.fail_frac(), "ratio", n);
    result.metric("gen.lag_p99_ms", lag_p99, "ms", lags.len());
    println!(
        "svc_mixed: open loop, 1 connection, {} jobs at {} jobs/s over {seconds} s ({} small, {} big)",
        n,
        gen::SVC_RATE,
        jobs.iter().filter(|j| !j.big).count(),
        jobs.iter().filter(|j| j.big).count()
    );
    println!(
        "svc_mixed: small-job latency ms p10/p25/p50/p75/p90/p95/p98/p99/p99.5 = {}",
        [10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.5]
            .map(|p| format!("{:.2}", percentile(&small, p)))
            .join("/")
    );
    if lag_p99 > MAX_LAG_P99_MS {
        result.invalid = Some(format!(
            "generator fell behind its schedule: gen.lag_p99_ms {lag_p99:.3} > {MAX_LAG_P99_MS}"
        ));
    }
    Ok(result)
}

/// Sends every job at its due time; returns the due instants, how late
/// each send started (ms) and how many jobs were written before the
/// connection failed.
fn send(mut stream: TcpStream, jobs: &[SvcJob]) -> (Vec<Instant>, Vec<f64>, usize) {
    let start = Instant::now() + Duration::from_millis(50);
    let dues: Vec<Instant> = jobs
        .iter()
        .map(|j| start + Duration::from_secs_f64(j.due))
        .collect();
    let mut lags = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let now = Instant::now();
        if dues[i] > now {
            std::thread::sleep(dues[i] - now);
        }
        lags.push(
            Instant::now()
                .saturating_duration_since(dues[i])
                .as_secs_f64()
                * 1e3,
        );
        if write_request(&mut stream, i as u64, &job.data).is_err() {
            return (dues, lags, i);
        }
    }
    (dues, lags, jobs.len())
}

/// Reads replies until every job is answered or the connection goes
/// quiet for [`DRAIN`]; checks each against its expectation.
fn receive(stream: &mut TcpStream, expected: &[Vec<U32Rec>]) -> Vec<Seen> {
    let mut seen = vec![Seen::Pending; expected.len()];
    let _ = stream.set_read_timeout(Some(DRAIN));
    for _ in 0..expected.len() {
        let reply = match read_response::<_, U32Rec>(stream) {
            Ok(reply) => reply,
            Err(_) => break,
        };
        let at = Instant::now();
        match reply {
            Reply::Sorted { job_id, records } => {
                if let Some(slot) = seen.get_mut(job_id as usize) {
                    *slot = Seen::Replied(at, report::check(&expected[job_id as usize], &records));
                }
            }
            Reply::ServerError { job_id, .. } => {
                if let Some(slot) = seen.get_mut(job_id as usize) {
                    *slot = Seen::Error;
                }
            }
        }
    }
    seen
}
