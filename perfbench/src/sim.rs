//! `sim_batch`: a closed batch through the `Runtime` batch API.
//!
//! Every batch starts a fresh runtime (1 job worker, 2 pass workers,
//! the default scheduler), submits all jobs up front — the bounded queue
//! pushes back — and collects them with `finish()`. Batches repeat on
//! the same inputs until the run's time is spent; every repeat must
//! reproduce the first batch's simulated reports exactly.

use std::time::Instant;

use bonsai_records::U32Rec;
use bonsai_runtime::{Runtime, RuntimeConfig, SortJob};

use crate::gen;
use crate::report::{self, median, percentile, sorted, Digest, RunResult, Tally};

/// Fewest batches a run measures, however short `--seconds` is.
const MIN_BATCHES: usize = 3;

/// The runtime under test: default scheduler, one job at a time, its
/// merge passes sharded over two threads.
fn runtime_config() -> RuntimeConfig {
    RuntimeConfig {
        workers: 1,
        pass_workers: 2,
        ..RuntimeConfig::default()
    }
}

pub fn run(seed: u64, seconds: f64) -> Result<RunResult, String> {
    let jobs = gen::sim_jobs(seed);
    let expected: Vec<Vec<U32Rec>> = jobs.iter().map(|j| report::expected(&j.data)).collect();
    let records: u64 = jobs.iter().map(|j| j.data.len() as u64).sum();

    let mut tally = Tally::default();
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    let mut first: Option<(u64, u64)> = None;
    let mut repeats_identical = true;
    let run_start = Instant::now();
    while walls.len() < MIN_BATCHES || run_start.elapsed().as_secs_f64() < seconds {
        let batch: Vec<SortJob<U32Rec>> = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| SortJob::new(i as u64, j.config, j.data.clone()))
            .collect();
        let setup = Instant::now();
        let runtime = Runtime::<U32Rec>::start(runtime_config());
        setups.push(setup.elapsed().as_secs_f64());

        let start = Instant::now();
        let mut refused = 0;
        for job in batch {
            if runtime.submit(job).is_err() {
                refused += 1;
            }
        }
        let results = runtime.finish();
        walls.push(start.elapsed().as_secs_f64());

        tally.attempted += jobs.len() as u64;
        tally.refused += refused;
        tally.no_reply += (jobs.len() as u64 - refused).saturating_sub(results.len() as u64);
        let mut digest = Digest::default();
        let mut cycles = 0u64;
        for result in results {
            match result.result {
                Ok(out) => {
                    tally.record(report::check(&expected[result.id as usize], &out.sorted));
                    report::digest_report(&mut digest, &out.report);
                    cycles += out.report.total_cycles;
                }
                Err(_) => tally.error_reply += 1,
            }
        }
        match first {
            None => first = Some((digest.value(), cycles)),
            Some(seen) => repeats_identical &= seen == (digest.value(), cycles),
        }
    }
    if !repeats_identical {
        // A simulated report that changes between identical batches is a
        // wrong output, not noise.
        tally.wrong += 1;
    }
    let (digest, cycles) = first.expect("at least one batch ran");
    let peak_rss = report::peak_rss_mb("self");
    let sim_cycles_per_record = cycles as f64 / records as f64;
    let walls_sorted = sorted(walls.clone());
    let wall = median(&walls);

    let mut result = RunResult {
        tally,
        ..RunResult::default()
    };
    result.metric(
        "records_per_s",
        records as f64 / wall,
        "records/s",
        walls.len(),
    );
    result.metric("p50_ms", wall * 1e3, "ms", walls.len());
    result.metric(
        "batch_p90_ms",
        percentile(&walls_sorted, 90.0) * 1e3,
        "ms",
        walls.len(),
    );
    result.metric("setup_s", median(&setups), "s", setups.len());
    result.metric("peak_rss_mb", peak_rss.unwrap_or(f64::NAN), "MB", 1);
    result.metric(
        "sim_cycles_per_record",
        sim_cycles_per_record,
        "cycles/record",
        1,
    );
    result.metric(
        "fail_frac",
        tally.fail_frac(),
        "ratio",
        tally.attempted as usize,
    );
    println!(
        "sim_batch: closed batch, {} jobs ({} records) per batch, {} batches, 1 job worker x 2 pass workers",
        jobs.len(),
        records,
        walls.len()
    );
    println!(
        "sim_batch: simulated-stats digest {digest:016x}, sim_cycles_per_record {sim_cycles_per_record}, \
         identical across batches: {repeats_identical}"
    );
    Ok(result)
}
