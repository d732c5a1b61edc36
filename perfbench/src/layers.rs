//! The traced run: replays the workloads' seeded inputs through each
//! layer's public API, one span around every call, and derives the
//! per-layer metrics from the spans.
//!
//! Every traced run measures every layer on the inputs that layer sees
//! end to end: the codec, optimizer, shape cache, tree step and presort
//! on `svc_mixed` jobs; the sharded and pipelined simulator, the
//! simulated stats and the memsim loader on `sim_batch` jobs; the
//! functional sort, the external sorter and the host baselines on the
//! `cli_extsort` file. Simulated quantities (cycles, stalls, bytes) and
//! host times are separate metrics and are never combined.

use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use bonsai_amt::functional::{kway_merge, sort_balanced};
use bonsai_amt::{CompiledShape, SimEngine, SortReport};
use bonsai_baselines::radix::parallel_radix_sort;
use bonsai_bench::perf::ssd_multipass_config;
use bonsai_memsim::{DataLoader, Memory, MemoryConfig};
use bonsai_model::reconfig::ReconfigPlanner;
use bonsai_model::{perf, ArrayParams, BonsaiOptimizer, HardwareParams};
use bonsai_net::frame::{decode_request, encode_request};
use bonsai_net::DEFAULT_MAX_PAYLOAD;
use bonsai_records::run::RunSet;
use bonsai_records::U32Rec;
use bonsai_runtime::{AdaptiveConfig, JobResult, Runtime, SortJob};
use bonsai_sorters::ExternalSorter;

use crate::gen;
use crate::report::{self, median, percentile, sorted, RunResult};
use crate::svc;
use crate::trace::Tracer;

const WORKLOADS: [&str; 3] = ["svc_mixed", "sim_batch", "cli_extsort"];

/// Repetitions of the cheap per-call measurements (medians reported).
const CALLS: u64 = 200;
/// svc jobs (from the start of the schedule) whose records feed the
/// codec, presort and planner measurements.
const SVC_SAMPLE: usize = 400;
/// Cycles the memsim loader is driven for, at most.
const LOADER_CYCLES: u64 = 2_000_000;

/// Everything a traced run measures, with its checks.
struct Run<'a> {
    t: Tracer,
    r: RunResult,
    svc: &'a [gen::SvcJob],
}

impl Run<'_> {
    fn check(&mut self, expected: &[U32Rec], got: &[U32Rec]) {
        self.r.tally.attempted += 1;
        self.r.tally.record(report::check(expected, got));
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.r.metric(name, value, unit, samples);
    }

    fn svc_sample(&self) -> &[gen::SvcJob] {
        &self.svc[..self.svc.len().min(SVC_SAMPLE)]
    }

    /// Total ns of spans `name` per record in `records`.
    fn ns_per_rec(&self, name: &str, records: usize) -> f64 {
        self.t.total_ns(name) / records as f64
    }
}

/// The analytical model's hardware for a simulated memory backend, as
/// the adaptive runtime derives it: F1-class device, `β_DRAM` from the
/// backend's aggregate read bandwidth at the kernel clock.
fn hardware_for(memory: &MemoryConfig) -> HardwareParams {
    let hw = HardwareParams::aws_f1();
    let bytes_per_cycle = memory.banks as u64 * memory.read_bytes_per_cycle;
    if bytes_per_cycle == 0 {
        return hw;
    }
    hw.with_beta_dram(bytes_per_cycle as f64 * hw.freq_hz)
}

fn micros(ns: &[f64]) -> f64 {
    median(ns) / 1e3
}

/// Runs every layer measurement; scratch files go to `out_dir`, the
/// spans to `spans_path`.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    spans_path: &Path,
) -> Result<RunResult, String> {
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload {workload}"));
    }
    let started = Instant::now();
    let svc_jobs = gen::svc_schedule(seed, seconds);
    let mut run = Run {
        t: Tracer::default(),
        r: RunResult::default(),
        svc: &svc_jobs,
    };
    let phase = run.t.open("layer.net", 0);
    net(&mut run);
    run.t.close(phase);
    let phase = run.t.open("layer.runtime", 0);
    runtime(&mut run, seconds)?;
    run.t.close(phase);
    let phase = run.t.open("layer.model", 0);
    model(&mut run);
    run.t.close(phase);
    let phase = run.t.open("layer.amt_svc", 0);
    amt_svc(&mut run);
    run.t.close(phase);
    let phase = run.t.open("layer.amt_sim", 0);
    amt_sim(&mut run, seed);
    run.t.close(phase);
    let phase = run.t.open("layer.memsim", 0);
    loader(&mut run);
    run.t.close(phase);
    let phase = run.t.open("layer.cli", 0);
    cli(&mut run, seed, out_dir)?;
    run.t.close(phase);

    let wall_ns = started.elapsed().as_nanos() as f64;
    let spans = run.t.spans().len();
    let overhead = spans as f64 * Tracer::span_cost_ns() / wall_ns * 100.0;
    run.metric("trace.overhead_pct", overhead, "%", spans);
    run.metric("trace.spans", spans as f64, "count", spans);
    run.t
        .write(spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    println!(
        "{workload}: {spans} spans written to {}; tracing overhead {overhead:.4} % of {:.2} s",
        spans_path.display(),
        wall_ns / 1e9
    );
    Ok(run.r)
}

/// Frame codec on svc payloads.
fn net(run: &mut Run) {
    let jobs = run.svc_sample().to_vec();
    let mut records = 0;
    for (i, job) in jobs.iter().enumerate() {
        let id = i as u64;
        let frame = run
            .t
            .span("net.encode_request", id, || encode_request(id, &job.data));
        let decoded = run.t.span("net.decode_request", id, || {
            decode_request::<U32Rec>(&frame, DEFAULT_MAX_PAYLOAD)
        });
        run.r.tally.attempted += 1;
        match decoded {
            Ok((_, back)) if back == job.data => run.r.tally.ok += 1,
            _ => run.r.tally.wrong += 1,
        }
        records += job.data.len();
    }
    let encode = run.ns_per_rec("net.encode_request", records);
    let decode = run.ns_per_rec("net.decode_request", records);
    run.metric("net.encode_ns_per_rec", encode, "ns/record", jobs.len());
    run.metric("net.decode_ns_per_rec", decode, "ns/record", jobs.len());
}

/// Queue handoff and class-queue waits of the adaptive runtime.
fn runtime(run: &mut Run, seconds: f64) -> Result<(), String> {
    let config = svc::server_config().runtime;
    let engine = gen::svc_engine();

    // Round trip of a 1-record job through an idle runtime.
    let idle = Runtime::<U32Rec>::start(config);
    let (tx, rx) = mpsc::channel();
    for k in 0..CALLS {
        let record = U32Rec::new(k as u32 + 1);
        let done = run.t.span("runtime.roundtrip", k, || {
            idle.submit_with_reply(SortJob::new(k, engine, vec![record]), tx.clone())
                .ok()
                .and_then(|_| rx.recv().ok())
        });
        let sorted = done.and_then(|r| r.result.ok()).map(|o| o.sorted);
        run.check(&[record], sorted.as_deref().unwrap_or(&[]));
    }
    drop(idle.finish());
    let roundtrip = micros(&run.t.durations("runtime.roundtrip"));
    run.metric("runtime.roundtrip_us", roundtrip, "us", CALLS as usize);

    // The svc schedule's first half, replayed in-process on its own
    // clock: the class-queue wait is the sojourn minus the worker time.
    let window = (seconds / 2.0).max(1.0);
    let jobs: Vec<&gen::SvcJob> = run.svc.iter().filter(|j| j.due < window).collect();
    let runtime = Runtime::<U32Rec>::start(config);
    let (tx, rx) = mpsc::channel::<JobResult<U32Rec>>();
    let collector = std::thread::spawn(move || {
        let mut got = Vec::new();
        while let Ok(result) = rx.recv() {
            got.push((Instant::now(), result));
        }
        got
    });
    let start = Instant::now() + Duration::from_millis(20);
    let mut lags = Vec::with_capacity(jobs.len());
    let mut dues = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let due = start + Duration::from_secs_f64(job.due);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        lags.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        dues.push(due);
        let submitted = run.t.span("runtime.submit_with_reply", i as u64, || {
            runtime.submit_with_reply(SortJob::new(i as u64, engine, job.data.clone()), tx.clone())
        });
        if submitted.is_err() {
            run.r.tally.attempted += 1;
            run.r.tally.refused += 1;
        }
    }
    // Each queued job holds a sender clone until it replies, so the
    // collector ends once every job has completed.
    drop(tx);
    let replies = collector
        .join()
        .map_err(|_| "collector panicked".to_string())?;
    let stats = runtime.adaptive_stats();
    drop(runtime.finish());

    let (mut small_wait, mut big_wait) = (Vec::new(), Vec::new());
    let (mut hits, mut misses) = (0u64, 0u64);
    for (at, result) in &replies {
        let i = result.id as usize;
        run.t.record("runtime.sojourn", result.id, dues[i], *at);
        let wait = at
            .saturating_duration_since(dues[i])
            .saturating_sub(result.wall);
        let ms = wait.as_secs_f64() * 1e3;
        if jobs[i].big {
            &mut big_wait
        } else {
            &mut small_wait
        }
        .push(ms);
        match &result.result {
            Ok(out) => {
                hits += out.report.shape_cache_hits;
                misses += out.report.shape_cache_misses;
                run.check(&report::expected(&jobs[i].data), &out.sorted);
            }
            Err(_) => {
                run.r.tally.attempted += 1;
                run.r.tally.error_reply += 1;
            }
        }
    }
    let (small_wait, big_wait) = (sorted(small_wait), sorted(big_wait));
    run.metric(
        "runtime.small_wait_p99_ms",
        percentile(&small_wait, 99.0),
        "ms",
        small_wait.len(),
    );
    run.metric(
        "runtime.big_wait_p90_ms",
        percentile(&big_wait, 90.0),
        "ms",
        big_wait.len(),
    );
    run.metric(
        "runtime.reprograms",
        stats.reprograms as f64,
        "count",
        replies.len(),
    );
    let lookups = hits + misses;
    run.metric(
        "amt.cache_hit_frac",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
        lookups as usize,
    );
    let lags = sorted(lags);
    run.metric("gen.lag_p99_ms", percentile(&lags, 99.0), "ms", lags.len());
    Ok(())
}

/// Optimizer search, planner and Eq. 1 accuracy on the svc shapes.
fn model(run: &mut Run) {
    let engine = gen::svc_engine();
    let hw = hardware_for(&engine.memory);
    let optimizer = BonsaiOptimizer::new(hw);
    // The adaptive runtime plans at each class's power-of-two bucket.
    let small = ArrayParams::new(gen::SMALL_RECORDS.next_power_of_two() as u64, 4);
    let big = ArrayParams::new(gen::BIG_RECORDS.next_power_of_two() as u64, 4);
    for k in 0..CALLS {
        run.t.span("model.latency_optimal", k, || {
            optimizer.latency_optimal(&small).ok()
        });
    }
    for k in 0..CALLS / 4 {
        run.t.span("model.throughput_optimal", k, || {
            optimizer.throughput_optimal(&big).ok()
        });
    }
    let lat = micros(&run.t.durations("model.latency_optimal"));
    let thr = micros(&run.t.durations("model.throughput_optimal"));
    run.metric("model.latency_opt_us", lat, "us", CALLS as usize);
    run.metric("model.throughput_opt_us", thr, "us", (CALLS / 4) as usize);

    let reprogram = AdaptiveConfig::default().reprogram_cost_us as f64 * 1e-6;
    let mut planner = ReconfigPlanner::new(hw, reprogram);
    let jobs = run.svc_sample().to_vec();
    for (i, job) in jobs.iter().enumerate() {
        let array = ArrayParams::new((job.data.len() as u64).next_power_of_two(), 4);
        run.t.span("model.plan", i as u64, || {
            if job.big {
                planner.plan_throughput_job(&array).ok()
            } else {
                planner.plan_job_with_deadline(&array, None).ok()
            }
        });
    }
    let plan = micros(&run.t.durations("model.plan"));
    run.metric("model.plan_us", plan, "us", jobs.len());

    // Eq. 1 against the fused simulation of a big svc job on the
    // server's base shape, with the sustained DRAM bandwidth.
    if let Some(job) = run.svc.iter().find(|j| j.big) {
        let data = job.data.clone();
        let expected = report::expected(&data);
        let sim = run
            .t
            .span("amt.try_sort", 0, || SimEngine::new(engine).try_sort(data));
        if let Ok((out, report)) = sim {
            run.check(&expected, &out);
            let mem = MemoryConfig::ddr4_aws_f1();
            let beta = 32e9 * mem.burst_efficiency(4096);
            let array = ArrayParams::new(job.data.len() as u64, 4);
            let model = perf::eq1_latency(
                &array,
                &HardwareParams::aws_f1().with_beta_dram(beta),
                engine.amt.p,
                engine.amt.l,
                engine.initial_run_len(),
            );
            let err = (report.seconds() - model).abs() / report.seconds() * 100.0;
            run.metric("model.eq1_err_pct", err, "%", 1);
        }
    }
}

/// Shape compile, tree step and presort on svc jobs.
fn amt_svc(run: &mut Run) {
    let engine = gen::svc_engine();
    for k in 0..CALLS {
        run.t
            .span("amt.compile", k, || CompiledShape::compile(engine).is_ok());
    }
    let compile = micros(&run.t.durations("amt.compile"));
    run.metric("amt.compile_us", compile, "us", CALLS as usize);

    // Tree step: single-threaded pipelined simulation, wall per cycle
    // the simulator actually stepped (fast-forwarded cycles excluded).
    let smalls = run.svc.iter().filter(|j| !j.big).take(40);
    let bigs = run.svc.iter().filter(|j| j.big).take(3);
    let sample: Vec<gen::SvcJob> = smalls.chain(bigs).cloned().collect();
    let mut stepped = 0u64;
    for (i, job) in sample.iter().enumerate() {
        let data = job.data.clone();
        let mut sim_engine = SimEngine::new(engine);
        let sim = run.t.span("amt.try_sort_pipelined_1", i as u64, || {
            sim_engine.try_sort_pipelined(data, 1)
        });
        if let Ok((out, report)) = sim {
            stepped += report.total_cycles - report.fast_forwarded_cycles;
            run.check(&report::expected(&job.data), &out);
        }
    }
    let step = run.t.total_ns("amt.try_sort_pipelined_1") / stepped.max(1) as f64;
    run.metric("amt.step_ns_per_cycle", step, "ns/cycle", sample.len());

    let jobs = run.svc_sample().to_vec();
    let run_len = engine.initial_run_len();
    let mut records = 0;
    for (i, job) in jobs.iter().enumerate() {
        let data = job.data.clone();
        records += data.len();
        run.t.span("records.from_chunks", i as u64, || {
            RunSet::from_chunks(data, run_len).num_runs()
        });
    }
    let presort = run.ns_per_rec("records.from_chunks", records);
    run.metric(
        "records.presort_ns_per_rec",
        presort,
        "ns/record",
        jobs.len(),
    );
}

/// Sharded vs pipelined simulation and the simulated stats of the
/// sim_batch jobs.
fn amt_sim(run: &mut Run, seed: u64) {
    let jobs = gen::sim_jobs(seed);
    let mut reports: Vec<SortReport> = Vec::new();
    let mut records = 0u64;
    for (i, job) in jobs.iter().enumerate() {
        let id = i as u64;
        let expected = report::expected(&job.data);
        let engine = SimEngine::new(job.config);
        let data = job.data.clone();
        let sharded = run.t.span("amt.try_sort_sharded_2", id, || {
            engine.clone().try_sort_sharded(data, 2)
        });
        let data = job.data.clone();
        let pipelined = run.t.span("amt.try_sort_pipelined_2", id, || {
            engine.clone().try_sort_pipelined(data, 2)
        });
        for out in [&sharded, &pipelined] {
            match out {
                Ok((out, _)) => run.check(&expected, out),
                Err(_) => {
                    run.r.tally.attempted += 1;
                    run.r.tally.error_reply += 1;
                }
            }
        }
        if let Ok((_, report)) = sharded {
            records += report.n_records;
            reports.push(report);
        }
    }
    let n = reports.len();
    let sum = |f: &dyn Fn(&SortReport) -> u64| reports.iter().map(f).sum::<u64>() as f64;
    let pass_sum = |f: &dyn Fn(&bonsai_amt::PassReport) -> u64| {
        reports.iter().flat_map(|r| &r.passes).map(f).sum::<u64>() as f64
    };
    let total = sum(&|r| r.total_cycles);
    let recs = records as f64;
    let sharded_ns = run.t.total_ns("amt.try_sort_sharded_2");
    let pipelined_ns = run.t.total_ns("amt.try_sort_pipelined_2");
    run.metric("amt.sim_ns_per_rec", sharded_ns / recs, "ns/record", n);
    run.metric("amt.dag_vs_barrier", pipelined_ns / sharded_ns, "ratio", n);
    run.metric(
        "amt.ff_frac",
        sum(&|r| r.fast_forwarded_cycles) / total,
        "ratio",
        n,
    );
    let busy = pass_sum(&|p| p.busy_worker_cycles);
    let idle = pass_sum(&|p| p.idle_worker_cycles);
    run.metric("amt.virtual_idle_frac", idle / (busy + idle), "ratio", n);
    run.metric("amt.cycles_per_record", total / recs, "cycles/record", n);
    let stalls = pass_sum(&|p| p.input_stalls + p.output_stalls);
    run.metric(
        "amt.stall_cycles_per_record",
        stalls / recs,
        "cycles/record",
        n,
    );
    let bytes = pass_sum(&|p| p.bytes_read + p.bytes_written);
    run.metric("memsim.bytes_per_record", bytes / recs, "bytes/record", n);
}

/// The memsim loader alone, ticked every cycle over the leaf layout of
/// a sim_batch multipass job's first pass, its leaves drained one record
/// per cycle as a tree would.
fn loader(run: &mut Run) {
    let config = ssd_multipass_config();
    let leaves = config.amt.l;
    let per_leaf = (gen::SIM_RECORDS / leaves) as u64;
    let mut loader = DataLoader::new(config.loader, vec![per_leaf; leaves]);
    let mut memory = Memory::new(config.memory);
    let cycles = run.t.span("memsim.loader_tick", 0, || {
        let mut cycle = 0u64;
        while cycle < LOADER_CYCLES && !loader.all_exhausted() {
            loader.tick(cycle, &mut memory);
            for leaf in 0..leaves {
                if loader.available(leaf) > 0 {
                    loader.consume(leaf, 1);
                }
            }
            cycle += 1;
        }
        cycle
    });
    let ns = run.t.total_ns("memsim.loader_tick") / cycles.max(1) as f64;
    run.metric(
        "memsim.loader_ns_per_cycle",
        ns,
        "ns/cycle",
        cycles as usize,
    );
}

/// Functional sort, external sorter and host baselines on the cli file.
fn cli(run: &mut Run, seed: u64, out_dir: &Path) -> Result<(), String> {
    let input = gen::cli_input(seed);
    let expected = report::expected(&input);
    let n = input.len();
    let chunk_len = gen::CLI_MEM_BUDGET / 4;

    let chunk = input[..chunk_len].to_vec();
    let (out, _) = run.t.span("amt.sort_balanced", 0, || {
        sort_balanced(chunk, gen::CLI_FAN_IN, 16)
    });
    run.check(&report::expected(&input[..chunk_len]), &out);
    let balanced = run.ns_per_rec("amt.sort_balanced", chunk_len);
    run.metric("amt.sort_balanced_ns_per_rec", balanced, "ns/record", 1);

    // Phase two of the CLI sort: one k-way merge over its run files.
    let runs: Vec<Vec<U32Rec>> = input.chunks(chunk_len).map(report::expected).collect();
    let refs: Vec<&[U32Rec]> = runs.iter().map(Vec::as_slice).collect();
    let merged = run.t.span("amt.kway_merge", 0, || kway_merge(&refs));
    run.check(&expected, &merged);
    let merge = run.ns_per_rec("amt.kway_merge", n);
    run.metric("amt.kway_merge_ns_per_rec", merge, "ns/record", 1);

    let in_path = out_dir.join("layers-input.bin");
    let out_path = out_dir.join("layers-output.bin");
    std::fs::write(&in_path, gen::to_bytes(&input)).map_err(|e| format!("write input: {e}"))?;
    let sorter = ExternalSorter::new(gen::CLI_MEM_BUDGET, gen::CLI_FAN_IN)
        .with_scratch_dir(out_dir.join("layers-scratch"));
    let sorted_file = run.t.span("sorters.sort_file", 0, || {
        sorter.sort_file::<U32Rec>(&in_path, &out_path)
    });
    let got = sorted_file
        .ok()
        .and_then(|_| std::fs::read(&out_path).ok())
        .and_then(|bytes| gen::from_bytes(&bytes))
        .unwrap_or_default();
    run.check(&expected, &got);
    let _ = std::fs::remove_file(&in_path);
    let _ = std::fs::remove_file(&out_path);
    let extsort = run.t.total_ns("sorters.sort_file") / 1e9;
    run.metric("sorters.extsort_s", extsort, "s", 1);

    let mut data = input.clone();
    run.t
        .span("baselines.sort_unstable", 0, || data.sort_unstable());
    run.check(&expected, &data);
    let std_sort = run.ns_per_rec("baselines.sort_unstable", n);
    run.metric(
        "baselines.sort_unstable_ns_per_rec",
        std_sort,
        "ns/record",
        1,
    );

    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut data = input;
    run.t.span("baselines.parallel_radix_sort", 0, || {
        parallel_radix_sort(&mut data, threads);
    });
    run.check(&expected, &data);
    let radix = run.ns_per_rec("baselines.parallel_radix_sort", n);
    run.metric("baselines.radix_ns_per_rec", radix, "ns/record", 1);
    Ok(())
}
