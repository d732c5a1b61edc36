//! Seeded workload inputs. Everything a run sends to the system is a
//! pure function of `--seed`, generated here with the benchmark's own
//! generator so a change to the repository's generators cannot move the
//! inputs.

use bonsai_amt::{AmtConfig, SimEngineConfig};
use bonsai_bench::perf::{ssd_multipass_config, ssd_scale_config};
use bonsai_records::U32Rec;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed, so workloads and
    /// jobs drawn from the same `--seed` stay independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Self(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const SVC_STREAM: u64 = 1;
const SIM_STREAM: u64 = 2;
const CLI_STREAM: u64 = 3;
const WARMUP_STREAM: u64 = 4;

/// Records in a latency-class `svc_mixed` job.
pub const SMALL_RECORDS: usize = 1024;
/// Records in a throughput-class `svc_mixed` job.
pub const BIG_RECORDS: usize = 65_536;
/// Offered rate of the `svc_mixed` open loop, jobs per second.
pub const SVC_RATE: f64 = 33.0;
/// One job in this many is throughput class.
pub const BIG_EVERY: usize = 10;

/// Latency-class keys: 16-bit, so duplicate-heavy, and the reserved
/// terminal value 0 occurs (about 1.5 % of jobs hold at least one).
pub fn small_keys(rng: &mut Rng, n: usize) -> Vec<U32Rec> {
    (0..n)
        .map(|_| U32Rec::new(rng.next_u32() & 0xFFFF))
        .collect()
}

/// Full-domain u32 keys.
pub fn full_keys(rng: &mut Rng, n: usize) -> Vec<U32Rec> {
    (0..n).map(|_| U32Rec::new(rng.next_u32())).collect()
}

/// The engine every `svc_mixed` job is submitted with: the
/// `bonsai-serve` default, DRAM AMT(4, 16) on 4-byte records.
pub fn svc_engine() -> SimEngineConfig {
    SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4)
}

/// One scheduled `svc_mixed` job.
#[derive(Debug, Clone)]
pub struct SvcJob {
    /// Seconds after the window opens at which the job is due.
    pub due: f64,
    pub big: bool,
    pub data: Vec<U32Rec>,
}

/// The `svc_mixed` schedule for `seconds` of offered load: a Poisson
/// process of rate [`SVC_RATE`] conditioned on its arrival count (that
/// many uniform arrival times, sorted), so every seed offers the same
/// number of jobs and records. Every [`BIG_EVERY`]-th arrival, from a
/// seeded phase, is throughput class. Drawing the class independently
/// per job instead let the number of overlapping big jobs decide the
/// small-job p99, which then varied by ±30 % between seeds.
pub fn svc_schedule(seed: u64, seconds: f64) -> Vec<SvcJob> {
    let mut rng = Rng::new(seed, SVC_STREAM);
    let n = ((SVC_RATE * seconds).round() as usize).max(BIG_EVERY);
    let mut due: Vec<f64> = (0..n).map(|_| rng.next_f64() * seconds).collect();
    due.sort_by(f64::total_cmp);
    let phase = (rng.next_u64() % BIG_EVERY as u64) as usize;
    let big = (0..n).map(|i| i % BIG_EVERY == phase);
    due.into_iter()
        .zip(big)
        .map(|(due, big)| SvcJob {
            due,
            big,
            data: if big {
                full_keys(&mut rng, BIG_RECORDS)
            } else {
                small_keys(&mut rng, SMALL_RECORDS)
            },
        })
        .collect()
}

/// The untimed warm-up job of every service setup.
pub fn warmup_job(seed: u64) -> Vec<U32Rec> {
    small_keys(&mut Rng::new(seed, WARMUP_STREAM), SMALL_RECORDS)
}

/// Records per leaf-layout job of the `sim_batch` multipass shape.
pub const SIM_RECORDS: usize = 65_536;

/// The `sim_batch` job list as (shape, jobs, records per job): more jobs
/// than the runtime's default queue depth (16), so submission meets
/// backpressure. `ssd_multipass_config` is AMT(4, 4): 6 passes at 65536
/// records, 7 at 131072; `ssd_scale_config` is AMT(8, 64): 3 passes.
fn sim_job_list() -> [(SimEngineConfig, usize, usize); 3] {
    [
        (ssd_multipass_config(), 14, SIM_RECORDS),
        (ssd_multipass_config(), 2, 2 * SIM_RECORDS),
        (ssd_scale_config(), 4, SIM_RECORDS),
    ]
}

/// One `sim_batch` job.
#[derive(Debug, Clone)]
pub struct SimJob {
    pub config: SimEngineConfig,
    pub data: Vec<U32Rec>,
}

/// The `sim_batch` jobs of one seed, in submission order.
pub fn sim_jobs(seed: u64) -> Vec<SimJob> {
    let mut rng = Rng::new(seed, SIM_STREAM);
    let mut jobs = Vec::new();
    for (config, count, records) in sim_job_list() {
        for _ in 0..count {
            jobs.push(SimJob {
                config,
                data: full_keys(&mut rng, records),
            });
        }
    }
    // Interleave shapes so the queue holds a mix, deterministically.
    for i in (1..jobs.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        jobs.swap(i, j);
    }
    jobs
}

/// Records in the `cli_extsort` input file (16 MB of u32).
pub const CLI_RECORDS: usize = 1 << 22;
/// `--mem-budget` of the `cli_extsort` sort, in bytes: a quarter of the
/// input, so phase one writes 4 run files and phase two merges them.
pub const CLI_MEM_BUDGET: usize = 4 << 20;
/// `bonsai sort`'s default `--fan-in`.
pub const CLI_FAN_IN: usize = 256;

/// The `cli_extsort` input: full-domain u32 records.
pub fn cli_input(seed: u64) -> Vec<U32Rec> {
    full_keys(&mut Rng::new(seed, CLI_STREAM), CLI_RECORDS)
}

/// Raw little-endian bytes of u32 records, the CLI's `--format u32`.
pub fn to_bytes(records: &[U32Rec]) -> Vec<u8> {
    records
        .iter()
        .flat_map(|r| r.into_inner().to_le_bytes())
        .collect()
}

/// Inverse of [`to_bytes`]; `None` on a ragged buffer.
pub fn from_bytes(bytes: &[u8]) -> Option<Vec<U32Rec>> {
    if !bytes.len().is_multiple_of(4) {
        return None;
    }
    Some(
        bytes
            .chunks_exact(4)
            .map(|c| U32Rec::new(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
            .collect(),
    )
}
