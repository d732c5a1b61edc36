//! Worker-count invariance of the pass-sharded engine.
//!
//! The sharded runtime's whole contract is that `workers` is a
//! wall-clock knob and nothing else: for any configuration, every worker
//! count must produce the same sorted output and the same per-pass cycle
//! counts, bit for bit. These tests draw randomized configurations and
//! check the invariant; the in-repo experiment configs are covered by
//! the bench crate's determinism suite.

use bonsai_amt::{AmtConfig, SimEngine, SimEngineConfig, VIRTUAL_WORKERS};
use bonsai_gensort::dist::uniform_u32;
use bonsai_records::{Record, U32Rec};
use bonsai_rng::Rng;

/// Worker count the suite compares against 1; override with
/// `BONSAI_TEST_WORKERS` (CI runs the matrix at 1, 2 and max).
fn test_workers() -> usize {
    std::env::var("BONSAI_TEST_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
}

#[test]
fn sharded_reports_are_worker_count_invariant_on_random_configs() {
    let workers = test_workers();
    let mut rng = Rng::seed_from_u64(0xA370_0040);
    for round in 0..24 {
        let len = rng.range_usize(1, 30_000);
        let data: Vec<U32Rec> = (0..len)
            .map(|_| U32Rec::new(rng.next_u32().max(1)))
            .collect();
        let p = 1 << rng.below_usize(4);
        let l = 1 << rng.range_usize(1, 6);
        let presort = [1usize, 16][rng.below_usize(2)];
        let mut cfg = SimEngineConfig::dram_sorter(AmtConfig::new(p, l), 4);
        cfg.presort = (presort > 1).then_some(presort);

        let (out_1, report_1) = SimEngine::new(cfg).sort_sharded(data.clone(), 1);
        let (out_n, report_n) = SimEngine::new(cfg).sort_sharded(data.clone(), workers);
        assert_eq!(
            out_1, out_n,
            "round {round} (p={p} l={l}): output depends on worker count"
        );
        assert_eq!(
            report_1, report_n,
            "round {round} (p={p} l={l}): report depends on worker count"
        );

        // The sharded path sorts exactly like the fused engine (the
        // timing models differ; the data path must not).
        let (out_fused, _) = SimEngine::new(cfg).sort(data);
        assert_eq!(out_1, out_fused, "round {round}: sharded output diverges");
        for pass in &report_1.passes {
            assert!(pass.cycles > 0, "round {round}: empty pass accounting");
        }
    }
}

#[test]
fn sharded_and_fused_agree_on_bytes_moved() {
    // Every pass reads and writes the whole array once, however the
    // groups are partitioned — byte accounting is partition-invariant
    // even though cycle accounting models a drained pipeline per group.
    let data: Vec<U32Rec> = uniform_u32(40_000, 17);
    let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
    let (_, fused) = SimEngine::new(cfg).sort(data.clone());
    let (_, sharded) = SimEngine::new(cfg).sort_sharded(data, test_workers());
    assert_eq!(fused.passes.len(), sharded.passes.len());
    for (f, s) in fused.passes.iter().zip(&sharded.passes) {
        assert_eq!(f.bytes_read, s.bytes_read, "stage {}", f.stage);
        assert_eq!(f.bytes_written, s.bytes_written, "stage {}", f.stage);
        assert_eq!(f.runs_in, s.runs_in);
        assert_eq!(f.runs_out, s.runs_out);
        assert_eq!(f.records, s.records);
    }
}

#[test]
fn worker_zero_means_auto_and_stays_deterministic() {
    let data: Vec<U32Rec> = uniform_u32(10_000, 23);
    let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(2, 8), 4);
    let (out_auto, report_auto) = SimEngine::new(cfg).sort_sharded(data.clone(), 0);
    let (out_1, report_1) = SimEngine::new(cfg).sort_sharded(data, 1);
    assert_eq!(out_auto, out_1);
    assert_eq!(report_auto, report_1);
}

/// Worker counts the single-shape tests sweep: one, two, the CI matrix
/// point and `0` (one per core).
fn worker_sweep() -> [usize; 4] {
    [1, 2, test_workers(), 0]
}

#[test]
fn utilization_counters_are_consistent() {
    let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(4, 4), 4);
    let data = uniform_u32(30_000, 17);
    let (_, rep) = SimEngine::new(cfg).sort_sharded(data, 2);
    assert!(rep.stages() >= 3, "shape must be multi-pass");
    for pass in &rep.passes {
        // Every group is simulated exactly once, so virtual busy time
        // is exactly the pass's summed cycles...
        assert_eq!(pass.busy_worker_cycles, pass.cycles);
        // ...and busy + idle is the whole virtual pool over the pass's
        // makespan, which no schedule can shorten below busy / pool.
        let pool_cycles = pass.busy_worker_cycles + pass.idle_worker_cycles;
        assert_eq!(
            pool_cycles % VIRTUAL_WORKERS as u64,
            0,
            "stage {}",
            pass.stage
        );
        let makespan = pool_cycles / VIRTUAL_WORKERS as u64;
        assert!(makespan * VIRTUAL_WORKERS as u64 >= pass.busy_worker_cycles);
        if pass.runs_out == 1 {
            // One group: one virtual worker busy for the whole pass.
            assert_eq!(makespan, pass.cycles, "stage {}", pass.stage);
        }
    }
}

#[test]
fn livelock_bound_trips_identically_at_every_worker_count() {
    // BON040 parity: the SortError carries only stage and bound, and the
    // first failing group in group order wins, so every loop and worker
    // count surfaces the fused engine's error.
    let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
    let data = uniform_u32(50_000, 4);
    let err_fused = SimEngine::new(cfg)
        .with_max_pass_cycles(10)
        .try_sort(data.clone())
        .expect_err("bound of 10 cycles must trip");
    for workers in worker_sweep() {
        for reference in [false, true] {
            let err = SimEngine::new(cfg)
                .with_max_pass_cycles(10)
                .with_reference_loop(reference)
                .try_sort_sharded(data.clone(), workers)
                .expect_err("bound of 10 cycles must trip");
            assert_eq!(
                err, err_fused,
                "workers={workers} reference={reference}: BON040 must not \
                 depend on the worker count"
            );
        }
    }
}

#[test]
fn empty_and_single_record_inputs_sharded() {
    let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(2, 4), 4);
    for workers in worker_sweep() {
        let (out, rep) = SimEngine::new(cfg).sort_sharded(Vec::<U32Rec>::new(), workers);
        assert!(out.is_empty());
        assert_eq!(rep.stages(), 0);
        let (out, rep) = SimEngine::new(cfg).sort_sharded(vec![U32Rec::new(9)], workers);
        assert_eq!(out, vec![U32Rec::new(9)]);
        assert_eq!(rep.stages(), 0);
    }
}

#[test]
fn terminal_heavy_inputs_come_back_as_sorted_permutations() {
    let zero = U32Rec::TERMINAL;
    let n = 4_000;
    let inputs: [(&str, Vec<U32Rec>); 3] = [
        ("all-zero", vec![zero; n]),
        (
            "alternating",
            (0..n as u32)
                .map(|i| {
                    if i % 2 == 0 {
                        zero
                    } else {
                        U32Rec::new(n as u32 - i)
                    }
                })
                .collect(),
        ),
        (
            "zero-only runs",
            // 16-record runs of zeros between runs of random values, so
            // whole presorted runs and whole merge groups are terminal.
            uniform_u32(n, 29)
                .into_iter()
                .enumerate()
                .map(|(i, r)| if (i / 16) % 3 == 0 { zero } else { r })
                .collect(),
        ),
    ];
    let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(2, 4), 4);
    for (name, data) in inputs {
        let mut expected = data.clone();
        expected.sort_unstable();
        let (out, rep) = SimEngine::new(cfg).sort(data.clone());
        assert_eq!(out, expected, "{name}: fused");
        assert_eq!(rep.n_records, n as u64, "{name}: fused");
        for workers in worker_sweep() {
            let (out, rep) = SimEngine::new(cfg).sort_sharded(data.clone(), workers);
            assert_eq!(out, expected, "{name}: workers={workers}");
            assert_eq!(rep.n_records, n as u64, "{name}: workers={workers}");
        }
    }
}
