//! Randomized cross-validation inside the AMT crate: the cycle engine
//! and the functional schedule agree, and the functional 2-way merge
//! tree is a plain sorted merge.

use bonsai_amt::{functional, AmtConfig, SimEngine, SimEngineConfig};
use bonsai_records::U32Rec;
use bonsai_rng::Rng;

/// `runs` sorted runs of `0..=max_len` raw values each, every value drawn
/// by `value` (so terminal zeros and heavy duplicates are kept).
fn sorted_runs(
    rng: &mut Rng,
    runs: usize,
    max_len: usize,
    value: impl Fn(&mut Rng) -> u32,
) -> Vec<Vec<U32Rec>> {
    (0..runs)
        .map(|_| {
            let len = rng.below_usize(max_len + 1);
            let mut v: Vec<U32Rec> = (0..len).map(|_| U32Rec::new(value(rng))).collect();
            v.sort_unstable();
            v
        })
        .collect()
}

#[test]
fn kway_merge_equals_sorted_concatenation() {
    let mut rng = Rng::seed_from_u64(0xA370_0001);
    // Non-power-of-two counts and counts above 256 next to random ones;
    // lengths up to a few 256-record node blocks, so blocks refill and
    // siblings run dry at different times.
    let counts = [0, 1, 2, 3, 5, 7, 64, 255, 256, 257, 300];
    for case in 0..40 {
        let runs = counts
            .get(case)
            .copied()
            .unwrap_or_else(|| rng.below_usize(301));
        let max_len = [0, 3, 40, 1_100][case % 4];
        let runs = match case % 3 {
            0 => sorted_runs(&mut rng, runs, max_len, Rng::next_u32),
            1 => sorted_runs(&mut rng, runs, max_len, |r| r.next_u32() % 4),
            _ => sorted_runs(&mut rng, runs, max_len, |r| r.next_u32() % 300 * 1000),
        };
        let slices: Vec<&[U32Rec]> = runs.iter().map(Vec::as_slice).collect();
        let mut expected = runs.concat();
        expected.sort_unstable();
        assert_eq!(
            functional::kway_merge(&slices),
            expected,
            "case {case}: {} runs up to {max_len} records",
            runs.len()
        );
    }
}

#[test]
fn engine_equals_functional_schedule() {
    let mut rng = Rng::seed_from_u64(0xA370_0002);
    for _ in 0..48 {
        let len = rng.below_usize(2_000);
        let data: Vec<U32Rec> = (0..len)
            .map(|_| U32Rec::new(rng.next_u32().max(1)))
            .collect();
        let p = 1 << rng.below_usize(4);
        let l = 1 << rng.range_usize(1, 6);
        let presort = [1usize, 16][rng.below_usize(2)];
        let amt = AmtConfig::new(p, l);
        let mut cfg = SimEngineConfig::dram_sorter(amt, 4);
        cfg.presort = (presort > 1).then_some(presort);
        let (sim, sim_report) = SimEngine::new(cfg).sort(data.clone());
        let (func, func_stages) = functional::sort_balanced(data, amt.l, presort);
        assert_eq!(&sim, &func, "identical merge schedules must agree");
        assert_eq!(sim_report.stages(), func_stages);
    }
}

#[test]
fn merge_pass_preserves_multiset_and_shrinks_runs() {
    let mut rng = Rng::seed_from_u64(0xA370_0003);
    for _ in 0..48 {
        let len = rng.range_usize(1, 1_499);
        let chunk = rng.range_usize(1, 39);
        let fan_in = rng.range_usize(2, 19);
        let data: Vec<U32Rec> = (0..len)
            .map(|_| U32Rec::new(rng.next_u32().max(1)))
            .collect();
        let runs = bonsai_records::run::RunSet::from_chunks(data.clone(), chunk);
        let before = runs.num_runs();
        let after = functional::merge_pass(&runs, fan_in);
        assert!(after.validate().is_ok());
        assert_eq!(after.num_runs(), before.div_ceil(fan_in));
        let mut a: Vec<U32Rec> = data;
        let mut b = after.into_records();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
