//! Randomized cross-validation: arbitrary inputs sort identically
//! through the cycle simulator, the functional schedule, the radix
//! baseline, and the standard library.

use bonsai::amt::{functional, AmtConfig, SimEngine, SimEngineConfig};
use bonsai::baselines::radix::parallel_radix_sort;
use bonsai::records::U32Rec;
use bonsai_rng::Rng;

#[test]
fn sim_functional_radix_std_agree() {
    let mut rng = Rng::seed_from_u64(0xC405_0001);
    for _ in 0..24 {
        let len = rng.below_usize(3_000);
        let data: Vec<U32Rec> = (0..len)
            .map(|_| U32Rec::new(rng.next_u32().max(1)))
            .collect();
        let p = 1 << rng.below_usize(4);
        let l = 1 << rng.range_usize(1, 5);
        let mut expected = data.clone();
        expected.sort_unstable();

        let amt = AmtConfig::new(p, l);
        let cfg = SimEngineConfig::dram_sorter(amt, 4);
        let (sim, _) = SimEngine::new(cfg).sort(data.clone());
        assert_eq!(&sim, &expected);

        let (func, _) = functional::sort_balanced(data.clone(), l, 16);
        assert_eq!(&func, &expected);

        let mut radix = data;
        parallel_radix_sort(&mut radix, 2);
        assert_eq!(&radix, &expected);
    }
}

#[test]
fn simulator_sorts_zero_heavy_input_as_permutation() {
    // Zeros collide with the reserved terminal record; they bypass the
    // datapath and come back unchanged. The output must be the input
    // sorted, zeros included.
    let mut rng = Rng::seed_from_u64(0xC405_0002);
    for _ in 0..24 {
        let len = rng.below_usize(1_000);
        let data: Vec<U32Rec> = (0..len).map(|_| U32Rec::new(rng.below_u32(8))).collect();
        let mut expected = data.clone();
        expected.sort_unstable();

        let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(2, 4), 4);
        let (out, _) = SimEngine::new(cfg).sort(data);
        assert_eq!(out, expected);
    }
}

#[test]
fn stage_count_invariant() {
    // The executed stage count always equals ceil(log_l(initial runs)).
    let mut rng = Rng::seed_from_u64(0xC405_0003);
    for _ in 0..24 {
        let n = rng.range_usize(1, 49_999);
        let l = 1usize << rng.range_usize(1, 8);
        let presort = [1usize, 4, 16][rng.below_usize(3)];
        let data: Vec<U32Rec> = (0..n)
            .map(|i| U32Rec::new((i as u32).wrapping_mul(2_654_435_761) | 1))
            .collect();
        let (out, stages) = functional::sort_balanced(data, l, presort);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        let runs0 = (n as u64).div_ceil(presort as u64);
        assert_eq!(stages, bonsai::records::run::stages_needed(runs0, l as u64));
    }
}
