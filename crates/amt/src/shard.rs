//! Pass-sharded parallel simulation.
//!
//! A merge pass is a set of *independent* merge groups: group `g` merges
//! runs `[g·m, (g+1)·m)` into one output run, touching nobody else's
//! runs, banks or tree state (§II–III — each group is its own engine fed
//! by banked memory). This module exploits that independence to simulate
//! the groups of one pass concurrently on a [`std::thread`] worker pool.
//!
//! **Determinism guarantee.** Each group is simulated by a pure function
//! of `(config, its runs, fan_in)` against a private [`Memory`] built
//! from [`bonsai_memsim::MemoryConfig::shard_view`], and the per-group
//! accounting is
//! folded into the [`PassReport`] in ascending group order. The worker
//! count therefore affects wall-clock time only: `workers = 1` and
//! `workers = N` produce bit-identical sorted output *and* bit-identical
//! cycle counts, and the first failing group (by index) always wins
//! error reporting.
//!
//! **Timing model.** The sharded pass charges each group the cycles of
//! its standalone simulation and reports their sum, i.e. the groups
//! time-multiplexed on one tree with the pipeline drained between
//! groups. The fused engine ([`SimEngine::sort`](crate::SimEngine::sort))
//! instead overlaps adjacent groups in the tree pipeline, so its cycle
//! counts are slightly lower; `workers = 1` on the *fused* path is the
//! exact legacy engine, while this module is the seam the parallel
//! runtime lives behind.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use bonsai_memsim::Memory;
use bonsai_records::run::RunSet;
use bonsai_records::Record;

use crate::config::SimEngineConfig;
use crate::error::SortError;
use crate::passsim::PassSim;
use crate::report::PassReport;

/// Size of the fixed *virtual* worker pool the per-pass utilization
/// counters ([`PassReport::busy_worker_cycles`] and
/// [`PassReport::idle_worker_cycles`]) are computed against, matching
/// the 8-core reference host of the runtime lints. A deterministic list
/// schedule of per-group simulated cycles over this pool — never wall
/// clock — feeds those counters, so they are bit-identical at every
/// real worker count and on both simulation loops.
pub const VIRTUAL_WORKERS: usize = 8;

/// List-schedules one pass's groups (in group order) on the virtual
/// pool, each group going to the earliest-free worker. Returns
/// `(makespan, busy)` in simulated cycles.
fn pass_virtual_schedule(group_cycles: &[u64]) -> (u64, u64) {
    let mut free = [0u64; VIRTUAL_WORKERS];
    let mut busy = 0u64;
    for &c in group_cycles {
        let earliest = (0..VIRTUAL_WORKERS)
            .min_by_key(|&w| free[w])
            .expect("the pool is not empty");
        free[earliest] += c;
        busy += c;
    }
    (free.into_iter().max().unwrap_or(0), busy)
}

/// Resolves the worker knob: `0` means one worker per available core.
fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        workers
    }
}

/// The work-stealing loop of the sharded pass: claims ascending group
/// indices from the shared counter and hands each to `claim`, until the
/// counter passes `groups`.
///
/// Every group index in `[0, groups)` is claimed by exactly one of the
/// threads running this loop against the same counter — including when
/// there are more threads than groups (the surplus threads observe an
/// exhausted counter and claim nothing). Pulled out of
/// the pass-sharding loop so the claim discipline is testable on its
/// own.
pub fn steal_groups(next: &AtomicUsize, groups: usize, mut claim: impl FnMut(usize)) {
    loop {
        let g = next.fetch_add(1, Ordering::Relaxed);
        if g >= groups {
            break;
        }
        claim(g);
    }
}

/// Everything one simulated merge group contributes to the pass.
struct GroupOutcome<R> {
    /// The group's single output run, terminal-free and sorted.
    out_records: Vec<R>,
    cycles: u64,
    bytes_read: u64,
    bytes_written: u64,
    input_stalls: u64,
    output_stalls: u64,
    fast_forwarded_cycles: u64,
    #[cfg(feature = "sanitize")]
    diagnostics: Vec<bonsai_check::Diagnostic>,
}

/// Copies group `g`'s runs (`[g·fan_in, (g+1)·fan_in)`, clamped) out of
/// the pass input as a standalone [`RunSet`].
fn group_input<R: Record>(runs: &RunSet<R>, g: usize, fan_in: usize) -> RunSet<R> {
    let lo = g * fan_in;
    let hi = ((g + 1) * fan_in).min(runs.num_runs());
    let mut records = Vec::new();
    let mut starts = Vec::with_capacity(hi - lo);
    for i in lo..hi {
        starts.push(records.len());
        records.extend_from_slice(runs.run(i));
    }
    RunSet::from_parts(records, starts)
}

/// Simulates one merge group to completion against its own bank view.
fn simulate_group<R: Record>(
    config: &SimEngineConfig,
    runs: RunSet<R>,
    fan_in: usize,
    stage: u32,
    max_cycles: u64,
    reference: bool,
) -> Result<GroupOutcome<R>, SortError> {
    let mut sim = PassSim::new(config, runs, fan_in);
    let mut memory = Memory::new(config.memory.shard_view(fan_in));
    sim.run(&mut memory, reference, max_cycles, stage)?;
    #[cfg(feature = "sanitize")]
    let diagnostics = sim.sanitize_check();
    let (out_runs, pass) = sim.finish(stage);
    Ok(GroupOutcome {
        out_records: out_runs.into_records(),
        cycles: pass.cycles,
        bytes_read: memory.bytes_read(),
        bytes_written: memory.bytes_written(),
        input_stalls: pass.input_stalls,
        output_stalls: pass.output_stalls,
        fast_forwarded_cycles: pass.fast_forwarded_cycles,
        #[cfg(feature = "sanitize")]
        diagnostics,
    })
}

/// Runs one merge stage sharded across its groups on `workers` threads
/// (`0` = all cores), merging the per-group accounting back into a
/// single [`PassReport`] in group order.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_pass_sharded<R: Record>(
    config: &SimEngineConfig,
    runs: RunSet<R>,
    fan_in: usize,
    stage: u32,
    workers: usize,
    max_cycles: u64,
    reference: bool,
    #[cfg(feature = "sanitize")] diagnostics: &mut Vec<bonsai_check::Diagnostic>,
) -> Result<(RunSet<R>, PassReport), SortError> {
    let n_runs = runs.num_runs();
    let n_records = runs.len();
    let groups = n_runs.div_ceil(fan_in);
    let threads = resolve_workers(workers).min(groups).max(1);

    // One slot per group; workers claim group indices from a shared
    // counter, so the mapping of groups to threads is dynamic but the
    // result in each slot depends only on the group itself.
    let slots: Vec<OnceLock<Result<GroupOutcome<R>, SortError>>> =
        (0..groups).map(|_| OnceLock::new()).collect();
    if groups == 1 {
        // The one group merges the whole input: hand it over uncopied.
        let _ = slots[0].set(simulate_group(
            config, runs, fan_in, stage, max_cycles, reference,
        ));
    } else {
        let next = AtomicUsize::new(0);
        let work = || {
            steal_groups(&next, groups, |g| {
                let input = group_input(&runs, g, fan_in);
                let result = simulate_group(config, input, fan_in, stage, max_cycles, reference);
                let _ = slots[g].set(result);
            });
        };
        // The calling thread is one of the `threads` workers, so a
        // one-worker pass spawns nothing.
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(work);
            }
            work();
        });
        // Every group copied its runs out; free the input before the
        // outputs are concatenated.
        drop(runs);
    }

    let mut out_records = Vec::new();
    let mut starts = Vec::with_capacity(groups);
    let mut pass = PassReport {
        stage,
        cycles: 0,
        records: n_records as u64,
        runs_in: n_runs as u64,
        runs_out: groups as u64,
        bytes_read: 0,
        bytes_written: 0,
        input_stalls: 0,
        output_stalls: 0,
        fast_forwarded_cycles: 0,
        busy_worker_cycles: 0,
        idle_worker_cycles: 0,
    };
    let mut group_cycles = Vec::with_capacity(groups);
    for (g, slot) in slots.into_iter().enumerate() {
        let outcome = slot
            .into_inner()
            .expect("worker pool simulated every group")?;
        starts.push(out_records.len());
        if g == 0 {
            // Grow the first group's buffer rather than copying it, so
            // a one-group pass copies nothing.
            out_records = outcome.out_records;
            out_records.reserve(n_records.saturating_sub(out_records.len()));
        } else {
            out_records.extend(outcome.out_records);
        }
        group_cycles.push(outcome.cycles);
        pass.cycles += outcome.cycles;
        pass.bytes_read += outcome.bytes_read;
        pass.bytes_written += outcome.bytes_written;
        pass.input_stalls += outcome.input_stalls;
        pass.output_stalls += outcome.output_stalls;
        pass.fast_forwarded_cycles += outcome.fast_forwarded_cycles;
        #[cfg(feature = "sanitize")]
        diagnostics.extend(
            outcome
                .diagnostics
                .into_iter()
                .map(|d| d.with("stage", stage).with("group", g)),
        );
    }
    // Utilization counters come from the deterministic virtual-pool
    // schedule of the per-group cycle costs, not from wall clock, so
    // the report stays bit-identical at every real worker count.
    let (makespan, busy) = pass_virtual_schedule(&group_cycles);
    pass.busy_worker_cycles = busy;
    pass.idle_worker_cycles = (VIRTUAL_WORKERS as u64) * makespan - busy;
    Ok((RunSet::from_parts(out_records, starts), pass))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_rng::Rng;

    /// Runs `workers` real threads stealing from one counter and
    /// returns how many times each group index was claimed.
    fn claim_counts(workers: usize, groups: usize) -> Vec<usize> {
        let counts: Vec<AtomicUsize> = (0..groups).map(|_| AtomicUsize::new(0)).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    steal_groups(&next, groups, |g| {
                        counts[g].fetch_add(1, Ordering::SeqCst);
                    });
                });
            }
        });
        counts.into_iter().map(AtomicUsize::into_inner).collect()
    }

    #[test]
    fn every_group_claimed_exactly_once_randomized() {
        let mut rng = Rng::seed_from_u64(0x5EED_600D);
        for _ in 0..40 {
            let groups = rng.range_usize(1, 33);
            // Deliberately spans workers > groups: the surplus threads
            // must drain without claiming (or double-claiming) anything.
            let workers = rng.range_usize(1, 2 * groups + 4);
            let counts = claim_counts(workers, groups);
            assert!(
                counts.iter().all(|&c| c == 1),
                "workers={workers} groups={groups}: claim counts {counts:?}"
            );
        }
    }

    #[test]
    fn zero_groups_claims_nothing_and_terminates() {
        for workers in [1, 2, 7] {
            assert!(claim_counts(workers, 0).is_empty());
        }
    }

    #[test]
    fn virtual_schedule_fills_the_pool() {
        // One pass of equal groups fills the pool perfectly...
        let (makespan, busy) = pass_virtual_schedule(&[10; VIRTUAL_WORKERS]);
        assert_eq!((makespan, busy), (10, 10 * VIRTUAL_WORKERS as u64));
        // ...and one straggler past a full wave idles the rest.
        let (makespan, busy) = pass_virtual_schedule(&[10; VIRTUAL_WORKERS + 1]);
        assert_eq!((makespan, busy), (20, 10 * (VIRTUAL_WORKERS as u64 + 1)));
        assert_eq!(pass_virtual_schedule(&[]), (0, 0));
    }

    #[test]
    fn single_thread_claims_in_ascending_order() {
        let next = AtomicUsize::new(0);
        let mut seen = Vec::new();
        steal_groups(&next, 5, |g| seen.push(g));
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }
}
