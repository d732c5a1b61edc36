//! The simulation hot loop must be allocation-free.
//!
//! Every buffer a pass touches per cycle — leaf FIFOs, merger output
//! FIFOs, loader/drain in-flight queues, the output stream — is sized
//! at construction, so driving a pass to completion (on either loop)
//! must perform zero heap allocations after `PassSim::new`. A counting
//! global allocator enforces this; it is armed only around the
//! simulation loop, so construction and teardown may allocate freely.
//!
//! This file deliberately contains a single `#[test]`: the armed flag
//! is process-global, and a concurrently running test would count its
//! own allocations against the hot loop.
//!
//! The contract applies to the production loop only: the opt-in
//! `sanitize` feature weaves diagnostic probes into the cycle loop
//! that record findings on the heap by design, so the whole file is
//! compiled out under that feature.
#![cfg(not(feature = "sanitize"))]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use bonsai_amt::passsim::PassSim;
use bonsai_amt::{AmtConfig, SimEngineConfig};
use bonsai_gensort::dist::uniform_u32;
use bonsai_memsim::Memory;
use bonsai_records::run::RunSet;
use bonsai_records::{Record, U32Rec};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn note_alloc() {
    if ARMED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn drive(reference: bool) -> u64 {
    let cfg = SimEngineConfig::dram_sorter(AmtConfig::new(4, 16), 4);
    let data = uniform_u32(30_000, 9);
    // `sanitize` rewrites terminal (zero) keys to 1. That is deliberate
    // here: `PassSim` is the raw datapath, which reserves the terminal
    // record as its end-of-run marker (§V-B), and this test measures
    // allocations, not output. The sort boundary (`SimEngine`) strips
    // terminal records instead of rewriting them (`engine::
    // strip_terminals`), so a sort returns its input's permutation.
    let sanitized: Vec<U32Rec> = data.into_iter().map(Record::sanitize).collect();
    let runs = RunSet::from_chunks(sanitized, cfg.initial_run_len());
    let mut sim = PassSim::new(&cfg, runs, 16);
    let mut memory = Memory::new(cfg.memory);

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let mut cycle = 0u64;
    while !sim.is_done() {
        if reference {
            sim.tick(cycle, &mut memory);
            cycle += 1;
        } else {
            cycle += sim.advance(cycle, &mut memory);
        }
    }
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    // Teardown sanity (unarmed): the pass actually ran to completion.
    let (out_runs, pass) = sim.finish(1);
    assert_eq!(out_runs.len(), 30_000);
    assert!(pass.cycles > 0);
    allocs
}

#[test]
fn simulation_loop_is_allocation_free_on_both_paths() {
    assert_eq!(drive(false), 0, "fast path allocated in the hot loop");
    assert_eq!(drive(true), 0, "reference loop allocated in the hot loop");
}
