//! Exhaustive model checking of the runtime's concurrency protocols.
//!
//! These tests instantiate the *production* [`ClassQueue`] and
//! [`WorkerPool`] with `bonsai_mc::sync::McSync` and let the checker
//! explore every schedule (within the preemption budget) of:
//!
//! - mixed-class push/pop/close with concurrent producers+consumers,
//! - backpressure handoff through a capacity-1 queue,
//! - drain-after-close (queued work of both classes still delivers),
//! - the broadcast-shutdown wakeup with multiple parked consumers,
//! - the starvation bound: with stride `s`, at most `s` latency items
//!   bypass a waiting throughput item before it is served,
//! - the pool's spawn/drain/shutdown protocol, through `finish` and
//!   through drop,
//!
//! at small sizes — the sizes where essentially all interleaving bugs
//! in this kind of code manifest.
//!
//! The mutation test at the bottom seeds the classic shutdown bug
//! (`notify_one` where `notify_all` is required in `close`) into a copy
//! of the queue's wait logic and proves the checker flags it as a lost
//! wakeup with a replayable schedule. `ClassQueue::close` broadcasts
//! precisely because of this.

use std::collections::VecDeque;
use std::sync::Arc;

use bonsai_mc::sync::{self, McSync};
use bonsai_mc::{Checker, Failure, Schedule};
use bonsai_runtime::{ClassQueue, Classed, JobClass, WorkerPool};

/// Minimal classed item: a payload tagged with its scheduling lane.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
struct Item {
    value: u32,
    class: JobClass,
}

impl Item {
    fn latency(value: u32) -> Self {
        Self {
            value,
            class: JobClass::Latency,
        }
    }

    fn throughput(value: u32) -> Self {
        Self {
            value,
            class: JobClass::Throughput,
        }
    }
}

impl Classed for Item {
    fn job_class(&self) -> JobClass {
        self.class
    }
}

/// 2 producers (one per class) + 2 consumers through a capacity-1
/// queue, closed by the coordinator after the producers drain: every
/// schedule must deliver both items exactly once and terminate — no
/// deadlock, no lost wakeup across the two lanes' shared condvars.
///
/// Five threads make the budget-2 space >2M schedules, so this largest
/// config runs at preemption budget 1 — still exhaustive within the
/// bound, with every switch at a blocking point (where queue bugs live)
/// free. The smaller configs below and the mutation test keep the
/// default budget of 2.
#[test]
fn mixed_class_push_pop_close_is_exhaustively_clean() {
    use bonsai_mc::sync::atomic::AtomicUsize;
    use std::sync::atomic::Ordering;

    let stats = Checker::new()
        .preemption_budget(1)
        .max_schedules(1_000_000)
        .check(|| {
            let queue = Arc::new(ClassQueue::<Item, McSync>::new(1, 4));
            // Tally delivered items with single-op atomic gates rather
            // than a mutex: a contended harness lock would multiply the
            // schedule space without exercising any queue code.
            let sum = Arc::new(AtomicUsize::new(0));
            let count = Arc::new(AtomicUsize::new(0));
            let producers: Vec<_> = [Item::latency(1), Item::throughput(2)]
                .into_iter()
                .map(|item| {
                    let queue = Arc::clone(&queue);
                    sync::thread::spawn(move || {
                        queue.push(item).expect("queue closes after producers");
                    })
                })
                .collect();
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let queue = Arc::clone(&queue);
                    let sum = Arc::clone(&sum);
                    let count = Arc::clone(&count);
                    sync::thread::spawn(move || {
                        while let Some(item) = queue.pop() {
                            sum.fetch_add(item.value as usize, Ordering::SeqCst);
                            count.fetch_add(1, Ordering::SeqCst);
                        }
                    })
                })
                .collect();
            for p in producers {
                p.join().unwrap();
            }
            queue.close();
            for c in consumers {
                c.join().unwrap();
            }
            assert_eq!(count.load(Ordering::SeqCst), 2, "both items delivered");
            assert_eq!(sum.load(Ordering::SeqCst), 3, "delivered exactly 1 and 2");
        })
        .expect("the class-queue protocol must be schedule-clean");
    assert!(
        stats.complete,
        "exploration must exhaust the budgeted space"
    );
    assert!(stats.schedules > 100, "2p/2c/cap-1 is not a trivial space");
}

/// Backpressure focus: one producer pushes three mixed-class items
/// through a capacity-1 queue while a consumer drains it. Capacity 1
/// means at most one item is ever queued, so delivery order must equal
/// push order on every schedule — the lanes cannot reorder what never
/// coexists — and the blocked `push` must hand off cleanly.
#[test]
fn class_queue_backpressure_handoff_is_exhaustively_clean() {
    let stats = Checker::new()
        .check(|| {
            let queue = Arc::new(ClassQueue::<Item, McSync>::new(1, 4));
            let consumer = {
                let queue = Arc::clone(&queue);
                sync::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = queue.pop() {
                        got.push(item.value);
                    }
                    assert_eq!(got, vec![7, 8, 9], "capacity-1 order is push order");
                })
            };
            queue.push(Item::throughput(7)).unwrap();
            queue.push(Item::latency(8)).unwrap();
            queue.push(Item::throughput(9)).unwrap();
            queue.close();
            consumer.join().unwrap();
        })
        .expect("backpressure handoff must be schedule-clean");
    assert!(stats.complete);
}

/// Drain-after-close: items of both classes queued before `close` must
/// still deliver, latency lane first, on every schedule of the
/// consumer/closer interleaving.
#[test]
fn queued_work_of_both_classes_drains_after_close() {
    let stats = Checker::new()
        .check(|| {
            let queue = Arc::new(ClassQueue::<Item, McSync>::new(4, 4));
            queue.push(Item::throughput(1)).unwrap();
            queue.push(Item::latency(2)).unwrap();
            let consumer = {
                let queue = Arc::clone(&queue);
                sync::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = queue.pop() {
                        got.push(item.value);
                    }
                    assert_eq!(got, vec![2, 1], "latency lane drains first");
                })
            };
            queue.close();
            consumer.join().unwrap();
        })
        .expect("drain-after-close must be schedule-clean");
    assert!(stats.complete);
}

/// Broadcast shutdown: two consumers parked on an *empty* class queue
/// must both observe `close`. This is the control run of the mutation
/// test below: the same scenario, against the real broadcast `close`.
#[test]
fn broadcast_close_wakes_every_parked_consumer() {
    let stats = Checker::new()
        .check(|| {
            let queue = Arc::new(ClassQueue::<Item, McSync>::new(1, 4));
            let consumers: Vec<_> = (0..2)
                .map(|_| {
                    let queue = Arc::clone(&queue);
                    sync::thread::spawn(move || {
                        assert!(queue.pop().is_none(), "nothing was ever pushed");
                    })
                })
                .collect();
            queue.close();
            for c in consumers {
                c.join().unwrap();
            }
        })
        .expect("broadcast close must wake every parked consumer");
    assert!(stats.complete);
}

/// The starvation bound, checked under every schedule: with stride 1
/// and the queue preloaded `[T, L, L]`, a lone consumer must serve the
/// throughput item after at most one latency bypass — pop order is
/// exactly `L, T, L`. The preload happens before the consumer spawns,
/// so the only nondeterminism is the consumer/closer interleaving the
/// fairness accounting must survive.
#[test]
fn fairness_stride_bound_holds_on_every_schedule() {
    let stats = Checker::new()
        .check(|| {
            let queue = Arc::new(ClassQueue::<Item, McSync>::new(4, 1));
            queue.push(Item::throughput(10)).unwrap();
            queue.push(Item::latency(20)).unwrap();
            queue.push(Item::latency(21)).unwrap();
            let consumer = {
                let queue = Arc::clone(&queue);
                sync::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(item) = queue.pop() {
                        got.push(item.value);
                    }
                    assert_eq!(
                        got,
                        vec![20, 10, 21],
                        "stride 1 admits one bypass, then serves throughput"
                    );
                })
            };
            queue.close();
            consumer.join().unwrap();
        })
        .expect("the fairness bound must be schedule-clean");
    assert!(stats.complete);
}

/// The pool's full spawn/drain/shutdown protocol: 2 workers over a
/// depth-1 queue, one job per lane, `finish`. Every schedule must run
/// both jobs, join both workers and return both results.
#[test]
fn pool_spawn_drain_shutdown_is_exhaustively_clean() {
    let stats = Checker::new()
        .check(|| {
            let pool: WorkerPool<Item, u32, McSync> =
                WorkerPool::start(2, ClassQueue::new(1, 4), |item: Item| item.value * 10);
            pool.submit(Item::latency(1)).unwrap();
            pool.submit(Item::throughput(2)).unwrap();
            let mut results = pool.finish();
            results.sort_unstable();
            assert_eq!(results, vec![10, 20], "every job ran exactly once");
        })
        .expect("the pool shutdown protocol must be schedule-clean");
    assert!(stats.complete);
}

/// Dropping the pool without `finish` (the abandoned-pool path) must
/// also terminate on every schedule: close unparks waiters, join
/// reclaims the workers.
#[test]
fn pool_drop_without_finish_is_exhaustively_clean() {
    let stats = Checker::new()
        .check(|| {
            let pool: WorkerPool<Item, u32, McSync> =
                WorkerPool::start(2, ClassQueue::new(1, 4), |item: Item| item.value + 1);
            pool.submit(Item::throughput(5)).unwrap();
            drop(pool);
        })
        .expect("abandoned-pool shutdown must be schedule-clean");
    assert!(stats.complete);
}

// --- Seeded-bug mutation -------------------------------------------------

/// The queue's park/close protocol with its `close` broadcast weakened
/// to `notify_one` — the exact mutation `ClassQueue::close`'s comment
/// warns about. The wait logic follows `class_queue.rs` with one lane:
/// the bug lives in `close`, not in the lane policy.
struct BuggyQueue {
    state: sync::Mutex<BuggyState>,
    not_empty: sync::Condvar,
}

struct BuggyState {
    items: VecDeque<u32>,
    closed: bool,
}

impl BuggyQueue {
    fn new() -> Self {
        Self {
            state: sync::Mutex::named(
                "buggy.state",
                BuggyState {
                    items: VecDeque::new(),
                    closed: false,
                },
            ),
            not_empty: sync::Condvar::named("buggy.not_empty"),
        }
    }

    fn pop(&self) -> Option<u32> {
        let guard = self.state.lock();
        let mut guard = self
            .not_empty
            .wait_while(guard, |s| s.items.is_empty() && !s.closed);
        guard.items.pop_front()
    }

    fn close(&self) {
        self.state.lock().closed = true;
        // MUTATION: the real queue broadcasts with notify_all here.
        // With two parked consumers only one observes the shutdown;
        // the other sleeps forever although its predicate is false.
        self.not_empty.notify_one();
    }
}

fn buggy_shutdown_model() {
    let queue = Arc::new(BuggyQueue::new());
    let consumers: Vec<_> = (0..2)
        .map(|_| {
            let queue = Arc::clone(&queue);
            sync::thread::spawn(move || {
                assert!(queue.pop().is_none(), "nothing was ever pushed");
            })
        })
        .collect();
    queue.close();
    for c in consumers {
        c.join().unwrap();
    }
}

#[test]
fn notify_one_close_mutation_is_flagged_as_lost_wakeup() {
    let report = Checker::new()
        .check(buggy_shutdown_model)
        .expect_err("the seeded notify_one bug must be found");

    // The failure is specifically a lost wakeup on the shutdown
    // condvar (not a misclassified deadlock: the starved consumer's
    // predicate is false, it *could* proceed if woken).
    match &report.failure {
        Failure::LostWakeup { condvar, .. } => {
            assert!(
                condvar.contains("buggy.not_empty"),
                "starved on the shutdown condvar, got: {condvar}"
            );
        }
        other => panic!("expected LostWakeup, got {other}"),
    }

    // The printed report carries the evidence: the weakened notify and
    // a consumer parked on the condvar.
    let printed = report.to_string();
    assert!(printed.contains("notify_one"), "trace names the bad notify");
    assert!(
        printed.contains("waits on"),
        "trace shows the parked waiter"
    );

    // And the schedule is replayable: parse it back out of its printed
    // form and reproduce the identical failure deterministically.
    let parsed: Schedule = report
        .schedule
        .to_string()
        .parse()
        .expect("printed schedule parses");
    assert_eq!(parsed, report.schedule);
    let replayed = Checker::new()
        .replay(&parsed, buggy_shutdown_model)
        .expect("replay must reproduce the failure");
    assert_eq!(replayed.failure, report.failure);
}
