//! Fast functional execution of the AMT merge schedule.
//!
//! The cycle-approximate [`SimEngine`](crate::SimEngine) is the reference
//! for timing; this module executes the *same* merge schedule (presort,
//! then `ceil(log_ℓ)` stages of `ℓ`-way merges) in software, producing
//! bit-identical output orders of magnitude faster. Every `ℓ`-way merge
//! runs on a [`Merger`]: a balanced binary tree of 2-way merger nodes,
//! the software image of the AMT itself, each internal node passing
//! records up in small blocks. The sorters crate uses it for
//! gigabyte-scale data and pairs it with the analytic performance model
//! for timing.

use std::convert::Infallible;

use bonsai_records::run::RunSet;
use bonsai_records::Record;

/// Records an internal merger node buffers per refill: a 256-leaf tree of
/// 4-byte records keeps all its blocks (~256 KiB) in L2, and a refill of
/// this many records amortizes the walk down to the node's children.
const BLOCK: usize = 256;

/// A sorted run that a [`Merger`] reads one block at a time.
///
/// The merger only ever looks at the current [`window`](Self::window),
/// marks a prefix of it merged with [`consume`](Self::consume), and calls
/// [`refill`](Self::refill) once the window is empty. An in-memory run
/// (`&[R]`) is its own window and never fails; a file-backed run reads
/// its next block on refill and returns the read's error.
pub trait RunSource<R> {
    /// Error a refill can return.
    type Error;

    /// Records read but not yet merged, in sorted order.
    fn window(&self) -> &[R];

    /// Marks the first `n` records of the window merged.
    fn consume(&mut self, n: usize);

    /// Loads the next block once the window is empty; leaves the window
    /// empty at the end of the run.
    ///
    /// # Errors
    ///
    /// Whatever reading the next block fails with.
    fn refill(&mut self) -> Result<(), Self::Error>;
}

impl<R> RunSource<R> for &[R] {
    type Error = Infallible;

    fn window(&self) -> &[R] {
        self
    }

    fn consume(&mut self, n: usize) {
        *self = &self[n..];
    }

    fn refill(&mut self) -> Result<(), Infallible> {
        Ok(())
    }
}

/// A `k`-way merge as a balanced binary tree of 2-way merger nodes over
/// `k` sorted runs — the shape of the AMT, and FLiMS's point that simple
/// 2-way mergers in a tree beat one `k`-way selector.
///
/// The first half of the runs (rounded up) goes to the left subtree, and
/// a tie between the two children of a node goes to the left one, so
/// equal records leave in run-index order. Each internal node below the
/// root buffers up to a fixed block of merged records; the root merges
/// straight into the caller's buffer.
///
/// # Example
///
/// ```
/// use bonsai_amt::functional::Merger;
/// use bonsai_records::U32Rec;
///
/// let a = [1u32, 4].map(U32Rec::new);
/// let b = [2u32, 3].map(U32Rec::new);
/// let mut merger = Merger::new(vec![&a[..], &b[..]]);
/// let mut out = [U32Rec::new(0); 3];
/// let Ok(n) = merger.fill(&mut out);
/// assert_eq!((n, out), (3, [1u32, 2, 3].map(U32Rec::new)));
/// ```
#[derive(Debug)]
pub struct Merger<R, L> {
    root: Option<Node<R, L>>,
}

#[derive(Debug)]
enum Node<R, L> {
    Leaf(L),
    Merge(Box<Merge<R, L>>),
}

#[derive(Debug)]
struct Merge<R, L> {
    left: Node<R, L>,
    right: Node<R, L>,
    /// `block[head..len]` is this node's window.
    block: Vec<R>,
    head: usize,
    len: usize,
    /// Both children are exhausted; refilling yields nothing more.
    done: bool,
}

impl<R: Record, L: RunSource<R>> Merger<R, L> {
    /// Builds the tree over `runs` (each must be sorted).
    pub fn new(runs: Vec<L>) -> Self {
        Self {
            root: Node::build(runs, 0),
        }
    }

    /// Writes the next merged records into `out` and returns how many;
    /// fewer than `out.len()` only once every run is exhausted.
    ///
    /// # Errors
    ///
    /// The first error a run's refill returns; the merge cannot go on
    /// after it.
    pub fn fill(&mut self, out: &mut [R]) -> Result<usize, L::Error> {
        match &mut self.root {
            None => Ok(0),
            Some(Node::Merge(m)) => merge_into(&mut m.left, &mut m.right, out),
            Some(leaf) => copy_into(leaf, out),
        }
    }

    /// Points the tree at `runs`, which must number as many as the runs
    /// it was built over, reusing its blocks.
    fn reset(&mut self, runs: Vec<L>) {
        let mut runs = runs.into_iter();
        if let Some(root) = &mut self.root {
            root.reset(&mut runs);
        }
        debug_assert!(runs.next().is_none(), "reset with more runs than leaves");
    }
}

impl<R: Record, L: RunSource<R>> Node<R, L> {
    fn build(mut runs: Vec<L>, block_len: usize) -> Option<Self> {
        if runs.len() <= 1 {
            return runs.pop().map(Node::Leaf);
        }
        let right = runs.split_off(runs.len().div_ceil(2));
        Some(Node::Merge(Box::new(Merge {
            left: Self::build(runs, BLOCK)?,
            right: Self::build(right, BLOCK)?,
            block: vec![R::TERMINAL; block_len],
            head: 0,
            len: 0,
            done: false,
        })))
    }

    fn reset(&mut self, runs: &mut std::vec::IntoIter<L>) {
        match self {
            Node::Leaf(run) => {
                if let Some(next) = runs.next() {
                    *run = next;
                }
            }
            Node::Merge(m) => {
                m.head = 0;
                m.len = 0;
                m.done = false;
                m.left.reset(runs);
                m.right.reset(runs);
            }
        }
    }

    fn window(&self) -> &[R] {
        match self {
            Node::Leaf(run) => run.window(),
            Node::Merge(m) => &m.block[m.head..m.len],
        }
    }

    fn consume(&mut self, n: usize) {
        match self {
            Node::Leaf(run) => run.consume(n),
            Node::Merge(m) => m.head += n,
        }
    }

    /// Refills an empty window; an empty window afterwards means the
    /// subtree is exhausted.
    fn refill(&mut self) -> Result<(), L::Error> {
        match self {
            Node::Leaf(run) => run.refill(),
            Node::Merge(m) => {
                if !m.done {
                    let n = merge_into(&mut m.left, &mut m.right, &mut m.block)?;
                    m.head = 0;
                    m.len = n;
                    // `merge_into` stops short only when both children are
                    // exhausted.
                    m.done = n < m.block.len();
                }
                Ok(())
            }
        }
    }

    /// Returns `false` once the subtree is exhausted.
    fn has_records(&mut self) -> Result<bool, L::Error> {
        if self.window().is_empty() {
            self.refill()?;
        }
        Ok(!self.window().is_empty())
    }
}

/// Merges `left` and `right` into `out` until `out` is full or both are
/// exhausted; returns the records written.
fn merge_into<R: Record, L: RunSource<R>>(
    left: &mut Node<R, L>,
    right: &mut Node<R, L>,
    out: &mut [R],
) -> Result<usize, L::Error> {
    let mut n = 0;
    while n < out.len() {
        if !left.has_records()? {
            return Ok(n + copy_into(right, &mut out[n..])?);
        }
        if !right.has_records()? {
            return Ok(n + copy_into(left, &mut out[n..])?);
        }
        let (from_left, from_right) = merge2(left.window(), right.window(), &mut out[n..]);
        left.consume(from_left);
        right.consume(from_right);
        n += from_left + from_right;
    }
    Ok(n)
}

/// Copies `node`'s records into `out` until `out` is full or the node is
/// exhausted; returns the records written.
fn copy_into<R: Record, L: RunSource<R>>(
    node: &mut Node<R, L>,
    out: &mut [R],
) -> Result<usize, L::Error> {
    let mut n = 0;
    while n < out.len() && node.has_records()? {
        let window = node.window();
        let m = window.len().min(out.len() - n);
        out[n..n + m].copy_from_slice(&window[..m]);
        node.consume(m);
        n += m;
    }
    Ok(n)
}

/// Branch-light 2-way merge of `a` and `b` into `out` until one of the
/// three runs out; a tie takes from `a`. Returns how many records came
/// from `a` and from `b`.
fn merge2<R: Ord + Copy>(a: &[R], b: &[R], out: &mut [R]) -> (usize, usize) {
    let (mut i, mut j) = (0, 0);
    loop {
        // Each step takes exactly one record, so `steps` steps stay inside
        // all three slices with no exhaustion test in the loop body.
        let steps = (a.len() - i).min(b.len() - j).min(out.len() - i - j);
        if steps == 0 {
            return (i, j);
        }
        // The two heads stay in registers and the record behind each is
        // loaded a step early, so a compare never waits on a load from the
        // cursor it just moved. The batch's last step loads nothing: the
        // record behind a head may lie past the end of its run.
        let (mut x, mut y) = (a[i], b[j]);
        for _ in 1..steps {
            let (next_x, next_y) = (a[i + 1], b[j + 1]);
            let take_b = y < x;
            out[i + j] = if take_b { y } else { x };
            i += usize::from(!take_b);
            j += usize::from(take_b);
            x = if take_b { x } else { next_x };
            y = if take_b { next_y } else { y };
        }
        let take_b = y < x;
        out[i + j] = if take_b { y } else { x };
        i += usize::from(!take_b);
        j += usize::from(take_b);
    }
}

/// Merges `k` sorted runs into one sorted vector on a [`Merger`]; equal
/// records leave in run-index order.
///
/// # Example
///
/// ```
/// use bonsai_amt::functional::kway_merge;
/// use bonsai_records::U32Rec;
///
/// let a = [1u32, 4].map(U32Rec::new);
/// let b = [2u32, 3].map(U32Rec::new);
/// let merged = kway_merge(&[&a, &b]);
/// assert_eq!(merged, [1u32, 2, 3, 4].map(U32Rec::new).to_vec());
/// ```
pub fn kway_merge<R: Record>(runs: &[&[R]]) -> Vec<R> {
    let mut out = vec![R::TERMINAL; runs.iter().map(|r| r.len()).sum()];
    let Ok(_) = Merger::new(runs.to_vec()).fill(&mut out);
    out
}

/// Executes one merge stage: every group of `fan_in` consecutive runs is
/// merged into one run, exactly as the AMT does with `ℓ = fan_in`. Each
/// group streams straight into the stage's output, and groups of equal
/// size share one tree.
///
/// # Panics
///
/// Panics if `fan_in < 2`.
pub fn merge_pass<R: Record>(runs: &RunSet<R>, fan_in: usize) -> RunSet<R> {
    assert!(fan_in >= 2, "merge fan-in must be at least 2");
    if runs.num_runs() <= 1 {
        return RunSet::single_run(runs.records().to_vec());
    }
    let mut records = vec![R::TERMINAL; runs.len()];
    let mut starts = Vec::with_capacity(runs.num_runs().div_ceil(fan_in));
    let mut tree: Option<(usize, Merger<R, &[R]>)> = None;
    let mut at = 0;
    for first in (0..runs.num_runs()).step_by(fan_in) {
        let group: Vec<&[R]> = (first..(first + fan_in).min(runs.num_runs()))
            .map(|j| runs.run(j))
            .collect();
        let merger = match &mut tree {
            Some((k, merger)) if *k == group.len() => {
                merger.reset(group);
                merger
            }
            _ => {
                let k = group.len();
                &mut tree.insert((k, Merger::new(group))).1
            }
        };
        starts.push(at);
        let Ok(n) = merger.fill(&mut records[at..]);
        at += n;
    }
    RunSet::from_parts(records, starts)
}

/// Sorts `data` with the AMT merge schedule: presort into
/// `initial_run_len`-record runs, then `ℓ`-way merge stages until one
/// run remains. Returns the sorted data and the number of merge stages
/// executed (the `ceil(log_ℓ(N / a))` of Equation 1).
///
/// # Panics
///
/// Panics if `fan_in < 2` or `initial_run_len == 0`.
pub fn sort<R: Record>(data: Vec<R>, fan_in: usize, initial_run_len: usize) -> (Vec<R>, u32) {
    assert!(initial_run_len >= 1, "initial run length must be positive");
    if data.len() <= 1 {
        return (data, 0);
    }
    let mut runs = RunSet::from_chunks(data, initial_run_len);
    let mut stages = 0u32;
    while runs.num_runs() > 1 {
        runs = merge_pass(&runs, fan_in);
        stages += 1;
    }
    (runs.into_records(), stages)
}

/// Like [`sort`], but with the balanced per-stage fan-in schedule of
/// [`crate::schedule::fan_in_schedule`] on an `ℓ`-leaf tree — exactly
/// the schedule the cycle-approximate [`crate::SimEngine`] executes, so
/// outputs and stage counts match it bit for bit.
///
/// # Panics
///
/// Panics if `l < 2` or `initial_run_len == 0`.
pub fn sort_balanced<R: Record>(data: Vec<R>, l: usize, initial_run_len: usize) -> (Vec<R>, u32) {
    assert!(initial_run_len >= 1, "initial run length must be positive");
    if data.len() <= 1 {
        return (data, 0);
    }
    let mut runs = RunSet::from_chunks(data, initial_run_len);
    let fan_ins = crate::schedule::fan_in_schedule(runs.num_runs() as u64, l as u64);
    let stages = fan_ins.len() as u32;
    for &m in &fan_ins {
        runs = merge_pass(&runs, m as usize);
    }
    (runs.into_records(), stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_gensort::dist::{uniform_u32, uniform_u64, Distribution};
    use bonsai_records::run::stages_needed;
    use bonsai_records::{U32Rec, U64Rec};

    #[test]
    fn kway_merge_of_empty_and_nonempty_runs() {
        let a: Vec<U32Rec> = vec![];
        let b = [5u32, 6].map(U32Rec::new);
        let c = [1u32].map(U32Rec::new);
        let out = kway_merge(&[&a, &b, &c]);
        assert_eq!(out, [1u32, 5, 6].map(U32Rec::new).to_vec());
    }

    /// A run of ones that fails its first refill.
    struct Failing {
        window: Vec<U32Rec>,
    }

    impl RunSource<U32Rec> for Failing {
        type Error = &'static str;

        fn window(&self) -> &[U32Rec] {
            &self.window
        }

        fn consume(&mut self, n: usize) {
            self.window.drain(..n);
        }

        fn refill(&mut self) -> Result<(), &'static str> {
            Err("read failed")
        }
    }

    #[test]
    fn refill_errors_reach_the_caller() {
        for runs in [1, 2, 5] {
            let sources = (0..runs)
                .map(|_| Failing {
                    window: vec![U32Rec::new(1); BLOCK],
                })
                .collect();
            let mut out = vec![U32Rec::new(0); runs * 2 * BLOCK];
            assert_eq!(
                Merger::new(sources).fill(&mut out),
                Err("read failed"),
                "{runs} runs"
            );
        }
    }

    #[test]
    fn kway_merge_no_runs() {
        let out: Vec<U32Rec> = kway_merge(&[]);
        assert!(out.is_empty());
    }

    #[test]
    fn sort_matches_std_sort_u32() {
        let data = uniform_u32(100_000, 21);
        let mut expected: Vec<U32Rec> = data.clone();
        expected.sort_unstable();
        let (out, _) = sort(data, 16, 16);
        assert_eq!(out, expected);
    }

    #[test]
    fn sort_matches_std_sort_u64_various_fanins() {
        let data = uniform_u64(10_000, 22);
        let mut expected: Vec<U64Rec> = data.clone();
        expected.sort_unstable();
        for fan_in in [2, 4, 64, 256] {
            let (out, _) = sort(data.clone(), fan_in, 1);
            assert_eq!(out, expected, "fan_in = {fan_in}");
        }
    }

    #[test]
    fn stage_count_matches_formula() {
        for (n, fan_in, presort) in [
            (100_000usize, 16usize, 16usize),
            (4096, 4, 1),
            (5000, 256, 16),
        ] {
            let data = uniform_u32(n, 23);
            let (_, stages) = sort(data, fan_in, presort);
            let runs0 = (n as u64).div_ceil(presort as u64);
            assert_eq!(stages, stages_needed(runs0, fan_in as u64), "n={n}");
        }
    }

    #[test]
    fn duplicate_heavy_input_is_stable_under_schedule() {
        let data = Distribution::FewDistinct(2).generate_u32(50_000, 24);
        let (out, _) = sort(data.clone(), 8, 16);
        let mut expected = data;
        expected.sort_unstable();
        assert_eq!(out, expected);
    }

    #[test]
    fn merge_pass_groups_runs() {
        let data = uniform_u32(1000, 25);
        let runs = RunSet::from_chunks(data, 10); // 100 runs
        let next = merge_pass(&runs, 16);
        assert_eq!(next.num_runs(), 7); // ceil(100/16)
        assert!(next.validate().is_ok());
        assert_eq!(next.len(), 1000);
    }
}
