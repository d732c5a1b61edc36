//! A real external merge sorter over files, structured exactly like the
//! paper's two-phase SSD sorter (§IV-C).
//!
//! Phase one reads the input in memory-budget-sized chunks, sorts each
//! with the AMT merge schedule, and writes sorted *run files* to a
//! scratch directory — the software image of "sort as much data as would
//! fit onto DRAM before sending the data back to SSD". Phase two
//! streams up to `fan_in` run files at a time through the functional
//! path's 2-way merge tree ([`functional::Merger`]) into longer runs
//! until one remains — one "SSD round trip" per pass, with the same
//! `ceil(log_fan_in(runs))` pass count the paper's model uses.
//!
//! All file I/O moves whole blocks of 64 KiB, so phase two
//! holds two such blocks (raw and decoded) per open run file.

use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bonsai_amt::functional::{self, Merger, RunSource};
use bonsai_records::wire::WireRecord;

/// Bytes per file read or write.
const IO_BLOCK: usize = 64 << 10;

/// Numbers the scratch subdirectories of this process's sorts.
static NEXT_SCRATCH: AtomicU64 = AtomicU64::new(0);

/// Statistics from one external sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExternalSortStats {
    /// Records sorted.
    pub records: u64,
    /// Sorted run files produced by phase one.
    pub initial_runs: u64,
    /// Merge passes executed in phase two.
    pub merge_passes: u32,
    /// Total bytes written to scratch + output (write amplification
    /// numerator; the paper's per-stage round-trip accounting).
    pub bytes_written: u64,
}

/// Configuration of the external sorter.
#[derive(Debug, Clone)]
pub struct ExternalSorter {
    /// In-memory chunk budget in bytes (the "DRAM capacity").
    mem_budget_bytes: usize,
    /// Merge fan-in per pass (the phase-two `ℓ`; 256 in the paper).
    fan_in: usize,
    /// Directory under which each sort makes its own run-file directory.
    scratch_dir: PathBuf,
}

impl ExternalSorter {
    /// Creates an external sorter with the given memory budget, keeping
    /// run files under the system temp directory.
    ///
    /// # Panics
    ///
    /// Panics if `mem_budget_bytes` is zero or `fan_in < 2`.
    pub fn new(mem_budget_bytes: usize, fan_in: usize) -> Self {
        assert!(mem_budget_bytes > 0, "memory budget must be positive");
        assert!(fan_in >= 2, "merge fan-in must be at least 2");
        Self {
            mem_budget_bytes,
            fan_in,
            scratch_dir: std::env::temp_dir(),
        }
    }

    /// Overrides the directory under which each sort creates, and then
    /// removes, its own run-file subdirectory; nothing else in `dir` is
    /// touched.
    #[must_use]
    pub fn with_scratch_dir(mut self, dir: PathBuf) -> Self {
        self.scratch_dir = dir;
        self
    }

    /// Sorts the wire-format record file `input` into `output`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; fails with `InvalidData`, before writing
    /// anything, when the file length is not a multiple of the record
    /// width.
    pub fn sort_file<R: WireRecord>(
        &self,
        input: &Path,
        output: &Path,
    ) -> io::Result<ExternalSortStats> {
        let mut input = BlockReader::<R>::open(input)?;
        fs::create_dir_all(&self.scratch_dir)?;
        let scratch = self.make_scratch_subdir()?;
        let result = self.sort_file_inner(&mut input, &scratch, output);
        let _ = fs::remove_dir_all(&scratch);
        result
    }

    /// Creates a subdirectory of the scratch directory that no other sort,
    /// in this process or another, uses.
    fn make_scratch_subdir(&self) -> io::Result<PathBuf> {
        loop {
            // Relaxed: the counter only has to hand out distinct values; it
            // publishes no other data.
            let n = NEXT_SCRATCH.fetch_add(1, Ordering::Relaxed);
            let dir = self
                .scratch_dir
                .join(format!("bonsai-external-{}-{n}", std::process::id()));
            match fs::create_dir(&dir) {
                Ok(()) => return Ok(dir),
                // Left behind by an earlier process with this pid.
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn sort_file_inner<R: WireRecord>(
        &self,
        input: &mut BlockReader<R>,
        scratch: &Path,
        output: &Path,
    ) -> io::Result<ExternalSortStats> {
        let chunk_records = (self.mem_budget_bytes / R::WIRE_BYTES).max(1);
        // The in-memory AMT has a power-of-two leaf count: the widest tree
        // not wider than the phase-two fan-in.
        let leaves = 1 << self.fan_in.ilog2();
        let mut stats = ExternalSortStats {
            records: 0,
            initial_runs: 0,
            merge_passes: 0,
            bytes_written: 0,
        };

        // Phase one: chunk -> AMT schedule sort in memory -> run file.
        let mut runs: Vec<PathBuf> = Vec::new();
        while input.unread > 0 {
            let mut chunk = Vec::with_capacity(chunk_records.min(input.unread));
            input.read_records(chunk_records, &mut chunk)?;
            stats.records += chunk.len() as u64;
            let (sorted, _) = functional::sort_balanced(chunk, leaves, 16);
            let path = scratch.join(format!("run-0-{}.bin", runs.len()));
            stats.bytes_written += write_run(&path, &sorted)?;
            runs.push(path);
        }
        stats.initial_runs = runs.len() as u64;
        if runs.is_empty() {
            File::create(output)?;
            return Ok(stats);
        }

        // Phase two: repeated fan-in-way merge passes over run files.
        let mut pass = 1;
        while runs.len() > 1 {
            let mut next: Vec<PathBuf> = Vec::new();
            for (g, group) in runs.chunks(self.fan_in).enumerate() {
                let path = scratch.join(format!("run-{pass}-{g}.bin"));
                stats.bytes_written += merge_run_files::<R>(group, &path)?;
                next.push(path);
            }
            for old in &runs {
                let _ = fs::remove_file(old);
            }
            runs = next;
            stats.merge_passes += 1;
            pass += 1;
        }
        fs::rename(&runs[0], output).or_else(|_| fs::copy(&runs[0], output).map(|_| ()))?;
        Ok(stats)
    }
}

/// A wire-format record file read [`IO_BLOCK`] bytes at a time.
struct BlockReader<R> {
    file: File,
    /// Records not yet read.
    unread: usize,
    bytes: Vec<u8>,
    _marker: core::marker::PhantomData<R>,
}

impl<R: WireRecord> BlockReader<R> {
    /// Opens `path`, failing with `InvalidData` when its length is not a
    /// whole number of records.
    fn open(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len % R::WIRE_BYTES as u64 != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "file length is not a multiple of the record width",
            ));
        }
        let unread = usize::try_from(len / R::WIRE_BYTES as u64)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large"))?;
        Ok(Self {
            file,
            unread,
            bytes: Vec::new(),
            _marker: core::marker::PhantomData,
        })
    }

    /// Appends the next `n` records (fewer at the end of the file) to
    /// `out`.
    fn read_records(&mut self, n: usize, out: &mut Vec<R>) -> io::Result<()> {
        let mut left = n.min(self.unread);
        self.unread -= left;
        while left > 0 {
            let take = left.min(IO_BLOCK / R::WIRE_BYTES);
            self.bytes.resize(take * R::WIRE_BYTES, 0);
            self.file.read_exact(&mut self.bytes)?;
            out.extend(self.bytes.chunks_exact(R::WIRE_BYTES).map(R::read_from));
            left -= take;
        }
        Ok(())
    }
}

/// One sorted run file of a phase-two merge, read a block at a time.
struct RunFile<R> {
    reader: BlockReader<R>,
    /// `block[head..]` is the window.
    block: Vec<R>,
    head: usize,
}

impl<R: WireRecord> RunSource<R> for RunFile<R> {
    type Error = io::Error;

    fn window(&self) -> &[R] {
        &self.block[self.head..]
    }

    fn consume(&mut self, n: usize) {
        self.head += n;
    }

    fn refill(&mut self) -> io::Result<()> {
        self.block.clear();
        self.head = 0;
        self.reader
            .read_records(IO_BLOCK / R::WIRE_BYTES, &mut self.block)
    }
}

/// Writes `records` to `w` in [`IO_BLOCK`]-byte writes, encoding through
/// `bytes`; returns the bytes written.
fn write_records<R: WireRecord>(
    w: &mut File,
    records: &[R],
    bytes: &mut Vec<u8>,
) -> io::Result<u64> {
    for block in records.chunks(IO_BLOCK / R::WIRE_BYTES) {
        bytes.clear();
        bytes.resize(block.len() * R::WIRE_BYTES, 0);
        for (rec, buf) in block.iter().zip(bytes.chunks_exact_mut(R::WIRE_BYTES)) {
            rec.write_to(buf);
        }
        w.write_all(bytes)?;
    }
    Ok((records.len() * R::WIRE_BYTES) as u64)
}

fn write_run<R: WireRecord>(path: &Path, records: &[R]) -> io::Result<u64> {
    write_records(&mut File::create(path)?, records, &mut Vec::new())
}

/// Streams the merge of sorted run files into `output` (one phase-two
/// "stage" on the 2-way merge tree); returns the bytes written.
fn merge_run_files<R: WireRecord>(inputs: &[PathBuf], output: &Path) -> io::Result<u64> {
    let runs = inputs
        .iter()
        .map(|p| {
            Ok(RunFile {
                reader: BlockReader::open(p)?,
                block: Vec::new(),
                head: 0,
            })
        })
        .collect::<io::Result<Vec<_>>>()?;
    let mut merger = Merger::new(runs);
    let mut out = File::create(output)?;
    let mut block = vec![R::TERMINAL; IO_BLOCK / R::WIRE_BYTES];
    let mut bytes = Vec::new();
    let mut written = 0;
    loop {
        let n = merger.fill(&mut block)?;
        if n == 0 {
            return Ok(written);
        }
        written += write_records(&mut out, &block[..n], &mut bytes)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bonsai_gensort::dist::{uniform_u32, Distribution};
    use bonsai_gensort::io::write_wire_file;
    use bonsai_records::run::stages_needed;
    use bonsai_records::U32Rec;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "bonsai-external-test-{name}-{}",
            std::process::id()
        ));
        p
    }

    fn wire_bytes(records: &[U32Rec]) -> Vec<u8> {
        records.iter().flat_map(|r| r.0.to_le_bytes()).collect()
    }

    /// Sorts `data` through a file with `sorter` and checks the output
    /// file byte for byte against `sort_unstable`.
    fn check_sort(data: &[U32Rec], sorter: &ExternalSorter, name: &str) -> ExternalSortStats {
        let input = tmp(&format!("{name}-in"));
        let output = tmp(&format!("{name}-out"));
        write_wire_file(&input, data).expect("write input");
        let stats = sorter.sort_file::<U32Rec>(&input, &output).expect("sort");
        let mut expected = data.to_vec();
        expected.sort_unstable();
        let got = fs::read(&output).expect("read output");
        assert!(got == wire_bytes(&expected), "{name}: output differs");
        assert_eq!(stats.records, data.len() as u64);
        fs::remove_file(&input).ok();
        fs::remove_file(&output).ok();
        stats
    }

    /// Like [`check_sort`], with a scratch dir of its own that the sort
    /// must leave empty.
    fn check_sort_in_scratch(
        data: &[U32Rec],
        budget: usize,
        fan_in: usize,
        name: &str,
    ) -> ExternalSortStats {
        let scratch = tmp(&format!("{name}-scratch"));
        let sorter = ExternalSorter::new(budget, fan_in).with_scratch_dir(scratch.clone());
        let stats = check_sort(data, &sorter, name);
        fs::remove_dir(&scratch).expect("the sort leaves its scratch dir empty");
        stats
    }

    fn run_case(n: usize, budget: usize, fan_in: usize, name: &str) -> ExternalSortStats {
        check_sort_in_scratch(&uniform_u32(n, n as u64 + 1), budget, fan_in, name)
    }

    #[test]
    fn sorts_with_many_runs_and_multiple_passes() {
        // 50k records at 4 B, 8 KB budget -> 25 runs; fan-in 4 -> 3 passes.
        let stats = run_case(50_000, 8 * 1024, 4, "multi");
        assert_eq!(stats.initial_runs, 25);
        assert_eq!(stats.merge_passes, 3); // 25 -> 7 -> 2 -> 1
        assert_eq!(stats.records, 50_000);
    }

    #[test]
    fn single_chunk_skips_phase_two() {
        let stats = run_case(1_000, 1 << 20, 256, "single");
        assert_eq!(stats.initial_runs, 1);
        assert_eq!(stats.merge_passes, 0);
    }

    #[test]
    fn wide_fan_in_single_pass() {
        let stats = run_case(60_000, 4 * 1024, 256, "wide");
        assert_eq!(stats.initial_runs, 59);
        assert_eq!(stats.merge_passes, 1);
    }

    #[test]
    fn streamed_phase_two_matches_sort_unstable() {
        let block = IO_BLOCK / 4; // u32 records per read block
        let cases = [
            // (name, data, run length in records, fan-in)
            ("short-f3", uniform_u32(10_000, 31), 1_000, 3),
            (
                "long-f5",
                uniform_u32(26 * (block + 300), 32),
                block + 300,
                5,
            ),
            ("long-f3", uniform_u32(7 * 3 * block, 33), 3 * block, 3),
            ("zeros-f3", vec![U32Rec::new(0); 30_000], 1_024, 3),
            (
                "dups-f5",
                Distribution::FewDistinct(3).generate_u32(60_000, 34),
                2_000,
                5,
            ),
        ];
        for (name, data, run_len, fan_in) in cases {
            let stats = check_sort_in_scratch(&data, run_len * 4, fan_in, name);
            let runs = data.len().div_ceil(run_len) as u64;
            assert_eq!(stats.initial_runs, runs, "{name}");
            assert_eq!(
                stats.merge_passes,
                stages_needed(runs, fan_in as u64),
                "{name}"
            );
            assert!(stats.merge_passes >= 2, "{name}: several passes");
        }
    }

    #[test]
    fn caller_files_in_the_scratch_dir_survive() {
        let scratch = tmp("owned-scratch");
        fs::create_dir_all(&scratch).expect("scratch dir");
        let sentinel = scratch.join("keep.txt");
        fs::write(&sentinel, b"caller data").expect("sentinel");
        let sorter = ExternalSorter::new(4 * 1024, 4).with_scratch_dir(scratch.clone());
        check_sort(&uniform_u32(20_000, 35), &sorter, "owned");
        assert_eq!(fs::read(&sentinel).expect("sentinel kept"), b"caller data");
        let left: Vec<_> = fs::read_dir(&scratch)
            .expect("scratch dir kept")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(left, ["keep.txt"], "only the caller's file is left");
        fs::remove_dir_all(&scratch).ok();
    }

    #[test]
    fn concurrent_default_sorts_do_not_share_run_files() {
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let start = &start;
                s.spawn(move || {
                    let data = uniform_u32(100_000, 40 + t);
                    start.wait();
                    check_sort(
                        &data,
                        &ExternalSorter::new(8 * 1024, 4),
                        &format!("conc{t}"),
                    );
                });
            }
        });
    }

    #[test]
    fn empty_input_produces_empty_output() {
        let input = tmp("empty-in");
        let output = tmp("empty-out");
        fs::write(&input, []).expect("write");
        let scratch = tmp("empty-scratch");
        let sorter = ExternalSorter::new(1024, 4).with_scratch_dir(scratch.clone());
        let stats = sorter.sort_file::<U32Rec>(&input, &output).expect("sort");
        fs::remove_dir(&scratch).expect("the sort leaves its scratch dir empty");
        assert_eq!(stats.records, 0);
        assert_eq!(fs::metadata(&output).expect("exists").len(), 0);
        fs::remove_file(&input).ok();
        fs::remove_file(&output).ok();
    }

    #[test]
    fn ragged_input_fails_before_writing_output() {
        // 5 whole u32 records plus a 3-byte tail.
        let input = tmp("ragged-in");
        let output = tmp("ragged-out");
        let scratch = tmp("ragged-scratch");
        fs::write(&input, [7u8; 23]).expect("write");
        let sorter = ExternalSorter::new(1024, 4).with_scratch_dir(scratch.clone());
        let err = sorter
            .sort_file::<U32Rec>(&input, &output)
            .expect_err("a ragged tail must not be dropped silently");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!output.exists(), "no output on a rejected input");
        assert!(!scratch.exists(), "no scratch files on a rejected input");
        fs::remove_file(&input).ok();
    }

    #[test]
    fn write_amplification_matches_pass_count() {
        // Each pass rewrites all data once: bytes_written =
        // (1 + merge_passes) * records * width.
        let stats = run_case(20_000, 4 * 1024, 4, "amp");
        let expected = (1 + stats.merge_passes as u64) * stats.records * 4;
        assert_eq!(stats.bytes_written, expected);
    }
}
