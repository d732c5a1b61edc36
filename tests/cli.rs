//! Hostile-input tests of the `bonsai sort` / `bonsai valsort` CLI.
//!
//! Every case writes a little-endian u32 file, sorts it through the
//! real binary, and checks the output byte for byte against the input
//! sorted in memory, then has `valsort` confirm it. Malformed input and
//! out-of-range flags must fail with exit 1 and an `error:` line, never
//! a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("bonsai-cli-test-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp dir");
        Self(dir)
    }

    fn path(&self, file: &str) -> PathBuf {
        self.0.join(file)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn bonsai(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bonsai"))
        .args(args)
        .output()
        .expect("run the bonsai binary")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

fn u32_bytes(keys: &[u32]) -> Vec<u8> {
    keys.iter().flat_map(|k| k.to_le_bytes()).collect()
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("utf-8 temp path")
}

/// Sorts `keys` through `bonsai sort` (plus `extra` flags), asserts the
/// output equals the input sorted and that `valsort` accepts it, and
/// returns the sort's stdout.
fn sort_and_check(name: &str, keys: &[u32], extra: &[&str]) -> String {
    let dir = TempDir::new(name);
    let (input, output) = (dir.path("in.bin"), dir.path("out.bin"));
    std::fs::write(&input, u32_bytes(keys)).expect("write input");

    let mut args = vec![
        "sort",
        "--format",
        "u32",
        "--in",
        path_str(&input),
        "--out",
        path_str(&output),
    ];
    args.extend_from_slice(extra);
    let sort = bonsai(&args);
    assert!(
        sort.status.success(),
        "{name}: sort failed: {}",
        text(&sort.stderr)
    );

    let mut expected = keys.to_vec();
    expected.sort_unstable();
    let got = std::fs::read(&output).expect("read output");
    assert!(
        got == u32_bytes(&expected),
        "{name}: output is not the input sorted ({} bytes, want {})",
        got.len(),
        expected.len() * 4
    );

    let check = bonsai(&["valsort", "--format", "u32", "--in", path_str(&output)]);
    assert!(
        check.status.success() && text(&check.stdout).contains("SORTED"),
        "{name}: valsort rejected the output: {}{}",
        text(&check.stdout),
        text(&check.stderr)
    );
    text(&sort.stdout)
}

/// A deterministic key stream (64-bit LCG, high word) for the cases
/// that need varied keys.
fn lcg_keys(n: usize, seed: u64) -> Vec<u32> {
    let mut state = seed;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 32) as u32
        })
        .collect()
}

#[test]
fn sort_output_is_the_input_sorted_on_hostile_inputs() {
    let n = 3000;
    let cases: Vec<(&str, Vec<u32>)> = vec![
        // 0 is the u32 record's terminal value.
        ("all_zero", vec![0; n]),
        (
            "alternating_zero",
            (0..n as u32)
                .map(|i| if i.is_multiple_of(2) { 0 } else { i })
                .collect(),
        ),
        (
            "duplicate_heavy",
            lcg_keys(n, 7).into_iter().map(|k| k % 4).collect(),
        ),
        ("presorted", (0..n as u32).collect()),
        ("reverse", (0..n as u32).rev().collect()),
        ("empty", Vec::new()),
        ("one_record", vec![42]),
    ];
    for (name, keys) in &cases {
        sort_and_check(name, keys, &[]);
    }
}

#[test]
fn small_budget_and_fan_in_two_run_several_merge_passes() {
    // 1000-byte budget = 250-record runs: 3000 records make 12 runs,
    // which a 2-way merge reduces in 4 passes (12 -> 6 -> 3 -> 2 -> 1).
    let mut keys = lcg_keys(3000, 11);
    for k in keys.iter_mut().step_by(5) {
        *k = 0;
    }
    let stdout = sort_and_check(
        "multi_pass",
        &keys,
        &["--mem-budget", "1KB", "--fan-in", "2"],
    );
    let passes: u32 = stdout
        .split(" merge passes")
        .next()
        .and_then(|head| head.rsplit(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no merge-pass count in {stdout:?}"));
    assert!(passes >= 2, "want at least 2 merge passes, got {passes}");
}

/// Asserts a clean usage failure: exit 1, an `error:` line, no panic.
fn assert_clean_failure(out: &Output, what: &str) {
    let stderr = text(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
    assert!(stderr.starts_with("error:"), "{what}: {stderr}");
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
}

#[test]
fn ragged_input_fails_without_writing_output() {
    let dir = TempDir::new("ragged");
    let (input, output) = (dir.path("in.bin"), dir.path("out.bin"));
    // 5 whole u32 records plus a 3-byte tail.
    std::fs::write(&input, [9u8; 23]).expect("write input");
    let out = bonsai(&[
        "sort",
        "--format",
        "u32",
        "--in",
        path_str(&input),
        "--out",
        path_str(&output),
    ]);
    assert_clean_failure(&out, "ragged input");
    assert!(!output.exists(), "a rejected input must write no output");
}

#[test]
fn out_of_range_sort_flags_fail_without_panicking() {
    let dir = TempDir::new("flags");
    let (input, output) = (dir.path("in.bin"), dir.path("out.bin"));
    std::fs::write(&input, u32_bytes(&[3, 1, 2])).expect("write input");
    for flags in [["--fan-in", "0"], ["--fan-in", "1"], ["--mem-budget", "0"]] {
        let mut args = vec![
            "sort",
            "--format",
            "u32",
            "--in",
            path_str(&input),
            "--out",
            path_str(&output),
        ];
        args.extend_from_slice(&flags);
        assert_clean_failure(&bonsai(&args), &flags.join(" "));
        assert!(!output.exists(), "{flags:?}: no output on a usage error");
    }
}
