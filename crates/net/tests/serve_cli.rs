//! Command-line errors of the `bonsai-serve` binary: a bad flag or an
//! invalid AMT shape must print a `bonsai-serve:` line and exit 1
//! before binding, never panic.

use std::process::{Command, Output};

fn serve(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bonsai-serve"))
        .args(args)
        .output()
        .expect("run the bonsai-serve binary")
}

fn assert_usage_error(args: &[&str], codes: &[&str]) {
    let out = serve(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(stderr.starts_with("bonsai-serve: "), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    for code in codes {
        assert!(
            stderr.contains(code),
            "{args:?} must report {code}: {stderr}"
        );
    }
    assert!(out.stdout.is_empty(), "{args:?} must not start listening");
}

#[test]
fn invalid_amt_shapes_exit_one_with_their_codes() {
    assert_usage_error(&["--amt-p", "6"], &["BON001"]);
    assert_usage_error(&["--amt-l", "1"], &["BON002"]);
    assert_usage_error(&["--amt-p", "3", "--amt-l", "12"], &["BON001", "BON002"]);
}

#[test]
fn malformed_flags_exit_one() {
    assert_usage_error(&["--frobnicate"], &[]);
    assert_usage_error(&["--workers", "many"], &[]);
    assert_usage_error(&["--amt-p"], &[]);
}
