//! Exit-code and `--json` schema contract test for the `bonsai-lint`
//! binary, across every mode: the default config pass, `--runtime`,
//! `--prove` and `--prove-selftest`.
//!
//! The contract under test (documented in the binary's `--help`):
//!
//! - exit 0: no error-severity diagnostics (warnings allowed),
//! - exit 1: at least one `BONxxx` error fired,
//! - exit 2: invalid command line,
//! - `--json` emits one JSON object with the same
//!   `{"targets": [...], "errors": N, "warnings": N}` schema in every
//!   mode — one serializer, no per-mode dialects.

use std::process::{Command, Output};

fn lint(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bonsai-lint"))
        .args(args)
        .output()
        .expect("bonsai-lint runs")
}

fn exit_code(out: &Output) -> i32 {
    out.status.code().expect("not signal-killed")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf8 stdout")
}

/// Asserts the `--json` output is one syntactically valid JSON object
/// carrying the shared schema keys. The strict JSON reader in
/// `bonsai_check::graph` doubles as the syntax validator: it parses the
/// text fully before rejecting it for lacking a `version` field.
fn assert_shared_json_schema(out: &Output) {
    let json = stdout(out);
    assert!(
        bonsai_check::graph::PipelineGraph::from_json(&json)
            .unwrap_err()
            .contains("version"),
        "must be syntactically valid JSON: {json}"
    );
    for key in [
        "\"targets\":",
        "\"status\":",
        "\"errors\":",
        "\"warnings\":",
    ] {
        assert!(json.contains(key), "missing {key}: {json}");
    }
}

#[test]
fn clean_invocations_exit_zero_in_every_mode() {
    for args in [
        &["--p", "4", "--l", "16"][..],
        &["--runtime", "--cores", "8"],
        &["--prove", "--p", "4", "--l", "16"],
    ] {
        let out = lint(args);
        assert_eq!(exit_code(&out), 0, "{args:?}: {}", stdout(&out));
    }
}

#[test]
fn error_findings_exit_one_in_every_mode() {
    for (args, code) in [
        (&["--p", "6", "--l", "16"][..], "BON001"),
        (
            &[
                "--runtime",
                "--queue-depth",
                "0",
                "--producers",
                "2",
                "--cores",
                "8",
            ],
            "BON050",
        ),
        (&["--prove", "--buffer-batches", "0"], "BON060"),
        (&["--prove", "--credit-slack", "2"], "BON061"),
        (&["--prove-selftest"], "BON063"),
        (&["--prove", "--assume-throughput", "1"], "BON064"),
    ] {
        let out = lint(args);
        assert_eq!(exit_code(&out), 1, "{args:?}: {}", stdout(&out));
        assert!(stdout(&out).contains(code), "{args:?}: {}", stdout(&out));
    }
}

#[test]
fn warnings_alone_keep_exit_zero() {
    // A 4-state budget cannot exhaust any net: BON062 is a warning.
    let out = lint(&["--prove", "--p", "4", "--l", "16", "--state-budget", "4"]);
    assert_eq!(exit_code(&out), 0, "{}", stdout(&out));
    assert!(stdout(&out).contains("BON062"), "{}", stdout(&out));
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &["--frobnicate"][..],
        &["--p"],                             // missing value
        &["--runtime", "--p", "4"],           // mixed modes
        &["--prove", "--runtime"],            // mixed modes
        &["--state-budget", "4"],             // prove flag without --prove
        &["--workers", "2"],                  // runtime flag without --runtime
        &["--runtime", "--dag-width", "8"],   // retired with BON056
        &["--runtime", "--detach"],           // retired with BON053
        &["--runtime", "--no-close-on-drop"], // retired with BON052
        // The adaptive scheduler's knobs are constants, not flags.
        &["--runtime", "--cache-shapes", "8"],
        &["--runtime", "--shape-classes", "2"],
        &["--runtime", "--reprogram-us", "200"],
        &["--runtime", "--deadline-us", "1000"],
        &["--runtime", "--fairness-stride", "4"],
        &["--prove", "--dump-graph", "dot"], // prove vs dump
        &["--prove", "--assume-throughput", "nan"],
    ] {
        let out = lint(args);
        assert_eq!(exit_code(&out), 2, "{args:?}");
    }
}

#[test]
fn json_schema_is_identical_across_all_modes() {
    for args in [
        &["--json", "--p", "6", "--l", "16"][..],
        &["--json", "--runtime", "--cores", "8"],
        &[
            "--json",
            "--runtime",
            "--queue-depth",
            "0",
            "--producers",
            "2",
            "--cores",
            "8",
        ],
        &["--json", "--prove", "--p", "4", "--l", "16"],
        &["--json", "--prove", "--buffer-batches", "0"],
        &["--json", "--prove-selftest"],
    ] {
        let out = lint(args);
        assert_shared_json_schema(&out);
    }
}

#[test]
fn json_counts_agree_with_exit_codes() {
    let clean = lint(&["--json", "--prove", "--p", "4", "--l", "16"]);
    assert_eq!(exit_code(&clean), 0);
    assert!(
        stdout(&clean).contains("\"errors\":0"),
        "{}",
        stdout(&clean)
    );

    let failing = lint(&["--json", "--prove", "--buffer-batches", "0"]);
    assert_eq!(exit_code(&failing), 1);
    assert!(
        stdout(&failing).contains("\"code\":\"BON060\""),
        "{}",
        stdout(&failing)
    );
    assert!(
        !stdout(&failing).contains("\"errors\":0"),
        "{}",
        stdout(&failing)
    );
}
