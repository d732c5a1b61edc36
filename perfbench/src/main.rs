//! `perfbench`: the measuring half of the repository benchmark.
//! `run.py` builds it, runs one subcommand per benchmark run and turns
//! its `RESULT` line into the benchmark's result.
//!
//! ```text
//! perfbench svc    --seed N --seconds S   svc_mixed, end to end
//! perfbench sim    --seed N --seconds S   sim_batch, end to end
//! perfbench layers --workload W --seed N --seconds S --out-dir D --spans F
//!                                         traced per-layer run
//! perfbench serve  --seed N               the svc_mixed server (child)
//! perfbench cli-prep  --seed N --dir D    writes the cli_extsort files
//! perfbench cli-check --expected E --output O
//!                                         classifies a wrong CLI output
//! ```

mod gen;
mod layers;
mod report;
mod sim;
mod svc;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::Outcome;

/// Environment variables that would switch the system onto another
/// execution path than the one measured.
const PINNED_ENV: [&str; 2] = [
    bonsai_runtime::SCHEDULER_ENV,
    bonsai_amt::REFERENCE_LOOP_ENV,
];

struct Args {
    command: String,
    seed: u64,
    seconds: f64,
    workload: String,
    dir: PathBuf,
    expected: PathBuf,
    output: PathBuf,
    spans: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("missing subcommand")?;
    let mut args = Args {
        command,
        seed: 1,
        seconds: 10.0,
        workload: String::new(),
        dir: PathBuf::new(),
        expected: PathBuf::new(),
        output: PathBuf::new(),
        spans: PathBuf::new(),
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--workload" => args.workload = value,
            "--dir" | "--out-dir" => args.dir = PathBuf::from(value),
            "--expected" => args.expected = PathBuf::from(value),
            "--output" => args.output = PathBuf::from(value),
            "--spans" => args.spans = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn print_result(label: &str, result: &report::RunResult) {
    println!("{}", result.tally.line(label));
    for m in &result.metrics {
        println!(
            "metric {:<34} {:>16.6} {:<14} samples={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("RESULT {}", result.to_json());
}

fn cli_prep(seed: u64, dir: &Path) -> Result<(), String> {
    let input = gen::cli_input(seed);
    let write = |name: &str, bytes: &[u8]| {
        std::fs::write(dir.join(name), bytes).map_err(|e| format!("write {name}: {e}"))
    };
    write("input.bin", &gen::to_bytes(&input))?;
    write("expected.bin", &gen::to_bytes(&report::expected(&input)))?;
    write("empty.bin", &[])?;
    println!("records {}", input.len());
    println!("mem_budget {}", gen::CLI_MEM_BUDGET);
    Ok(())
}

fn cli_check(expected: &Path, output: &Path) -> Result<(), String> {
    let read = |path: &Path| {
        std::fs::read(path)
            .ok()
            .and_then(|bytes| gen::from_bytes(&bytes))
            .ok_or_else(|| format!("cannot read records from {}", path.display()))
    };
    let expected = read(expected)?;
    let outcome = match read(output) {
        Ok(got) => report::check(&expected, &got),
        Err(_) => Outcome::Wrong,
    };
    println!(
        "{}",
        match outcome {
            Outcome::Ok => "ok",
            Outcome::TerminalRewrite => "terminal_rewrite",
            Outcome::Wrong => "wrong",
        }
    );
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    if let Some(var) = PINNED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        return Err(format!(
            "{var} is set; it would change the measured execution path"
        ));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    match args.command.as_str() {
        "svc" => print_result("svc_mixed", &svc::run(&exe, args.seed, args.seconds)?),
        "sim" => print_result("sim_batch", &sim::run(args.seed, args.seconds)?),
        "layers" => {
            let result = layers::run(
                &args.workload,
                args.seed,
                args.seconds,
                &args.dir,
                &args.spans,
            )?;
            print_result(&args.workload, &result);
        }
        "serve" => svc::serve(args.seed)?,
        "cli-prep" => cli_prep(args.seed, &args.dir)?,
        "cli-check" => cli_check(&args.expected, &args.output)?,
        other => return Err(format!("unknown subcommand {other}")),
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
