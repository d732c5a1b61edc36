#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload svc_mixed --seed 1 --seconds 35 --trace 0

Run from the root of a checkout. Builds the `perfbench` measuring binary
(perfbench/Cargo.toml) and the `bonsai` CLI from source into
$CARGO_TARGET_DIR (default .bench_build), runs the workload, checks every
output against its raw input sorted, prints a report and, as the last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end_to_end metrics of BENCHMARK.json, with
--trace 1 the per_layer metrics of the traced run.

Workloads (see NOTES.md):
  svc_mixed    open loop through the bonsai-net server (child process)
  sim_batch    closed batch through the Runtime batch API
  cli_extsort  `bonsai sort --format u32` file to file, several times the
               memory budget

Exit codes: 0 with a result; 1 on a set-up or build failure; 3 when the run
is invalid (the open-loop generator fell behind its schedule), without a
result.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("svc_mixed", "sim_batch", "cli_extsort")
# Variables that would switch the system onto another execution path.
PINNED_ENV = ("BONSAI_RUNTIME_SCHEDULER", "BONSAI_SIM_REFERENCE")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170
MIN_CLI_SORTS = 3


class BenchError(Exception):
    pass


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def nearest_rank(values, p):
    ordered = sorted(values)
    rank = max(1, min(len(ordered), -(-len(ordered) * p // 100)))
    return ordered[int(rank) - 1]


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build(env):
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml")) and os.path.isdir(os.path.join(ROOT, "crates"))):
        raise BenchError("the repository's sources (Cargo.toml, crates/) are not next to perfbench/")
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "bonsai"],
    ):
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"{' '.join(cmd)}: {e}") from e
        if done.returncode != 0:
            raise BenchError(f"{' '.join(cmd)} failed with exit code {done.returncode}")


def perfbench(bin_dir, args, env, timeout=RUN_TIMEOUT_S):
    """Runs the measuring binary; returns (report lines, parsed RESULT)."""
    cmd = [os.path.join(bin_dir, "perfbench")] + args
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{' '.join(args)} timed out after {timeout} s") from e
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise BenchError(f"perfbench {' '.join(args)} failed with exit code {done.returncode}")
    lines = done.stdout.splitlines()
    results = [l for l in lines if l.startswith("RESULT ")]
    report = [l for l in lines if not l.startswith("RESULT ")]
    return report, (json.loads(results[-1][len("RESULT "):]) if results else None)


def run_cli(bin_dir, seed, seconds, env, work):
    """cli_extsort: times `bonsai sort` child processes; peak RSS per child
    from wait4."""
    report, _ = perfbench(bin_dir, ["cli-prep", "--seed", str(seed), "--dir", work], env)
    prep = dict(line.split(" ", 1) for line in report)
    records, budget = int(prep["records"]), prep["mem_budget"]
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    child_env = dict(env, TMPDIR=tmp)
    bonsai = os.path.join(bin_dir, "bonsai")

    deadline = time.monotonic() + RUN_TIMEOUT_S

    def sort_once(src, dst):
        cmd = [bonsai, "sort", "--format", "u32", "--in", src, "--out", dst, "--mem-budget", budget]
        start = time.perf_counter()
        child = subprocess.Popen(cmd, cwd=ROOT, env=child_env, stdout=subprocess.DEVNULL)
        # A hung sort is killed at the run's deadline; wait4 still reaps it.
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), child.kill)
        killer.start()
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        killer.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= deadline:
            raise BenchError(f"bonsai sort did not finish within {RUN_TIMEOUT_S} s")
        return wall, usage.ru_maxrss / 1024.0, child.returncode

    empty, empty_out = os.path.join(work, "empty.bin"), os.path.join(work, "empty.out")
    setups = []

    src, dst, expected_path = (os.path.join(work, n) for n in ("input.bin", "output.bin", "expected.bin"))
    with open(expected_path, "rb") as f:
        expected = f.read()
    tally = {"attempted": 0, "ok": 0, "terminal_rewrite": 0, "wrong": 0, "error_reply": 0}
    walls, rss = [], []
    started = time.perf_counter()
    while len(walls) < MIN_CLI_SORTS or time.perf_counter() - started < seconds:
        # setup_s: one sort of the empty file before every timed sort, so
        # its median spans the whole run rather than one moment of it.
        wall, _, code = sort_once(empty, empty_out)
        if code != 0:
            raise BenchError(f"bonsai sort on the empty file exited with {code}")
        setups.append(wall)
        wall, peak, code = sort_once(src, dst)
        tally["attempted"] += 1
        if code != 0:
            tally["error_reply"] += 1
            continue
        walls.append(wall)
        rss.append(peak)
        with open(dst, "rb") as f:
            same = f.read() == expected
        if same:
            tally["ok"] += 1
        else:
            verdict, _ = perfbench(bin_dir, ["cli-check", "--expected", expected_path, "--output", dst], env)
            tally[verdict[0] if verdict and verdict[0] in tally else "wrong"] += 1
        os.remove(dst)
    if not walls:
        raise BenchError("every bonsai sort failed")

    failed = tally["terminal_rewrite"] + tally["wrong"] + tally["error_reply"]
    wall = statistics.median(walls)
    n = len(walls)
    metrics = {
        "records_per_s": (records / wall, "records/s", n),
        "p50_ms": (wall * 1e3, "ms", n),
        "sort_p90_ms": (nearest_rank(walls, 90) * 1e3, "ms", n),
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "peak_rss_mb": (statistics.median(rss), "MB", n),
        "fail_frac": (failed / tally["attempted"], "ratio", tally["attempted"]),
    }
    report = [
        f"cli_extsort: bonsai sort --format u32 --mem-budget {budget}, {records} records "
        f"({records * 4} bytes), {n} sorts, closed loop, 1 process at a time",
        "cli_extsort: " + " ".join(f"{k}={v}" for k, v in tally.items()) + f" failed={failed}",
    ] + [f"metric {k:<34} {v:>16.6f} {u:<14} samples={s}" for k, (v, u, s) in metrics.items()]
    result = {
        "correct": tally["wrong"] == 0,
        "attempted": tally["attempted"],
        "failed": failed,
        "invalid": None,
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in metrics.items()},
    }
    return report, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must be in (0, 600]")

    for var in PINNED_ENV:
        if var in os.environ:
            log(f"{var} is set; it would change the measured execution path. Unset it.")
            return 1
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    bin_dir = os.path.join(target, "release")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        build(env)
        out_dir = os.path.join(ROOT, ".perfbench_out")
        work = os.path.join(out_dir, f"run-{os.getpid()}")
        os.makedirs(work, exist_ok=True)
        seed, seconds = str(args.seed), str(args.seconds)
        try:
            if args.trace:
                spans = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
                report, result = perfbench(
                    bin_dir,
                    ["layers", "--workload", args.workload, "--seed", seed, "--seconds", seconds,
                     "--out-dir", work, "--spans", spans],
                    env,
                )
            elif args.workload == "cli_extsort":
                report, result = run_cli(bin_dir, args.seed, args.seconds, env, work)
            else:
                sub = "svc" if args.workload == "svc_mixed" else "sim"
                report, result = perfbench(bin_dir, [sub, "--seed", seed, "--seconds", seconds], env)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if result is None:
            raise BenchError("the run printed no result")

        for line in report:
            print(line)
        print(
            f"host: cores={os.cpu_count()} git_rev={git_rev()} workload={args.workload} "
            f"seed={args.seed} seconds={args.seconds} trace={args.trace}"
        )
        if result.get("invalid"):
            log(f"invalid run, not reported: {result['invalid']}")
            return 3

        wanted = spec["per_layer" if args.trace else "end_to_end"]
        metrics = {}
        for m in wanted:
            got = result["metrics"].get(m["name"])
            if got is None or got["value"] is None:
                raise BenchError(f"metric {m['name']} was not measured")
            if got["unit"] != m["unit"]:
                raise BenchError(f"metric {m['name']} measured in {got['unit']}, declared {m['unit']}")
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(str(e))
        return 1

    print(
        json.dumps(
            {
                "correct": bool(result["correct"]),
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
