#!/usr/bin/env python3
"""Build the adsketch benchmark and run its workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--repeat R]

Builds `perfbench/` (a Cargo package of its own) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs each selected
workload in its own process. With one workload and no `--repeat`, the
last line of stdout is that workload's JSON result. With `--workload all`
every workload runs in turn, a table of its metrics is printed, and the
last line is one JSON object with the metrics keyed `<workload>.<metric>`.
With `--repeat R`, the workload runs R times on seeds N..N+R-1 and each
metric's median, quartiles and spread (interquartile range over median)
are printed next to the bound `BENCHMARK.json` gives it.

Stores, logs and span files go under `.bench_build/` in the repository
root; nothing is written elsewhere.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def pin_to_one_cpu():
    """Confine the workload process, and every thread it starts, to the
    lowest-numbered CPU this process may use. On the 2-vCPU reference host,
    handing work to a thread woken on the other vCPU was slow at times:
    unpinned serve runs fell from 1.8M to 0.7M node queries/s and their p99
    rose from 0.3 ms to 3.5 ms within minutes, while pinned runs at the same
    time kept 1.6-1.9M and 0.23-0.32 ms. No timed section needs a second
    CPU: every call gets one thread, and the serve loop hands one request
    from thread to thread.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build(target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: building the benchmark failed (exit {done.returncode})")
    binary = target_dir / "release" / "perfbench"
    if not binary.is_file():
        sys.exit(f"run.py: {binary} was not built")
    return binary


def run_workload(binary, spec, workload, seed, seconds, trace):
    cmd = [
        str(binary), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--workdir", ".bench_build/perfbench-work",
        "--trace-dir", ".bench_build/perfbench-traces",
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, preexec_fn=pin_to_one_cpu)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {workload} did not finish within {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.exit(f"run.py: {workload} exited with {done.returncode}")
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if not lines:
        sys.exit(f"run.py: {workload} printed no result")
    result = json.loads(lines[-1])
    catalogue = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in catalogue}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        sys.exit(f"run.py: {workload} metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    return result


def print_table(workload, result, catalogue):
    print(f"== {workload}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for m in catalogue:
        v = result["metrics"][m["name"]]
        print(f"   {m['name']:<34} {v['value']:>18.6g} {v['unit']}")


def repeat(binary, spec, workload, seed, seconds, trace, times):
    catalogue = spec["per_layer"] if trace else spec["end_to_end"]
    results = []
    for i in range(times):
        r = run_workload(binary, spec, workload, seed + i, seconds, trace)
        print(f"seed {seed + i}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']}", flush=True)
        results.append(r)
    print(f"== {workload}: {times} runs, seeds {seed}..{seed + times - 1}")
    print(f"   {'metric':<34} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
    for m in catalogue:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        bound = m.get("bound")
        flag = ""
        if bound is not None and spread > bound / 3:
            flag = "  <-- spread above a third of the bound"
        bound_s = f"{bound:.2f}" if bound is not None else "-"
        print(f"   {m['name']:<34} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {bound_s:>6}{flag}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"   failed/attempted: {sorted(shares)}")
    print(f"   all correct: {all(r['correct'] for r in results)}")


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--repeat", type=int, default=0)
    args = ap.parse_args()

    target_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    binary = build(target_dir)

    if args.repeat:
        workloads = names if args.workload == "all" else [args.workload]
        for w in workloads:
            repeat(binary, spec, w, args.seed, args.seconds, args.trace, args.repeat)
        return
    if args.workload != "all":
        result = run_workload(binary, spec, args.workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result))
        return
    catalogue = spec["per_layer"] if args.trace else spec["end_to_end"]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in names:
        r = run_workload(binary, spec, w, args.seed, args.seconds, args.trace)
        print_table(w, r, catalogue)
        combined["correct"] &= r["correct"]
        combined["attempted"] += r["attempted"]
        combined["failed"] += r["failed"]
        for k, v in r["metrics"].items():
            combined["metrics"][f"{w}.{k}"] = v
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
