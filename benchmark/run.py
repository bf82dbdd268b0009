#!/usr/bin/env python3
"""Build and run the Tangram benchmark.  Standard library only.

One workload, one process (the form BENCHMARK.json's command takes):

    python3 benchmark/run.py --workload W --seed S --seconds T --trace 0|1

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1` (which also writes a
Chrome trace-event file under build-bench/).

Every workload, sequentially, one process per run:

    python3 benchmark/run.py [--reps N] [--seed S] [--trace 0|1] [--smoke]
                             [--json PATH]

prints each metric with its unit as median [q1, q3] over the runs (seeds
S, S+1, ...), and writes every run's result to PATH (default
build-bench/results.json).  --smoke runs 1/50 of each workload once, as a
quick end-to-end check.

tangram_bench is built from source into build-bench/ on first use.  Exit code 0
means every run completed and passed its correctness gates.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, "build-bench")
BINARY = os.path.join(BUILD_DIR, "tangram_bench")
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=log,
                                  stderr=subprocess.STDOUT, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"timed out after {timeout} s: {' '.join(cmd)}")
    if done.returncode != 0:
        with open(log_path) as log:
            tail = log.read()[-4000:]
        raise BenchError(f"failed: {' '.join(cmd)}\n{tail}")


def build():
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log = os.path.join(BUILD_DIR, "build.log")
    if not os.path.exists(BINARY):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_logged(configure, log, BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", BUILD_DIR, "--target", "tangram_bench",
                "-j", str(os.cpu_count() or 1)], log, BUILD_TIMEOUT_S)


def load_spec():
    try:
        with open(SPEC_PATH) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {SPEC_PATH}: {e}")


def run_bench(workload, seed, seconds, trace, scale=1.0):
    """Run one workload in its own process; returns (exit code, result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace:
        cmd += ["--trace",
                os.path.join(BUILD_DIR, f"trace-{workload}-{seed}.json")]
    if scale != 1.0:
        cmd += ["--scale", str(scale)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload}: tangram_bench exited {done.returncode} "
                         "without a result")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise BenchError(f"{workload}: unparsable result line: {lines[-1]}")
    return done.returncode, result


def contract_result(result, names):
    metrics = {}
    for name in names:
        if name not in result["metrics"]:
            raise BenchError(f"tangram_bench did not report metric {name}")
        metrics[name] = result["metrics"][name]
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def one_workload(args, spec):
    names = [m["name"] for m in spec["per_layer" if args.trace else
                                    "end_to_end"]]
    code, result = run_bench(args.workload, args.seed, args.seconds,
                              args.trace)
    out = contract_result(result, names)
    print(json.dumps(out))
    return 0 if code == 0 and out["correct"] else 1


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def every_workload(args, spec):
    reps = 1 if args.smoke else args.reps
    seconds = 0 if args.smoke else spec["run_seconds"]
    scale = 0.02 if args.smoke else 1.0
    runs, ok = {}, True
    for w in spec["workloads"]:
        name = w["name"]
        runs[name] = []
        for i in range(reps):
            print(f"=== {name} seed {args.seed + i}", flush=True)
            code, result = run_bench(name, args.seed + i, seconds,
                                      args.trace, scale)
            ok = ok and code == 0 and result["correct"]
            runs[name].append(result)
    print()
    for name, results in runs.items():
        print(f"{name}: {len(results)} run(s), attempted "
              f"{[r['attempted'] for r in results]}, failed "
              f"{[r['failed'] for r in results]}, correct "
              f"{all(r['correct'] for r in results)}")
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results
                      if metric in r["metrics"]]
            unit = results[0]["metrics"][metric]["unit"]
            med, q1, q3 = quartiles(values)
            print(f"  {metric:<34} {med:>14.6g} [{q1:.6g}, {q3:.6g}] {unit}")
    json_path = args.json or os.path.join(BUILD_DIR, "results.json")
    with open(json_path, "w") as f:
        json.dump({"seed": args.seed, "reps": reps, "smoke": args.smoke,
                   "runs": runs}, f, indent=1)
    print(f"results written to {json_path}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--json")
    args = parser.parse_args()
    try:
        spec = load_spec()
        build()
        if args.workload:
            if args.seconds is None:
                args.seconds = spec["run_seconds"]
            return one_workload(args, spec)
        return every_workload(args, spec)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
