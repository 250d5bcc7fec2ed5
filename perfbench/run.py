#!/usr/bin/env python3
"""Runs one workload of the relview benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --overhead N --workload NAME --seconds S

Run from the root of a checkout. The first call builds the binary
(perfbench/CMakeLists.txt) from the repository's sources into .bench_build/;
later calls rebuild only what changed. Stores and logs live in .bench_work/
while a run lasts and are removed after it.

A run prints every figure it measured as "metric <name> <value> <unit>"
lines, then, as its last line, one JSON object: correct, attempted, failed
and metrics -- the end_to_end metrics of BENCHMARK.json with --trace 0, its
per_layer metrics with --trace 1. It exits 0 only when every outcome
matched the generator's prediction and every end-state check held.

--selftest checks the update generator's predicted verdicts against the
paper's from-scratch procedures on tiny instances. --overhead runs a
workload N times untraced and N times traced (seeds 1..N) and prints the
difference of the end-to-end medians, the cost of tracing.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")
BINARY = os.path.join(BUILD_DIR, "relview_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the binary; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configure failed")
    step = ["cmake", "--build", BUILD_DIR, "--parallel", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_binary(workload, seed, seconds, trace):
    """Runs the binary once; returns (exit code, metric lines, result)."""
    work = os.path.join(WORK_DIR, "%s-%d" % (workload, os.getpid()))
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
            "--work-dir", work]
    try:
        proc = subprocess.run(args, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload %s did not finish in %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("workload %s printed nothing (exit %d)" % (workload,
                                                         proc.returncode))
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("workload %s ended without a result line" % workload)
    return proc.returncode, lines[:-1], result


def metric_values(lines):
    """{name: value} of the binary's "metric" lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            out[parts[1]] = float(parts[2])
    return out


def run_once(args):
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (one of %s)" % (args.workload,
                                                  ", ".join(names)))
    code, lines, result = run_binary(args.workload, args.seed, args.seconds,
                                     args.trace == 1)
    section = "per_layer" if args.trace == 1 else "end_to_end"
    measured = result[section]
    metrics = {}
    missing = []
    for m in spec[section]:
        if m["name"] in measured:
            metrics[m["name"]] = measured[m["name"]]
        else:
            missing.append(m["name"])
    for line in lines:
        print(line)
    correct = bool(result["correct"]) and code == 0 and not missing
    failed = int(result["failed"])
    if missing:
        print("perfbench: not measured: " + ", ".join(missing),
              file=sys.stderr)
        failed += 1
    print(json.dumps({"correct": correct,
                      "attempted": max(1, int(result["attempted"])),
                      "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def overhead(args):
    spec = benchmark_spec()
    values = {False: {}, True: {}}
    for trace in (False, True):
        for seed in range(1, args.overhead + 1):
            _, lines, _ = run_binary(args.workload, seed, args.seconds, trace)
            for name, v in metric_values(lines).items():
                values[trace].setdefault(name, []).append(v)
    print("tracing overhead on %s, %d runs each (traced - untraced medians)"
          % (args.workload, args.overhead))
    for m in spec["end_to_end"]:
        off = statistics.median(values[False][m["name"]])
        on = statistics.median(values[True][m["name"]])
        share = (on - off) / off if off else 0.0
        print("  %-16s untraced %12.4f  traced %12.4f %-5s  %+6.1f%%"
              % (m["name"], off, on, m["unit"], 100 * share))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--overhead", type=int, default=0)
    args = parser.parse_args()
    build()
    if args.selftest:
        return subprocess.run([BINARY, "--selftest"]).returncode
    if not args.workload:
        fail("--workload is required")
    if args.overhead > 0:
        return overhead(args)
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
