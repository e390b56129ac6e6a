#!/usr/bin/env python3
"""Build and run the tfr-kv repository benchmark.

    python3 perfbench/run.py --workload write-heavy --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call builds the program and the
benchmark binary from source (CMake, into $CARGO_TARGET_DIR or .bench_build);
later calls rebuild only what changed. The binary's full report, with the
registry snapshot of the measured window, is printed on a "report" line and
saved under <build>/results/; the last line of standard output is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

`--workload all` runs every workload in turn and prints each metric with its
unit instead; it exits 1 if any workload is incorrect.

Exit status: 0 for a correct run, 1 for an audit mismatch, a failed validity
guard, a failed build or a timeout, 2 for bad arguments.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

PACKAGE = pathlib.Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_dir():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = pathlib.Path.cwd() / base
    return base / "perfbench"


def build(out):
    """Configure (once) and build tfr_perfbench; returns its path or None."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(PACKAGE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return out / "tfr_perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own checks instead of a workload")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1
    if args.selftest:
        return subprocess.run([str(binary), "--selftest"]).returncode

    if args.workload != "all":
        result = run_one(binary, out, args.workload, args, echo=True)
        if result is None:
            return 1
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    status = 0
    names = json.loads((PACKAGE.parent / "BENCHMARK.json").read_text())["workloads"]
    for workload in (w["name"] for w in names):
        result = run_one(binary, out, workload, args, echo=False)
        if result is None or not result["correct"]:
            status = 1
        if result is None:
            continue
        print(f"== {workload} (seed {args.seed}, correct={result['correct']}, "
              f"attempted={result['attempted']}, failed={result['failed']})")
        for name, m in result["metrics"].items():
            print(f"  {name:40s} {m['value']:14.4f} {m['unit']}")
    return status


def run_one(binary, out, workload, args, echo):
    """Run one workload, save its report (and echo it); return the parsed result."""
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills tfr_perfbench and waits for it before raising.
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"perfbench: tfr_perfbench exited {proc.returncode} without a result",
              file=sys.stderr)
        return None
    for line in lines[:-1]:
        if echo:
            print(line)
        if line.startswith("report "):
            results = out / "results"
            results.mkdir(exist_ok=True)
            name = f"{workload}-seed{args.seed}-trace{args.trace}.json"
            (results / name).write_text(line[len("report "):] + "\n")
    result = json.loads(lines[-1])
    result["correct"] = bool(result["correct"]) and proc.returncode == 0
    return result


if __name__ == "__main__":
    sys.exit(main())
