#!/usr/bin/env python3
"""Builds and runs the hermes repository benchmark (perfbench).

Run from the root of a checkout:

    python3 perfbench/run.py --workload appendix_zipf --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The first call configures and builds perfbench/ (which compiles the
library from src/) into .bench_build/perfbench with RelWithDebInfo; later
calls only rebuild what changed. Build output goes to standard error, so
the last line of standard output is always the benchmark's JSON result.
Result files and span files land in .bench_build/perfbench-out/.

`--workload all` runs every workload listed in BENCHMARK.json one after
another and ends with one combined JSON line whose metric names are
prefixed with the workload ("fanout_miss.qps").

Exits non-zero without a result when the library sources are missing, when
the build fails, or when any answer is wrong.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TYPE = "RelWithDebInfo"


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no library sources at src/ beside perfbench/; run from the "
            "root of a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(nproc()),
                  "--target", "perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, check=False)
        if done.returncode != 0:
            die(f"build step failed ({done.returncode}): {' '.join(cmd)}")


def source_id():
    """git commit when the checkout is a repository, plus a digest of src/."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             check=False)
        if got.returncode == 0:
            commit = got.stdout.strip()
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return f"{commit}+src:{digest.hexdigest()[:12]}"


def gated_workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def run_one(workload, args, commit, capture):
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", OUT_DIR, "--commit", commit]
    if args.queries:
        cmd += ["--queries", str(args.queries)]
    if not capture:
        return subprocess.run(cmd, cwd=ROOT, check=False).returncode, None
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    sys.stdout.write(done.stdout)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--queries", type=int, default=0,
                        help="queries per phase per round (default: the "
                             "workload's own)")
    args = parser.parse_args()

    build()
    commit = source_id()
    if args.workload != "all":
        code, _ = run_one(args.workload, args, commit, capture=False)
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in gated_workloads():
        code, result = run_one(workload, args, commit, capture=True)
        worst = worst or code
        if result is None:
            die(f"{workload} printed no result")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    sys.exit(worst)


if __name__ == "__main__":
    main()
