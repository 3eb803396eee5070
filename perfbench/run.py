#!/usr/bin/env python3
"""Repository benchmark: build the simulator and run one workload.

    python3 perfbench/run.py --workload oltp_profiled --seed 1 \
        --seconds 20 --trace 0

Run from any directory; paths resolve against this file. The first run
configures and builds perfbench/ (the simulator libraries from src/ plus
the harness) into .bench_build/perfbench. The harness's report goes to
stdout; its last line is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics
and --trace 1 the per-layer metrics declared in BENCHMARK.json.

Exits 2 without a result when the simulator sources are missing or the
build fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def declared_metrics(trace):
    """Metric name -> unit declared in BENCHMARK.json for a trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def build(targets=("perfbench",)):
    """Configure (once) and build; returns the build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources at {ROOT / 'src'}")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", *targets])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S,
                                  check=False)
        except subprocess.TimeoutExpired:
            fail(f"build step timed out: {' '.join(cmd)}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return BUILD_DIR


def commit():
    """The source commit, when the checkout is a git repository."""
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except subprocess.TimeoutExpired:
        return "unknown"
    return out.stdout.strip() or "unknown"


def check_metrics(result, trace):
    """One more check: the metrics are exactly the declared ones."""
    declared = declared_metrics(trace)
    emitted = {k: v.get("unit") for k, v in result["metrics"].items()}
    result["attempted"] += 1
    if emitted != declared:
        result["failed"] += 1
        result["correct"] = False
        missing = sorted(set(declared) - set(emitted))
        extra = sorted(set(emitted) - set(declared))
        units = sorted(k for k in set(declared) & set(emitted)
                       if declared[k] != emitted[k])
        print(f"FAILED check: metrics differ from BENCHMARK.json "
              f"(missing {missing}, undeclared {extra}, unit {units})")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["oltp_profiled", "compute_mix",
                                 "sensitivity_sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--test-sizes", action="store_true",
                        help="tiny jobs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    build_dir = build()
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", commit()]
    if args.trace:
        cmd += ["--spans-out",
                str(build_dir / f"spans-{args.workload}-{args.seed}.json")]
    if args.test_sizes:
        cmd.append("--test-sizes")
    try:
        # From the build directory: the sweep's campaign layer drops a
        # status file into its working directory even when none is
        # asked for.
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=build_dir, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(done.stdout)
        fail(f"harness exited {done.returncode} without a result line")
    for line in lines[:-1]:
        print(line)
    if done.returncode == 0:
        result = check_metrics(result, args.trace)
    print(json.dumps(result))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
