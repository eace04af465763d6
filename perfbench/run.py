#!/usr/bin/env python3
"""Build pm2bench from the checkout's sources and run one benchmark run.

Usage (from the repository root):

    python3 perfbench/run.py --workload pingpong_eager --seed 1 \
        --seconds 50 --trace 0

The first run configures and compiles the simulator libraries and the
benchmark into .bench_build/perfbench (later runs only re-check it). The
benchmark's own output is passed through; its last line is the JSON result
described in perfbench/README.md. With --trace 1 the run's spans are written
to .bench_build/spans/<workload>-seed<seed>.csv.

The exit code is non-zero when the sources are missing, the build fails, the
run fails an output check, or the printed metrics do not match
BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "pm2bench"
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no pm2sim sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(min(3, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(BUILD_DIR), "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, check=False)
        if done.returncode != 0:
            # Build output goes to stderr: stdout ends with the result line.
            sys.stderr.write(done.stdout)
            fail(f"build step failed: {' '.join(cmd)}", 3)


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The last stdout line must be the result object BENCHMARK.json names."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the benchmark printed no result line", 4)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}", 4)
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, or units differ", 4)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = ROOT / ".bench_build" / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans-out",
                str(spans_dir / f"{args.workload}-seed{args.seed}.csv")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s", 5)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode == 2:  # usage error: nothing was measured
        fail("pm2bench rejected its arguments", 2)
    print("\n".join(lines[:-1]))
    result = check_result(lines[-1], args.trace)
    print(json.dumps(result))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
