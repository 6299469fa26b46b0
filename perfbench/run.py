#!/usr/bin/env python3
"""Wall-clock benchmark of NOELLE, from MiniC source to program exit.

Usage (from the repository root):
    python3 perfbench/run.py --workload suite-pipeline|parallel-exec|seq-exec \
        --seed N --seconds S --trace 0|1

Builds the NOELLE library and the benchmark binary from ../src into
.bench_build/perfbench (build output goes to stderr), runs one measurement,
and passes the binary's report through: the last line of standard output is
one JSON object with "correct", "attempted", "failed" and "metrics".
Workloads, metrics and the expected-value recipe are described in
perfbench/WORKLOADS.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "noelle-perfbench"
WORKLOADS = ("suite-pipeline", "parallel-exec", "seq-exec")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd):
    """Runs a build step with its output on stderr; fails the run on error."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"command failed ({proc.returncode}): {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "src" / "interp" / "Interpreter.h").is_file():
        fail(f"NOELLE sources not found under {ROOT / 'src'}")
    configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not (BUILD / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    if not (BUILD / "CMakeCache.txt").exists():
        run_logged(configure)
    run_logged(["cmake", "--build", str(BUILD), "-j", "4"])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--programs", str(HERE / "programs"),
           "--expected", str(HERE / "expected.txt")]
    env = dict(os.environ)
    env.pop("NOELLE_TELEMETRY", None)
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else ""))
    if proc.returncode != 0 or not lines:
        fail(f"benchmark binary exited with {proc.returncode}")
    report = json.loads(lines[-1])
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed report: " + lines[-1])
    print(json.dumps(report))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
