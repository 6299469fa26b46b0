#!/usr/bin/env python3
"""The benchmark's own tests.

Usage (from the repository root):
    python3 perfbench/selftest.py

1. Rebuilds the expected file with the host C compiler, when one is
   present, and compares it with perfbench/expected.txt.
2. Runs every parallel-exec program twice, in two processes, and checks
   that their DispatchRecords are identical.
3. Gives the benchmark an expected file with one wrong value and checks
   that exactly the ops of that program are counted as failed.

Builds the benchmark first (through run.py's build step). Exits 0 when
every test passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the build step and paths)

WORK = run.ROOT / ".bench_build" / "selftest"


def bench(*args):
    cmd = [str(run.BINARY), "--programs", str(HERE / "programs"), *args]
    return subprocess.run(cmd, check=True, capture_output=True,
                          text=True).stdout


def test_expected_matches_host_compiler():
    if not shutil.which("gcc"):
        print("SKIP expected file: no host C compiler (gcc) found")
        return True
    proc = subprocess.run([sys.executable, str(HERE / "make_expected.py"),
                           "--check"],
                          capture_output=True, text=True)
    print(proc.stdout.strip())
    return proc.returncode == 0


def test_dispatch_records_repeat():
    first = bench("--dispatch-records")
    second = bench("--dispatch-records")
    if first != second or "records=" not in first:
        print("FAIL DispatchRecords differ between two runs")
        return False
    print("dispatch records identical across two runs "
          f"({first.count('records=')} programs)")
    return True


def test_wrong_expected_counts_as_failed():
    WORK.mkdir(parents=True, exist_ok=True)
    wrong = WORK / "expected-wrong.txt"
    lines = []
    for line in (HERE / "expected.txt").read_text().splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == "seq.crc":
            line = f"seq.crc {int(parts[1]) + 1}"
        lines.append(line)
    wrong.write_text("\n".join(lines) + "\n")
    out = bench("--workload", "seq-exec", "--seed", "7", "--seconds", "1",
                "--trace", "0", "--expected", str(wrong))
    report = json.loads(out.strip().splitlines()[-1])
    crc_ops = next(int(l.split("ops=")[1].split()[0])
                   for l in out.splitlines() if l.startswith("seq.crc "))
    ok = (report["correct"] is False and crc_ops > 0
          and report["failed"] == crc_ops
          and report["attempted"] > report["failed"])
    print(f"wrong expected value: {report['failed']} of "
          f"{report['attempted']} ops failed ({crc_ops} seq.crc ops)")
    return ok


def main():
    run.build()
    results = {
        "expected file": test_expected_matches_host_compiler(),
        "dispatch records": test_dispatch_records_repeat(),
        "wrong expected value": test_wrong_expected_counts_as_failed(),
    }
    for name, ok in results.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    sys.exit(0 if all(results.values()) else 1)


if __name__ == "__main__":
    main()
