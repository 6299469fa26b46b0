#!/usr/bin/env python3
"""Rebuilds perfbench/expected.txt with the host C compiler.

Every benchmark program is MiniC, whose int is 64 bits. Each program is
compiled as C with the prelude

    #include <math.h>
    #define int long long
    #define main kernel_main

and the flags `-O0 -ffp-contract=off -fwrapv -funsigned-char`, plus a small
driver that prints kernel_main()'s result. Nothing of the compiler under
test is involved except `noelle-perfbench --emit-sources`, which writes the
MiniC text the benchmark runs, byte for byte.

Usage (from the repository root, after `python3 perfbench/run.py ...` has
built the binary once):
    python3 perfbench/make_expected.py            # rewrite expected.txt
    python3 perfbench/make_expected.py --check    # compare, exit 1 on drift
"""

import argparse
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_build" / "expected"
BINARY = ROOT / ".bench_build" / "perfbench" / "noelle-perfbench"
EXPECTED = HERE / "expected.txt"

PRELUDE = "#include <math.h>\n#define int long long\n#define main kernel_main\n"
DRIVER = """
#undef main
#undef int
#include <stdio.h>
int main(void) {
  printf("%lld\\n", kernel_main());
  return 0;
}
"""
CC = "gcc"
FLAGS = ["-O0", "-ffp-contract=off", "-fwrapv", "-funsigned-char"]

HEADER = """\
# Expected main() value of every benchmark program, one "<key> <value>" per
# line. Produced by perfbench/make_expected.py with the host C compiler
# (gcc -O0 -ffp-contract=off -fwrapv -funsigned-char, prelude
# `#include <math.h>` / `#define int long long` / `#define main kernel_main`,
# plus a driver printing kernel_main()), never by this repository's compiler.
# Weak checks: suite.basicmath returns INT64_MIN and suite.stringsearch
# returns 0 (degenerate checksums of the suite kernels themselves).
"""


def compute():
    if not BINARY.is_file():
        sys.exit(f"make_expected: {BINARY} missing; run perfbench/run.py once")
    if WORK.exists():
        shutil.rmtree(WORK)
    src = WORK / "src"
    subprocess.run([str(BINARY), "--emit-sources", str(src),
                    "--programs", str(HERE / "programs")], check=True)
    values = {}
    for minic in sorted(src.glob("*.minic")):
        key = minic.stem
        c_file = WORK / f"{key}.c"
        exe = WORK / key
        c_file.write_text(PRELUDE + minic.read_text() + DRIVER)
        subprocess.run([CC, *FLAGS, "-o", str(exe), str(c_file), "-lm"],
                       check=True)
        out = subprocess.run([str(exe)], check=True, capture_output=True,
                             text=True, timeout=120).stdout
        values[key] = int(out.strip())
    return values


def read_expected():
    values = {}
    for line in EXPECTED.read_text().splitlines():
        line = line.split("#", 1)[0].split()
        if len(line) == 2:
            values[line[0]] = int(line[1])
    return values


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true",
                    help="compare with the checked-in file instead of writing")
    args = ap.parse_args()
    values = compute()
    if args.check:
        old = read_expected()
        if old != values:
            for key in sorted(set(old) | set(values)):
                if old.get(key) != values.get(key):
                    print(f"{key}: checked in {old.get(key)}, "
                          f"host compiler {values.get(key)}")
            sys.exit(1)
        print(f"make_expected: {len(values)} values match {EXPECTED.name}")
        return
    body = "".join(f"{k} {v}\n" for k, v in sorted(values.items()))
    EXPECTED.write_text(HEADER + body)
    print(f"make_expected: wrote {len(values)} values")


if __name__ == "__main__":
    main()
