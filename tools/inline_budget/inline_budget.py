#!/usr/bin/env python3
"""Fail when a kernel TU reaches GCC's TU-wide inlining cap.

GCC stops inlining into a unit larger than large-unit-insns once the unit
has grown by inline-unit-growth percent.  A kernel TU that instantiates
many engines (src/tv/tv2d.cpp holds every 2D engine of a backend) can reach
that cap, and the engines it leaves with out-of-line hot helpers still
compute the right answer, only 25-30x slower.  No functional test sees
that, so this check recompiles the named TUs exactly as the build does
(from compile_commands.json, every backend) with -fopt-info-inline-missed
and fails on any call GCC left out of line because the cap was reached.
The build raises the cap for kernel TUs (TVS_KERNEL_INLINE_FLAGS in
cmake/TvsSimd.cmake); this check is what notices when that stops being
enough.

    inline_budget.py --compile-commands build/compile_commands.json \\
        --source tv/tv1d.cpp tv/tv2d.cpp tv/tv3d.cpp
    inline_budget.py --fixture --compiler g++

`--fixture` compiles fixture.cpp with a 0% cap and fails unless the cap is
reported, which proves the diagnostic text searched for is still GCC's.
GCC only; exit 0 clean, 1 on a finding, 2 on a usage or compile error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import shlex
import subprocess
import sys
import tempfile
from typing import List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
CAP_MESSAGE = "inline-unit-growth limit reached"
FIXTURE_CAP = ["--param=large-unit-insns=0", "--param=inline-unit-growth=0"]
JOBS = 2  # concurrent compiles; ctest runs other tests beside this one


def cap_hits(args: List[str], cwd: str) -> Tuple[Optional[List[str]], str]:
    """Compile `args` (without its -o) to nowhere; return the lines where
    GCC reports the growth cap, or None and the compiler output on error."""
    argv: List[str] = []
    skip = False
    for a in args:
        if skip:
            skip = False
        elif a == "-o":
            skip = True
        elif not a.startswith("-fopt-info"):
            argv.append(a)
    with tempfile.TemporaryDirectory(prefix="inline_budget_") as tmp:
        report = os.path.join(tmp, "missed.txt")
        proc = subprocess.run(
            argv + ["-o", os.devnull, "-fopt-info-inline-missed=" + report],
            cwd=cwd, capture_output=True, text=True)
        if proc.returncode != 0:
            return None, proc.stdout + proc.stderr
        if not os.path.exists(report):
            return [], ""
        with open(report, "r", encoding="utf-8", errors="replace") as f:
            return [ln.rstrip() for ln in f if CAP_MESSAGE in ln], ""


def check_sources(commands: str, sources: List[str]) -> int:
    with open(commands, "r", encoding="utf-8") as f:
        entries = json.load(f)
    work = []
    for src in sources:
        suffix = os.sep + os.path.join("src", src)
        found = [e for e in entries if e["file"].endswith(suffix)]
        if not found:
            print(f"inline_budget: no compile command for src/{src}")
            return 2
        work += found
    status = 0
    with concurrent.futures.ThreadPoolExecutor(max_workers=JOBS) as pool:
        runs = []
        for e in work:
            args = shlex.split(e["command"])
            runs.append((args[args.index("-o") + 1],
                         pool.submit(cap_hits, args, e["directory"])))
        for name, run in runs:
            hits, err = run.result()
            if hits is None:
                print(f"inline_budget: {name}: compile failed\n{err}")
                status = max(status, 2)
            elif hits:
                print(f"inline_budget: {name}: {len(hits)} call(s) left "
                      f"out of line at the inline-unit-growth cap, e.g.")
                for ln in hits[:5]:
                    print("  " + ln)
                status = max(status, 1)
    print(f"inline_budget: {len(work)} compile(s) checked, "
          + ("clean" if status == 0 else "FAILED"))
    return status


def check_fixture(compiler: str) -> int:
    args = [compiler, "-O2", "-std=c++20"] + FIXTURE_CAP + [
        "-c", os.path.join(HERE, "fixture.cpp")]
    hits, err = cap_hits(args, HERE)
    if hits is None:
        print(f"inline_budget: fixture compile failed\n{err}")
        return 2
    if not hits:
        print(f"inline_budget: fixture compiled with a 0% growth cap, but "
              f"no '{CAP_MESSAGE}' diagnostic: the check cannot see the cap")
        return 1
    print(f"inline_budget: fixture reports the cap ({len(hits)} call(s))")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--compile-commands",
                    help="the build's compile_commands.json")
    ap.add_argument("--source", nargs="+", default=[],
                    help="TUs to check, relative to src/")
    ap.add_argument("--fixture", action="store_true",
                    help="check fixture.cpp instead: the cap must show")
    ap.add_argument("--compiler", default="g++",
                    help="compiler for --fixture (default g++)")
    args = ap.parse_args(argv)
    if args.fixture:
        return check_fixture(args.compiler)
    if not args.compile_commands or not args.source:
        ap.error("--compile-commands and --source are required")
    return check_sources(args.compile_commands, args.source)


if __name__ == "__main__":
    sys.exit(main())
