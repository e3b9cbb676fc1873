#!/usr/bin/env python3
"""Generate tests/ring_combos.inc from the registry support matrix.

Every matrix row carrying a `ring` object (see tools/tvslint/
registry_matrix.json) contributes one `TVS_RING_COMBO(...)` line per
(dtype, vl, legal stride) combination its ring executes:

    TVS_RING_COMBO(kernel_id, family, dtype, vl, param, stride)

The matrix's `vl` lists hold the widths a ring *executes*, not only the
registered ones: a flat Gauss-Seidel engine hands its residual sweeps to
the same engine at half the width, down to 2 lanes on planes
(tv_plane_run) and 4 on lines (tv1d_run), so its rows also list those half
widths.

tests/ring_bounds_static.cpp expands each line into a static_assert that
traces the named family's ring/slot index math at constexpr time through
CheckedIdx bounds (tests/ring_bounds_model.hpp), so an out-of-bounds ring
access for ANY executed combination is a compile error.

The .inc file is committed; `--check` regenerates it in memory and fails
(exit 1) when the committed file has drifted from the matrix - wired as
the `ring_combos_sync` CTest entry so matrix edits can't silently shrink
the verified set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
DEFAULT_MATRIX = os.path.join(REPO, "tools", "tvslint",
                              "registry_matrix.json")
DEFAULT_OUT = os.path.join(REPO, "tests", "ring_combos.inc")

HEADER = """\
// Generated by tools/tvsrace/gen_ring_combos.py from
// tools/tvslint/registry_matrix.json - do not edit by hand.
// One TVS_RING_COMBO(kernel, family, dtype, vl, param, stride) per
// executed (dtype, vl, legal stride) combination of every ring-based
// engine; regenerate with `python3 tools/tvsrace/gen_ring_combos.py`
// (the ring_combos_sync CTest entry fails when this file drifts).
"""


def generate(matrix_path: str) -> str:
    with open(matrix_path, "r", encoding="utf-8") as f:
        matrix = json.load(f)
    lines = [HEADER]
    ncombo = 0
    for kid in sorted(k for k in matrix if not k.startswith("_")):
        ring = matrix[kid].get("ring")
        if not ring:
            continue
        family = ring["family"]
        param = int(ring["param"])
        smin, smax = int(ring["stride_min"]), int(ring["stride_max"])
        for dtype in sorted(ring["vl"]):
            for vl in sorted(int(v) for v in ring["vl"][dtype]):
                for s in range(smin, smax + 1):
                    lines.append(
                        f"TVS_RING_COMBO({kid}, {family}, {dtype}, "
                        f"{vl}, {param}, {s})")
                    ncombo += 1
    lines.append(f"// {ncombo} combinations")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="gen_ring_combos",
                                 description=__doc__)
    ap.add_argument("--matrix", default=DEFAULT_MATRIX)
    ap.add_argument("--out", default=DEFAULT_OUT)
    ap.add_argument("--check", action="store_true",
                    help="verify the committed file matches the matrix "
                         "instead of writing it")
    args = ap.parse_args(argv)

    want = generate(args.matrix)
    if args.check:
        try:
            with open(args.out, "r", encoding="utf-8") as f:
                have = f.read()
        except OSError:
            print(f"gen_ring_combos: missing {args.out}; regenerate with "
                  "python3 tools/tvsrace/gen_ring_combos.py",
                  file=sys.stderr)
            return 1
        if have != want:
            print(f"gen_ring_combos: {args.out} is stale relative to "
                  f"{args.matrix}; regenerate with "
                  "python3 tools/tvsrace/gen_ring_combos.py",
                  file=sys.stderr)
            return 1
        print("gen_ring_combos: in sync", file=sys.stderr)
        return 0
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(want)
    nlines = sum(line.startswith("TVS_RING_COMBO(")
                 for line in want.splitlines())
    print(f"gen_ring_combos: wrote {args.out} ({nlines} combinations)",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
