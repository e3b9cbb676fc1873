#!/usr/bin/env python3
"""tvs-bench entry point.

    python3 tvsbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Builds the tvs library and the
tvs_bench driver from the checkout's sources (Release, into
$CARGO_TARGET_DIR/tvsbench, default .bench_build/tvsbench), runs one
workload, checks that every metric BENCHMARK.json names for the mode is
present and well-formed, and prints the driver's report followed, as the
last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics, --trace 1 the per_layer ones.
Exits non-zero, without a result line, when the build, the run or the
metric check fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


class BenchError(Exception):
    pass


def parse_result_line(stdout):
    """Returns the JSON object of the driver's last "RESULT {...}" line."""
    lines = [l for l in stdout.splitlines() if l.startswith("RESULT ")]
    if not lines:
        raise BenchError("driver printed no RESULT line")
    try:
        res = json.loads(lines[-1][len("RESULT "):])
    except json.JSONDecodeError as e:
        raise BenchError(f"RESULT line is not JSON: {e}") from e
    for key, typ in (("correct", bool), ("attempted", int), ("failed", int),
                     ("metrics", dict)):
        if not isinstance(res.get(key), typ):
            raise BenchError(f"RESULT field {key!r} missing or not {typ.__name__}")
    return res


def select_metrics(res, spec, trace):
    """The metrics `spec` (BENCHMARK.json) lists for the mode, checked.

    Every listed metric must be present with a finite numeric value and the
    listed unit; end-to-end metrics must also be positive."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for m in wanted:
        name = m["name"]
        got = res["metrics"].get(name)
        if got is None:
            raise BenchError(f"metric {name!r} missing")
        value = got.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            raise BenchError(f"metric {name!r} has no finite value: {value!r}")
        if got.get("unit") != m["unit"]:
            raise BenchError(
                f"metric {name!r} unit {got.get('unit')!r} != {m['unit']!r}")
        if not trace and value <= 0:
            raise BenchError(f"end-to-end metric {name!r} is not positive: {value}")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def result_line(res, metrics):
    return json.dumps({
        "correct": bool(res["correct"]) and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    })


def build(build_dir):
    """Configures and builds the driver; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no tvs sources under {ROOT}")
    cmds = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "tvs_bench", "-j",
         str(os.cpu_count() or 1)],
    ]
    for cmd in cmds:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           timeout=BUILD_TIMEOUT_S, check=False)
        if r.returncode != 0:
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    exe = os.path.join(build_dir, "tvs_bench")
    if not os.access(exe, os.X_OK):
        raise BenchError(f"{exe} was not built")
    return exe


def run_driver(exe, args, out_dir):
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"driver exceeded {RUN_TIMEOUT_S} s") from e
    sys.stdout.write("".join(l + "\n" for l in r.stdout.splitlines()
                             if not l.startswith("RESULT ")))
    if r.returncode != 0:
        raise BenchError(f"driver exited with {r.returncode}")
    return r.stdout


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # Any workload the driver knows; BENCHMARK.json lists the gated ones.
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
        build_dir = os.path.join(os.path.abspath(target), "tvsbench")
        exe = build(build_dir)
        out_dir = os.path.join(build_dir, "trace")
        os.makedirs(out_dir, exist_ok=True)
        res = parse_result_line(run_driver(exe, args, out_dir))
        print(result_line(res, select_metrics(res, spec, args.trace == 1)))
    except (BenchError, OSError, KeyError, subprocess.SubprocessError) as e:
        print(f"tvs-bench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
