#!/usr/bin/env python3
"""Fixture tests for tvsrace: every seeded-violation fixture must trip
exactly its intended rule group, every clean fixture (which exercises the
annotation grammar) must pass, a wrong partitioned() name must be
rejected, stripping a partitioned() annotation (in a fixture and in the
real tree, on a stage_run() body and on a stage callback) must resurface
the findings it certifies, and a missing
--compile-commands path must be a usage error (exit 2).

Run directly (python3 tools/tvsrace/test_tvsrace.py) or via the
`tvsrace_fixtures` CTest entry.
"""

import contextlib
import io
import os
import re
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import tvsrace  # noqa: E402


def run_race(argv):
    """Invoke tvsrace.main, returning (exit_code, [(path, line, rule)])."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tvsrace.main(argv + ["-q", "--mode", "regex"])
    findings = []
    for line in out.getvalue().splitlines():
        m = re.match(r"(.+):(\d+): \[(C\d)\] ", line)
        if m:
            findings.append((m.group(1), int(m.group(2)), m.group(3)))
    return code, findings


def fixture(name):
    return os.path.join(FIXTURES, name)


class C1OmpSharing(unittest.TestCase):
    def test_shared_writes_trip_c1(self):
        # A racy reduction-less accumulate, a racy scalar write, and an
        # unpartitioned write through a shared pointer.
        code, findings = run_race([fixture("c1_shared_write.cpp")])
        self.assertEqual(code, 1)
        self.assertEqual({f[2] for f in findings}, {"C1"})
        self.assertEqual(sorted(f[1] for f in findings), [11, 12, 13])

    def test_clean_region_passes(self):
        # reduction clause, region-local temps, induction-indexed writes,
        # omp_get_thread_num() slots and a critical section: no findings.
        code, findings = run_race([fixture("c1_clean.cpp")])
        self.assertEqual(findings, [])
        self.assertEqual(code, 0)

    def test_wrong_partition_name_is_rejected(self):
        # partitioned(j) on a loop parallel over i: the certification is
        # refused AND the underlying unpartitioned write still reported.
        code, findings = run_race([fixture("c1_bad_partition.cpp")])
        self.assertEqual(code, 1)
        lines = sorted(f[1] for f in findings)
        self.assertIn(9, lines)   # the bad annotation (pragma line)
        self.assertIn(11, lines)  # the surviving write finding

    def test_stripping_a_real_annotation_resurfaces_findings(self):
        # Liveness against the actual tree: the wavefront LCS driver's
        # stage_run() call is certified by `// tvsrace: partitioned(i)`;
        # removing it must bring back C1 findings on the row/col segment
        # writes.
        src = os.path.join(REPO, "src", "tiling", "lcs_wavefront.cpp")
        with open(src, "r", encoding="utf-8") as f:
            text = f.read()
        self.assertIn("tvsrace: partitioned(i)", text)
        with tempfile.TemporaryDirectory() as td:
            fixdir = os.path.join(td, "fixtures")
            os.makedirs(fixdir)
            stripped = os.path.join(fixdir, "lcs_wavefront.cpp")
            with open(stripped, "w", encoding="utf-8") as f:
                f.write(text.replace("// tvsrace: partitioned(i)", ""))
            code, findings = run_race([stripped])
            self.assertEqual(code, 1)
            self.assertEqual({f[2] for f in findings}, {"C1"})
            self.assertGreaterEqual(len(findings), 3)

    def test_stage_run_bodies_are_parallel_regions(self):
        # stage_run() bodies (a named lambda, an inline one) writing
        # shared state unannotated, and a body tvsrace cannot follow.
        code, findings = run_race([fixture("c1_stage_run_shared.cpp")])
        self.assertEqual(code, 1)
        self.assertEqual({f[2] for f in findings}, {"C1"})
        self.assertEqual(sorted(f[1] for f in findings), [15, 16, 20, 21, 23])

    def test_stage_run_annotation_is_load_bearing(self):
        # The annotated fixture is clean.  Without its annotation the
        # segment writes resurface; an annotation naming the slot
        # parameter instead of the index is refused (line 14) and certifies
        # nothing.
        src = fixture("c1_stage_run_clean.cpp")
        code, findings = run_race([src])
        self.assertEqual(findings, [])
        self.assertEqual(code, 0)
        with open(src, "r", encoding="utf-8") as f:
            text = f.read()
        mark = "// tvsrace: partitioned(k)"
        self.assertIn(mark, text)
        for repl, want in (("", [17, 19]),
                           ("// tvsrace: partitioned(slot)", [14, 17, 19])):
            with tempfile.TemporaryDirectory() as td:
                fixdir = os.path.join(td, "fixtures")
                os.makedirs(fixdir)
                path = os.path.join(fixdir, "c1_stage_run_clean.cpp")
                with open(path, "w", encoding="utf-8") as f:
                    f.write(text.replace(mark, repl))
                code, findings = run_race([path])
                self.assertEqual(code, 1)
                self.assertEqual(sorted(f[1] for f in findings), want)

    def test_stage_callbacks_are_parallel_regions(self):
        # A lambda passed as a schedule's stage callback is a region over
        # the parameter that receives the stage index: the unannotated
        # write (line 25) and the unfollowable callback (line 36) are
        # findings; the annotated callback is certified.  Stripped, its
        # segment writes resurface; naming the slot is refused (line 29).
        src = fixture("c1_stage_callback.cpp")
        code, findings = run_race([src])
        self.assertEqual(code, 1)
        self.assertEqual({f[2] for f in findings}, {"C1"})
        self.assertEqual(sorted(f[1] for f in findings), [25, 36])
        with open(src, "r", encoding="utf-8") as f:
            text = f.read()
        mark = "// tvsrace: partitioned(x0)"
        self.assertIn(mark, text)
        for repl, want in (("", [25, 32, 34, 36]),
                           ("// tvsrace: partitioned(slot)",
                            [25, 29, 32, 34, 36])):
            with tempfile.TemporaryDirectory() as td:
                fixdir = os.path.join(td, "fixtures")
                os.makedirs(fixdir)
                path = os.path.join(fixdir, "c1_stage_callback.cpp")
                with open(path, "w", encoding="utf-8") as f:
                    f.write(text.replace(mark, repl))
                code, findings = run_race([path])
                self.assertEqual(code, 1)
                self.assertEqual(sorted(f[1] for f in findings), want)

    def test_stripping_a_real_callback_annotation_resurfaces_findings(self):
        # Liveness against the actual tree: the 2D diamond's trapezoid
        # callback, a stage callback of diamond_schedule()
        # (src/tiling/schedule.hpp), is certified by
        # `// tvsrace: partitioned(rows)`; without it the writes to the
        # parity grids come back.
        sched = os.path.join(REPO, "src", "tiling", "schedule.hpp")
        src = os.path.join(REPO, "src", "tiling", "diamond2d.cpp")
        with open(src, "r", encoding="utf-8") as f:
            text = f.read()
        mark = "// tvsrace: partitioned(rows)"
        self.assertEqual(text.count(mark), 1)
        with tempfile.TemporaryDirectory() as td:
            fixdir = os.path.join(td, "fixtures")
            os.makedirs(fixdir)
            stripped = os.path.join(fixdir, "diamond2d.cpp")
            with open(stripped, "w", encoding="utf-8") as f:
                f.write(text.replace(mark, ""))
            code, findings = run_race([sched, stripped])
            self.assertEqual(code, 1)
            self.assertEqual({f[2] for f in findings}, {"C1"})
            self.assertGreaterEqual(len(findings), 2)


class C2LockDiscipline(unittest.TestCase):
    def test_unlocked_field_access_trips_c2(self):
        code, findings = run_race([fixture("c2_unlocked.cpp")])
        self.assertEqual(code, 1)
        self.assertEqual({f[2] for f in findings}, {"C2"})
        self.assertEqual(sorted(f[1] for f in findings), [15, 16])

    def test_locked_and_guarded_accesses_pass(self):
        # lock_guard scopes plus one guarded_by_caller method.
        code, findings = run_race([fixture("c2_clean.cpp")])
        self.assertEqual(findings, [])
        self.assertEqual(code, 0)


class C3IndexNarrowing(unittest.TestCase):
    def test_narrowing_casts_trip_c3(self):
        code, findings = run_race([fixture("c3_narrowing.cpp")])
        self.assertEqual(code, 1)
        self.assertEqual({f[2] for f in findings}, {"C3"})
        self.assertEqual(sorted(f[1] for f in findings), [19, 20, 21, 22, 24])

    def test_checked_int_and_allow_pass(self):
        # ptrdiff_t end-to-end, util::checked_int routing, and one
        # explicit allow(C3) suppression: no findings.
        code, findings = run_race([fixture("c3_clean.cpp")])
        self.assertEqual(findings, [])
        self.assertEqual(code, 0)


class DriverBehavior(unittest.TestCase):
    def test_missing_compile_commands_is_usage_error(self):
        code, findings = run_race(
            [fixture("c1_clean.cpp"),
             "--compile-commands", os.path.join(HERE, "no_such_db.json")])
        self.assertEqual(code, 2)
        self.assertEqual(findings, [])

    def test_rule_subset_masks_findings(self):
        # The C1 fixture is clean under --rules C2,C3.
        code, findings = run_race(
            [fixture("c1_shared_write.cpp"), "--rules", "C2,C3"])
        self.assertEqual(findings, [])
        self.assertEqual(code, 0)

    def test_list_rules(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = tvsrace.main(["--list-rules"])
        self.assertEqual(code, 0)
        for rid in ("C1", "C2", "C3"):
            self.assertIn(rid, out.getvalue())

    def test_tree_scan_is_clean(self):
        # The repository itself must analyze clean: every in-tree
        # annotation is justified and no unproven sharing remains.
        code, findings = run_race(["--repo", REPO])
        self.assertEqual(findings, [])
        self.assertEqual(code, 0)


if __name__ == "__main__":
    unittest.main()
