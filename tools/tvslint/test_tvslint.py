#!/usr/bin/env python3
"""Fixture tests for tvslint: each seeded-violation fixture must trip
exactly its intended rule, the clean fixture (which exercises allow()
suppressions) must pass, and the R3 symbol check must reject an object
with a stray external symbol while accepting a registrar-only one.

Run directly (python3 tools/tvslint/test_tvslint.py) or via the
`tvslint_fixtures` CTest entry.
"""

import contextlib
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
sys.path.insert(0, HERE)

import tvslint  # noqa: E402


def run_lint(argv):
    """Invoke tvslint.main, returning (exit_code, [(path, line, rule)])."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tvslint.main(argv + ["-q"])
    findings = []
    for line in out.getvalue().splitlines():
        m = re.match(r"(.+):(\d+): \[(R\d)\] ", line)
        if m:
            findings.append((m.group(1), int(m.group(2)), m.group(3)))
    return code, findings


def fixture(name):
    return os.path.join(FIXTURES, name)


class LineRuleFixtures(unittest.TestCase):
    def test_clean_fixture_passes(self):
        # clean.cpp contains a suppressed omp include, a suppressed
        # intrinsic, and rule-pattern text inside a string literal: zero
        # findings proves both allow() handling and literal blanking.
        code, findings = run_lint([fixture("clean.cpp")])
        self.assertEqual(findings, [])
        self.assertEqual(code, 0)

    def test_r1_fixture_trips_only_r1(self):
        code, findings = run_lint([fixture("r1_omp_include.cpp")])
        self.assertEqual(code, 1)
        self.assertEqual({f[2] for f in findings}, {"R1"})
        self.assertEqual([f[1] for f in findings], [5])

    def test_r2_fixture_trips_only_r2(self):
        code, findings = run_lint([fixture("r2_intrinsics.cpp")])
        self.assertEqual(code, 1)
        self.assertEqual({f[2] for f in findings}, {"R2"})
        self.assertEqual(sorted(f[1] for f in findings), [6, 10, 13])

    def test_r4_fixture_trips_only_r4(self):
        code, findings = run_lint([fixture("r4_hardcoded_impl.hpp")])
        self.assertEqual(code, 1)
        self.assertEqual({f[2] for f in findings}, {"R4"})
        self.assertEqual(sorted(f[1] for f in findings), [16, 19])

    def test_r4_covers_tiling_impl_headers(self):
        code, findings = run_lint(
            [fixture(os.path.join("src", "tiling", "r4_tile_impl.hpp"))])
        self.assertEqual(code, 1)
        self.assertEqual({f[2] for f in findings}, {"R4"})
        self.assertEqual(sorted(f[1] for f in findings), [13])

    def test_rule_subset_masks_findings(self):
        code, findings = run_lint(
            [fixture("r1_omp_include.cpp"), "--rules", "R2,R4"])
        self.assertEqual((code, findings), (0, []))


class SummaryLineCount(unittest.TestCase):
    def test_counts_code_lines_under_src_only(self):
        # count.cpp holds blank lines, // and /* */ comments (whole-line,
        # trailing, leading, inline) and comment markers inside string
        # literals: 5 code lines.  The tests/ file is outside src/.
        tree = fixture("linecount")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = tvslint.main([
                "--repo", tree, "--mode", "regex", "--rules", "R1",
                os.path.join(tree, "src", "count.cpp"),
                os.path.join(tree, "tests", "outside.cpp"),
            ])
        self.assertEqual(code, 0)
        self.assertIn(
            "2 files, 0 violation(s), 5 non-blank non-comment lines under "
            "src/", err.getvalue())


class R5RegistryFixture(unittest.TestCase):
    def test_r5_tree_reports_exactly_the_seeded_drift(self):
        tree = fixture("r5_tree")
        code, findings = run_lint([
            "--repo", tree,
            "--matrix", os.path.join(tree, "matrix.json"),
            os.path.join(tree, "src", "dispatch", "kernels.hpp"),
            os.path.join(tree, "src", "fake", "reg.cpp"),
        ])
        self.assertEqual(code, 1)
        self.assertEqual({f[2] for f in findings}, {"R5"})
        # beta: two unregistered matrix claims; kGamma: one undeclared site.
        self.assertEqual(len(findings), 3)
        by_path = sorted((f[0], f[2]) for f in findings)
        self.assertEqual(by_path, [
            ("src/dispatch/kernels.hpp", "R5"),
            ("src/dispatch/kernels.hpp", "R5"),
            ("src/fake/reg.cpp", "R5"),
        ])


class R3SymbolFixture(unittest.TestCase):
    """Builds two tiny 'combined' backend objects at test time and checks
    that only the one with a stray external symbol is rejected."""

    GOOD_SRC = (
        "void tvs_register_backend_fake(void) {}\n"
        "int tvs_kreg_fake_jacobi = 0;\n"
        "int tvs_kreg_fake_life = 0;\n"
        "static int hidden_helper(void) { return 1; }\n"
        "int tvs_kreg_fake_gs = 0;\n"
        "void use_decl_only(void);\n")  # declaration: not a defined symbol
    BAD_SRC = GOOD_SRC + "int leaky_helper(void) { return 2; }\n"

    @classmethod
    def setUpClass(cls):
        cls.cc = next(
            (c for c in ("cc", "gcc", "clang") if shutil.which(c)), None)
        cls.nm_ok = shutil.which("nm") is not None

    def _build(self, tmp, src):
        cpath = os.path.join(tmp, "fake.c")
        with open(cpath, "w", encoding="utf-8") as f:
            f.write(src)
        opath = os.path.join(tmp, "tvs_kernels_fake_combined.o")
        subprocess.run([self.cc, "-c", cpath, "-o", opath], check=True)
        return opath

    def test_r3_accepts_registrar_only_object(self):
        if not (self.cc and self.nm_ok):
            self.skipTest("no C compiler / nm on PATH")
        with tempfile.TemporaryDirectory() as tmp:
            self._build(tmp, self.GOOD_SRC)
            found, nchecked = tvslint.check_objects(tmp)
            self.assertEqual(nchecked, 1)
            self.assertEqual(found, [])

    def test_r3_rejects_stray_external_symbol(self):
        if not (self.cc and self.nm_ok):
            self.skipTest("no C compiler / nm on PATH")
        with tempfile.TemporaryDirectory() as tmp:
            self._build(tmp, self.BAD_SRC)
            found, nchecked = tvslint.check_objects(tmp)
            self.assertEqual(nchecked, 1)
            self.assertEqual([v.rule for v in found], ["R3"])
            self.assertIn("leaky_helper", found[0].message)

    def test_r3_backend_name_is_bound_to_the_object(self):
        # A fake-backend registrar inside an avx2-named object is a
        # violation: the symbol whitelist is per backend.
        if not (self.cc and self.nm_ok):
            self.skipTest("no C compiler / nm on PATH")
        with tempfile.TemporaryDirectory() as tmp:
            opath = self._build(tmp, self.GOOD_SRC)
            os.rename(opath,
                      os.path.join(tmp, "tvs_kernels_avx2_combined.o"))
            found, nchecked = tvslint.check_objects(tmp)
            self.assertEqual(nchecked, 1)
            self.assertTrue(found)
            self.assertEqual({v.rule for v in found}, {"R3"})


if __name__ == "__main__":
    unittest.main(verbosity=2)
