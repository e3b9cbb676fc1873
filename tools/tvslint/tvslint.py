#!/usr/bin/env python3
"""tvslint - project-specific static analysis for the tvs repository.

Mechanizes the codebase invariants that the kernel/dispatch architecture
depends on.  Each rule is a named diagnostic with file:line output; a
finding on a line carrying (or immediately following) a
`// tvslint: allow(<rule>[,<rule>...])` comment is suppressed.

  R1  omp-include       #include <omp.h> only in src/util/omp_compat.hpp
                        (serial builds compile everything; raw includes
                        break the no-OpenMP configuration)
  R2  intrinsics-scope  _mm*/__m128/256/512/__mmask* intrinsics only under
                        src/simd/ (kernels must stay vector-length generic
                        through the V abstraction)
  R3  backend-symbols   per-backend combined objects export no external
                        symbols besides the extern "C" registrars (checked
                        with nm on tvs_kernels_<backend>_combined.o; a
                        stray external symbol defeats the ODR isolation
                        that makes three differently-flagged compilations
                        of one kernel safe in a single binary)
  R4  lane-generic      engine templates (src/tv/*_impl.hpp) use no bare
                        double/float element types and no hardcoded lane
                        counts (4/8/16) in lane/ring/slot arithmetic -
                        everything derives from V::lanes / V::value_type
  R5  registry-matrix   every kernel id declared in dispatch/kernels.hpp
                        has TVS_REGISTER* sites for exactly the dtypes the
                        support matrix (tools/tvslint/registry_matrix.json,
                        the machine-readable form of the README matrix)
                        claims, and vice versa

Front ends: when the `clang` python bindings and a loadable libclang are
available the files are tokenized with clang's lexer (`--mode clang`);
otherwise a regex scanner that strips comments and string literals is used
(`--mode regex`).  Both feed the same rule logic, so results agree on any
well-formed translation unit.

Exit status: 0 clean, 1 violations found, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

RULES = {
    "R1": "omp-include: #include <omp.h> outside src/util/omp_compat.hpp",
    "R2": "intrinsics-scope: x86 intrinsics outside src/simd/",
    "R3": "backend-symbols: stray external symbol in a backend object",
    "R4": "lane-generic: hardcoded lane count / bare element type in an "
          "engine template",
    "R5": "registry-matrix: kernels.hpp ids vs TVS_REGISTER sites vs the "
          "declared support matrix",
}

ALLOW_RE = re.compile(r"tvslint:\s*allow\(([^)]*)\)")


@dataclass
class Violation:
    path: str
    line: int  # 1-based; 0 = whole-file / cross-file finding
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class SourceFile:
    """One lexed file, in two views: `code_lines` keeps string-literal
    contents (R5 reads the kernel-id strings), `scan_lines` blanks them
    (the R1/R2/R4 line rules must not fire on text inside a literal).
    Comments are stripped from both; their allow() markers are recorded."""

    path: str  # repo-relative (or as given) path, '/'-separated
    code_lines: List[str] = field(default_factory=list)  # 1-based via index+1
    scan_lines: List[str] = field(default_factory=list)
    allowed: Dict[int, Set[str]] = field(default_factory=dict)

    def is_allowed(self, line: int, rule: str) -> bool:
        # An allow() comment covers its own line and, when it is the only
        # thing on its line, the line below it.
        for cand in (line, line - 1):
            if rule in self.allowed.get(cand, set()):
                return True
        return False


# ---------------------------------------------------------------------------
# Lexing front ends
# ---------------------------------------------------------------------------

def _record_allows(sf: SourceFile, text: str, line: int) -> None:
    for m in ALLOW_RE.finditer(text):
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        sf.allowed.setdefault(line, set()).update(rules)


def lex_regex(path: str, display_path: str) -> SourceFile:
    """Comment/string-aware scanner.  Handles //, /* */, "..." and '...'
    (with escapes); raw strings are not used in this codebase."""
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    sf = SourceFile(display_path)
    out: List[str] = []
    scan_out: List[str] = []
    cur: List[str] = []
    scan_cur: List[str] = []
    line = 1
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | dquote | squote
    comment_start = 1
    comment_buf: List[str] = []
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state, comment_start, comment_buf = "line_comment", line, []
                i += 2
                continue
            if c == "/" and nxt == "*":
                state, comment_start, comment_buf = "block_comment", line, []
                i += 2
                continue
            if c == '"':
                state = "dquote"
                cur.append('"')
                scan_cur.append('"')
                i += 1
                continue
            if c == "'":
                state = "squote"
                cur.append("'")
                scan_cur.append("'")
                i += 1
                continue
            if c == "\n":
                out.append("".join(cur))
                scan_out.append("".join(scan_cur))
                cur = []
                scan_cur = []
                line += 1
            else:
                cur.append(c)
                scan_cur.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                _record_allows(sf, "".join(comment_buf), comment_start)
                out.append("".join(cur))
                scan_out.append("".join(scan_cur))
                cur = []
                scan_cur = []
                line += 1
                state = "code"
            else:
                comment_buf.append(c)
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                _record_allows(sf, "".join(comment_buf), comment_start)
                state = "code"
                i += 2
                continue
            if c == "\n":
                out.append("".join(cur))
                scan_out.append("".join(scan_cur))
                cur = []
                scan_cur = []
                line += 1
            else:
                comment_buf.append(c)
            i += 1
        elif state in ("dquote", "squote"):
            # Literal contents are kept in code_lines (R5 reads the
            # kernel-id strings) but blanked in scan_lines.
            quote = '"' if state == "dquote" else "'"
            if c == "\\":
                cur.append(c)
                if i + 1 < n:
                    cur.append(text[i + 1])
                i += 2
                continue
            if c == quote:
                cur.append(quote)
                scan_cur.append(quote)
                state = "code"
            elif c == "\n":  # unterminated literal: recover per line
                out.append("".join(cur))
                scan_out.append("".join(scan_cur))
                cur = []
                scan_cur = []
                line += 1
                state = "code"
            else:
                cur.append(c)
            i += 1
    if state in ("line_comment", "block_comment"):
        _record_allows(sf, "".join(comment_buf), comment_start)
    out.append("".join(cur))
    scan_out.append("".join(scan_cur))
    sf.code_lines = out
    sf.scan_lines = scan_out
    return sf


def lex_clang(path: str, display_path: str, index) -> SourceFile:
    """Tokenize with clang's lexer; comments become allow() records and
    everything else is reassembled into per-line code text."""
    import clang.cindex as ci

    tu = index.parse(
        path,
        args=["-std=c++20", "-fsyntax-only"],
        options=ci.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD,
    )
    sf = SourceFile(display_path)
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        nlines = f.read().count("\n") + 1
    lines: List[List[str]] = [[] for _ in range(nlines + 1)]
    scan: List[List[str]] = [[] for _ in range(nlines + 1)]
    for tok in tu.get_tokens(extent=tu.cursor.extent):
        loc = tok.location
        if loc.file is None or loc.file.name != path:
            continue
        if tok.kind == ci.TokenKind.COMMENT:
            _record_allows(sf, tok.spelling, loc.line)
            continue
        lines[loc.line].append(tok.spelling)
        if tok.kind == ci.TokenKind.LITERAL and (
                '"' in tok.spelling or "'" in tok.spelling):
            scan[loc.line].append('""')
        else:
            scan[loc.line].append(tok.spelling)
    sf.code_lines = [" ".join(row) for row in lines[1:]]
    sf.scan_lines = [" ".join(row) for row in scan[1:]]
    return sf


def make_lexer(mode: str):
    """Returns (lex_fn, resolved_mode)."""
    if mode in ("auto", "clang"):
        try:
            import clang.cindex as ci

            index = ci.Index.create()
            return (lambda p, d: lex_clang(p, d, index)), "clang"
        except Exception as exc:  # no bindings or no loadable libclang
            if mode == "clang":
                raise SystemExit(f"tvslint: --mode clang unavailable: {exc}")
    return lex_regex, "regex"


# ---------------------------------------------------------------------------
# Per-line rules: R1, R2, R4
# ---------------------------------------------------------------------------

OMP_INCLUDE_RE = re.compile(r"^\s*#\s*include\s*[<\"]omp\.h[>\"]")
INTRIN_RE = re.compile(
    r"\b_mm\w*\s*\(|\b_mm\d+\b|\b__m(?:128|256|512)[a-z]*\b|\b__mmask\d+\b"
)
BARE_ELEM_RE = re.compile(r"\b(double|float)\b")
LANE_CONST_RE = re.compile(r"\b(?:4|8|16)\b")
LANE_CTX_RE = re.compile(r"\b(?:lanes|vl|VL|ring|slot)\b")
LANE_EXEMPT_RE = re.compile(r"static_assert|if\s+constexpr")


def code_lines(sf: SourceFile) -> int:
    """Non-blank lines of the comment-stripped scan view: the code size
    the summary line reports for src/."""
    return sum(1 for text in sf.scan_lines if text.strip())


def norm(path: str) -> str:
    return path.replace(os.sep, "/")


def r1_applies(path: str) -> bool:
    return not norm(path).endswith("src/util/omp_compat.hpp")


def r2_applies(path: str) -> bool:
    return "src/simd/" not in norm(path)


def r4_applies(path: str) -> bool:
    # The lane-generic engine templates: every *_impl.hpp, tile code under
    # src/tiling/ included (a tile is an engine instantiation).
    return norm(path).endswith("_impl.hpp")


def check_lines(sf: SourceFile) -> List[Violation]:
    found: List[Violation] = []

    def add(line: int, rule: str, msg: str) -> None:
        if not sf.is_allowed(line, rule):
            found.append(Violation(sf.path, line, rule, msg))

    r1 = r1_applies(sf.path)
    r2 = r2_applies(sf.path)
    r4 = r4_applies(sf.path)
    for ln, code in enumerate(sf.scan_lines, start=1):
        if not code:
            continue
        if r1 and OMP_INCLUDE_RE.search(code):
            add(ln, "R1",
                "raw #include <omp.h>; include \"util/omp_compat.hpp\" "
                "instead so serial builds keep compiling")
        if r2 and (m := INTRIN_RE.search(code)):
            add(ln, "R2",
                f"x86 intrinsic '{m.group(0).strip('( ')}' outside src/simd/; "
                "kernels reach SIMD only through the V abstraction")
        if r4:
            if m := BARE_ELEM_RE.search(code):
                add(ln, "R4",
                    f"bare '{m.group(1)}' in a lane-generic engine template; "
                    "use V::value_type (or a template parameter)")
            if (LANE_CONST_RE.search(code) and LANE_CTX_RE.search(code)
                    and not LANE_EXEMPT_RE.search(code)):
                add(ln, "R4",
                    "hardcoded lane count in lane/ring/slot arithmetic; "
                    "derive it from V::lanes")
    return found


# ---------------------------------------------------------------------------
# R3: backend object symbol discipline
# ---------------------------------------------------------------------------

COMBINED_OBJ_RE = re.compile(r"tvs_kernels_(\w+)_combined\.o$")


def check_objects(objdir: str, nm: str = "nm") -> Tuple[List[Violation], int]:
    """nm over every tvs_kernels_<backend>_combined.o under objdir."""
    found: List[Violation] = []
    nchecked = 0
    for root, _dirs, files in os.walk(objdir):
        for fname in sorted(files):
            m = COMBINED_OBJ_RE.search(fname)
            if not m:
                continue
            backend = m.group(1)
            opath = os.path.join(root, fname)
            nchecked += 1
            try:
                out = subprocess.run(
                    [nm, "--defined-only", "--extern-only", "-f", "posix",
                     opath],
                    capture_output=True, text=True, check=True).stdout
            except (OSError, subprocess.CalledProcessError) as exc:
                found.append(Violation(norm(opath), 0, "R3",
                                       f"nm failed on backend object: {exc}"))
                continue
            ok = re.compile(
                rf"^tvs_(?:kreg_{backend}_\w+|register_backend_{backend})$")
            for line in out.splitlines():
                sym = line.split()[0] if line.split() else ""
                if sym and not ok.match(sym):
                    found.append(Violation(
                        norm(opath), 0, "R3",
                        f"external symbol '{sym}' is not the {backend} "
                        "registrar; backend TUs must keep internal linkage "
                        "(anonymous namespace + TVS_BACKEND_REGISTRAR)"))
    return found, nchecked


# ---------------------------------------------------------------------------
# R5: kernels.hpp ids x TVS_REGISTER sites x declared matrix
# ---------------------------------------------------------------------------

ID_DECL_RE = re.compile(
    r"inline\s+constexpr\s+std\s*::\s*string_view\s+(k\w+)\s*=\s*\"([^\"]+)\"")
REGISTER_RE = re.compile(r"\bTVS_REGISTER(_VL_DT|_VL|_DT)?\s*\(\s*(k\w+)")
DTYPE_RE = re.compile(r"\bk(F64|F32|I32)\b")


def parse_register_sites(
    sf: SourceFile,
) -> List[Tuple[str, str, int]]:
    """(constant, dtype, line) for every TVS_REGISTER* call in the file.
    The dtype argument can sit on a continuation line, so the match scans a
    small window of joined lines."""
    sites = []
    nlines = len(sf.code_lines)
    for ln, code in enumerate(sf.code_lines, start=1):
        for m in REGISTER_RE.finditer(code):
            variant = m.group(1) or ""
            const = m.group(2)
            if variant in ("_VL_DT", "_DT"):
                window = " ".join(
                    sf.code_lines[ln - 1:min(ln + 2, nlines)])
                tail = window[window.find(const):]
                dm = DTYPE_RE.search(tail)
                dtype = f"k{dm.group(1)}" if dm else "kF64"
            else:
                dtype = "kF64"
            sites.append((const, dtype, ln))
    return sites


def check_registry(repo: str, files: Dict[str, SourceFile],
                   matrix_path: str) -> List[Violation]:
    found: List[Violation] = []
    kernels_rel = "src/dispatch/kernels.hpp"
    kernels = files.get(kernels_rel)
    if kernels is None:
        return found  # not linting the dispatch layer (explicit file list)
    if not os.path.exists(matrix_path):
        found.append(Violation(norm(matrix_path), 0, "R5",
                               "support matrix file missing"))
        return found
    with open(matrix_path, "r", encoding="utf-8") as f:
        matrix: Dict[str, Dict] = {
            k: v for k, v in json.load(f).items() if not k.startswith("_")}

    declared: Dict[str, Tuple[str, int]] = {}  # const -> (id string, line)
    for ln, code in enumerate(kernels.code_lines, start=1):
        for m in ID_DECL_RE.finditer(code):
            declared[m.group(1)] = (m.group(2), ln)

    registered: Dict[str, Dict[str, Tuple[str, int]]] = {}
    for rel, sf in files.items():
        if rel == kernels_rel:
            continue
        for const, dtype, ln in parse_register_sites(sf):
            registered.setdefault(const, {})[dtype] = (rel, ln)

    id_of = {c: i for c, (i, _) in declared.items()}
    const_of = {i: c for c, i in id_of.items()}

    # kernels.hpp -> matrix -> registrations
    for const, (kid, ln) in sorted(declared.items()):
        claim = matrix.get(kid)
        if claim is None:
            found.append(Violation(kernels_rel, ln, "R5",
                                   f"kernel id '{kid}' has no row in the "
                                   f"support matrix ({norm(matrix_path)})"))
            continue
        want = set(claim.get("dtypes", []))
        have = set(registered.get(const, {}))
        for dt in sorted(want - have):
            found.append(Violation(
                kernels_rel, ln, "R5",
                f"kernel id '{kid}' claims dtype {dt} in the support matrix "
                "but has no TVS_REGISTER* site for it"))
        for dt in sorted(have - want):
            rel, rln = registered[const][dt]
            found.append(Violation(
                rel, rln, "R5",
                f"kernel id '{kid}' registers dtype {dt} that the support "
                "matrix does not claim"))

    # registrations of undeclared constants
    for const, by_dtype in sorted(registered.items()):
        if const not in declared:
            rel, rln = min(by_dtype.values(), key=lambda t: (t[0], t[1]))
            found.append(Violation(
                rel, rln, "R5",
                f"TVS_REGISTER* site for '{const}' which dispatch/"
                "kernels.hpp does not declare"))

    # matrix rows with no kernel id
    for kid in sorted(matrix):
        if kid not in const_of:
            found.append(Violation(
                norm(os.path.relpath(matrix_path, repo)), 0, "R5",
                f"support-matrix row '{kid}' matches no id declared in "
                "dispatch/kernels.hpp"))
    return found


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

LINT_DIRS = ("src", "tests", "bench", "examples")
LINT_EXTS = (".cpp", ".hpp", ".h", ".cc")


def discover_files(repo: str,
                   compile_commands: Optional[str]) -> List[str]:
    """Repo-relative paths to lint: headers + sources under the first-party
    dirs.  compile_commands.json (when present) is used to confirm TU
    coverage but discovery is filesystem-based so headers are included."""
    rels: Set[str] = set()
    try:
        out = subprocess.run(
            ["git", "-C", repo, "ls-files", "--"] +
            [f"{d}/" for d in LINT_DIRS],
            capture_output=True, text=True, check=True).stdout
        rels.update(p for p in out.splitlines()
                    if p.endswith(LINT_EXTS))
    except (OSError, subprocess.CalledProcessError):
        for d in LINT_DIRS:
            for root, _dirs, fnames in os.walk(os.path.join(repo, d)):
                for fname in fnames:
                    if fname.endswith(LINT_EXTS):
                        rels.add(norm(os.path.relpath(
                            os.path.join(root, fname), repo)))
    if compile_commands and os.path.exists(compile_commands):
        with open(compile_commands, "r", encoding="utf-8") as f:
            for entry in json.load(f):
                p = entry.get("file", "")
                ap = os.path.normpath(
                    os.path.join(entry.get("directory", ""), p))
                rel = norm(os.path.relpath(ap, repo))
                if not rel.startswith("..") and rel.endswith(LINT_EXTS) \
                        and rel.split("/")[0] in LINT_DIRS:
                    rels.add(rel)
    return sorted(rels)


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="tvslint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="*",
                    help="explicit files to lint (default: the repo tree)")
    ap.add_argument("--repo", default=None,
                    help="repository root (default: two dirs above this "
                         "script)")
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json exported by CMake "
                         "(default: <repo>/build/compile_commands.json "
                         "when present)")
    ap.add_argument("--objects", default=None,
                    help="directory holding the built "
                         "tvs_kernels_*_combined.o objects; enables R3")
    ap.add_argument("--matrix", default=None,
                    help="support-matrix JSON for R5 (default: "
                         "registry_matrix.json next to this script)")
    ap.add_argument("--mode", choices=["auto", "clang", "regex"],
                    default="auto", help="lexer front end (default: auto)")
    ap.add_argument("--rules", default=None,
                    help="comma-separated subset of rules to run")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("-q", "--quiet", action="store_true",
                    help="suppress the summary line")
    args = ap.parse_args(argv)

    if args.list_rules:
        for rid, desc in RULES.items():
            print(f"{rid}  {desc}")
        return 0

    here = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.abspath(args.repo) if args.repo else \
        os.path.dirname(os.path.dirname(here))
    active = set(RULES)
    if args.rules:
        active = {r.strip() for r in args.rules.split(",")}
        unknown = active - set(RULES)
        if unknown:
            print(f"tvslint: unknown rule(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2
    matrix_path = args.matrix or os.path.join(
        repo, "tools", "tvslint", "registry_matrix.json")
    compile_commands = args.compile_commands
    if compile_commands is None:
        cand = os.path.join(repo, "build", "compile_commands.json")
        compile_commands = cand if os.path.exists(cand) else None

    lex, mode = make_lexer(args.mode)

    if args.files:
        pairs = [(os.path.abspath(f),
                  norm(os.path.relpath(os.path.abspath(f), repo))
                  if os.path.abspath(f).startswith(repo + os.sep)
                  else norm(f))
                 for f in args.files]
    else:
        pairs = [(os.path.join(repo, rel), rel)
                 for rel in discover_files(repo, compile_commands)]

    files: Dict[str, SourceFile] = {}
    for apath, rel in pairs:
        if not os.path.exists(apath):
            print(f"tvslint: no such file: {apath}", file=sys.stderr)
            return 2
        files[rel] = lex(apath, rel)

    violations: List[Violation] = []
    if active & {"R1", "R2", "R4"}:
        for sf in files.values():
            violations.extend(v for v in check_lines(sf)
                              if v.rule in active)
    r3_checked = None
    if "R3" in active and args.objects:
        r3_found, r3_checked = check_objects(args.objects)
        violations.extend(r3_found)
    if "R5" in active:
        violations.extend(check_registry(repo, files, matrix_path))

    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    for v in violations:
        print(v.render())
    if not args.quiet:
        extras = [f"mode={mode}"]
        if "R3" in active:
            extras.append(
                f"R3 objects checked={r3_checked}" if r3_checked is not None
                else "R3 skipped (no --objects)")
        src_lines = sum(code_lines(sf) for rel, sf in files.items()
                        if rel.startswith("src/"))
        print(f"tvslint: {len(files)} files, {len(violations)} violation(s), "
              f"{src_lines} non-blank non-comment lines under src/ "
              f"[{', '.join(extras)}]", file=sys.stderr)
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
