#!/usr/bin/env python3
"""tvsrace - concurrency + index-safety static analysis for the tvs repo.

Where tvslint mechanizes the kernel/dispatch architecture invariants,
tvsrace mechanizes the *parallelism and index-arithmetic* invariants: the
OpenMP sharing discipline of the tiling drivers, the lock discipline of
mutex-holding classes, and the no-narrowing rule for values that flow into
grid offset arithmetic.

  C1  omp-sharing      every write to (or mutable use of) shared state
                       inside a parallel region - an `#pragma omp
                       parallel` statement, or the body lambda of a
                       `stage_run(ex, n, body)` call, parallel over its
                       first parameter, or a lambda passed as a stage
                       callback (a callable parameter that a schedule
                       function invokes inside a stage_run body),
                       parallel over the parameter that receives the
                       stage index - must be provably private,
                       covered by a reduction/critical/atomic/single/
                       master construct, indexed by the parallel index,
                       per-slot via omp_get_thread_num() or the body's
                       slot parameter, or certified by a
                       `// tvsrace: partitioned(<var>)` annotation naming
                       the parallel index (the wavefront "owned diagonal"
                       pattern); a const region-local object, or a member
                       of one, handed to a call (`tile(lev.a0, lev)`) is a
                       use of the shared names in its initializer
  C2  lock-discipline  every access to a data member of a class that owns
                       a std::mutex happens while that mutex is held
                       (lock_guard / scoped_lock / unique_lock / .lock()
                       in scope) or inside a function annotated
                       `// tvsrace: guarded_by_caller`
  C3  index-narrowing  grid offset arithmetic stays std::ptrdiff_t
                       end-to-end: no static_cast / C-cast / initializer
                       narrowing of .size()/.offset()/.stride()/
                       linear_offset() results (or ptrdiff_t-typed values)
                       into int/unsigned/short - route provably-small
                       values through util::checked_int instead

Annotation grammar (a comment on the flagged line or the line above):
  // tvsrace: allow(C1[,C2...])   suppress specific rules on one line
  // tvsrace: partitioned(k)      certify a parallel region (on its
                                  pragma, stage_run call or stage
                                  callback lambda) whose shared
                                  writes are partitioned by parallel
                                  index k (must name the actual index)
  // tvsrace: guarded_by_caller   this function requires its caller to
                                  hold the owning mutex

Scope: C1 scans src/tiling/ and src/tv/; C2 scans all of src/; C3 scans
src/grid/, src/tiling/ and src/tv/.  Files under a fixtures/ directory
(the analyzer's own test corpus) are in scope for every rule.

Front ends: with the `clang` python bindings and a loadable libclang the
files are tokenized by clang's lexer, taking per-file -I/-D/-std flags
from the exported compile_commands.json (`--mode clang`); otherwise a
comment/string-aware regex scanner is used (`--mode regex`).  Both feed
the same rule logic.

Exit status: 0 clean, 1 violations found, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

RULES = {
    "C1": "omp-sharing: unproven write/mutable access to shared state in "
          "an omp parallel region, stage_run() body or stage callback",
    "C2": "lock-discipline: field of a mutex-owning class accessed "
          "without holding the mutex",
    "C3": "index-narrowing: grid offset/size value narrowed to "
          "int/unsigned/short outside util::checked_int",
}

ALLOW_RE = re.compile(r"tvsrace:\s*allow\(([^)]*)\)")
PART_RE = re.compile(r"tvsrace:\s*partitioned\(\s*(\w+)\s*\)")
GUARD_RE = re.compile(r"tvsrace:\s*guarded_by_caller\b")


@dataclass
class Violation:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class SourceFile:
    """One lexed file.  `scan_lines` has comments and string/char literal
    contents blanked; annotations found in comments are recorded against
    the comment's starting line."""

    path: str
    scan_lines: List[str] = field(default_factory=list)
    allowed: Dict[int, Set[str]] = field(default_factory=dict)
    partitioned: Dict[int, str] = field(default_factory=dict)
    guarded: Set[int] = field(default_factory=set)

    def is_allowed(self, line: int, rule: str) -> bool:
        # An annotation covers its own line and, when it stands alone, the
        # line below it.
        for cand in (line, line - 1):
            if rule in self.allowed.get(cand, set()):
                return True
        return False

    def partition_var(self, line: int) -> Optional[str]:
        for cand in (line, line - 1):
            if cand in self.partitioned:
                return self.partitioned[cand]
        return None

    def is_guarded(self, line: int) -> bool:
        return line in self.guarded or (line - 1) in self.guarded


# ---------------------------------------------------------------------------
# Lexing front ends (tvslint's scanner, extended with the extra marks)
# ---------------------------------------------------------------------------

def _record_marks(sf: SourceFile, text: str, line: int) -> None:
    for m in ALLOW_RE.finditer(text):
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        sf.allowed.setdefault(line, set()).update(rules)
    for m in PART_RE.finditer(text):
        sf.partitioned[line] = m.group(1)
    if GUARD_RE.search(text):
        sf.guarded.add(line)


def lex_regex(path: str, display_path: str) -> SourceFile:
    """Comment/string-aware scanner.  Handles //, /* */, "..." and '...'
    (with escapes); raw strings are not used in this codebase."""
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    sf = SourceFile(display_path)
    scan_out: List[str] = []
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
                scan_cur.append('"')
                i += 1
                continue
            if c == "'":
                state = "squote"
                scan_cur.append("'")
                i += 1
                continue
            if c == "\n":
                scan_out.append("".join(scan_cur))
                scan_cur = []
                line += 1
            else:
                scan_cur.append(c)
            i += 1
        elif state == "line_comment":
            if c == "\n":
                _record_marks(sf, "".join(comment_buf), comment_start)
                scan_out.append("".join(scan_cur))
                scan_cur = []
                line += 1
                state = "code"
            else:
                comment_buf.append(c)
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                _record_marks(sf, "".join(comment_buf), comment_start)
                state = "code"
                i += 2
                continue
            if c == "\n":
                scan_out.append("".join(scan_cur))
                scan_cur = []
                line += 1
            else:
                comment_buf.append(c)
            i += 1
        elif state in ("dquote", "squote"):
            quote = '"' if state == "dquote" else "'"
            if c == "\\":
                i += 2
                continue
            if c == quote:
                scan_cur.append(quote)
                state = "code"
            elif c == "\n":  # unterminated literal: recover per line
                scan_out.append("".join(scan_cur))
                scan_cur = []
                line += 1
                state = "code"
            i += 1
    if state in ("line_comment", "block_comment"):
        _record_marks(sf, "".join(comment_buf), comment_start)
    scan_out.append("".join(scan_cur))
    sf.scan_lines = scan_out
    return sf


def lex_clang(path: str, display_path: str, index,
              extra_args: Sequence[str]) -> SourceFile:
    """Tokenize with clang's lexer; comments become annotation records and
    everything else is reassembled into per-line scan text."""
    import clang.cindex as ci

    tu = index.parse(
        path,
        args=list(extra_args) + ["-fsyntax-only"],
        options=ci.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD,
    )
    sf = SourceFile(display_path)
    with open(path, "r", encoding="utf-8", errors="replace") as f:
        nlines = f.read().count("\n") + 1
    scan: List[List[str]] = [[] for _ in range(nlines + 1)]
    for tok in tu.get_tokens(extent=tu.cursor.extent):
        loc = tok.location
        if loc.file is None or loc.file.name != path:
            continue
        if tok.kind == ci.TokenKind.COMMENT:
            _record_marks(sf, tok.spelling, loc.line)
            continue
        if tok.kind == ci.TokenKind.LITERAL and (
                '"' in tok.spelling or "'" in tok.spelling):
            scan[loc.line].append('""')
        else:
            scan[loc.line].append(tok.spelling)
    sf.scan_lines = [" ".join(row) for row in scan[1:]]
    return sf


def load_cc_args(compile_commands: Optional[str]) -> Dict[str, List[str]]:
    """abs path -> the -I/-D/-std/-isystem flags of its TU entry."""
    db: Dict[str, List[str]] = {}
    if not compile_commands or not os.path.exists(compile_commands):
        return db
    with open(compile_commands, "r", encoding="utf-8") as f:
        for entry in json.load(f):
            ap = os.path.normpath(
                os.path.join(entry.get("directory", ""),
                             entry.get("file", "")))
            args = entry.get("arguments")
            if args is None:
                args = shlex.split(entry.get("command", ""))
            keep: List[str] = []
            take_next = False
            for a in args:
                if take_next:
                    keep.append(a)
                    take_next = False
                elif a in ("-I", "-D", "-isystem"):
                    keep.append(a)
                    take_next = True
                elif a.startswith(("-I", "-D", "-std=", "-isystem")):
                    keep.append(a)
            db[ap] = keep
    return db


def make_lexer(mode: str, cc_args: Dict[str, List[str]]):
    """Returns (lex_fn, resolved_mode)."""
    if mode in ("auto", "clang"):
        try:
            import clang.cindex as ci

            index = ci.Index.create()

            def lex(p: str, d: str) -> SourceFile:
                args = cc_args.get(os.path.normpath(p), ["-std=c++20"])
                if not any(a.startswith("-std=") for a in args):
                    args = args + ["-std=c++20"]
                return lex_clang(p, d, index, args)

            return lex, "clang"
        except Exception as exc:  # no bindings or no loadable libclang
            if mode == "clang":
                raise SystemExit(f"tvsrace: --mode clang unavailable: {exc}")
    return lex_regex, "regex"


# ---------------------------------------------------------------------------
# Flat-text utilities (both front ends feed line-preserving scan text; the
# structural passes work on one flat string with a line map)
# ---------------------------------------------------------------------------

class Flat:
    def __init__(self, sf: SourceFile):
        self.sf = sf
        self.text = "\n".join(sf.scan_lines)
        self.starts = [0]
        for ln in sf.scan_lines[:-1]:
            self.starts.append(self.starts[-1] + len(ln) + 1)

    def line_of(self, idx: int) -> int:
        return bisect.bisect_right(self.starts, idx)  # 1-based

    def idx_of_line(self, line: int) -> int:
        return self.starts[line - 1]


def match_forward(text: str, i: int, open_ch: str, close_ch: str) -> int:
    """Index of the bracket matching text[i] (which must be open_ch), or
    len(text) if unbalanced."""
    depth = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return n


def stmt_extent(text: str, i: int) -> int:
    """End index (exclusive) of the statement starting at text[i]: a `{`
    block runs to its matching brace; otherwise to the first `;` at
    paren/brace depth 0 (so `for (...) for (...) stmt;` is one statement)."""
    n = len(text)
    while i < n and text[i] in " \t\n":
        i += 1
    if i >= n:
        return n
    pdepth = bdepth = 0
    j = i
    while j < n:
        c = text[j]
        if c in "([":
            pdepth += 1
        elif c in ")]":
            pdepth -= 1
        elif c == "{":
            bdepth += 1
        elif c == "}":
            bdepth -= 1
            if bdepth == 0:
                return j + 1
        elif c == ";" and pdepth == 0 and bdepth == 0:
            return j + 1
        j += 1
    return n


# ---------------------------------------------------------------------------
# Block structure (for enclosing-function headers, lock scopes, classes)
# ---------------------------------------------------------------------------

@dataclass
class Block:
    start: int        # flat index of '{'
    end: int          # flat index of matching '}' (exclusive of '}')
    header: str       # text between the previous ;/{/} and this '{'
    header_line: int  # line where the header text starts
    depth: int


CONTROL_KEYWORDS = {"if", "for", "while", "switch", "do", "else", "try",
                    "catch", "return"}


def parse_blocks(flat: Flat) -> List[Block]:
    text = flat.text
    blocks: List[Block] = []
    stack: List[Tuple[int, str, int]] = []
    last_cut = 0
    pdepth = 0
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in "([":
            pdepth += 1
        elif c in ")]":
            pdepth = max(0, pdepth - 1)
        elif c == ";" and pdepth == 0:
            last_cut = i + 1
        elif c == "{" and pdepth == 0:
            header = text[last_cut:i].strip()
            hstart = last_cut
            while hstart < i and text[hstart] in " \t\n":
                hstart += 1
            stack.append((i, header, flat.line_of(min(hstart, i))))
            last_cut = i + 1
        elif c == "}" and pdepth == 0:
            if stack:
                start, header, hline = stack.pop()
                blocks.append(Block(start, i, header, hline, len(stack)))
            last_cut = i + 1
        i += 1
    blocks.sort(key=lambda b: b.start)
    return blocks


def enclosing_blocks(blocks: List[Block], idx: int) -> List[Block]:
    """Blocks containing flat index idx, outermost first."""
    encl = [b for b in blocks if b.start < idx < b.end]
    encl.sort(key=lambda b: b.start)
    return encl


def first_word(header: str) -> str:
    m = re.match(r"\s*([A-Za-z_]\w*)", header)
    return m.group(1) if m else ""


def is_function_block(b: Block) -> bool:
    """A block whose header looks like a function/lambda definition (has a
    parameter list) rather than a control statement / class / namespace."""
    if "(" not in b.header:
        return False
    w = first_word(b.header)
    if w in CONTROL_KEYWORDS or w in ("namespace", "struct", "class",
                                      "enum", "union"):
        return False
    return True


# ---------------------------------------------------------------------------
# Declaration scanning + mutability classification
# ---------------------------------------------------------------------------

SCALAR_TYPES = {
    "int", "long", "short", "bool", "char", "unsigned", "signed", "float",
    "double", "size_t", "ptrdiff_t", "int8_t", "int16_t", "int32_t",
    "int64_t", "uint8_t", "uint16_t", "uint32_t", "uint64_t",
}

# TYPE [&*]* NAME (= | { | ; | () -- whitespace-tolerant so clang-mode
# token-joined text (`grid :: Grid2D < T > & a0 = ...`) also matches.
DECL_RE = re.compile(
    r"^\s*(?P<const>const\s+)?(?:constexpr\s+)?(?P<static>static\s+)?"
    r"(?P<const2>const\s+)?"
    r"(?P<type>[A-Za-z_]\w*(?:\s*::\s*\w+)*(?:\s*<[^;={}]*>)?)"
    r"\s*(?P<refptr>[&*](?:\s*(?:const\s+)?[&*])*(?:\s*const\b)?)?\s+"
    r"(?P<name>[A-Za-z_]\w*)"
    r"(?:(?P<array>(?:\s*\[[^\]]*\])+)\s*(?P<aopen>=(?!=)|\{|;|$)"
    r"|\s*(?P<open>=(?!=)|\{|;|\())"
)

FOR_DECL_RE = re.compile(
    r"\bfor\s*\(\s*(?:const\s+)?"
    r"(?:[A-Za-z_]\w*(?:\s*::\s*\w+)*(?:\s*<[^;]*>)?)"
    r"\s*[&*]?\s*([A-Za-z_]\w*)\s*[=:]"
)

NOT_TYPES = {"return", "delete", "new", "case", "goto", "else", "using",
             "typedef", "throw", "co_return", "break", "continue",
             "sizeof", "alignof", "this"}


@dataclass
class Decl:
    name: str
    type_text: str
    is_const: bool
    is_ref_or_ptr: bool
    line: int
    init: str = ""

    def base_type(self) -> str:
        t = re.sub(r"<.*", "", self.type_text)
        return t.split("::")[-1].strip()

    def category(self) -> str:
        """'readonly' | 'scalar' | 'deep' (mutable through indirection or
        of class type, i.e. a write/mutable use of it can alias shared
        memory)."""
        if self.is_const:
            return "readonly"
        if self.is_ref_or_ptr:
            return "deep"
        if self.base_type() in SCALAR_TYPES:
            return "scalar"
        return "deep"  # class type (vectors, grids, callables, auto)


def scan_decl(line_text: str, line_no: int) -> Optional[Decl]:
    m = DECL_RE.match(line_text)
    if not m:
        return None
    t = m.group("type")
    base = re.sub(r"<.*", "", t).split("::")[0].strip()
    if base in NOT_TYPES or base in CONTROL_KEYWORDS:
        return None
    opener = m.group("open") or m.group("aopen")
    init = line_text[m.end():] if opener in ("=", "(", "{") else ""
    return Decl(
        name=m.group("name"),
        type_text=t,
        is_const=bool(m.group("const") or m.group("const2")),
        is_ref_or_ptr=bool(m.group("refptr") or m.group("array")),
        line=line_no,
        init=init,
    )


CONTROL_HEAD_RE = re.compile(r"^\s*(?:(?:for|if|while|switch)\s*\(|else\b)")


def strip_control_heads(text: str) -> str:
    """`text` without its leading control-statement heads, so the body of
    a one-line `for (...) s += i;` is what remains."""
    while True:
        m = CONTROL_HEAD_RE.match(text)
        if not m:
            return text
        if text[m.end() - 1] != "(":
            text = text[m.end():]
            continue
        close = match_forward(text, m.end() - 1, "(", ")")
        if close >= len(text):
            return text
        text = text[close + 1:]


def last_paren_group(header: str) -> Tuple[int, int]:
    """(open, close) indices of the last balanced top-level paren group of
    a function/lambda header, (-1, -1) if it has none."""
    group = (-1, -1)
    i = 0
    while i < len(header):
        if header[i] == "(":
            j = match_forward(header, i, "(", ")")
            group = (i, j)
            i = j + 1
        else:
            i += 1
    return group


def split_params(header: str) -> List[str]:
    """The parameter declarations of a header's last paren group, split at
    top-level commas (tracking () <> [] nesting)."""
    lo, hi = last_paren_group(header)
    if lo < 0:
        return []
    depth = 0
    part: List[str] = []
    parts: List[str] = []
    for c in header[lo + 1:hi]:
        if c in "(<[":
            depth += 1
        elif c in ")>]":
            depth = max(0, depth - 1)
        if c == "," and depth == 0:
            parts.append("".join(part))
            part = []
        else:
            part.append(c)
    parts.append("".join(part))
    return parts


def param_name(p: str) -> Optional[str]:
    """The name a parameter declaration declares, None if unnamed."""
    ids = re.findall(r"[A-Za-z_]\w*", p.split("=")[0])
    if len(ids) < 2 or ids[-1] in SCALAR_TYPES:
        return None
    return ids[-1]


def parse_params(header: str, header_line: int) -> List[Decl]:
    """Parameter declarations from a function/lambda header (the last
    balanced top-level paren group)."""
    params: List[Decl] = []
    for p in split_params(header):
        p = p.split("=")[0].strip()  # drop default arguments
        name = param_name(p)
        if name is None:
            continue
        type_text = p[:p.rfind(name)].strip()
        base = re.sub(r"<.*", "", type_text).split("::")[-1].strip(" &*")
        params.append(Decl(
            name=name,
            type_text=type_text or "auto",
            is_const="const" in re.findall(r"[A-Za-z_]\w*", type_text),
            is_ref_or_ptr=("&" in type_text or "*" in type_text
                           or "[" in p[p.rfind(name):]),
            line=header_line,
        ))
        params[-1].type_text = base or params[-1].type_text
    return params


# ---------------------------------------------------------------------------
# C1: OpenMP sharing discipline
# ---------------------------------------------------------------------------

PRAGMA_OMP_RE = re.compile(r"#\s*pragma\s+omp\b")
PRAGMA_PAR_RE = re.compile(r"#\s*pragma\s+omp\b.*\bparallel\b")
SAFE_PRAGMA_RE = re.compile(
    r"#\s*pragma\s+omp\b.*\b(critical|atomic|single|master|masked)\b")
CLAUSE_RE = re.compile(
    r"\b(private|firstprivate|lastprivate|shared|reduction)\s*\(([^)]*)\)")
FOR_KEYWORD_RE = re.compile(r"\bfor\s*\(")
THREAD_NUM_RE = re.compile(r"\bomp_get_thread_num\b")
ASSIGN_OP_RE = re.compile(
    r"(\+\+|--|(?:[+\-*/%&|^]|<<|>>)?=(?!=))")
CHAIN_USE_RE = re.compile(r"\b([A-Za-z_]\w*)\s*(\.|->|\[|\()")
# Bulk writes: the standard algorithms and C routines that store through
# one of their arguments, mapped to that argument's position.  Their
# destination is usually pointer arithmetic (`std::copy(a, b, odd - 2)`),
# which no assignment or subscript on the shared name would reveal.
BULK_WRITE_DEST = {"copy": 2, "copy_n": 2, "copy_backward": 2, "fill": 0,
                   "fill_n": 0, "memcpy": 0, "memset": 0}
BULK_WRITE_RE = re.compile(
    r"(?<![\w.>:])(?:std\s*::\s*(copy_backward|copy_n|copy|fill_n|fill"
    r"|memcpy|memset)|(memcpy|memset))\s*\(")


def token_in(name: str, text: str) -> bool:
    return re.search(rf"(?<![\w.]){re.escape(name)}\b", text) is not None


def c1_applies(path: str) -> bool:
    p = norm(path)
    return ("fixtures/" in p or p.startswith(("src/tiling/", "src/tv/"))
            or "/src/tiling/" in p or "/src/tv/" in p)


def split_statements(text: str, base: int) -> List[Tuple[int, str]]:
    """(flat_index, fragment) pairs: text split at ; { } outside ()/[]."""
    out: List[Tuple[int, str]] = []
    depth = 0
    start = 0
    for i, c in enumerate(text):
        if c in "([":
            depth += 1
        elif c in ")]":
            depth = max(0, depth - 1)
        elif c in ";{}" and depth == 0:
            frag = text[start:i]
            if frag.strip():
                out.append((base + start, frag))
            start = i + 1
    frag = text[start:]
    if frag.strip():
        out.append((base + start, frag))
    return out


STAGE_RUN_RE = re.compile(r"\bstage_run\s*\(")
LAMBDA_CALL_RE = re.compile(
    r"^\s*\{?\s*([A-Za-z_]\w*)\s*\([^;{}]*\)\s*;?\s*\}?\s*$")


@dataclass
class Region:
    """One parallel region: the statement under an `#pragma omp parallel`
    or the body a stage_run() call fans out.  A partitioned() annotation
    attaches to `anchor`, the pragma's or the call's line."""
    anchor: int
    start: int                   # flat index of the first body character
    end: int                     # flat index one past the body
    induction: Optional[str] = None  # the parallel index
    slot: Optional[str] = None   # stage_run's runner-slot parameter
    private: Set[str] = field(default_factory=set)
    reductions: Set[str] = field(default_factory=set)


def lambda_at(text: str, lb: int
              ) -> Optional[Tuple[List[Optional[str]], int, int]]:
    """(parameter names, body start, body end) of the lambda whose capture
    list opens at text[lb] == '['; an unnamed parameter is None."""
    cap_end = match_forward(text, lb, "[", "]")
    pstart = text.find("(", cap_end)
    if pstart == -1 or text[cap_end + 1:pstart].strip():
        return None
    pclose = match_forward(text, pstart, "(", ")")
    brace = text.find("{", pclose)
    if brace == -1:
        return None
    names: List[Optional[str]] = []
    for ptok in text[pstart + 1:pclose].split(","):
        ids = re.findall(r"[A-Za-z_]\w*", ptok)
        names.append(ids[-1] if len(ids) >= 2 else None)
    return names, brace + 1, match_forward(text, brace, "{", "}")


def named_lambda(text: str, name: str, before: int
                 ) -> Optional[Tuple[List[Optional[str]], int, int]]:
    """The lambda most recently declared as `auto <name> = [...]` before
    flat index `before`."""
    decls = list(re.finditer(
        rf"\bauto\s+{re.escape(name)}\s*=\s*\[", text[:before]))
    return lambda_at(text, decls[-1].end() - 1) if decls else None


def pragma_regions(sf: SourceFile, flat: Flat) -> List[Region]:
    text = flat.text
    out: List[Region] = []
    for pline, ptext in enumerate(sf.scan_lines, start=1):
        if not PRAGMA_PAR_RE.search(ptext):
            continue
        pend = flat.idx_of_line(pline) + len(ptext)
        reg = Region(pline, pend, pend)
        for cm in CLAUSE_RE.finditer(ptext):
            kind, body = cm.group(1), cm.group(2)
            if kind == "reduction":
                body = body.split(":", 1)[-1]
                reg.reductions.update(
                    v.strip() for v in body.split(",") if v.strip())
            elif kind in ("private", "firstprivate", "lastprivate"):
                reg.private.update(
                    v.strip() for v in body.split(",") if v.strip())
        if re.search(r"\bfor\b", ptext):
            fm = FOR_KEYWORD_RE.search(text, pend)
            if not fm:
                continue
            close = match_forward(text, fm.end() - 1, "(", ")")
            im = re.search(
                r"for\s*\(\s*(?:const\s+)?(?:[\w:]+(?:\s*<[^;]*>)?\s*)?"
                r"[&*]?\s*([A-Za-z_]\w*)\s*=", text[fm.start():close + 1])
            if im:
                reg.induction = im.group(1)
            reg.start = close + 1
        reg.end = stmt_extent(text, reg.start)
        # A loop body that only calls a lambda declared above is analyzed
        # as that lambda's body (its parameters are per-invocation
        # private); otherwise its writes would be invisible here.
        lam_call = LAMBDA_CALL_RE.match(text[reg.start:reg.end])
        lam = lam_call and named_lambda(text, lam_call.group(1),
                                        flat.idx_of_line(pline))
        if lam:
            names, reg.start, reg.end = lam
            reg.private.update(n for n in names if n)
        out.append(reg)
    return out


def split_args(text: str, open_idx: int, close_idx: int
               ) -> List[Tuple[int, str]]:
    """(flat_index, text) of the top-level arguments between the call's
    parentheses at open_idx and close_idx."""
    out: List[Tuple[int, str]] = []
    depth = 0
    start = open_idx + 1
    for i in range(open_idx + 1, close_idx):
        c = text[i]
        if c in "([{":
            depth += 1
        elif c in ")]}":
            depth -= 1
        elif c == "," and depth == 0:
            out.append((start, text[start:i]))
            start = i + 1
    out.append((start, text[start:close_idx]))
    return out


def body_lambda(text: str, arg: Tuple[int, str], before: int
                ) -> Optional[Tuple[int, Tuple[List[Optional[str]], int,
                                               int]]]:
    """(flat index, lambda_at() result) of a body argument that is a lambda
    or the name of one declared before flat index `before`."""
    bidx, body = arg
    at = bidx + len(body) - len(body.lstrip())
    if body.strip().startswith("["):
        lam = lambda_at(text, at)
    elif re.fullmatch(r"\s*[A-Za-z_]\w*\s*", body):
        lam = named_lambda(text, body.strip(), before)
    else:
        lam = None
    return (at, lam) if lam else None


def calls_of(text: str, name: str):
    """(match, argument list) of every call of `name` in text, explicit
    template arguments allowed; declarations and definitions (a word
    other than `return` right before the name) are skipped."""
    for m in re.finditer(
            rf"\b{re.escape(name)}\s*(?:<[^;{{}}()]*>)?\s*\(", text):
        prev = re.search(r"(\w+)$", text[:m.start()].rstrip())
        if prev and prev.group(1) != "return":
            continue
        close = match_forward(text, m.end() - 1, "(", ")")
        yield m, split_args(text, m.end() - 1, close)


UNFOLLOWABLE = ("body tvsrace cannot follow (pass a lambda or the name of "
                "one declared above the call)")


def stage_run_regions(sf: SourceFile, flat: Flat
                      ) -> Tuple[List[Region], List[Violation]]:
    """Every stage_run(<ex>, <n>, <body>) call is a parallel region over
    the body lambda's first parameter; its second is the runner slot,
    unique among the bodies running at once.  The body must be a lambda
    or the name of one declared above the call: anything else is a
    finding, since its writes could not be checked."""
    text = flat.text
    regions: List[Region] = []
    viols: List[Violation] = []
    for m, args in calls_of(text, "stage_run"):
        line = flat.line_of(m.start())
        found = body_lambda(text, args[2], m.start()) \
            if len(args) == 3 else None
        if not found:
            if not sf.is_allowed(line, "C1"):
                viols.append(Violation(sf.path, line, "C1",
                                       "stage_run() " + UNFOLLOWABLE))
            continue
        names, start, end = found[1]
        regions.append(Region(
            line, start, end, induction=names[0] if names else None,
            slot=names[1] if len(names) > 1 else None,
            private={n for n in names if n}))
    return regions, viols


# A stage callback: a callable parameter of a schedule function that the
# function invokes inside a stage_run() body.  Keyed by (schedule name,
# parameter position); the value holds the positions of the callback's
# arguments that carry the stage's parallel index and its runner slot.
Callbacks = Dict[Tuple[str, int], Tuple[Optional[int], Optional[int]]]


def stage_callbacks(sf: SourceFile, flat: Flat, blocks: List[Block],
                    out: Callbacks) -> None:
    """Records into `out` the stage callbacks of the schedule functions
    defined in this file.  A callback argument carries the index when it
    mentions the stage body's first parameter or a local computed from
    it; it carries the slot when it is the body's second parameter."""
    text = flat.text
    for reg in stage_run_regions(sf, flat)[0]:
        funcs = [b for b in enclosing_blocks(blocks, reg.start)
                 if is_function_block(b)]
        if not funcs or reg.induction is None:
            continue
        header = funcs[-1].header
        lo, _ = last_paren_group(header)
        fname = re.search(r"(\w+)\s*$", header[:lo])
        if not fname:
            continue
        params = [param_name(p) for p in split_params(header)]
        body = text[reg.start:reg.end]
        derived = {reg.induction}
        for dm in re.finditer(r"\b([A-Za-z_]\w*)\s*=(?!=)([^;]*);", body):
            if any(token_in(n, dm.group(2)) for n in derived):
                derived.add(dm.group(1))
        for pos, pname in enumerate(params):
            if pname is None:
                continue
            for _, args in calls_of(body, pname):
                index = slot = None
                for i, (_, a) in enumerate(args):
                    if reg.slot is not None and a.strip() == reg.slot:
                        slot = i
                    elif index is None and any(token_in(n, a)
                                               for n in derived):
                        index = i
                out[(fname.group(1), pos)] = (index, slot)


def callback_regions(sf: SourceFile, flat: Flat, callbacks: Callbacks
                     ) -> Tuple[List[Region], List[Violation]]:
    """Every lambda passed as a stage callback is a parallel region over
    the callback parameter that receives the stage's index, with the
    parameter that receives the runner slot as its slot.  A
    partitioned() annotation goes on the line of, or above, the lambda."""
    text = flat.text
    regions: List[Region] = []
    viols: List[Violation] = []
    for fname in sorted({f for f, _ in callbacks}):
        for m, args in calls_of(text, fname):
            for (f, pos), (index, slot) in sorted(callbacks.items()):
                if f != fname or pos >= len(args):
                    continue
                found = body_lambda(text, args[pos], m.start())
                if not found:
                    line = flat.line_of(args[pos][0])
                    if not sf.is_allowed(line, "C1"):
                        viols.append(Violation(
                            sf.path, line, "C1",
                            f"{fname}() stage callback " + UNFOLLOWABLE))
                    continue
                at, (names, start, end) = found
                pick = (lambda i: names[i]
                        if i is not None and i < len(names) else None)
                regions.append(Region(
                    flat.line_of(at), start, end, induction=pick(index),
                    slot=pick(slot), private={n for n in names if n}))
    return regions, viols


def check_omp(sf: SourceFile, flat: Flat, blocks: List[Block],
              callbacks: Callbacks) -> List[Violation]:
    text = flat.text

    # ---- collect file-visible declarations, line by line (last-wins) -----
    all_decls: List[Decl] = []
    for ln, lt in enumerate(sf.scan_lines, start=1):
        if not lt.strip():
            continue
        d = scan_decl(lt, ln)
        if d:
            all_decls.append(d)

    stage_regions, found = stage_run_regions(sf, flat)
    cb_regions, cb_viols = callback_regions(sf, flat, callbacks)
    found.extend(cb_viols)
    for reg in pragma_regions(sf, flat) + stage_regions + cb_regions:
        pline = reg.anchor
        pidx = flat.idx_of_line(pline)
        body_start, body_end = reg.start, reg.end
        region = text[body_start:body_end]
        induction = reg.induction
        reduction_vars = reg.reductions
        region_line0 = flat.line_of(body_start)
        region_line1 = flat.line_of(max(body_start, body_end - 1))

        part_var = sf.partition_var(pline)
        region_viols: List[Violation] = []

        def add(idx: int, msg: str) -> None:
            ln = flat.line_of(idx)
            if not sf.is_allowed(ln, "C1"):
                region_viols.append(Violation(sf.path, ln, "C1", msg))

        # nested safe constructs: their statement extents are exempt
        safe_spans: List[Tuple[int, int]] = []
        for sln in range(region_line0, region_line1 + 1):
            st = sf.scan_lines[sln - 1]
            if SAFE_PRAGMA_RE.search(st):
                s0 = flat.idx_of_line(sln) + len(st)
                safe_spans.append((flat.idx_of_line(sln),
                                   stmt_extent(text, s0)))

        def in_safe(idx: int) -> bool:
            return any(a <= idx < b for a, b in safe_spans)

        # outer declarations visible at the region: file statements above
        # it plus enclosing function/lambda parameters (innermost wins).
        outer: Dict[str, Decl] = {}
        for d in all_decls:
            if d.line < min(pline, region_line0):
                outer[d.name] = d
        for b in enclosing_blocks(blocks, pidx):
            if is_function_block(b):
                for d in parse_params(b.header, b.header_line):
                    outer[d.name] = d

        # region-local declarations: private unless initialized from a
        # shared deep-mutable object (then they alias shared memory) --
        # except when the initializer goes through the runner's slot.
        private: Set[str] = set(reg.private)
        if induction:
            private.add(induction)
        derived: Set[str] = set()

        def per_slot(chunk: str) -> bool:
            return (THREAD_NUM_RE.search(chunk) is not None
                    or (reg.slot is not None and token_in(reg.slot, chunk)))

        def shared_deep(name: str) -> bool:
            if name in private or name in derived or name in reduction_vars:
                return False
            d = outer.get(name)
            return d is not None and d.category() == "deep"

        def proven(chunk: str) -> bool:
            if induction and token_in(induction, chunk):
                return True
            return per_slot(chunk)

        fragments = split_statements(region, body_start)
        # const locals whose initializer names shared memory (name ->
        # initializer): a member of one handed to a call hands on that
        # shared memory, e.g. `const Levels lev{odd}; tile(lev.a0)`.
        held: Dict[str, str] = {}

        def decl_of(fidx: int, frag: str) -> Optional[Decl]:
            """The fragment's declaration; a brace-initialized one
            (`T name{...}`) ends where split_statements cut it at its `{`,
            so its initializer is the brace group that follows."""
            d = scan_decl(frag.strip(), flat.line_of(fidx))
            brace = fidx + len(frag)
            if d or brace >= body_end or text[brace] != "{":
                return d
            d = scan_decl(frag.strip() + "{", flat.line_of(fidx))
            if d:
                d.init = text[brace + 1:match_forward(text, brace, "{", "}")]
            return d

        # pass 1: declarations (so later fragments see earlier locals)
        for fidx, frag in fragments:
            for im2 in FOR_DECL_RE.finditer(frag):
                private.add(im2.group(1))
            d = decl_of(fidx, frag)
            if d:
                shares = any(shared_deep(t) or t in derived
                             for t in re.findall(r"[A-Za-z_]\w*", d.init))
                if per_slot(d.init):
                    private.add(d.name)
                elif not d.is_const and shares:
                    derived.add(d.name)
                else:
                    private.add(d.name)
                    if shares and not proven(d.init):
                        held[d.name] = d.init

        def write_to(base: str, idx: int, lv: str) -> None:
            """Reports a write to `base` (lvalue text `lv`) at flat index
            idx unless it is private, guarded or proven partitioned."""
            if base in private or base in reduction_vars:
                return
            if in_safe(idx) or proven(lv):
                return
            if base in derived or shared_deep(base):
                add(idx,
                    f"write to shared '{base}' in this parallel "
                    "region has no partition proof (index it by "
                    f"the parallel variable, use a reduction/"
                    "critical section, or certify the region with "
                    "'// tvsrace: partitioned(<index>)')")
            elif base not in outer:
                add(idx,
                    f"write to '{base}' which tvsrace cannot prove "
                    "thread-private (declare it in the region, "
                    "list it in a private()/reduction() clause, or "
                    "annotate)")
            elif outer[base].category() != "readonly":
                add(idx,
                    f"write to shared {outer[base].category()} "
                    f"'{base}' in a parallel region (every "
                    "iteration races on it; use reduction/"
                    "critical or make it per-thread)")

        # pass 2: writes and mutable uses
        for fidx, frag in fragments:
            if PRAGMA_OMP_RE.search(frag):
                continue
            stripped = frag.strip()
            d = scan_decl(stripped, flat.line_of(fidx))
            scan_text = d.init if d else frag
            scan_base = fidx + (len(frag) - len(scan_text)) if d else fidx

            # (a) assignments / increments at bracket depth 0
            if not d:
                depth = 0
                for am in ASSIGN_OP_RE.finditer(frag):
                    pre = frag[:am.start()]
                    depth = (pre.count("(") + pre.count("[")
                             - pre.count(")") - pre.count("]"))
                    if depth != 0:
                        continue
                    pre = strip_control_heads(pre)
                    op = am.group(1)
                    lv = pre if op not in ("++", "--") else None
                    if lv is None:
                        around = frag[max(0, am.start() - 40):am.end() + 40]
                        lv = around
                        ids = re.findall(r"[A-Za-z_]\w*", pre.split(";")[-1])
                        base = ids[0] if ids else None
                    else:
                        ids = re.findall(r"[A-Za-z_]\w*", lv)
                        base = ids[0] if ids else None
                    if base is not None:
                        write_to(base, fidx + am.start(), lv)

            # (a') bulk writes: the destination argument of a copy/fill
            # or memcpy/memset is a write to its base identifier.
            for bm in BULK_WRITE_RE.finditer(scan_text):
                fn = bm.group(1) or bm.group(2)
                open_idx = bm.end() - 1
                close_idx = match_forward(scan_text, open_idx, "(", ")")
                args = split_args(scan_text, open_idx, close_idx)
                pos = BULK_WRITE_DEST[fn]
                if pos >= len(args):
                    continue
                aidx, atext = args[pos]
                ids = re.findall(r"[A-Za-z_]\w*", atext)
                if ids:
                    write_to(ids[0], scan_base + aidx, atext)

            # (b)+(c) mutable uses of shared objects: member/subscript/
            # call through a shared deep base, or passing it bare to a
            # call - each needs an induction/thread proof or annotation.
            for cm2 in CHAIN_USE_RE.finditer(scan_text):
                base = cm2.group(1)
                if not (base in derived or shared_deep(base)):
                    continue
                if in_safe(scan_base + cm2.start()):
                    continue
                j = cm2.start()
                depth2 = 0
                k = j
                while k < len(scan_text):
                    c = scan_text[k]
                    if c in "([":
                        depth2 += 1
                    elif c in ")]":
                        if depth2 == 0:
                            break
                        depth2 -= 1
                    elif depth2 == 0 and c in ",;" :
                        break
                    k += 1
                chunk = scan_text[j:k]
                if proven(chunk):
                    continue
                add(scan_base + j,
                    f"shared mutable '{base}' used in a parallel region "
                    "without a partition proof (index the access by the "
                    "parallel variable, take it const, or certify with "
                    "'// tvsrace: partitioned(<index>)')")
            # a const local holding shared memory, or a member of one,
            # passed as a call argument: a use of the shared names it was
            # built from
            for hm in re.finditer(
                    r"(?<=[(,])\s*([A-Za-z_]\w*)"
                    r"(?:\s*(?:\.|->)\s*\w+[^,()]*)?(?=[,)])", scan_text):
                base = hm.group(1)
                if base not in held or proven(hm.group(0)):
                    continue
                if in_safe(scan_base + hm.start(1)):
                    continue
                names = sorted({t for t in re.findall(r"[A-Za-z_]\w*",
                                                      held[base])
                                if shared_deep(t) or t in derived})
                add(scan_base + hm.start(1),
                    f"shared mutable {', '.join(repr(n) for n in names)} "
                    f"passed to a call through '{hm.group(0).strip()}' "
                    "in a parallel region without a partition proof (the "
                    "callee may write through it; build the object from "
                    "the parallel index, or certify the region with "
                    "'// tvsrace: partitioned(<index>)')")
            # bare shared identifiers passed as call arguments
            for argm in re.finditer(
                    r"(?<=[(,])\s*([A-Za-z_]\w*)\s*(?=[,)])", scan_text):
                base = argm.group(1)
                if not (base in derived or shared_deep(base)):
                    continue
                if in_safe(scan_base + argm.start(1)):
                    continue
                add(scan_base + argm.start(1),
                    f"shared mutable '{base}' passed to a call in a "
                    "parallel region without a partition proof (the "
                    "callee may write through it; certify the region "
                    "with '// tvsrace: partitioned(<index>)' if writes "
                    "are partitioned by the parallel index)")

        # annotation certification
        if part_var is not None:
            if induction is not None and part_var == induction:
                region_viols = []  # certified: the owned-diagonal pattern
            else:
                region_viols.append(Violation(
                    sf.path, pline, "C1",
                    f"'tvsrace: partitioned({part_var})' does not name the "
                    f"region's parallel index"
                    + (f" '{induction}'" if induction else
                       " (region has no parallel index)")))
        found.extend(region_viols)
    return found


# ---------------------------------------------------------------------------
# C2: lock discipline for mutex-owning classes
# ---------------------------------------------------------------------------

MUTEX_FIELD_RE = re.compile(
    r"(?:std\s*::\s*)?(?:mutex|shared_mutex|recursive_mutex)\s+"
    r"([A-Za-z_]\w*)\s*;")
CLASS_HDR_RE = re.compile(r"\b(?:struct|class)\s+([A-Za-z_]\w*)?")
FIELD_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:[A-Za-z_][\w:]*(?:\s*<[^;={}]*>)?)\s*"
    r"[&*]?\s*([A-Za-z_]\w*)\s*(?:;|=|\{)")
LOCK_RE = re.compile(
    r"\b(?:lock_guard|scoped_lock|unique_lock|shared_lock)\b"
    r"(?:\s*<[^;()]*>)?\s+\w+\s*[({]([^)}]*)[)}]"
    r"|\b(?:[A-Za-z_]\w*(?:\s*(?:\.|->)\s*))?([A-Za-z_]\w*)\s*"
    r"(?:\.|->)\s*lock\s*\(\s*\)")


def c2_applies(path: str) -> bool:
    p = norm(path)
    return "fixtures/" in p or p.startswith("src/") or "/src/" in p


def check_locks(sf: SourceFile, flat: Flat,
                blocks: List[Block]) -> List[Violation]:
    found: List[Violation] = []
    text = flat.text

    # classes owning a std::mutex
    classes: List[Tuple[Block, str, Set[str], Set[str]]] = []
    for b in blocks:
        hm = CLASS_HDR_RE.search(b.header)
        if not hm:
            continue
        body_lines = range(flat.line_of(b.start), flat.line_of(b.end) + 1)
        mutexes: Set[str] = set()
        fields: Set[str] = set()
        depth_one = [bb for bb in blocks
                     if b.start < bb.start and bb.end < b.end]
        for ln in body_lines:
            lt = sf.scan_lines[ln - 1]
            lidx = flat.idx_of_line(ln)
            # only direct members: skip lines inside nested blocks
            if any(bb.start < lidx < bb.end for bb in depth_one):
                continue
            for mm in MUTEX_FIELD_RE.finditer(lt):
                mutexes.add(mm.group(1))
            fm = FIELD_DECL_RE.match(lt)
            if fm and "(" not in lt.split(fm.group(1))[0]:
                fields.add(fm.group(1))
        if mutexes:
            classes.append((b, hm.group(1) or "<anonymous>",
                            mutexes, fields - mutexes))

    for cblock, cname, mutexes, fields in classes:
        if not fields:
            continue
        # lock scopes: from the lock statement to the end of its innermost
        # enclosing block
        lock_spans: List[Tuple[int, int]] = []
        for lm in LOCK_RE.finditer(text):
            arg = lm.group(1) or lm.group(2) or ""
            if not any(re.search(rf"\b{re.escape(mx)}\b", arg)
                       for mx in mutexes):
                continue
            encl = enclosing_blocks(blocks, lm.start())
            end = encl[-1].end if encl else len(text)
            lock_spans.append((lm.start(), end))

        def locked(idx: int) -> bool:
            return any(a <= idx < b for a, b in lock_spans)

        def guarded_fn(idx: int) -> bool:
            for b in enclosing_blocks(blocks, idx):
                if is_function_block(b) and (
                        sf.is_guarded(b.header_line)
                        or sf.is_guarded(flat.line_of(b.start))):
                    return True
            return False

        field_alt = "|".join(sorted(re.escape(f) for f in fields))
        member_re = re.compile(rf"(?:\.|->)\s*({field_alt})\b")
        bare_re = re.compile(rf"(?<![\w.>])({field_alt})\b")
        for ln, lt in enumerate(sf.scan_lines, start=1):
            if not lt.strip():
                continue
            lidx = flat.idx_of_line(ln)
            hits = list(member_re.finditer(lt))
            inside = cblock.start < lidx < cblock.end
            if inside:
                fm = FIELD_DECL_RE.match(lt)
                decl_name = fm.group(1) if fm else None
                hits += [m for m in bare_re.finditer(lt)
                         if m.group(1) != decl_name]
            for m in hits:
                idx = lidx + m.start()
                if locked(idx) or guarded_fn(idx):
                    continue
                if inside and not any(
                        b.start < idx < b.end for b in blocks
                        if b.start > cblock.start and b.end < cblock.end):
                    continue  # the member declaration itself
                if sf.is_allowed(ln, "C2"):
                    continue
                found.append(Violation(
                    sf.path, ln, "C2",
                    f"field '{m.group(len(m.groups()))}' of mutex-owning "
                    f"class '{cname}' accessed without holding "
                    f"{'/'.join(sorted(mutexes))} (lock it, or annotate "
                    "the function '// tvsrace: guarded_by_caller')"))
    return found


# ---------------------------------------------------------------------------
# C3: index/narrowing dataflow into offset arithmetic
# ---------------------------------------------------------------------------

TERM_RE = re.compile(
    r"(?:\.|->)\s*(?:size|offset|stride|ystride|zstride)\s*\("
    r"|\blinear_offset\s*\(")
PTRDIFF_DECL_RE = re.compile(r"\bptrdiff_t\s*[&*]?\s+([A-Za-z_]\w*)")
NARROW_CAST_RE = re.compile(
    r"\bstatic_cast\s*<\s*(?:const\s+)?"
    r"(int|unsigned(?:\s+int)?|short|std\s*::\s*u?int(?:8|16|32)_t)\s*>")
NARROW_DECL_RE = re.compile(
    r"^\s*(?:const\s+)?(int|unsigned(?:\s+int)?|short)\s+"
    r"[A-Za-z_]\w*\s*=\s*(.+)$")
C_CAST_RE = re.compile(r"\(\s*(int|unsigned|short)\s*\)")


def c3_applies(path: str) -> bool:
    p = norm(path)
    return ("fixtures/" in p
            or p.startswith(("src/grid/", "src/tiling/", "src/tv/"))
            or any(s in p for s in ("/src/grid/", "/src/tiling/",
                                    "/src/tv/")))


def check_narrowing(sf: SourceFile) -> List[Violation]:
    found: List[Violation] = []
    ptrdiff_names: Set[str] = set()
    for lt in sf.scan_lines:
        for m in PTRDIFF_DECL_RE.finditer(lt):
            ptrdiff_names.add(m.group(1))

    def has_term(expr: str) -> bool:
        if TERM_RE.search(expr):
            return True
        return any(token_in(n, expr) for n in ptrdiff_names)

    def add(ln: int, msg: str) -> None:
        if not sf.is_allowed(ln, "C3"):
            found.append(Violation(sf.path, ln, "C3", msg))

    for ln, lt in enumerate(sf.scan_lines, start=1):
        if not lt.strip():
            continue
        for m in NARROW_CAST_RE.finditer(lt):
            i = lt.find("(", m.end())
            if i < 0:
                continue
            j = match_forward(lt, i, "(", ")")
            operand = lt[i:j + 1]
            if has_term(operand) and "checked_int" not in operand:
                dest = re.sub(r"\s+", " ", m.group(1))
                add(ln,
                    f"static_cast<{dest}> narrows a grid size/offset "
                    "value; keep it std::ptrdiff_t or route it through "
                    "util::checked_int()")
        dm = NARROW_DECL_RE.match(lt)
        if dm and has_term(dm.group(2)) \
                and "checked_int" not in dm.group(2) \
                and "static_cast" not in dm.group(2):
            add(ln,
                f"initializing {dm.group(1)} from a grid size/offset "
                "value narrows it implicitly; keep it std::ptrdiff_t or "
                "use util::checked_int()")
        for m in C_CAST_RE.finditer(lt):
            rest = lt[m.end():]
            if has_term(rest.split(";")[0]):
                add(ln,
                    f"C-style ({m.group(1)}) cast on a grid size/offset "
                    "value; use util::checked_int() (and never C casts)")
    return found


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

SCAN_DIRS = ("src",)
SCAN_EXTS = (".cpp", ".hpp", ".h", ".cc")


def norm(path: str) -> str:
    return path.replace(os.sep, "/")


def discover_files(repo: str,
                   compile_commands: Optional[str]) -> List[str]:
    """Repo-relative paths to analyze: headers + sources under src/, plus
    any compile_commands.json TU that lives there (so generated TUs are
    never silently skipped)."""
    rels: Set[str] = set()
    try:
        out = subprocess.run(
            ["git", "-C", repo, "ls-files", "--"] +
            [f"{d}/" for d in SCAN_DIRS],
            capture_output=True, text=True, check=True).stdout
        rels.update(p for p in out.splitlines() if p.endswith(SCAN_EXTS))
    except (OSError, subprocess.CalledProcessError):
        for d in SCAN_DIRS:
            for root, _dirs, fnames in os.walk(os.path.join(repo, d)):
                for fname in fnames:
                    if fname.endswith(SCAN_EXTS):
                        rels.add(norm(os.path.relpath(
                            os.path.join(root, fname), repo)))
    if compile_commands and os.path.exists(compile_commands):
        with open(compile_commands, "r", encoding="utf-8") as f:
            for entry in json.load(f):
                p = entry.get("file", "")
                ap = os.path.normpath(
                    os.path.join(entry.get("directory", ""), p))
                rel = norm(os.path.relpath(ap, repo))
                if not rel.startswith("..") and rel.endswith(SCAN_EXTS) \
                        and rel.split("/")[0] in SCAN_DIRS:
                    rels.add(rel)
    return sorted(rels)


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="tvsrace", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("files", nargs="*",
                    help="explicit files to analyze (default: src/ tree)")
    ap.add_argument("--repo", default=None,
                    help="repository root (default: two dirs above this "
                         "script)")
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json exported by CMake "
                         "(default: <repo>/build/compile_commands.json "
                         "when present); an explicitly given path must "
                         "exist")
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
            print(f"tvsrace: unknown rule(s): {', '.join(sorted(unknown))}",
                  file=sys.stderr)
            return 2

    compile_commands = args.compile_commands
    if compile_commands is not None and not os.path.exists(compile_commands):
        print(f"tvsrace: compile commands database not found: "
              f"{compile_commands}", file=sys.stderr)
        return 2
    if compile_commands is None:
        cand = os.path.join(repo, "build", "compile_commands.json")
        compile_commands = cand if os.path.exists(cand) else None

    lex, mode = make_lexer(args.mode, load_cc_args(compile_commands))

    if args.files:
        pairs = [(os.path.abspath(f),
                  norm(os.path.relpath(os.path.abspath(f), repo))
                  if os.path.abspath(f).startswith(repo + os.sep)
                  else norm(f))
                 for f in args.files]
    else:
        pairs = [(os.path.join(repo, rel), rel)
                 for rel in discover_files(repo, compile_commands)]

    lexed = []
    for apath, rel in pairs:
        if not os.path.exists(apath):
            print(f"tvsrace: no such file: {apath}", file=sys.stderr)
            return 2
        sf = lex(apath, rel)
        flat = Flat(sf)
        needs_blocks = ("C1" in active and c1_applies(rel)) or \
                       ("C2" in active and c2_applies(rel))
        lexed.append((rel, sf, flat,
                      parse_blocks(flat) if needs_blocks else []))
    # The stage callbacks of every schedule function in C1's scope first:
    # a driver's callback lambdas are regions of the driver's file.
    callbacks: Callbacks = {}
    if "C1" in active:
        for rel, sf, flat, blocks in lexed:
            if c1_applies(rel):
                stage_callbacks(sf, flat, blocks, callbacks)

    violations: List[Violation] = []
    nfiles = len(lexed)
    for rel, sf, flat, blocks in lexed:
        if "C1" in active and c1_applies(rel):
            violations.extend(check_omp(sf, flat, blocks, callbacks))
        if "C2" in active and c2_applies(rel):
            violations.extend(check_locks(sf, flat, blocks))
        if "C3" in active and c3_applies(rel):
            violations.extend(check_narrowing(sf))

    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    seen: Set[Tuple[str, int, str]] = set()
    uniq: List[Violation] = []
    for v in violations:
        key = (v.path, v.line, v.rule)
        if key not in seen:
            seen.add(key)
            uniq.append(v)
    for v in uniq:
        print(v.render())
    if not args.quiet:
        print(f"tvsrace: {nfiles} files, {len(uniq)} violation(s) "
              f"[mode={mode}]", file=sys.stderr)
    return 1 if uniq else 0


if __name__ == "__main__":
    sys.exit(main())
