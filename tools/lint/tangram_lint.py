#!/usr/bin/env python3
"""tangram-lint: repo-invariant checker for the Tangram C++ tree.

Scans src/ and tests/ (.h / .cpp) for determinism hazards and hot-path
hygiene violations that ordinary compilers and clang-tidy do not model:

  Nondeterminism hazards
    unordered-container   std::unordered_{map,set,multimap,multiset} in src/.
                          Iteration order is implementation-defined, which
                          silently breaks the byte-identical golden hashes.
                          The tree has zero uses today; this rule freezes it.
    raw-rng               std::random_device / std::mt19937 / rand() outside
                          common/rng.h.  All randomness must flow through the
                          seeded common::Rng (PCG32: a 64-bit LCG with an
                          output permutation).
    wall-clock            system_clock / steady_clock / high_resolution_clock
                          / gettimeofday / clock_gettime / time() reads.
                          Simulation-visible time comes from sim::Simulator;
                          the one sanctioned real-clock read is
                          experiments::wall_clock_ms() (allowlisted).
    pointer-ordering      Relational comparison of pointer values (`.get() <`,
                          std::less<T*>, `&a < &b`).  Heap addresses vary run
                          to run, so any pointer-ordered container or sort is
                          a nondeterminism bug.

  Hot-path hygiene
    hot-path-alloc        `new` / make_unique / make_shared inside a function
                          marked TANGRAM_HOT_PATH (common/hot_path.h).  The
                          steady-state dispatch pipeline is allocation-free
                          (pinned by test_dispatch_alloc); the marker makes
                          the contract visible at the definition site and
                          this rule enforces it statically.
    hot-path-push-back    push_back inside a TANGRAM_HOT_PATH function with
                          no mention of "reserve" on the same line or within
                          the two lines above.  Growth must be amortized into
                          warm-up; the comment documents why the push cannot
                          reallocate in steady state.

  Header hygiene
    header-using-namespace  `using namespace` at any scope in a header.
    header-guard            First non-comment line of a header must be
                            `#pragma once`.

Findings print as `path:line: [rule-id] message`, one per line; exit status
is 1 if anything fired, 0 when clean.

Suppression:
  * inline, per line:     // tangram-lint: allow(rule-id[, rule-id...])
  * per file, by rule:    an allowlist file (default tools/lint/allowlist.txt
    under the scan root) with `rule-id path-glob` lines; globs match the
    file's path relative to the scan root.

The scanner works on a comment- and string-stripped "code view" of each file
(so a rule never fires on prose), except that the push_back "reserve" lookup
and inline-allow markers deliberately read raw lines, comments included.

Known heuristic limits (documented, accepted): TANGRAM_HOT_PATH region
detection takes the first `{` at paren depth zero after the marker as the
body start, so annotating a constructor with a brace-init member list would
mis-detect the body — annotate only ordinary functions.
"""

from __future__ import annotations

import argparse
import dataclasses
import fnmatch
import pathlib
import re
import sys

# ---------------------------------------------------------------------------
# Findings and rules


@dataclasses.dataclass(frozen=True)
class Finding:
    path: str  # relative to scan root, POSIX separators
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# Rules keyed by id: (pattern, message, header_only, src_only).
_TOKEN_RULES = {
    "unordered-container": (
        re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\b"),
        "std::unordered_* containers are banned in src/ (iteration order is "
        "implementation-defined); use std::map/std::set or a sorted vector",
    ),
    "raw-rng": (
        re.compile(
            r"\bstd::(?:random_device|mt19937(?:_64)?|minstd_rand0?"
            r"|default_random_engine|knuth_b|ranlux\w+)\b"
            r"|(?<![\w.])s?rand\s*\("
        ),
        "raw RNG outside common/rng.h; draw from a seeded common::Rng instead",
    ),
    "wall-clock": (
        re.compile(
            r"\b(?:system_clock|steady_clock|high_resolution_clock)\b"
            r"|\b(?:gettimeofday|clock_gettime|timespec_get)\s*\("
            r"|(?<![\w.])time\s*\("
        ),
        "wall-clock read; simulation time comes from sim::Simulator, real "
        "timing must route through experiments::wall_clock_ms()",
    ),
    "pointer-ordering": (
        re.compile(
            r"\.get\(\)\s*(?:<=|>=|<(?![<=])|>(?![>=]))"  # smart-ptr compare
            r"|\bstd::(?:less|greater|less_equal|greater_equal)"
            r"<[^<>]*\*\s*>"  # ordered functor over T*
            r"|&\s*\w+(?:\[\w+\])?\s*(?:<=|>=|<(?![<=])|>(?![>=]))\s*&\s*\w+"
        ),
        "pointer values ordered by address; addresses vary run to run — "
        "order by a stable id instead",
    ),
}

_HOT_ALLOC_RE = re.compile(r"\bnew\b|\bmake_unique\b|\bmake_shared\b")
_HOT_PUSH_BACK_RE = re.compile(r"\bpush_back\s*\(")
_RESERVE_RE = re.compile(r"reserve", re.IGNORECASE)
_USING_NAMESPACE_RE = re.compile(r"\busing\s+namespace\b")
_PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\b")
_HOT_MARKER_RE = re.compile(r"\bTANGRAM_HOT_PATH\b")
_INLINE_ALLOW_RE = re.compile(r"tangram-lint:\s*allow\(([a-zA-Z0-9_,\- ]+)\)")

RULE_IDS = sorted(
    [
        *_TOKEN_RULES,
        "hot-path-alloc",
        "hot-path-push-back",
        "header-using-namespace",
        "header-guard",
    ]
)


# ---------------------------------------------------------------------------
# Code view: strip comments, string literals, and char literals, preserving
# the line structure so findings keep their real line numbers.


def strip_to_code(text: str) -> str:
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                # Raw string literal: R"delim( ... )delim"
                if i >= 1 and text[i - 1] == "R" and (i < 2 or not text[i - 2].isalnum()):
                    m = re.compile(r'R"([^\s()\\]{0,16})\(').match(text, i - 1)
                    if m:
                        close = text.find(f'){m.group(1)}"', m.end())
                        close = n if close < 0 else close + len(m.group(1)) + 2
                        chunk = text[i:close]
                        out.append("".join("\n" if ch == "\n" else " " for ch in chunk))
                        i = close
                        continue
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
        else:  # string or char
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(out)


# ---------------------------------------------------------------------------
# TANGRAM_HOT_PATH region detection


def find_hot_regions(code: str) -> list[tuple[int, int]]:
    """Return (start_line, end_line) 1-based inclusive body ranges for every
    TANGRAM_HOT_PATH-marked function definition in the code view."""
    # Blank preprocessor lines so the marker's own #define never matches.
    lines = code.split("\n")
    scan = "\n".join("" if ln.lstrip().startswith("#") else ln for ln in lines)

    regions = []
    for m in _HOT_MARKER_RE.finditer(scan):
        i = m.end()
        paren = 0
        body_start = -1
        while i < len(scan):
            c = scan[i]
            if c == "(":
                paren += 1
            elif c == ")":
                paren -= 1
            elif paren == 0 and c == "{":
                body_start = i
                break
            elif paren == 0 and c == ";":
                break  # declaration only; no body to scan
            i += 1
        if body_start < 0:
            continue
        depth = 1
        i = body_start + 1
        while i < len(scan) and depth > 0:
            if scan[i] == "{":
                depth += 1
            elif scan[i] == "}":
                depth -= 1
            i += 1
        start_line = scan.count("\n", 0, body_start) + 1
        end_line = scan.count("\n", 0, i) + 1
        regions.append((start_line, end_line))
    return regions


# ---------------------------------------------------------------------------
# Per-file scan


def scan_file(root: pathlib.Path, rel: str) -> list[Finding]:
    text = (root / rel).read_text(encoding="utf-8", errors="replace")
    raw_lines = text.split("\n")
    code = strip_to_code(text)
    code_lines = code.split("\n")
    is_header = rel.endswith(".h")
    in_src = rel.startswith("src/")

    findings: list[Finding] = []

    def emit(line: int, rule: str, message: str) -> None:
        findings.append(Finding(rel, line, rule, message))

    for lineno, cl in enumerate(code_lines, start=1):
        for rule, (pattern, message) in _TOKEN_RULES.items():
            if rule == "unordered-container" and not in_src:
                continue
            if pattern.search(cl):
                emit(lineno, rule, message)
        if is_header and _USING_NAMESPACE_RE.search(cl):
            emit(
                lineno,
                "header-using-namespace",
                "`using namespace` in a header leaks into every includer",
            )

    if is_header:
        first = next(
            (
                (i, cl)
                for i, cl in enumerate(code_lines, start=1)
                if cl.strip()
            ),
            None,
        )
        if first is None or not _PRAGMA_ONCE_RE.match(first[1]):
            emit(
                first[0] if first else 1,
                "header-guard",
                "first non-comment line of a header must be `#pragma once`",
            )

    for start, end in find_hot_regions(code):
        for lineno in range(start, min(end, len(code_lines)) + 1):
            cl = code_lines[lineno - 1]
            if _HOT_ALLOC_RE.search(cl):
                emit(
                    lineno,
                    "hot-path-alloc",
                    "allocation inside a TANGRAM_HOT_PATH function; "
                    "steady-state dispatch must run on recycled storage",
                )
            for pb in _HOT_PUSH_BACK_RE.finditer(cl):
                window = raw_lines[max(0, lineno - 3) : lineno]
                if not any(_RESERVE_RE.search(w) for w in window):
                    emit(
                        lineno,
                        "hot-path-push-back",
                        "push_back inside a TANGRAM_HOT_PATH function with no "
                        "reserve note on this line or the two above; document "
                        "why steady-state capacity is already reserved",
                    )

    # Inline suppression: // tangram-lint: allow(rule[, rule]) on the line.
    kept = []
    for f in findings:
        raw = raw_lines[f.line - 1] if f.line - 1 < len(raw_lines) else ""
        m = _INLINE_ALLOW_RE.search(raw)
        allowed = (
            {r.strip() for r in m.group(1).split(",")} if m else set()
        )
        if f.rule not in allowed:
            kept.append(f)
    return kept


# ---------------------------------------------------------------------------
# Allowlist and driver


def load_allowlist(path: pathlib.Path) -> list[tuple[str, str]]:
    entries = []
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").split("\n"), start=1
    ):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2 or parts[0] not in RULE_IDS:
            raise SystemExit(
                f"{path}:{lineno}: malformed allowlist entry (want "
                f"`<rule-id> <path-glob>`, rule one of {', '.join(RULE_IDS)})"
            )
        entries.append((parts[0], parts[1]))
    return entries


def allowlisted(f: Finding, entries: list[tuple[str, str]]) -> bool:
    return any(
        rule == f.rule and fnmatch.fnmatch(f.path, glob)
        for rule, glob in entries
    )


def collect_files(root: pathlib.Path) -> list[str]:
    rels = []
    for sub in ("src", "tests"):
        base = root / sub
        if not base.is_dir():
            continue
        for ext in ("*.h", "*.cpp"):
            rels.extend(
                p.relative_to(root).as_posix() for p in base.rglob(ext)
            )
    return sorted(rels)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="tangram_lint", description=__doc__.split("\n", 1)[0]
    )
    parser.add_argument(
        "--root",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parents[2],
        help="tree to scan (expects src/ and tests/ beneath it); "
        "defaults to the repo this script lives in",
    )
    parser.add_argument(
        "--allowlist",
        type=pathlib.Path,
        default=None,
        help="allowlist file of `rule-id path-glob` lines; defaults to "
        "tools/lint/allowlist.txt under --root when present",
    )
    parser.add_argument(
        "--no-allowlist",
        action="store_true",
        help="ignore any allowlist, including the default one",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print rule ids and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print("\n".join(RULE_IDS))
        return 0

    root = args.root.resolve()
    entries: list[tuple[str, str]] = []
    if not args.no_allowlist:
        allowlist = args.allowlist or root / "tools" / "lint" / "allowlist.txt"
        if allowlist.is_file():
            entries = load_allowlist(allowlist)
        elif args.allowlist is not None:
            raise SystemExit(f"allowlist not found: {allowlist}")

    files = collect_files(root)
    if not files:
        raise SystemExit(f"nothing to scan under {root} (no src/ or tests/)")

    findings = [
        f
        for rel in files
        for f in scan_file(root, rel)
        if not allowlisted(f, entries)
    ]
    for f in findings:
        print(f.render())
    if findings:
        print(
            f"tangram-lint: {len(findings)} finding(s) in "
            f"{len({f.path for f in findings})} file(s)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
