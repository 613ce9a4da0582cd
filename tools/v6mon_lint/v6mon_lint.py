#!/usr/bin/env python3
"""v6mon-lint: determinism static analysis for the v6mon source tree.

The project promises byte-identical outputs for a given seed across
thread counts, sink backends and platforms (DESIGN.md §12). The compiler
cannot check that promise, and most violations (iterating a hash map
into a report, reading a clock in measurement math) are silent: the
program stays correct-looking while its bytes drift between runs. This
linter encodes the project's determinism rules as source checks:

  D001  iteration over an unordered container (order is a function of
        the hash seed, allocator and insertion history — never emit or
        fold it into anything ordered without sorting first)
  D002  wall clocks, random devices, C PRNGs and environment reads in
        the deterministic core (src/core, src/bgp, src/dns,
        src/transport, src/scenario) — entropy must come from the
        seeded util::Rng tree only
  D003  pointer or iterator used as an ordered/hashed container key
        (addresses vary run to run, so order and hash buckets do too)
  D004  mutable static / thread_local state (process-global state is
        shared across campaigns and threads; it must be declared with a
        justification or redesigned)
  D005  floating-point compound assignment inside a parallel region
        (FP addition is not associative; per-thread partial sums melt
        determinism unless the reduction order is fixed)
  D006  cached route/path pointer (RibEntry* / PathCharacteristics*)
        stored without an epoch stamp nearby — the evolving-world engine
        rewrites RIB entries at epoch boundaries, so a pointer held
        across an advance dangles semantically (it reads pre-epoch
        routes); keep a world-epoch stamp within reach of the cache (the
        rule scans the surrounding 20 lines) or ALLOW with the lifetime
        argument
  D007  bare pool barrier (wait_idle / cv wait / thread join) in
        campaign control flow (src/core/campaign.*) — campaign ordering
        (rounds, epoch advances, W6D) lives only in the epoch-segment
        schedule: per-VP round chains on parallel_index, with a barrier
        at epoch rounds only. A bare wait_idle / join there brings back
        the per-round fork-join stall between (vp, round) blocks; keep
        the wait at a segment end, or ALLOW with the reason the join is
        not a scheduling barrier
  D008  std::thread::hardware_concurrency outside
        src/core/thread_pool.cpp — every "0 = hardware" thread knob
        resolves through core::resolve_threads, so one rule decides how
        many workers a default run gets
  D009  std::*_distribution, std::mt19937 / std::mt19937_64 and
        std::generate_canonical — the standard leaves the distribution
        algorithms to the implementation, so drawing through them ties
        every output to one standard library; util::Rng implements the
        distributions and the engine itself (tests keep the std::
        versions as the reference)

Engine: a text-level lexer (comments/strings stripped, lines tracked).
There is deliberately no semantic analysis — the rules are conservative
and every false positive is silenced *in the source*, with a reason:

    // V6MON_LINT_ALLOW(D001): shard totals are summed, order-free

on the finding's line or the line directly above it. A suppression
without a reason is itself an error: the allowlist is documentation.

`--engine clang` lexes with libclang's tokenizer when the python
bindings are installed (same rules, same findings); the text engine is
the reference and the only one CI requires.

Exit codes: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import bisect
import os
import re
import sys
from dataclasses import dataclass, field

ALL_RULES = ("D001", "D002", "D003", "D004", "D005", "D006", "D007", "D008", "D009")

# Directories (relative to the repo root) whose code feeds deterministic
# outputs. D002 applies only here; the other rules apply everywhere.
DETERMINISTIC_DIRS = (
    "src/core",
    "src/bgp",
    "src/dns",
    "src/transport",
    "src/scenario",
)

SOURCE_EXTENSIONS = (".cpp", ".h", ".hpp", ".cc", ".cxx")

ALLOW_RE = re.compile(r"V6MON_LINT_ALLOW\((D\d{3})\)\s*:?\s*(.*)")


@dataclass
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


@dataclass
class SourceFile:
    """One lexed translation unit: raw text for comment inspection plus
    `clean` text of identical length with comments, string and character
    literals blanked to spaces (so rule regexes never match inside
    them) and newlines preserved (so offsets map to lines)."""

    path: str
    raw: str
    clean: str
    line_starts: list[int] = field(default_factory=list)

    def line_of(self, offset: int) -> int:
        return bisect.bisect_right(self.line_starts, offset) + 1

    def raw_line(self, line: int) -> str:
        lines = self.raw.splitlines()
        return lines[line - 1] if 1 <= line <= len(lines) else ""


def lex_text(path: str, text: str) -> SourceFile:
    """Blank comments and literals. A hand-rolled state machine instead
    of regexes: C++ raw strings and escapes inside literals defeat any
    single pattern, and this must never mis-lex (a missed comment close
    would silently disable every rule for the rest of the file)."""
    out = list(text)
    i, n = 0, len(text)
    state = "code"
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out[i] = out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                # R"delim( ... )delim" — check for a raw-string prefix.
                m = re.match(r'R"([^\s()\\]{0,16})\(', text[i - 1 : i + 18]) if i >= 1 and text[i - 1] == "R" else None
                if m:
                    raw_delim = ")" + m.group(1) + '"'
                    state = "raw_string"
                else:
                    state = "string"
                out[i] = " "
                i += 1
                continue
            if c == "'":
                state = "char"
                out[i] = " "
                i += 1
                continue
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
            else:
                out[i] = " "
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                out[i] = out[i + 1] = " "
                state = "code"
                i += 2
                continue
            if c != "\n":
                out[i] = " "
            i += 1
        elif state == "string":
            if c == "\\" and nxt:
                out[i] = " "
                if nxt != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == '"':
                out[i] = " "
                state = "code"
            elif c != "\n":
                out[i] = " "
            i += 1
        elif state == "char":
            if c == "\\" and nxt:
                out[i] = " "
                if nxt != "\n":
                    out[i + 1] = " "
                i += 2
                continue
            if c == "'":
                out[i] = " "
                state = "code"
            elif c != "\n":
                out[i] = " "
            i += 1
        elif state == "raw_string":
            if text.startswith(raw_delim, i):
                for j in range(len(raw_delim)):
                    out[i + j] = " "
                i += len(raw_delim)
                state = "code"
                continue
            if c != "\n":
                out[i] = " "
            i += 1
    sf = SourceFile(path=path, raw=text, clean="".join(out))
    sf.line_starts = [m.start() for m in re.finditer(r"\n", text)]
    return sf


def lex_with_libclang(path: str, text: str) -> SourceFile:
    """Alternate lexer over libclang's token stream: rebuilds the same
    blanked `clean` text from non-comment, non-literal tokens. Rule
    logic is shared, so both engines emit identical findings."""
    from clang import cindex  # noqa: PLC0415 — optional dependency

    index = cindex.Index.create()
    tu = index.parse(path, args=["-std=c++20"], unsaved_files=[(path, text)])
    out = [c if c == "\n" else " " for c in text]
    for tok in tu.get_tokens(extent=tu.cursor.extent):
        if tok.kind in (cindex.TokenKind.COMMENT, cindex.TokenKind.LITERAL):
            continue
        # Offsets from libclang are 0-based into the file buffer.
        start = tok.extent.start.offset
        for j, ch in enumerate(tok.spelling):
            if 0 <= start + j < len(out) and ch != "\n":
                out[start + j] = ch
    sf = SourceFile(path=path, raw=text, clean="".join(out))
    sf.line_starts = [m.start() for m in re.finditer(r"\n", text)]
    return sf


# --------------------------------------------------------------------------
# Small parsing helpers over the blanked text.

IDENT = r"[A-Za-z_]\w*"


def match_angle_brackets(text: str, open_idx: int) -> int:
    """Index just past the `>` matching `<` at open_idx, or -1. Treats
    `>>` as two closers (C++11 rules) and bails on `;`/`{` so a stray
    less-than comparison cannot swallow the rest of the file."""
    depth = 0
    i = open_idx
    while i < len(text):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}":
            return -1
        i += 1
    return -1


def top_level_template_args(text: str) -> list[str]:
    """Split `K, V` at depth-0 commas (text is the inside of <...>)."""
    args, depth, start = [], 0, 0
    for i, c in enumerate(text):
        if c in "<([":
            depth += 1
        elif c in ">)]":
            depth -= 1
        elif c == "," and depth == 0:
            args.append(text[start:i])
            start = i + 1
    args.append(text[start:])
    return [a.strip() for a in args]


def match_parens(text: str, open_idx: int) -> int:
    """Index of the `)` matching `(` at open_idx, or len(text)."""
    depth = 0
    i = open_idx
    while i < len(text):
        c = text[i]
        if c == "(":
            depth += 1
        elif c == ")":
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return len(text)


def statement_end(text: str, start: int) -> int:
    """Offset of the `;` or body-opening `{` ending the statement that
    begins at `start` (skipping over balanced parens/brackets)."""
    depth = 0
    i = start
    while i < len(text):
        c = text[i]
        if c in "([":
            depth += 1
        elif c in ")]":
            depth -= 1
        elif depth == 0 and c in ";{":
            return i
        i += 1
    return len(text)


UNORDERED_DECL_RE = re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\s*(?=<)")


def unordered_container_names(sf: SourceFile) -> set[str]:
    """Names declared (in this file) with an unordered container type."""
    names: set[str] = set()
    for m in UNORDERED_DECL_RE.finditer(sf.clean):
        close = match_angle_brackets(sf.clean, sf.clean.index("<", m.end() - 1))
        if close < 0:
            continue
        after = sf.clean[close : close + 160]
        # Thread-safety attribute macros may sit between the name and the
        # terminator: `std::unordered_map<K, V> map V6MON_GUARDED_BY(mu);`.
        dm = re.match(r"[&\s]*(" + IDENT + r")\s*(?:V6MON_\w+\s*\([^)]*\)\s*)?[;={(\[]", after)
        if dm and dm.group(1) not in ("const",):
            names.add(dm.group(1))
    return names


# --------------------------------------------------------------------------
# Rules. Each returns a list of Finding.


def rule_d001(sf: SourceFile) -> list[Finding]:
    findings = []
    names = unordered_container_names(sf)
    # Range-for directly over an unordered container (or a member/deref
    # chain ending in one): `for (auto& kv : index_)`.
    for m in re.finditer(r"\bfor\s*\(", sf.clean):
        close = match_parens(sf.clean, m.end() - 1)
        header = sf.clean[m.end() : close]
        colon = re.search(r":(?!:)", header)
        if not colon:
            continue
        range_expr = header[colon.end() :].strip()
        base = re.search(r"(" + IDENT + r")\s*(?:\(\s*\))?$", range_expr)
        if base and base.group(1) in names:
            findings.append(
                Finding(
                    sf.path,
                    sf.line_of(m.start()),
                    "D001",
                    f"iteration over unordered container '{base.group(1)}' — "
                    "hash order is nondeterministic; sort before anything "
                    "output-reaching (or ALLOW with the order-free reason)",
                )
            )
    # Explicit iterator walks: `x.begin()` / `x.cbegin()` on a known name.
    for m in re.finditer(r"\b(" + IDENT + r")\s*\.\s*c?begin\s*\(", sf.clean):
        if m.group(1) in names:
            findings.append(
                Finding(
                    sf.path,
                    sf.line_of(m.start()),
                    "D001",
                    f"iterator over unordered container '{m.group(1)}' — "
                    "hash order is nondeterministic",
                )
            )
    return findings


D002_BANNED = (
    (re.compile(r"\bstd::random_device\b"), "std::random_device is a hardware entropy source"),
    (re.compile(r"(?<![\w])s?rand\s*\("), "C PRNG (rand/srand) bypasses the seeded util::Rng tree"),
    (
        re.compile(r"\bstd::chrono::(?:system_clock|steady_clock|high_resolution_clock)\b"),
        "wall/steady clock read in deterministic code",
    ),
    (re.compile(r"(?<![\w:])(?:std::)?getenv\s*\("), "environment read makes output depend on the host"),
    (re.compile(r"(?<![\w:.])time\s*\(\s*(?:nullptr|NULL|0)\s*\)"), "time() read in deterministic code"),
    (re.compile(r"\b(?:clock_gettime|gettimeofday)\s*\("), "clock syscall in deterministic code"),
)


def rule_d002(sf: SourceFile) -> list[Finding]:
    findings = []
    for pattern, why in D002_BANNED:
        for m in pattern.finditer(sf.clean):
            findings.append(
                Finding(
                    sf.path,
                    sf.line_of(m.start()),
                    "D002",
                    f"{why}; deterministic modules must derive everything "
                    "from the campaign seed",
                )
            )
    return findings


KEYED_DECL_RE = re.compile(r"\bstd::(?:unordered_)?(?:map|set|multimap|multiset)\s*(?=<)")


def rule_d003(sf: SourceFile) -> list[Finding]:
    findings = []
    for m in KEYED_DECL_RE.finditer(sf.clean):
        open_idx = sf.clean.index("<", m.end() - 1)
        close = match_angle_brackets(sf.clean, open_idx)
        if close < 0:
            continue
        key = top_level_template_args(sf.clean[open_idx + 1 : close - 1])[0]
        bad = None
        if re.search(r"\*\s*(?:const\s*)?$", key):
            bad = "pointer"
        elif re.search(r"::(?:const_)?iterator\b", key):
            bad = "iterator"
        if bad:
            findings.append(
                Finding(
                    sf.path,
                    sf.line_of(m.start()),
                    "D003",
                    f"{bad} key '{key}' in associative container — addresses "
                    "differ between runs, so ordering/hashing does too; key "
                    "by a stable id instead",
                )
            )
    return findings


D004_TRIGGER_RE = re.compile(r"(?<![\w])(?:static|thread_local)(?![\w])")


def rule_d004(sf: SourceFile) -> list[Finding]:
    findings = []
    seen_statements: set[int] = set()
    for m in D004_TRIGGER_RE.finditer(sf.clean):
        end = statement_end(sf.clean, m.start())
        if end in seen_statements:  # `static thread_local` double-trigger
            continue
        seen_statements.add(end)
        stmt = sf.clean[m.start() : end]
        # Immutable state is fine — it cannot carry information between
        # runs or threads.
        if re.search(r"\b(?:const|constexpr|constinit)\b", stmt):
            continue
        # Function declarations/definitions: an identifier directly
        # followed by an argument list, with no `=` or `{` first.
        paren = stmt.find("(")
        eq = stmt.find("=")
        brace_init = re.search(r"\w\s*\{", stmt)
        if paren != -1 and (eq == -1 or paren < eq) and (not brace_init or paren < brace_init.start()):
            if re.search(r"\w\s*\($", stmt[: paren + 1]):
                continue
        findings.append(
            Finding(
                sf.path,
                sf.line_of(m.start()),
                "D004",
                "mutable static/thread_local state — process-global state "
                "outlives campaigns and is shared across threads; redesign "
                "or ALLOW with the safety argument",
            )
        )
    return findings


PARALLEL_CALL_RE = re.compile(r"\b(?:parallel_index|parallel_for|submit)\s*\(")
FLOAT_DECL_TEMPLATE = r"\b(?:double|float)\b[^;({{)]{{0,80}}\b{name}\b"


def rule_d005(sf: SourceFile) -> list[Finding]:
    findings = []
    for m in PARALLEL_CALL_RE.finditer(sf.clean):
        # Balanced-paren extent of the whole call: every `+=` inside it
        # runs on a worker thread.
        depth = 0
        i = m.end() - 1
        start = i
        while i < len(sf.clean):
            c = sf.clean[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        body = sf.clean[start:i]
        for am in re.finditer(r"\b(" + IDENT + r")\s*[+\-*]=(?!=)", body):
            name = am.group(1)
            if re.search(FLOAT_DECL_TEMPLATE.format(name=re.escape(name)), sf.clean):
                findings.append(
                    Finding(
                        sf.path,
                        sf.line_of(start + am.start()),
                        "D005",
                        f"floating-point reduction into '{name}' inside a "
                        "parallel region — FP addition is non-associative, so "
                        "the total depends on thread interleaving; accumulate "
                        "per-slot and fold in index order",
                    )
                )
    return findings


D006_PTR_RE = re.compile(
    r"\b(?:const\s+)?(?:\w+\s*::\s*)*(RibEntry|PathCharacteristics)\s*\*\s*"
    r"(?:const\s+)?(" + IDENT + r")\s*(?=[;={])"
)
D006_WINDOW = 20  # lines scanned on each side for an epoch stamp
D006_STAMP_RE = re.compile(r"epoch", re.IGNORECASE)


def rule_d006(sf: SourceFile) -> list[Finding]:
    """Cached route/path pointers need an epoch stamp within reach.

    Flags declarations that *store* a `RibEntry*` or
    `PathCharacteristics*` (name followed by `;`, `=` or `{`) — members
    and locals alike — unless the word "epoch" appears within
    D006_WINDOW lines of the declaration. The stamp requirement is
    deliberately textual: what matters is that whoever caches the
    pointer thought about epoch boundaries, and the stamp (or the
    invalidation call using it) is the evidence. Function declarations
    (name followed by `(`) and container element types (`*` followed by
    `>`) never match.
    """
    findings = []
    lines = sf.raw.splitlines()
    for m in D006_PTR_RE.finditer(sf.clean):
        line = sf.line_of(m.start())
        lo = max(0, line - 1 - D006_WINDOW)
        hi = min(len(lines), line + D006_WINDOW)
        if D006_STAMP_RE.search("\n".join(lines[lo:hi])):
            continue
        findings.append(
            Finding(
                sf.path,
                line,
                "D006",
                f"cached {m.group(1)}* '{m.group(2)}' without an epoch "
                "stamp in reach — RIB entries are rewritten at epoch "
                "boundaries, so a held pointer reads pre-epoch routes; "
                "stamp the cache with the world epoch (or ALLOW with the "
                "lifetime argument)",
            )
        )
    return findings


# Files (relative to the repo root) holding campaign control flow. D007
# applies only here: the thread pool, parallel_index and the sinks
# legitimately wait — the campaign layer must not.
CAMPAIGN_FILES = ("src/core/campaign.cpp", "src/core/campaign.h")

D007_BARRIER_RE = re.compile(r"(?:\.|->)\s*(wait_idle|wait|join)\s*\(")


def rule_d007(sf: SourceFile) -> list[Finding]:
    findings = []
    for m in D007_BARRIER_RE.finditer(sf.clean):
        findings.append(
            Finding(
                sf.path,
                sf.line_of(m.start()),
                "D007",
                f"bare '{m.group(1)}' barrier in campaign control flow — "
                "round and epoch ordering is the epoch-segment schedule "
                "(per-VP chains on parallel_index, barriers at epoch "
                "rounds only); end a segment instead (or ALLOW with the "
                "reason this join is not a scheduling barrier)",
            )
        )
    return findings


# The one file allowed to read the hardware thread count (D008).
THREAD_COUNT_FILE = "src/core/thread_pool.cpp"

D008_HW_RE = re.compile(r"\bhardware_concurrency\s*\(")


def rule_d008(sf: SourceFile) -> list[Finding]:
    return [
        Finding(
            sf.path,
            sf.line_of(m.start()),
            "D008",
            "hardware thread count read outside core::resolve_threads — "
            "resolve a '0 = hardware' knob with core::resolve_threads so "
            "every stage sizes its pool by one rule",
        )
        for m in D008_HW_RE.finditer(sf.clean)
    ]


D009_STD_RANDOM_RE = re.compile(
    r"\bstd\s*::\s*(\w+_distribution|mt19937(?:_64)?|generate_canonical)\b"
)


def rule_d009(sf: SourceFile) -> list[Finding]:
    return [
        Finding(
            sf.path,
            sf.line_of(m.start()),
            "D009",
            f"'std::{m.group(1)}' draws through the standard library's own "
            "algorithm, which varies between implementations — draw through "
            "util::Rng, whose distributions and engine are pinned in-repo",
        )
        for m in D009_STD_RANDOM_RE.finditer(sf.clean)
    ]


RULES = {
    "D001": rule_d001,
    "D002": rule_d002,
    "D003": rule_d003,
    "D004": rule_d004,
    "D005": rule_d005,
    "D006": rule_d006,
    "D007": rule_d007,
    "D008": rule_d008,
    "D009": rule_d009,
}


# --------------------------------------------------------------------------
# Suppression handling.


def collect_allows(sf: SourceFile) -> tuple[dict[tuple[int, str], str], list[Finding]]:
    """Map (effective_line, rule) -> reason for every ALLOW comment. An
    ALLOW on its own line covers the next line; any ALLOW also covers
    its own line (trailing-comment form). Empty reasons are findings."""
    allows: dict[tuple[int, str], str] = {}
    errors: list[Finding] = []
    for line_no, raw in enumerate(sf.raw.splitlines(), start=1):
        m = ALLOW_RE.search(raw)
        if not m:
            continue
        rule, reason = m.group(1), m.group(2).strip()
        if rule not in RULES:
            errors.append(Finding(sf.path, line_no, "LINT", f"ALLOW names unknown rule {rule}"))
            continue
        if not reason:
            errors.append(
                Finding(
                    sf.path,
                    line_no,
                    "LINT",
                    f"V6MON_LINT_ALLOW({rule}) without a reason — the "
                    "allowlist is documentation; say why this is safe",
                )
            )
            continue
        allows[(line_no, rule)] = reason
        # Own-line comment form: the suppressed construct is on the next
        # non-comment, non-blank line (reasons may wrap across comment
        # lines).
        if raw.lstrip().startswith("//"):
            lines = sf.raw.splitlines()
            j = line_no  # 0-based index of the line after the ALLOW
            while j < len(lines):
                stripped = lines[j].strip()
                if stripped and not stripped.startswith("//"):
                    allows[(j + 1, rule)] = reason
                    break
                j += 1
    return allows, errors


def apply_allows(findings: list[Finding], allows: dict[tuple[int, str], str]) -> list[Finding]:
    return [f for f in findings if (f.line, f.rule) not in allows]


# --------------------------------------------------------------------------
# Driver.


def in_deterministic_dir(path: str, root: str) -> bool:
    rel = os.path.relpath(os.path.abspath(path), root).replace(os.sep, "/")
    return any(rel == d or rel.startswith(d + "/") for d in DETERMINISTIC_DIRS)


def in_campaign_files(path: str, root: str) -> bool:
    rel = os.path.relpath(os.path.abspath(path), root).replace(os.sep, "/")
    return rel in CAMPAIGN_FILES


def is_thread_count_file(path: str, root: str) -> bool:
    rel = os.path.relpath(os.path.abspath(path), root).replace(os.sep, "/")
    return rel == THREAD_COUNT_FILE


def lint_file(
    path: str,
    rules: list[str],
    root: str,
    engine: str,
    deterministic_scope: bool | None = None,
    campaign_scope: bool | None = None,
) -> list[Finding]:
    with open(path, encoding="utf-8", errors="replace") as fh:
        text = fh.read()
    sf = lex_with_libclang(path, text) if engine == "clang" else lex_text(path, text)
    allows, errors = collect_allows(sf)
    findings = list(errors)
    if deterministic_scope is None:
        deterministic_scope = in_deterministic_dir(path, root)
    if campaign_scope is None:
        campaign_scope = in_campaign_files(path, root)
    for rule in rules:
        if rule == "D002" and not deterministic_scope:
            continue
        if rule == "D007" and not campaign_scope:
            continue
        if rule == "D008" and is_thread_count_file(path, root):
            continue
        findings.extend(apply_allows(RULES[rule](sf), allows))
    findings.sort(key=lambda f: (f.line, f.rule))
    return findings


def gather_sources(paths: list[str]) -> list[str]:
    out = []
    for p in paths:
        if os.path.isdir(p):
            for dirpath, _dirnames, filenames in sorted(os.walk(p)):
                for name in sorted(filenames):
                    if name.endswith(SOURCE_EXTENSIONS):
                        out.append(os.path.join(dirpath, name))
        elif p.endswith(SOURCE_EXTENSIONS):
            out.append(p)
    return out


# --------------------------------------------------------------------------
# Selftest: every fixture encodes its own expectations as
# `// EXPECT-LINT: Dnnn` markers; *_clean fixtures must produce nothing.


def selftest(fixtures_dir: str, engine: str) -> int:
    failures = 0
    files = gather_sources([fixtures_dir])
    if not files:
        print(f"selftest: no fixtures under {fixtures_dir}", file=sys.stderr)
        return 2
    for path in files:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
        expected: set[tuple[int, str]] = set()
        for line_no, line in enumerate(raw.splitlines(), start=1):
            for m in re.finditer(r"EXPECT-LINT:\s*(D\d{3})", line):
                expected.add((line_no, m.group(1)))
        # Fixtures exercise every rule, so they are linted as if they
        # lived inside the deterministic scope (D002 included) and the
        # campaign files (D007 included).
        got = {
            (f.line, f.rule)
            for f in lint_file(path, list(ALL_RULES), os.path.dirname(os.path.abspath(fixtures_dir)), engine,
                               deterministic_scope=True, campaign_scope=True)
        }
        missing = expected - got
        surplus = got - expected
        for line, rule in sorted(missing):
            print(f"selftest FAIL {path}:{line}: expected {rule}, not reported")
            failures += 1
        for line, rule in sorted(surplus):
            print(f"selftest FAIL {path}:{line}: unexpected {rule}")
            failures += 1
    if failures:
        print(f"selftest: {failures} expectation(s) failed")
        return 1
    print(f"selftest: {len(files)} fixture(s) OK")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="v6mon_lint", description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument("--rules", default=",".join(ALL_RULES), help="comma-separated rule subset (default: all)")
    parser.add_argument("--engine", choices=("text", "clang"), default="text",
                        help="lexer backend; 'clang' needs the libclang python bindings")
    parser.add_argument("--root", default=".", help="repo root, anchors the D002 directory scope")
    parser.add_argument("--selftest", action="store_true", help="run the rule fixtures instead of linting paths")
    args = parser.parse_args(argv)

    rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    for r in rules:
        if r not in RULES:
            print(f"unknown rule '{r}' (have {', '.join(ALL_RULES)})", file=sys.stderr)
            return 2

    if args.engine == "clang":
        try:
            import clang.cindex  # noqa: F401, PLC0415
        except ImportError:
            print("--engine clang: libclang python bindings not importable; "
                  "use the default text engine", file=sys.stderr)
            return 2

    if args.selftest:
        fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")
        return selftest(fixtures, args.engine)

    if not args.paths:
        parser.print_usage(sys.stderr)
        return 2

    root = os.path.abspath(args.root)
    total = 0
    for path in gather_sources(args.paths):
        for finding in lint_file(path, rules, root, args.engine):
            print(finding.render())
            total += 1
    if total:
        print(f"v6mon-lint: {total} finding(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
