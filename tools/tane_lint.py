#!/usr/bin/env python3
"""tane-lint: project-rule linter for the TANE library sources.

Checks src/ for rules that generic tooling does not know about:

  tane-check       TANE_CHECK aborts the process, so library code may only
                   use it on true invariant paths. Every permitted site
                   carries a `tane-lint: allow(tane-check)` waiver comment
                   explaining the invariant; unwaived sites are findings.
                   (Error handling belongs to Status/StatusOr.)
  naked-new        No raw `new` / `malloc` / `free` in library code; use
                   std::make_unique (or waive, e.g. for private
                   constructors and deliberately leaked singletons).
  raw-std-sync     No std::mutex / std::shared_mutex / std::condition_variable
                   members outside util/mutex.h: library code must use the
                   annotated tane::Mutex wrappers so the Clang thread-safety
                   `analysis` preset sees every lock.
  unguarded-mutex  A tane::Mutex member must have at least one
                   TANE_GUARDED_BY / TANE_REQUIRES / TANE_ACQUIRE(...)
                   companion naming it in the same file — a lock
                   protecting nothing (statically) is either dead or
                   its contract is undocumented.
  float-threshold  Validity thresholds are exact integers (see
                   IntegerThreshold in core/tane.cc). Comparing a violation
                   count against an ε-scaled double, or an error measure
                   against a non-zero float literal with ==/!=, reintroduces
                   the ulp bugs that design removed.
  iwyu             Curated include-what-you-use list: files using the
                   symbols below must include the named header directly
                   instead of leaning on transitive includes.
  naked-atomic     A std::atomic member in a file with no
                   `// tane-atomics: <protocol>` header is concurrency
                   whose contract nobody wrote down — the semantic tier
                   (tools/tane_analyzer) can only check protocols that are
                   declared. Declare the protocol, or waive with the
                   reason this atomic needs none (e.g. an independent
                   flag whose explicit orders are the whole contract).

A finding may be waived with a comment `tane-lint: allow(<rule>)` on the
finding line or the lines just above it. Known findings live in
tools/lint_baseline.json (ids are content-addressed, so unrelated edits do
not invalidate them); the tool exits non-zero only on findings absent from
the baseline. Run with --update-baseline to accept the current findings.

Usage:
  tools/tane_lint.py [--root DIR] [--baseline FILE] [--update-baseline]
"""

import argparse
import json
import os
import re
import sys
import time

import jsonio
from cpptext import strip_comments_and_strings

# Files whose whole purpose exempts them from specific rules.
RULE_EXEMPT_FILES = {
    "tane-check": {"src/util/logging.h"},        # defines the macro
    "raw-std-sync": {"src/util/mutex.h"},        # wraps the std types
    "unguarded-mutex": {"src/util/mutex.h"},
}

# Curated include-what-you-use table: usage pattern -> required include.
# Deliberately small; every entry here has bitten us via a transitive
# include disappearing. Matching is done on comment/string-stripped text.
IWYU_RULES = (
    (re.compile(r"\bTANE_(GUARDED_BY|PT_GUARDED_BY|REQUIRES|ACQUIRE|RELEASE|"
                r"EXCLUDES|CAPABILITY|SCOPED_CAPABILITY|TRY_ACQUIRE|"
                r"ASSERT_CAPABILITY|RETURN_CAPABILITY|"
                r"NO_THREAD_SAFETY_ANALYSIS)\b"),
     "util/thread_annotations.h"),
    (re.compile(r"\b(MutexLock|CondVar)\b"),
     "util/mutex.h"),
    (re.compile(r"\bTANE_(LOG|CHECK|DCHECK)\b"), "util/logging.h"),
    (re.compile(r"\bstd::atomic\b"), "<atomic>"),
    (re.compile(r"\bstd::(unique_ptr|shared_ptr|make_unique|make_shared)\b"),
     "<memory>"),
)
IWYU_EXEMPT_FILES = {
    "src/util/thread_annotations.h",  # defines the macros
    "src/util/mutex.h",               # is the header
    "src/util/logging.h",
}

WAIVER_RE = re.compile(r"tane-lint:\s*allow\(([a-z-]+)\)")
# How far above a finding a waiver comment may sit (finding line plus the
# comment block immediately preceding it).
WAIVER_REACH = 3

MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:tane::)?Mutex\s+(\w+)\s*;")
STD_SYNC_RE = re.compile(
    r"\bstd::(mutex|shared_mutex|recursive_mutex|condition_variable"
    r"(?:_any)?)\b")
NAKED_NEW_RE = re.compile(r"(?<!\w)new\b(?!\s*\()")  # `new (ptr)` placement ok
# A std::atomic variable/member declaration (not a function returning a
# reference to one: the `\s+` after the template rejects `...>&`).
NAKED_ATOMIC_RE = re.compile(
    r"^\s*(?:static\s+|mutable\s+|constinit\s+|inline\s+)*"
    r"std::atomic(?:<[^;]*?>)?\s+\w+\s*(?:\{[^}]*\}|=[^;]*)?\s*(?:;|\[)")
PROTOCOL_HEADER_RE = re.compile(r"//\s*tane-atomics:")
ALLOC_CALL_RE = re.compile(r"\b(malloc|calloc|realloc|free)\s*\(")
TANE_CHECK_RE = re.compile(r"\bTANE_CHECK\b")
# A violation measure compared against an ε-scaled double, in either order.
FLOAT_THRESHOLD_RES = (
    re.compile(r"\b\w*(error|removals|pairs|violations|g3|g1)\w*\s*"
               r"(<=|<|>=|>)\s*[^;=]*\bepsilon\b", re.IGNORECASE),
    re.compile(r"\bepsilon\b\s*\*[^;]*(<=|<|>=|>)", re.IGNORECASE),
    re.compile(r"\b\w*(g3|g1|error)\w*\s*(==|!=)\s*0?\.\d*[1-9]"),
)


class Finding:
    def __init__(self, rule, path, line_number, line_text, message):
        self.rule = rule
        self.path = path
        self.line_number = line_number
        self.message = message
        # Content-addressed id: stable across unrelated edits that only
        # shift line numbers.
        normalized = " ".join(line_text.split())
        self.identity = f"{rule}:{path}:{normalized}"

    def __str__(self):
        return (f"{self.path}:{self.line_number}: [{self.rule}] "
                f"{self.message}")


def waived(rule, raw_lines, line_number):
    lo = max(0, line_number - 1 - WAIVER_REACH)
    for line in raw_lines[lo:line_number]:
        match = WAIVER_RE.search(line)
        if match and match.group(1) == rule:
            return True
    return False


def lint_file(root, rel_path, findings):
    with open(os.path.join(root, rel_path), encoding="utf-8") as handle:
        raw = handle.read()
    raw_lines = raw.splitlines()
    code_lines = strip_comments_and_strings(raw).splitlines()

    def emit(rule, line_number, message):
        if rel_path in RULE_EXEMPT_FILES.get(rule, ()):
            return
        if waived(rule, raw_lines, line_number):
            return
        findings.append(Finding(rule, rel_path, line_number,
                                raw_lines[line_number - 1], message))

    has_protocol_header = bool(PROTOCOL_HEADER_RE.search(raw))

    mutex_members = []  # (line_number, member_name)
    for number, line in enumerate(code_lines, start=1):
        if not has_protocol_header and NAKED_ATOMIC_RE.match(line):
            emit("naked-atomic", number,
                 "std::atomic member in a file with no `// tane-atomics: "
                 "<protocol>` header; declare the lock-free protocol so "
                 "tane-analyzer can check it, or waive with the reason "
                 "this atomic needs none")
        if TANE_CHECK_RE.search(line) and "#define" not in line:
            emit("tane-check", number,
                 "TANE_CHECK aborts; library code must return Status "
                 "(waive with `tane-lint: allow(tane-check)` on genuine "
                 "invariant paths)")
        if NAKED_NEW_RE.search(line) and "make_unique" not in line \
                and "make_shared" not in line:
            emit("naked-new", number,
                 "raw `new`; use std::make_unique or waive with a comment "
                 "explaining the ownership")
        match = ALLOC_CALL_RE.search(line)
        if match:
            emit("naked-new", number,
                 f"raw {match.group(1)}(); use owned containers/buffers")
        match = STD_SYNC_RE.search(line)
        if match:
            emit("raw-std-sync", number,
                 f"std::{match.group(1)} is invisible to thread-safety "
                 "analysis; use the annotated tane::Mutex wrappers "
                 "(util/mutex.h)")
        match = MUTEX_MEMBER_RE.match(line)
        if match:
            mutex_members.append((number, match.group(1)))
        for pattern in FLOAT_THRESHOLD_RES:
            if pattern.search(line):
                emit("float-threshold", number,
                     "floating-point comparison against an ε threshold; "
                     "validity tests must use the integer thresholds "
                     "(IntegerThreshold in core/tane.cc)")
                break

    code_text = "\n".join(code_lines)
    for number, member in mutex_members:
        companion = re.compile(
            r"TANE_(GUARDED_BY|PT_GUARDED_BY|REQUIRES|"
            r"ACQUIRE|RELEASE|EXCLUDES|"
            r"TRY_ACQUIRE|ASSERT_CAPABILITY|RETURN_CAPABILITY)"
            r"\(\s*" + re.escape(member) + r"\s*\)")
        if not companion.search(code_text):
            emit("unguarded-mutex", number,
                 f"mutex member `{member}` has no TANE_GUARDED_BY/"
                 "TANE_REQUIRES companion in this file; annotate what it "
                 "protects or document why not")

    if rel_path not in IWYU_EXEMPT_FILES:
        include_set = set(
            re.findall(r'^\s*#\s*include\s+["<]([^">]+)[">]',
                       raw, re.MULTILINE))
        for pattern, header in IWYU_RULES:
            match = pattern.search(code_text)
            if match:
                wanted = header.strip("<>")
                if wanted not in include_set:
                    line_number = code_text.count("\n", 0, match.start()) + 1
                    emit("iwyu", line_number,
                         f"uses `{match.group(0)}` but does not include "
                         f"{header} directly")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--baseline", default=None,
                        help="baseline JSON (default: tools/lint_baseline.json)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="accept the current findings as the baseline")
    args = parser.parse_args(argv[1:])

    tools_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(args.root or os.path.dirname(tools_dir))
    baseline_path = args.baseline or os.path.join(tools_dir,
                                                  "lint_baseline.json")
    started = time.monotonic()

    files = []
    for directory, _, names in sorted(os.walk(os.path.join(root, "src"))):
        for name in sorted(names):
            if name.endswith((".h", ".cc")):
                files.append(os.path.relpath(os.path.join(directory, name),
                                             root))

    findings = []
    for rel_path in files:
        lint_file(root, rel_path, findings)

    def fail(message):
        print(f"tane-lint: FAIL: {message}", file=sys.stderr)
        sys.exit(1)

    if args.update_baseline:
        document = {"comment":
                    "Accepted tane-lint findings; regenerate with "
                    "tools/tane_lint.py --update-baseline.",
                    "findings": sorted(f.identity for f in findings)}
        with open(baseline_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        print(f"tane-lint: baseline updated with {len(findings)} findings")
        return 0

    baseline = set()
    if os.path.exists(baseline_path):
        document = jsonio.load_json(baseline_path, fail)
        if not isinstance(document.get("findings"), list):
            fail(f"{baseline_path}: missing 'findings' array")
        baseline = set(document["findings"])

    new = [f for f in findings if f.identity not in baseline]
    stale = baseline - {f.identity for f in findings}
    for finding in new:
        print(finding, file=sys.stderr)

    elapsed = time.monotonic() - started
    print(f"tane-lint: {len(files)} files, {len(findings)} findings "
          f"({len(findings) - len(new)} baselined, {len(new)} new, "
          f"{len(stale)} baseline entries now fixed) in {elapsed:.2f}s")
    if stale:
        print("tane-lint: note: run --update-baseline to drop fixed "
              "entries", file=sys.stderr)
    if new:
        print("tane-lint: FAIL: new findings above; fix them, waive with "
              "`tane-lint: allow(<rule>)`, or --update-baseline",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
