#!/usr/bin/env python3
"""Self-test for tools/desword_lint.py (ctest: desword_lint_selftest).

The lint gate is only worth trusting if the lint itself is tested: a rule
that silently stops firing fails open, and a rule that fires on clean code
gets waived into noise. Each directory under ``tools/lint_fixtures/`` is a
miniature repo tree seeded with deliberate violations AND nearby clean
look-alikes (exempt files, waived lines, sanctioned nested spans); its
``expected_violations.txt`` lists the exact findings as
``<rule> <path>:<line>`` lines.

This driver runs the real Linter over every fixture root and compares the
exact (rule, path, line) sets — missing findings, extra findings, and
off-by-one line numbers all fail. It also fails if any lint rule has no
fixture coverage, so adding a rule forces adding a fixture, and if a file
the handler-crypto/loop-affinity rules name is missing from the real tree
(a renamed endpoint or handoff helper would otherwise drop out of the
scan silently).

All paths derive from ``__file__``; the test passes from any working
directory (ctest sets it to the build tree).
"""

from __future__ import annotations

import pathlib
import sys

TOOLS_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS_DIR))

from desword_lint import HANDLER_FILES, Linter  # noqa: E402  (sys.path)

FIXTURES_DIR = TOOLS_DIR / "lint_fixtures"
REPO_ROOT = TOOLS_DIR.parent

# Every rule the linter implements must appear in at least one fixture's
# expected set. Keep in sync with the rule list in desword_lint.py's
# docstring — the test fails loudly when they drift.
ALL_RULES = {
    "randomness",
    "decode-cast",
    "switch-default",
    "secret-print",
    "modexp",
    "handler-crypto",
    "metric-name",
    "raw-mutex",
    "loop-affinity",
    "timer-pairing",
    "cache-key",
}

Finding = tuple[str, str, int]  # (rule, relative path, line)


def load_expected(path: pathlib.Path) -> set[Finding]:
    expected: set[Finding] = set()
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rule, loc = line.split()
        rel, _, lineno = loc.rpartition(":")
        expected.add((rule, rel, int(lineno)))
    return expected


def run_case(case_dir: pathlib.Path) -> tuple[bool, set[Finding]]:
    linter = Linter(case_dir)
    nfiles = linter.collect()
    actual = {(rule, rel, lineno)
              for rel, lineno, rule, _ in linter.violations}
    expected = load_expected(case_dir / "expected_violations.txt")
    ok = True
    if nfiles == 0:
        print(f"FAIL {case_dir.name}: fixture matched no source files")
        ok = False
    for finding in sorted(expected - actual):
        print(f"FAIL {case_dir.name}: expected but not reported: "
              f"[{finding[0]}] {finding[1]}:{finding[2]}")
        ok = False
    for finding in sorted(actual - expected):
        print(f"FAIL {case_dir.name}: reported but not expected: "
              f"[{finding[0]}] {finding[1]}:{finding[2]}")
        ok = False
    if ok:
        print(f"ok   {case_dir.name}: {len(expected)} finding(s) match "
              f"across {nfiles} file(s)")
    return ok, expected


def main() -> int:
    if not FIXTURES_DIR.is_dir():
        print(f"FAIL: fixture directory missing: {FIXTURES_DIR}")
        return 1
    cases = sorted(p for p in FIXTURES_DIR.iterdir() if p.is_dir())
    if not cases:
        print(f"FAIL: no fixture cases under {FIXTURES_DIR}")
        return 1
    all_ok = True
    covered: set[str] = set()
    for case_dir in cases:
        expected_file = case_dir / "expected_violations.txt"
        if not expected_file.is_file():
            print(f"FAIL {case_dir.name}: missing expected_violations.txt")
            all_ok = False
            continue
        ok, expected = run_case(case_dir)
        all_ok = all_ok and ok
        covered |= {rule for rule, _, _ in expected}
    uncovered = ALL_RULES - covered
    if uncovered:
        print("FAIL: rules with no fixture coverage: "
              + ", ".join(sorted(uncovered)))
        all_ok = False
    for rel in sorted(HANDLER_FILES):
        if not (REPO_ROOT / rel).is_file():
            print(f"FAIL: HANDLER_FILES names a missing file: {rel}")
            all_ok = False
    unknown = covered - ALL_RULES
    if unknown:
        print("FAIL: fixtures expect unknown rules: "
              + ", ".join(sorted(unknown)))
        all_ok = False
    if all_ok:
        print(f"desword_lint_selftest: {len(cases)} fixture case(s) pass")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
