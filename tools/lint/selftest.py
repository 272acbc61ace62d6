#!/usr/bin/env python3
"""Self-test for the lint framework: pins each check against fixtures.

Every check has two fixture trees under tests/fixtures/<check>/ (dashes in
the check's name become underscores):

  flag/  a mini-repo where each of the check's rules must fire exactly the
         expected number of times — proving the patterns still match;
  pass/  the clean counterparts: correct idioms, per-rule `lint: allow(...)`
         suppressions, the legacy `lint-units: allow` marker, and files
         outside the check's scope containing would-be violations — proving
         precision (no finding may appear).

Run directly or via ctest (`lint.selftest`). Exit 0 on success, 1 with a
diff of expected vs. actual findings on failure.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check_determinism  # noqa: F401  (registers on import)
import check_lock_type  # noqa: F401
import check_units  # noqa: F401
import check_width_dispatch  # noqa: F401
from framework import CheckContext, get_check

FIXTURES = Path(__file__).resolve().parent / "tests" / "fixtures"

#: check -> expected (path, rule) multiset over its flag/ fixture tree.
EXPECTED_FLAG = {
    "units": Counter(
        {
            ("src/estimation/bad.hpp", "magic-constant"): 1,
            ("src/estimation/bad.hpp", "db-pow"): 1,
            ("src/estimation/bad.hpp", "raw-double-name"): 1,
            ("src/estimation/bad.hpp", "raw-double-unit"): 1,
        }
    ),
    "determinism": Counter(
        {
            ("src/core/bad.cpp", "wall-clock"): 1,
            ("src/core/bad.cpp", "nondeterministic-seed"): 1,
            ("src/core/bad.cpp", "c-rand"): 1,
            ("src/core/bad.cpp", "unseeded-engine"): 1,
            ("src/core/bad.cpp", "unordered-iter"): 1,
        }
    ),
    "width-dispatch": Counter({("src/dsp/bad.cpp", "width-dispatch"): 5}),
    "lock-type": Counter({("src/runtime/bad.cpp", "lock-type"): 5}),
}


def run(check_name: str, tree: Path) -> Counter:
    check = get_check(check_name)
    found = Counter()
    for finding in check.fn(CheckContext(tree)):
        found[(finding.path, finding.rule)] += 1
    return found


def main() -> int:
    failures: list[str] = []
    for check_name, expected in sorted(EXPECTED_FLAG.items()):
        fixture = FIXTURES / check_name.replace("-", "_")
        flag_tree = fixture / "flag"
        pass_tree = fixture / "pass"
        if not flag_tree.is_dir() or not pass_tree.is_dir():
            failures.append(f"{check_name}: missing fixture trees")
            continue

        got = run(check_name, flag_tree)
        if got != expected:
            missing = expected - got
            surplus = got - expected
            if missing:
                failures.append(
                    f"{check_name}/flag: expected findings not produced: "
                    f"{sorted(missing)}"
                )
            if surplus:
                failures.append(
                    f"{check_name}/flag: unexpected findings: "
                    f"{sorted(surplus)}"
                )

        clean = run(check_name, pass_tree)
        if clean:
            failures.append(
                f"{check_name}/pass: must be clean but found: "
                f"{sorted(clean)}"
            )

    if failures:
        print("\n".join(failures), file=sys.stderr)
        print(f"\nlint selftest: {len(failures)} failure(s)", file=sys.stderr)
        return 1
    print(f"lint selftest: {len(EXPECTED_FLAG)} check(s) pinned, all green")
    return 0


if __name__ == "__main__":
    sys.exit(main())
