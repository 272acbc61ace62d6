#!/usr/bin/env python3
"""Project lint driver: runs every registered check over the repository.

Usage:
  tools/lint/lint.py                 # all checks, text output
  tools/lint/lint.py --check units   # one check
  tools/lint/lint.py --json          # machine-readable findings
  tools/lint/lint.py --list          # available checks

Exit status: 0 clean, 1 findings, 2 usage error. Paths resolve relative to
the repository root, so it runs from anywhere; --root points it at another
tree (the selftest uses this against fixtures).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check_determinism  # noqa: F401  (registers on import)
import check_lock_type  # noqa: F401
import check_units  # noqa: F401
import check_width_dispatch  # noqa: F401
from framework import all_checks, get_check, run_checks

REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO_ROOT,
                        help="tree to scan (default: repository root)")
    parser.add_argument("--check", action="append", dest="checks",
                        metavar="NAME", help="run only this check "
                        "(repeatable; default: all)")
    parser.add_argument("--json", action="store_true",
                        help="JSON findings on stdout")
    parser.add_argument("--list", action="store_true",
                        help="list available checks and exit")
    args = parser.parse_args(argv)

    if args.list:
        for check in all_checks():
            print(f"{check.name}: {check.description}")
        return 0

    if args.checks:
        try:
            selected = [get_check(name) for name in args.checks]
        except KeyError as e:
            print(f"unknown check: {e.args[0]}", file=sys.stderr)
            return 2
    else:
        selected = all_checks()

    return run_checks(args.root.resolve(), selected, as_json=args.json)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
