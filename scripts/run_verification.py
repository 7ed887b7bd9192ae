#!/usr/bin/env python3
"""Run the full invariant registry and print a residual table.

A convenience wrapper around ``zmcnoid verify`` for humans: one row per
(check, order) with the measured residual, its tolerance, and ok or FAIL.
Exits nonzero if any check fails, so it slots into CI as-is.
"""

from __future__ import annotations

import argparse
import sys

from zmcnoid.verify import emit_report, run_checks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", help="also write the JSON report here")
    args = parser.parse_args()

    report = run_checks(seed=args.seed)
    width = max(len(c.name) for c in report.checks)
    for c in report.checks:
        order = "-" if c.n is None else str(c.n)
        verdict = "ok" if c.passed else "FAIL"
        print(
            f"{c.name:<{width}}  n={order:<3} measured={c.measured:12.5e} "
            f"tol={c.tolerance:9.2e}  {verdict}"
        )
    summary = report.summary()
    print(f"\n{summary['passed']}/{summary['total']} checks passed (seed {args.seed})")
    if args.json:
        emit_report(report, args.json)
        print(f"report written to {args.json}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
