"""The detlint CLI: ``python -m repro.analysis [paths...]``.

Exit status: 0 when clean (after inline suppressions), 1 when findings
remain, 2 on usage errors.  ``--format github`` emits GitHub Actions
``::error`` annotations so CI findings appear inline on the PR diff.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.analysis.detlint import analyze_paths
from repro.analysis.rules import RULES


def _print_rules() -> None:
    for rule in RULES.values():
        print(f"{rule.id}: {rule.summary}")
        print(f"    {rule.rationale}")
        print()


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="determinism & kernel-safety static analysis (see repro.analysis.rules)",
    )
    parser.add_argument("paths", nargs="*", help="files or directories to analyze")
    parser.add_argument("--format", choices=("text", "github"), default="text",
                        help="finding output format (github = ::error annotations)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        _print_rules()
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given (try: python -m repro.analysis src/)", file=sys.stderr)
        return 2

    findings = analyze_paths(args.paths)
    for finding in findings:
        print(finding.render_github() if args.format == "github" else finding.render())
    if findings:
        print(
            f"\ndetlint: {len(findings)} finding(s).  Fix, or suppress inline with "
            "`# detlint: ignore[RULE] -- reason`.",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
