"""CLI of the invariant linter: ``python -m repro.analysis``.

Usage::

    PYTHONPATH=src python -m repro.analysis --strict src benchmarks examples
    PYTHONPATH=src python -m repro.analysis --format json src
    PYTHONPATH=src python -m repro.analysis --list-rules

Exit codes: ``0`` when clean, ``1`` on findings (``error`` severity always
fails; ``warning`` findings fail only under ``--strict``), ``2`` on usage
errors.  This is the command the CI lint job runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .engine import analyze
from .rules import RULES, resolve_rules

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "AST-based invariant linter for the FIXAR reproduction: "
            "enforces the ROADMAP's durable contracts (batch-invariant env "
            "kernels, deterministic pricing oracles, ReplayBuffer lock "
            "discipline, the blessed seeding scheme, config/CLI parity) at "
            "diff time"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json emits the full report object)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on any unsuppressed finding, warnings included",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="RULE-ID",
        help="run only the named rule (repeatable; default: all rules)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, cls in RULES.items():
            print(f"{rule_id:24s} [{cls.severity:7s}] {cls.description}")
        return 0

    try:
        rules = resolve_rules(args.rule)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        report = analyze(args.paths, rules=rules)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        summary = (
            f"{len(report.files)} files, {len(report.rules)} rules: "
            f"{len(report.findings)} finding"
            f"{'s' if len(report.findings) != 1 else ''}"
        )
        if report.suppressed:
            summary += f" ({len(report.suppressed)} suppressed by pragma)"
        print(summary)
    return report.exit_code(strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())
