"""CLI for the invariant lint engine.

Usage::

    python -m repro.analysis [paths ...] [--json] [--output FILE]
                             [--rules REP001,REP004] [--list-rules]

With no paths the standard layout (``src``, ``tests``, ``benchmarks``,
``examples`` — whichever exist under the current directory) is analyzed.
Exit status is 0 when no unsuppressed finding remains, 1 otherwise, and 2
(with one ``error: …`` line) for an unknown ``--rules`` code or a path that
does not exist; ``--output`` writes the JSON report (the CI artifact)
regardless of the chosen stdout format.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.engine import all_rules, analyze_paths, format_json, rule_catalog

_DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based invariant checks (determinism, picklability, "
        "oracle-parity, float-equality, hygiene).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to analyze (default: src tests benchmarks examples)",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the JSON report instead of human output"
    )
    parser.add_argument(
        "--output", type=Path, default=None, help="also write the JSON report to this file"
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule codes to run (default: all registered rules)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list registered rules and exit"
    )
    arguments = parser.parse_args(argv)

    if arguments.list_rules:
        for code, name, description in rule_catalog():
            print(f"{code}  {name}: {description}")
        return 0

    codes = (
        [code.strip() for code in arguments.rules.split(",") if code.strip()]
        if arguments.rules
        else None
    )
    try:
        rules = all_rules(codes)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    paths = arguments.paths or [path for path in _DEFAULT_PATHS if Path(path).exists()]
    if not paths:
        parser.error("no paths given and none of the default paths exist")
    missing = [path for path in paths if not Path(path).exists()]
    if missing:
        print(f"error: no such file or directory: {', '.join(missing)}", file=sys.stderr)
        return 2
    report = analyze_paths(paths, rules)

    if arguments.output is not None:
        arguments.output.write_text(format_json(report) + "\n")
    if arguments.json:
        print(format_json(report))
    else:
        print(report.format_human())
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
