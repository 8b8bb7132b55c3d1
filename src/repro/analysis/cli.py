"""`python -m repro lint` implementation.

Exit codes: 0 = clean (modulo baseline/suppressions), 1 = unbaselined
findings (or parse errors), 2 = usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.baseline import Baseline
from repro.analysis.flow.graph import render_graph
from repro.analysis.registry import all_rules
from repro.analysis.report import render_json, render_sarif, render_text
from repro.analysis.runner import analyze_paths

DEFAULT_BASELINE = "analysis-baseline.json"


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to scan (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text; sarif for code scanning)",
    )
    parser.add_argument(
        "--graph", metavar="PATH", default=None,
        help="also export the call graph + layer DAG as JSON to PATH "
        "('-' for stdout)",
    )
    parser.add_argument(
        "--baseline", default=DEFAULT_BASELINE,
        help=f"baseline file (default: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline: report every finding",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to absorb all current findings",
    )
    parser.add_argument(
        "--root", default=".",
        help="directory report paths are made relative to (default: cwd)",
    )
    parser.add_argument(
        "--verbose", "-v", action="store_true",
        help="also list suppressed and baselined findings",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="describe every registered rule and exit",
    )


def _list_rules() -> int:
    for rule in all_rules():
        print(f"{rule.id}  [{rule.family}]")
        print(f"    {rule.summary}")
        print(f"    rationale: {rule.rationale}")
    return 0


def run_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        return _list_rules()
    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    root = Path(args.root)
    baseline_path = Path(args.baseline)

    baseline: Optional[Baseline] = None
    if not args.no_baseline and not args.update_baseline:
        try:
            baseline = Baseline.load(baseline_path)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    result = analyze_paths(
        paths, root=root, baseline=baseline,
        need_project=args.graph is not None,
    )

    # a graph on stdout keeps stdout one JSON document: the report moves to stderr
    out = sys.stdout
    if args.graph is not None:
        if result.project is None:
            print("error: --graph needs at least one parsable file",
                  file=sys.stderr)
            return 2
        rendered = render_graph(result.project.index)
        if args.graph == "-":
            sys.stdout.write(rendered)
            out = sys.stderr
        else:
            Path(args.graph).write_text(rendered, encoding="utf-8")
            print(f"call graph + layer DAG written to {args.graph}",
                  file=sys.stderr)

    if args.update_baseline:
        fresh = Baseline.from_findings(result.new_findings)
        fresh.save(baseline_path)
        print(
            f"baseline updated: {fresh.total()} finding(s) recorded "
            f"in {baseline_path}",
            file=out,
        )
        return 0

    if args.format == "json":
        out.write(render_json(result.findings, result.files_scanned))
    elif args.format == "sarif":
        out.write(render_sarif(result.findings, result.files_scanned))
    else:
        print(render_text(result.findings, result.files_scanned, args.verbose), file=out)
    return result.exit_code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="static analysis: determinism, security-flow, sim-time",
    )
    add_lint_arguments(parser)
    return run_lint(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
