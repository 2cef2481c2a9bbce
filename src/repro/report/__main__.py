"""CLI for the report pipeline: ``python -m repro.report``.

Examples::

    # committed baselines only (what CI diffs against docs/report/)
    python -m repro.report --bench-dir benchmarks/baselines --out docs/report

    # fresh bench output in cwd + baselines + nightly snapshots
    python -m repro.report --bench-dir . --history snapshots/ --out report-out

Exit status is 0 on success — including when regressions are *flagged*
(the report's job is to show them; failing the build is the perf gate's
job) — and 1 when no bench input can be found at all.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Dict

from repro.report.pipeline import DEFAULT_SEED, build_report
from repro.report.tables import DEFAULT_SUITE_TOLERANCES, DEFAULT_TOLERANCE


def _parse_suite_tolerances(specs) -> Dict[str, float]:
    tolerances = dict(DEFAULT_SUITE_TOLERANCES)
    for spec in specs or ():
        suite, _, raw = spec.partition("=")
        try:
            value = float(raw)
        except ValueError as error:
            raise SystemExit(f"bad --suite-tolerance {spec!r}: {error}")
        if not suite or not 0.0 <= value < 1.0:
            raise SystemExit(
                f"--suite-tolerance must look like SUITE=TOL with TOL in "
                f"[0, 1), got {spec!r}"
            )
        tolerances[suite] = value
    return tolerances


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.report",
        description="Render Vega-Lite figures, tidy CSVs and REPORT.md "
        "from the bench corpus.",
    )
    parser.add_argument(
        "--bench-dir",
        type=Path,
        default=Path("."),
        help="directory holding the current run's BENCH_*.json files "
        "(default: cwd)",
    )
    parser.add_argument(
        "--baselines",
        type=Path,
        default=Path("benchmarks/baselines"),
        help="committed baseline directory (default: benchmarks/baselines)",
    )
    parser.add_argument(
        "--history",
        type=Path,
        default=None,
        help="optional directory of labelled snapshot subdirectories, each "
        "holding earlier BENCH_*.json files (oldest label first)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("docs/report"),
        help="output directory (default: docs/report)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"bootstrap seed (default: {DEFAULT_SEED}); same inputs + same "
        "seed reproduce every artifact byte for byte",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="default CI tolerance band used to flag trend regressions "
        f"(default: {DEFAULT_TOLERANCE})",
    )
    parser.add_argument(
        "--suite-tolerance",
        action="append",
        default=None,
        metavar="SUITE=TOL",
        help="per-suite tolerance override, repeatable (defaults mirror the "
        "CI gates: " + ", ".join(
            f"{suite}={tol}" for suite, tol in sorted(DEFAULT_SUITE_TOLERANCES.items())
        ) + ")",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error(f"--tolerance must be in [0, 1), got {args.tolerance}")

    try:
        build = build_report(
            bench_dir=args.bench_dir,
            baselines_dir=args.baselines,
            history_dir=args.history,
            out_dir=args.out,
            seed=args.seed,
            tolerance=args.tolerance,
            suite_tolerances=_parse_suite_tolerances(args.suite_tolerance),
        )
    except ValueError as error:
        print(f"repro.report: {error}", file=sys.stderr)
        return 1

    suites = sorted({loaded.suite for loaded in build.reports})
    print(f"report: {len(build.reports)} report(s) over suites {', '.join(suites)}")
    for path in build.written:
        print(f"  wrote {path}")
    if build.regressions:
        print(
            f"report: {len(build.regressions)} metric(s) flagged past the "
            f"CI tolerance band — see the trends section of "
            f"{build.out_dir / 'REPORT.md'}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
