#!/usr/bin/env python
"""Validate benchmark reports (``BENCH_*.json``) and gate perf regressions.

Two modes, composable:

**Schema validation** (always on): a malformed report — wrong schema
version, a suite other than ``queries`` or ``store``, missing keys, bad
types, or any result row with ``"agreement": false`` — fails the check,
so the uploaded perf artifact is always machine-readable and trustworthy.

**Baseline comparison** (``--compare``): every validated report is matched
against a committed baseline (a file, or a directory holding
``BENCH_<suite>.json`` files such as ``benchmarks/baselines/``) and the
check fails when a metric regresses beyond ``--tolerance``:

* ``agreement`` is compared at zero tolerance — a row whose baseline
  agreed may never disagree;
* ``speedup_vs_serial`` may not drop below ``baseline * (1 - tolerance)``
  — speedup ratios are machine-portable where raw wall-clock seconds are
  not, so seconds are recorded but never gated;
* result rows present in the baseline must still exist (keyed by
  ``(name, backend, workers)``); new rows in the current report are fine.

Suites may be gated differently from the default with
``--suite-tolerance SUITE=TOL`` (repeatable) — CI widens the band of the
store suite, whose WAL rows measure tmpdir filesystem behaviour.

Usage::

    python tools/check_bench.py BENCH_queries.json [more.json ...]
    python tools/check_bench.py                # every BENCH_*.json in cwd
    python tools/check_bench.py BENCH_store.json \
        --compare benchmarks/baselines --suite-tolerance store=0.6

Exit status is 0 when every file validates (and, with ``--compare``, shows
no regression), 1 otherwise.  Wall-clock numbers are never gated here:
end-to-end speed is judged by the repository benchmark (``perfbench/``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench import (  # noqa: E402  (path bootstrap above)
    BENCH_SCHEMA,
    REQUIRED_RESULT_KEYS,
    REQUIRED_TOP_KEYS,
)
from repro.runtime import BACKEND_NAMES  # noqa: E402

_TOP_TYPES = {
    "schema": str,
    "suite": str,
    "created_at": str,
    "python": str,
    "platform": str,
    "cpu_count": int,
    "scale": str,
    "workers": int,
    "workload": dict,
    "results": list,
}

def _validate_precision_section(report: dict, origin: str) -> list:
    """Queries-suite extra (optional): annotation-vs-truth answer quality.

    Each cell holds parallel per-query-shape observation lists; scores are
    ratios, so anything outside [0, 1] means the producer is broken.
    """
    problems = []
    section = report.get("precision")
    if section is None:
        return problems
    if not isinstance(section, list) or not section:
        return [f"{origin}: precision section must be a non-empty list"]
    for index, cell in enumerate(section):
        where = f"{origin}: precision[{index}]"
        if not isinstance(cell, dict):
            problems.append(f"{where} must be an object")
            continue
        for key in ("scenario", "query", "k", "precision", "recall"):
            if key not in cell:
                problems.append(f"{where} missing key {key!r}")
        if cell.get("query") not in ("tkprq", "tkfrpq"):
            problems.append(
                f"{where}: query must be 'tkprq' or 'tkfrpq', "
                f"got {cell.get('query')!r}"
            )
        k = cell.get("k")
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            problems.append(f"{where}: k must be a positive int")
        lengths = set()
        for measure in ("precision", "recall"):
            observations = cell.get(measure)
            if not isinstance(observations, list) or not observations:
                problems.append(
                    f"{where}: {measure} must be a non-empty list of scores"
                )
                continue
            lengths.add(len(observations))
            if not all(
                isinstance(score, (int, float))
                and not isinstance(score, bool)
                and 0.0 <= score <= 1.0
                for score in observations
            ):
                problems.append(
                    f"{where}: every {measure} observation must be a "
                    "number in [0, 1]"
                )
        if len(lengths) > 1:
            problems.append(
                f"{where}: precision and recall must have one observation "
                "per query shape (parallel lists of equal length)"
            )
    return problems


def _validate_store_section(report: dict, origin: str) -> list:
    """Store-suite extras: shard layout + the durability invariants.

    Recovery must be *exact* (the reopened store equals the pre-close one,
    entry for entry) and a flushed store must have zero pending WAL
    records — both are correctness properties of the WAL, not
    performance numbers, so they gate at zero tolerance.
    """
    problems = []
    section = report.get("store")
    if not isinstance(section, dict):
        return [f"{origin}: store suite requires a 'store' section object"]
    for key in ("shards", "shard_counts", "recovery", "pending_after_flush"):
        if key not in section:
            problems.append(f"{origin}: store section missing key {key!r}")
    shards = section.get("shards")
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
        problems.append(f"{origin}: store.shards must be a positive int")
    counts = section.get("shard_counts")
    if (
        not isinstance(counts, list)
        or not counts
        or not all(
            isinstance(count, int) and not isinstance(count, bool) and count >= 1
            for count in counts
        )
    ):
        problems.append(
            f"{origin}: store.shard_counts must be a non-empty list of "
            f"positive ints, got {counts!r}"
        )
    if section.get("scatter_agreement") is not True:
        problems.append(
            f"{origin}: store.scatter_agreement must be true — a sharded "
            "top-k differing from the single-store answer is a merge bug"
        )
    recovery = section.get("recovery")
    if not isinstance(recovery, dict):
        problems.append(f"{origin}: store.recovery must be an object")
    else:
        if recovery.get("exact") is not True:
            problems.append(
                f"{origin}: store.recovery.exact must be true — WAL+snapshot "
                "recovery must reproduce the pre-close store exactly"
            )
        replayed = recovery.get("replayed_records")
        if not isinstance(replayed, int) or isinstance(replayed, bool) or replayed < 0:
            problems.append(
                f"{origin}: store.recovery.replayed_records must be a "
                "non-negative int"
            )
    if section.get("pending_after_flush") != 0:
        problems.append(
            f"{origin}: store.pending_after_flush must be 0 — flush() is a "
            "durability barrier and may not leave queued WAL records"
        )
    return problems


#: Every suite ``python -m repro.bench`` writes, with the validator of its
#: extra section.  Any other suite name is rejected, so a stale report of a
#: retired suite (or a misspelt one) cannot skip its section's gates.
_SUITE_SECTIONS = {
    "queries": _validate_precision_section,
    "store": _validate_store_section,
}


def validate_report(report: object, origin: str) -> list:
    """Return a list of problem strings for one parsed report (empty = valid)."""
    problems = []
    if not isinstance(report, dict):
        return [f"{origin}: top level must be a JSON object"]
    for key in REQUIRED_TOP_KEYS:
        if key not in report:
            problems.append(f"{origin}: missing top-level key {key!r}")
        elif not isinstance(report[key], _TOP_TYPES[key]):
            problems.append(
                f"{origin}: key {key!r} must be {_TOP_TYPES[key].__name__}, "
                f"got {type(report[key]).__name__}"
            )
    if problems:
        return problems

    if report["schema"] != BENCH_SCHEMA:
        problems.append(
            f"{origin}: unknown schema {report['schema']!r} "
            f"(this validator understands {BENCH_SCHEMA!r})"
        )
    suite = report["suite"]
    workload = report["workload"]
    for key in ("sequences", "records"):
        value = workload.get(key)
        if not isinstance(value, int) or value < 1:
            problems.append(f"{origin}: workload.{key} must be a positive int")
    if report["workers"] < 1:
        problems.append(f"{origin}: workers must be at least 1")
    if not report["results"]:
        problems.append(f"{origin}: results must not be empty")

    backends_seen = set()
    for index, entry in enumerate(report["results"]):
        where = f"{origin}: results[{index}]"
        if not isinstance(entry, dict):
            problems.append(f"{where} must be an object")
            continue
        for key in REQUIRED_RESULT_KEYS:
            if key not in entry:
                problems.append(f"{where} missing key {key!r}")
        if not isinstance(entry.get("name"), str) or not entry.get("name"):
            problems.append(f"{where}: name must be a non-empty string")
        if entry.get("backend") not in BACKEND_NAMES:
            problems.append(
                f"{where}: backend must be one of {BACKEND_NAMES}, "
                f"got {entry.get('backend')!r}"
            )
        if not isinstance(entry.get("workers"), int) or entry.get("workers", 0) < 1:
            problems.append(f"{where}: workers must be a positive int")
        for key in ("seconds", "speedup_vs_serial"):
            value = entry.get(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or value <= 0:
                problems.append(f"{where}: {key} must be a positive number")
        if entry.get("agreement") is not True:
            problems.append(
                f"{where}: agreement must be true — an accelerated path "
                "disagreeing with the reference answers is a correctness bug"
            )
        backends_seen.add(entry.get("backend"))

    if "serial" not in backends_seen:
        problems.append(f"{origin}: no serial baseline entry in results")
    validate_section = _SUITE_SECTIONS.get(suite)
    if validate_section is None:
        problems.append(
            f"{origin}: unknown suite {suite!r} "
            f"(expected one of {sorted(_SUITE_SECTIONS)})"
        )
    else:
        problems.extend(validate_section(report, origin))
    return problems


# ------------------------------------------------------------- comparison
def _result_key(entry: dict) -> Tuple[str, str, int]:
    return (entry.get("name"), entry.get("backend"), entry.get("workers"))


def compare_reports(
    current: dict, baseline: dict, tolerance: float, origin: str
) -> list:
    """Return regression problems of ``current`` against ``baseline``."""
    problems = []
    if current.get("suite") != baseline.get("suite"):
        return [
            f"{origin}: suite {current.get('suite')!r} does not match "
            f"baseline suite {baseline.get('suite')!r}"
        ]
    current_rows: Dict[Tuple, dict] = {
        _result_key(entry): entry for entry in current.get("results", [])
    }
    for entry in baseline.get("results", []):
        key = _result_key(entry)
        where = f"{origin}: {key[0]} [{key[1]} x{key[2]}]"
        row = current_rows.get(key)
        if row is None:
            problems.append(f"{where} present in baseline but missing here")
            continue
        # Agreement regresses at zero tolerance.
        if entry.get("agreement") is True and row.get("agreement") is not True:
            problems.append(f"{where}: agreement regressed (true -> false)")
        base_speedup = entry.get("speedup_vs_serial")
        speedup = row.get("speedup_vs_serial")
        if isinstance(base_speedup, (int, float)) and isinstance(
            speedup, (int, float)
        ):
            floor = base_speedup * (1.0 - tolerance)
            if speedup < floor:
                problems.append(
                    f"{where}: speedup_vs_serial {speedup:.2f}x regressed "
                    f"below {floor:.2f}x (baseline {base_speedup:.2f}x, "
                    f"tolerance {tolerance:.0%})"
                )
    return problems


def resolve_baseline(compare: Path, report: dict, origin: str) -> Tuple[Optional[dict], list]:
    """Find the baseline report for ``report`` under ``--compare``."""
    path = compare
    if compare.is_dir():
        path = compare / f"BENCH_{report.get('suite')}.json"
    if not path.exists():
        return None, [f"{origin}: no baseline found at {path}"]
    try:
        return json.loads(path.read_text(encoding="utf-8")), []
    except (OSError, json.JSONDecodeError) as error:
        return None, [f"{origin}: unreadable baseline {path} ({error})"]


def check_file(path: Path) -> Tuple[Optional[dict], list]:
    """Parse and validate one report file; return ``(report, problems)``."""
    try:
        report = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        return None, [f"{path}: unreadable or invalid JSON ({error})"]
    return report, validate_report(report, str(path))


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/check_bench.py",
        description="Validate BENCH_*.json reports; optionally gate "
        "regressions against committed baselines.",
    )
    parser.add_argument(
        "files",
        nargs="*",
        type=Path,
        help="report files (default: every BENCH_*.json in cwd)",
    )
    parser.add_argument(
        "--compare",
        type=Path,
        default=None,
        metavar="BASELINE",
        help="baseline file, or directory of BENCH_<suite>.json baselines",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional speedup regression vs the baseline "
        "(default: 0.25; agreement is always compared at zero tolerance)",
    )
    parser.add_argument(
        "--suite-tolerance",
        action="append",
        default=None,
        metavar="SUITE=TOL",
        help="override the tolerance for one suite (repeatable, e.g. "
        "store=0.6)",
    )
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error(f"--tolerance must be in [0, 1), got {args.tolerance}")
    suite_tolerances: Dict[str, float] = {}
    for spec in args.suite_tolerance or ():
        suite, _, raw = spec.partition("=")
        try:
            value = float(raw)
        except ValueError:
            value = -1.0
        if not suite or not 0.0 <= value < 1.0:
            parser.error(
                f"--suite-tolerance must look like SUITE=TOL with TOL in "
                f"[0, 1), got {spec!r}"
            )
        suite_tolerances[suite] = value

    paths: List[Path] = list(args.files)
    if not paths:
        paths = sorted(Path.cwd().glob("BENCH_*.json"))
    if not paths:
        print("FAIL no BENCH_*.json files found (and none given)", file=sys.stderr)
        return 1
    failures = 0
    for path in paths:
        if not path.exists():
            print(f"FAIL missing report file: {path}", file=sys.stderr)
            failures += 1
            continue
        report, problems = check_file(path)
        if not problems and args.compare is not None:
            baseline, baseline_problems = resolve_baseline(
                args.compare, report, str(path)
            )
            problems.extend(baseline_problems)
            if baseline is not None:
                problems.extend(
                    compare_reports(
                        report,
                        baseline,
                        suite_tolerances.get(report.get("suite"), args.tolerance),
                        str(path),
                    )
                )
        if problems:
            failures += 1
            for problem in problems:
                print(f"FAIL {problem}", file=sys.stderr)
        else:
            gate = " vs baseline ok" if args.compare is not None else ""
            print(
                f"ok   {path} ({report['suite']}, scale={report['scale']}, "
                f"{len(report['results'])} result rows{gate})"
            )
    if failures:
        print(f"bench-check: {failures} invalid file(s)", file=sys.stderr)
        return 1
    print(f"bench-check: {len(paths)} file(s) schema-valid"
          + (" and within tolerance" if args.compare is not None else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
