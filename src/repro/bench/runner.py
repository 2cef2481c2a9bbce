"""The shared ``repro.bench/1`` report envelope and the command-line entry point.

Each suite (:mod:`repro.bench.queries`, :mod:`repro.bench.store`) builds
its own report; this module holds what they share — the schema
identifier, the keys ``tools/check_bench.py`` requires, the JSON writer,
the terminal summary — and the
``python -m repro.bench --queries|--store`` entry point.  Every result row
carries an ``agreement`` flag comparing the measured path against its
reference; a report with any ``"agreement": false`` row makes the CLI
exit non-zero and fails ``tools/check_bench.py``.

End-to-end speed (live HTTP ingest, backfill decoding, the query mix) is
measured by the repository benchmark in ``perfbench/`` instead; see
``perfbench/METHOD.md``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

from repro.scenarios import scenario_names

#: Schema identifier written to (and required in) every report.
BENCH_SCHEMA = "repro.bench/1"

#: Keys every report must carry at the top level.
REQUIRED_TOP_KEYS = (
    "schema",
    "suite",
    "created_at",
    "python",
    "platform",
    "cpu_count",
    "scale",
    "workers",
    "workload",
    "results",
)

#: Keys every entry of ``results`` must carry.
REQUIRED_RESULT_KEYS = (
    "name",
    "backend",
    "workers",
    "seconds",
    "speedup_vs_serial",
    "agreement",
)

def write_report(report: Dict[str, Any], path: Union[str, Path]) -> Path:
    """Write a benchmark report as pretty-printed JSON; return the path."""
    target = Path(path)
    if target.parent != Path("."):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return target


def format_summary(report: Dict[str, Any]) -> str:
    """A short human-readable rendering of a report for terminal output."""
    lines = [
        f"suite={report['suite']} scale={report['scale']} "
        f"workers={report['workers']} cpu_count={report['cpu_count']}",
        f"workload: {report['workload']['sequences']} sequences, "
        f"{report['workload']['records']} records",
    ]
    for detail in report.get("scenarios", []):
        lines.append(
            f"  scenario {detail['name']:22s} objects {detail['objects']:5d}  "
            f"postings {detail['postings']:6d}  "
            f"index build {detail['index_build_seconds']:6.3f}s"
        )
    store = report.get("store")
    if isinstance(store, dict):
        recovery = store["recovery"]
        lines.append(
            f"  store: shards={store['shards']}  scatter over {store['shard_counts']}  "
            f"recovery exact={'ok' if recovery['exact'] else 'FAIL'} "
            f"(replayed {recovery['replayed_records']})  "
            f"pending after flush={store['pending_after_flush']}"
        )
    for entry in report["results"]:
        lines.append(
            f"  {entry['name']:28s} {entry['backend']:8s} x{entry['workers']:<2d} "
            f"{entry['seconds']:8.3f}s  speedup {entry['speedup_vs_serial']:6.2f}x  "
            f"agreement={'ok' if entry['agreement'] else 'FAIL'}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI driver of ``python -m repro.bench``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run one benchmark suite and write a schema-versioned "
        "JSON report.",
    )
    suite = parser.add_mutually_exclusive_group(required=True)
    suite.add_argument(
        "--queries",
        action="store_true",
        help="run the query suite (indexed vs scan TkPRQ/TkFRPQ, plus the "
        "precision section); --scale sets the replication and --scenario "
        "restricts the scenario set",
    )
    suite.add_argument(
        "--store",
        action="store_true",
        help="run the store suite (sharded ingest, WAL durability + recovery, "
        "scatter-gather top-k vs the single store); --scale sets the object "
        "count and --workers the shard count of the ingest rows",
    )
    parser.add_argument(
        "--scale",
        choices=("tiny", "small", "medium"),
        default="tiny",
        help="workload scale (default: tiny, the CI setting)",
    )
    parser.add_argument(
        "--tiny",
        action="store_const",
        const="tiny",
        dest="scale",
        help="shorthand for --scale tiny",
    )
    parser.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME",
        choices=sorted(scenario_names()) + ["all"],
        help="restrict the query suite to a registered scenario (repeatable; "
        "default and 'all': the whole catalogue)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        help="shard count of the store suite's ingest rows (default: 4)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="timing repetitions per variant; best-of is reported (default: 1)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path (default: BENCH_queries.json or BENCH_store.json)",
    )
    args = parser.parse_args(argv)
    if args.store and args.scenario:
        parser.error("--scenario does not apply to --store runs "
                     "(the store workload is synthetic)")

    if args.store:
        from repro.bench.store import run_store_benchmarks

        report = run_store_benchmarks(
            args.scale, shards=args.workers, repeats=args.repeats
        )
    else:
        from repro.bench.queries import run_query_benchmarks

        names = (
            scenario_names()
            if not args.scenario or "all" in args.scenario
            else list(dict.fromkeys(args.scenario))
        )
        report = run_query_benchmarks(
            names, scale=args.scale, repeats=args.repeats
        )
    path = write_report(report, args.out or f"BENCH_{report['suite']}.json")
    print(format_summary(report))
    print(f"wrote {path}")
    if not all(entry["agreement"] for entry in report["results"]):
        print("FAIL: at least one row disagrees with its reference answers",
              file=sys.stderr)
        return 1
    return 0
