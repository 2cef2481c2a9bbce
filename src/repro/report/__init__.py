"""Text-based figures & trend analysis over the bench corpus.

``python -m repro.report`` loads every ``BENCH_*.json`` (current run,
committed baselines, optional history snapshots), normalises them into
tidy per-metric CSVs, renders hand-rolled Vega-Lite specs next to them,
and writes a ``REPORT.md`` tying each figure to a prose caption — all
deterministic text artifacts, validated by ``tools/check_report.py`` in
CI and documented field by field in ``docs/BENCHMARKS.md``.
"""

from repro.report.loader import (
    BASELINE_SOURCE,
    CURRENT_SOURCE,
    LoadedReport,
    load_bench_reports,
    primary_source,
)
from repro.report.pipeline import (
    DEFAULT_SEED,
    ReportBuild,
    build_report,
    build_specs,
    build_tables,
)
from repro.report.stats import bootstrap_ci, summarize
from repro.report.tables import (
    DEFAULT_SUITE_TOLERANCES,
    DEFAULT_TOLERANCE,
    render_csv,
    trends_table,
    write_table,
)

__all__ = [
    "BASELINE_SOURCE",
    "CURRENT_SOURCE",
    "DEFAULT_SEED",
    "DEFAULT_SUITE_TOLERANCES",
    "DEFAULT_TOLERANCE",
    "LoadedReport",
    "ReportBuild",
    "bootstrap_ci",
    "build_report",
    "build_specs",
    "build_tables",
    "load_bench_reports",
    "primary_source",
    "render_csv",
    "summarize",
    "trends_table",
    "write_table",
]
