"""Discover and load the bench corpus for the report pipeline.

Three places feed the report, ordered along one trend axis:

* an optional ``--history`` directory whose *subdirectories* are labelled
  snapshots of earlier baselines (``history/2026-08/BENCH_queries.json`` …),
  ordered by label — oldest label first;
* the committed baselines (``benchmarks/baselines/BENCH_<suite>.json``),
  labelled ``baseline``;
* the current run (``--bench-dir``), labelled ``current`` — every
  ``BENCH_*.json`` under it.

When ``--bench-dir`` *is* the baselines directory (the committed-report
mode CI regenerates ``docs/report/`` from) the same files are not loaded
twice; the baselines simply double as the primary source.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Source label of the committed baselines.
BASELINE_SOURCE = "baseline"

#: Source label of the current run.
CURRENT_SOURCE = "current"


@dataclass(frozen=True)
class LoadedReport:
    """One parsed ``BENCH_*.json`` with its provenance along the trend axis."""

    source: str
    order: int
    suite: str
    path: Path
    report: dict


def _read_reports(directory: Path) -> List[Tuple[Path, dict]]:
    loaded = []
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as error:
            raise ValueError(f"unreadable bench report {path}: {error}") from error
        if isinstance(report, dict) and isinstance(report.get("suite"), str):
            loaded.append((path, report))
    return loaded


def load_bench_reports(
    bench_dir: Optional[Path],
    baselines_dir: Optional[Path],
    history_dir: Optional[Path] = None,
) -> List[LoadedReport]:
    """Load every report, ordered history → baseline → current.

    Within one source, at most one report per suite is kept (the
    lexicographically first path wins) so the trend axis stays a function
    of ``(source, suite)``.
    """
    groups: List[Tuple[str, List[Tuple[Path, dict]]]] = []
    if history_dir is not None and history_dir.is_dir():
        for snapshot in sorted(p for p in history_dir.iterdir() if p.is_dir()):
            groups.append((snapshot.name, _read_reports(snapshot)))
    baseline_resolved = None
    if baselines_dir is not None and baselines_dir.is_dir():
        baseline_resolved = baselines_dir.resolve()
        groups.append((BASELINE_SOURCE, _read_reports(baselines_dir)))
    if bench_dir is not None and bench_dir.is_dir():
        if bench_dir.resolve() != baseline_resolved:
            groups.append((CURRENT_SOURCE, _read_reports(bench_dir)))

    reports: List[LoadedReport] = []
    for order, (source, found) in enumerate(groups):
        seen: Dict[str, Path] = {}
        for path, report in found:
            suite = report["suite"]
            if suite in seen:
                continue
            seen[suite] = path
            reports.append(
                LoadedReport(
                    source=source, order=order, suite=suite, path=path, report=report
                )
            )
    return reports


def primary_source(reports: List[LoadedReport]) -> Optional[str]:
    """The source the per-metric tables are cut from: current, else baseline."""
    sources = {loaded.source for loaded in reports}
    if CURRENT_SOURCE in sources:
        return CURRENT_SOURCE
    if BASELINE_SOURCE in sources:
        return BASELINE_SOURCE
    if reports:
        return max(reports, key=lambda loaded: loaded.order).source
    return None
