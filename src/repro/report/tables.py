"""Normalise the bench corpus into tidy per-metric CSV tables.

Each builder returns ``(columns, rows)`` — an explicit column order and a
list of plain dicts — so the CSV layout is stable regardless of which
optional sections a given report happens to carry.  The raw corpus lands
in one master ``results.csv``; the per-figure tables are cut from the
*primary* source (the current run when one exists, the committed baselines
otherwise), while the trend table spans every source along the
history → baseline → current axis and re-applies the CI tolerance band of
``tools/check_bench.py`` to flag regressions.
"""

from __future__ import annotations

import csv
import io
import re
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.persistence.atomic import atomic_write_text
from repro.report.loader import BASELINE_SOURCE, LoadedReport, primary_source
from repro.report.stats import summarize

#: The tolerance bands CI applies per suite (mirrors ``.github/workflows``),
#: used to annotate trend rows.
DEFAULT_TOLERANCE = 0.5
DEFAULT_SUITE_TOLERANCES = {"store": 0.6}

_SCATTER_ROW = re.compile(r"^(tkprq|tkfrpq):(single|scatter-(\d+))$")

Table = Tuple[Sequence[str], List[dict]]


def _cell(value) -> object:
    """Booleans as lowercase literals so Vega-Lite's CSV parser reads them."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def render_csv(table: Table) -> str:
    """One tidy table as CSV text with a fixed column order, ``\\n`` endings."""
    columns, rows = table
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(columns), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({column: _cell(row.get(column, "")) for column in columns})
    return buffer.getvalue()


def write_table(path: Path, table: Table) -> None:
    """Atomically write one tidy table (see :func:`render_csv`)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(path, render_csv(table))


def results_table(reports: List[LoadedReport]) -> Table:
    """The master tidy table: one row per result row per loaded report."""
    columns = (
        "source",
        "order",
        "suite",
        "scale",
        "created_at",
        "name",
        "backend",
        "workers",
        "seconds",
        "speedup_vs_serial",
        "agreement",
    )
    rows = []
    for loaded in reports:
        report = loaded.report
        for entry in report.get("results", []):
            rows.append(
                {
                    "source": loaded.source,
                    "order": loaded.order,
                    "suite": loaded.suite,
                    "scale": report.get("scale", ""),
                    "created_at": report.get("created_at", ""),
                    "name": entry.get("name", ""),
                    "backend": entry.get("backend", ""),
                    "workers": entry.get("workers", ""),
                    "seconds": entry.get("seconds", ""),
                    "speedup_vs_serial": entry.get("speedup_vs_serial", ""),
                    "agreement": entry.get("agreement", ""),
                }
            )
    return columns, rows


def query_latency_table(reports: List[LoadedReport]) -> Table:
    """Per-scenario single-query latency, scan vs indexed (primary source)."""
    columns = (
        "scenario",
        "kind",
        "engine",
        "seconds",
        "us_per_query",
        "speedup",
        "entries",
    )
    primary = primary_source(reports)
    rows: List[dict] = []
    for loaded in reports:
        if loaded.suite != "queries" or loaded.source != primary:
            continue
        details = {
            detail.get("name"): detail
            for detail in loaded.report.get("scenarios", [])
        }
        for entry in loaded.report.get("results", []):
            parts = entry.get("name", "").split(":")
            if len(parts) != 3:
                continue
            scenario, kind, engine = parts
            detail = details.get(scenario, {})
            evaluations = detail.get("query_count", 0) * detail.get("loops", 1)
            seconds = entry.get("seconds", 0.0)
            rows.append(
                {
                    "scenario": scenario,
                    "kind": kind,
                    "engine": engine,
                    "seconds": seconds,
                    "us_per_query": round(seconds / evaluations * 1e6, 3)
                    if evaluations
                    else "",
                    "speedup": entry.get("speedup_vs_serial", ""),
                    "entries": detail.get("entries", ""),
                }
            )
    return columns, rows


def store_scatter_table(reports: List[LoadedReport]) -> Table:
    """Scatter-gather top-k vs the single store, by shard count (primary)."""
    columns = ("kind", "engine", "shards", "seconds", "speedup")
    primary = primary_source(reports)
    rows: List[dict] = []
    for loaded in reports:
        if loaded.suite != "store" or loaded.source != primary:
            continue
        for entry in loaded.report.get("results", []):
            match = _SCATTER_ROW.match(entry.get("name", ""))
            if not match:
                continue
            kind, engine = match.group(1), match.group(2)
            rows.append(
                {
                    "kind": kind,
                    "engine": "single" if engine == "single" else "scatter",
                    "shards": int(match.group(3)) if match.group(3) else 1,
                    "seconds": entry.get("seconds", ""),
                    "speedup": entry.get("speedup_vs_serial", ""),
                }
            )
    return columns, rows


def precision_table(reports: List[LoadedReport], *, seed: int) -> Table:
    """Bootstrap-CI summary of the queries suite's precision section.

    Long form — one row per (scenario, query, k, measure) — so a single
    faceted spec can draw precision and recall side by side.  The bootstrap
    seed is offset per row (stably, by row order) so resamples are
    independent across cells yet bitwise-reproducible.
    """
    columns = ("scenario", "query", "k", "measure", "mean", "lo", "hi", "n")
    primary = primary_source(reports)
    rows: List[dict] = []
    for loaded in reports:
        if loaded.suite != "queries" or loaded.source != primary:
            continue
        section = loaded.report.get("precision") or []
        for offset, cell in enumerate(
            sorted(
                section,
                key=lambda c: (c.get("scenario", ""), c.get("query", ""), c.get("k", 0)),
            )
        ):
            for shift, measure in enumerate(("precision", "recall")):
                observations = cell.get(measure) or []
                if not observations:
                    continue
                summary = summarize(
                    observations, seed=seed + 2 * offset + shift
                )
                rows.append(
                    {
                        "scenario": cell.get("scenario", ""),
                        "query": cell.get("query", ""),
                        "k": cell.get("k", ""),
                        "measure": measure,
                        **summary,
                    }
                )
    return columns, rows


def _headline_trend_keys(
    baselines: Dict[str, Dict[Tuple[str, str, int], dict]],
    largest_scenario: str,
) -> set:
    """Up to three headline metrics for the trend figure, one set per corpus."""
    keys = set()

    def pick(suite: str, predicate) -> None:
        candidates = [key for key in baselines.get(suite, {}) if predicate(key)]
        if candidates:
            keys.add((suite,) + max(candidates, key=lambda key: (key[2], key)))

    pick("queries", lambda key: key[0] == f"{largest_scenario}:tkprq:indexed")
    pick("queries", lambda key: key[0] == f"{largest_scenario}:tkfrpq:indexed")
    pick("store", lambda key: key[0] == "tkprq:scatter-4")
    return keys


def trends_table(
    reports: List[LoadedReport],
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    suite_tolerances: Optional[Dict[str, float]] = None,
) -> Table:
    """Every metric across every source, with CI-band regression flags.

    A row regresses when its speedup drops below
    ``baseline * (1 - tolerance)`` — the identical floor
    ``tools/check_bench.py --compare`` enforces — so a flagged trend row
    and a failed CI gate are the same event seen from two places.
    """
    if suite_tolerances is None:
        suite_tolerances = dict(DEFAULT_SUITE_TOLERANCES)
    columns = (
        "suite",
        "metric",
        "name",
        "backend",
        "workers",
        "source",
        "order",
        "speedup",
        "baseline_speedup",
        "tolerance",
        "floor",
        "regressed",
        "delta_pct",
        "headline",
    )
    baselines: Dict[str, Dict[Tuple[str, str, int], dict]] = {}
    largest_scenario = ""
    for loaded in reports:
        if loaded.source != BASELINE_SOURCE:
            continue
        if loaded.suite == "queries":
            largest_scenario = loaded.report.get("queries", {}).get(
                "largest_scenario", ""
            )
        suite_rows = baselines.setdefault(loaded.suite, {})
        for entry in loaded.report.get("results", []):
            key = (entry.get("name"), entry.get("backend"), entry.get("workers"))
            suite_rows[key] = entry
    headline_keys = _headline_trend_keys(baselines, largest_scenario)

    rows: List[dict] = []
    for loaded in reports:
        suite_tolerance = suite_tolerances.get(loaded.suite, tolerance)
        for entry in loaded.report.get("results", []):
            key = (entry.get("name"), entry.get("backend"), entry.get("workers"))
            base = baselines.get(loaded.suite, {}).get(key)
            speedup = entry.get("speedup_vs_serial")
            row = {
                "suite": loaded.suite,
                "metric": f"{loaded.suite}:{key[0]}[{key[1]}]",
                "name": key[0],
                "backend": key[1],
                "workers": key[2],
                "source": loaded.source,
                "order": loaded.order,
                "speedup": speedup,
                "baseline_speedup": "",
                "tolerance": suite_tolerance,
                "floor": "",
                "regressed": False,
                "delta_pct": "",
                "headline": (loaded.suite,) + key in headline_keys,
            }
            if base is not None and isinstance(speedup, (int, float)):
                base_speedup = base.get("speedup_vs_serial")
                if isinstance(base_speedup, (int, float)) and base_speedup > 0:
                    floor = base_speedup * (1.0 - suite_tolerance)
                    row["baseline_speedup"] = base_speedup
                    row["floor"] = round(floor, 4)
                    row["regressed"] = (
                        loaded.source != BASELINE_SOURCE and speedup < floor
                    )
                    row["delta_pct"] = round(
                        (speedup / base_speedup - 1.0) * 100.0, 2
                    )
            rows.append(row)
    return columns, rows
