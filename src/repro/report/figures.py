"""Hand-rolled Vega-Lite v5 specs over the tidy tables.

No plotting dependency: each figure is a plain JSON-serialisable dict whose
``data.url`` points at a sibling CSV (``../data/*.csv`` relative to the
spec), following the text-only figures-as-specs pattern — both halves diff
cleanly in review and render in any Vega-Lite viewer.

Design rules applied throughout (and deliberately, not by taste):

* one y-axis per chart — measures of different scale get their own facet;
* categorical hues come from one fixed, CVD-validated order and follow the
  *entity* (``scan`` is always blue, ``indexed`` always orange), never the
  series' position in a particular chart;
* the status red is reserved for regression flags and never used as a
  series colour;
* text (labels, axes, legends) wears ink colours, never the series hue.

Every spec carries ``usermeta.rows``/``usermeta.columns`` stamped from the
table it was generated against; ``tools/check_report.py`` re-derives both
from the CSV on disk and fails on any mismatch, so a spec can never drift
from its data silently.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.report.tables import Table

VEGA_LITE_SCHEMA = "https://vega.github.io/schema/vega-lite/v5.json"

#: Validated categorical palette (light mode), in its fixed CVD-safe order.
PALETTE = (
    "#2a78d6",  # 1 blue
    "#eb6834",  # 2 orange
    "#1baf7a",  # 3 aqua
    "#eda100",  # 4 yellow
    "#e87ba4",  # 5 magenta
    "#008300",  # 6 green
)

#: Status colour for regression annotations (never a series colour).
REGRESSION_RED = "#d03b3b"

_INK_PRIMARY = "#0b0b0b"
_INK_SECONDARY = "#52514e"
_GRID = "#e1e0d9"
_BASELINE = "#c3c2b7"

#: Chart chrome shared by every spec.
BASE_CONFIG = {
    "background": "#fcfcfb",
    "font": 'system-ui, -apple-system, "Segoe UI", sans-serif',
    "axis": {
        "labelColor": _INK_SECONDARY,
        "titleColor": _INK_PRIMARY,
        "gridColor": _GRID,
        "domainColor": _BASELINE,
        "tickColor": _BASELINE,
    },
    "legend": {"labelColor": _INK_SECONDARY, "titleColor": _INK_PRIMARY},
    "header": {"labelColor": _INK_PRIMARY, "titleColor": _INK_PRIMARY},
    "view": {"stroke": None},
    "line": {"strokeWidth": 2},
    "point": {"size": 70, "filled": True},
}


def color_scale(domain: Sequence[str]) -> Dict[str, List[str]]:
    """A fixed entity→hue mapping: ``domain[i]`` always gets ``PALETTE[i]``."""
    if len(domain) > len(PALETTE):
        raise ValueError(
            f"at most {len(PALETTE)} series per chart; fold or facet "
            f"{len(domain)} categories instead"
        )
    return {"domain": list(domain), "range": list(PALETTE[: len(domain)])}


def _spec(
    name: str,
    table: Table,
    *,
    title: str,
    description: str,
    body: dict,
    parse: Optional[dict] = None,
) -> dict:
    columns, rows = table
    data_format: dict = {"type": "csv"}
    if parse:
        data_format["parse"] = parse
    spec = {
        "$schema": VEGA_LITE_SCHEMA,
        "title": {"text": title, "color": _INK_PRIMARY},
        "description": description,
        "data": {"url": f"../data/{name}.csv", "format": data_format},
        "usermeta": {
            "generated_by": "python -m repro.report",
            "table": f"{name}.csv",
            "rows": len(rows),
            "columns": list(columns),
        },
        "config": BASE_CONFIG,
    }
    spec.update(body)
    return spec


def query_latency_spec(table: Table) -> Optional[dict]:
    """Per-scenario query latency, scan vs indexed, faceted by query kind."""
    _, rows = table
    if not rows:
        return None
    return _spec(
        "query_latency",
        table,
        title="Top-k query latency per scenario: scan vs indexed",
        description=(
            "Single-query latency (microseconds, log scale) of the linear "
            "scan against the inverted-postings index, for every catalogue "
            "scenario and both query kinds."
        ),
        body={
            "facet": {
                "column": {"field": "kind", "type": "nominal", "title": None}
            },
            "spec": {
                "mark": {"type": "point"},
                "encoding": {
                    "x": {
                        "field": "scenario",
                        "type": "nominal",
                        "sort": "ascending",
                        "title": None,
                        "axis": {"labelAngle": -40},
                    },
                    "y": {
                        "field": "us_per_query",
                        "type": "quantitative",
                        "scale": {"type": "log"},
                        "title": "latency per query (µs, log)",
                    },
                    "color": {
                        "field": "engine",
                        "type": "nominal",
                        "title": "engine",
                        "scale": color_scale(["scan", "indexed"]),
                    },
                    "tooltip": [
                        {"field": "scenario", "type": "nominal"},
                        {"field": "kind", "type": "nominal"},
                        {"field": "engine", "type": "nominal"},
                        {"field": "us_per_query", "type": "quantitative"},
                        {"field": "speedup", "type": "quantitative"},
                        {"field": "entries", "type": "quantitative"},
                    ],
                },
            },
        },
    )


def store_scatter_spec(table: Table) -> Optional[dict]:
    """Scatter-gather top-k throughput ratio against the shard count."""
    _, rows = table
    if not rows:
        return None
    return _spec(
        "store_scatter",
        table,
        title="Sharded scatter-gather top-k vs the single store",
        description=(
            "Query speedup of the sharded scatter-gather path relative to "
            "the single in-process store, by shard count. The single-store "
            "reference is the 1.0 line; values below it are the price of "
            "per-shard fan-out at this workload size."
        ),
        body={
            "layer": [
                {
                    "transform": [{"filter": "datum.engine === 'scatter'"}],
                    "mark": {"type": "line", "point": True},
                    "encoding": {
                        "x": {
                            "field": "shards",
                            "type": "ordinal",
                            "title": "shards",
                        },
                        "y": {
                            "field": "speedup",
                            "type": "quantitative",
                            "title": "speedup vs single store (x)",
                        },
                        "color": {
                            "field": "kind",
                            "type": "nominal",
                            "title": "query",
                            "scale": color_scale(["tkprq", "tkfrpq"]),
                        },
                        "tooltip": [
                            {"field": "kind", "type": "nominal"},
                            {"field": "shards", "type": "ordinal"},
                            {"field": "speedup", "type": "quantitative"},
                            {"field": "seconds", "type": "quantitative"},
                        ],
                    },
                },
                {
                    "mark": {
                        "type": "rule",
                        "strokeDash": [4, 4],
                        "color": _BASELINE,
                    },
                    "encoding": {"y": {"datum": 1.0}},
                },
            ]
        },
    )


def precision_spec(table: Table) -> Optional[dict]:
    """Annotation-vs-truth query precision/recall with bootstrap CIs."""
    _, rows = table
    if not rows:
        return None
    return _spec(
        "precision",
        table,
        title="Query answers from annotations vs ground truth",
        description=(
            "Mean precision and recall of top-k answers computed from "
            "C2MN-annotated semantics against answers from the ground "
            "truth, with 95% bootstrap confidence intervals over the "
            "deterministic query set."
        ),
        body={
            "facet": {
                "column": {"field": "measure", "type": "nominal", "title": None},
                "row": {"field": "scenario", "type": "nominal", "title": None},
            },
            "spec": {
                "layer": [
                    {
                        "mark": {"type": "rule", "strokeWidth": 2},
                        "encoding": {
                            "x": {"field": "k", "type": "ordinal", "title": "k"},
                            "y": {
                                "field": "lo",
                                "type": "quantitative",
                                "scale": {"domain": [0, 1]},
                                "title": "score (95% CI)",
                            },
                            "y2": {"field": "hi"},
                            "color": {
                                "field": "query",
                                "type": "nominal",
                                "title": "query",
                                "scale": color_scale(["tkprq", "tkfrpq"]),
                            },
                            "xOffset": {"field": "query"},
                        },
                    },
                    {
                        "mark": {"type": "point"},
                        "encoding": {
                            "x": {"field": "k", "type": "ordinal", "title": "k"},
                            "y": {"field": "mean", "type": "quantitative"},
                            "color": {
                                "field": "query",
                                "type": "nominal",
                                "scale": color_scale(["tkprq", "tkfrpq"]),
                            },
                            "xOffset": {"field": "query"},
                            "tooltip": [
                                {"field": "scenario", "type": "nominal"},
                                {"field": "query", "type": "nominal"},
                                {"field": "k", "type": "ordinal"},
                                {"field": "measure", "type": "nominal"},
                                {"field": "mean", "type": "quantitative"},
                                {"field": "lo", "type": "quantitative"},
                                {"field": "hi", "type": "quantitative"},
                                {"field": "n", "type": "quantitative"},
                            ],
                        },
                    },
                ]
            },
        },
    )


def trends_spec(table: Table) -> Optional[dict]:
    """PR-over-PR trend lines for the headline metrics, regressions flagged."""
    _, rows = table
    if not rows:
        return None
    metrics = sorted({row["metric"] for row in rows if row.get("headline")})
    if not metrics:
        return None
    return _spec(
        "trends",
        table,
        title="Headline metrics across snapshots (regressions flagged)",
        description=(
            "Speedup of the headline metric of each suite along the "
            "history → baseline → current axis. A red flag marks any row "
            "whose speedup fell below the committed baseline times "
            "(1 - CI tolerance) — the exact floor the perf gate enforces."
        ),
        parse={"headline": "boolean", "regressed": "boolean"},
        body={
            "transform": [{"filter": "datum.headline === true"}],
            "layer": [
                {
                    "mark": {"type": "line", "point": True},
                    "encoding": {
                        "x": {
                            "field": "source",
                            "type": "ordinal",
                            "sort": {"field": "order"},
                            "title": "snapshot",
                        },
                        "y": {
                            "field": "speedup",
                            "type": "quantitative",
                            "scale": {"type": "log"},
                            "title": "speedup vs serial reference (x, log)",
                        },
                        "color": {
                            "field": "metric",
                            "type": "nominal",
                            "title": "metric",
                            "scale": color_scale(metrics[: len(PALETTE)]),
                        },
                        "tooltip": [
                            {"field": "metric", "type": "nominal"},
                            {"field": "source", "type": "nominal"},
                            {"field": "speedup", "type": "quantitative"},
                            {"field": "baseline_speedup", "type": "quantitative"},
                            {"field": "floor", "type": "quantitative"},
                            {"field": "delta_pct", "type": "quantitative"},
                        ],
                    },
                },
                {
                    "transform": [{"filter": "datum.regressed === true"}],
                    "mark": {
                        "type": "point",
                        "shape": "triangle-down",
                        "size": 160,
                        "filled": True,
                        "color": REGRESSION_RED,
                    },
                    "encoding": {
                        "x": {
                            "field": "source",
                            "type": "ordinal",
                            "sort": {"field": "order"},
                        },
                        "y": {"field": "speedup", "type": "quantitative"},
                        "tooltip": [
                            {"field": "metric", "type": "nominal"},
                            {"field": "source", "type": "nominal"},
                            {"field": "speedup", "type": "quantitative"},
                            {"field": "floor", "type": "quantitative"},
                        ],
                    },
                },
            ],
        },
    )
