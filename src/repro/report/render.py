"""Render ``REPORT.md`` — the human entry point into the generated report.

The markdown embeds each figure as a link pair (Vega-Lite spec + CSV data)
with a prose caption whose headline numbers are interpolated from the same
tidy tables the specs draw, plus a regression section listing every row
the trend analysis flagged past its CI tolerance floor.  Nothing here
reads the wall clock: every date shown comes from the loaded reports'
``created_at`` stamps, so regenerating from unchanged inputs reproduces
the file byte for byte.
"""

from __future__ import annotations

from statistics import fmean, median
from typing import Dict, List, Optional, Sequence

from repro.report.loader import LoadedReport
from repro.report.tables import Table

#: Most rows any embedded markdown table may show; the CSV keeps the rest
#: and the table footer says how many were elided (no silent truncation).
MAX_TABLE_ROWS = 12


def _md_table(headers: Sequence[str], rows: List[Sequence[object]]) -> str:
    lines = [
        "| " + " | ".join(str(cell) for cell in headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    shown = rows[:MAX_TABLE_ROWS]
    for row in shown:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    table = "\n".join(lines)
    elided = len(rows) - len(shown)
    if elided > 0:
        table += f"\n\n*… plus {elided} more row(s) in the CSV.*"
    return table


def _figure_links(name: str) -> str:
    return f"figure: [`specs/{name}.vl.json`](specs/{name}.vl.json) · data: [`data/{name}.csv`](data/{name}.csv)"


def _fmt(value, digits: int = 2) -> str:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return f"{value:.{digits}f}"
    return str(value)


def _sources_section(reports: List[LoadedReport]) -> str:
    rows = [
        (
            loaded.source,
            loaded.suite,
            loaded.report.get("scale", ""),
            loaded.report.get("created_at", ""),
            loaded.report.get("python", ""),
            loaded.report.get("cpu_count", ""),
        )
        for loaded in reports
    ]
    text = _md_table(
        ("source", "suite", "scale", "created_at", "python", "cpus"), rows
    )
    text += (
        "\n\nEvery result row of every source, as one tidy table: "
        "[`data/results.csv`](data/results.csv)."
    )
    return text


def _query_latency_section(table: Table) -> Optional[str]:
    _, rows = table
    if not rows:
        return None
    speedups = [
        row["speedup"]
        for row in rows
        if row["engine"] == "indexed" and isinstance(row.get("speedup"), (int, float))
    ]
    caption = (
        f"Single-query latency of the linear scan against the inverted-"
        f"postings index, for every catalogue scenario and both query kinds. "
        f"Median indexed speedup across the catalogue: "
        f"{_fmt(median(speedups))}× (range {_fmt(min(speedups))}–"
        f"{_fmt(max(speedups))}×)."
        if speedups
        else "Single-query latency of the linear scan against the index."
    )
    largest = max(rows, key=lambda row: row.get("entries") or 0)["scenario"]
    body = _md_table(
        ("scenario", "query", "engine", "µs/query", "speedup"),
        [
            (row["scenario"], row["kind"], row["engine"],
             _fmt(row["us_per_query"]), _fmt(row["speedup"]))
            for row in rows
            if row["scenario"] == largest
        ],
    )
    return "\n\n".join(
        [
            "### Queries: scan vs indexed latency",
            caption,
            _figure_links("query_latency"),
            f"Largest scenario (`{largest}`):",
            body,
        ]
    )


def _store_section(table: Table) -> Optional[str]:
    _, rows = table
    if not rows:
        return None
    shard_counts = sorted(
        {row["shards"] for row in rows if row["engine"] == "scatter"}
    )
    kinds = sorted({row["kind"] for row in rows})
    by_cell = {
        (row["kind"], row["engine"], row["shards"]): row["speedup"] for row in rows
    }
    body_rows = []
    for kind in kinds:
        cells = [kind, _fmt(by_cell.get((kind, "single", 1), ""))]
        cells += [
            _fmt(by_cell.get((kind, "scatter", shards), ""))
            for shards in shard_counts
        ]
        body_rows.append(cells)
    caption = (
        "Scatter-gather top-k against the single in-process store, by shard "
        "count (single store = 1.0). Values below 1.0 quantify the fan-out "
        "and merge overhead at this workload size — the crossover point "
        "moves right as the store grows."
    )
    body = _md_table(
        ["query", "single"] + [f"scatter-{shards}" for shards in shard_counts],
        body_rows,
    )
    return "\n\n".join(
        ["### Store: sharded scatter-gather", caption, _figure_links("store_scatter"), body]
    )


def _precision_section(table: Table) -> Optional[str]:
    _, rows = table
    if not rows:
        return (
            "### Queries: precision/recall vs ground truth\n\n"
            "*Skipped — the loaded queries report carries no `precision` "
            "section (older bench snapshot). Re-run `python -m repro.bench "
            "--queries` to produce one.*"
        )
    cells: Dict[tuple, Dict[str, dict]] = {}
    for row in rows:
        cells.setdefault(
            (row["scenario"], row["query"], row["k"]), {}
        )[row["measure"]] = row
    means = [row["mean"] for row in rows if row["measure"] == "recall"]
    caption = (
        f"Top-k answers computed from C2MN-annotated semantics against "
        f"answers computed from the ground truth, with 95% bootstrap "
        f"confidence intervals over the deterministic query set. Mean "
        f"recall across all cells: {_fmt(fmean(means))}."
    )
    body_rows = []
    for (scenario, query, k), measures in sorted(cells.items()):
        precision = measures.get("precision", {})
        recall = measures.get("recall", {})
        body_rows.append(
            (
                scenario,
                query,
                k,
                f"{_fmt(precision.get('mean', ''))} "
                f"[{_fmt(precision.get('lo', ''))}, {_fmt(precision.get('hi', ''))}]",
                f"{_fmt(recall.get('mean', ''))} "
                f"[{_fmt(recall.get('lo', ''))}, {_fmt(recall.get('hi', ''))}]",
            )
        )
    body = _md_table(
        ("scenario", "query", "k", "precision [95% CI]", "recall [95% CI]"),
        body_rows,
    )
    return "\n\n".join(
        [
            "### Queries: precision/recall vs ground truth",
            caption,
            _figure_links("precision"),
            body,
        ]
    )


def _trends_section(table: Table) -> str:
    _, rows = table
    sources = {row["source"] for row in rows}
    regressed = [row for row in rows if row.get("regressed")]
    parts = [
        "### Trends: snapshots vs the CI tolerance band",
        (
            "Every result row of every loaded snapshot, compared against the "
            "committed baseline with the same per-suite tolerance the CI "
            "perf gate applies (`tools/check_bench.py --compare`). A flagged "
            "row here and a failed gate are the same event."
        ),
        _figure_links("trends"),
    ]
    if regressed:
        parts.append(
            _md_table(
                ("metric", "source", "speedup", "floor", "baseline", "Δ%"),
                [
                    (
                        row["metric"],
                        row["source"],
                        _fmt(row["speedup"]),
                        _fmt(row["floor"]),
                        _fmt(row["baseline_speedup"]),
                        row["delta_pct"],
                    )
                    for row in regressed
                ],
            )
        )
    else:
        compared = len(sources) > 1
        parts.append(
            "**No regression flagged** — no metric of any loaded snapshot "
            "fell below its `baseline × (1 − tolerance)` floor."
            if compared
            else "**No regression flagged** — only the baseline snapshot is "
            "loaded, so every metric trivially sits on its own baseline. "
            "Point `--bench-dir`/`--history` at fresh runs to compare."
        )
    return "\n\n".join(parts)


def render_markdown(
    reports: List[LoadedReport],
    tables: Dict[str, Table],
    *,
    seed: int,
) -> str:
    """The full ``REPORT.md`` text (deterministic for unchanged inputs)."""
    newest = max(
        (loaded.report.get("created_at", "") for loaded in reports), default=""
    )
    sections = [
        "# Benchmark report",
        (
            f"Generated by `python -m repro.report` from {len(reports)} bench "
            f"report(s); newest input stamped `{newest}`; bootstrap seed "
            f"{seed}. "
            f"Figures are Vega-Lite specs next to their CSV data — text "
            f"only, diffable, re-renderable in any Vega-Lite viewer (paste a "
            f"spec into the [Vega editor](https://vega.github.io/editor/) "
            f"and inline its CSV, or use `vl-convert`). Field-by-field "
            f"schema documentation lives in "
            f"[`docs/BENCHMARKS.md`](../BENCHMARKS.md)."
        ),
        "## Sources",
        _sources_section(reports),
        "## Figures",
    ]
    for section in (
        _query_latency_section(tables["query_latency"]),
        _store_section(tables["store_scatter"]),
        _precision_section(tables["precision"]),
        _trends_section(tables["trends"]),
    ):
        if section:
            sections.append(section)
    sections.append(
        "## Regenerating\n\n"
        "```bash\n"
        "make report                      # committed baselines -> docs/report/\n"
        "python -m repro.report --bench-dir . --history snapshots/ --out out/\n"
        "python tools/check_report.py docs/report   # spec/data integrity\n"
        "```\n\n"
        "The pipeline is deterministic: unchanged inputs and an unchanged "
        "`--seed` reproduce every artifact byte for byte (CI regenerates "
        "`docs/report/` from the committed baselines and fails on drift)."
    )
    return "\n\n".join(sections) + "\n"
