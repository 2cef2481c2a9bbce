"""Tests of the report pipeline: determinism, golden specs, trend flags."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.report import (
    bootstrap_ci,
    build_report,
    load_bench_reports,
    summarize,
    trends_table,
)

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden_report"

CREATED_AT = "2026-08-01T00:00:00+00:00"


def _envelope(suite, results, **extra):
    report = {
        "schema": "repro.bench/1",
        "suite": suite,
        "created_at": CREATED_AT,
        "python": "3.11.7",
        "platform": "test",
        "cpu_count": 4,
        "scale": "tiny",
        "workers": 4,
        "repeats": 2,
        "workload": {"sequences": 8, "records": 100},
        "results": results,
    }
    report.update(extra)
    return report


def _row(name, *, backend="serial", workers=1, speedup=1.0, seconds=0.5, **extra):
    row = {
        "name": name,
        "backend": backend,
        "workers": workers,
        "seconds": seconds,
        "speedup_vs_serial": speedup,
        "agreement": True,
    }
    row.update(extra)
    return row


def _store_report(*, scatter_speedup=0.8):
    return _envelope(
        "store",
        [
            _row("ingest:single", speedup=1.0, seconds=0.01),
            _row("tkprq:single", speedup=1.0, seconds=0.002),
            _row("tkprq:scatter-1", speedup=0.9, seconds=0.0022),
            _row("tkprq:scatter-4", workers=4, speedup=scatter_speedup,
                 seconds=0.0025),
            _row("tkfrpq:single", speedup=1.0, seconds=0.02),
            _row("tkfrpq:scatter-4", workers=4, speedup=0.7, seconds=0.028),
        ],
    )


def _queries_report(*, indexed_speedup=8.0):
    observations = [0.8, 0.9, 1.0, 0.7]
    return _envelope(
        "queries",
        [
            _row("demo:tkprq:scan", speedup=1.0, seconds=0.1),
            _row("demo:tkprq:indexed", speedup=indexed_speedup, seconds=0.0125),
            _row("demo:tkfrpq:scan", speedup=1.0, seconds=0.2),
            _row("demo:tkfrpq:indexed", speedup=4.0, seconds=0.05),
        ],
        queries={"ks": [1, 5], "largest_scenario": "demo"},
        scenarios=[{
            "name": "demo", "seed": 5, "fingerprint": "abc", "objects": 40,
            "entries": 400, "postings": 300, "regions": 9,
            "index_build_seconds": 0.01, "query_count": 14, "loops": 3,
        }],
        precision=[
            {
                "scenario": "demo", "seed": 5, "fingerprint": "abc",
                "fit_seconds": 0.5, "query": query, "k": k,
                "queries": len(observations),
                "precision": observations, "recall": observations,
            }
            for query in ("tkprq", "tkfrpq")
            for k in (1, 5)
        ],
    )


def _write_corpus(root, *, scatter_speedup=0.8, indexed_speedup=8.0):
    """A baseline dir and a current dir holding one small corpus each."""
    baselines = root / "baselines"
    current = root / "current"
    for directory in (baselines, current):
        directory.mkdir(parents=True, exist_ok=True)
    for directory, store_speedup, query_speedup in (
        (baselines, 0.8, 8.0),
        (current, scatter_speedup, indexed_speedup),
    ):
        (directory / "BENCH_store.json").write_text(
            json.dumps(_store_report(scatter_speedup=store_speedup)))
        (directory / "BENCH_queries.json").write_text(
            json.dumps(_queries_report(indexed_speedup=query_speedup)))
    return baselines, current


def _build(root, out_name, **corpus_kwargs):
    baselines, current = _write_corpus(root, **corpus_kwargs)
    return build_report(
        bench_dir=current, baselines_dir=baselines,
        out_dir=root / out_name, seed=11,
    )


class TestDeterminism:
    def test_rebuild_is_byte_identical(self, tmp_path):
        first = _build(tmp_path, "report-a")
        second = _build(tmp_path, "report-b")
        assert [p.name for p in first.written] == [p.name for p in second.written]
        for path_a, path_b in zip(first.written, second.written):
            assert path_a.read_bytes() == path_b.read_bytes(), path_a.name

    def test_no_wall_clock_in_artifacts(self, tmp_path):
        build = _build(tmp_path, "report")
        markdown = (build.out_dir / "REPORT.md").read_text()
        # The only dates are the created_at stamps of the input reports.
        assert CREATED_AT[:10] in markdown
        import datetime
        today = datetime.date.today().isoformat()
        if today != CREATED_AT[:10]:
            assert today not in markdown


class TestGoldenSpecs:
    """The committed golden artifacts pin spec generation bitwise.

    Regenerate after an intentional pipeline change::

        PYTHONPATH=src:tests python -c "import test_report; test_report.regenerate_golden()"
    """

    @pytest.mark.parametrize("name", [
        "trends.vl.json", "store_scatter.vl.json", "precision.vl.json",
        "query_latency.vl.json",
    ])
    def test_spec_matches_golden(self, tmp_path, name):
        build = _build(tmp_path, "report")
        generated = (build.out_dir / "specs" / name).read_bytes()
        assert generated == (GOLDEN_DIR / name).read_bytes(), (
            f"{name} drifted from the committed golden spec; if the change "
            "is intentional, regenerate via test_report.regenerate_golden()"
        )

    def test_table_matches_golden(self, tmp_path):
        build = _build(tmp_path, "report")
        generated = (build.out_dir / "data" / "trends.csv").read_bytes()
        assert generated == (GOLDEN_DIR / "trends.csv").read_bytes()


class TestBootstrapCI:
    def test_same_seed_same_interval(self):
        values = [0.7, 0.8, 0.9, 0.85, 0.75]
        assert bootstrap_ci(values, seed=3) == bootstrap_ci(values, seed=3)
        assert summarize(values, seed=3) == summarize(values, seed=3)

    def test_different_seed_differs(self):
        # Few resamples keep percentile noise visible, so distinct seeds
        # visibly draw distinct resample sets.
        values = [0.7, 0.8, 0.9, 0.85, 0.75]
        intervals = {
            bootstrap_ci(values, seed=seed, resamples=25) for seed in range(8)
        }
        assert len(intervals) > 1

    def test_interval_brackets_the_mean(self):
        values = [0.2, 0.4, 0.6, 0.8]
        stats = summarize(values, seed=1)
        assert stats["lo"] <= stats["mean"] <= stats["hi"]
        assert stats["n"] == len(values)

    def test_single_observation_degenerates_to_point(self):
        assert bootstrap_ci([0.5], seed=9) == (0.5, 0.5)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            bootstrap_ci([], seed=0)


class TestRegressionAnnotation:
    def _trends(self, tmp_path, **corpus_kwargs):
        baselines, current = _write_corpus(tmp_path, **corpus_kwargs)
        reports = load_bench_reports(current, baselines)
        _, rows = trends_table(reports)
        return rows

    def test_no_regression_at_baseline_parity(self, tmp_path):
        rows = self._trends(tmp_path)
        assert rows and not any(row["regressed"] for row in rows)

    def test_drop_below_floor_is_flagged(self, tmp_path):
        # default tolerance 0.5: floor = 8.0 * 0.5 = 4.0; 2.0 < 4.0.
        rows = self._trends(tmp_path, indexed_speedup=2.0)
        flagged = [row for row in rows if row["regressed"]]
        assert [row["metric"] for row in flagged] == [
            "queries:demo:tkprq:indexed[serial]"
        ]
        assert flagged[0]["source"] == "current"
        assert flagged[0]["floor"] == pytest.approx(4.0)
        assert flagged[0]["delta_pct"] == pytest.approx(-75.0)

    def test_drop_within_tolerance_is_not_flagged(self, tmp_path):
        rows = self._trends(tmp_path, indexed_speedup=4.5)  # above the 4.0 floor
        assert not any(row["regressed"] for row in rows)

    def test_baseline_rows_are_never_flagged(self, tmp_path):
        rows = self._trends(tmp_path, scatter_speedup=0.1, indexed_speedup=1.0)
        assert not any(
            row["regressed"] for row in rows if row["source"] == "baseline"
        )

    def test_suite_tolerance_overrides_the_default(self, tmp_path):
        # store suite tolerance 0.6: floor = 0.8 * 0.4 = 0.32, so 0.35
        # passes where the default 0.5 band (floor 0.4) would flag it.
        rows = self._trends(tmp_path, scatter_speedup=0.35)
        assert all(row["tolerance"] == 0.6 for row in rows if row["suite"] == "store")
        assert all(row["tolerance"] == 0.5 for row in rows if row["suite"] == "queries")
        assert not any(row["regressed"] for row in rows)

    def test_flagged_regressions_surface_in_the_report(self, tmp_path):
        build = _build(tmp_path, "report", indexed_speedup=2.0)
        assert [row["metric"] for row in build.regressions] == [
            "queries:demo:tkprq:indexed[serial]"
        ]
        markdown = (build.out_dir / "REPORT.md").read_text()
        assert "demo:tkprq:indexed" in markdown


def regenerate_golden():
    """Rewrite the committed golden artifacts from the synthetic corpus."""
    import tempfile

    root = Path(tempfile.mkdtemp())
    build = _build(root, "report")
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for name in ("trends.vl.json", "store_scatter.vl.json", "precision.vl.json",
                 "query_latency.vl.json"):
        (GOLDEN_DIR / name).write_bytes(
            (build.out_dir / "specs" / name).read_bytes())
    (GOLDEN_DIR / "trends.csv").write_bytes(
        (build.out_dir / "data" / "trends.csv").read_bytes())
    print(f"regenerated golden artifacts under {GOLDEN_DIR}")
