"""Tests of the bench-report validator and the perf-regression compare gate."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

_SPEC = importlib.util.spec_from_file_location(
    "check_bench", REPO_ROOT / "tools" / "check_bench.py"
)
check_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_bench)


def _report(suite="queries", results=None):
    return {
        "schema": "repro.bench/1",
        "suite": suite,
        "created_at": "2026-07-29T00:00:00+00:00",
        "python": "3.11.7",
        "platform": "test",
        "cpu_count": 4,
        "scale": "tiny",
        "workers": 1,
        "workload": {"sequences": 10, "records": 100},
        "results": results
        if results is not None
        else [
            _row("s:tkprq:scan", speedup=1.0),
            _row("s:tkprq:indexed", speedup=8.0),
        ],
    }


def _row(name, *, backend="serial", workers=1, speedup=1.0, agreement=True):
    return {
        "name": name,
        "backend": backend,
        "workers": workers,
        "seconds": 0.5,
        "speedup_vs_serial": speedup,
        "agreement": agreement,
    }


class TestValidate:
    def test_queries_suite_valid_without_process_rows(self):
        assert check_bench.validate_report(_report(), "r") == []

    def test_disagreement_fails_validation(self):
        report = _report(results=[_row("q:scan"), _row("q:indexed", agreement=False)])
        problems = check_bench.validate_report(report, "r")
        assert any("agreement" in problem for problem in problems)

    def test_non_object_report_fails(self):
        problems = check_bench.validate_report([_report()], "r")
        assert problems == ["r: top level must be a JSON object"]

    def test_missing_top_level_key_fails(self):
        report = _report()
        del report["cpu_count"]
        problems = check_bench.validate_report(report, "r")
        assert any("missing top-level key 'cpu_count'" in p for p in problems)

    def test_wrong_top_level_type_fails(self):
        report = _report()
        report["workload"] = [10, 100]
        problems = check_bench.validate_report(report, "r")
        assert any("'workload' must be dict" in p for p in problems)

    def test_unknown_schema_fails(self):
        report = _report()
        report["schema"] = "repro.bench/0"
        problems = check_bench.validate_report(report, "r")
        assert any("unknown schema" in p for p in problems)

    @pytest.mark.parametrize("suite", ["runtime", "service", "Store"])
    def test_unknown_suite_fails(self, suite):
        # The retired runtime and service suites are not valid reports any
        # more, and a misspelt suite may not skip its section's gates.
        problems = check_bench.validate_report(_report(suite=suite), "r")
        assert any(f"unknown suite {suite!r}" in p for p in problems)

    @pytest.mark.parametrize("key", ["sequences", "records"])
    def test_empty_workload_fails(self, key):
        report = _report()
        report["workload"][key] = 0
        problems = check_bench.validate_report(report, "r")
        assert any(f"workload.{key} must be a positive int" in p for p in problems)

    def test_zero_workers_fails(self):
        report = _report()
        report["workers"] = 0
        problems = check_bench.validate_report(report, "r")
        assert any("workers must be at least 1" in p for p in problems)

    def test_empty_results_fail(self):
        problems = check_bench.validate_report(_report(results=[]), "r")
        assert any("results must not be empty" in p for p in problems)

    def test_row_missing_key_fails(self):
        row = _row("q:scan")
        del row["speedup_vs_serial"]
        problems = check_bench.validate_report(_report(results=[row]), "r")
        assert any("missing key 'speedup_vs_serial'" in p for p in problems)

    def test_unknown_backend_fails(self):
        report = _report(results=[_row("q:scan"), _row("q:gpu", backend="gpu")])
        problems = check_bench.validate_report(report, "r")
        assert any("backend must be one of" in p for p in problems)

    @pytest.mark.parametrize(
        "key, value",
        [("seconds", 0), ("speedup_vs_serial", -1.0), ("seconds", True)],
    )
    def test_timings_must_be_positive_numbers(self, key, value):
        row = _row("q:indexed")
        row[key] = value
        problems = check_bench.validate_report(
            _report(results=[_row("q:scan"), row]), "r"
        )
        assert any(f"{key} must be a positive number" in p for p in problems)

    def test_missing_serial_row_fails(self):
        report = _report(results=[_row("q:indexed", backend="thread", workers=2)])
        problems = check_bench.validate_report(report, "r")
        assert any("no serial baseline entry" in p for p in problems)


class TestCompare:
    def test_identical_reports_pass(self):
        assert check_bench.compare_reports(_report(), _report(), 0.25, "r") == []

    def test_speedup_regression_beyond_tolerance_fails(self):
        current = _report(
            results=[_row("s:tkprq:scan"), _row("s:tkprq:indexed", speedup=3.0)]
        )
        problems = check_bench.compare_reports(current, _report(), 0.25, "r")
        assert any("regressed" in problem for problem in problems)

    def test_speedup_within_tolerance_passes(self):
        current = _report(
            results=[_row("s:tkprq:scan"), _row("s:tkprq:indexed", speedup=6.5)]
        )
        assert check_bench.compare_reports(current, _report(), 0.25, "r") == []

    def test_missing_row_fails(self):
        current = _report(results=[_row("s:tkprq:scan")])
        problems = check_bench.compare_reports(current, _report(), 0.25, "r")
        assert any("missing" in problem for problem in problems)

    def test_new_rows_are_fine(self):
        current = _report(
            results=[
                _row("s:tkprq:scan"),
                _row("s:tkprq:indexed", speedup=8.0),
                _row("s:new-metric", speedup=1.0),
            ]
        )
        assert check_bench.compare_reports(current, _report(), 0.25, "r") == []

    def test_agreement_regression_is_zero_tolerance(self):
        current = _report(
            results=[
                _row("s:tkprq:scan"),
                _row("s:tkprq:indexed", speedup=8.0, agreement=False),
            ]
        )
        problems = check_bench.compare_reports(current, _report(), 0.99, "r")
        assert any("agreement regressed" in problem for problem in problems)

    def test_suite_mismatch_fails(self):
        problems = check_bench.compare_reports(
            _report(suite="store"), _report(suite="queries"), 0.25, "r"
        )
        assert any("does not match" in problem for problem in problems)


class TestMain:
    def _write(self, tmp_path, name, report):
        path = tmp_path / name
        path.write_text(json.dumps(report))
        return path

    def test_end_to_end_compare_pass_and_fail(self, tmp_path):
        baseline_dir = tmp_path / "baselines"
        baseline_dir.mkdir()
        self._write(baseline_dir, "BENCH_queries.json", _report())
        good = self._write(tmp_path, "BENCH_queries.json", _report())
        assert check_bench.main(
            [str(good), "--compare", str(baseline_dir), "--tolerance", "0.25"]
        ) == 0
        bad = self._write(
            tmp_path,
            "BENCH_bad.json",
            _report(results=[_row("s:tkprq:scan"), _row("s:tkprq:indexed", speedup=2.0)]),
        )
        assert check_bench.main(
            [str(bad), "--compare", str(baseline_dir), "--tolerance", "0.25"]
        ) == 1

    def test_missing_baseline_fails(self, tmp_path):
        report = self._write(tmp_path, "BENCH_queries.json", _report())
        empty = tmp_path / "empty"
        empty.mkdir()
        assert check_bench.main([str(report), "--compare", str(empty)]) == 1

    def test_bad_tolerance_rejected(self, tmp_path):
        report = self._write(tmp_path, "BENCH_queries.json", _report())
        with pytest.raises(SystemExit):
            check_bench.main([str(report), "--tolerance", "1.5"])

    def test_suite_tolerance_widens_only_its_suite(self, tmp_path):
        # The indexed row drops 8.0 -> 3.0 (-62.5%): over the 0.25 default,
        # within a 0.7 band for the queries suite, and a store band leaves
        # the queries gate at the default.
        baseline_dir = tmp_path / "baselines"
        baseline_dir.mkdir()
        self._write(baseline_dir, "BENCH_queries.json", _report())
        slower = self._write(
            tmp_path,
            "BENCH_queries.json",
            _report(results=[_row("s:tkprq:scan"), _row("s:tkprq:indexed", speedup=3.0)]),
        )
        compare = [str(slower), "--compare", str(baseline_dir)]
        assert check_bench.main(compare + ["--suite-tolerance", "queries=0.7"]) == 0
        assert check_bench.main(compare + ["--suite-tolerance", "store=0.7"]) == 1

    @pytest.mark.parametrize("spec", ["store", "store=abc", "=0.5", "store=1.0"])
    def test_malformed_suite_tolerance_rejected(self, tmp_path, spec):
        report = self._write(tmp_path, "BENCH_queries.json", _report())
        with pytest.raises(SystemExit):
            check_bench.main([str(report), "--suite-tolerance", spec])

    def test_missing_report_file_fails(self, tmp_path):
        assert check_bench.main([str(tmp_path / "BENCH_queries.json")]) == 1

    def test_invalid_json_fails(self, tmp_path):
        path = tmp_path / "BENCH_queries.json"
        path.write_text("{not json")
        assert check_bench.main([str(path)]) == 1

    def test_no_reports_in_cwd_fails(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert check_bench.main([]) == 1

    @pytest.mark.parametrize("suite", ["queries", "store"])
    def test_committed_baseline_validates_and_matches_itself(self, suite):
        # CI compares fresh --tiny runs against these files, so each must
        # pass the validator and its own comparison at zero tolerance.
        baseline = REPO_ROOT / "benchmarks" / "baselines" / f"BENCH_{suite}.json"
        assert check_bench.main([str(baseline), "--compare", str(baseline),
                                 "--tolerance", "0"]) == 0


def _precision_cell(**overrides):
    cell = {
        "scenario": "mall-tiny",
        "seed": 5,
        "fingerprint": "abc",
        "fit_seconds": 0.5,
        "query": "tkprq",
        "k": 5,
        "queries": 3,
        "precision": [0.8, 0.9, 1.0],
        "recall": [0.7, 0.8, 0.9],
    }
    cell.update(overrides)
    return cell


class TestPrecisionSection:
    def test_section_is_optional(self):
        assert check_bench.validate_report(_report(), "r") == []

    def test_valid_section_passes(self):
        report = _report()
        report["precision"] = [_precision_cell(), _precision_cell(query="tkfrpq")]
        assert check_bench.validate_report(report, "r") == []

    def test_empty_section_fails(self):
        report = _report()
        report["precision"] = []
        problems = check_bench.validate_report(report, "r")
        assert any("non-empty list" in problem for problem in problems)

    def test_missing_keys_fail(self):
        cell = _precision_cell()
        del cell["recall"]
        report = _report()
        report["precision"] = [cell]
        problems = check_bench.validate_report(report, "r")
        assert any("missing key 'recall'" in problem for problem in problems)

    def test_unknown_query_kind_fails(self):
        report = _report()
        report["precision"] = [_precision_cell(query="topk")]
        problems = check_bench.validate_report(report, "r")
        assert any("'tkprq' or 'tkfrpq'" in problem for problem in problems)

    def test_non_positive_k_fails(self):
        report = _report()
        report["precision"] = [_precision_cell(k=0)]
        problems = check_bench.validate_report(report, "r")
        assert any("positive int" in problem for problem in problems)

    def test_score_outside_unit_interval_fails(self):
        report = _report()
        report["precision"] = [_precision_cell(precision=[0.5, 1.2, 0.9])]
        problems = check_bench.validate_report(report, "r")
        assert any("[0, 1]" in problem for problem in problems)

    def test_unequal_observation_lists_fail(self):
        report = _report()
        report["precision"] = [_precision_cell(recall=[0.5])]
        problems = check_bench.validate_report(report, "r")
        assert any("parallel lists" in problem for problem in problems)

    def test_section_only_validated_for_queries_suite(self):
        report = _report(suite="store")
        report["precision"] = []  # ignored outside the queries suite
        problems = check_bench.validate_report(report, "r")
        assert not any("precision" in problem for problem in problems)


def _store_report(**section_overrides):
    section = {
        "shards": 4,
        "shard_counts": [1, 2, 4],
        "snapshot_every": 4096,
        "scatter_agreement": True,
        "recovery": {"exact": True, "replayed_records": 100, "truncated_bytes": 0},
        "pending_after_flush": 0,
    }
    section.update(section_overrides)
    report = _report(
        suite="store",
        results=[_row("tkprq:single"), _row("tkprq:scatter-4", workers=4, speedup=0.8)],
    )
    report["store"] = section
    return report


class TestStoreSection:
    def test_valid_section_passes(self):
        assert check_bench.validate_report(_store_report(), "r") == []

    def test_section_is_required(self):
        report = _store_report()
        del report["store"]
        problems = check_bench.validate_report(report, "r")
        assert any("requires a 'store' section" in p for p in problems)

    def test_missing_keys_fail(self):
        report = _store_report()
        del report["store"]["shard_counts"]
        problems = check_bench.validate_report(report, "r")
        assert any("missing key 'shard_counts'" in p for p in problems)

    @pytest.mark.parametrize("shards", [0, True])
    def test_shards_must_be_a_positive_int(self, shards):
        problems = check_bench.validate_report(_store_report(shards=shards), "r")
        assert any("store.shards must be a positive int" in p for p in problems)

    @pytest.mark.parametrize("counts", [[], [1, 0], "1,2,4"])
    def test_shard_counts_must_be_positive_ints(self, counts):
        problems = check_bench.validate_report(
            _store_report(shard_counts=counts), "r"
        )
        assert any("store.shard_counts must be" in p for p in problems)

    def test_scatter_disagreement_fails(self):
        problems = check_bench.validate_report(
            _store_report(scatter_agreement=False), "r"
        )
        assert any("scatter_agreement must be true" in p for p in problems)

    def test_inexact_recovery_fails(self):
        recovery = {"exact": False, "replayed_records": 100, "truncated_bytes": 0}
        problems = check_bench.validate_report(_store_report(recovery=recovery), "r")
        assert any("recovery.exact must be true" in p for p in problems)

    def test_negative_replay_count_fails(self):
        recovery = {"exact": True, "replayed_records": -1, "truncated_bytes": 0}
        problems = check_bench.validate_report(_store_report(recovery=recovery), "r")
        assert any("replayed_records must be a non-negative int" in p for p in problems)

    def test_recovery_must_be_an_object(self):
        problems = check_bench.validate_report(_store_report(recovery=True), "r")
        assert any("store.recovery must be an object" in p for p in problems)

    def test_pending_writes_after_flush_fail(self):
        problems = check_bench.validate_report(
            _store_report(pending_after_flush=3), "r"
        )
        assert any("pending_after_flush must be 0" in p for p in problems)
