"""``python -m repro.bench``: the query and store suites end to end.

Each suite runs at ``--tiny`` scale through the CLI, and its report must
pass ``tools/check_bench.py``'s validator (schema, suite section, every
row's ``agreement``) and carry the rows of the committed baseline that CI
compares it against.  Speedups are not asserted here: they are gated in
CI against ``benchmarks/baselines/``.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench.runner import main as bench_main

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINES = REPO_ROOT / "benchmarks" / "baselines"

_SPEC = importlib.util.spec_from_file_location(
    "check_bench", REPO_ROOT / "tools" / "check_bench.py"
)
check_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_bench)


def _row_keys(report):
    return {
        (row["name"], row["backend"], row["workers"]) for row in report["results"]
    }


def _run(argv, out, capsys):
    code = bench_main(argv + ["--out", str(out)])
    capsys.readouterr()
    return code, json.loads(out.read_text())


def test_store_suite_is_valid_and_covers_the_baseline(tmp_path, capsys):
    code, report = _run(["--store", "--tiny"], tmp_path / "store.json", capsys)
    assert code == 0
    assert check_bench.validate_report(report, "store") == []
    baseline = json.loads((BASELINES / "BENCH_store.json").read_text())
    assert _row_keys(report) == _row_keys(baseline)


def test_query_suite_is_valid_and_rows_are_in_the_baseline(tmp_path, capsys):
    code, report = _run(
        ["--queries", "--tiny", "--scenario", "mall-tiny"],
        tmp_path / "queries.json",
        capsys,
    )
    assert code == 0
    assert check_bench.validate_report(report, "queries") == []
    assert _row_keys(report) == {
        (f"mall-tiny:{query}:{path}", "serial", 1)
        for query in ("tkprq", "tkfrpq")
        for path in ("scan", "indexed")
    }
    baseline = json.loads((BASELINES / "BENCH_queries.json").read_text())
    assert _row_keys(report) <= _row_keys(baseline)
    # mall-tiny is a precision scenario, so the answer-quality cells ride along.
    assert {cell["scenario"] for cell in report["precision"]} == {"mall-tiny"}


@pytest.mark.parametrize(
    "argv",
    [
        [],  # a suite is required: there is no default suite any more
        ["--queries", "--store"],
        ["--store", "--scenario", "mall-tiny"],
        ["--service"],  # retired suite
    ],
)
def test_cli_rejects_bad_suite_selection(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        bench_main(argv + ["--out", str(tmp_path / "never.json")])
    assert excinfo.value.code == 2
    capsys.readouterr()
    assert not (tmp_path / "never.json").exists()
