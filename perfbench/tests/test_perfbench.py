"""Tests of the repo benchmark itself.

    python -m pytest perfbench/tests -q

Each workload runs briefly and must emit every declared metric with its
unit (end-to-end untraced, per-layer traced), and each phase's correctness
gate must catch a planted wrong answer.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import common  # noqa: E402

common.import_program()

import backfill  # noqa: E402
import live_stream  # noqa: E402
import query_mix  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((common.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        assert entry["bound"] <= setup["bound"]
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_runs_briefly_and_emits_every_metric(workload, trace):
    outcome = run.run(workload, 7, 3.0, trace=trace, setup_repeats=1)
    assert outcome.failed == 0
    assert outcome.attempted >= 1
    metrics = common.with_units(outcome.metrics)
    assert set(metrics) == (PER_LAYER if trace else END_TO_END)
    units = common.declared_units()
    for name, entry in metrics.items():
        assert entry["unit"] == units[name]
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, name
    assert outcome.provenance["scenarios"] == [run.WORKLOADS[workload]]


def test_command_prints_provenance_then_the_result():
    result = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "transit",
         "--seed", "3", "--seconds", "2", "--trace", "0"],
        capture_output=True, text=True, cwd=common.ROOT, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[-2].startswith("provenance ")
    provenance = json.loads(lines[-2][len("provenance "):])
    for key in ("nproc", "python", "seed", "duplicate_rate", "traffic"):
        assert key in provenance
    assert "write_share" in provenance["query"] and "store" in provenance["query"]
    assert "offered_records_per_s" in provenance["live"]
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    assert set(final["metrics"]) == END_TO_END


def test_command_fails_without_the_program(tmp_path):
    bare = tmp_path / "checkout"
    (bare / "perfbench").mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (bare / "perfbench" / source.name).write_text(source.read_text())
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mall",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=bare, timeout=120,
    )
    assert result.returncode != 0
    assert result.stdout == ""


# ------------------------------------------------------------------ gates
@pytest.fixture(scope="module")
def tiny_model():
    """A C2MN fitted on the tiny fixture scenario, and held-out traffic."""
    annotator, scenario = common.fit_annotator("mall-tiny")
    return annotator, common.held_out_sequences(scenario, 1, 2, min_records=60)


def test_live_stream_gate_catches_a_wrong_answer(tiny_model):
    from repro.net.wire import record_to_wire
    from repro.service.service import AnnotationService

    import reference

    annotator, sequences = tiny_model
    model = common.OUT / "test-live-stream-model.json"
    model.parent.mkdir(parents=True, exist_ok=True)
    AnnotationService(annotator).save(model)
    try:
        feeds = {
            s.object_id: [[record_to_wire(r)] for r in s.records] for s in sequences
        }
        expected = reference.replay(str(model), "mall-tiny", feeds)
    finally:
        model.unlink()
    phase = live_stream.Phase()
    for object_id, answer in expected.items():
        phase.finalized[object_id] = [list(batch) for batch in answer["batches"]]
        phase.flushed[object_id] = list(answer["flushed"])
    assert live_stream.count_mismatches(phase, expected) == 0
    object_id, batches = next(
        (o, b) for o, b in phase.finalized.items() if any(b)
    )
    position = next(i for i, batch in enumerate(batches) if batch)
    planted = dict(batches[position][0], region=batches[position][0]["region"] + 1)
    batches[position] = [planted] + batches[position][1:]
    assert live_stream.count_mismatches(phase, expected) == 1


def test_backfill_gate_catches_a_wrong_answer(tiny_model):
    annotator, sequences = tiny_model
    venue = backfill.Venue(annotator, sequences)
    venue.expected = [annotator.annotate(s) for s in sequences]
    assert backfill.timed_calls(venue, 0.0)[2] == 0
    venue.expected[0] = venue.expected[0][1:]
    assert backfill.timed_calls(venue, 0.0)[2] == 1


def test_query_mix_gate_catches_a_wrong_answer():
    from repro.scenarios import get_scenario

    mix = query_mix.setup(get_scenario("mall-weekday").venue.build(), 5, objects=300)
    query_mix.run_ops(mix, count=40)
    assert query_mix.check_final_store(mix.service) == 0
    mix.service.query_popular_regions = lambda k, **bounds: []
    assert query_mix.check_final_store(mix.service) == len(
        [shape for shape in query_mix.SHAPES if shape[0] == "tkprq"]
    )
