"""The query benchmark suite: indexed vs scan TkPRQ/TkFRPQ latency.

For every requested scenario the suite materialises the catalogue workload,
merges its ground-truth labels into m-semantics, and replicates the objects
(with distinct ids) until the store is large enough to time meaningfully.
A deterministic query set — full-range, bounded, open-ended and
region-filtered intervals at several k — is then evaluated twice: once as
the linear scan over the raw per-object mapping and once through a
:class:`repro.index.SemanticsIndex` built over the same data.  Every answer
pair is compared for equality; a mismatch lands in the report as
``"agreement": false``, which ``tools/check_bench.py`` treats as a hard
failure.

The report uses the shared ``repro.bench/1`` schema.
Scan rows carry ``speedup_vs_serial = 1.0``; indexed rows carry the
scan-over-indexed latency ratio — the number the CI perf-regression gate
compares against the committed baseline.  Index build time is *not* part
of the query latency (production maintains the index incrementally on
publish); it is reported per scenario in the ``scenarios`` section.

When any of :data:`PRECISION_SCENARIOS` is among the requested names the
report additionally carries a ``precision`` section: per (scenario, query
kind, k), the per-query-shape precision and recall of answers computed
from C2MN-*annotated* semantics against answers computed from the ground
truth — the observation samples ``repro.report`` turns into bootstrap-CI
tables.
"""

from __future__ import annotations

import os
import platform
import time
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.annotator import C2MNAnnotator
from repro.core.config import C2MNConfig
from repro.evaluation.harness import ground_truth_semantics
from repro.index import SemanticsIndex
from repro.mobility.dataset import train_test_split
from repro.mobility.records import MSemantics
from repro.queries import TkFRPQ, TkPRQ
from repro.scenarios import materialize as materialize_scenario

#: Object replication per workload scale (distinct ids, shared entries).
QUERY_REPLICATION = {"tiny": 6, "small": 20, "medium": 48}

#: k values exercised by the query set.
QUERY_KS = (1, 5, 10)

#: How many times one timing invocation evaluates the full query set.
QUERY_LOOPS = 3

#: Scenarios whose annotation-vs-truth answer quality is measured.  Each
#: one costs a full C2MN fit, so the suite sticks to the tiny twins — one
#: per venue archetype family — and skips the section entirely when none
#: of them is among the requested names.
PRECISION_SCENARIOS = ("mall-tiny", "office-tiny")

#: The scaled-down fit of the precision section's C2MN.
_FIT_CONFIG = dict(max_iterations=3, mcmc_samples=6, lbfgs_iterations=4)


def build_query_workload(
    name: str,
    *,
    replication: int,
    seed: Optional[int] = None,
) -> Tuple[Any, Dict[str, List[MSemantics]]]:
    """Materialise ``name`` and replicate its ground-truth m-semantics.

    Returns ``(scenario, semantics_per_object)`` where the mapping holds
    ``replication`` copies of every object under distinct ids — the shape
    both the scan and the bulk index build consume.
    """
    scenario = materialize_scenario(name, seed)
    truth = ground_truth_semantics(scenario.dataset.sequences)
    semantics: Dict[str, List[MSemantics]] = {}
    for copy in range(replication):
        for position, entries in enumerate(truth):
            semantics[f"{name}/{copy}/{position}"] = entries
    return scenario, semantics


def build_query_set(
    semantics_per_object: Dict[str, List[MSemantics]],
    region_ids: Sequence[int],
) -> List[Tuple[Optional[float], Optional[float], Optional[Set[int]]]]:
    """A deterministic set of ``(start, end, query_regions)`` shapes.

    Mixes the planner-relevant cases: full range, interior windows of
    several widths, both open-ended directions, and a region filter over
    half the venue (every other region id).
    """
    times = [
        bound
        for entries in semantics_per_object.values()
        for ms in entries
        for bound in (ms.start_time, ms.end_time)
    ]
    t0 = min(times)
    span = max(times) - t0
    half = set(sorted(region_ids)[::2])
    return [
        (None, None, None),
        (t0 + 0.25 * span, t0 + 0.75 * span, None),
        (t0 + 0.40 * span, t0 + 0.60 * span, None),
        (t0 + 0.45 * span, t0 + 0.55 * span, half),
        (None, t0 + 0.50 * span, None),
        (t0 + 0.50 * span, None, None),
        (t0 + 0.10 * span, t0 + 0.90 * span, half),
    ]


def _answers(target, queries, make_query) -> List[Any]:
    """Evaluate every (k, interval, filter) combination against ``target``."""
    results = []
    for k in QUERY_KS:
        for start, end, query_regions in queries:
            query = make_query(k, start, end, query_regions)
            results.append(query.evaluate(target))
    return results


def _time_answers(repeats: int, target, queries, make_query) -> float:
    """Best-of-``repeats`` wall-clock of ``QUERY_LOOPS`` query-set passes."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        for _ in range(QUERY_LOOPS):
            _answers(target, queries, make_query)
        best = min(best, time.perf_counter() - started)
    return best


def _make_tkprq(k, start, end, query_regions):
    return TkPRQ(k, query_regions=query_regions, start=start, end=end)


def _make_tkfrpq(k, start, end, query_regions):
    return TkFRPQ(k, query_regions=query_regions, start=start, end=end)


def evaluate_query_precision(
    names: Sequence[str],
    *,
    seed: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Precision/recall of query answers from annotations vs ground truth.

    For each scenario: fit the benchmark C2MN on the training half, annotate
    the test half, then run the deterministic query set at every ``k``
    against both the predicted and the ground-truth semantics.  Each cell
    records one precision and one recall observation per query shape —
    precision = ``|predicted ∩ truth| / |predicted|``, recall =
    ``|predicted ∩ truth| / |truth|`` over the answered region (or region
    pair) sets — which is the sample the report's bootstrap CIs resample.
    """
    section: List[Dict[str, Any]] = []
    for name in names:
        scenario = materialize_scenario(name, seed)
        train, test = train_test_split(
            scenario.dataset, train_fraction=0.5, seed=5
        )
        annotator = C2MNAnnotator(
            scenario.space, config=C2MNConfig.fast(**_FIT_CONFIG)
        )
        fit_start = time.perf_counter()
        annotator.fit(train.sequences)
        fit_seconds = time.perf_counter() - fit_start
        truth = {
            f"{name}/{position}": entries
            for position, entries in enumerate(
                ground_truth_semantics(test.sequences)
            )
        }
        predicted = {
            f"{name}/{position}": entries
            for position, entries in enumerate(
                annotator.annotate_many(
                    [labeled.sequence for labeled in test.sequences]
                )
            )
        }
        queries = build_query_set(truth, scenario.space.region_ids)
        for kind, make_query in (("tkprq", _make_tkprq), ("tkfrpq", _make_tkfrpq)):
            for k in QUERY_KS:
                precisions: List[float] = []
                recalls: List[float] = []
                for start, end, query_regions in queries:
                    query = make_query(k, start, end, query_regions)
                    predicted_keys = {item[0] for item in query.evaluate(predicted)}
                    truth_keys = {item[0] for item in query.evaluate(truth)}
                    overlap = len(predicted_keys & truth_keys)
                    precisions.append(
                        round(overlap / len(predicted_keys), 4)
                        if predicted_keys
                        else (1.0 if not truth_keys else 0.0)
                    )
                    recalls.append(
                        round(overlap / len(truth_keys), 4) if truth_keys else 1.0
                    )
                section.append(
                    {
                        "scenario": name,
                        "seed": scenario.seed,
                        "fingerprint": scenario.fingerprint,
                        "fit_seconds": round(fit_seconds, 6),
                        "query": kind,
                        "k": k,
                        "queries": len(queries),
                        "precision": precisions,
                        "recall": recalls,
                    }
                )
    return section


def run_query_benchmarks(
    names: Sequence[str],
    *,
    scale: str = "tiny",
    repeats: int = 3,
    seed: Optional[int] = None,
) -> Dict[str, Any]:
    """Run the query suite over ``names`` and return the report as a dict."""
    from repro.bench.runner import BENCH_SCHEMA

    if scale not in QUERY_REPLICATION:
        raise ValueError(
            f"scale must be one of {sorted(QUERY_REPLICATION)}, got {scale!r}"
        )
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    if not names:
        raise ValueError("need at least one scenario name")
    replication = QUERY_REPLICATION[scale]

    results: List[Dict[str, Any]] = []
    details: List[Dict[str, Any]] = []
    total_objects = 0
    total_entries = 0

    for name in names:
        scenario, semantics = build_query_workload(
            name, replication=replication, seed=seed
        )
        queries = build_query_set(semantics, scenario.space.region_ids)

        build_start = time.perf_counter()
        index = SemanticsIndex.from_semantics(semantics)
        build_seconds = time.perf_counter() - build_start

        for kind, make_query in (("tkprq", _make_tkprq), ("tkfrpq", _make_tkfrpq)):
            scan_answers = _answers(semantics, queries, make_query)
            indexed_answers = _answers(index, queries, make_query)
            agreement = scan_answers == indexed_answers
            scan_seconds = _time_answers(repeats, semantics, queries, make_query)
            indexed_seconds = _time_answers(repeats, index, queries, make_query)
            results.append(
                {
                    "name": f"{name}:{kind}:scan",
                    "backend": "serial",
                    "workers": 1,
                    "seconds": round(scan_seconds, 6),
                    "speedup_vs_serial": 1.0,
                    "agreement": True,
                }
            )
            results.append(
                {
                    "name": f"{name}:{kind}:indexed",
                    "backend": "serial",
                    "workers": 1,
                    "seconds": round(indexed_seconds, 6),
                    "speedup_vs_serial": round(scan_seconds / indexed_seconds, 4)
                    if indexed_seconds > 0
                    else 0.0,
                    "agreement": agreement,
                }
            )

        stats = index.stats()
        details.append(
            {
                "name": name,
                "seed": scenario.seed,
                "fingerprint": scenario.fingerprint,
                "objects": len(semantics),
                "entries": stats["entries"],
                "postings": stats["postings"],
                "regions": stats["regions"],
                "index_build_seconds": round(build_seconds, 6),
                "query_count": len(QUERY_KS) * len(queries),
                "loops": QUERY_LOOPS,
            }
        )
        total_objects += len(semantics)
        total_entries += stats["entries"]

    largest = max(details, key=lambda detail: detail["entries"])["name"]
    precision = evaluate_query_precision(
        [name for name in names if name in PRECISION_SCENARIOS], seed=seed
    )
    report = {
        "schema": BENCH_SCHEMA,
        "suite": "queries",
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "scale": scale,
        "workers": 1,
        "repeats": max(1, repeats),
        "workload": {
            "sequences": total_objects,
            "records": total_entries,
            "replication": replication,
        },
        "queries": {"ks": list(QUERY_KS), "largest_scenario": largest},
        "scenarios": details,
        "results": results,
    }
    if precision:
        report["precision"] = precision
    return report
