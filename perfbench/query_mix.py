"""The query phase: TkPRQ/TkFRPQ beside publishes on an indexed store.

Closed loop, in process, on ``AnnotationService.query_*`` and
``store.publish``.  Set-up preloads an indexed service store with 10^4
synthetic visitors over the venue's regions: region
popularity is Zipf-skewed and every visitor stays at 2-8 regions through
the day, so visit-region sets are many and distinct and nothing is
replicated.  The loop runs a fixed ten-operation cycle: three publishes of
new visitors (30% writes) and seven queries walking a fixed list of
dashboard shapes -- one panel at a time, TkFRPQ then TkPRQ at k = 1, 5, 10
over the full day or one of two bounded windows.  Every publish clears the
index's memoised pair counters, so the write share decides how often a
TkFRPQ finds its counter memoised; it also leaves the postings it touched
to be re-sorted by the next bounded query.

Correctness: on the final store, every shape's indexed answer must equal
the scan over ``store.as_dict()``.  The traced run replays the untraced
run's exact operations on a second, identically preloaded store (built
after timing) and must answer every query bitwise the same.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import common
import speed
import tracing

OBJECTS = 10_000
DAY = 86_400.0
CYCLE = 10
PUBLISH_SLOTS = (0, 3, 7)
KS = (1, 5, 10)
WINDOWS = (None, (8 * 3600.0, 12 * 3600.0), (13 * 3600.0, 18 * 3600.0))
#: One dashboard panel per window: TkFRPQ then TkPRQ, each at every k.
SHAPES = [(kind, k, window) for window in WINDOWS for kind in ("tkfrpq", "tkprq") for k in KS]


class Visitors:
    """Seeded synthetic visitors: m-semantics over a venue's regions."""

    def __init__(self, region_ids, seed: int):
        self._rng = random.Random(seed)
        self._regions = list(region_ids)
        self._rng.shuffle(self._regions)
        self._cumulative = list(
            itertools.accumulate(1.0 / (rank + 1) ** 1.1 for rank in range(len(self._regions)))
        )
        self._made = 0

    def _region(self) -> int:
        return self._rng.choices(self._regions, cum_weights=self._cumulative)[0]

    def next(self):
        """The next visitor's ``(object_id, m-semantics)``, time-ordered."""
        from repro.mobility.records import EVENT_PASS, EVENT_STAY, MSemantics

        rng = self._rng
        object_id = f"visitor-{self._made:06d}"
        self._made += 1
        clock = rng.uniform(0.0, 0.8 * DAY)
        entries = []
        for _ in range(rng.randint(2, 8)):
            stay = rng.uniform(60.0, 1800.0)
            entries.append(
                MSemantics(self._region(), clock, clock + stay, EVENT_STAY, rng.randint(3, 60))
            )
            clock += stay
            walk = rng.uniform(10.0, 120.0)
            entries.append(
                MSemantics(self._region(), clock, clock + walk, EVENT_PASS, rng.randint(1, 10))
            )
            clock += walk
        return object_id, entries


@dataclass
class Mix:
    service: object
    visitors: Visitors


def setup(space, seed: int, objects: int = OBJECTS) -> Mix:
    """An indexed service store preloaded with ``objects`` visitors of ``space``."""
    from repro.baselines.smot import SMoTAnnotator
    from repro.service.service import AnnotationService

    # The service needs a fitted annotator; this phase never decodes.
    service = AnnotationService(SMoTAnnotator(space).fit([]), indexed=True)
    visitors = Visitors(space.region_ids, seed)
    for _ in range(objects):
        service.store.publish(*visitors.next())
    return Mix(service, visitors)


@dataclass
class Ops:
    """What one pass of the operation loop timed and answered."""

    seconds: Dict[str, List[float]] = field(
        default_factory=lambda: {"tkprq": [], "tkfrpq": [], "publish": []}
    )
    #: When each timed call started, on the monotonic clock.
    at: Dict[str, List[float]] = field(
        default_factory=lambda: {"tkprq": [], "tkfrpq": [], "publish": []}
    )
    answers: List[list] = field(default_factory=list)
    count: int = 0
    wall_s: float = 0.0
    visitor_s: float = 0.0
    routed: int = 0

    @property
    def program_s(self) -> float:
        return sum(sum(values) for values in self.seconds.values())


def run_ops(mix: Mix, *, seconds: Optional[float] = None, count: Optional[int] = None,
            tracer=None, speedometer=None) -> Ops:
    """Run whole cycles until ``seconds`` pass, or exactly ``count`` operations.

    With a tracer every call is a span, and each query's plan is asked of
    ``plan_query`` to count the share routed to the index.  A
    ``speedometer`` samples once per cycle and after the last.
    """
    from repro.index.planner import plan_query

    service = mix.service
    ops = Ops()
    deadline = None if seconds is None else time.perf_counter() + seconds
    queries = 0
    started = time.perf_counter()
    while True:
        slot = ops.count % CYCLE
        if count is not None and ops.count >= count:
            break
        if deadline is not None and slot == 0 and time.perf_counter() >= deadline:
            break
        if speedometer is not None and slot == 0:
            speedometer.sample()
        ops.count += 1
        if slot in PUBLISH_SLOTS:
            made = time.perf_counter()
            object_id, entries = mix.visitors.next()
            ops.visitor_s += time.perf_counter() - made
            name, span = "publish", "service.store.publish"

            def call():
                return service.store.publish(object_id, entries)
        else:
            kind, k, window = SHAPES[queries % len(SHAPES)]
            queries += 1
            start, end = window if window else (None, None)
            name, span = kind, f"queries.{kind}"
            query = (
                service.query_popular_regions if kind == "tkprq"
                else service.query_frequent_pairs
            )

            def call():
                return query(k, start=start, end=end)

            if tracer is not None:
                with tracer.span("index.plan"):
                    ops.routed += plan_query(service.store, start, end).use_index
        context = tracer.span(span) if tracer is not None else contextlib.nullcontext()
        ops.at[name].append(time.monotonic())
        began = time.perf_counter()
        with context:
            answer = call()
        ops.seconds[name].append(time.perf_counter() - began)
        if name != "publish":
            ops.answers.append(answer)
    ops.wall_s = time.perf_counter() - started
    if speedometer is not None:
        speedometer.sample()
    return ops


def check_final_store(service) -> int:
    """Shapes whose indexed answer differs from the scan of the final store."""
    from repro.queries.tkfrpq import TkFRPQ
    from repro.queries.tkprq import TkPRQ

    snapshot = service.store.as_dict()
    wrong = 0
    for kind, k, window in SHAPES:
        start, end = window if window else (None, None)
        if kind == "tkprq":
            indexed = service.query_popular_regions(k, start=start, end=end)
            scan = TkPRQ(k, start=start, end=end).evaluate(snapshot)
        else:
            indexed = service.query_frequent_pairs(k, start=start, end=end)
            scan = TkFRPQ(k, start=start, end=end).evaluate(snapshot)
        wrong += indexed != scan
    return wrong


def measure(mix: Mix, seconds: float, *, trace: bool, seed: int, rebuild) -> common.Outcome:
    """Time the phase for ``seconds`` (half untraced, then the same operations
    traced on ``rebuild()``, an identically preloaded store, with ``trace``)
    and check the answers."""
    speedometer = speed.Speedometer()
    untraced = run_ops(
        mix, seconds=seconds / 2 if trace else seconds, speedometer=speedometer
    )
    attempted = untraced.count + len(SHAPES)
    failed = check_final_store(mix.service)
    stats = mix.service.index.stats()
    provenance = {
        "preloaded_objects": OBJECTS,
        "store": {"objects": stats["objects"], "postings": stats["postings"]},
        "write_share": len(PUBLISH_SLOTS) / CYCLE,
        "shapes": len(SHAPES),
        "timed_ops": {name: len(values) for name, values in untraced.seconds.items()},
        "speed": speedometer.summary(),
    }
    if not trace:
        def p(name, q):
            pick = common.percentile if q == 50 else common.tail_percentile
            factor = speedometer.factor
            scaled = [
                took * factor(at, at + took)
                for at, took in zip(untraced.at[name], untraced.seconds[name])
            ]
            return pick(scaled, q) * 1000.0

        metrics = {
            "tkprq_p50_ms": p("tkprq", 50),
            "tkprq_p95_ms": p("tkprq", 95),
            "tkfrpq_p50_ms": p("tkfrpq", 50),
            "tkfrpq_p95_ms": p("tkfrpq", 95),
            "publish_p50_ms": p("publish", 50),
        }
        return common.Outcome(attempted, failed, metrics, provenance)

    replica = rebuild()
    tracer = tracing.Tracer()
    traced = run_ops(replica, count=untraced.count, tracer=tracer)
    spans_path = common.OUT / f"query-seed{seed}-spans-{os.getpid()}.json"
    tracer.dump(spans_path)
    provenance["spans"] = str(spans_path.relative_to(common.ROOT))
    attempted += traced.count + len(SHAPES)
    failed += sum(a != b for a, b in zip(untraced.answers, traced.answers))
    failed += check_final_store(replica.service)
    summary = tracing.summarize(tracer.spans)
    layer_s = sum(entry["total_s"] for entry in summary.values())
    final = replica.service.index.stats()
    metrics = {
        "query.index.objects": final["objects"],
        "query.index.postings": final["postings"],
        "query.index.route_share": traced.routed / len(traced.answers),
        "query.trace.coverage_share": layer_s / (traced.wall_s - traced.visitor_s),
        "query.trace.overhead_share": traced.program_s / untraced.program_s,
    }
    return common.Outcome(attempted, failed, metrics, provenance)
