"""Seed-driven scenario fuzzer: sample spec space, assert invariants, shrink.

The scenario catalogue pins a handful of named workloads; this module turns
the *whole spec space* into a test surface.  From one seed,
:func:`sample_spec` composes a random :class:`~repro.scenarios.spec.ScenarioSpec`
— any venue archetype × any mobility profile × any device regime, including
the adversarial ones (multipath bias, clock skew/jitter, duplicate
retransmissions) — and :func:`check_spec` materialises it and runs the
*oracle layer*: cross-cutting invariants that must hold for every point of
the space, not just the catalogue:

``topology``
    ground truth stays inside the floorplan: every simulated point and
    every materialised label references a region the venue actually has,
    locations stay inside the venue's footprint, time moves forward.
``preprocessing``
    :func:`~repro.mobility.preprocessing.normalize_report_stream` is
    idempotent and permutation-insensitive on the raw gateway stream, the
    identity on benign streams, and the paper's split/filter preprocessing
    is idempotent on its own output.
``streaming``
    ``materialize_iter()`` produces bitwise the sequences ``materialize()``
    does.
``backends``
    annotator output is bitwise identical across the serial, thread and
    process execution backends.
``queries``
    TkPRQ/TkFRPQ answers from the semantic-region index equal the linear
    scan, over full ranges, sub-intervals and region filters.
``replay``
    streaming the scenario through the service equals the batch decode
    (``replay_scenario(..., exact=True)``), and C2MN sessions at window 8,
    which decode from append-only window state, finalize and flush exactly
    what sessions re-running ``predict_labels`` on every window do.

A failing spec is *shrunk* (:func:`shrink_spec`): greedy single-mutation
descent — fewer objects, shorter duration, adversarial knobs off, simpler
mobility, minimal venue — accepting any smaller spec that still fails,
until no single mutation preserves the failure.  The minimal spec plus its
seed round-trips through :func:`spec_to_dict` / :func:`spec_from_dict`, so
a nightly-fuzz artifact is a ready-to-paste regression test.

Entry points: ``python -m repro.scenarios --fuzz N --seed S`` and
:func:`run_fuzz` for programmatic use (the pinned-corpus tests).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.mobility.preprocessing import normalize_report_stream, preprocess
from repro.mobility.records import EVENT_PASS, EVENT_STAY, LabeledSequence
from repro.runtime import ExecutionPolicy
from repro.scenarios.spec import (
    MOBILITY_PROFILES,
    VENUE_ARCHETYPES,
    DeviceSpec,
    MobilitySpec,
    Scenario,
    ScenarioSpec,
    VenueSpec,
)

Oracle = Callable[["FuzzContext"], List[str]]


# ===================================================================== context
class FuzzContext:
    """One sampled spec, materialised once, with shared lazy artifacts.

    The backend and query oracles both need a fitted annotator and its
    batch output; computing them once here keeps a full oracle pass cheap
    enough to run hundreds of specs in a nightly job.
    """

    def __init__(self, spec: ScenarioSpec, scenario: Scenario):
        self.spec = spec
        self.scenario = scenario
        self._annotator = None
        self._semantics: Optional[List[Any]] = None

    @property
    def sequences(self) -> List[LabeledSequence]:
        return self.scenario.dataset.sequences

    def annotator(self):
        """A fitted SMoT baseline — cheap to fit, deterministic to decode."""
        if self._annotator is None:
            from repro.baselines.smot import SMoTAnnotator

            annotator = SMoTAnnotator(self.scenario.space)
            annotator.fit(self.sequences)
            self._annotator = annotator
        return self._annotator

    def semantics(self) -> List[Any]:
        """Per-object m-semantics from the serial batch decode (reference)."""
        if self._semantics is None:
            self._semantics = self.annotator().annotate_many(
                [labeled.sequence for labeled in self.sequences],
                policy=ExecutionPolicy.serial(),
            )
        return self._semantics


def _sequence_key(labeled: LabeledSequence):
    """A bitwise-comparison key over one labeled sequence."""
    return (
        labeled.object_id,
        tuple(
            (record.timestamp, record.x, record.y, record.floor)
            for record in labeled.sequence.records
        ),
        tuple(labeled.region_labels),
        tuple(labeled.event_labels),
    )


# ===================================================================== oracles
def oracle_topology(ctx: FuzzContext) -> List[str]:
    """Ground truth and materialised labels stay inside the venue."""
    violations: List[str] = []
    space = ctx.scenario.space
    region_ids = set(space.region_ids)
    floors = set(space.floors)

    min_x = min(p.geometry.min_x for p in space.partitions)
    max_x = max(p.geometry.max_x for p in space.partitions)
    min_y = min(p.geometry.min_y for p in space.partitions)
    max_y = max(p.geometry.max_y for p in space.partitions)
    slack = 0.5  # the simulator's ±0.4 stay jitter, rounded up

    simulator = ctx.spec.mobility.build(space, ctx.spec.seed)
    trajectory = simulator.simulate_object(
        "oracle-0", duration=min(ctx.spec.duration, 600.0)
    )
    previous = None
    for point in trajectory.points:
        if point.region_id not in region_ids:
            violations.append(
                f"simulated point references unknown region {point.region_id}"
            )
            break
        if point.location.floor not in floors:
            violations.append(f"simulated point on unknown floor {point.location.floor}")
            break
        if not (min_x - slack <= point.location.x <= max_x + slack) or not (
            min_y - slack <= point.location.y <= max_y + slack
        ):
            violations.append(
                f"simulated point ({point.location.x:.2f}, {point.location.y:.2f}) "
                "escaped the venue footprint"
            )
            break
        if previous is not None and point.timestamp <= previous:
            violations.append("simulated timestamps are not strictly increasing")
            break
        previous = point.timestamp

    for labeled in ctx.sequences:
        if not set(labeled.region_labels) <= region_ids:
            violations.append(
                f"sequence {labeled.object_id!r} labels unknown regions "
                f"{sorted(set(labeled.region_labels) - region_ids)}"
            )
        if not set(labeled.event_labels) <= {EVENT_STAY, EVENT_PASS}:
            violations.append(
                f"sequence {labeled.object_id!r} has unknown event labels"
            )
        timestamps = [record.timestamp for record in labeled.sequence.records]
        if any(b < a for a, b in zip(timestamps, timestamps[1:])):
            violations.append(
                f"sequence {labeled.object_id!r} timestamps go backwards"
            )
    return violations


def oracle_preprocessing(ctx: FuzzContext) -> List[str]:
    """Raw-stream normalisation and split/filter preprocessing behave."""
    violations: List[str] = []
    spec = ctx.spec
    space = ctx.scenario.space

    simulator = spec.mobility.build(space, spec.seed)
    error_model = spec.device._error_model(seed=spec.seed + 1)
    trajectory = simulator.simulate_object(
        "oracle-0", duration=min(spec.duration, 600.0)
    )
    raw = error_model.corrupt_trajectory_raw(trajectory, space)
    if raw is not None:
        normalized = normalize_report_stream(raw)
        if normalize_report_stream(normalized) != normalized:
            violations.append("normalize_report_stream is not idempotent")
        shuffled = list(raw)
        random.Random(0).shuffle(shuffled)
        if normalize_report_stream(shuffled) != normalized:
            violations.append("normalize_report_stream depends on arrival order")
        timestamps = [record.timestamp for record, _, _ in normalized]
        if any(b < a for a, b in zip(timestamps, timestamps[1:])):
            violations.append("normalized stream is not in timestamp order")
        if not spec.device.adversarial and normalized != list(raw):
            violations.append("normalization altered a benign stream")

    once = ctx.sequences
    twice = preprocess(once, max_gap=spec.max_gap, min_duration=spec.min_duration)
    if list(map(_sequence_key, twice)) != list(map(_sequence_key, once)):
        violations.append("preprocess is not idempotent on its own output")
    return violations


def oracle_streaming(ctx: FuzzContext) -> List[str]:
    """``materialize_iter`` equals batch ``materialize`` bitwise."""
    streamed = list(ctx.spec.materialize_iter(ctx.spec.seed, space=ctx.scenario.space))
    batch = ctx.sequences
    if len(streamed) != len(batch):
        return [
            f"streaming produced {len(streamed)} sequences, batch {len(batch)}"
        ]
    for a, b in zip(batch, streamed):
        if _sequence_key(a) != _sequence_key(b):
            return [f"streamed sequence {b.object_id!r} differs from batch"]
    return []


def oracle_backends(ctx: FuzzContext) -> List[str]:
    """Annotator output is bitwise identical across execution backends."""
    sequences = [labeled.sequence for labeled in ctx.sequences]
    if not sequences:
        return []
    annotator = ctx.annotator()
    serial = annotator.predict_labels_many(sequences, policy=ExecutionPolicy.serial())
    violations: List[str] = []
    for backend in ("thread", "process"):
        other = annotator.predict_labels_many(
            sequences, policy=ExecutionPolicy(backend=backend, workers=2)
        )
        if other != serial:
            violations.append(f"{backend} backend disagrees with serial decode")
    return violations


def oracle_queries(ctx: FuzzContext) -> List[str]:
    """Indexed TkPRQ/TkFRPQ answers equal the linear scan."""
    from repro.index.engine import SemanticsIndex
    from repro.queries.tkfrpq import TkFRPQ
    from repro.queries.tkprq import TkPRQ

    semantics = ctx.semantics()
    if not any(semantics):
        return []
    index = SemanticsIndex.from_semantics(semantics)
    start = min(ms.start_time for per_object in semantics for ms in per_object)
    end = max(ms.end_time for per_object in semantics for ms in per_object)
    span = end - start
    some_regions = set(list(ctx.scenario.space.region_ids)[::2])
    intervals = [
        (None, None),
        (start + span * 0.25, start + span * 0.75),
        (start + span * 0.5, start + span * 0.5 + 1.0),
    ]
    violations: List[str] = []
    for lo, hi in intervals:
        for k in (1, 3):
            for regions in (None, some_regions):
                prq = TkPRQ(k, start=lo, end=hi, query_regions=regions)
                if prq.evaluate(index) != prq.evaluate(semantics):
                    violations.append(
                        f"TkPRQ(k={k}, interval=({lo}, {hi}), "
                        f"filtered={regions is not None}) index != scan"
                    )
                frpq = TkFRPQ(k, start=lo, end=hi, query_regions=regions)
                if frpq.evaluate(index) != frpq.evaluate(semantics):
                    violations.append(
                        f"TkFRPQ(k={k}, interval=({lo}, {hi}), "
                        f"filtered={regions is not None}) index != scan"
                    )
    return violations


#: Window of the windowed replay check: small, so sessions slide early.
REPLAY_WINDOW = 8


class _ProtocolOnly:
    """An annotator reduced to the ``Annotator`` surface sessions need, so
    sessions over it re-run ``predict_labels`` on every window."""

    def __init__(self, annotator):
        self.name = annotator.name
        self.is_fitted = annotator.is_fitted
        self.predict_labels = annotator.predict_labels


def oracle_replay(ctx: FuzzContext) -> List[str]:
    """Streamed service output equals the batch decode, and windowed C2MN
    sessions finalize what ``predict_labels`` sessions do."""
    from repro.core.annotator import C2MNAnnotator
    from repro.core.config import C2MNConfig
    from repro.service.replay import replay_scenario
    from repro.service.session import StreamSession
    from repro.service.store import SemanticsStore

    violations: List[str] = []
    _, report = replay_scenario(
        ctx.scenario, annotator=ctx.annotator(), exact=True
    )
    if report.batch_agreement is False:
        violations.append("streamed service output disagrees with the batch decode")

    if not ctx.sequences:
        return violations
    labeled = ctx.sequences[0]
    # A brief fit gives the weights; the check is agreement, not accuracy.
    c2mn = C2MNAnnotator(
        ctx.scenario.space,
        config=C2MNConfig.fast(max_iterations=1, mcmc_samples=2, lbfgs_iterations=1),
    )
    c2mn.fit([labeled])
    windowed, reference = (
        StreamSession(annotator, labeled.object_id, SemanticsStore(), window=REPLAY_WINDOW)
        for annotator in (c2mn, _ProtocolOnly(c2mn))
    )
    agree = all(
        windowed.add(record) == reference.add(record) for record in labeled.sequence
    )
    if not (agree and windowed.finish() == reference.finish()):
        violations.append(
            f"windowed session of {labeled.object_id!r} disagrees with "
            "re-running predict_labels on every window"
        )
    return violations


#: The oracle layer, in the order a fuzz pass runs it.
ORACLES: Dict[str, Oracle] = {
    "topology": oracle_topology,
    "preprocessing": oracle_preprocessing,
    "streaming": oracle_streaming,
    "backends": oracle_backends,
    "queries": oracle_queries,
    "replay": oracle_replay,
}


def check_spec(
    spec: ScenarioSpec,
    *,
    oracle_names: Optional[Sequence[str]] = None,
    extra_oracles: Sequence[Tuple[str, Oracle]] = (),
) -> List[str]:
    """Materialise one spec and run the oracle layer; return all violations.

    An oracle that *raises* is itself a violation — invariants must be
    checkable on every samplable spec.  ``extra_oracles`` lets tests plant
    failures without touching the built-in layer.
    """
    try:
        scenario = spec.materialize()
    except Exception as exc:
        return [f"materialize: raised {exc!r}"]
    ctx = FuzzContext(spec, scenario)
    selected = [
        (name, oracle)
        for name, oracle in ORACLES.items()
        if oracle_names is None or name in oracle_names
    ]
    violations: List[str] = []
    for name, oracle in list(selected) + list(extra_oracles):
        try:
            violations.extend(f"{name}: {message}" for message in oracle(ctx))
        except Exception as exc:
            violations.append(f"{name}: raised {exc!r}")
    return violations


# ==================================================================== sampler
def sample_spec(rng: random.Random, index: int = 0) -> ScenarioSpec:
    """Draw one random scenario spec from the whole composition space.

    Sizes are deliberately small (2–5 objects, 5–15 simulated minutes) so a
    full oracle pass on one spec takes seconds: the fuzzer's power comes
    from breadth across compositions, not from individual scale.
    """
    archetype = rng.choice(sorted(VENUE_ARCHETYPES))
    venue = VenueSpec(archetype, params=_sample_venue_params(rng, archetype))

    duration = rng.uniform(300.0, 900.0)
    profile = rng.choice(sorted(MOBILITY_PROFILES))
    min_stay = rng.uniform(10.0, 30.0)
    max_stay = min_stay + rng.uniform(20.0, 90.0)
    mobility = MobilitySpec(
        profile,
        min_stay=min_stay,
        max_stay=max_stay,
        params=_sample_mobility_params(rng, profile, duration),
    )

    device = DeviceSpec(
        max_period=rng.uniform(4.0, 9.0),
        error=rng.uniform(1.0, 5.0),
        dropout_probability=rng.uniform(0.02, 0.1) if rng.random() < 0.3 else 0.0,
        multipath_probability=rng.uniform(0.05, 0.3) if rng.random() < 0.4 else 0.0,
        clock_skew=rng.uniform(1.0, 8.0) if rng.random() < 0.4 else 0.0,
        clock_jitter=rng.uniform(1.0, 6.0) if rng.random() < 0.4 else 0.0,
        duplicate_probability=rng.uniform(0.05, 0.2) if rng.random() < 0.4 else 0.0,
    )

    return ScenarioSpec(
        name=f"fuzz-{index:04d}",
        venue=venue,
        mobility=mobility,
        device=device,
        objects=rng.randint(2, 5),
        duration=duration,
        max_gap=rng.uniform(120.0, 240.0),
        min_duration=rng.uniform(30.0, 90.0),
        seed=rng.randrange(1, 2**31),
        tags=("fuzz",),
    )


def _sample_venue_params(rng: random.Random, archetype: str) -> Dict[str, Any]:
    if archetype == "mall":
        return {"floors": rng.randint(1, 2), "shops_per_side": rng.randint(2, 4)}
    if archetype == "office":
        return {
            "floors": rng.randint(1, 2),
            "rooms_per_side": rng.randint(3, 5),
            "seed": rng.randint(1, 100),
        }
    if archetype == "concourse":
        return {"halls": rng.randint(2, 3), "bays_per_hall": rng.randint(2, 4)}
    if archetype == "airport":
        return {"concourses": rng.randint(1, 2), "gates_per_side": rng.randint(1, 3)}
    if archetype == "hospital":
        return {
            "floors": rng.randint(1, 2),
            "wards_per_side": rng.randint(2, 4),
            "interlinked": rng.random() < 0.8,
        }
    if archetype == "stadium":
        return {"floors": rng.randint(1, 2), "sections_per_side": rng.randint(1, 2)}
    if archetype == "tower":
        return {
            "floors": rng.randint(2, 4),
            "suites_per_side": rng.randint(1, 2),
            "sky_lobby_every": rng.randint(2, 3),
        }
    raise ValueError(f"sampler does not know archetype {archetype!r}")


def _sample_mobility_params(
    rng: random.Random, profile: str, duration: float
) -> Dict[str, Any]:
    if profile == "surge":
        start = rng.uniform(0.0, duration * 0.5)
        end = start + rng.uniform(60.0, duration * 0.4)
        return {
            "surges": ((start, end),),
            "surge_affinity": rng.uniform(0.6, 0.95),
            "epicentres_per_surge": rng.randint(1, 2),
        }
    if profile == "crowd" and rng.random() < 0.5:
        start = rng.uniform(0.0, duration * 0.5)
        return {"peak_start": start, "peak_end": start + rng.uniform(60.0, duration * 0.4)}
    if profile == "commuter":
        return {"anchor_count": rng.randint(1, 3)}
    return {}


# ============================================================== serialisation
def _tupleize(value: Any) -> Any:
    """JSON arrays → tuples, recursively (spec params must stay hashable)."""
    if isinstance(value, (list, tuple)):
        return tuple(_tupleize(item) for item in value)
    return value


def spec_to_dict(spec: ScenarioSpec) -> Dict[str, Any]:
    """A JSON-serialisable description that round-trips via :func:`spec_from_dict`."""
    return {
        "name": spec.name,
        "venue": {"archetype": spec.venue.archetype, "params": dict(spec.venue.params)},
        "mobility": {
            "profile": spec.mobility.profile,
            "min_stay": spec.mobility.min_stay,
            "max_stay": spec.mobility.max_stay,
            "params": dict(spec.mobility.params),
        },
        "device": {
            "max_period": spec.device.max_period,
            "error": spec.device.error,
            "false_floor_probability": spec.device.false_floor_probability,
            "outlier_probability": spec.device.outlier_probability,
            "dropout_probability": spec.device.dropout_probability,
            "dropout_duration": list(spec.device.dropout_duration),
            "multipath_probability": spec.device.multipath_probability,
            "multipath_scale": spec.device.multipath_scale,
            "clock_skew": spec.device.clock_skew,
            "clock_jitter": spec.device.clock_jitter,
            "duplicate_probability": spec.device.duplicate_probability,
            "duplicate_delay": spec.device.duplicate_delay,
        },
        "objects": spec.objects,
        "duration": spec.duration,
        "max_gap": spec.max_gap,
        "min_duration": spec.min_duration,
        "seed": spec.seed,
        "tags": list(spec.tags),
    }


def spec_from_dict(data: Mapping[str, Any]) -> ScenarioSpec:
    """Rebuild a spec from :func:`spec_to_dict` output (e.g. a fuzz artifact)."""
    venue = data["venue"]
    mobility = data["mobility"]
    device = dict(data["device"])
    device["dropout_duration"] = _tupleize(device["dropout_duration"])
    return ScenarioSpec(
        name=data["name"],
        venue=VenueSpec(
            venue["archetype"],
            params={key: _tupleize(value) for key, value in venue["params"].items()},
        ),
        mobility=MobilitySpec(
            mobility["profile"],
            min_stay=mobility["min_stay"],
            max_stay=mobility["max_stay"],
            params={key: _tupleize(value) for key, value in mobility["params"].items()},
        ),
        device=DeviceSpec(**device),
        objects=data["objects"],
        duration=data["duration"],
        max_gap=data["max_gap"],
        min_duration=data["min_duration"],
        seed=data["seed"],
        tags=tuple(data.get("tags", ())),
    )


# =================================================================== shrinking
_MINIMAL_VENUE = ("mall", (("floors", 1), ("shops_per_side", 2)))


def _shrink_candidates(spec: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Single-mutation reductions of ``spec``, most aggressive first."""
    if spec.objects > 1:
        half = max(1, spec.objects // 2)
        if half < spec.objects:
            yield replace(spec, objects=half)
        yield replace(spec, objects=spec.objects - 1)
    if spec.duration > 320.0:
        yield replace(spec, duration=max(300.0, spec.duration / 2.0))
    device = spec.device
    for zeroed in (
        {"multipath_probability": 0.0},
        {"clock_skew": 0.0},
        {"clock_jitter": 0.0},
        {"duplicate_probability": 0.0},
        {"dropout_probability": 0.0},
    ):
        name, value = next(iter(zeroed.items()))
        if getattr(device, name) != value:
            yield replace(spec, device=replace(device, **zeroed))
    mobility = spec.mobility
    if mobility.profile != "waypoint" or mobility.params:
        yield replace(
            spec,
            mobility=MobilitySpec(
                "waypoint", min_stay=mobility.min_stay, max_stay=mobility.max_stay
            ),
        )
    if mobility.max_stay - mobility.min_stay > 30.0:
        yield replace(
            spec, mobility=replace(mobility, max_stay=mobility.min_stay + 20.0)
        )
    minimal_archetype, minimal_params = _MINIMAL_VENUE
    if spec.venue.archetype != minimal_archetype or spec.venue.params != minimal_params:
        yield replace(spec, venue=VenueSpec(minimal_archetype, params=minimal_params))


def shrink_spec(
    spec: ScenarioSpec,
    still_failing: Callable[[ScenarioSpec], bool],
    *,
    max_rounds: int = 50,
) -> ScenarioSpec:
    """Greedy descent to a locally minimal spec that still fails.

    Each round tries the single-mutation candidates in order and restarts
    from the first one that keeps failing; the result is minimal in the
    sense that *no* single mutation preserves the failure.  ``max_rounds``
    bounds pathological oracles (each accepted mutation strictly shrinks
    the spec, so real runs converge long before the cap).
    """
    current = spec
    for _ in range(max_rounds):
        for candidate in _shrink_candidates(current):
            if still_failing(candidate):
                current = candidate
                break
        else:
            return current
    return current


# ===================================================================== runner
@dataclass
class FuzzResult:
    """The verdict on one sampled spec."""

    name: str
    spec: Dict[str, Any]
    violations: List[str]
    elapsed_seconds: float
    shrunk: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "ok": self.ok,
            "violations": self.violations,
            "elapsed_seconds": self.elapsed_seconds,
            "spec": self.spec,
            "shrunk": self.shrunk,
        }


@dataclass
class FuzzReport:
    """One full fuzz run: every sampled spec and its verdict."""

    seed: int
    requested: int
    results: List[FuzzResult] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def executed(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> List[FuzzResult]:
        return [result for result in self.results if not result.ok]

    @property
    def ok(self) -> bool:
        return self.executed > 0 and not self.failures

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "requested": self.requested,
            "executed": self.executed,
            "ok": self.ok,
            "elapsed_seconds": self.elapsed_seconds,
            "failures": [result.to_dict() for result in self.failures],
            "results": [result.to_dict() for result in self.results],
        }


def run_fuzz(
    count: int,
    seed: int,
    *,
    oracle_names: Optional[Sequence[str]] = None,
    extra_oracles: Sequence[Tuple[str, Oracle]] = (),
    shrink: bool = True,
    time_budget: Optional[float] = None,
    progress: Optional[Callable[[FuzzResult], None]] = None,
) -> FuzzReport:
    """Sample and check ``count`` specs from ``seed``; shrink any failures.

    ``time_budget`` (seconds) stops sampling early once exceeded — the
    nightly job is time-boxed, not count-boxed.  The sample stream depends
    only on ``seed``, so ``(count, seed)`` pins an exact corpus and any
    failure reproduces from the artifact's spec dict alone.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = random.Random(seed)
    report = FuzzReport(seed=seed, requested=count)
    started = time.perf_counter()
    for index in range(count):
        if time_budget is not None and time.perf_counter() - started > time_budget:
            break
        spec = sample_spec(rng, index)
        spec_started = time.perf_counter()
        violations = check_spec(
            spec, oracle_names=oracle_names, extra_oracles=extra_oracles
        )
        result = FuzzResult(
            name=spec.name,
            spec=spec_to_dict(spec),
            violations=violations,
            elapsed_seconds=time.perf_counter() - spec_started,
        )
        if violations and shrink:

            def still_failing(candidate: ScenarioSpec) -> bool:
                return bool(
                    check_spec(
                        candidate,
                        oracle_names=oracle_names,
                        extra_oracles=extra_oracles,
                    )
                )

            result.shrunk = spec_to_dict(shrink_spec(spec, still_failing))
        report.results.append(result)
        if progress is not None:
            progress(result)
    report.elapsed_seconds = time.perf_counter() - started
    return report
