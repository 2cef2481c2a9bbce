"""Scenario replay: stress the streaming service with catalogue workloads.

:func:`replay_scenario` materialises a registered scenario, fits (or
accepts) an annotator, and then replays the scenario's test traffic through
an :class:`~repro.service.service.AnnotationService` the way production
would see it: the records of *all* objects are interleaved in global
timestamp order and pushed one at a time into per-object
:class:`~repro.service.session.StreamSession` streams.  The returned
:class:`ReplayReport` carries the throughput and decode counters; with
``exact=True`` it also checks that everything the streams published equals
the batch ``annotate`` output, making the replay a correctness stress and
not just a load generator.

This is the service-layer entry of the scenario subsystem: the same named
workloads that drive the evaluation harness exercise the sliding-window
decode path here.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

from typing import Union

from repro.core.protocol import Annotator
from repro.mobility.dataset import train_test_split
from repro.mobility.records import PositioningRecord
from repro.scenarios import materialize
from repro.scenarios.spec import Scenario
from repro.service.service import AnnotationService


@dataclass
class ReplayReport:
    """What one scenario replay did and how fast it went."""

    scenario: str
    seed: int
    objects: int
    records: int
    decodes: int
    published: int
    elapsed_seconds: float
    window: int
    exact: bool
    #: Only set for ``exact=True`` replays: streamed output == batch output.
    batch_agreement: Optional[bool] = None

    @property
    def records_per_second(self) -> float:
        return self.records / self.elapsed_seconds if self.elapsed_seconds > 0 else 0.0

    def row(self) -> Dict[str, object]:
        """A flat dict row: the fields in declaration order, then the
        derived ``records_per_second``."""
        row: Dict[str, object] = asdict(self)
        row["records_per_second"] = self.records_per_second
        return row


def interleaved_records(sequences) -> List[Tuple[str, PositioningRecord]]:
    """All (object_id, record) pairs in global timestamp order.

    Ties break on object id so the replay order — and therefore every decode
    the sessions run — is deterministic.
    """
    feed: List[Tuple[float, str, PositioningRecord]] = []
    for labeled in sequences:
        for record in labeled.sequence:
            feed.append((record.timestamp, labeled.object_id, record))
    feed.sort(key=lambda item: (item[0], item[1]))
    return [(object_id, record) for _, object_id, record in feed]


def replay_scenario(
    scenario: Union[str, Scenario],
    *,
    annotator: Optional[Annotator] = None,
    seed: Optional[int] = None,
    window: int = AnnotationService.DEFAULT_WINDOW,
    guard: Optional[int] = None,
    exact: bool = False,
    train_fraction: float = 0.5,
    split_seed: int = 5,
    fit_config=None,
) -> Tuple[AnnotationService, ReplayReport]:
    """Replay a scenario's traffic through streaming sessions.

    ``scenario`` is either the name of a registered scenario or an
    already-materialised :class:`~repro.scenarios.spec.Scenario` (the fuzzer
    replays unregistered sampled specs this way; passing ``seed`` alongside
    a Scenario re-materialises its spec at that seed).  When ``annotator``
    is omitted, a fast C2MN is fitted on the train half of the materialised
    dataset; either way the *test* half is replayed.  Returns the service
    (store included, live queries ready) and the :class:`ReplayReport`.
    """
    if isinstance(scenario, Scenario):
        materialised = (
            scenario
            if seed is None or seed == scenario.seed
            else scenario.spec.materialize(seed)
        )
    else:
        materialised = materialize(scenario, seed)
    train, test = train_test_split(
        materialised.dataset, train_fraction=train_fraction, seed=split_seed
    )
    if annotator is None:
        from repro.core.annotator import C2MNAnnotator
        from repro.core.config import C2MNConfig

        config = fit_config if fit_config is not None else C2MNConfig.fast(
            max_iterations=3, mcmc_samples=6, lbfgs_iterations=4
        )
        annotator = C2MNAnnotator(materialised.space, config=config)
        annotator.fit(train.sequences)

    service = AnnotationService(annotator, window=window, guard=guard)
    feed = interleaved_records(test.sequences)

    sessions: Dict[str, object] = {}
    started = time.perf_counter()
    for object_id, record in feed:
        session = sessions.get(object_id)
        if session is None:
            session = service.session(object_id, exact=exact, keep_history=exact)
            sessions[object_id] = session
        session.add(record)
    decodes = sum(session.decode_count for session in sessions.values())
    service.finish_all()
    elapsed = time.perf_counter() - started

    published = sum(
        len(service.store.semantics_for(labeled.object_id))
        for labeled in test.sequences
    )

    batch_agreement: Optional[bool] = None
    if exact:
        batch = annotator.annotate_many(
            [labeled.sequence for labeled in test.sequences]
        )
        streamed = [
            service.store.semantics_for(labeled.object_id)
            for labeled in test.sequences
        ]
        batch_agreement = streamed == batch

    report = ReplayReport(
        scenario=materialised.name,
        seed=materialised.seed,
        objects=len(test.sequences),
        records=len(feed),
        decodes=decodes,
        published=published,
        elapsed_seconds=elapsed,
        window=window,
        exact=exact,
        batch_agreement=batch_agreement,
    )
    return service, report
