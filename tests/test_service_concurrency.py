"""Threaded stress tests of the service layer's mutation paths.

The HTTP front door calls the service from a thread pool, so session
registry churn, batch publishes and store queries all race.  These tests
hammer those paths from real threads and assert the invariants the service
lock is meant to protect: no lost or duplicated publishes, stream order per
session, idempotent finish.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.mobility.records import LabeledSequence, PositioningSequence
from repro.service.service import AnnotationService


#: Records each streamed session takes: past the service's 48-record window,
#: so every session still slides it, without decoding the whole sequence.
CHURN_PREFIX = 64


def _prefix(labeled):
    """The first ``CHURN_PREFIX`` records of a labeled sequence."""
    return LabeledSequence(
        PositioningSequence(
            list(labeled.sequence)[:CHURN_PREFIX], object_id=labeled.object_id, sort=False
        ),
        labeled.region_labels[:CHURN_PREFIX],
        labeled.event_labels[:CHURN_PREFIX],
    )


def _reference_store(annotator, sequences):
    """Serial replay of ``sequences``; returns {object_id: semantics}."""
    service = AnnotationService(annotator)
    for labeled in sequences:
        session = service.session(labeled.object_id)
        session.extend(list(labeled.sequence))
        session.finish()
    return {
        labeled.object_id: service.store.semantics_for(labeled.object_id)
        for labeled in sequences
    }


def test_concurrent_mixed_workload_matches_serial(fitted_annotator, small_split):
    _, test = small_split
    sequences = [_prefix(labeled) for labeled in test.sequences]
    reference = _reference_store(fitted_annotator, sequences)
    service = AnnotationService(fitted_annotator)
    errors = []
    barrier = threading.Barrier(len(sequences) + 2)

    def stream_worker(labeled):
        try:
            barrier.wait(timeout=30)
            session = service.session(labeled.object_id)
            for record in labeled.sequence:
                session.add(record)
            session.finish()
        except Exception as error:  # noqa: BLE001 — collected for the assert
            errors.append(error)

    def batch_worker():
        try:
            barrier.wait(timeout=30)
            for round_id in range(3):
                # Distinct ids per publish: re-publishing an id would
                # (correctly) violate the store's per-object time order.
                renamed = [
                    PositioningSequence(
                        list(labeled.sequence),
                        object_id=f"{labeled.object_id}/batch{round_id}",
                        sort=False,
                    )
                    for labeled in sequences[:1]
                ]
                service.annotate_batch(renamed)
                service.query_popular_regions(5)
        except Exception as error:  # noqa: BLE001
            errors.append(error)

    def query_worker():
        try:
            barrier.wait(timeout=30)
            for _ in range(10):
                service.query_popular_regions(3)
                service.query_frequent_pairs(3)
                service.live_sessions()
                len(service.store)
        except Exception as error:  # noqa: BLE001
            errors.append(error)

    with ThreadPoolExecutor(max_workers=len(sequences) + 2) as pool:
        for labeled in sequences:
            pool.submit(stream_worker, labeled)
        pool.submit(batch_worker)
        pool.submit(query_worker)

    assert errors == []
    assert service.live_sessions() == []
    for labeled in sequences:
        assert service.store.semantics_for(labeled.object_id) == (
            reference[labeled.object_id]
        )


def test_concurrent_finish_is_idempotent(fitted_annotator, small_split):
    _, test = small_split
    labeled = test.sequences[0]
    reference = _reference_store(fitted_annotator, [labeled])[labeled.object_id]

    service = AnnotationService(fitted_annotator)
    session = service.session(labeled.object_id)
    session.extend(list(labeled.sequence))

    flushes = []
    barrier = threading.Barrier(8)

    def finisher():
        barrier.wait(timeout=30)
        flushes.append(session.finish())

    threads = [threading.Thread(target=finisher) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)

    # Exactly one finish wins; the rest flush nothing, nothing is duplicated.
    non_empty = [flush for flush in flushes if flush]
    assert len(non_empty) <= 1
    assert service.store.semantics_for(labeled.object_id) == reference
    assert service.get_session(labeled.object_id) is None


def test_concurrent_finish_all_races_http_style_finishes(
    fitted_annotator, small_split
):
    _, test = small_split
    sequences = [_prefix(labeled) for labeled in test.sequences]
    reference = _reference_store(fitted_annotator, sequences)

    service = AnnotationService(fitted_annotator)
    sessions = {}
    for labeled in sequences:
        session = service.session(labeled.object_id)
        session.extend(list(labeled.sequence))
        sessions[labeled.object_id] = session

    barrier = threading.Barrier(len(sequences) + 1)
    errors = []

    def finish_one(object_id):
        try:
            barrier.wait(timeout=30)
            sessions[object_id].finish()
        except Exception as error:  # noqa: BLE001
            errors.append(error)

    def drain_all():
        try:
            barrier.wait(timeout=30)
            service.finish_all()
        except Exception as error:  # noqa: BLE001
            errors.append(error)

    threads = [
        threading.Thread(target=finish_one, args=(labeled.object_id,))
        for labeled in sequences
    ] + [threading.Thread(target=drain_all)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)

    assert errors == []
    assert service.live_sessions() == []
    for labeled in sequences:
        assert service.store.semantics_for(labeled.object_id) == (
            reference[labeled.object_id]
        )


def test_session_registry_churn_under_threads(fitted_annotator, small_split):
    _, test = small_split
    labeled = _prefix(test.sequences[0])
    assert len(labeled) > AnnotationService.DEFAULT_WINDOW
    service = AnnotationService(fitted_annotator)
    errors = []

    def churn(worker: int):
        try:
            for round_id in range(5):
                object_id = f"churn-{worker}-{round_id}"
                session = service.session(object_id)
                session.extend(list(labeled.sequence))
                assert service.get_session(object_id) is session
                session.finish()
                assert service.get_session(object_id) is None
        except Exception as error:  # noqa: BLE001
            errors.append(error)

    with ThreadPoolExecutor(max_workers=6) as pool:
        for worker in range(6):
            pool.submit(churn, worker)

    assert errors == []
    assert service.live_sessions() == []
    # Every churned object published exactly one stream's worth of semantics.
    reference = _reference_store(fitted_annotator, [labeled])[labeled.object_id]
    assert reference
    for worker in range(6):
        for round_id in range(5):
            assert service.store.semantics_for(f"churn-{worker}-{round_id}") == (
                reference
            )
