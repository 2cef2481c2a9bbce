"""Traced stand-ins for the program's public layers.

Each wraps public calls in spans of a :class:`tracing.Tracer`.  A traced
``predict_labels`` runs the public stages ``C2MNAnnotator.predict_labels``
runs -- ``prepare``, the engine's potential ``tables``, then
``decode_icm`` -- so its labels are bitwise the same; the engine proxy
handed to ``decode_icm`` counts ``best_label`` calls.  Import this module
only after :func:`common.import_program`.
"""

from __future__ import annotations

from repro.core.merge import merge_record_labels
from repro.crf.inference import decode_icm
from repro.service.service import AnnotationService
from repro.service.store import SemanticsStore


class CountingEngine:
    """An inference-engine proxy that counts ``best_label`` calls."""

    def __init__(self, engine):
        self._engine = engine
        self.calls = 0

    @property
    def extractor(self):
        return self._engine.extractor

    def best_label(self, data, regions, events, index, variable):
        self.calls += 1
        return self._engine.best_label(data, regions, events, index, variable)


def traced_predict_labels(annotator, sequence, tracer):
    """``annotator.predict_labels`` as its public stages, each a span."""
    with tracer.span("crf.prepare", records=len(sequence)):
        data = annotator.prepare(sequence)
    with tracer.span("crf.tables"):
        annotator.engine.tables(data)
    engine = CountingEngine(annotator.engine)
    with tracer.span("crf.icm", nodes=len(data)) as span:
        labels = decode_icm(engine, data)
        span["counts"]["best_label_calls"] = engine.calls
    return labels


def traced_annotate(annotator, sequence, tracer):
    """``annotator.annotate``: the traced stages, then the merge."""
    regions, events = traced_predict_labels(annotator, sequence, tracer)
    with tracer.span("core.merge"):
        return merge_record_labels(sequence, regions, events)


class TracedAnnotator:
    """The annotator surface stream sessions use, with traced stages."""

    def __init__(self, annotator, tracer):
        self._annotator = annotator
        self._tracer = tracer
        self.name = annotator.name

    @property
    def is_fitted(self) -> bool:
        return self._annotator.is_fitted

    def predict_labels(self, sequence):
        return traced_predict_labels(self._annotator, sequence, self._tracer)


class TracedStore(SemanticsStore):
    """A semantics store whose publishes are spans."""

    def __init__(self, tracer):
        super().__init__()
        self._tracer = tracer

    def publish(self, object_id, semantics):
        entries = list(semantics)
        with self._tracer.span("service.store.publish", entries=len(entries)):
            super().publish(object_id, entries)


class TracedSession:
    """A stream session whose record pushes are spans."""

    def __init__(self, session, tracer):
        self._session = session
        self._tracer = tracer

    @property
    def record_count(self) -> int:
        return self._session.record_count

    def extend(self, records):
        records = list(records)
        with self._tracer.span("service.session", records=len(records)):
            return self._session.extend(records)

    def finish(self):
        return self._session.finish()


class TracedService(AnnotationService):
    """An annotation service over a traced annotator, store and sessions.

    The HTTP server reaches sessions only through :meth:`get_session`, so
    wrapping what it returns traces every push and finish it serves.
    """

    def __init__(self, annotator, tracer, **kwargs):
        super().__init__(
            TracedAnnotator(annotator, tracer), store=TracedStore(tracer), **kwargs
        )
        self._tracer = tracer

    def get_session(self, object_id):
        session = super().get_session(object_id)
        return None if session is None else TracedSession(session, self._tracer)
