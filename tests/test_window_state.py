"""The append-only window state of stream sessions equals a fresh decode.

A C2MN :class:`~repro.service.session.StreamSession` prepares and tabulates
each record once (:class:`repro.crf.window.WindowState`) and assembles every
decode window from retained rows.  These tests pin, at every decode a
session runs, the assembled data to a fresh ``annotator.prepare(window)``
plus ``engine.tables(...)`` — lists equal, table arrays equal byte for
byte, ``None`` where a clique category is off — and its labels to
``predict_labels(window)``.  Every session's finalized and flushed
m-semantics must equal those of a session over a ``predict_labels``-only
annotator, and :class:`repro.clustering.StreamDensity` must equal
``STDBSCAN.density_labels`` of every window (a hypothesis property).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering import STDBSCAN, StreamDensity
from repro.core.variants import make_variant
from repro.geometry.point import IndoorPoint
from repro.mobility.records import PositioningRecord, PositioningSequence
from repro.service import SemanticsStore, StreamSession

#: Records streamed per object: past the largest window, so every window
#: size slides.
STREAM_PREFIX = 64

#: (window, exact) of every checked session: sliding windows, and an exact
#: session, whose window never slides.
WINDOWS = [(8, False), (16, False), (48, False), (48, True)]

#: (variant, engine, window, exact) of every checked session: each clique
#: variant at every window, and the reference engine, which ignores tables.
SESSIONS = [
    (variant, "vectorized", window, exact)
    for variant in ("C2MN", "CMN", "C2MN/Tran", "C2MN/Syn")
    for window, exact in WINDOWS
] + [("C2MN", "reference", 8, False), ("C2MN", "reference", 48, True)]

#: ``SequenceData`` fields a fresh ``prepare`` fills, compared with ``==``.
DATA_FIELDS = (
    "density_labels",
    "candidates",
    "nearest_regions",
    "planar_steps",
    "elapsed_steps",
    "speeds",
    "turn_flags",
    "true_regions",
    "true_events",
    "fsm_cache",
)


def _same_arrays(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _fresh_tables(annotator, data):
    """``engine.tables`` of a fresh window; the reference engine has none,
    so its tables come from the extractor call the vectorized engine makes."""
    engine = annotator.engine
    if hasattr(engine, "tables"):
        return engine.tables(data)
    model = annotator.model
    return model.extractor.potential_tables(
        data,
        layout=model.layout,
        transition=model.templates.transition,
        synchronization=model.templates.synchronization,
    )


def assert_same_window(annotator, data, window):
    """The state's assembled ``data`` equals a fresh prepare + tables."""
    fresh = annotator.prepare(window)
    assert data.sequence.records == fresh.sequence.records
    assert data.sequence.object_id == fresh.sequence.object_id
    for name in DATA_FIELDS:
        assert getattr(data, name) == getattr(fresh, name), name
    kept, tables = data.potentials, _fresh_tables(annotator, fresh)
    assert kept.candidate_ids == tables.candidate_ids
    assert kept.candidate_pos == tables.candidate_pos
    assert kept.segment_stats == tables.segment_stats == {}
    _same_arrays(kept.region_base, tables.region_base)
    _same_arrays(kept.event_base, tables.event_base)
    for name in ("fst", "fsc", "fec"):
        if getattr(tables, name) is None:
            assert getattr(kept, name) is None, name
        else:
            _same_arrays(getattr(kept, name), getattr(tables, name))


class CheckedState:
    """A window state that checks every decode against a fresh one."""

    def __init__(self, annotator, state, object_id, decodes):
        self._annotator = annotator
        self._state = state
        self._object_id = object_id
        self._records = []
        self._decodes = decodes

    def append(self, record):
        self._records.append(record)
        self._state.append(record)

    def decode(self, start):
        window = PositioningSequence(
            self._records[start:], object_id=self._object_id, sort=False
        )
        assert_same_window(self._annotator, self._state.sequence_data(start), window)
        labels = self._state.decode(start)
        assert labels == self._annotator.predict_labels(window)
        self._decodes.append(len(window))
        return labels


class CheckedAnnotator:
    """An annotator whose sessions' window states check every decode."""

    def __init__(self, annotator):
        self._annotator = annotator
        self.name = annotator.name
        self.decodes = []

    @property
    def is_fitted(self):
        return self._annotator.is_fitted

    def predict_labels(self, sequence):
        return self._annotator.predict_labels(sequence)

    def window_state(self, object_id):
        return CheckedState(
            self._annotator,
            self._annotator.window_state(object_id),
            object_id,
            self.decodes,
        )


class ProtocolOnly:
    """The ``Annotator`` protocol surface alone: sessions re-run
    ``predict_labels`` on every window."""

    def __init__(self, annotator):
        self._annotator = annotator
        self.name = annotator.name

    @property
    def is_fitted(self):
        return self._annotator.is_fitted

    def predict_labels(self, sequence):
        return self._annotator.predict_labels(sequence)


@pytest.fixture(scope="module")
def streams(scenario_cache):
    """Per scenario: its venue and the longest object's first records."""
    result = {}
    for name in ("mall-tiny", "tower-shift-change"):
        scenario = scenario_cache(name)
        longest = max(
            (labeled.sequence for labeled in scenario.dataset.sequences), key=len
        )
        prefix = PositioningSequence(
            list(longest)[:STREAM_PREFIX], object_id=longest.object_id, sort=False
        )
        result[name] = (scenario.space, prefix)
    return result


@pytest.mark.parametrize("scenario", ["mall-tiny", "tower-shift-change"])
@pytest.mark.parametrize(
    "variant,engine,window,exact",
    SESSIONS,
    ids=[f"{v}-{e}-w{w}{'-exact' if x else ''}" for v, e, w, x in SESSIONS],
)
def test_every_decode_equals_a_fresh_window(
    streams, fitted_annotator, fast_config, scenario, variant, engine, window, exact
):
    space, sequence = streams[scenario]
    config = fast_config.with_engine(engine)
    # One annotator per session, so neither warms the other's caches.
    # Weight vectors share one layout across variants and venues; agreement
    # needs weights, not a fit on this venue.
    annotators = [make_variant(variant, space, config=config) for _ in range(2)]
    for annotator in annotators:
        annotator._restore_weights(fitted_annotator.weights)
    checked = CheckedAnnotator(annotators[0])
    sessions = [
        StreamSession(
            wrapper, sequence.object_id, SemanticsStore(), window=window, exact=exact
        )
        for wrapper in (checked, ProtocolOnly(annotators[1]))
    ]
    assert sessions[0]._state is not None and sessions[1]._state is None
    for record in sequence:
        assert sessions[0].add(record) == sessions[1].add(record)
    assert sessions[0].finish() == sessions[1].finish()
    assert sessions[0]._state is None  # released on finish

    # One checked decode per record; windowed sessions slid past the start.
    assert len(checked.decodes) == len(sequence)
    expected = len(sequence) if exact else min(window, len(sequence))
    assert checked.decodes[-1] == expected
    assert sessions[0].decode_count == sessions[1].decode_count == len(sequence)


def test_state_rejects_out_of_order_input(fitted_annotator, streams):
    _, sequence = streams["mall-tiny"]
    records = list(sequence)[:10]
    state = fitted_annotator.window_state(sequence.object_id)
    for record in records:
        state.append(record)
    state.decode(4)
    assert len(state) == 6  # rows left of the window start are gone
    with pytest.raises(ValueError):
        state.decode(3)
    with pytest.raises(ValueError):
        state.append(records[0])  # older than the newest record


# ------------------------------------------------------------ density rule
_STEPS = st.one_of(
    st.just(0.0),  # tied timestamps
    st.just(60.0),  # exactly εt: still neighbours
    st.floats(min_value=0.5, max_value=30.0),
    st.floats(min_value=61.0, max_value=200.0),  # gaps longer than εt
)
_MOVES = st.one_of(
    st.just((0.0, 0.0)),  # repeated positions
    st.just((8.0, 0.0)),  # exactly εs: still neighbours
    st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
    st.tuples(st.floats(-30.0, 30.0), st.floats(-30.0, 30.0)),
)


@settings(max_examples=120, deadline=None)
@given(
    steps=st.lists(st.tuples(_STEPS, _MOVES, st.integers(0, 3)), min_size=1, max_size=40),
    min_points=st.integers(1, 5),
)
def test_stream_density_equals_stdbscan_of_every_window(steps, min_points):
    clusterer = STDBSCAN(eps_spatial=8.0, eps_temporal=60.0, min_points=min_points)
    density = StreamDensity(clusterer)
    records = []
    t, x, y, start = 0.0, 0.0, 0.0, 0
    for dt, (dx, dy), advance in steps:
        t, x, y = t + dt, x + dx, y + dy
        record = PositioningRecord(location=IndoorPoint(x, y, 0), timestamp=t)
        records.append(record)
        density.append(record)
        start = min(start + advance, len(records) - 1)
        assert density.labels(start) == clusterer.density_labels(records[start:])
    assert len(density) == len(records) - start
