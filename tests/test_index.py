"""Tests of the semantic-region index: engine, planner, store/service wiring.

The central contract — indexed TkPRQ/TkFRPQ answers are bit-identical to
the linear scan — is asserted over the whole scenario catalogue and over
hand-built edge cases (empty inputs, open-ended intervals, region filters,
ties at rank k, degenerate intervals), under concurrent publishing, and by a
hypothesis property over random publish/clear/query interleavings against an
index rebuilt from scratch.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics.behaviour import (
    conversion_rates,
    region_transition_counts,
    top_transitions,
)
from repro.evaluation.harness import ground_truth_semantics
from repro.index import QueryPlan, SemanticsIndex, plan_query, resolve_index
from repro.mobility.records import EVENT_PASS, EVENT_STAY, MSemantics
from repro.queries import TkFRPQ, TkPRQ, count_region_pairs
from repro.scenarios import materialize, scenario_names
from repro.service.store import SemanticsStore


def _stay(region, start, end):
    return MSemantics(region_id=region, start_time=start, end_time=end, event=EVENT_STAY)


def _pass(region, start, end):
    return MSemantics(region_id=region, start_time=start, end_time=end, event=EVENT_PASS)


@pytest.fixture()
def objects():
    """Three objects with known stay patterns (mirrors test_queries.py)."""
    return [
        [_stay(1, 0, 100), _pass(2, 100, 110), _stay(3, 110, 200)],
        [_stay(1, 0, 50), _stay(2, 60, 120)],
        [_stay(1, 300, 400), _stay(3, 420, 500), _stay(2, 510, 600)],
    ]


#: Query shapes exercising every planner-relevant case.
QUERY_SHAPES = [
    dict(),
    dict(start=0.0, end=150.0),
    dict(start=None, end=150.0),
    dict(start=150.0, end=None),
    dict(query_regions={1, 3}),
    dict(start=50.0, end=450.0, query_regions={1, 2}),
    dict(query_regions={99}),
    dict(start=1e9, end=2e9),
]


def _assert_equivalent(semantics_per_object, index, ks=(1, 2, 3, 10)):
    for shape in QUERY_SHAPES:
        for k in ks:
            prq = TkPRQ(k, **shape)
            frpq = TkFRPQ(k, **shape)
            assert prq.evaluate(index) == prq.evaluate(semantics_per_object), shape
            assert frpq.evaluate(index) == frpq.evaluate(semantics_per_object), shape


# --------------------------------------------------------------------------
# Engine
# --------------------------------------------------------------------------
class TestSemanticsIndex:
    def test_equivalence_on_handbuilt_objects(self, objects):
        index = SemanticsIndex.from_semantics(objects)
        _assert_equivalent(objects, index)

    def test_empty_index(self):
        index = SemanticsIndex()
        assert TkPRQ(3).evaluate(index) == []
        assert TkFRPQ(3).evaluate(index) == []
        assert index.stats() == {"regions": 0, "objects": 0, "postings": 0, "entries": 0}

    def test_stats_count_stays_and_passes(self, objects):
        index = SemanticsIndex.from_semantics(objects)
        stats = index.stats()
        assert stats["entries"] == 8
        assert stats["postings"] == 7  # the pass entry does not become a posting
        assert stats["regions"] == 3
        assert stats["objects"] == 3

    def test_incremental_add_matches_bulk_build(self, objects):
        bulk = SemanticsIndex.from_semantics(objects)
        incremental = SemanticsIndex()
        for position, entries in enumerate(objects):
            # Split each object's publish into two instalments.
            incremental.add(f"object-{position}", entries[:1])
            incremental.add(f"object-{position}", entries[1:])
        for shape in QUERY_SHAPES:
            prq = TkPRQ(2, **shape)
            assert prq.evaluate(incremental) == prq.evaluate(bulk)
            frpq = TkFRPQ(2, **shape)
            assert frpq.evaluate(incremental) == frpq.evaluate(bulk)

    def test_queries_interleaved_with_adds_invalidate_caches(self, objects):
        index = SemanticsIndex()
        rolling = []
        for position, entries in enumerate(objects):
            index.add(f"object-{position}", entries)
            rolling.append(entries)
            _assert_equivalent(rolling, index, ks=(2,))

    def test_ties_at_rank_k_break_identically(self):
        # Four regions with visit counts 2, 2, 2, 1: k=2 must pick the two
        # smallest region ids among the tied three, in both paths.
        objects = [
            [_stay(7, 0, 10), _stay(5, 20, 30), _stay(3, 40, 50)],
            [_stay(7, 0, 10), _stay(5, 20, 30), _stay(3, 40, 50), _stay(9, 60, 70)],
        ]
        index = SemanticsIndex.from_semantics(objects)
        expected = [(3, 2), (5, 2)]
        assert TkPRQ(2).evaluate(objects) == expected
        assert TkPRQ(2).evaluate(index) == expected
        # Pair ties: all three pairs among {3,5,7} have count 2.
        assert TkFRPQ(2).evaluate(index) == TkFRPQ(2).evaluate(objects) == [
            ((3, 5), 2),
            ((3, 7), 2),
        ]

    def test_open_ended_intervals(self, objects):
        index = SemanticsIndex.from_semantics(objects)
        # Everything ending at/after 510 — only object 2's last stay.
        late = TkPRQ(5, start=510.0).evaluate(index)
        assert late == TkPRQ(5, start=510.0).evaluate(objects)
        assert dict(late)[2] == 1
        early = TkPRQ(5, end=50.0).evaluate(index)
        assert early == TkPRQ(5, end=50.0).evaluate(objects)
        assert dict(early) == {1: 2}

    def test_interval_endpoints_are_inclusive(self):
        objects = [[_stay(1, 10.0, 20.0)]]
        index = SemanticsIndex.from_semantics(objects)
        for start, end, hit in [
            (20.0, 30.0, True),   # touches the stay's end
            (0.0, 10.0, True),    # touches the stay's start
            (20.0001, 30.0, False),
            (0.0, 9.9999, False),
        ]:
            expected = [(1, 1)] if hit else []
            assert TkPRQ(1, start=start, end=end).evaluate(index) == expected
            assert TkPRQ(1, start=start, end=end).evaluate(objects) == expected

    def test_count_helpers_match_scan(self, objects):
        from repro.queries import count_region_pairs, count_region_visits

        index = SemanticsIndex.from_semantics(objects)
        assert index.count_visits() == count_region_visits(objects)
        assert index.count_pairs() == count_region_pairs(objects)
        assert index.count_visits(start=0, end=150) == count_region_visits(
            objects, start=0, end=150
        )

    def test_count_pairs_returns_a_copy(self, objects):
        index = SemanticsIndex.from_semantics(objects)
        counts = index.count_pairs()
        counts[(1, 3)] = 999
        assert index.count_pairs()[(1, 3)] != 999

    def test_invalid_k_rejected(self, objects):
        index = SemanticsIndex.from_semantics(objects)
        with pytest.raises(ValueError):
            index.top_k_regions(0)
        with pytest.raises(ValueError):
            index.top_k_pairs(0)


# --------------------------------------------------------------------------
# Planner
# --------------------------------------------------------------------------
class TestPlanner:
    def test_plain_inputs_scan(self, objects):
        plan = plan_query(objects)
        assert isinstance(plan, QueryPlan)
        assert not plan.use_index
        assert resolve_index(objects) is None
        assert resolve_index({"a": objects[0]}) is None

    def test_index_inputs_use_index(self, objects):
        index = SemanticsIndex.from_semantics(objects)
        plan = plan_query(index, 0.0, 10.0)
        assert plan.use_index and plan.index is index

    def test_degenerate_interval_falls_back_to_scan(self, objects):
        store = SemanticsStore()
        for position, entries in enumerate(objects):
            store.publish(f"object-{position}", entries)
        store.attach_index()
        query = TkPRQ(3, start=10.0, end=5.0)
        assert not query.explain(store).use_index
        assert query.evaluate(store) == query.evaluate(objects)

    def test_degenerate_interval_on_bare_index_filters_directly(self, objects):
        # A bare index cannot be scanned; the planner keeps it on the index,
        # whose direct filter must still match the scan over the raw data.
        index = SemanticsIndex.from_semantics(objects)
        plan = plan_query(index, 10.0, 5.0)
        assert plan.use_index and "degenerate" in plan.reason
        # Inverted window [60, 40]: the scan keeps a stay iff start_time <= 40
        # and end_time >= 60, i.e. its span covers [40, 60].
        for shape in (dict(start=60.0, end=40.0), dict(start=1e9, end=-1e9)):
            prq = TkPRQ(3, **shape)
            frpq = TkFRPQ(3, **shape)
            assert prq.evaluate(index) == prq.evaluate(objects), shape
            assert frpq.evaluate(index) == frpq.evaluate(objects), shape
        # Only object 0's stay(1, 0..100) covers [40, 60].
        assert TkPRQ(3, start=60.0, end=40.0).evaluate(index) == [(1, 1)]

    def test_explain_on_queries(self, objects):
        index = SemanticsIndex.from_semantics(objects)
        assert TkPRQ(1).explain(index).use_index
        assert not TkPRQ(1).explain(objects).use_index
        assert TkFRPQ(1).explain(index).use_index


# --------------------------------------------------------------------------
# Store + service wiring
# --------------------------------------------------------------------------
class TestStoreIndex:
    def _filled_store(self, objects):
        store = SemanticsStore()
        for position, entries in enumerate(objects):
            store.publish(f"object-{position}", entries)
        return store

    def test_attach_is_idempotent_and_bulk_builds(self, objects):
        store = self._filled_store(objects)
        index = store.attach_index()
        assert store.attach_index() is index
        assert store.live_index is index
        _assert_equivalent(list(objects), store, ks=(2,))

    def test_empty_store_queries(self):
        store = SemanticsStore()
        store.attach_index()
        assert TkPRQ(3).evaluate(store) == []
        assert TkFRPQ(3).evaluate(store) == []

    def test_publish_updates_attached_index(self, objects):
        store = SemanticsStore()
        store.attach_index()
        for position, entries in enumerate(objects):
            store.publish(f"object-{position}", entries)
        _assert_equivalent(list(objects), store, ks=(2,))

    def test_detach_falls_back_to_scan(self, objects):
        store = self._filled_store(objects)
        store.attach_index()
        store.detach_index()
        assert store.live_index is None
        assert not TkPRQ(2).explain(store).use_index
        assert TkPRQ(2).evaluate(store) == TkPRQ(2).evaluate(objects)

    def test_clear_rebuilds_index(self, objects):
        store = self._filled_store(objects)
        store.attach_index()
        store.clear("object-2")
        assert TkPRQ(5).evaluate(store) == TkPRQ(5).evaluate(objects[:2])
        store.clear()
        assert TkPRQ(5).evaluate(store) == []
        assert store.live_index.stats()["postings"] == 0

    def test_store_load_indexed(self, objects, tmp_path):
        store = self._filled_store(objects)
        store.save(tmp_path / "store.json")
        loaded = SemanticsStore.load(tmp_path / "store.json", indexed=True)
        assert loaded.live_index is not None
        _assert_equivalent(list(objects), loaded, ks=(2,))

    def test_concurrent_publish_while_querying(self, objects):
        """Publishers hammer the store while a reader queries through the
        index; every answer must be internally consistent and the final
        state must equal the scan."""
        store = SemanticsStore()
        store.attach_index()
        errors = []
        done = threading.Event()

        def publisher(worker):
            try:
                for round_no in range(25):
                    for position, entries in enumerate(objects):
                        store.publish(f"w{worker}/r{round_no}/o{position}", entries)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        def reader():
            try:
                while not done.is_set():
                    for shape in (dict(), dict(start=50.0, end=450.0)):
                        top = TkPRQ(3, **shape).evaluate(store)
                        assert all(count > 0 for _, count in top)
                        TkFRPQ(3, **shape).evaluate(store)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        publishers = [threading.Thread(target=publisher, args=(n,)) for n in range(3)]
        reading = threading.Thread(target=reader)
        reading.start()
        for thread in publishers:
            thread.start()
        for thread in publishers:
            thread.join()
        done.set()
        reading.join()
        assert not errors
        snapshot = list(store.as_dict().values())
        _assert_equivalent(snapshot, store, ks=(3,))


# --------------------------------------------------------------------------
# Analytics fast paths
# --------------------------------------------------------------------------
class TestAnalyticsFastPaths:
    def test_conversion_rates_identical(self, objects):
        store = SemanticsStore()
        for position, entries in enumerate(objects):
            store.publish(f"object-{position}", entries)
        scanned = conversion_rates(objects)
        store.attach_index()
        assert conversion_rates(store) == scanned
        assert conversion_rates(store.live_index) == scanned
        assert conversion_rates(objects, min_visits=2) == conversion_rates(
            store, min_visits=2
        )

    def test_transitions_identical(self, objects):
        index = SemanticsIndex.from_semantics(objects)
        assert region_transition_counts(index) == region_transition_counts(objects)
        assert top_transitions(index, k=3) == top_transitions(objects, k=3)

    def test_transitions_with_passes_scan_only(self, objects):
        # stays_only=False has no index fast path; a store input still works
        # because the scan iterates it directly.
        store = SemanticsStore()
        for position, entries in enumerate(objects):
            store.publish(f"object-{position}", entries)
        store.attach_index()
        assert region_transition_counts(store, stays_only=False) == (
            region_transition_counts(objects, stays_only=False)
        )


# --------------------------------------------------------------------------
# The whole catalogue: indexed == scan, bitwise
# --------------------------------------------------------------------------
@pytest.mark.parametrize("name", scenario_names())
def test_catalogue_equivalence(name):
    scenario = materialize(name)
    truth = ground_truth_semantics(scenario.dataset.sequences)
    index = SemanticsIndex.from_semantics(truth)
    times = [
        bound
        for entries in truth
        for ms in entries
        for bound in (ms.start_time, ms.end_time)
    ]
    t0, t1 = min(times), max(times)
    span = t1 - t0
    region_ids = sorted(scenario.space.region_ids)
    shapes = [
        dict(),
        dict(start=t0 + 0.25 * span, end=t0 + 0.75 * span),
        dict(start=None, end=t0 + 0.5 * span),
        dict(start=t0 + 0.5 * span, end=None),
        dict(query_regions=set(region_ids[::2])),
        dict(
            start=t0 + 0.1 * span,
            end=t0 + 0.9 * span,
            query_regions=set(region_ids[1::2]),
        ),
    ]
    for shape in shapes:
        for k in (1, 5, 10):
            prq = TkPRQ(k, **shape)
            frpq = TkFRPQ(k, **shape)
            assert prq.evaluate(index) == prq.evaluate(truth), (name, shape, k)
            assert frpq.evaluate(index) == frpq.evaluate(truth), (name, shape, k)


# --------------------------------------------------------------------------
# Property: live index == rebuilt index == scan, under any interleaving
# --------------------------------------------------------------------------
#: Every kind of key the pair memo holds: full range, bounded, both
#: open-ended directions, region-filtered, bounded and filtered, degenerate.
SCRIPT_SHAPES = [
    dict(),
    dict(start=200.0, end=600.0),
    dict(start=None, end=400.0),
    dict(start=400.0, end=None),
    dict(query_regions={0, 2, 4}),
    dict(start=100.0, end=700.0, query_regions={1, 2, 3}),
    dict(start=600.0, end=300.0),
]

#: One m-semantics on a 10 s grid, so periods often touch the shapes' bounds.
_script_entry = st.builds(
    lambda region, start, duration, stay: MSemantics(
        region_id=region,
        start_time=10.0 * start,
        end_time=10.0 * (start + duration),
        event=EVENT_STAY if stay else EVENT_PASS,
    ),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=90),
    st.integers(min_value=0, max_value=12),
    st.booleans(),
)
#: One step of a script: its kind (publishes weigh most, so objects build up)
#: and every argument any kind might use.
_script_step = st.tuples(
    st.sampled_from(["publish"] * 5 + ["clear"] * 2 + ["clear all", "query", "query"]),
    st.integers(min_value=0, max_value=3).map(lambda n: f"obj-{n}"),
    st.lists(_script_entry, min_size=1, max_size=4),
    st.sampled_from((TkPRQ, TkFRPQ)),
    st.sampled_from(SCRIPT_SHAPES),
    st.integers(min_value=1, max_value=4),
)
_script = st.lists(_script_step, min_size=8, max_size=24)


def _assert_live_matches_rebuild_and_scan(store):
    live = store.live_index
    snapshot = store.as_dict()
    rebuilt = SemanticsIndex.from_semantics(snapshot)
    for shape in SCRIPT_SHAPES:
        # Plain dicts: Counter equality ignores zero counts, which a
        # delta-maintained counter must not keep.
        pairs = dict(live.count_pairs(**shape))
        assert pairs == dict(rebuilt.count_pairs(**shape)), shape
        assert pairs == dict(count_region_pairs(snapshot, **shape)), shape
        for k in (1, 3, 50):
            for query in (TkPRQ(k, **shape), TkFRPQ(k, **shape)):
                answer = query.evaluate(live)
                assert answer == query.evaluate(rebuilt), (shape, k)
                assert answer == query.evaluate(snapshot), (shape, k)
    assert live.stats() == rebuilt.stats()
    assert [dict(c) for c in live.conversion_counters()] == [
        dict(c) for c in rebuilt.conversion_counters()
    ]
    assert dict(live.transition_counts()) == dict(rebuilt.transition_counts())


@settings(max_examples=60, deadline=None)
@given(script=_script)
def test_property_live_index_matches_rebuild_and_scan(script):
    """Publishes (in any time order, to new or present objects), single-object
    and full clears and queries, in any interleaving: after every step the
    live index answers exactly like one rebuilt from the store's contents,
    and like the scan."""
    store = SemanticsStore()
    store.attach_index()
    for kind, object_id, entries, make_query, shape, k in script:
        if kind == "publish":
            store.publish(object_id, entries)
        elif kind == "clear":
            store.clear(object_id)
        elif kind == "clear all":
            store.clear()
        else:
            query = make_query(k, **shape)
            assert query.evaluate(store.live_index) == query.evaluate(store.as_dict())
        _assert_live_matches_rebuild_and_scan(store)


class TestPairMemo:
    CAP = SemanticsIndex._PAIR_CACHE_LIMIT

    def test_memo_never_holds_more_keys_than_its_cap(self, objects):
        index = SemanticsIndex.from_semantics(objects)
        for window in range(self.CAP + 5):
            index.top_k_pairs(3, start=float(window), end=500.0)
            assert len(index._pair_cache) <= self.CAP
        assert len(index._pair_cache) == self.CAP

    def test_evicted_key_queried_after_publishes_equals_rebuild(self, objects):
        store = SemanticsStore()
        for position, entries in enumerate(objects):
            store.publish(f"object-{position}", entries)
        index = store.attach_index()
        query = TkFRPQ(3, start=0.0, end=450.0)
        first = query.evaluate(index)
        # CAP more recent keys push the first, least recently used, out.
        for window in range(self.CAP):
            index.count_pairs(start=1000.0 + window, end=2000.0)
        assert (0.0, 450.0, None) not in index._pair_cache
        store.publish("late", [_stay(1, 10, 20), _stay(2, 30, 40), _stay(3, 300, 310)])
        store.clear("object-1")
        rebuilt = SemanticsIndex.from_semantics(store.as_dict())
        answer = query.evaluate(index)
        assert answer != first
        assert answer == query.evaluate(rebuilt) == query.evaluate(store.as_dict())
        assert dict(index.count_pairs(start=0.0, end=450.0)) == dict(
            rebuilt.count_pairs(start=0.0, end=450.0)
        )
