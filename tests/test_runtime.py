"""Unit tests of the execution runtime (:mod:`repro.runtime`).

Covers the executor contract (uniform argument validation, sharding,
ordered gathering, backend equivalence, broadcast semantics) and the
content fingerprints.
"""

from __future__ import annotations

import pytest

from repro.mobility.records import PositioningSequence
from repro.runtime import (
    BACKEND_NAMES,
    Executor,
    fingerprint,
    map_sharded,
    map_with_workers,
    resolve_backend,
    sequence_fingerprint,
    shard_indices,
    space_fingerprint,
    validate_workers,
)


def _square(value):
    """Top-level helper so the process backend can pickle it."""
    return value * value


class _Scaler:
    """Picklable object with a method, for broadcast tests."""

    def __init__(self, factor):
        self.factor = factor

    def scale(self, value, offset=0):
        return self.factor * value + offset


# --------------------------------------------------------------------------
# Argument validation
# --------------------------------------------------------------------------
class TestValidation:
    def test_validate_workers_accepts_none_and_positive(self):
        assert validate_workers(None) == 1
        assert validate_workers(1) == 1
        assert validate_workers(7) == 7

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_validate_workers_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            validate_workers(bad)

    @pytest.mark.parametrize("bad", [1.5, "2", True])
    def test_validate_workers_rejects_non_int(self, bad):
        with pytest.raises(TypeError):
            validate_workers(bad)

    def test_resolve_backend(self):
        for name in BACKEND_NAMES:
            assert resolve_backend(name) == name
        with pytest.raises(ValueError):
            resolve_backend("gpu")

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("items", [[], [3], [3, 1, 2]])
    @pytest.mark.parametrize("bad", [0, -2])
    def test_invalid_workers_rejected_for_every_batch_size(
        self, backend, items, bad
    ):
        """workers < 1 must fail uniformly — even for empty or 1-item batches
        where the historical thread-pool shim silently fell back to serial."""
        with pytest.raises(ValueError):
            Executor(backend=backend, workers=bad)
        with pytest.raises(ValueError):
            map_with_workers(_square, items, bad, backend=backend)

    def test_executor_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            Executor(backend="fiber", workers=2)

    def test_map_broadcast_rejects_unknown_method(self):
        with pytest.raises(AttributeError):
            Executor().map_broadcast(_Scaler(2), "no_such_method", [1, 2])


# --------------------------------------------------------------------------
# Sharding
# --------------------------------------------------------------------------
class TestSharding:
    @pytest.mark.parametrize("n_items", [0, 1, 2, 7, 16, 97])
    @pytest.mark.parametrize("shards", [1, 2, 3, 8, 200])
    def test_shards_cover_range_in_order(self, n_items, shards):
        bounds = shard_indices(n_items, shards)
        flattened = [i for start, stop in bounds for i in range(start, stop)]
        assert flattened == list(range(n_items))

    @pytest.mark.parametrize("n_items,shards", [(10, 3), (16, 4), (7, 7), (9, 2)])
    def test_shards_are_balanced(self, n_items, shards):
        sizes = [stop - start for start, stop in shard_indices(n_items, shards)]
        assert max(sizes) - min(sizes) <= 1
        assert len(sizes) == min(shards, n_items)
        assert all(size > 0 for size in sizes)

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_indices(5, 0)


# --------------------------------------------------------------------------
# Mapping backends
# --------------------------------------------------------------------------
class TestExecutorMap:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("workers", [None, 1, 2, 4])
    def test_map_matches_serial_and_keeps_order(self, backend, workers):
        items = list(range(23))
        expected = [_square(item) for item in items]
        executor = Executor(backend=backend, workers=workers)
        assert executor.map(_square, items) == expected

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_map_empty_items(self, backend):
        assert Executor(backend=backend, workers=3).map(_square, []) == []

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_map_fewer_items_than_workers(self, backend):
        assert Executor(backend=backend, workers=8).map(_square, [5, 6]) == [25, 36]

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("workers", [None, 2, 3])
    def test_map_broadcast_matches_serial(self, backend, workers):
        items = list(range(17))
        scaler = _Scaler(3)
        expected = [scaler.scale(item, offset=1) for item in items]
        executor = Executor(backend=backend, workers=workers)
        assert executor.map_broadcast(scaler, "scale", items, offset=1) == expected

    def test_map_sharded_convenience(self):
        assert map_sharded(_square, [1, 2, 3], workers=2, backend="process") == [
            1,
            4,
            9,
        ]

    def test_map_with_workers_threads_by_default(self):
        items = list(range(9))
        assert map_with_workers(_square, items, None) == [_square(i) for i in items]
        assert map_with_workers(_square, items, 3) == [_square(i) for i in items]
        assert map_with_workers(_square, items, 2, backend="process") == [
            _square(i) for i in items
        ]


# --------------------------------------------------------------------------
# Fingerprints
# --------------------------------------------------------------------------
class TestFingerprints:
    def test_fingerprint_part_boundaries(self):
        assert fingerprint("ab", "c") != fingerprint("a", "bc")
        assert fingerprint("ab", "c") == fingerprint("ab", "c")

    def test_sequence_fingerprint_tracks_records(self, small_split):
        _, test = small_split
        first = test.sequences[0].sequence
        second = test.sequences[1].sequence
        assert sequence_fingerprint(first) == sequence_fingerprint(first)
        assert sequence_fingerprint(first) != sequence_fingerprint(second)
        shifted = PositioningSequence(
            list(first.records)[1:], object_id=first.object_id
        )
        assert sequence_fingerprint(first) != sequence_fingerprint(shifted)

    def test_space_fingerprint_tracks_venue(self, small_space, office_space):
        from repro.indoor import build_mall_space

        rebuilt = build_mall_space(floors=1, shops_per_side=4)
        assert space_fingerprint(small_space) == space_fingerprint(rebuilt)
        assert space_fingerprint(small_space) != space_fingerprint(office_space)
