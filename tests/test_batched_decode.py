"""Bitwise equivalence of the batched decode path (:mod:`repro.crf.batch`).

The batched ``*_many`` pipeline — duplicate coalescing, length bucketing,
the lockstep bucket ICM of :func:`repro.crf.batch.decode_icm_many` — must
be *bitwise* identical to the per-sequence loop it accelerates, for every
compared method (all C2MN variants and all baselines), every ragged batch
shape, and every backend/worker combination.  These tests pin that
contract; a single differing label anywhere is a correctness bug.
"""

from __future__ import annotations

import pytest

from repro.core import C2MNConfig, make_annotator
from repro.core.variants import VARIANT_NAMES
from repro.crf.batch import bucket_indices, decode_icm_many
from repro.crf.inference import decode_icm
from repro.runtime import ExecutionPolicy

BASELINE_NAMES = ("SMoT", "HMM+DC", "SAPDV", "SAPDA")
ALL_METHOD_NAMES = VARIANT_NAMES + ("C2MN@R",) + BASELINE_NAMES

UNBATCHED = ExecutionPolicy.serial(batch=False)
BATCHED = ExecutionPolicy.serial()


@pytest.fixture(scope="module")
def tiny_config():
    return C2MNConfig.fast(
        max_iterations=1, mcmc_samples=2, lbfgs_iterations=1, icm_sweeps=2
    )


@pytest.fixture(scope="module", params=ALL_METHOD_NAMES)
def fitted_method(request, small_space, small_split, tiny_config):
    """Each compared method, constructed by name and fitted on two sequences."""
    train, _ = small_split
    method = make_annotator(request.param, small_space, config=tiny_config)
    method.fit(train.sequences[:2])
    return method


@pytest.fixture(scope="module")
def ragged_batch(small_split):
    """Test sequences with duplicates, in deliberately unsorted length order."""
    _, test = small_split
    sequences = [labeled.sequence for labeled in test.sequences]
    # Replicate so coalescing has duplicates to fold, and shuffle the
    # length order so bucketing has to sort.
    batch = sequences + sequences[::-1] + sequences[:1]
    assert len(batch) >= 5
    return batch


# --------------------------------------------------------------------------
# bucket_indices
# --------------------------------------------------------------------------
class TestBucketIndices:
    def test_groups_by_ascending_length(self):
        buckets = bucket_indices([5, 1, 3, 2, 4], 2)
        assert buckets == [[1, 3], [2, 4], [0]]  # ragged tail of one

    def test_bucket_size_one_degenerates_to_singletons(self):
        assert bucket_indices([3, 1, 2], 1) == [[1], [2], [0]]

    def test_single_bucket_when_cap_exceeds_batch(self):
        assert bucket_indices([2, 1], 100) == [[1, 0]]

    def test_ties_break_by_position(self):
        assert bucket_indices([2, 2, 2], 2) == [[0, 1], [2]]

    def test_empty_input(self):
        assert bucket_indices([], 4) == []

    def test_rejects_non_positive_bucket_size(self):
        with pytest.raises(ValueError):
            bucket_indices([1, 2], 0)

    def test_every_index_appears_exactly_once(self):
        lengths = [7, 3, 3, 9, 1, 4, 4, 4]
        buckets = bucket_indices(lengths, 3)
        flat = sorted(index for bucket in buckets for index in bucket)
        assert flat == list(range(len(lengths)))


# --------------------------------------------------------------------------
# decode_icm_many against the per-sequence decoder
# --------------------------------------------------------------------------
class TestDecodeIcmMany:
    @pytest.fixture(scope="class")
    def engine_and_datas(self, small_space, small_split, tiny_config):
        annotator = make_annotator("C2MN", small_space, config=tiny_config)
        train, test = small_split
        annotator.fit(train.sequences[:2])
        datas = [
            annotator.prepare(labeled.sequence) for labeled in test.sequences
        ]
        return annotator._engine, datas

    def test_matches_per_sequence_decode_bitwise(self, engine_and_datas):
        engine, datas = engine_and_datas
        expected = [decode_icm(engine, data) for data in datas]
        assert decode_icm_many(engine, datas) == expected

    def test_ragged_lengths_and_duplicates(self, engine_and_datas):
        engine, datas = engine_and_datas
        ragged = datas + datas[:1] + datas[::-1]
        expected = [decode_icm(engine, data) for data in ragged]
        assert decode_icm_many(engine, ragged) == expected

    def test_empty_batch(self, engine_and_datas):
        engine, _ = engine_and_datas
        assert decode_icm_many(engine, []) == []

    def test_max_sweeps_matches_serial(self, engine_and_datas):
        engine, datas = engine_and_datas
        expected = [decode_icm(engine, data, max_sweeps=1) for data in datas]
        assert decode_icm_many(engine, datas, max_sweeps=1) == expected

    def test_rejects_mismatched_init_lengths(self, engine_and_datas):
        engine, datas = engine_and_datas
        with pytest.raises(ValueError):
            decode_icm_many(engine, datas, init_regions=[[0]])


# --------------------------------------------------------------------------
# The *_many pipeline, for every compared method
# --------------------------------------------------------------------------
class TestBatchedManyBitwise:
    def test_predict_labels_many_batched_matches_unbatched(
        self, fitted_method, ragged_batch
    ):
        expected = fitted_method.predict_labels_many(ragged_batch, policy=UNBATCHED)
        assert (
            fitted_method.predict_labels_many(ragged_batch, policy=BATCHED)
            == expected
        )

    def test_annotate_many_batched_matches_unbatched(
        self, fitted_method, ragged_batch
    ):
        expected = fitted_method.annotate_many(ragged_batch, policy=UNBATCHED)
        assert fitted_method.annotate_many(ragged_batch, policy=BATCHED) == expected

    @pytest.mark.parametrize("bucket_size", [1, 2, 3])
    def test_tiny_buckets_force_ragged_tails(
        self, fitted_method, ragged_batch, bucket_size
    ):
        expected = fitted_method.annotate_many(ragged_batch, policy=UNBATCHED)
        policy = ExecutionPolicy.serial(bucket_size=bucket_size)
        assert fitted_method.annotate_many(ragged_batch, policy=policy) == expected

    def test_empty_batch(self, fitted_method):
        assert fitted_method.annotate_many([], policy=BATCHED) == []
        assert fitted_method.predict_labels_many([], policy=BATCHED) == []

    def test_single_sequence_batch(self, fitted_method, ragged_batch):
        sequence = ragged_batch[0]
        assert fitted_method.annotate_many([sequence], policy=BATCHED) == [
            fitted_method.annotate(sequence)
        ]

    def test_coalesced_duplicates_do_not_share_results(
        self, fitted_method, ragged_batch
    ):
        batch = [ragged_batch[0]] * 3
        results = fitted_method.annotate_many(batch, policy=BATCHED)
        assert results[0] == results[1] == results[2]
        assert results[0] is not results[1]
        labels = fitted_method.predict_labels_many(batch, policy=BATCHED)
        labels[0][0].append(-1)  # mutate one copy
        assert labels[1] != labels[0]

    def test_region_grouping_forwards_through_buckets(
        self, fitted_method, ragged_batch, small_space
    ):
        grouping = {region_id: 0 for region_id in small_space.region_ids}
        expected = fitted_method.annotate_many(
            ragged_batch, policy=UNBATCHED, region_grouping=grouping
        )
        assert (
            fitted_method.annotate_many(
                ragged_batch, policy=BATCHED, region_grouping=grouping
            )
            == expected
        )


# --------------------------------------------------------------------------
# Cross-backend determinism (C2MN only — the full stack is the slow one;
# every other method shares the identical _map_buckets plumbing)
# --------------------------------------------------------------------------
class TestCrossBackendDeterminism:
    @pytest.fixture(scope="class")
    def c2mn(self, small_space, small_split, tiny_config):
        annotator = make_annotator("C2MN", small_space, config=tiny_config)
        train, _ = small_split
        annotator.fit(train.sequences[:2])
        return annotator

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_thread_backend_bitwise(self, c2mn, ragged_batch, workers):
        expected = c2mn.annotate_many(ragged_batch, policy=UNBATCHED)
        policy = ExecutionPolicy.threads(workers)
        assert c2mn.annotate_many(ragged_batch, policy=policy) == expected

    @pytest.mark.parametrize("workers", [2, 4])
    def test_process_backend_bitwise(self, c2mn, ragged_batch, workers):
        expected = c2mn.annotate_many(ragged_batch, policy=UNBATCHED)
        policy = ExecutionPolicy.processes(workers)
        assert c2mn.annotate_many(ragged_batch, policy=policy) == expected

    def test_process_without_pool_reuse_bitwise(self, c2mn, ragged_batch):
        expected = c2mn.predict_labels_many(ragged_batch, policy=UNBATCHED)
        policy = ExecutionPolicy.processes(2, reuse_pool=False)
        assert c2mn.predict_labels_many(ragged_batch, policy=policy) == expected
