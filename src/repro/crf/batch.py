"""Multi-sequence ICM decoding: length buckets, lockstep sweeps, coalescing.

:func:`repro.crf.inference.decode_icm` decodes one sequence at a time; a
batch of N sequences costs N full Python decode loops even when many of
the sequences are identical (replayed traffic) or share a length profile.
This module adds the batch path behind ``predict_labels_many`` /
``annotate_many``:

* :func:`bucket_indices` groups a batch into **length buckets** — indices
  sorted by sequence length and chunked to at most ``bucket_size`` per
  bucket, so each dispatch unit holds sequences of similar length and a
  lockstep sweep wastes no iterations on ragged tails.
* :func:`decode_icm_many` runs ICM over a whole bucket in **lockstep**:
  each sweep walks node positions and, per position, updates every still-
  active sequence before moving on.  Because sequences are statistically
  independent — ``best_label`` for sequence *s* reads only *s*'s data and
  current labels — interleaving across sequences cannot change any
  individual trajectory, so every sequence's labels are **bitwise
  identical** to what :func:`decode_icm` returns for it alone.  Sequences
  whose sweep made no change are *converged* (ICM is at a fixpoint: every
  node already sits at its local argmax) and drop out of later sweeps,
  exactly as the per-sequence loop would have stopped for them.
* Duplicate coalescing lives one layer up
  (:meth:`repro.core.protocol.AnnotatorBase.predict_labels_batch`): the
  batch is deduplicated by content fingerprint before decoding, so
  replayed sequences decode once per batch — bit-exact by construction,
  since equal bytes in produce equal labels out.

The lockstep loop deliberately calls ``model.best_label`` per node rather
than stacking score matrices across sequences: stacked BLAS matmuls of a
different shape are *not* bitwise-equal to the per-node products on every
platform, and bitwise agreement with the serial reference is a hard
requirement (gated by the conformance suite,
``tests/test_batched_decode.py``).  The batch win comes from coalescing, convergence dropout and
per-bucket dispatch overhead, not from changing the arithmetic.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.crf.engine import InferenceEngine
from repro.crf.features import SequenceData
from repro.crf.inference import initial_events, initial_regions


def bucket_indices(lengths: Sequence[int], bucket_size: int) -> List[List[int]]:
    """Group batch positions into length buckets of at most ``bucket_size``.

    Indices are ordered by ``(length, position)`` — a stable sort, so equal
    lengths keep their input order — then chunked.  The final bucket may be
    a ragged tail with fewer than ``bucket_size`` members; an empty batch
    yields no buckets.  Every input position appears in exactly one bucket.
    """
    if bucket_size < 1:
        raise ValueError(f"bucket_size must be at least 1, got {bucket_size}")
    order = sorted(range(len(lengths)), key=lambda k: (lengths[k], k))
    return [order[i : i + bucket_size] for i in range(0, len(order), bucket_size)]


def decode_icm_many(
    model: InferenceEngine,
    datas: Sequence[SequenceData],
    *,
    max_sweeps: Optional[int] = None,
    init_regions: Optional[Sequence[Optional[Sequence[int]]]] = None,
    init_events: Optional[Sequence[Optional[Sequence[str]]]] = None,
) -> List[Tuple[List[int], List[str]]]:
    """Decode a bucket of sequences with lockstep ICM sweeps.

    Returns one ``(regions, events)`` pair per input sequence, in input
    order, each bitwise identical to
    ``decode_icm(model, data, max_sweeps=..., ...)`` run on that sequence
    alone (asserted by ``tests/test_batched_decode.py``).

    ``init_regions`` / ``init_events`` mirror the per-sequence parameters:
    when given they must hold one entry per sequence (``None`` entries fall
    back to the standard initialisation).
    """
    n_seqs = len(datas)
    if init_regions is not None and len(init_regions) != n_seqs:
        raise ValueError(
            f"init_regions must have one entry per sequence "
            f"({n_seqs}), got {len(init_regions)}"
        )
    if init_events is not None and len(init_events) != n_seqs:
        raise ValueError(
            f"init_events must have one entry per sequence "
            f"({n_seqs}), got {len(init_events)}"
        )
    if n_seqs == 0:
        return []
    sweeps = (
        max_sweeps if max_sweeps is not None else model.extractor.config.icm_sweeps
    )
    regions: List[List[int]] = []
    events: List[List[str]] = []
    for k, data in enumerate(datas):
        seed_regions = init_regions[k] if init_regions is not None else None
        seed_events = init_events[k] if init_events is not None else None
        regions.append(
            list(seed_regions) if seed_regions is not None else initial_regions(data)
        )
        events.append(
            list(seed_events) if seed_events is not None else initial_events(data)
        )

    lengths = [len(data) for data in datas]
    active = [k for k in range(n_seqs) if lengths[k] > 0]
    for _ in range(sweeps):
        if not active:
            break
        changed = [False] * n_seqs
        horizon = max(lengths[k] for k in active)
        for variable, labels in (("region", regions), ("event", events)):
            for i in range(horizon):
                for k in active:
                    if i >= lengths[k]:
                        continue
                    best = model.best_label(
                        datas[k], regions[k], events[k], i, variable
                    )
                    if best != labels[k][i]:
                        labels[k][i] = best
                        changed[k] = True
        active = [k for k in active if changed[k]]
    return [(regions[k], events[k]) for k in range(n_seqs)]


__all__ = ["bucket_indices", "decode_icm_many"]
