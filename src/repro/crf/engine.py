"""Pluggable inference engines over C2MN.

Both engines expose the same scoring interface as :class:`C2MNModel`
(``feature_matrix`` / ``local_distribution`` / ``best_label`` plus an
``extractor`` property), so :func:`repro.crf.inference.decode_icm` and
:func:`repro.crf.inference.gibbs_sample_variable` accept either one:

* the **reference** engine is the model itself — every node visit rebuilds
  its candidate feature vectors from the raw feature functions;
* the **vectorized** engine assembles the same ``(n_labels, n_weights)``
  feature matrix from the :class:`repro.crf.features.PotentialTables`
  precomputed once per sequence, recomputing only the label-dependent
  segmentation-clique terms.

The vectorized assembly sums exactly the same floating-point terms in
exactly the same order as the reference path, so both engines produce
bitwise-identical local distributions — and therefore identical labelings
for the same RNG seed.  This is asserted label-for-label by
``tests/test_crf_engine.py``; the repository benchmark (``perfbench/``)
times the vectorized engine inside every decode.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import ENGINE_NAMES
from repro.crf.cliques import segment_containing
from repro.crf.features import (
    EVENT_ORDER,
    EVENT_POSITION,
    PotentialTables,
    SequenceData,
    _is_pass,
)
from repro.crf.model import C2MNModel, local_softmax

#: ``fet`` tabulated over the event domain (1 on the diagonal).
_FET_TABLE = np.eye(len(EVENT_ORDER), dtype=float)


def _change_count(labels: Sequence) -> int:
    """Number of adjacent unequal-label pairs inside ``labels``."""
    return sum(a != b for a, b in zip(labels, labels[1:]))


class VectorizedEngine:
    """Table-driven inference over one C2MN model.

    Stateless with respect to sequences: the potential tables live on each
    :class:`SequenceData` (built on first use), so one engine instance can
    serve many sequences, including concurrently from multiple threads.
    """

    name = "vectorized"

    def __init__(self, model: C2MNModel):
        self._model = model
        self._layout = model.layout
        self._templates = model.templates

    @property
    def model(self) -> C2MNModel:
        return self._model

    @property
    def extractor(self):
        return self._model.extractor

    # ----------------------------------------------------------- table access
    def tables(self, data: SequenceData) -> PotentialTables:
        """The potential tables of ``data``, built on first use."""
        templates = self._templates
        return self._model.extractor.potential_tables(
            data,
            layout=self._layout,
            transition=templates.transition,
            synchronization=templates.synchronization,
        )

    def tables_many(self, datas: Sequence[SequenceData]) -> List[PotentialTables]:
        """Build (or fetch) the potential tables of a whole bucket at once.

        The batch decode path calls this before sweeping so table
        construction — the dominant per-sequence setup cost — happens in
        one place and any caching layer sees the full bucket up front.
        """
        return [self.tables(data) for data in datas]

    def decode_many(
        self,
        datas: Sequence[SequenceData],
        **kwargs,
    ) -> List[Tuple[List[int], List[str]]]:
        """Decode a bucket of sequences with lockstep ICM sweeps.

        Delegates to :func:`repro.crf.batch.decode_icm_many`; each
        sequence's labels are bitwise identical to a standalone
        :func:`repro.crf.inference.decode_icm` call.
        """
        from repro.crf.batch import decode_icm_many

        self.tables_many(datas)
        return decode_icm_many(self, datas, **kwargs)

    # ------------------------------------------------------- matrix assembly
    def feature_matrix(
        self,
        data: SequenceData,
        regions: Sequence[int],
        events: Sequence[str],
        index: int,
        variable: str,
    ) -> Tuple[List, np.ndarray]:
        """Assemble ``(values, matrix)`` for one node from the cached tables."""
        if variable == "region":
            return self._region_matrix(data, regions, events, index)
        if variable == "event":
            return self._event_matrix(data, regions, events, index)
        raise ValueError(f"unknown variable {variable!r}")

    def _region_matrix(
        self,
        data: SequenceData,
        regions: Sequence[int],
        events: Sequence[str],
        index: int,
    ) -> Tuple[List, np.ndarray]:
        tables = self.tables(data)
        layout = self._layout
        templates = self._templates
        ids = tables.candidate_ids[index]
        matrix = tables.region_base[index].copy()
        n = len(data)

        if templates.transition:
            column = None
            if index > 0:
                column = self._pair_rows(
                    tables.fst, tables, data, index - 1, regions[index - 1], "left",
                    fallback=self._fst_fallback,
                )
            if index < n - 1:
                right = self._pair_rows(
                    tables.fst, tables, data, index, regions[index + 1], "right",
                    fallback=self._fst_fallback,
                )
                column = right if column is None else column + right
            if column is not None:
                matrix[:, layout.space_transition] = column

        if templates.synchronization:
            column = None
            if index > 0:
                column = self._pair_rows(
                    tables.fsc, tables, data, index - 1, regions[index - 1], "left",
                    fallback=self._fsc_fallback,
                )
            if index < n - 1:
                right = self._pair_rows(
                    tables.fsc, tables, data, index, regions[index + 1], "right",
                    fallback=self._fsc_fallback,
                )
                column = right if column is None else column + right
            if column is not None:
                matrix[:, layout.spatial_consistency] = column

        if templates.event_segmentation:
            start, end = segment_containing(events, index)
            length = end - start + 1
            seen = set(regions[start:index])
            seen.update(regions[index + 1 : end + 1])
            base_distinct = len(seen)
            if length > 1:
                denominator = max(1, length - 1)
                distinct_norm = np.array(
                    [
                        (base_distinct + (0 if region_id in seen else 1) - 1)
                        / denominator
                        for region_id in ids
                    ],
                    dtype=float,
                )
            else:
                distinct_norm = np.zeros(len(ids), dtype=float)
            speed_norm, turns_norm = self.extractor.segment_statistics(
                data, tables, start, end
            )
            sign = 2 * _is_pass(events[index]) - 1
            es = layout.event_segmentation
            matrix[:, es[0]] = sign * distinct_norm
            matrix[:, es[1]] = sign * speed_norm
            matrix[:, es[2]] = sign * (-turns_norm)
        return list(ids), matrix

    def _event_matrix(
        self,
        data: SequenceData,
        regions: Sequence[int],
        events: Sequence[str],
        index: int,
    ) -> Tuple[List, np.ndarray]:
        tables = self.tables(data)
        layout = self._layout
        templates = self._templates
        matrix = tables.event_base[index].copy()
        n = len(data)

        if templates.transition:
            column = None
            if index > 0:
                column = _FET_TABLE[EVENT_POSITION[events[index - 1]]]
            if index < n - 1:
                right = _FET_TABLE[:, EVENT_POSITION[events[index + 1]]]
                column = right if column is None else column + right
            if column is not None:
                matrix[:, layout.event_transition] = column

        if templates.synchronization:
            column = None
            if index > 0:
                column = tables.fec[index - 1][EVENT_POSITION[events[index - 1]], :]
            if index < n - 1:
                right = tables.fec[index][:, EVENT_POSITION[events[index + 1]]]
                column = right if column is None else column + right
            if column is not None:
                matrix[:, layout.event_consistency] = column

        if templates.space_segmentation:
            start, end = segment_containing(regions, index)
            length = end - start + 1
            seen = set(events[start:index])
            seen.update(events[index + 1 : end + 1])
            # Label changes on the steps of [start, end] not touching ``index``:
            # pairs fully inside [start, index-1] and inside [index+1, end].
            base_changes = _change_count(events[start:index]) + _change_count(
                events[index + 1 : end + 1]
            )
            ss = layout.space_segmentation
            for row, value in enumerate(EVENT_ORDER):
                distinct = len(seen) + (0 if value in seen else 1)
                distinct_norm = (
                    (distinct - 1) / max(1, length - 1) if length > 1 else 0.0
                )
                changes = base_changes
                if index - 1 >= start and events[index - 1] != value:
                    changes += 1
                if index + 1 <= end and value != events[index + 1]:
                    changes += 1
                changes_norm = changes / max(1, length - 1) if length > 1 else 0.0
                first = value if index == start else events[start]
                last = value if index == end else events[end]
                boundary_pass = (_is_pass(first) + _is_pass(last)) / 2.0
                matrix[row, ss[0]] = -distinct_norm
                matrix[row, ss[1]] = -changes_norm
                matrix[row, ss[2]] = boundary_pass
        return list(EVENT_ORDER), matrix

    def _pair_rows(
        self,
        pair_tables: List[np.ndarray],
        tables: PotentialTables,
        data: SequenceData,
        step: int,
        neighbour_label: int,
        side: str,
        *,
        fallback,
    ) -> np.ndarray:
        """One row/column of a pairwise table, keyed by the neighbour's label.

        ``side == "left"`` means the neighbour is node ``step`` and the target
        node is ``step + 1`` (a row is returned); ``"right"`` is the mirror.
        Neighbour labels outside the candidate set (possible when callers pass
        hand-built configurations) fall back to the scalar feature call.
        """
        neighbour = step if side == "left" else step + 1
        position = tables.candidate_pos[neighbour].get(neighbour_label)
        if position is None:
            return fallback(tables, data, step, neighbour_label, side)
        table = pair_tables[step]
        return table[position, :] if side == "left" else table[:, position]

    def _fst_fallback(
        self,
        tables: PotentialTables,
        data: SequenceData,
        step: int,
        neighbour_label: int,
        side: str,
    ) -> np.ndarray:
        extractor = self.extractor
        target = step + 1 if side == "left" else step
        elapsed = data.elapsed_steps[step]
        if side == "left":
            values = [
                extractor.space_transition(neighbour_label, region_id, elapsed=elapsed)
                for region_id in tables.candidate_ids[target]
            ]
        else:
            values = [
                extractor.space_transition(region_id, neighbour_label, elapsed=elapsed)
                for region_id in tables.candidate_ids[target]
            ]
        return np.array(values, dtype=float)

    def _fsc_fallback(
        self,
        tables: PotentialTables,
        data: SequenceData,
        step: int,
        neighbour_label: int,
        side: str,
    ) -> np.ndarray:
        extractor = self.extractor
        target = step + 1 if side == "left" else step
        if side == "left":
            values = [
                extractor.spatial_consistency(data, step, neighbour_label, region_id)
                for region_id in tables.candidate_ids[target]
            ]
        else:
            values = [
                extractor.spatial_consistency(data, step, region_id, neighbour_label)
                for region_id in tables.candidate_ids[target]
            ]
        return np.array(values, dtype=float)

    # ------------------------------------------------------ local conditional
    def local_distribution(
        self,
        data: SequenceData,
        regions: Sequence[int],
        events: Sequence[str],
        index: int,
        variable: str,
    ) -> Tuple[List, np.ndarray, np.ndarray]:
        """Same contract as :meth:`C2MNModel.local_distribution`."""
        values, vectors = self.feature_matrix(data, regions, events, index, variable)
        return values, local_softmax(vectors, self._model.weights_view), vectors

    def best_label(
        self,
        data: SequenceData,
        regions: Sequence[int],
        events: Sequence[str],
        index: int,
        variable: str,
    ):
        """Same contract as :meth:`C2MNModel.best_label`."""
        values, probabilities, _ = self.local_distribution(
            data, regions, events, index, variable
        )
        return values[int(np.argmax(probabilities))]


#: Either scoring implementation: the model (reference) or a vectorized engine.
InferenceEngine = Union[C2MNModel, VectorizedEngine]


def make_engine(model: C2MNModel, engine: Optional[str] = None) -> InferenceEngine:
    """Return the inference engine named by ``engine``.

    ``None`` reads ``model.extractor.config.engine`` (``"vectorized"`` when
    the config predates the switch); ``"reference"`` returns the model
    itself, which scores nodes by recomputing features per visit.
    """
    if engine is None:
        engine = getattr(model.extractor.config, "engine", "vectorized")
    if engine == "reference":
        return model
    if engine == "vectorized":
        return VectorizedEngine(model)
    raise ValueError(f"engine must be one of {ENGINE_NAMES}, got {engine!r}")
