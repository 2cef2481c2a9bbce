"""Append-only decode state of one stream session's tail window.

A :class:`repro.service.session.StreamSession` re-decodes its last ``W``
records after every record it ingests.  Decoding a window from scratch
prepares (:meth:`FeatureExtractor.prepare`) and tabulates
(:meth:`FeatureExtractor.potential_tables`) every record of it, although
only the newest record and the step leading to it are new.
:class:`WindowState` keeps that work append-only:

* **kept per record** — candidate ids and positions, the nearest region,
  the ``region_base`` row (``fsm``), and the interior turn flag, set once
  the next record arrives;
* **kept per step** — planar length, elapsed time, speed, and the
  ``fst``/``fsc``/``fec`` tables of the clique categories the model's
  templates enable;
* **redone per window** — the ST-DBSCAN density labels
  (:class:`repro.clustering.StreamDensity`), the ``event_base`` rows (one
  shared row per density class), the turn flags at the window's two edges
  (always ``False``), and a fresh ``segment_stats`` memo, whose keys are
  window-relative.

Every retained value comes from the same extractor call ``prepare`` and
``potential_tables`` make, so :meth:`WindowState.sequence_data` equals a
fresh ``prepare`` plus ``tables`` of the same window field by field and
byte by byte, and :meth:`WindowState.decode` returns the labels
``predict_labels`` would.  Everything kept is weight-independent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.clustering.stdbscan import (
    DENSITY_BORDER,
    DENSITY_CORE,
    DENSITY_NOISE,
    StreamDensity,
)
from repro.crf.engine import InferenceEngine
from repro.crf.features import PotentialTables, SequenceData
from repro.crf.inference import decode_icm
from repro.crf.model import C2MNModel
from repro.mobility.records import PositioningRecord, PositioningSequence


class WindowState:
    """Retained per-record and per-step decode state of one record stream.

    :meth:`append` takes the stream's records in time order;
    :meth:`decode` decodes the window from an absolute position to the
    newest record and drops the rows left of it, so the window start must
    not decrease between calls.  ``engine`` is the model itself (the
    reference engine, which ignores the tables) or a vectorized engine over
    it.
    """

    def __init__(
        self, model: C2MNModel, engine: InferenceEngine, *, object_id: str = "object"
    ):
        self._engine = engine
        self._extractor = model.extractor
        self._layout = model.layout
        self._templates = model.templates
        self._object_id = object_id
        self._density = StreamDensity(self._extractor.clusterer)
        self._event_rows: Dict[str, np.ndarray] = {
            density: self._extractor.event_row(density, self._layout)
            for density in (DENSITY_CORE, DENSITY_BORDER, DENSITY_NOISE)
        }
        # Retained rows; absolute position i lives at list index i - _offset.
        # Step i (records i → i + 1) lives at the same list index as record i.
        self._offset = 0
        self._records: List[PositioningRecord] = []
        self._candidates: List[List[int]] = []
        self._positions: List[Dict[int, int]] = []
        self._nearest: List[int] = []
        self._region_rows: List[np.ndarray] = []
        self._turns: List[bool] = []
        self._planar: List[float] = []
        self._elapsed: List[float] = []
        self._speeds: List[float] = []
        self._fst: Optional[List[np.ndarray]] = [] if self._templates.transition else None
        sync = self._templates.synchronization
        self._fsc: Optional[List[np.ndarray]] = [] if sync else None
        self._fec: Optional[List[np.ndarray]] = [] if sync else None

    def __len__(self) -> int:
        """Records currently retained."""
        return len(self._records)

    def append(self, record: PositioningRecord) -> None:
        """Prepare and tabulate the newest record and the step leading to it."""
        extractor = self._extractor
        self._density.append(record)
        ids, nearest = extractor.record_candidates(record)
        if self._records:
            previous = self._records[-1]
            planar, elapsed, speed = extractor.record_step(previous, record)
            self._planar.append(planar)
            self._elapsed.append(elapsed)
            self._speeds.append(speed)
            left = self._candidates[-1]
            if self._fst is not None:
                self._fst.append(extractor.transition_table(left, ids, elapsed))
            if self._fsc is not None:
                self._fsc.append(extractor.consistency_table(left, ids, planar, elapsed))
                self._fec.append(extractor.event_consistency_table(speed))
            if len(self._records) > 1:
                self._turns[-1] = extractor.record_turn(self._records[-2], previous, record)
        self._records.append(record)
        self._candidates.append(ids)
        self._positions.append(extractor.candidate_positions(ids))
        self._nearest.append(nearest)
        self._region_rows.append(extractor.region_row(record, ids, self._layout))
        self._turns.append(False)

    def sequence_data(self, start: int) -> SequenceData:
        """The prepared window from absolute position ``start``, tables attached.

        Drops the rows left of ``start`` first.
        """
        cut = start - self._offset
        if cut < 0:
            raise ValueError("the window start must not move backwards")
        if cut:
            for rows in (
                self._records,
                self._candidates,
                self._positions,
                self._nearest,
                self._region_rows,
                self._turns,
                self._planar,
                self._elapsed,
                self._speeds,
                self._fst,
                self._fsc,
                self._fec,
            ):
                if rows is not None:
                    del rows[:cut]
            self._offset = start
        density = self._density.labels(start)
        turns = list(self._turns)
        turns[0] = turns[-1] = False
        data = SequenceData(
            sequence=PositioningSequence(
                self._records, object_id=self._object_id, sort=False
            ),
            density_labels=density,
            candidates=list(self._candidates),
            nearest_regions=list(self._nearest),
            planar_steps=list(self._planar),
            elapsed_steps=list(self._elapsed),
            speeds=list(self._speeds),
            turn_flags=turns,
        )
        data.potentials = PotentialTables(
            candidate_ids=list(self._candidates),
            candidate_pos=list(self._positions),
            region_base=list(self._region_rows),
            event_base=[self._event_rows[label] for label in density],
            fst=None if self._fst is None else list(self._fst),
            fsc=None if self._fsc is None else list(self._fsc),
            fec=None if self._fec is None else list(self._fec),
        )
        return data

    def decode(self, start: int) -> Tuple[List[int], List[str]]:
        """ICM labels of the window from absolute position ``start``."""
        return decode_icm(self._engine, self.sequence_data(start))
