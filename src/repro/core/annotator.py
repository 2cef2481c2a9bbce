"""The public annotator API: train a C2MN and annotate p-sequences.

:class:`C2MNAnnotator` wires together the substrate pieces — the indoor space,
the distance oracle, the feature extractor, the C2MN model, the alternate
learner and the label-and-merge step — behind the unified
:class:`repro.core.protocol.Annotator` contract:

* :meth:`C2MNAnnotator.fit` learns the template weights from labeled
  sequences (Section IV).
* :meth:`C2MNAnnotator.predict_labels` returns record-level region and event
  labels for an unseen p-sequence (the *labeling* step of Figure 2).
* :meth:`C2MNAnnotator.annotate` additionally merges the labels into
  m-semantics (the *annotation* step).
* :meth:`C2MNAnnotator.annotate_many` / :meth:`C2MNAnnotator.predict_labels_many`
  batch over many p-sequences under a
  :class:`~repro.runtime.ExecutionPolicy` (length-bucketed lockstep
  decoding, optional thread/process fan-out).
* :meth:`C2MNAnnotator.save` / :meth:`C2MNAnnotator.load` persist the trained
  weights and config as JSON so a model ships without retraining.

Decoding and sampling run on the inference engine selected by
``config.engine`` — ``"vectorized"`` (potential tables, the default) or
``"reference"`` (per-visit feature recomputation); see
:mod:`repro.crf.engine`.  Both decode identically given the same seed.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import C2MNConfig
from repro.core.protocol import AnnotatorBase
from repro.crf.engine import InferenceEngine, make_engine
from repro.crf.features import FeatureExtractor, SequenceData
from repro.crf.batch import decode_icm_many
from repro.crf.inference import decode_icm, initial_events, initial_regions
from repro.crf.learning import AlternateLearner, TrainingReport
from repro.crf.model import C2MNModel
from repro.crf.window import WindowState
from repro.indoor.distance import IndoorDistanceOracle
from repro.indoor.floorplan import IndoorSpace
from repro.mobility.records import LabeledSequence, PositioningSequence


class C2MNAnnotator(AnnotatorBase):
    """End-to-end m-semantics annotation with a coupled conditional Markov network."""

    def __init__(
        self,
        space: IndoorSpace,
        *,
        config: Optional[C2MNConfig] = None,
        oracle: Optional[IndoorDistanceOracle] = None,
        name: str = "C2MN",
    ):
        super().__init__(space, config=config, name=name)
        self._oracle = oracle if oracle is not None else IndoorDistanceOracle(space)
        self._extractor = FeatureExtractor(space, self._config, oracle=self._oracle)
        self._model = C2MNModel(self._extractor)
        self._engine = make_engine(self._model, self._config.engine)
        self._report: Optional[TrainingReport] = None

    # ------------------------------------------------------------ properties
    @property
    def model(self) -> C2MNModel:
        return self._model

    @property
    def engine(self) -> InferenceEngine:
        """The inference engine decoding runs on (selected by ``config.engine``)."""
        return self._engine

    @property
    def training_report(self) -> Optional[TrainingReport]:
        return self._report

    @property
    def weights(self) -> np.ndarray:
        return self._model.weights

    # -------------------------------------------------------------- training
    def _fit(self, training_sequences: Sequence[LabeledSequence]) -> TrainingReport:
        """Learn the template weights from fully labeled sequences."""
        if not training_sequences:
            raise ValueError("fit requires at least one labeled training sequence")
        prepared = [
            self._extractor.prepare(
                labeled.sequence,
                true_regions=labeled.region_labels,
                true_events=labeled.event_labels,
            )
            for labeled in training_sequences
        ]
        learner = AlternateLearner(self._model)
        self._report = learner.fit(prepared)
        return self._report

    # ------------------------------------------------------------- inference
    def predict_labels(
        self, sequence: PositioningSequence
    ) -> Tuple[List[int], List[str]]:
        """Return the decoded region and event labels of one p-sequence."""
        return decode_icm(self._engine, self.prepare(sequence))

    def window_state(self, object_id: str = "object") -> WindowState:
        """An append-only decode state for one stream of records.

        :class:`repro.service.session.StreamSession` builds one per session
        and decodes its tail windows from it; each window's labels equal
        :meth:`predict_labels` of that window (see :mod:`repro.crf.window`).
        """
        return WindowState(self._model, self._engine, object_id=object_id)

    def _decode_bucket(
        self, sequences: Sequence[PositioningSequence]
    ) -> List[Tuple[List[int], List[str]]]:
        """Decode one bucket of distinct sequences with lockstep ICM.

        Routes through :func:`repro.crf.batch.decode_icm_many`, whose
        lockstep sweeps are bitwise identical per sequence to the
        standalone :func:`repro.crf.inference.decode_icm` call in
        :meth:`predict_labels` (the conformance suite asserts it).
        """
        datas = [self.prepare(sequence) for sequence in sequences]
        return decode_icm_many(self._engine, datas)

    # ----------------------------------------------------------- persistence
    def save(self, path: Union[str, Path]) -> None:
        """Write the trained weights, config and name to a JSON file.

        The file is readable with :meth:`load` (and, weights/config-wise,
        with :func:`repro.persistence.load_model_weights`).
        """
        from repro.persistence.serializers import save_annotator

        if not self.is_fitted:
            raise ValueError("cannot save an unfitted annotator; call fit() first")
        save_annotator(self, path)

    @classmethod
    def load(
        cls,
        path: Union[str, Path],
        space: IndoorSpace,
        *,
        oracle: Optional[IndoorDistanceOracle] = None,
    ) -> "C2MNAnnotator":
        """Rebuild a trained annotator from :meth:`save` output.

        The indoor space is code, not data, so the caller supplies it (and
        optionally a shared distance oracle).  The loaded annotator decodes
        bitwise-identically to the one that was saved: same weights, same
        config, same engine.
        """
        from repro.persistence.serializers import load_annotator

        return load_annotator(path, space, oracle=oracle, annotator_cls=cls)

    def _restore_weights(self, weights: np.ndarray) -> None:
        """Install persisted weights and mark the annotator fitted (no report)."""
        self._model.weights = np.asarray(weights, dtype=float)
        self._fitted = True

    # ------------------------------------------------------------- utilities
    def baseline_labels(
        self, sequence: PositioningSequence
    ) -> Tuple[List[int], List[str]]:
        """Return the cheap initialisations (nearest region + ST-DBSCAN events).

        Useful as a sanity baseline and as the starting point the decoder
        refines; exposed for diagnostics and tests.
        """
        data = self.prepare(sequence)
        return initial_regions(data), initial_events(data)

    def prepare(self, sequence: PositioningSequence) -> SequenceData:
        """Expose the prepared (label-independent) view of a sequence."""
        return self._extractor.prepare(sequence)
