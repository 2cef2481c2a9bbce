"""The eight feature functions of Table II and per-sequence preparation.

:class:`FeatureExtractor` implements the feature functions designed in
Section III-B of the paper:

1. ``fsm(θi, ri)`` — spatial matching: overlap fraction of the circular
   uncertainty region ``UR(θi.l, v)`` with region ``ri`` (Equation 3).
2. ``fem(θi, ei)`` — event matching from the ST-DBSCAN density class of
   ``θi`` (core/border/noise) and the candidate event.
3. ``fst(ri, ri+1)`` — space transition: ``exp(-γst · E[d_I(ri, ri+1)])``
   (Equation 4) with the expected MIWD from the distance oracle.
4. ``fet(ei, ei+1)`` — event transition: 1 if equal, 0 otherwise.
5. ``fsc(θi, θi+1, ri, ri+1)`` — spatial consistency between the region-level
   expected MIWD and the observed Euclidean displacement (Equation 5).
6. ``fec(θi, θi+1, ei, ei+1)`` — event consistency between the apparent speed
   and the number of pass labels.
7. ``fes(c_es)`` — event-based segmentation features (3 components) over a
   maximal run of equal event labels.
8. ``fss(c_ss)`` — space-based segmentation features (3 components) over a
   maximal run of equal region labels.

The segmentation features are normalised to bounded ranges (the paper notes
"feature values in fes and fss need to be normalized" without giving the
scheme; we normalise per record/segment length as documented on each method).

:class:`SequenceData` holds everything that can be precomputed once per
sequence — density labels, candidate regions, per-step distances, speeds and
turn flags — so that inference and learning only pay for label-dependent work.

:class:`PotentialTables` goes one step further for the vectorized inference
engine: it tabulates every label-independent feature value — per-node unary
potentials (``fsm`` over the candidate set, ``fem`` over the event domain)
and per-edge pairwise potentials (``fst``/``fsc`` over candidate pairs,
``fec`` over event pairs) — as NumPy arrays, so a node update is array
indexing instead of feature recomputation.  Only the label-dependent
segmentation-clique terms stay dynamic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.clustering.stdbscan import (
    DENSITY_BORDER,
    DENSITY_CORE,
    DENSITY_NOISE,
    STDBSCAN,
)
from repro.crf.cliques import WeightLayout
from repro.core.config import C2MNConfig
from repro.geometry.circle import Circle, circle_polygon_intersection_area
from repro.indoor.distance import IndoorDistanceOracle
from repro.indoor.floorplan import IndoorSpace
from repro.mobility.records import (
    EVENT_PASS,
    EVENT_STAY,
    PositioningRecord,
    PositioningSequence,
)


def _is_pass(event: str) -> int:
    """The indicator function I(e) of the paper: 1 for pass, 0 for stay."""
    return 1 if event == EVENT_PASS else 0


#: Fixed order of the event label domain shared with :mod:`repro.crf.model`.
EVENT_ORDER: Tuple[str, str] = (EVENT_STAY, EVENT_PASS)

#: Position of each event label inside :data:`EVENT_ORDER`.
EVENT_POSITION: Dict[str, int] = {label: k for k, label in enumerate(EVENT_ORDER)}


@dataclass
class PotentialTables:
    """Tabulated label-independent potentials of one prepared sequence.

    Built once per :class:`SequenceData` by
    :meth:`FeatureExtractor.potential_tables` and cached on the instance.
    Every entry is produced by the exact same scalar feature call the
    reference path makes, so engines assembling feature matrices from these
    tables reproduce the reference matrices bit for bit.

    ``fst``/``fsc``/``fec`` are built lazily per clique category (``None``
    when the category was inactive at build time) and filled in on demand
    when a model with more active categories reuses the tables.
    """

    #: Per node: candidate region ids in ``data.candidates[i]`` order.
    candidate_ids: List[List[int]]
    #: Per node: region id → row position in the node's tables.
    candidate_pos: List[Dict[int, int]]
    #: Per node: ``(L_i, n_weights)`` zero matrix with the ``fsm`` column set.
    region_base: List[np.ndarray]
    #: Per node: ``(2, n_weights)`` zero matrix with the ``fem`` column set.
    event_base: List[np.ndarray]
    #: Per step i: ``(L_i, L_{i+1})`` table of ``fst`` — transition category.
    fst: Optional[List[np.ndarray]] = None
    #: Per step i: ``(L_i, L_{i+1})`` table of ``fsc`` — synchronization category.
    fsc: Optional[List[np.ndarray]] = None
    #: Per step i: ``(2, 2)`` table of ``fec`` — synchronization category.
    fec: Optional[List[np.ndarray]] = None
    #: ``(start, end) → (speed_norm, turns_norm)`` cache for ``fes`` segments.
    segment_stats: Dict[Tuple[int, int], Tuple[float, float]] = field(
        default_factory=dict
    )

    def nbytes(self) -> int:
        """Total size of the tabulated arrays (memory reporting)."""
        arrays = list(self.region_base) + list(self.event_base)
        for tables in (self.fst, self.fsc, self.fec):
            if tables is not None:
                arrays.extend(tables)
        return sum(array.nbytes for array in arrays)


@dataclass
class SequenceData:
    """Pre-processed, label-independent view of one positioning sequence."""

    sequence: PositioningSequence
    density_labels: List[str]
    candidates: List[List[int]]
    nearest_regions: List[int]
    planar_steps: List[float]
    elapsed_steps: List[float]
    speeds: List[float]
    turn_flags: List[bool]
    true_regions: Optional[List[int]] = None
    true_events: Optional[List[str]] = None
    fsm_cache: Dict[Tuple[int, int], float] = field(default_factory=dict)
    potentials: Optional[PotentialTables] = None

    def __len__(self) -> int:
        return len(self.sequence)

    @property
    def has_ground_truth(self) -> bool:
        return self.true_regions is not None and self.true_events is not None


class FeatureExtractor:
    """Computes the eight feature functions over prepared sequences."""

    def __init__(
        self,
        space: IndoorSpace,
        config: C2MNConfig,
        *,
        oracle: Optional[IndoorDistanceOracle] = None,
        region_priors: Optional[Dict[int, float]] = None,
    ):
        self._space = space
        self._config = config
        self._oracle = oracle if oracle is not None else IndoorDistanceOracle(space)
        self._clusterer = STDBSCAN(
            eps_spatial=config.eps_spatial,
            eps_temporal=config.eps_temporal,
            min_points=config.min_points,
        )
        # Optional extension mentioned after Equation 3: weight fsm by the
        # normalised historical region frequency.  Off unless priors are given.
        self._region_priors = dict(region_priors) if region_priors else None
        self._fst_cache: Dict[Tuple[int, int], float] = {}
        self._region_distance_cache: Dict[Tuple[int, int], float] = {}

    @property
    def space(self) -> IndoorSpace:
        return self._space

    @property
    def config(self) -> C2MNConfig:
        return self._config

    @property
    def oracle(self) -> IndoorDistanceOracle:
        return self._oracle

    @property
    def clusterer(self) -> STDBSCAN:
        """The ST-DBSCAN instance that gives the density labels."""
        return self._clusterer

    # ------------------------------------------------------------ preparation
    def prepare(
        self,
        sequence: PositioningSequence,
        *,
        true_regions: Optional[Sequence[int]] = None,
        true_events: Optional[Sequence[str]] = None,
    ) -> SequenceData:
        """Precompute everything label-independent for one sequence.

        When ground-truth region labels are provided they are merged into the
        candidate sets so that training always scores the true configuration.
        """
        records = sequence.records
        n = len(records)
        density = self._clusterer.density_labels(sequence)

        candidates: List[List[int]] = []
        nearest: List[int] = []
        for i, record in enumerate(records):
            ids, nearest_id = self.record_candidates(record)
            if true_regions is not None and true_regions[i] not in ids:
                ids.append(true_regions[i])
            candidates.append(ids)
            nearest.append(nearest_id)

        planar_steps: List[float] = []
        elapsed_steps: List[float] = []
        speeds: List[float] = []
        for earlier, later in zip(records, records[1:]):
            dist, elapsed, speed = self.record_step(earlier, later)
            planar_steps.append(dist)
            elapsed_steps.append(elapsed)
            speeds.append(speed)

        turn_flags = [False] * n
        for i in range(1, n - 1):
            turn_flags[i] = self.record_turn(records[i - 1], records[i], records[i + 1])

        return SequenceData(
            sequence=sequence,
            density_labels=density,
            candidates=candidates,
            nearest_regions=nearest,
            planar_steps=planar_steps,
            elapsed_steps=elapsed_steps,
            speeds=speeds,
            turn_flags=turn_flags,
            true_regions=list(true_regions) if true_regions is not None else None,
            true_events=list(true_events) if true_events is not None else None,
        )

    # ------------------------------------------- per-record and per-step state
    # ``prepare`` and :class:`repro.crf.window.WindowState` both build their
    # label-independent state from these calls, so the two agree bitwise.
    def record_candidates(self, record: PositioningRecord) -> Tuple[List[int], int]:
        """Candidate region ids of one record, and its nearest region id.

        The nearest region always leads the candidates when the radius query
        missed it, so decoding can fall back to it.
        """
        regions = self._space.candidate_regions(
            record.location,
            radius=self._config.candidate_radius,
            max_candidates=self._config.max_candidates,
        )
        ids = [region.region_id for region in regions]
        nearest_region = self._space.nearest_region(record.location)
        nearest_id = nearest_region.region_id if nearest_region is not None else ids[0]
        if nearest_id not in ids:
            ids.insert(0, nearest_id)
        return ids, nearest_id

    @staticmethod
    def record_step(
        earlier: PositioningRecord, later: PositioningRecord
    ) -> Tuple[float, float, float]:
        """``(planar distance, elapsed time, speed)`` of one step."""
        dist = earlier.planar_distance_to(later)
        elapsed = max(later.timestamp - earlier.timestamp, 1e-9)
        return dist, elapsed, dist / elapsed

    @staticmethod
    def record_turn(
        before: PositioningRecord, record: PositioningRecord, after: PositioningRecord
    ) -> bool:
        """The turn flag of an interior record: heading change above 90 degrees."""
        a = before.location.planar
        b = record.location.planar
        c = after.location.planar
        v1 = (b.x - a.x, b.y - a.y)
        v2 = (c.x - b.x, c.y - b.y)
        n1 = math.hypot(*v1)
        n2 = math.hypot(*v2)
        if n1 < 1e-9 or n2 < 1e-9:
            return False
        cos_angle = (v1[0] * v2[0] + v1[1] * v2[1]) / (n1 * n2)
        return cos_angle < 0.0  # angle between headings exceeds 90 degrees

    # --------------------------------------------------------- matching (1,2)
    def spatial_matching(self, data: SequenceData, index: int, region_id: int) -> float:
        """``fsm``: overlap fraction of the uncertainty region with ``region_id``."""
        key = (index, region_id)
        cached = data.fsm_cache.get(key)
        if cached is not None:
            return cached
        value = self.record_matching(data.sequence[index], region_id)
        data.fsm_cache[key] = value
        return value

    def record_matching(self, record: PositioningRecord, region_id: int) -> float:
        """``fsm`` of one record against one region (uncached)."""
        region = self._space.region(region_id)
        if region.floor != record.floor:
            value = 0.0
        else:
            circle = Circle(record.location.planar, self._config.uncertainty_radius)
            intersection = 0.0
            for geometry in region.geometries:
                if circle.intersects_bbox(geometry.bounding_box):
                    intersection += circle_polygon_intersection_area(circle, geometry)
            value = min(1.0, max(0.0, intersection / circle.area))
        if self._region_priors is not None:
            value *= self._region_priors.get(region_id, 0.0)
        return value

    def event_matching(self, data: SequenceData, index: int, event: str) -> float:
        """``fem``: agreement between the record's density class and the event."""
        return self.density_matching(data.density_labels[index], event)

    def density_matching(self, density: str, event: str) -> float:
        """``fem`` of one density class (core/border/noise) and one event."""
        if event == EVENT_STAY and density == DENSITY_CORE:
            return 1.0
        if event == EVENT_PASS and density == DENSITY_NOISE:
            return 1.0
        if event == EVENT_STAY and density == DENSITY_BORDER:
            return self._config.alpha
        if event == EVENT_PASS and density == DENSITY_BORDER:
            return self._config.beta
        return 0.0

    # ------------------------------------------------------- transition (3,4)
    def region_distance(self, region_a: int, region_b: int) -> float:
        """Cached expected MIWD between two regions."""
        if region_a == region_b:
            return 0.0
        key = (region_a, region_b) if region_a <= region_b else (region_b, region_a)
        cached = self._region_distance_cache.get(key)
        if cached is None:
            cached = self._oracle.region_distance(region_a, region_b)
            self._region_distance_cache[key] = cached
        return cached

    def space_transition(
        self, region_a: int, region_b: int, *, elapsed: Optional[float] = None
    ) -> float:
        """``fst = exp(-γst · E[d_I(ra, rb)])`` (Equation 4).

        When the optional time-decay extension is enabled
        (``config.use_time_decay``) and the elapsed time between the two
        records is given, the distance term is scaled by
        ``exp(-γ_time · elapsed)`` — the longer the gap, the lower the impact
        of the walking distance on the transition cost, exactly as suggested
        after Equation 4 in the paper.
        """
        decay = self._time_decay(elapsed)
        key = (region_a, region_b) if region_a <= region_b else (region_b, region_a)
        cached = self._fst_cache.get(key)
        if cached is None:
            distance = self.region_distance(region_a, region_b)
            cached = -1.0 if math.isinf(distance) else distance
            self._fst_cache[key] = cached
        if cached < 0.0:
            return 0.0
        return math.exp(-self._config.gamma_st * cached * decay)

    @staticmethod
    def event_transition(event_a: str, event_b: str) -> float:
        """``fet``: 1 when consecutive events agree, 0 otherwise."""
        return 1.0 if event_a == event_b else 0.0

    # --------------------------------------------------- synchronization (5,6)
    def spatial_consistency(
        self, data: SequenceData, index: int, region_a: int, region_b: int
    ) -> float:
        """``fsc`` for the step ``index → index + 1`` (Equation 5).

        The exponent is scaled by ``gamma_sc`` so metre-scale distance
        differences produce informative (non-vanishing) values; see DESIGN.md.
        With the optional time-decay extension the difference term is further
        scaled by ``exp(-γ_time · elapsed)`` (the paper's ``e^{-γ''·(t_{i+1}-t_i)}``
        multiplier to Equation 5).
        """
        return self.step_consistency(
            region_a, region_b, data.planar_steps[index], data.elapsed_steps[index]
        )

    def step_consistency(
        self, region_a: int, region_b: int, observed: float, elapsed: float
    ) -> float:
        """``fsc`` of one step given its planar length and elapsed time."""
        expected = self.region_distance(region_a, region_b)
        if math.isinf(expected):
            return 0.0
        decay = self._time_decay(elapsed)
        return math.exp(-self._config.gamma_sc * abs(expected - observed) * decay)

    def _time_decay(self, elapsed: Optional[float]) -> float:
        """Return the optional time-decay multiplier (1.0 when disabled)."""
        if not self._config.use_time_decay or elapsed is None:
            return 1.0
        return math.exp(-self._config.gamma_time * max(0.0, elapsed))

    def event_consistency(
        self, data: SequenceData, index: int, event_a: str, event_b: str
    ) -> float:
        """``fec`` for the step ``index → index + 1``."""
        return self.speed_consistency(data.speeds[index], event_a, event_b)

    def speed_consistency(self, speed: float, event_a: str, event_b: str) -> float:
        """``fec`` of one step given its apparent speed."""
        speed_term = min(1.0, self._config.gamma_ec * speed)
        pass_term = (_is_pass(event_a) + _is_pass(event_b)) / 2.0
        return math.exp(-abs(speed_term - pass_term))

    # ------------------------------------------------------- segmentation (7)
    def event_segmentation(
        self,
        data: SequenceData,
        start: int,
        end: int,
        regions: Sequence[int],
        event: str,
    ) -> np.ndarray:
        """``fes`` over the event-based segmentation spanning ``[start, end]``.

        The three components follow the paper — distinct region count, moving
        speed, and (negated) turn count — each normalised to ``[0, 1]`` by the
        segment length so segments of different lengths are comparable, then
        multiplied by ``2·I(event) − 1`` (+1 for pass, −1 for stay).
        """
        length = end - start + 1
        distinct = len({regions[i] for i in range(start, end + 1)})
        distinct_norm = (distinct - 1) / max(1, length - 1) if length > 1 else 0.0

        duration = max(
            data.sequence[end].timestamp - data.sequence[start].timestamp, 1e-9
        )
        travelled = sum(data.planar_steps[i] for i in range(start, end))
        speed = travelled / duration if end > start else 0.0
        speed_norm = min(1.0, self._config.gamma_ec * speed)

        turns = sum(1 for i in range(start + 1, end) if data.turn_flags[i])
        turns_norm = turns / max(1, length - 2) if length > 2 else 0.0

        sign = 2 * _is_pass(event) - 1
        return sign * np.array([distinct_norm, speed_norm, -turns_norm], dtype=float)

    # ------------------------------------------------------- segmentation (8)
    def space_segmentation(
        self,
        data: SequenceData,
        start: int,
        end: int,
        events: Sequence[str],
    ) -> np.ndarray:
        """``fss`` over the space-based segmentation spanning ``[start, end]``.

        Components: (negated) distinct event count, (negated) event-change
        count — both normalised by segment length — and the pass indicator of
        the first and last record (scaled to ``[0, 1]``).
        """
        length = end - start + 1
        segment_events = [events[i] for i in range(start, end + 1)]
        distinct = len(set(segment_events))
        distinct_norm = (distinct - 1) / max(1, length - 1) if length > 1 else 0.0

        changes = sum(
            1
            for i in range(start, end)
            if events[i] != events[i + 1]
        )
        changes_norm = changes / max(1, length - 1) if length > 1 else 0.0

        boundary_pass = (_is_pass(events[start]) + _is_pass(events[end])) / 2.0
        return np.array([-distinct_norm, -changes_norm, boundary_pass], dtype=float)

    # ------------------------------------------------------- potential tables
    def potential_tables(
        self,
        data: SequenceData,
        *,
        layout=None,
        transition: bool = True,
        synchronization: bool = True,
    ) -> PotentialTables:
        """Tabulate the label-independent potentials of one prepared sequence.

        Returns the cached :attr:`SequenceData.potentials` when present,
        lazily adding the pairwise tables of clique categories that were
        inactive when the cache was first built.  ``layout`` fixes the weight
        column of each unary feature (defaults to the shared
        :class:`repro.crf.cliques.WeightLayout`).
        """
        layout = layout if layout is not None else WeightLayout()
        n = len(data)
        tables = data.potentials
        if tables is None:
            candidate_ids = [list(ids) for ids in data.candidates]
            tables = PotentialTables(
                candidate_ids=candidate_ids,
                candidate_pos=[self.candidate_positions(ids) for ids in candidate_ids],
                region_base=[
                    self.region_row(data.sequence[i], ids, layout)
                    for i, ids in enumerate(candidate_ids)
                ],
                event_base=[
                    self.event_row(density, layout) for density in data.density_labels
                ],
            )
            data.potentials = tables
        ids = tables.candidate_ids
        if transition and tables.fst is None:
            tables.fst = [
                self.transition_table(ids[i], ids[i + 1], data.elapsed_steps[i])
                for i in range(n - 1)
            ]
        if synchronization and tables.fsc is None:
            tables.fsc = [
                self.consistency_table(
                    ids[i], ids[i + 1], data.planar_steps[i], data.elapsed_steps[i]
                )
                for i in range(n - 1)
            ]
        if synchronization and tables.fec is None:
            tables.fec = [self.event_consistency_table(data.speeds[i]) for i in range(n - 1)]
        return tables

    # ``potential_tables`` and :class:`repro.crf.window.WindowState` tabulate
    # through these, one node or one step at a time.
    @staticmethod
    def candidate_positions(ids: Sequence[int]) -> Dict[int, int]:
        """Region id → row position in a node's tables."""
        return {region_id: pos for pos, region_id in enumerate(ids)}

    def region_row(
        self, record: PositioningRecord, ids: Sequence[int], layout: WeightLayout
    ) -> np.ndarray:
        """A node's ``(L, n_weights)`` zero matrix with the ``fsm`` column set."""
        base = np.zeros((len(ids), layout.size), dtype=float)
        base[:, layout.spatial_matching] = [
            self.record_matching(record, region_id) for region_id in ids
        ]
        return base

    def event_row(self, density: str, layout: WeightLayout) -> np.ndarray:
        """A node's ``(2, n_weights)`` zero matrix with the ``fem`` column set."""
        base = np.zeros((len(EVENT_ORDER), layout.size), dtype=float)
        base[:, layout.event_matching] = [
            self.density_matching(density, event) for event in EVENT_ORDER
        ]
        return base

    def transition_table(
        self, left_ids: Sequence[int], right_ids: Sequence[int], elapsed: float
    ) -> np.ndarray:
        """The ``(L_i, L_{i+1})`` ``fst`` table of one step."""
        return np.array(
            [
                [self.space_transition(left, right, elapsed=elapsed) for right in right_ids]
                for left in left_ids
            ],
            dtype=float,
        ).reshape(len(left_ids), len(right_ids))

    def consistency_table(
        self,
        left_ids: Sequence[int],
        right_ids: Sequence[int],
        observed: float,
        elapsed: float,
    ) -> np.ndarray:
        """The ``(L_i, L_{i+1})`` ``fsc`` table of one step."""
        return np.array(
            [
                [
                    self.step_consistency(left, right, observed, elapsed)
                    for right in right_ids
                ]
                for left in left_ids
            ],
            dtype=float,
        ).reshape(len(left_ids), len(right_ids))

    def event_consistency_table(self, speed: float) -> np.ndarray:
        """The ``(2, 2)`` ``fec`` table of one step."""
        return np.array(
            [
                [self.speed_consistency(speed, left, right) for right in EVENT_ORDER]
                for left in EVENT_ORDER
            ],
            dtype=float,
        )

    def segment_statistics(
        self, data: SequenceData, tables: PotentialTables, start: int, end: int
    ) -> Tuple[float, float]:
        """Label-independent ``fes`` components of the segment ``[start, end]``.

        Returns ``(speed_norm, turns_norm)`` computed with exactly the same
        arithmetic as :meth:`event_segmentation` and cached on ``tables``
        (segments recur across sweeps while labels churn around them).
        """
        key = (start, end)
        cached = tables.segment_stats.get(key)
        if cached is not None:
            return cached
        length = end - start + 1
        duration = max(
            data.sequence[end].timestamp - data.sequence[start].timestamp, 1e-9
        )
        travelled = sum(data.planar_steps[i] for i in range(start, end))
        speed = travelled / duration if end > start else 0.0
        speed_norm = min(1.0, self._config.gamma_ec * speed)
        turns = sum(1 for i in range(start + 1, end) if data.turn_flags[i])
        turns_norm = turns / max(1, length - 2) if length > 2 else 0.0
        tables.segment_stats[key] = (speed_norm, turns_norm)
        return speed_norm, turns_norm

    # -------------------------------------------------------------- reporting
    def cache_statistics(self) -> Dict[str, int]:
        """Sizes of the internal caches (useful for memory reporting)."""
        return {
            "fst_cache": len(self._fst_cache),
            "region_distance_cache": len(self._region_distance_cache),
            "oracle_cache": self._oracle.cache_size(),
        }
