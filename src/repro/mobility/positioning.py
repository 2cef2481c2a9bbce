"""Positioning-error model: ground truth → noisy, sparse p-sequences.

Section V-C of the paper generates synthetic datasets from ground-truth
trajectories as follows:

* after reporting an estimate the object stays silent for at most ``T``
  seconds (the *maximum positioning period*, controlling temporal sparsity);
* a location estimate is uniformly within ``μ`` meters of the true location
  (the *positioning error factor*);
* with probability 3% the report carries a false floor value (within two
  floors up or down);
* with probability 3% the report is an outlier placed 2.5μ–10μ meters from
  the true location.

:class:`PositioningErrorModel` reproduces exactly this corruption process and
also produces the per-record ground-truth labels aligned with the generated
reports, giving the :class:`~repro.mobility.records.LabeledSequence` objects
used for training and evaluation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.geometry.point import IndoorPoint
from repro.indoor.floorplan import IndoorSpace
from repro.mobility.records import LabeledSequence, PositioningRecord
from repro.mobility.simulator import GroundTruthPoint, GroundTruthTrajectory


@dataclass
class PositioningErrorModel:
    """Configurable corruption of ground-truth trajectories into p-sequences.

    Parameters
    ----------
    max_period:
        Maximum positioning period ``T`` in seconds; the actual inter-report
        gap is drawn uniformly from ``[min_period, max_period]``.
    error:
        Positioning error factor ``μ`` in meters; regular reports are placed
        uniformly within a disk of radius ``μ`` around the true location.
    false_floor_probability:
        Probability that a report carries a wrong floor (paper: 3%).
    outlier_probability:
        Probability that a report is an outlier at 2.5μ–10μ meters (paper: 3%).
    min_period:
        Lower bound of the inter-report gap; defaults to 1 second.
    dropout_probability:
        Probability that, after a report, the device goes silent for a burst
        (battery saving, dead zones, sensor faults).  The burst length is
        drawn uniformly from ``dropout_duration`` and added on top of the
        regular inter-report gap.  The default 0 adds no randomness at all,
        so datasets generated without dropout are bitwise unchanged.
    dropout_duration:
        ``(min, max)`` burst length in seconds.
    multipath_probability:
        Probability that a report is a *multipath reflection*: instead of an
        unbiased disk sample, the estimate lands 2μ–``multipath_scale``·μ
        meters away along one fixed per-model bearing (±0.3 rad spread) —
        the spatially *biased* error a reflective wall or metal facade
        induces, which the paper's isotropic model cannot produce.
    multipath_scale:
        Upper displacement bound of a reflection, as a multiple of ``μ``.
    clock_skew:
        Half-width of a per-trajectory constant timestamp offset, drawn once
        per trajectory from ``[-clock_skew, +clock_skew]`` — a device whose
        clock runs fast or slow against the venue's.
    clock_jitter:
        Half-width of an independent per-report timestamp offset.  Jitter
        larger than the inter-report gap emits *out-of-order* raw streams,
        which only the raw API can carry (see below).
    duplicate_probability:
        Probability that a report is retransmitted by a flaky positioning
        gateway: an identical copy (same estimate, same timestamp) arrives
        up to ``duplicate_delay`` seconds later in the stream, *after*
        reports it chronologically precedes — the duplicate/out-of-order
        regime.
    duplicate_delay:
        Maximum retransmission delay in seconds.
    seed:
        Seed of the private random generator (deterministic corruption).

    The three adversarial regimes (multipath, clock skew/jitter, duplicates)
    all default *off* and draw nothing from the generator while disabled, so
    every dataset generated before they existed is bitwise unchanged.  Since
    jitter and duplicates can emit records out of timestamp order — which
    :class:`~repro.mobility.records.PositioningSequence` rejects by design —
    the corruption pipeline is split in two: :meth:`corrupt_trajectory_raw`
    returns the raw ``(record, region, event)`` stream in emission order,
    and :meth:`corrupt_trajectory` canonicalises it through
    :func:`repro.mobility.preprocessing.normalize_report_stream` (a pure,
    idempotent function that is the identity on benign streams).
    """

    max_period: float = 5.0
    error: float = 3.0
    false_floor_probability: float = 0.03
    outlier_probability: float = 0.03
    min_period: float = 1.0
    dropout_probability: float = 0.0
    dropout_duration: Tuple[float, float] = (30.0, 120.0)
    multipath_probability: float = 0.0
    multipath_scale: float = 6.0
    clock_skew: float = 0.0
    clock_jitter: float = 0.0
    duplicate_probability: float = 0.0
    duplicate_delay: float = 30.0
    seed: int = 29

    def __post_init__(self) -> None:
        if self.max_period < self.min_period or self.min_period <= 0:
            raise ValueError("periods must satisfy 0 < min_period <= max_period")
        if self.error < 0:
            raise ValueError("positioning error must be non-negative")
        for name in (
            "false_floor_probability",
            "outlier_probability",
            "dropout_probability",
            "multipath_probability",
            "duplicate_probability",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability, got {value}")
        low, high = self.dropout_duration
        if low < 0 or high < low:
            raise ValueError("dropout_duration must satisfy 0 <= min <= max")
        if self.multipath_scale <= 2.0:
            raise ValueError("multipath_scale must exceed the 2.0 lower bound")
        if self.clock_skew < 0 or self.clock_jitter < 0:
            raise ValueError("clock_skew and clock_jitter must be non-negative")
        if self.duplicate_delay < 0:
            raise ValueError("duplicate_delay must be non-negative")
        self._rng = random.Random(self.seed)
        # The reflection bearing comes from a *separate* generator so that
        # enabling multipath perturbs the main corruption stream only where
        # reflections actually fire, and disabled models draw nothing.
        self._multipath_angle = random.Random(self.seed ^ 0x5F3759DF).uniform(
            0.0, 2.0 * math.pi
        )

    # ------------------------------------------------------------------- API
    def corrupt_trajectory(
        self,
        trajectory: GroundTruthTrajectory,
        space: Optional[IndoorSpace] = None,
    ) -> Optional[LabeledSequence]:
        """Generate a labeled p-sequence from one ground-truth trajectory.

        Returns None when the trajectory is too short to produce at least two
        reports.  The ground-truth region/event labels attached to the output
        are those of the ground-truth sample closest in time to each report
        (the report's *true* whereabouts, not the noisy estimate).
        """
        triples = self.corrupt_trajectory_raw(trajectory, space)
        if triples is None:
            return None
        from repro.mobility.preprocessing import assemble_labeled_sequence

        return assemble_labeled_sequence(triples, object_id=trajectory.object_id)

    def corrupt_trajectory_raw(
        self,
        trajectory: GroundTruthTrajectory,
        space: Optional[IndoorSpace] = None,
    ) -> Optional[List[Tuple[PositioningRecord, int, str]]]:
        """Generate the raw report stream: ``(record, region, event)`` triples.

        The triples are in *emission* order, which under clock jitter or
        duplication is not timestamp order — exactly what a positioning
        gateway hands downstream before any cleaning.  Returns None when the
        trajectory is too short to produce at least two reports.
        """
        points = trajectory.points
        if len(points) < 2:
            return None
        triples: List[Tuple[PositioningRecord, int, str]] = []
        start = points[0].timestamp
        end = points[-1].timestamp
        # One constant offset per trajectory: this device's clock error.
        skew = (
            self._rng.uniform(-self.clock_skew, self.clock_skew)
            if self.clock_skew > 0.0
            else 0.0
        )
        t = start
        index = 0
        pending: List[Tuple[float, Tuple[PositioningRecord, int, str]]] = []
        while t <= end:
            if pending:
                # Retransmissions whose delay has elapsed arrive here, after
                # fresher reports — the stream is now out of timestamp order.
                due = [item for item in pending if item[0] <= t]
                if due:
                    pending = [item for item in pending if item[0] > t]
                    triples.extend(triple for _, triple in due)
            index = self._advance_index(points, index, t)
            truth = points[index]
            location = self._corrupt_location(truth.location, space)
            report_time = t + skew
            if self.clock_jitter > 0.0:
                report_time += self._rng.uniform(-self.clock_jitter, self.clock_jitter)
            triple = (
                PositioningRecord(location=location, timestamp=report_time),
                truth.region_id,
                truth.event,
            )
            triples.append(triple)
            if (
                self.duplicate_probability > 0.0
                and self._rng.random() < self.duplicate_probability
            ):
                arrival = t + self._rng.uniform(0.0, self.duplicate_delay)
                pending.append((arrival, triple))
            t += self._rng.uniform(self.min_period, self.max_period)
            # The zero-probability default draws nothing, keeping the random
            # stream — and therefore every existing dataset — bitwise intact.
            if self.dropout_probability > 0.0 and self._rng.random() < self.dropout_probability:
                t += self._rng.uniform(*self.dropout_duration)
        pending.sort(key=lambda item: item[0])
        triples.extend(triple for _, triple in pending)
        if len(triples) < 2:
            return None
        return triples

    def corrupt_population(
        self,
        trajectories: Sequence[GroundTruthTrajectory],
        space: Optional[IndoorSpace] = None,
    ) -> List[LabeledSequence]:
        """Corrupt many trajectories, skipping those too short to report twice."""
        results: List[LabeledSequence] = []
        for trajectory in trajectories:
            labeled = self.corrupt_trajectory(trajectory, space)
            if labeled is not None:
                results.append(labeled)
        return results

    # ------------------------------------------------------------- internals
    @staticmethod
    def _advance_index(
        points: Sequence[GroundTruthPoint], index: int, timestamp: float
    ) -> int:
        """Move ``index`` forward to the ground-truth sample closest to ``timestamp``."""
        n = len(points)
        while index + 1 < n and points[index + 1].timestamp <= timestamp:
            index += 1
        if index + 1 < n:
            current_gap = abs(points[index].timestamp - timestamp)
            next_gap = abs(points[index + 1].timestamp - timestamp)
            if next_gap < current_gap:
                return index + 1
        return index

    def _corrupt_location(
        self, location: IndoorPoint, space: Optional[IndoorSpace]
    ) -> IndoorPoint:
        rng = self._rng
        if (
            self.multipath_probability > 0.0
            and self.error > 0
            and rng.random() < self.multipath_probability
        ):
            # A reflection: displaced along the model's fixed bearing, the
            # direction the offending surface sits in.  Spatially *biased* —
            # repeated reflections all land on the same side of the truth.
            distance = rng.uniform(2.0 * self.error, self.multipath_scale * self.error)
            angle = self._multipath_angle + rng.uniform(-0.3, 0.3)
        else:
            if rng.random() < self.outlier_probability and self.error > 0:
                distance = rng.uniform(2.5 * self.error, 10.0 * self.error)
            else:
                distance = rng.uniform(0.0, self.error)
            angle = rng.uniform(0.0, 2.0 * math.pi)
        x = location.x + distance * math.cos(angle)
        y = location.y + distance * math.sin(angle)
        floor = location.floor
        if rng.random() < self.false_floor_probability:
            floor = self._false_floor(floor, space)
        return IndoorPoint(x, y, floor)

    def _false_floor(self, floor: int, space: Optional[IndoorSpace]) -> int:
        rng = self._rng
        offset = rng.choice([-2, -1, 1, 2])
        candidate = floor + offset
        if space is not None:
            floors = space.floors
            if floors:
                low, high = min(floors), max(floors)
                if low == high:
                    return floor  # single-floor venue: no false floor possible
                candidate = max(low, min(high, candidate))
                if candidate == floor:
                    candidate = floor + (1 if floor < high else -1)
        return candidate
