"""ST-DBSCAN: density-based clustering of spatio-temporal positioning records.

The paper (Section III-B, feature ``fem``) uses ST-DBSCAN [3] to classify each
positioning record as a *core*, *border* or *noise* point with respect to a
spatio-temporal density criterion:

    "A cluster is formed only if it contains at least ``ptm`` data instances
    and any two instances in it are within the spatial distance ``εs`` and
    temporal distance ``εt`` from each other."

Records clustered as core/border points indicate a *stay*; noise points
indicate a *pass*.  The same clustering also initialises the event variable E
in the alternate learning algorithm (Algorithm 1) and drives the ``DC`` part
of the HMM+DC baseline.

This implementation follows the classic DBSCAN expansion procedure with the
neighbourhood predicate replaced by the conjunction of the spatial and
temporal thresholds.  Only planar distance is used for the spatial part —
false floor values should not break stay detection, exactly as in the paper's
setting where clustering is applied to the raw uncertain records.

The labels the expansion produces follow a local rule: a record is *core*
when at least ``min_points`` records (itself included) lie within both
thresholds of it, *border* when it is not core but one of those neighbours
is, and *noise* otherwise.  :class:`StreamDensity` applies that rule to the
tail windows of a growing time-ordered stream, keeping each record's
neighbour list as records arrive instead of clustering every window afresh.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.mobility.records import PositioningRecord, PositioningSequence

DENSITY_CORE = "core"
DENSITY_BORDER = "border"
DENSITY_NOISE = "noise"

_UNVISITED = -2
_NOISE = -1


@dataclass
class STDBSCANResult:
    """Clustering output aligned with the input record order."""

    cluster_ids: List[int]
    density_labels: List[str]

    @property
    def n_clusters(self) -> int:
        return len({c for c in self.cluster_ids if c >= 0})

    def records_in_cluster(self, cluster_id: int) -> List[int]:
        """Return the record indexes assigned to ``cluster_id``."""
        return [i for i, c in enumerate(self.cluster_ids) if c == cluster_id]


class STDBSCAN:
    """Spatio-temporal DBSCAN over positioning records.

    Parameters
    ----------
    eps_spatial:
        Spatial distance threshold ``εs`` in meters (paper: 8 m for the mall).
    eps_temporal:
        Temporal distance threshold ``εt`` in seconds (paper: 60 s).
    min_points:
        Minimum number of points ``ptm`` to form a dense neighbourhood
        (paper: 4).  The point itself counts towards the threshold, as in the
        original DBSCAN formulation.
    """

    def __init__(self, eps_spatial: float = 8.0, eps_temporal: float = 60.0, min_points: int = 4):
        if eps_spatial <= 0 or eps_temporal <= 0:
            raise ValueError("eps thresholds must be positive")
        if min_points < 1:
            raise ValueError("min_points must be at least 1")
        self.eps_spatial = eps_spatial
        self.eps_temporal = eps_temporal
        self.min_points = min_points

    # ------------------------------------------------------------------- API
    def fit(self, sequence: Sequence[PositioningRecord] | PositioningSequence) -> STDBSCANResult:
        """Cluster the records and classify each as core/border/noise."""
        records = list(sequence)
        n = len(records)
        cluster_ids = [_UNVISITED] * n
        is_core = [False] * n
        neighbourhoods: Dict[int, List[int]] = {}

        def neighbours_of(index: int) -> List[int]:
            cached = neighbourhoods.get(index)
            if cached is None:
                cached = self._region_query(records, index)
                neighbourhoods[index] = cached
            return cached

        next_cluster = 0
        for index in range(n):
            if cluster_ids[index] != _UNVISITED:
                continue
            neighbours = neighbours_of(index)
            if len(neighbours) < self.min_points:
                cluster_ids[index] = _NOISE
                continue
            # Start a new cluster and expand it.
            is_core[index] = True
            cluster_ids[index] = next_cluster
            frontier = [j for j in neighbours if j != index]
            position = 0
            while position < len(frontier):
                j = frontier[position]
                position += 1
                if cluster_ids[j] == _NOISE:
                    cluster_ids[j] = next_cluster  # border point reached from a core
                if cluster_ids[j] != _UNVISITED:
                    continue
                cluster_ids[j] = next_cluster
                j_neighbours = neighbours_of(j)
                if len(j_neighbours) >= self.min_points:
                    is_core[j] = True
                    frontier.extend(k for k in j_neighbours if cluster_ids[k] in (_UNVISITED, _NOISE))
            next_cluster += 1

        density_labels = []
        for index in range(n):
            if cluster_ids[index] == _NOISE or cluster_ids[index] == _UNVISITED:
                cluster_ids[index] = _NOISE
                density_labels.append(DENSITY_NOISE)
            elif is_core[index]:
                density_labels.append(DENSITY_CORE)
            else:
                density_labels.append(DENSITY_BORDER)
        return STDBSCANResult(cluster_ids=cluster_ids, density_labels=density_labels)

    def density_labels(
        self, sequence: Sequence[PositioningRecord] | PositioningSequence
    ) -> List[str]:
        """Convenience wrapper returning only the core/border/noise labels."""
        return self.fit(sequence).density_labels

    # ------------------------------------------------------------- internals
    def _region_query(self, records: List[PositioningRecord], index: int) -> List[int]:
        """Return the indexes within both εs and εt of record ``index`` (inclusive)."""
        center = records[index]
        neighbours: List[int] = []
        for j, other in enumerate(records):
            if abs(other.timestamp - center.timestamp) > self.eps_temporal:
                continue
            if center.planar_distance_to(other) > self.eps_spatial:
                continue
            neighbours.append(j)
        return neighbours


class StreamDensity:
    """ST-DBSCAN density labels of the tail windows of a time-ordered stream.

    Records arrive with non-decreasing timestamps (:meth:`append`), so each
    new record finds its neighbours with a backward walk that stops at the
    first record more than ``εt`` older, and adds itself to theirs.
    :meth:`labels` drops the rows left of a window start and classifies the
    rest by the local core/border/noise rule, counting only neighbours
    inside the window.  The labels equal
    ``clusterer.density_labels(window)`` for every window ``[start, end)``
    of the stream with non-decreasing ``start``.
    """

    def __init__(self, clusterer: STDBSCAN):
        self._clusterer = clusterer
        # Retained rows; absolute position i lives at list index i - _offset.
        self._records: List[PositioningRecord] = []
        # Per retained row: absolute positions of its neighbours at or after
        # the current window start, ascending, the row itself excluded.
        self._neighbours: List[List[int]] = []
        self._offset = 0

    def __len__(self) -> int:
        return len(self._records)

    def append(self, record: PositioningRecord) -> None:
        """Add the newest record of the stream."""
        records = self._records
        if records and record.timestamp < records[-1].timestamp:
            raise ValueError("stream records must arrive in time order")
        position = self._offset + len(records)
        left: List[int] = []
        for j in range(len(records) - 1, -1, -1):
            other = records[j]
            if record.timestamp - other.timestamp > self._clusterer.eps_temporal:
                break
            if record.planar_distance_to(other) <= self._clusterer.eps_spatial:
                left.append(self._offset + j)
                self._neighbours[j].append(position)
        left.reverse()
        records.append(record)
        self._neighbours.append(left)

    def labels(self, start: int) -> List[str]:
        """Density labels of the window from absolute position ``start`` on.

        Rows left of ``start`` are dropped for good, so ``start`` must not
        decrease from one call to the next.
        """
        cut = start - self._offset
        if cut > 0:
            del self._records[:cut]
            del self._neighbours[:cut]
            self._offset = start
            for neighbours in self._neighbours:
                del neighbours[: bisect_left(neighbours, start)]
        min_points = self._clusterer.min_points
        core = [len(neighbours) + 1 >= min_points for neighbours in self._neighbours]
        labels: List[str] = []
        for i, neighbours in enumerate(self._neighbours):
            if core[i]:
                labels.append(DENSITY_CORE)
            elif any(core[j - self._offset] for j in neighbours):
                labels.append(DENSITY_BORDER)
            else:
                labels.append(DENSITY_NOISE)
        return labels
