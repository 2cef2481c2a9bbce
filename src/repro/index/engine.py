"""The incremental semantic-region index: inverted postings over m-semantics.

:class:`SemanticsIndex` maintains, for every region, a time-sorted list of
*visit postings* — one ``(start_time, end_time, object_id)`` triple per stay
m-semantics — plus one ledger per object (its m-semantics in arrival order,
from which pair queries read per-object region sets) and exact integer
counters (stay/pass totals, collapsed stay transitions) for the analytics
fast paths.  It is built either incrementally (``add`` on every
``SemanticsStore.publish``) or in bulk from batch ``annotate_many`` output or
a materialised scenario (:meth:`SemanticsIndex.from_semantics`).

Every mutation is a delta on what queries read: ``add`` inserts into sorted
buckets in place and adds to each memoised pair counter the pairs the
object gains inside that counter's interval and filter; ``remove`` takes
the object's postings and pairs back out.  No query pays for the publish
before it.

Queries answered from the index are *bit-identical* to the linear scan in
:mod:`repro.queries`: the same visits are counted (a stay contributes when
its time period intersects the closed query interval), ranked with the same
``(-count, key)`` order, and ties at rank k resolve identically.  TkPRQ adds
threshold-style early termination: regions are visited in descending order
of their total posting count (an upper bound on any interval-restricted
count), so once the running top-k cannot be displaced the remaining regions
are never touched.

All public methods take the index's internal lock, so a query always sees a
consistent snapshot even while streaming sessions keep publishing; see
:mod:`repro.service.store` for the store-side locking discipline.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right, insort
from collections import Counter, OrderedDict, defaultdict
from heapq import heappush, heapreplace
from itertools import combinations
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.mobility.records import EVENT_STAY, MSemantics

#: A visit posting: the stay's time period plus the object that stayed.
Posting = Tuple[float, float, str]

RegionPair = Tuple[int, int]


class _RegionBucket:
    """Postings of one region, kept sorted by start time once queried.

    Until the first bounded query a bucket only appends, so a bulk build
    pays one sort rather than one insert per posting.  That query sorts the
    postings and builds the arrays its bisects need (`starts` aligned with
    the postings, `ends` independently sorted); from then on :meth:`add`
    and :meth:`discard` keep all three sorted in place.
    """

    __slots__ = ("postings", "_starts", "_ends")

    def __init__(self) -> None:
        self.postings: List[Posting] = []
        self._starts: Optional[List[float]] = None
        self._ends: Optional[List[float]] = None

    def add(self, posting: Posting) -> None:
        if self._starts is None:
            self.postings.append(posting)
            return
        slot = bisect_right(self.postings, posting)
        self.postings.insert(slot, posting)
        self._starts.insert(slot, posting[0])
        insort(self._ends, posting[1])

    def discard(self, posting: Posting) -> None:
        """Drop one posting, which must be present."""
        if self._starts is None:
            self.postings.remove(posting)
            return
        slot = bisect_left(self.postings, posting)
        del self.postings[slot]
        del self._starts[slot]
        del self._ends[bisect_left(self._ends, posting[1])]

    def _ensure(self) -> None:
        if self._starts is None:
            self.postings.sort()
            self._starts = [posting[0] for posting in self.postings]
            self._ends = sorted(posting[1] for posting in self.postings)

    @property
    def total(self) -> int:
        """Total visit count — the upper bound for any interval restriction."""
        return len(self.postings)

    def count_in(self, start: Optional[float], end: Optional[float]) -> int:
        """Visits whose period intersects the closed interval ``[start, end]``.

        A posting is excluded when it ends before ``start`` or begins after
        ``end``; for ``start <= end`` the two exclusion sets are disjoint
        (a posting cannot do both), so the count is one subtraction per
        bound over the sorted endpoint arrays.  An inverted interval
        (``start > end``) would double-subtract, so that rare case counts
        by direct iteration — same answer as the scan's filter.
        """
        if start is None and end is None:
            return len(self.postings)
        self._ensure()
        if start is not None and end is not None and start > end:
            return sum(
                1
                for posting in self.postings
                if posting[0] <= end and posting[1] >= start
            )
        count = len(self.postings)
        if end is not None:
            count -= len(self.postings) - bisect_right(self._starts, end)
        if start is not None:
            count -= bisect_left(self._ends, start)
        return count

    def objects_in(self, start: Optional[float], end: Optional[float]) -> Set[str]:
        """Distinct objects with at least one visit intersecting the interval."""
        self._ensure()
        if end is not None:
            candidates = self.postings[: bisect_right(self._starts, end)]
        else:
            candidates = self.postings
        if start is None:
            return {posting[2] for posting in candidates}
        return {posting[2] for posting in candidates if posting[1] >= start}


def _stayed_regions(
    semantics: Iterable[MSemantics],
    start: Optional[float],
    end: Optional[float],
    query_regions: Optional[Set[int]],
) -> Set[int]:
    """Regions stayed at within the interval and filter — the scan's
    per-object visited set."""
    return {
        ms.region_id
        for ms in semantics
        if ms.event == EVENT_STAY
        and (query_regions is None or ms.region_id in query_regions)
        and (start is None or ms.end_time >= start)
        and (end is None or ms.start_time <= end)
    }


def _gained_pairs(held: Set[int], joining: Set[int]) -> Iterator[RegionPair]:
    """The region pairs a visited set gains when ``joining`` joins ``held``."""
    fresh = sorted(joining - held)
    for position, region in enumerate(fresh):
        for other in held:
            yield (region, other) if region < other else (other, region)
        for other in fresh[position + 1:]:
            yield (region, other)


def _bump(counter: Counter, key, delta: int) -> None:
    """Add ``delta`` to one count and delete it at zero, so the counter
    equals a fresh rebuild's."""
    remaining = counter[key] + delta
    if remaining:
        counter[key] = remaining
    else:
        del counter[key]


def _last_stay(semantics: Sequence[MSemantics]) -> Optional[int]:
    """The region of the last stay, where the next transition starts."""
    for ms in reversed(semantics):
        if ms.event == EVENT_STAY:
            return ms.region_id
    return None


class SemanticsIndex:
    """Inverted + interval index over stay m-semantics, incrementally maintained.

    Feed it *all* m-semantics (stays and passes): stays become visit
    postings and drive the top-k query engines; both event kinds feed the
    exact per-region counters behind the analytics fast paths.
    """

    #: Memoised pair counters kept at once.  Every publish updates each of
    #: them, so the memo is small and evicts the least recently used; it
    #: holds the query bench suite's 7 pair shapes with room to spare.
    _PAIR_CACHE_LIMIT = 16

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._regions: Dict[int, _RegionBucket] = {}
        self._stay_counts: Counter = Counter()
        self._pass_counts: Counter = Counter()
        self._transitions: Counter = Counter()
        self._entries = 0
        # One ledger per object: its m-semantics in arrival order, the same
        # objects the store holds.  What remove unwinds, the last stay a new
        # transition starts from and the region sets of pair queries all
        # derive from it.
        self._ledgers: Dict[str, List[MSemantics]] = {}
        # Pair counters per (start, end, filter), least recently used first.
        # The per-object set expansion runs once per key; after that every
        # add/remove applies only the object's pair difference.
        self._pair_cache: "OrderedDict[Tuple, Counter]" = OrderedDict()

    # -------------------------------------------------------------- building
    def add(self, object_id: str, semantics: Iterable[MSemantics]) -> None:
        """Ingest one object's m-semantics, in arrival order.

        Stays join their region buckets (in place once a bucket is sorted)
        and every memoised pair counter gains the pairs they add to the
        object's visited set inside its key.
        """
        with self._lock:
            entries = list(semantics)
            if not entries:
                return
            ledger = self._ledgers.setdefault(object_id, [])
            self._shift_pairs(ledger, entries, +1)
            last = _last_stay(ledger)
            for ms in entries:
                self._entries += 1
                region = ms.region_id
                if ms.event != EVENT_STAY:
                    self._pass_counts[region] += 1
                    continue
                self._stay_counts[region] += 1
                bucket = self._regions.get(region)
                if bucket is None:
                    bucket = self._regions[region] = _RegionBucket()
                bucket.add((ms.start_time, ms.end_time, object_id))
                if last is not None and last != region:
                    self._transitions[(last, region)] += 1
                last = region
            ledger.extend(entries)

    def add_many(
        self, items: Iterable[Tuple[str, Sequence[MSemantics]]]
    ) -> None:
        """Bulk-ingest ``(object_id, semantics)`` pairs."""
        with self._lock:
            for object_id, semantics in items:
                self.add(object_id, semantics)

    def rebuild(self, items: Iterable[Tuple[str, Sequence[MSemantics]]]) -> None:
        """Drop everything, the pair memo included, and re-ingest
        (``SemanticsStore.clear()`` with no object id)."""
        with self._lock:
            self._regions.clear()
            self._stay_counts.clear()
            self._pass_counts.clear()
            self._transitions.clear()
            self._entries = 0
            self._ledgers.clear()
            self._pair_cache.clear()
            self.add_many(items)

    def remove(self, object_id: str) -> bool:
        """Incrementally drop one object's contribution — O(object), not O(total).

        The object's ledger says what to unwind: each of its postings leaves
        its bucket (in place, keeping sorted buckets sorted), the
        stay/pass/transition counters and every memoised pair counter are
        decremented by what it contributed, and any count that reaches zero
        is deleted, so every counter equals a fresh rebuild's.  Returns
        ``True`` when the object was present.
        ``SemanticsStore.clear(object_id)`` calls this instead of rebuilding
        the whole index.
        """
        with self._lock:
            ledger = self._ledgers.pop(object_id, None)
            if ledger is None:
                return False
            self._shift_pairs((), ledger, -1)
            self._entries -= len(ledger)
            last = None
            for ms in ledger:
                region = ms.region_id
                if ms.event != EVENT_STAY:
                    _bump(self._pass_counts, region, -1)
                    continue
                _bump(self._stay_counts, region, -1)
                bucket = self._regions[region]
                bucket.discard((ms.start_time, ms.end_time, object_id))
                if not bucket.postings:
                    del self._regions[region]
                if last is not None and last != region:
                    _bump(self._transitions, (last, region), -1)
                last = region
            return True

    def _shift_pairs(
        self, held: Sequence[MSemantics], joining: Sequence[MSemantics], sign: int
    ) -> None:
        """Move every memoised pair counter by the pairs one object's visited
        set gains when ``joining`` joins ``held`` (``sign`` -1 takes them
        out).  A key that no joining stay falls in is skipped."""
        for (start, end, query_regions), counts in self._pair_cache.items():
            arriving = _stayed_regions(joining, start, end, query_regions)
            if not arriving:
                continue
            present = _stayed_regions(held, start, end, query_regions)
            for pair in _gained_pairs(present, arriving):
                _bump(counts, pair, sign)

    @classmethod
    def from_semantics(cls, semantics_per_object) -> "SemanticsIndex":
        """Bulk-build from any query input shape.

        Mappings keep their object ids; plain iterables (batch
        ``annotate_many`` output, ground-truth lists) get positional ids.
        """
        index = cls()
        index.add_many(iter_object_semantics(semantics_per_object))
        return index

    # ------------------------------------------------------------ statistics
    @property
    def total_entries(self) -> int:
        """All ingested m-semantics, stays and passes."""
        with self._lock:
            return self._entries

    @property
    def total_postings(self) -> int:
        """All stay visit postings across regions."""
        with self._lock:
            return sum(bucket.total for bucket in self._regions.values())

    def stats(self) -> Dict[str, int]:
        """Sizing summary: regions, objects (with a stay), postings, entries."""
        with self._lock:
            return {
                "regions": len(self._regions),
                "objects": sum(
                    any(ms.event == EVENT_STAY for ms in ledger)
                    for ledger in self._ledgers.values()
                ),
                "postings": sum(b.total for b in self._regions.values()),
                "entries": self._entries,
            }

    # ------------------------------------------------------------- counting
    def count_visits(
        self,
        *,
        start: Optional[float] = None,
        end: Optional[float] = None,
        query_regions: Optional[Set[int]] = None,
    ) -> Counter:
        """Per-region stay visit counts — the indexed mirror of
        :func:`repro.queries.tkprq.count_region_visits`."""
        with self._lock:
            counts: Counter = Counter()
            for region in self._candidate_regions(query_regions):
                visits = self._regions[region].count_in(start, end)
                if visits:
                    counts[region] = visits
            return counts

    def count_region(
        self,
        region: int,
        *,
        start: Optional[float] = None,
        end: Optional[float] = None,
    ) -> int:
        """Exact visit count of one region within the interval (0 if absent).

        The random-access half of the scatter-gather threshold merge
        (:mod:`repro.store.gather`): once a region surfaces in any shard's
        bound stream, every other shard answers this point lookup in
        O(log postings).
        """
        with self._lock:
            bucket = self._regions.get(region)
            if bucket is None:
                return 0
            return bucket.count_in(start, end)

    def region_bounds(
        self, query_regions: Optional[Set[int]] = None
    ) -> List[Tuple[int, int]]:
        """``(total_postings, region)`` pairs, descending total then ascending id.

        A region's total posting count upper-bounds its count under any
        interval restriction, so this ordered list is the shard-local bound
        stream that drives threshold-style early termination — both in
        :meth:`top_k_regions` (single index) and in the per-shard merge of
        :mod:`repro.store.gather`.
        """
        with self._lock:
            candidates = self._candidate_regions(query_regions)
            candidates.sort(key=lambda region: (-self._regions[region].total, region))
            return [(self._regions[region].total, region) for region in candidates]

    def count_pairs(
        self,
        *,
        start: Optional[float] = None,
        end: Optional[float] = None,
        query_regions: Optional[Set[int]] = None,
    ) -> Counter:
        """Per unordered region pair, the objects that stayed at both — the
        indexed mirror of :func:`repro.queries.tkfrpq.count_region_pairs`.

        The first query of a key expands pairs once per distinct visited-
        region set, weighted by how many objects share it.  The counter is
        then memoised per interval/filter (the
        :attr:`_PAIR_CACHE_LIMIT` most recently used keys) and every
        add/remove moves it by the one object's pair difference, deleting
        pairs that reach zero — so it always equals a rebuild's counter,
        key for key.  Returns a copy.
        """
        with self._lock:
            return Counter(self._pair_counts(start, end, query_regions))

    def _pair_counts(
        self,
        start: Optional[float],
        end: Optional[float],
        query_regions: Optional[Set[int]],
    ) -> Counter:
        key = (
            start,
            end,
            None if query_regions is None else frozenset(query_regions),
        )
        cached = self._pair_cache.get(key)
        if cached is not None:
            self._pair_cache.move_to_end(key)
            return cached
        set_counts: Counter = Counter(
            frozenset(visited)
            for visited in self._visited_region_sets(start, end, query_regions)
        )
        counts: Counter = Counter()
        for visited, multiplicity in set_counts.items():
            for pair in combinations(sorted(visited), 2):
                counts[pair] += multiplicity
        self._pair_cache[key] = counts
        if len(self._pair_cache) > self._PAIR_CACHE_LIMIT:
            self._pair_cache.popitem(last=False)
        return counts

    def _candidate_regions(self, query_regions: Optional[Set[int]]) -> List[int]:
        if query_regions is None:
            return list(self._regions)
        return [region for region in query_regions if region in self._regions]

    def _visited_region_sets(
        self,
        start: Optional[float],
        end: Optional[float],
        query_regions: Optional[Set[int]],
    ) -> Iterable[Set[int]]:
        """Per-object sets of regions visited within the interval."""
        if start is None and end is None:
            # Full range: every object's stays count, read from its ledger.
            return [
                _stayed_regions(ledger, None, None, query_regions)
                for ledger in self._ledgers.values()
            ]
        # Bounded: region-major — each bucket's bisect prunes by start time,
        # so only postings near the interval are touched.
        visited: Dict[str, Set[int]] = defaultdict(set)
        for region in self._candidate_regions(query_regions):
            for object_id in self._regions[region].objects_in(start, end):
                visited[object_id].add(region)
        return list(visited.values())

    # ---------------------------------------------------------------- top-k
    def top_k_regions(
        self,
        k: int,
        *,
        start: Optional[float] = None,
        end: Optional[float] = None,
        query_regions: Optional[Set[int]] = None,
    ) -> List[Tuple[int, int]]:
        """TkPRQ with threshold-style early termination.

        Regions are examined in descending order of total posting count,
        which upper-bounds any interval-restricted count; once k answers are
        held and the next bound is strictly below the weakest of them, no
        remaining region can enter the top-k (equal bounds continue, because
        a tie is broken by the smaller region id).  Returns the exact
        ``sorted(counts.items(), key=(-count, region))[:k]`` of the scan.
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        with self._lock:
            candidates = self._candidate_regions(query_regions)
            candidates.sort(key=lambda region: (-self._regions[region].total, region))
            # Min-heap of the running top-k; the root is the weakest member
            # ((count, -region): lowest count first, largest id among ties).
            heap: List[Tuple[int, int]] = []
            for region in candidates:
                bucket = self._regions[region]
                if len(heap) == k and bucket.total < heap[0][0]:
                    break
                count = bucket.count_in(start, end)
                if count == 0:
                    continue
                entry = (count, -region)
                if len(heap) < k:
                    heappush(heap, entry)
                elif entry > heap[0]:
                    heapreplace(heap, entry)
            ranked = sorted(heap, key=lambda entry: (-entry[0], -entry[1]))
            return [(-negated, count) for count, negated in ranked]

    def top_k_pairs(
        self,
        k: int,
        *,
        start: Optional[float] = None,
        end: Optional[float] = None,
        query_regions: Optional[Set[int]] = None,
    ) -> List[Tuple[RegionPair, int]]:
        """TkFRPQ from the per-object region sets (bit-identical to the scan)."""
        if k < 1:
            raise ValueError("k must be at least 1")
        with self._lock:
            counts = self._pair_counts(start, end, query_regions)
            ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
            return ranked[:k]

    # ------------------------------------------------------------- analytics
    def conversion_counters(self) -> Tuple[Counter, Counter]:
        """Copies of the per-region (stay, pass) counters."""
        with self._lock:
            return Counter(self._stay_counts), Counter(self._pass_counts)

    def transition_counts(self) -> Counter:
        """Copy of the collapsed stay-to-stay transition counter."""
        with self._lock:
            return Counter(self._transitions)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        stats = self.stats()
        return (
            f"SemanticsIndex(regions={stats['regions']}, "
            f"objects={stats['objects']}, postings={stats['postings']})"
        )


def iter_object_semantics(
    semantics_per_object,
) -> Iterable[Tuple[str, Sequence[MSemantics]]]:
    """Normalise any query input shape into ``(object_id, semantics)`` pairs.

    Mappings contribute their items; store-like objects (anything with an
    ``as_dict`` snapshot method) contribute theirs; plain iterables — batch
    ``annotate_many`` output, ground-truth lists — get positional ids.
    """
    if isinstance(semantics_per_object, Mapping):
        return semantics_per_object.items()
    as_dict = getattr(semantics_per_object, "as_dict", None)
    if callable(as_dict):
        return as_dict().items()
    return (
        (f"object-{position}", semantics)
        for position, semantics in enumerate(semantics_per_object)
    )
