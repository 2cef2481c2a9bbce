"""Streaming annotation of one object's positioning records.

:class:`StreamSession` turns the batch ``predict_labels`` of any
:class:`repro.core.protocol.Annotator` into an online API: positioning
records are pushed one at a time (:meth:`StreamSession.add`), the session
re-decodes a sliding tail window of the sequence, and m-semantics are
*finalized* — published to the :class:`repro.service.store.SemanticsStore` —
once the window has moved past them, so queries and analytics see an
object's when-where-what while it is still moving.

How the window works
--------------------

With window ``W`` and guard ``g`` (``0 <= g < W``), after the ``n``-th record
arrives the session decodes the last ``min(n, W)`` records as a standalone
sub-sequence and *commits* the decoded labels of positions ``[s+g, n)`` where
``s = n - W`` (all of them while ``s == 0``).  The guard band discards the
first ``g`` decoded labels of a partial window: those positions sit at the
left edge of the decode, where ICM lacks left context, and they were already
committed by an earlier decode in which they sat deeper inside the window.
Every record's label therefore settles with at least ``g`` records of left
context and up to ``W - g - 1`` records of right context.

Positions left of the commit range are *frozen* — no later decode touches
them — and complete equal-label runs of frozen records are merged into
m-semantics (Figure 2) and published.  The run containing the newest frozen
record is held back, since upcoming records may extend it.

What a decode recomputes depends on the annotator.  A C2MN annotator hands
each session an append-only :class:`repro.crf.window.WindowState`: every
record's candidate regions, nearest region and ``fsm`` row, and every
step's length, time, speed and ``fst``/``fsc``/``fec`` tables, are prepared
once, when the record arrives.  Per window the state redoes only what
depends on the window's extent — ST-DBSCAN density labels, ``fem`` rows,
the turn flags at the window's two edges and the segment-statistics memo —
and then ICM re-decodes the whole window.  The labels equal those of
``predict_labels`` on the same window, which is what sessions over every
other annotator (the baselines) call.

Memory stays bounded: once a record is both published and outside every
future decode window, it is dropped from the session (the store holds the
durable output), so a windowed session retains O(window + pending-run)
records no matter how long the stream runs.  Pass ``keep_history=True`` to
retain everything — e.g. to compare streamed labels against a batch decode.

Exactness
---------

Decoding a tail window is an approximation with a precise limit: when the
window is at least the sequence length (or the session is created with
``exact=True``), every step decodes the full sequence and the stream yields,
after :meth:`StreamSession.finish`, *exactly* the m-semantics of batch
``annotate`` on the whole p-sequence.  The windowed path trades that for
per-record decode cost bounded by ``O(W)`` instead of ``O(n)`` (an exact
C2MN session still prepares each record only once);
``tests/test_service.py`` pins the record-level agreement,
``tests/test_window_state.py`` pins every window-state decode to
``predict_labels``, and the repository benchmark (``perfbench/``) times the
windowed path over HTTP.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional, Tuple

from repro.core.protocol import Annotator
from repro.geometry.point import IndoorPoint
from repro.mobility.records import MSemantics, PositioningRecord, PositioningSequence
from repro.service.store import SemanticsStore


class StreamSession:
    """Online annotation of one object; create via ``AnnotationService.session``."""

    def __init__(
        self,
        annotator: Annotator,
        object_id: str,
        store: SemanticsStore,
        *,
        window: int = 48,
        guard: Optional[int] = None,
        exact: bool = False,
        keep_history: bool = False,
        on_finish: Optional[Callable[["StreamSession"], None]] = None,
    ):
        if window < 2:
            raise ValueError("window must be at least 2 records")
        if guard is None:
            guard = window // 4
        if not 0 <= guard < window:
            raise ValueError("guard must satisfy 0 <= guard < window")
        if not annotator.is_fitted:
            raise ValueError("streaming requires a fitted annotator")
        self.annotator = annotator
        self.object_id = object_id
        self.store = store
        self.window = window
        self.guard = guard
        self.exact = exact
        self.keep_history = keep_history
        # Annotators with a window-state factory (C2MN) decode each window
        # from append-only state; the rest re-run predict_labels on it.
        factory = getattr(annotator, "window_state", None)
        self._state = factory(object_id) if factory is not None else None
        # Retained suffix of the stream; absolute position i lives at list
        # index i - _offset.  _offset stays 0 when keep_history is set.
        self._records: List[PositioningRecord] = []
        self._regions: List[int] = []
        self._events: List[str] = []
        self._offset = 0
        self._total = 0
        self._published_records = 0
        self._decodes = 0
        self._closed = False
        self._on_finish = on_finish
        # Makes finish() atomic: a drain (AnnotationService.finish_all) racing
        # a client-initiated finish must flush the pending runs exactly once.
        # Record ingestion stays unlocked — records of one session must be
        # fed from one caller at a time (the HTTP layer enforces this with a
        # per-session lock).
        self._finish_lock = threading.Lock()

    # ------------------------------------------------------------ properties
    @property
    def record_count(self) -> int:
        """Total records ingested over the session's lifetime."""
        return self._total

    @property
    def retained_record_count(self) -> int:
        """Records currently held in memory (bounded unless ``keep_history``)."""
        return len(self._records)

    @property
    def published_record_count(self) -> int:
        """Records whose m-semantics have been finalized and published."""
        return self._published_records

    @property
    def decode_count(self) -> int:
        """How many (windowed or full) decodes the session has run."""
        return self._decodes

    @property
    def is_closed(self) -> bool:
        return self._closed

    @property
    def labels(self) -> Tuple[List[int], List[str]]:
        """Snapshot of the retained record-level labels (frozen + provisional).

        Covers positions ``labels_start .. record_count``; with
        ``keep_history=True`` (or an exact session) that is the full stream.
        """
        return list(self._regions), list(self._events)

    @property
    def labels_start(self) -> int:
        """Absolute position of the first retained record/label."""
        return self._offset

    @property
    def sequence(self) -> PositioningSequence:
        """The retained records as a p-sequence (raises when empty)."""
        return PositioningSequence(
            self._records, object_id=self.object_id, sort=False
        )

    # -------------------------------------------------------------- streaming
    def add(self, record: PositioningRecord) -> List[MSemantics]:
        """Ingest one positioning record; return the m-semantics it finalized.

        Records must arrive in time order.  The returned (possibly empty)
        list has also been published to the store.
        """
        if self._closed:
            raise ValueError("cannot add records to a finished session")
        if self._records and record.timestamp < self._records[-1].timestamp:
            raise ValueError("streaming records must arrive in time order")
        # Read once: a concurrent finish() may release the state mid-add.
        state = self._state
        if state is not None:
            state.append(record)
        self._records.append(record)
        self._regions.append(0)
        self._events.append("pass")
        self._total += 1
        self._decode_tail(state)
        finalized = self._finalize(upto=self._frozen_boundary())
        self._compact()
        return finalized

    def add_point(
        self, x: float, y: float, timestamp: float, *, floor: int = 0
    ) -> List[MSemantics]:
        """Convenience wrapper building the :class:`PositioningRecord` inline."""
        return self.add(
            PositioningRecord(location=IndoorPoint(x, y, floor), timestamp=timestamp)
        )

    def extend(self, records) -> List[MSemantics]:
        """Ingest many records; return everything they finalized, in order."""
        finalized: List[MSemantics] = []
        for record in records:
            finalized.extend(self.add(record))
        return finalized

    def finish(self) -> List[MSemantics]:
        """Close the stream and flush the remaining m-semantics.

        The labels committed by the last decode stand; every still-pending
        run is merged, published and returned.  For ``exact`` sessions (or a
        window at least the sequence length) the concatenation of everything
        published equals batch ``annotate`` on the full sequence.
        """
        with self._finish_lock:
            if self._closed:
                return []
            self._closed = True
            self._state = None
            flushed = self._finalize(upto=self._total)
        if self._on_finish is not None:
            self._on_finish(self)
        return flushed

    # ------------------------------------------------------------- internals
    def _window_start(self, n: int) -> int:
        if self.exact or self.window >= n:
            return 0
        return n - self.window

    def _frozen_boundary(self) -> int:
        """First position a future decode may still overwrite."""
        start = self._window_start(self._total)
        return 0 if start == 0 else start + self.guard

    def _decode_tail(self, state) -> None:
        """Re-decode the tail window and commit labels outside the guard band.

        With a window state only the newest record was prepared (by
        :meth:`add`); the state assembles the window from retained rows and
        re-runs ICM on it.  Without one, ``predict_labels`` prepares and
        decodes the whole window.  Both give the same labels.
        """
        n = self._total
        start = self._window_start(n)
        if state is not None:
            regions, events = state.decode(start)
        else:
            tail = PositioningSequence(
                self._records[start - self._offset :],
                object_id=self.object_id,
                sort=False,
            )
            regions, events = self.annotator.predict_labels(tail)
        self._decodes += 1
        commit_from = 0 if start == 0 else start + self.guard
        for i in range(commit_from, n):
            self._regions[i - self._offset] = regions[i - start]
            self._events[i - self._offset] = events[i - start]

    def _finalize(self, *, upto: int) -> List[MSemantics]:
        """Merge and publish the complete runs in ``[published, upto)``.

        Unless the session is closed, the run touching ``upto`` is held back:
        later records may extend it (same labels) or settle its end time.
        """
        start = self._published_records
        if upto <= start:
            return []
        offset = self._offset
        finalized: List[MSemantics] = []
        run_start = start
        for i in range(start + 1, upto + 1):
            run_ends = (
                i == upto
                or self._regions[i - offset] != self._regions[run_start - offset]
                or self._events[i - offset] != self._events[run_start - offset]
            )
            if not run_ends:
                continue
            # The final run is only safe once nothing can extend it.
            if i == upto and not (self._closed and upto == self._total):
                break
            finalized.append(
                MSemantics(
                    region_id=self._regions[run_start - offset],
                    start_time=self._records[run_start - offset].timestamp,
                    end_time=self._records[i - 1 - offset].timestamp,
                    event=self._events[run_start - offset],
                    record_count=i - run_start,
                )
            )
            run_start = i
        if finalized:
            self.store.publish(self.object_id, finalized)
            self._published_records = run_start
        return finalized

    def _compact(self) -> None:
        """Drop records that are published *and* outside every future window.

        Future decodes read from the current window start onward and future
        finalization reads from the first unpublished record onward, so
        everything before the older of the two can go.  The store holds the
        durable m-semantics; ``keep_history=True`` disables dropping.
        """
        if self.keep_history:
            return
        drop_to = min(self._published_records, self._window_start(self._total))
        cut = drop_to - self._offset
        if cut <= 0:
            return
        del self._records[:cut]
        del self._regions[:cut]
        del self._events[:cut]
        self._offset = drop_to

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        mode = "exact" if self.exact else f"window={self.window},guard={self.guard}"
        return (
            f"StreamSession({self.object_id!r}, {mode}, records={self._total}, "
            f"published={self._published_records}, closed={self._closed})"
        )
