"""Spans kept in memory around the benchmark's calls into each layer.

Spans nest per thread.  A layer's self time is the time of its spans minus
the part their child spans cover.  Work counts ride on the span that did
the work, so one time window selects both.  Nothing here reaches into the
program: the spans wrap the public calls the benchmark makes.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional


class Tracer:
    """An in-memory span recorder, safe to use from several threads."""

    def __init__(self):
        self.spans: List[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, **counts):
        """Record one span; the yielded record's ``counts`` may be added to."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = {
            "name": name,
            "start": time.monotonic(),
            "end": None,
            "parent": stack[-1] if stack else None,
            "counts": counts,
        }
        with self._lock:
            record["id"] = len(self.spans)
            self.spans.append(record)
        stack.append(record["id"])
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.monotonic()

    def dump(self, path) -> None:
        """Write every span as JSON (done once, when the run ends)."""
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(json.dumps(self.spans))


def load_spans(path) -> List[dict]:
    return json.loads(Path(path).read_text())


def summarize(
    spans: List[dict],
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> Dict[str, dict]:
    """Per span name: calls, total and self seconds, and summed counts.

    Only finished spans that started in ``[since, until)`` count; each
    span's self time subtracts all of its finished children.  Names with no
    span in the window are absent; read them through :func:`layer`.
    """
    child_seconds: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span["end"] is not None and span["parent"] is not None:
            child_seconds[span["parent"]] += span["end"] - span["start"]
    layers: Dict[str, dict] = {}
    for span in spans:
        if span["end"] is None:
            continue
        if since is not None and span["start"] < since:
            continue
        if until is not None and span["start"] >= until:
            continue
        total = span["end"] - span["start"]
        entry = layers.setdefault(span["name"], _empty())
        entry["calls"] += 1
        entry["total_s"] += total
        entry["self_s"] += total - child_seconds[span["id"]]
        for key, value in span["counts"].items():
            entry["counts"][key] += value
    return layers


def layer(summary: Dict[str, dict], name: str) -> dict:
    """One layer's summary, empty when it recorded no span."""
    return summary.get(name) or _empty()


def _empty() -> dict:
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "counts": defaultdict(int)}
