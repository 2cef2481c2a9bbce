"""The store benchmark suite: sharded ingest, WAL durability, scatter top-k.

The workload is synthetic and fully seeded — up to 10⁵ objects (the
``medium`` scale), each with a handful of m-semantics over a 64-region
venue with a skewed popularity profile, so the scatter-gather threshold
merge has the long-tailed bound streams it terminates early on.  No model
fitting or decoding is involved: this suite times the *storage layer*.

Measured, against the single unsharded in-memory store as the serial
reference:

* ``ingest:*`` — publishing the whole workload into the single store, an
  in-memory sharded store, and durable sharded stores in both WAL modes
  (``sync`` appends inside publish; ``async`` queues to the per-shard
  writers and the timing includes the final ``flush()`` barrier).
* ``recover:wal`` — reopening the durable root: snapshot load + WAL-tail
  replay across all shards, with the recovered contents compared
  entry-for-entry against the pre-close store (``agreement``).
* ``tkprq:scatter-N`` / ``tkfrpq:scatter-N`` — the deterministic query set
  (full-range, bounded, open-ended, region-filtered intervals at several
  k) over indexed sharded stores of N ∈ shard_counts, each compared
  bitwise against the single indexed store's answers.

WAL benchmarks run with ``fsync=False``: CI tmpdirs measure the code path,
not the device, and fsync latency would drown the comparison in
filesystem noise.  The report shares the ``repro.bench/1`` schema; the
``store`` section carries the recovery invariants ``tools/check_bench.py``
asserts (exact recovery, zero pending records after flush).
"""

from __future__ import annotations

import os
import platform
import random
import tempfile
import time
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.bench.queries import QUERY_KS, build_query_set
from repro.mobility.records import EVENT_PASS, EVENT_STAY, MSemantics
from repro.queries import TkFRPQ, TkPRQ
from repro.service.store import SemanticsStore
from repro.store import DurabilityConfig, ShardedSemanticsStore

#: Objects per workload scale ("medium" is the paper-scale 10⁵ run).
STORE_OBJECTS = {"tiny": 10_000, "small": 50_000, "medium": 100_000}

#: Shard counts the scatter rows sweep (1 included: the degenerate merge).
SHARD_COUNTS = (1, 2, 4, 8)

#: Regions in the synthetic venue.
STORE_REGIONS = 64

#: Snapshot/compaction trigger used by the durable ingest rows.
STORE_SNAPSHOT_EVERY = 4096

_WORKLOAD_SEED = 20260807


def build_store_workload(
    scale: str = "tiny", *, seed: int = _WORKLOAD_SEED
) -> List[Tuple[str, List[MSemantics]]]:
    """The seeded synthetic stream: ``(object_id, m-semantics)`` pairs.

    Region popularity is quadratically skewed (popular regions get the
    bulk of the visits), object ids carry a venue prefix so the prefix
    partitioner has something to group by, and timestamps grow per object
    so every sequence satisfies the non-overlap invariant.
    """
    if scale not in STORE_OBJECTS:
        raise ValueError(
            f"scale must be one of {sorted(STORE_OBJECTS)}, got {scale!r}"
        )
    rng = random.Random(seed)
    workload: List[Tuple[str, List[MSemantics]]] = []
    for position in range(STORE_OBJECTS[scale]):
        object_id = f"venue-{position % 50:02d}/obj-{position}"
        clock = rng.uniform(0.0, 50.0)
        entries: List[MSemantics] = []
        for _ in range(rng.randint(2, 4)):
            region = int(STORE_REGIONS * rng.random() ** 2)
            duration = rng.uniform(1.0, 12.0)
            entries.append(
                MSemantics(
                    region_id=region,
                    start_time=clock,
                    end_time=clock + duration,
                    event=EVENT_STAY if rng.random() < 0.7 else EVENT_PASS,
                    record_count=2,
                )
            )
            clock += duration + rng.uniform(0.2, 2.0)
        workload.append((object_id, entries))
    return workload


def _ingest(store, workload) -> None:
    for object_id, entries in workload:
        store.publish(object_id, entries)


def _store_key(store) -> Dict[str, List[Tuple]]:
    """Comparable snapshot of a store's full contents (dataclass tuples)."""
    return {
        object_id: [
            (ms.region_id, ms.start_time, ms.end_time, ms.event, ms.record_count)
            for ms in entries
        ]
        for object_id, entries in store.as_dict().items()
    }


def _query_answers(target, queries, make_query) -> List[Any]:
    results = []
    for k in QUERY_KS:
        for start, end, query_regions in queries:
            results.append(make_query(k, start, end, query_regions).evaluate(target))
    return results


def _time_queries(repeats: int, target, queries, make_query) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        _query_answers(target, queries, make_query)
        best = min(best, time.perf_counter() - started)
    return best


def _make_tkprq(k, start, end, query_regions):
    return TkPRQ(k, query_regions=query_regions, start=start, end=end)


def _make_tkfrpq(k, start, end, query_regions):
    return TkFRPQ(k, query_regions=query_regions, start=start, end=end)


def run_store_benchmarks(
    scale: str = "tiny",
    *,
    shards: int = 4,
    repeats: int = 3,
    seed: int = _WORKLOAD_SEED,
) -> Dict[str, Any]:
    """Run the store suite and return the report as a dict.

    ``shards`` sets the shard count of the ingest/durability/recovery
    rows; the scatter query rows always sweep :data:`SHARD_COUNTS`.
    """
    from repro.bench.runner import BENCH_SCHEMA

    if shards < 1:
        raise ValueError(f"shards must be at least 1, got {shards}")
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    workload = build_store_workload(scale, seed=seed)
    total_entries = sum(len(entries) for _, entries in workload)
    results: List[Dict[str, Any]] = []

    def record(name: str, workers: int, seconds: float, reference: float,
               agreement: bool, **extra: Any) -> None:
        results.append(
            {
                "name": name,
                "backend": "serial",
                "workers": workers,
                "seconds": round(seconds, 6),
                "speedup_vs_serial": round(reference / seconds, 4)
                if seconds > 0
                else 0.0,
                "agreement": agreement,
                **extra,
            }
        )

    # ------------------------------------------------------------- ingest
    def time_ingest(make_store):
        """Best-of timing of a full publish pass into a fresh store; the
        store of the last pass (flushed, still open) is returned."""
        best = float("inf")
        store = None
        for _ in range(repeats):
            if store is not None and hasattr(store, "close"):
                store.close()
            store = make_store()
            started = time.perf_counter()
            _ingest(store, workload)
            if hasattr(store, "flush"):
                store.flush()
            best = min(best, time.perf_counter() - started)
        return best, store

    single_seconds, single_store = time_ingest(SemanticsStore)
    record("ingest:single", 1, single_seconds, single_seconds, True)
    reference_key = _store_key(single_store)

    memory_seconds, memory_store = time_ingest(
        lambda: ShardedSemanticsStore(shards)
    )
    record(
        f"ingest:sharded-{shards}", shards, memory_seconds, single_seconds,
        _store_key(memory_store) == reference_key,
    )

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as tmp:
        tmp_root = Path(tmp)
        counter = {"n": 0}

        def durable_store(mode: str) -> ShardedSemanticsStore:
            counter["n"] += 1
            return ShardedSemanticsStore(
                shards,
                durability=DurabilityConfig(
                    root=tmp_root / f"{mode}-{counter['n']}",
                    mode=mode,
                    snapshot_every=STORE_SNAPSHOT_EVERY,
                    fsync=False,
                ),
            )

        sync_seconds, sync_store = time_ingest(lambda: durable_store("sync"))
        record(
            f"ingest:wal-sync-{shards}", shards, sync_seconds, single_seconds,
            _store_key(sync_store) == reference_key,
        )
        sync_store.close()

        async_seconds, async_store = time_ingest(lambda: durable_store("async"))
        async_stats = async_store.wal_stats()
        record(
            f"ingest:wal-async-{shards}", shards, async_seconds, single_seconds,
            _store_key(async_store) == reference_key,
        )

        # ----------------------------------------------------------- recover
        async_root = async_store.durability.root
        async_store.close()
        recover_best = float("inf")
        recovered = None
        for _ in range(repeats):
            if recovered is not None:
                recovered.close()
            started = time.perf_counter()
            recovered = ShardedSemanticsStore.open(async_root, fsync=False)
            recover_best = min(recover_best, time.perf_counter() - started)
        recovery_exact = _store_key(recovered) == reference_key
        last_recovery = recovered.last_recovery or {}
        recovered.close()
        record(
            f"recover:wal-{shards}", shards, recover_best, single_seconds,
            recovery_exact,
        )

    # ------------------------------------------------------------- queries
    semantics = dict(workload)
    queries = build_query_set(semantics, range(STORE_REGIONS))
    single_store.attach_index()
    scatter_agree = True
    for kind, make_query in (("tkprq", _make_tkprq), ("tkfrpq", _make_tkfrpq)):
        reference_answers = _query_answers(single_store, queries, make_query)
        reference_seconds = _time_queries(repeats, single_store, queries, make_query)
        record(f"{kind}:single", 1, reference_seconds, reference_seconds, True)
        for shard_count in SHARD_COUNTS:
            sharded = ShardedSemanticsStore(shard_count)
            _ingest(sharded, workload)
            sharded.attach_index()
            answers = _query_answers(sharded, queries, make_query)
            agreement = answers == reference_answers
            scatter_agree = scatter_agree and agreement
            seconds = _time_queries(repeats, sharded, queries, make_query)
            record(
                f"{kind}:scatter-{shard_count}", shard_count, seconds,
                reference_seconds, agreement,
            )

    return {
        "schema": BENCH_SCHEMA,
        "suite": "store",
        "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "scale": scale,
        "workers": shards,
        "repeats": repeats,
        "workload": {
            "sequences": len(workload),
            "records": total_entries,
            "regions": STORE_REGIONS,
            "seed": seed,
        },
        "store": {
            "shards": shards,
            "shard_counts": list(SHARD_COUNTS),
            "snapshot_every": STORE_SNAPSHOT_EVERY,
            "scatter_agreement": scatter_agree,
            "recovery": {
                "exact": recovery_exact,
                "replayed_records": last_recovery.get("replayed_records", 0),
                "truncated_bytes": last_recovery.get("truncated_bytes", 0),
            },
            "pending_after_flush": async_stats["pending_records"],
        },
        "results": results,
    }
