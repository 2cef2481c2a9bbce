"""Machine-readable component benchmarks (``python -m repro.bench``).

Two suites, each checking its accelerated path against a reference answer
and writing a schema-versioned JSON report:

* ``--queries`` (``BENCH_queries.json``) — indexed vs scan TkPRQ/TkFRPQ
  latency over the catalogue, plus the annotation-vs-truth precision
  section that reproduces the paper's Figures 12–13;
* ``--store`` (``BENCH_store.json``) — sharded ingest, WAL durability and
  recovery, scatter-gather top-k vs the single store.

CI runs both at ``--tiny`` scale, validates them with
``tools/check_bench.py`` and gates them against
``benchmarks/baselines/``.  End-to-end speed is the repository benchmark's
job (``perfbench/``, see ``perfbench/METHOD.md``).

The report format is documented in ``docs/BENCHMARKS.md`` and enforced by
:data:`REQUIRED_RESULT_KEYS` / ``tools/check_bench.py``.
"""

from repro.bench.runner import (
    BENCH_SCHEMA,
    REQUIRED_RESULT_KEYS,
    REQUIRED_TOP_KEYS,
    write_report,
)
from repro.bench.queries import (
    PRECISION_SCENARIOS,
    QUERY_KS,
    QUERY_REPLICATION,
    build_query_set,
    build_query_workload,
    evaluate_query_precision,
    run_query_benchmarks,
)
from repro.bench.store import (
    SHARD_COUNTS,
    STORE_OBJECTS,
    build_store_workload,
    run_store_benchmarks,
)

__all__ = [
    "SHARD_COUNTS",
    "STORE_OBJECTS",
    "build_store_workload",
    "run_store_benchmarks",
    "BENCH_SCHEMA",
    "REQUIRED_RESULT_KEYS",
    "REQUIRED_TOP_KEYS",
    "PRECISION_SCENARIOS",
    "QUERY_KS",
    "QUERY_REPLICATION",
    "build_query_set",
    "build_query_workload",
    "evaluate_query_precision",
    "run_query_benchmarks",
    "write_report",
]
