"""Process-sharded execution runtime.

The runtime layer is the one place batch work is parallelised.  It offers:

* :class:`ExecutionPolicy` — the one frozen value object describing *how*
  batch work executes (backend, workers, length-bucketed batching, pool
  reuse).  Every batch surface in the codebase (the ``*_many`` protocol
  methods, the evaluation harness, the experiment runners and the service
  batch path) accepts ``policy=``; the legacy
  ``workers=``/``backend=`` keyword pair still works through
  :func:`resolve_policy` but emits a :class:`DeprecationWarning`;
* :class:`Executor` — a backend-pluggable mapper (``"serial"``,
  ``"thread"``, ``"process"``) with contiguous dataset sharding, ordered
  result gathering, chunked streaming gather
  (:meth:`Executor.map_broadcast_stream`) and shared-memory model
  broadcast;
* the persistent-pool machinery (:mod:`repro.runtime.pool`) — one warm
  :class:`~concurrent.futures.ProcessPoolExecutor` per worker count for
  the life of the interpreter, with content-addressed shared-memory
  broadcast segments and :func:`shutdown_pools` for explicit teardown
  (also registered with :mod:`atexit`);
* the content fingerprints (:func:`sequence_fingerprint`,
  :func:`space_fingerprint`) that duplicate coalescing and scenario
  fingerprints key on.
"""

from repro.runtime.fingerprint import (
    fingerprint,
    sequence_fingerprint,
    space_fingerprint,
)
from repro.runtime.executor import (
    BACKEND_NAMES,
    Executor,
    map_sharded,
    map_with_workers,
    resolve_backend,
    shard_indices,
    validate_workers,
)
from repro.runtime.policy import (
    DEFAULT_BUCKET_SIZE,
    UNSET,
    ExecutionPolicy,
    resolve_policy,
)
from repro.runtime.pool import (
    active_broadcast_epochs,
    active_pool_workers,
    shutdown_pools,
)

__all__ = [
    "BACKEND_NAMES",
    "DEFAULT_BUCKET_SIZE",
    "ExecutionPolicy",
    "Executor",
    "UNSET",
    "active_broadcast_epochs",
    "active_pool_workers",
    "fingerprint",
    "map_sharded",
    "map_with_workers",
    "resolve_backend",
    "resolve_policy",
    "sequence_fingerprint",
    "shard_indices",
    "shutdown_pools",
    "space_fingerprint",
    "validate_workers",
]
