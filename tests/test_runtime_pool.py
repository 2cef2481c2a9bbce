"""Lifecycle tests of the persistent pools (:mod:`repro.runtime.pool`).

The shared-memory broadcast machinery owns real OS resources — worker
processes and ``/dev/shm`` segments — so its lifecycle is tested
explicitly: pools must actually be reused, broadcasts must be
content-addressed and LRU-bounded, teardown must unlink every segment,
a crashed worker must not leak the pool or the segments, and a process
that exits without calling :func:`repro.runtime.shutdown_pools` must
still leave nothing behind (the :mod:`atexit` hook) and make no noise
on stderr (the resource-tracker regression).
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.runtime import (
    Executor,
    ExecutionPolicy,
    active_broadcast_epochs,
    active_pool_workers,
    shutdown_pools,
)
from repro.runtime.pool import (
    _MAX_BROADCASTS,
    get_pool,
    publish_broadcast,
    run_broadcast_shards,
)

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


class _Worker:
    """Picklable broadcast target reporting which process ran the work."""

    def __init__(self, tag="w"):
        self.tag = tag

    def pid_of(self, item):
        return (os.getpid(), self.tag, item)

    def crash(self, item):
        os._exit(1)  # simulate a hard worker death (OOM kill, segfault)


@pytest.fixture(autouse=True)
def clean_pools():
    """Every test starts and ends with no pools and no segments."""
    shutdown_pools()
    yield
    shutdown_pools()


class TestPoolReuse:
    def test_pool_persists_across_calls(self):
        shards = [[1], [2], [3]]
        run_broadcast_shards(_Worker(), "pid_of", {}, shards, workers=2)
        assert active_pool_workers() == [2]
        pool = get_pool(2)
        run_broadcast_shards(_Worker(), "pid_of", {}, shards, workers=2)
        assert active_pool_workers() == [2]
        # The second call was served by the same executor — no respawn.
        # (Worker PIDs cannot show this: the executor starts its workers
        # lazily, so the second call may meet a worker the first never used.)
        assert get_pool(2) is pool

    def test_distinct_worker_counts_get_distinct_pools(self):
        run_broadcast_shards(_Worker(), "pid_of", {}, [[1]], workers=1)
        run_broadcast_shards(_Worker(), "pid_of", {}, [[1]], workers=2)
        assert active_pool_workers() == [1, 2]

    def test_reuse_pool_false_leaves_no_persistent_pool(self):
        results = run_broadcast_shards(
            _Worker(), "pid_of", {}, [[1], [2]], workers=2, reuse_pool=False
        )
        assert [item for shard in results for (_, _, item) in shard] == [1, 2]
        assert active_pool_workers() == []
        assert active_broadcast_epochs() == []


class TestBroadcasts:
    def test_content_addressed_reuse(self):
        handle_a = publish_broadcast(_Worker("a"), "pid_of", {})
        handle_b = publish_broadcast(_Worker("a"), "pid_of", {})
        assert handle_a == handle_b
        assert active_broadcast_epochs() == [handle_a[0]]

    def test_distinct_payloads_get_distinct_epochs(self):
        epoch_a = publish_broadcast(_Worker("a"), "pid_of", {})[0]
        epoch_b = publish_broadcast(_Worker("b"), "pid_of", {})[0]
        assert epoch_a != epoch_b
        assert sorted(active_broadcast_epochs()) == sorted([epoch_a, epoch_b])

    def test_lru_eviction_bounds_segments(self):
        names = []
        for index in range(_MAX_BROADCASTS + 2):
            _, name, _ = publish_broadcast(_Worker(f"w{index}"), "pid_of", {})
            names.append(name)
        assert len(active_broadcast_epochs()) == _MAX_BROADCASTS
        # The evicted segments are gone from /dev/shm, the survivors remain.
        survivors = [Path("/dev/shm") / name for name in names[-_MAX_BROADCASTS:]]
        evicted = [Path("/dev/shm") / name for name in names[:-_MAX_BROADCASTS]]
        if survivors[0].parent.exists():  # POSIX shm mount (Linux)
            assert all(path.exists() for path in survivors)
            assert not any(path.exists() for path in evicted)

    def test_shutdown_unlinks_every_segment(self):
        _, name, _ = publish_broadcast(_Worker(), "pid_of", {})
        run_broadcast_shards(_Worker(), "pid_of", {}, [[1]], workers=2)
        shutdown_pools()
        assert active_pool_workers() == []
        assert active_broadcast_epochs() == []
        segment = Path("/dev/shm") / name
        if segment.parent.exists():
            assert not segment.exists()


class TestWorkerCrash:
    def test_crash_raises_and_cleans_up(self):
        healthy_epoch = publish_broadcast(_Worker(), "pid_of", {})[0]
        epoch, name, _ = publish_broadcast(_Worker(), "crash", {})
        with pytest.raises(BrokenProcessPool):
            run_broadcast_shards(_Worker(), "crash", {}, [[1], [2]], workers=2)
        # The broken pool is discarded and the failed call's broadcast
        # segment unlinked; unrelated parent-owned broadcasts survive.
        assert active_pool_workers() == []
        assert epoch not in active_broadcast_epochs()
        assert healthy_epoch in active_broadcast_epochs()
        segment = Path("/dev/shm") / name
        if segment.parent.exists():
            assert not segment.exists()

    def test_next_call_recovers_with_a_fresh_pool(self):
        with pytest.raises(BrokenProcessPool):
            run_broadcast_shards(_Worker(), "crash", {}, [[1]], workers=2)
        results = run_broadcast_shards(
            _Worker(), "pid_of", {}, [[7], [8]], workers=2
        )
        assert [item for shard in results for (_, _, item) in shard] == [7, 8]

    def test_executor_map_surface_cleans_up_too(self):
        executor = Executor(policy=ExecutionPolicy.processes(2))
        with pytest.raises(BrokenProcessPool):
            executor.map_broadcast(_Worker(), "crash", [1, 2, 3])
        assert active_pool_workers() == []
        assert active_broadcast_epochs() == []


class TestInterpreterExit:
    def test_exit_without_shutdown_leaks_nothing_and_stays_quiet(self, tmp_path):
        """The atexit hook must reap pools/segments with zero stderr noise.

        Regression test for the fork-mode resource-tracker bug: a worker
        attachment that registers (or unregisters) the parent's segment
        with the shared tracker produces ``KeyError: '/psm_...'``
        tracebacks or "leaked shared_memory objects" warnings at exit.
        """
        script = tmp_path / "exit_without_shutdown.py"
        script.write_text(
            "import os\n"
            "from repro.runtime import pool\n"
            "class W:\n"
            "    def pid_of(self, item):\n"
            "        return (os.getpid(), item)\n"
            "results = pool.run_broadcast_shards(W(), 'pid_of', {}, [[1], [2]], workers=2)\n"
            "assert [i for shard in results for (_, i) in shard] == [1, 2]\n"
            "print('SEGMENTS', sorted(b.name for b in pool._BROADCASTS.values()))\n"
            # no shutdown_pools(): atexit must handle teardown
        )
        env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        assert "KeyError" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr
        # Every segment the child held mid-run must be gone now.  (Only the
        # child's own: other processes on the machine may hold segments.)
        segments = [
            name
            for line in proc.stdout.splitlines()
            if line.startswith("SEGMENTS ")
            for name in ast.literal_eval(line.split(" ", 1)[1])
        ]
        assert segments, proc.stdout
        if Path("/dev/shm").is_dir():
            for name in segments:
                assert not (Path("/dev/shm") / name.lstrip("/")).exists(), name
