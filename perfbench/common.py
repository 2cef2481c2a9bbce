"""Shared pieces of the repo benchmark: program import, inputs, statistics.

The benchmark drives the program only through its public API, and every
input comes from the workload seed: one seed always gives the same inputs.
Metric units are read from ``BENCHMARK.json``, so the two cannot disagree.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Where runs leave model files and span dumps (ignored by git).
OUT = ROOT / ".perfbench_out"

#: The scaled-down fit the repository's serving CLI and replay path use.
FIT_CONFIG = dict(max_iterations=3, mcmc_samples=6, lbfgs_iterations=4)

#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Speed probes taken before and after each set-up.
SETUP_PROBES = 5


class ProgramMissing(RuntimeError):
    """The checkout holds no importable program."""


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int
    failed: int
    metrics: Dict[str, float]
    provenance: Dict[str, object] = field(default_factory=dict)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no program sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro  # noqa: F401


def child_env() -> Dict[str, str]:
    """The environment of a child process that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    return env


def cores() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def declared_units() -> Dict[str, str]:
    """Every metric name declared in ``BENCHMARK.json``, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def with_units(values: Dict[str, float]) -> Dict[str, Dict[str, object]]:
    """Attach its declared unit to every measured value."""
    units = declared_units()
    return {
        name: {"value": float(value), "unit": units[name]}
        for name, value in values.items()
    }


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values``, interpolated between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(
    values: Sequence[float], q: float, parts: int = 5, min_slice: int = 200
) -> float:
    """A tail percentile robust to one burst of machine noise.

    ``values`` in time order are cut into up to ``parts`` consecutive
    slices of at least ``min_slice`` samples each (so a 95th percentile
    keeps ten samples beyond it); the result is the median of the slices'
    ``q``-th percentiles, so a pause in one slice moves it far less than
    it moves the pooled percentile.
    """
    parts = min(parts, len(values) // min_slice)
    if parts <= 1:
        return percentile(values, q)
    size = len(values) // parts
    slices = [values[i * size:(i + 1) * size] for i in range(parts)]
    return statistics.median(percentile(piece, q) for piece in slices)


def timed_setup(
    build: Callable[[], object],
    *,
    keep: int = 1,
    discard: Optional[Callable[[object], None]] = None,
    repeats: int = SETUP_REPEATS,
):
    """Run ``build`` ``repeats`` times; return the last ``keep`` results and
    the median seconds of one build at nominal speed (``speed.py``).

    Earlier results go to ``discard`` (to stop what they started), and so
    does everything built so far when a build fails.
    """
    if repeats < keep:
        raise ValueError("cannot keep more set-ups than are built")
    speedometer = speed.Speedometer()
    results: List[object] = []
    seconds: List[float] = []
    try:
        for _ in range(repeats):
            speedometer.sample(SETUP_PROBES)
            at = time.monotonic()
            started = time.perf_counter()
            results.append(build())
            took = time.perf_counter() - started
            speedometer.sample(SETUP_PROBES)
            seconds.append(took * speedometer.factor(at, at + took))
            if len(results) > keep:
                dropped = results.pop(0)
                if discard is not None:
                    discard(dropped)
    except BaseException:
        if discard is not None:
            for result in results:
                discard(result)
        raise
    return results, statistics.median(seconds)


def self_peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of another live process in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"process {pid} reports no VmHWM")


def proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds another live process has used."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# ------------------------------------------------------------------ inputs
def fit_annotator(scenario_name: str):
    """Fit a C2MN on the training half of the scenario at its registered seed.

    Returns ``(annotator, scenario)``.  Traffic comes from other seeds
    (:func:`held_out_sequences`), so it is never training data.
    """
    from repro.core.annotator import C2MNAnnotator
    from repro.core.config import C2MNConfig
    from repro.mobility.dataset import train_test_split
    from repro.scenarios import materialize

    scenario = materialize(scenario_name)
    train, _ = train_test_split(scenario.dataset, train_fraction=0.5, seed=5)
    annotator = C2MNAnnotator(scenario.space, config=C2MNConfig.fast(**FIT_CONFIG))
    annotator.fit(train.sequences)
    return annotator, scenario


def draw_seeds(seed: int, avoid: int) -> Iterator[int]:
    """The materialisation seeds of one workload seed's traffic, never ``avoid``."""
    index = 0
    while True:
        candidate = 10_000 + 1_000 * seed + index
        index += 1
        if candidate != avoid:
            yield candidate


def held_out_sequences(scenario, seed: int, count: int, *, min_records: int = 2):
    """``count`` full-length sequences of ``scenario`` drawn at other seeds.

    Each gets a fresh object id, unique across draws.
    """
    from repro.mobility.records import PositioningSequence

    sequences = []
    for draw in draw_seeds(seed, scenario.seed):
        for labeled in scenario.spec.materialize_iter(draw, space=scenario.space):
            if len(labeled.sequence) < min_records:
                continue
            sequences.append(
                PositioningSequence(
                    labeled.sequence.records,
                    object_id=f"{scenario.name}-{draw}-{len(sequences):04d}",
                    sort=False,
                )
            )
            if len(sequences) == count:
                return sequences


def length_stats(sequences) -> Dict[str, float]:
    """Sequence count and record-length distribution."""
    lengths = sorted(len(sequence) for sequence in sequences)
    return {
        "sequences": len(lengths),
        "records": sum(lengths),
        "min": lengths[0],
        "median": statistics.median(lengths),
        "max": lengths[-1],
    }


def duplicate_rate(sequences) -> float:
    """Share of sequences whose content repeats an earlier one."""
    from repro.runtime import sequence_fingerprint

    keys = [sequence_fingerprint(sequence) for sequence in sequences]
    return 1.0 - len(set(keys)) / len(keys)


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """What every result records about the run and the machine."""
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": cores(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
