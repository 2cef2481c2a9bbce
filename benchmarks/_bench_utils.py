"""Helpers shared by the benchmark modules.

Kept outside ``conftest.py`` so benchmark modules can import them explicitly
(``from _bench_utils import ...``) without relying on pytest's conftest import
machinery; ``conftest.py`` builds its fixtures on top of these helpers.
"""

from __future__ import annotations

import os

from repro.core.config import C2MNConfig
from repro.evaluation.experiments import ExperimentScale, mall_scenario_spec
from repro.scenarios import Scenario

SCALES = {
    "tiny": ExperimentScale.tiny(),
    "small": ExperimentScale.small(),
    "medium": ExperimentScale.medium(),
}


def bench_scale() -> ExperimentScale:
    """Return the experiment scale selected via REPRO_BENCH_SCALE (default: tiny)."""
    name = os.environ.get("REPRO_BENCH_SCALE", "tiny").lower()
    if name not in SCALES:
        raise ValueError(
            f"REPRO_BENCH_SCALE must be one of {sorted(SCALES)}, got {name!r}"
        )
    return SCALES[name]


def bench_mall_scenario(name: str = "bench-mall") -> Scenario:
    """Materialise the mall workload at the selected bench scale.

    Goes through the same :func:`~repro.evaluation.experiments.mall_scenario_spec`
    the experiment runners use, so the benchmark fixtures
    and the rest of the repository name one shared workload definition
    instead of hand-building venues here.
    """
    return mall_scenario_spec(bench_scale(), name=name).materialize()


def bench_config() -> C2MNConfig:
    """The model configuration used by the benchmarks (scaled-down training)."""
    if os.environ.get("REPRO_BENCH_SCALE", "tiny").lower() == "tiny":
        return C2MNConfig.fast(max_iterations=3, mcmc_samples=6, lbfgs_iterations=4)
    return C2MNConfig.fast()


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark timing and return its result."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)


def print_report(title: str, body: str) -> None:
    """Print a benchmark report block (shown with pytest -s / captured otherwise)."""
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}\n{body}\n")
