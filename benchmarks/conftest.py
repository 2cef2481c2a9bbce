"""Shared fixtures for the benchmark harness.

Every benchmark module reproduces one table or figure of the paper's
evaluation (Section V): it runs the corresponding experiment from
:mod:`repro.evaluation.experiments`, prints the same rows/series the paper
reports, and asserts the qualitative *shape* (who wins, monotone trends)
rather than absolute numbers — the substrate here is a laptop-scale
simulation, not the authors' testbed.

Scale control
-------------
The workload scale is selected with the ``REPRO_BENCH_SCALE`` environment
variable: ``tiny`` (default — the whole suite finishes in minutes), ``small``
or ``medium``.  All benchmarks are single-shot (``benchmark.pedantic`` with
one round) because one experiment run already takes seconds to minutes.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _bench_utils import bench_config, bench_mall_scenario, bench_scale  # noqa: E402


@pytest.fixture(scope="session")
def scale():
    return bench_scale()


@pytest.fixture(scope="session")
def config():
    return bench_config()


@pytest.fixture(scope="session")
def mall_dataset():
    """The mall dataset shared by the real-data experiments (Tables III/IV, Figures 5–13).

    Materialised through the scenario layer so benchmarks and tests share
    one workload definition.
    """
    return bench_mall_scenario().dataset
