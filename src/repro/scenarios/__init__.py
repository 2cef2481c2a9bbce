"""Declarative scenario subsystem: the workload catalogue of the repository.

The paper's evaluation runs on exactly two synthetic venues under a single
random-waypoint mobility model.  This package turns that pair of hard-coded
workloads into an extensible catalogue: a :class:`ScenarioSpec` composes a
venue archetype (:mod:`repro.indoor.builders`), a mobility profile
(:mod:`repro.mobility.simulator`) and a positioning/device profile
(:mod:`repro.mobility.positioning`), and materialises deterministically from
a seed into an :class:`~repro.indoor.floorplan.IndoorSpace` plus an
:class:`~repro.mobility.dataset.AnnotationDataset` with a content
fingerprint.

Consumers resolve scenarios by name everywhere:

* tests and benchmarks share fixtures through :func:`materialize`;
* experiment runners accept a scenario name wherever they accept a dataset
  (:mod:`repro.evaluation.experiments`);
* ``python -m repro.bench --queries --scenario <name>`` times indexed vs
  scan queries over a scenario's ground truth;
* :func:`repro.service.replay_scenario` replays one through the streaming
  service;
* ``python -m repro.scenarios`` lists the catalogue and smoke-checks it;
* ``python -m repro.scenarios --fuzz N --seed S`` samples the *whole spec
  space* and runs the invariant oracle layer (:mod:`repro.scenarios.fuzz`)
  on every sampled spec, shrinking failures to minimal reproducing specs.

The golden-trace regression suite (``tests/test_scenario_golden.py``) pins
the fingerprint of every registered scenario per seed, so any drift in the
builders, simulators, error model or preprocessing fails tier-1 immediately.
"""

from repro.scenarios.spec import (
    DeviceSpec,
    MobilitySpec,
    MOBILITY_PROFILES,
    Scenario,
    ScenarioSpec,
    VENUE_ARCHETYPES,
    VenueSpec,
    scenario_fingerprint,
)
from repro.scenarios.registry import (
    get_scenario,
    materialize,
    register_scenario,
    scenario_names,
    scenario_specs,
    unregister_scenario,
)

from repro.scenarios.fuzz import (
    FuzzReport,
    FuzzResult,
    check_spec,
    run_fuzz,
    sample_spec,
    shrink_spec,
    spec_from_dict,
    spec_to_dict,
)

# Importing the catalogue registers the built-in scenarios.
from repro.scenarios import catalogue as _catalogue  # noqa: F401

__all__ = [
    "FuzzReport",
    "FuzzResult",
    "check_spec",
    "run_fuzz",
    "sample_spec",
    "shrink_spec",
    "spec_from_dict",
    "spec_to_dict",
    "DeviceSpec",
    "MOBILITY_PROFILES",
    "MobilitySpec",
    "Scenario",
    "ScenarioSpec",
    "VENUE_ARCHETYPES",
    "VenueSpec",
    "get_scenario",
    "materialize",
    "register_scenario",
    "scenario_fingerprint",
    "scenario_names",
    "scenario_specs",
    "unregister_scenario",
]
