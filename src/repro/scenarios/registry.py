"""The scenario registry: named specs, lookup and materialisation.

The registry maps scenario names to :class:`~repro.scenarios.spec.ScenarioSpec`
objects.  The built-in catalogue (:mod:`repro.scenarios.catalogue`) registers
itself when :mod:`repro.scenarios` is imported; anything downstream — the
evaluation harness, ``python -m repro.bench --queries``, the streaming
replay, tests and benchmarks — resolves workloads by name through
:func:`get_scenario` / :func:`materialize`, so every layer names the same
reproducible datasets.

Registering a new scenario is one call::

    from repro.scenarios import ScenarioSpec, VenueSpec, register_scenario

    register_scenario(ScenarioSpec(
        name="my-lab",
        venue=VenueSpec("office", params={"floors": 3, "rooms_per_side": 8}),
        objects=10,
        duration=1800.0,
    ))
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.scenarios.spec import Scenario, ScenarioSpec

_REGISTRY: Dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec, *, replace: bool = False) -> ScenarioSpec:
    """Add ``spec`` to the registry; re-registering a name needs ``replace``."""
    if spec.name in _REGISTRY and not replace:
        raise ValueError(
            f"scenario {spec.name!r} is already registered; "
            "pass replace=True to overwrite it"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister_scenario(name: str) -> None:
    """Remove one scenario (primarily for tests exercising the registry)."""
    _REGISTRY.pop(name, None)


def get_scenario(name: str) -> ScenarioSpec:
    """Look a scenario up by name; unknown names list the catalogue."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {', '.join(scenario_names())}"
        ) from None


def scenario_names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def scenario_specs() -> List[ScenarioSpec]:
    """All registered specs, sorted by name."""
    return [_REGISTRY[name] for name in scenario_names()]


def materialize(name: str, seed: Optional[int] = None) -> Scenario:
    """Materialise a registered scenario (``seed`` overrides the spec default)."""
    return get_scenario(name).materialize(seed)
