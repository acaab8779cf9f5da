"""Unified scenario API: declarative specs, registries and a runner.

Every experiment of the paper's evaluation space — synthetic, trace-driven,
adversarial, networked, sharded — is declared through one serializable
:class:`ScenarioSpec` and executed at engine speed by one
:class:`ScenarioRunner`:

* :mod:`repro.scenarios.spec` — the nested, JSON-round-trippable spec
  dataclasses;
* :mod:`repro.scenarios.registry` — decorator-based component registries
  (``register_strategy``, ``register_stream``, ``register_sketch``,
  ``register_adversary``) with parameter validation; one adversary registry
  holds the static and the adaptive attack kinds;
* :mod:`repro.scenarios.builtins` — the stock component registrations;
* :mod:`repro.scenarios.runner` — compilation to the experiment harness or
  the system simulator, execution on the batch driver.

Quickstart
----------
>>> from repro.scenarios import ScenarioSpec, run_scenario
>>> spec = ScenarioSpec.from_dict({
...     "name": "zipf-demo", "seed": 7, "trials": 2,
...     "stream": {"kind": "zipf", "params": {
...         "stream_size": 5000, "population_size": 200, "alpha": 4}},
...     "strategies": [{"kind": "knowledge-free",
...                     "params": {"memory_size": 10}}],
... })
>>> result = run_scenario(spec)
>>> result.summaries[0]["mean_gain"] > 0
True
"""

from repro.scenarios.registry import (
    ADVERSARIES,
    SKETCHES,
    STRATEGIES,
    STREAMS,
    ComponentRegistry,
    ScenarioError,
    UnknownComponentError,
    register_adversary,
    register_sketch,
    register_strategy,
    register_stream,
)
from repro.scenarios.spec import (
    ChurnSpec,
    ComponentSpec,
    EngineSpec,
    MetricsSpec,
    NetworkSpec,
    ScenarioSpec,
    StrategySpec,
    SweepSpec,
)

# Importing the builtins registers the stock components on the global
# registries above; runner import comes after so compiled scenarios see them.
import repro.scenarios.builtins  # noqa: E402,F401  (import for side effect)
from repro.scenarios.runner import (  # noqa: E402
    ScenarioResult,
    ScenarioRunner,
    SweepResult,
    run_scenario,
    run_sweep,
)


def available_components() -> dict:
    """Return the registered component keys, grouped by kind."""
    return {
        "strategies": STRATEGIES.keys(),
        "streams": STREAMS.keys(),
        "sketches": SKETCHES.keys(),
        "adversaries": ADVERSARIES.keys(),
    }


__all__ = [
    "ComponentRegistry",
    "ScenarioError",
    "UnknownComponentError",
    "STRATEGIES",
    "STREAMS",
    "SKETCHES",
    "ADVERSARIES",
    "register_strategy",
    "register_stream",
    "register_sketch",
    "register_adversary",
    "ComponentSpec",
    "StrategySpec",
    "NetworkSpec",
    "ChurnSpec",
    "SweepSpec",
    "EngineSpec",
    "MetricsSpec",
    "ScenarioSpec",
    "ScenarioResult",
    "SweepResult",
    "ScenarioRunner",
    "run_scenario",
    "run_sweep",
    "available_components",
]
