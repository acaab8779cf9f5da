"""Declarative scenario specifications.

A :class:`ScenarioSpec` is the single description of one experiment of the
paper's evaluation space: which input stream (or which simulated network)
feeds the samplers, which strategy ensemble processes it, what the adversary
does, how the batch engine drives it and which metrics are reported.  Specs
are plain nested dataclasses that round-trip losslessly through
``to_dict``/``from_dict`` (and JSON), so a scenario can be stored next to its
results, shipped to a worker, or committed under ``examples/scenarios/`` —
and re-running a reloaded spec with the same seed reproduces bit-identical
results.

The component sections (``stream``, ``sketch``, ``adversary``) reference the
string keys of the :mod:`repro.scenarios.registry` registries; the
:class:`~repro.scenarios.runner.ScenarioRunner` resolves and validates them
at compile time.  The ``adversary`` section is one list of attack
components, static and adaptive kinds alike: the Section III-B adversary is
a single coalition whatever mix of attacks it runs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.engine.batch import DEFAULT_BATCH_SIZE
from repro.scenarios.registry import ScenarioError
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)

#: Engine drivers a spec may request.
DRIVERS = ("batch", "scalar")

#: Metric groups a spec may collect.
METRIC_GROUPS = ("gain", "divergence", "max_frequency", "malicious_fraction")


def _require_mapping(kind: str, data: Any) -> Dict[str, Any]:
    if not isinstance(data, dict):
        raise ScenarioError(
            f"{kind} section must be a mapping, got {type(data).__name__}")
    return data


def _check_known_keys(kind: str, data: Dict[str, Any],
                      known: List[str]) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ScenarioError(
            f"{kind} section has unknown key(s) {', '.join(unknown)}; "
            f"accepted: {', '.join(known)}")


@dataclass
class ComponentSpec:
    """One registry-resolved component: a string key plus its parameters."""

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.kind or not isinstance(self.kind, str):
            raise ScenarioError(
                f"component kind must be a non-empty string, got {self.kind!r}")
        self.params = dict(self.params or {})

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON-serializable form of the component."""
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any],
                  section: str = "component") -> "ComponentSpec":
        """Rebuild a component from its :meth:`to_dict` form."""
        data = _require_mapping(section, data)
        _check_known_keys(section, data, ["kind", "params"])
        if "kind" not in data:
            raise ScenarioError(f"{section} section requires a 'kind' key")
        return cls(kind=data["kind"], params=dict(data.get("params") or {}))


@dataclass
class StrategySpec:
    """One member of the scenario's strategy ensemble.

    Attributes
    ----------
    kind:
        Registry key of the strategy builder.
    params:
        Builder parameters (``memory_size``, ...).
    sketch:
        Optional frequency-oracle component handed to strategies that accept
        a ``frequency_oracle`` (the sketch-choice ablation axis).
    label:
        Name used in reports; defaults to ``kind``.
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)
    sketch: Optional[ComponentSpec] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.kind or not isinstance(self.kind, str):
            raise ScenarioError(
                f"strategy kind must be a non-empty string, got {self.kind!r}")
        self.params = dict(self.params or {})
        if self.label is None:
            self.label = self.kind

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON-serializable form of the strategy entry."""
        data: Dict[str, Any] = {"kind": self.kind, "params": dict(self.params),
                                "label": self.label}
        if self.sketch is not None:
            data["sketch"] = self.sketch.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StrategySpec":
        """Rebuild a strategy entry from its :meth:`to_dict` form."""
        data = _require_mapping("strategy", data)
        _check_known_keys("strategy", data,
                          ["kind", "params", "sketch", "label"])
        if "kind" not in data:
            raise ScenarioError("strategy section requires a 'kind' key")
        sketch = data.get("sketch")
        return cls(
            kind=data["kind"],
            params=dict(data.get("params") or {}),
            sketch=(ComponentSpec.from_dict(sketch, "sketch")
                    if sketch is not None else None),
            label=data.get("label"),
        )


@dataclass
class NetworkSpec:
    """System-simulation section: overlay dissemination feeds the samplers.

    Mirrors :class:`~repro.network.simulator.SystemConfig` plus the per-node
    sampling-service dimensions; when present, the scenario runs the
    end-to-end :class:`~repro.network.simulator.SystemSimulation` instead of
    a synthetic stream.
    """

    protocol: str = "gossip"
    num_correct: int = 50
    num_malicious: int = 5
    sybil_identifiers_per_malicious: int = 1
    rounds: int = 50
    fanout: int = 3
    malicious_fanout: int = 6
    memory_size: int = 10
    sketch_width: int = 10
    sketch_depth: int = 5

    def __post_init__(self) -> None:
        if self.protocol not in ("gossip", "random-walk"):
            raise ScenarioError(
                f"network protocol must be 'gossip' or 'random-walk', "
                f"got {self.protocol!r}")
        check_positive("num_correct", self.num_correct)
        if self.num_malicious < 0:
            raise ScenarioError("num_malicious must be non-negative")
        check_positive("sybil_identifiers_per_malicious",
                       self.sybil_identifiers_per_malicious)
        check_positive("rounds", self.rounds)
        check_positive("memory_size", self.memory_size)
        check_positive("sketch_width", self.sketch_width)
        check_positive("sketch_depth", self.sketch_depth)

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON-serializable form of the network section."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "NetworkSpec":
        """Rebuild a network section from its :meth:`to_dict` form."""
        data = _require_mapping("network", data)
        _check_known_keys("network", data,
                          [f.name for f in cls.__dataclass_fields__.values()])
        return cls(**data)


@dataclass
class EngineSpec:
    """How the scenario is executed: driver, chunk size, optional sharding.

    ``backend`` selects the execution backend of sharded scenarios:
    ``"serial"`` (default) runs every shard in-process, ``"process"`` pins
    shard groups to ``workers`` worker processes, and ``"socket"`` runs them
    behind authenticated TCP worker connections — supervised localhost
    processes by default, or the remote ``repro worker serve`` instances
    listed in ``endpoints`` (with the shared token read from
    ``auth_token_file`` by the scenario runner).  All backends produce
    bit-identical results per seed, so any sharded scenario can be re-run
    on any of them without changing its outputs.  Which backend takes which
    option is :func:`~repro.engine.backends.base.check_backend_options`'
    rule, reported after the ``engine.`` field at fault.
    """

    driver: str = "batch"
    batch_size: int = DEFAULT_BATCH_SIZE
    shards: Optional[int] = None
    backend: str = "serial"
    workers: Optional[int] = None
    endpoints: Optional[List[str]] = None
    auth_token_file: Optional[str] = None
    autoscale: Optional[Any] = None

    def __post_init__(self) -> None:
        from repro.engine.autoscale import AutoscalePolicy
        from repro.engine.backends import (
            BACKENDS,
            BackendOptionError,
            check_backend_options,
        )

        if self.autoscale is not None:
            try:
                self.autoscale = AutoscalePolicy.coerce(self.autoscale)
            except ValueError as error:
                raise ScenarioError(f"engine.autoscale: {error}") from None
            if self.autoscale is not None and self.shards is None:
                raise ScenarioError(
                    "engine.autoscale scales the sharded ensemble's worker "
                    "pool; set engine.shards as well (on the serial backend "
                    "the knob is a no-op, so the same spec runs everywhere)")

        if self.driver not in DRIVERS:
            raise ScenarioError(
                f"engine driver must be one of {', '.join(DRIVERS)}, "
                f"got {self.driver!r}")
        check_positive("batch_size", self.batch_size)
        if self.shards is not None:
            check_positive("shards", self.shards)
            if self.driver != "batch":
                raise ScenarioError(
                    "sharded scenarios require the batch driver")
        if self.backend not in BACKENDS:
            raise ScenarioError(
                f"engine backend must be one of {', '.join(BACKENDS)}, "
                f"got {self.backend!r}")
        if self.backend != "serial" and self.shards is None:
            raise ScenarioError(
                f"the {self.backend!r} backend parallelises the sharded "
                "ensemble; set engine.shards as well")
        if self.endpoints is not None and not isinstance(self.endpoints,
                                                         list):
            raise ScenarioError(
                "engine.endpoints must be a JSON list of 'host:port' strings")
        try:
            # the file stands in for the token: the rules only ask whether
            # one is given, and the runner reads it when the scenario runs
            check_backend_options(self.backend, workers=self.workers,
                                  endpoints=self.endpoints,
                                  auth_token=self.auth_token_file)
        except BackendOptionError as error:
            field = ("auth_token_file" if error.option == "auth_token"
                     else error.option)
            raise ScenarioError(f"engine.{field}: {error}") from None

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON-serializable form of the engine section."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EngineSpec":
        """Rebuild an engine section from its :meth:`to_dict` form."""
        data = _require_mapping("engine", data)
        _check_known_keys("engine", data, list(cls.__dataclass_fields__))
        return cls(**data)


@dataclass
class SweepSpec:
    """One-axis parameter sweep over a scenario.

    A sweep turns a scenario into a family of experiments: for every entry of
    ``values``, the dotted ``parameter`` path is set on a copy of the
    scenario and the copy is run.  This is the declarative form of the
    paper's one-axis figures (gain vs ``n``, ``m``, ``c``, ``l``).

    Attributes
    ----------
    parameter:
        Dotted path into the scenario's serialized form, e.g.
        ``"stream.params.population_size"`` or ``"network.num_malicious"``.
        List sections take a numeric index (``"strategies.0.params.
        memory_size"``) or ``*`` to address every entry
        (``"strategies.*.params.memory_size"``).
    values:
        The swept values, one scenario run per entry (non-empty).
    trials:
        Optional per-point trial count, overriding the scenario's ``trials``.
    label:
        Axis name used in reports; defaults to the last path segment.
    """

    parameter: str
    values: List[Any] = field(default_factory=list)
    trials: Optional[int] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.parameter or not isinstance(self.parameter, str):
            raise ScenarioError(
                f"sweep parameter must be a non-empty dotted path, "
                f"got {self.parameter!r}")
        segments = self.parameter.split(".")
        if any(not segment for segment in segments):
            raise ScenarioError(
                f"sweep parameter {self.parameter!r} has an empty segment")
        if segments[0] in ("sweep", "name", "seed"):
            raise ScenarioError(
                f"sweep parameter must not address the {segments[0]!r} "
                "section; sweep a stream/strategy/network/churn field")
        self.values = list(self.values)
        if not self.values:
            raise ScenarioError("sweep.values must not be empty")
        if self.trials is not None:
            check_positive("sweep.trials", self.trials)
        if self.label is None:
            self.label = segments[-1]

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON-serializable form of the sweep section."""
        data: Dict[str, Any] = {"parameter": self.parameter,
                                "values": list(self.values),
                                "label": self.label}
        if self.trials is not None:
            data["trials"] = self.trials
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SweepSpec":
        """Rebuild a sweep section from its :meth:`to_dict` form."""
        data = _require_mapping("sweep", data)
        _check_known_keys("sweep", data,
                          ["parameter", "values", "trials", "label"])
        if "parameter" not in data:
            raise ScenarioError("sweep section requires a 'parameter' key")
        values = data.get("values")
        if not isinstance(values, list):
            raise ScenarioError("sweep.values must be a list")
        return cls(parameter=data["parameter"], values=list(values),
                   trials=data.get("trials"), label=data.get("label"))


@dataclass
class ChurnSpec:
    """Dynamic-membership section: the population changes until ``T0``.

    In **stream mode** the section replaces the ``stream`` section: the
    input stream is generated by :class:`~repro.streams.churn.ChurnModel`
    (``initial_population`` nodes, join/leave events for ``churn_steps``
    steps, then ``stable_steps`` without churn).  In **network mode** the
    section rides along the ``network`` section and feeds the system
    simulation with join/leave events: correct nodes enter and depart the
    overlay during the first ``churn_steps`` rounds, then the membership
    freezes for ``stable_steps`` rounds (and the network's ``rounds`` field
    is ignored).

    With ``stable_only`` (the default) every uniformity metric is computed
    over the post-``T0`` portion of the streams against the *stable*
    population only — the setting in which the paper's Uniformity property
    is stated (Section III-C).
    """

    churn_steps: int = 100
    stable_steps: int = 100
    join_rate: float = 0.05
    leave_rate: float = 0.05
    initial_population: Optional[int] = None
    advertisements_per_step: Optional[int] = None
    stable_only: bool = True

    def __post_init__(self) -> None:
        check_positive("churn.churn_steps", self.churn_steps)
        check_non_negative("churn.stable_steps", self.stable_steps)
        if self.stable_only and self.stable_steps == 0:
            raise ScenarioError(
                "churn.stable_only needs a non-empty stable phase; set "
                "stable_steps > 0 or stable_only to false")
        check_probability("churn.join_rate", self.join_rate)
        check_probability("churn.leave_rate", self.leave_rate)
        if self.initial_population is not None:
            check_positive("churn.initial_population", self.initial_population)
        if self.advertisements_per_step is not None:
            check_positive("churn.advertisements_per_step",
                           self.advertisements_per_step)

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON-serializable form of the churn section."""
        data: Dict[str, Any] = {
            "churn_steps": self.churn_steps,
            "stable_steps": self.stable_steps,
            "join_rate": self.join_rate,
            "leave_rate": self.leave_rate,
            "stable_only": self.stable_only,
        }
        if self.initial_population is not None:
            data["initial_population"] = self.initial_population
        if self.advertisements_per_step is not None:
            data["advertisements_per_step"] = self.advertisements_per_step
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChurnSpec":
        """Rebuild a churn section from its :meth:`to_dict` form."""
        data = _require_mapping("churn", data)
        _check_known_keys("churn", data,
                          [f.name for f in cls.__dataclass_fields__.values()])
        return cls(**data)


@dataclass
class MetricsSpec:
    """Which metric groups the scenario report includes."""

    collect: List[str] = field(
        default_factory=lambda: ["gain", "divergence", "max_frequency"])

    def __post_init__(self) -> None:
        unknown = sorted(set(self.collect) - set(METRIC_GROUPS))
        if unknown:
            raise ScenarioError(
                f"unknown metric group(s) {', '.join(unknown)}; "
                f"accepted: {', '.join(METRIC_GROUPS)}")
        if not self.collect:
            raise ScenarioError("metrics.collect must not be empty")

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON-serializable form of the metrics section."""
        return {"collect": list(self.collect)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MetricsSpec":
        """Rebuild a metrics section from its :meth:`to_dict` form.

        A metrics section without a ``collect`` key falls back to the
        default metric groups, matching an omitted metrics section; an
        explicit empty list is still rejected by ``__post_init__``.
        """
        data = _require_mapping("metrics", data)
        _check_known_keys("metrics", data, ["collect"])
        if "collect" not in data:
            return cls()
        return cls(collect=list(data["collect"]))


@dataclass
class ScenarioSpec:
    """A complete, serializable description of one experiment.

    Exactly one of two modes applies:

    * **stream mode** (``network is None``) — a synthetic/trace stream (or a
      churn-generated one when a ``churn`` section replaces ``stream``),
      optionally attacked by the ``adversary`` list, processed by every
      strategy in the ensemble over ``trials`` independent repetitions;
    * **network mode** (``network`` set) — the end-to-end system simulation,
      whose per-node sampler outputs are reported; an optional ``churn``
      section makes the membership dynamic until ``T0``.

    A ``sweep`` section turns the scenario into a one-axis family of
    experiments run by :meth:`~repro.scenarios.runner.ScenarioRunner.run_sweep`.

    ``seed`` is the master random seed: per-trial generators are spawned
    from it, so re-running the same spec (even after a JSON round-trip)
    reproduces bit-identical results.
    """

    name: str
    seed: int = 2013
    trials: int = 1
    stream: Optional[ComponentSpec] = None
    strategies: List[StrategySpec] = field(default_factory=list)
    adversary: Optional[List[ComponentSpec]] = None
    network: Optional[NetworkSpec] = None
    churn: Optional[ChurnSpec] = None
    sweep: Optional[SweepSpec] = None
    engine: EngineSpec = field(default_factory=EngineSpec)
    metrics: MetricsSpec = field(default_factory=MetricsSpec)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ScenarioError(
                f"scenario name must be a non-empty string, got {self.name!r}")
        check_positive("trials", self.trials)
        if self.network is None:
            if self.stream is None and self.churn is None:
                raise ScenarioError(
                    f"scenario {self.name!r} needs a stream section "
                    "(or a churn or network section)")
            if self.stream is not None and self.churn is not None:
                raise ScenarioError(
                    f"scenario {self.name!r} has both a stream and a churn "
                    "section; the churn section generates the stream, so "
                    "declare only one")
            if self.churn is not None and self.churn.initial_population is None:
                raise ScenarioError(
                    f"scenario {self.name!r} is a churn stream scenario; the "
                    "churn section requires 'initial_population'")
            if self.adversary is not None and not self.adversary:
                raise ScenarioError(
                    f"scenario {self.name!r} has an empty adversary list; "
                    "name at least one attack or drop the section")
            if self.churn is not None and self.adversary is not None:
                raise ScenarioError(
                    f"scenario {self.name!r} combines churn and adversary "
                    "sections; an adversary would rewrite the stream and "
                    "invalidate its pre-/post-T0 split (use a churn-model "
                    "*stream* component such as 'flash_crowd' instead)")
            if not self.strategies:
                raise ScenarioError(
                    f"scenario {self.name!r} needs at least one strategy")
            labels = [strategy.label for strategy in self.strategies]
            if len(set(labels)) != len(labels):
                raise ScenarioError(
                    f"scenario {self.name!r} has duplicate strategy labels; "
                    "set distinct 'label' fields")
        else:
            if self.stream is not None or self.adversary is not None:
                raise ScenarioError(
                    f"scenario {self.name!r} is a network scenario; the "
                    "dissemination protocol generates the streams, so "
                    "stream/adversary sections are not allowed")
            if self.strategies:
                raise ScenarioError(
                    f"scenario {self.name!r} is a network scenario; per-node "
                    "samplers are configured through the network section")
            if self.churn is not None:
                # In network mode the initial population and advertisement
                # cadence come from the network section / protocol.
                if self.churn.initial_population is not None:
                    raise ScenarioError(
                        f"scenario {self.name!r} is a network scenario; the "
                        "initial population is network.num_correct, so the "
                        "churn section must not set 'initial_population'")
                if self.churn.advertisements_per_step is not None:
                    raise ScenarioError(
                        f"scenario {self.name!r} is a network scenario; the "
                        "dissemination protocol paces advertisements, so the "
                        "churn section must not set 'advertisements_per_step'")

    @property
    def mode(self) -> str:
        """``"network"`` when a network section is present, else ``"stream"``."""
        return "network" if self.network is not None else "stream"

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON-serializable form of the whole scenario."""
        data: Dict[str, Any] = {
            "name": self.name,
            "seed": self.seed,
            "trials": self.trials,
            "engine": self.engine.to_dict(),
            "metrics": self.metrics.to_dict(),
        }
        if self.network is not None:
            data["network"] = self.network.to_dict()
        else:
            if self.stream is not None:
                data["stream"] = self.stream.to_dict()
            data["strategies"] = [strategy.to_dict()
                                  for strategy in self.strategies]
            if self.adversary is not None:
                data["adversary"] = [attack.to_dict()
                                     for attack in self.adversary]
        if self.churn is not None:
            data["churn"] = self.churn.to_dict()
        if self.sweep is not None:
            data["sweep"] = self.sweep.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        """Rebuild a scenario from its :meth:`to_dict` form (strictly)."""
        data = _require_mapping("scenario", data)
        _check_known_keys("scenario", data,
                          ["name", "seed", "trials", "stream", "strategies",
                           "adversary", "network", "churn", "sweep",
                           "engine", "metrics"])
        if "name" not in data:
            raise ScenarioError("scenario requires a 'name' key")
        stream = data.get("stream")
        adversary = data.get("adversary")
        if adversary is not None and not isinstance(adversary, list):
            raise ScenarioError(
                "'adversary' must be a list of attack components")
        network = data.get("network")
        churn = data.get("churn")
        sweep = data.get("sweep")
        strategies = data.get("strategies") or []
        if not isinstance(strategies, list):
            raise ScenarioError("'strategies' must be a list")
        return cls(
            name=data["name"],
            seed=int(data.get("seed", 2013)),
            trials=int(data.get("trials", 1)),
            stream=(ComponentSpec.from_dict(stream, "stream")
                    if stream is not None else None),
            strategies=[StrategySpec.from_dict(entry) for entry in strategies],
            adversary=([ComponentSpec.from_dict(entry, "adversary")
                        for entry in adversary]
                       if adversary is not None else None),
            network=(NetworkSpec.from_dict(network)
                     if network is not None else None),
            churn=(ChurnSpec.from_dict(churn)
                   if churn is not None else None),
            sweep=(SweepSpec.from_dict(sweep)
                   if sweep is not None else None),
            engine=(EngineSpec.from_dict(data["engine"])
                    if "engine" in data else EngineSpec()),
            metrics=(MetricsSpec.from_dict(data["metrics"])
                     if "metrics" in data else MetricsSpec()),
        )

    def to_json(self, *, indent: int = 2) -> str:
        """Serialize the scenario to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Parse a scenario from a JSON string."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ScenarioError(f"invalid scenario JSON: {error}") from error
        return cls.from_dict(data)

    def save(self, path) -> None:
        """Write the scenario as JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "ScenarioSpec":
        """Read a scenario from a JSON file at ``path``."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())
