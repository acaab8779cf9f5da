"""Compile and execute declarative scenarios on the batch engine.

:class:`ScenarioRunner` is the single execution path behind the experiment
harness, the CLI and the example applications: it resolves a
:class:`~repro.scenarios.spec.ScenarioSpec` against the component
registries, compiles it into a ready experiment — an
:class:`~repro.experiments.harness.ExperimentHarness` for stream scenarios,
a :class:`~repro.network.simulator.SystemSimulation` per trial for network
scenarios — and runs it on the batch streaming driver.

Determinism: all per-trial randomness is spawned from the spec's master
``seed``, and every component consumes the batch-invariant coin streams of
the engine, so re-running the same spec (including after a JSON round-trip)
reproduces bit-identical :class:`ScenarioResult` contents.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional

import numpy as np

from repro.adversary.adaptive import AdaptiveAttack
from repro.adversary.attacks import SybilIdentifierFactory
from repro.core.service import NodeSamplingService
from repro.engine.backends.wire import load_auth_token
from repro.engine.sharded import ShardedSamplingService
from repro.network.node import NodeConfig
from repro.network.simulator import (
    ChurnConfig,
    DisseminationProtocol,
    SystemConfig,
    SystemReport,
    SystemSimulation,
)
from repro.scenarios import registry as registries
from repro.scenarios.registry import ComponentRegistry, ScenarioError
from repro.scenarios.spec import ChurnSpec, ScenarioSpec, StrategySpec
from repro.streams.stream import IdentifierStream
from repro.telemetry import runtime as telemetry
from repro.telemetry.registry import TIME_EDGES
from repro.utils.rng import RandomState, ensure_rng, spawn_children


@dataclass
class ScenarioResult:
    """The serializable outcome of one scenario run.

    Attributes
    ----------
    name, mode:
        Copied from the spec (``mode`` is ``"stream"`` or ``"network"``).
    summaries:
        One aggregate row per strategy (stream mode) or per trial (network
        mode), restricted to the spec's requested metric groups.
    details:
        One row per (strategy, trial) in stream mode, one per (trial,
        correct node) in network mode.
    """

    name: str
    mode: str
    summaries: List[Dict[str, Any]] = field(default_factory=list)
    details: List[Dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON-serializable form of the result."""
        return {
            "name": self.name,
            "mode": self.mode,
            "summaries": [dict(row) for row in self.summaries],
            "details": [dict(row) for row in self.details],
        }


@dataclass
class SweepPoint:
    """The result of one point of a parameter sweep."""

    value: Any
    result: ScenarioResult

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON-serializable form of the point."""
        return {"value": self.value, "result": self.result.to_dict()}


@dataclass
class SweepResult:
    """The serializable outcome of a one-axis scenario sweep.

    Attributes
    ----------
    name, parameter, label:
        Copied from the spec (``label`` is the axis name used in reports).
    points:
        One :class:`SweepPoint` per swept value, in sweep order.
    """

    name: str
    parameter: str
    label: str
    points: List[SweepPoint] = field(default_factory=list)

    def to_dict(self) -> Dict[str, Any]:
        """Return the JSON-serializable form of the sweep."""
        return {
            "name": self.name,
            "parameter": self.parameter,
            "label": self.label,
            "points": [point.to_dict() for point in self.points],
        }

    def summary_rows(self) -> List[Dict[str, Any]]:
        """Flatten the per-point summaries into one table.

        Each row is a point summary prefixed with the axis value — the
        condensed view the CLI prints with ``--sweep-summary``.
        """
        rows: List[Dict[str, Any]] = []
        for point in self.points:
            for summary in point.result.summaries:
                rows.append({self.label: point.value, **summary})
        return rows

    def series(self, metric: str = "mean_gain"
               ) -> Dict[str, List[tuple]]:
        """Return per-strategy ``(value, metric)`` curves (stream sweeps).

        This is the shape the figure drivers report: one series per strategy
        label, one point per swept value.
        """
        series: Dict[str, List[tuple]] = {}
        for point in self.points:
            for summary in point.result.summaries:
                if "strategy" not in summary:
                    raise ScenarioError(
                        "series() requires a stream-mode sweep; network "
                        "sweeps have per-trial summaries — read "
                        "summary_rows() instead")
                if metric not in summary:
                    raise ScenarioError(
                        f"metric {metric!r} was not collected; available: "
                        f"{', '.join(sorted(summary))}")
                series.setdefault(summary["strategy"], []).append(
                    (float(point.value), summary[metric]))
        return series


def _build_strategy(strategy: StrategySpec, strategies: ComponentRegistry,
                    sketches: ComponentRegistry, stream: IdentifierStream,
                    rng: np.random.Generator):
    """Build one spec entry's strategy (its sketch section, if any, as the
    frequency oracle) with ``stream`` and ``rng`` as the build context."""
    context: Dict[str, Any] = {"random_state": rng, "stream": stream}
    if strategy.sketch is not None:
        context["frequency_oracle"] = sketches.build(
            strategy.sketch.kind, strategy.sketch.params, random_state=rng)
    return strategies.build(strategy.kind, strategy.params, **context)


@dataclass
class ScenarioShardFactory:
    """Builds one shard's service of a sharded scenario strategy.

    A module-level dataclass rather than a closure so that process backends
    can ship it to their worker processes: it carries the strategy spec, the
    trial's input stream (needed by omniscient oracles) and the component
    registries, all of which pickle.  Each shard builds an independent clone
    of the strategy from its private spawned generator.
    """

    strategy: StrategySpec
    stream: IdentifierStream
    strategies: ComponentRegistry
    sketches: ComponentRegistry

    def __call__(self, index: int,
                 rng: np.random.Generator) -> NodeSamplingService:
        built = _build_strategy(self.strategy, self.strategies,
                                self.sketches, self.stream, rng)
        return NodeSamplingService(built, record_output=False)


def _set_axis_value(data: Dict[str, Any], path: str, value: Any) -> None:
    """Assign ``value`` at a dotted ``path`` inside a serialized scenario.

    Dict segments descend by key (the final key may be absent — parameters
    left at their defaults are created); list segments take a numeric index
    or ``*`` for every entry.  Raises :class:`ScenarioError` with the full
    path when a segment cannot be resolved.
    """
    segments = path.split(".")

    def descend(node: Any, index: int) -> None:
        segment = segments[index]
        last = index == len(segments) - 1
        if isinstance(node, list):
            if segment == "*":
                if not node:
                    raise ScenarioError(
                        f"sweep parameter {path!r}: '*' matched an empty "
                        "list")
                positions = range(len(node))
            else:
                try:
                    position = int(segment)
                except ValueError:
                    raise ScenarioError(
                        f"sweep parameter {path!r}: {segment!r} is not a "
                        "list index (use a number or '*')") from None
                if not 0 <= position < len(node):
                    raise ScenarioError(
                        f"sweep parameter {path!r}: index {position} out of "
                        f"range for a list of {len(node)}")
                positions = range(position, position + 1)
            for position in positions:
                if last:
                    node[position] = value
                else:
                    descend(node[position], index + 1)
        elif isinstance(node, dict):
            if last:
                node[segment] = value
            elif segment not in node:
                raise ScenarioError(
                    f"sweep parameter {path!r}: section {segment!r} is not "
                    f"present in the scenario (has: "
                    f"{', '.join(sorted(node)) or '(empty)'})")
            else:
                descend(node[segment], index + 1)
        else:
            raise ScenarioError(
                f"sweep parameter {path!r}: cannot descend into a "
                f"{type(node).__name__} at segment {segment!r}")

    descend(data, 0)


class ScenarioRunner:
    """Compile a :class:`ScenarioSpec` and execute it on the batch driver.

    Parameters
    ----------
    spec:
        The scenario to run (an already-parsed spec, a plain dict, or a JSON
        string are all accepted).
    strategies, streams, sketches, adversaries:
        Component registries; default to the global ones so registered
        extensions are visible without plumbing.
    """

    def __init__(self, spec, *,
                 strategies: Optional[ComponentRegistry] = None,
                 streams: Optional[ComponentRegistry] = None,
                 sketches: Optional[ComponentRegistry] = None,
                 adversaries: Optional[ComponentRegistry] = None) -> None:
        if isinstance(spec, str):
            spec = ScenarioSpec.from_json(spec)
        elif isinstance(spec, dict):
            spec = ScenarioSpec.from_dict(spec)
        if not isinstance(spec, ScenarioSpec):
            raise ScenarioError(
                f"spec must be a ScenarioSpec, dict or JSON string, "
                f"got {type(spec).__name__}")
        self.spec = spec
        self._strategies = strategies or registries.STRATEGIES
        self._streams = streams or registries.STREAMS
        self._sketches = sketches or registries.SKETCHES
        self._adversaries = adversaries or registries.ADVERSARIES

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Resolve every component key and parameter name, without running.

        Raises :class:`~repro.scenarios.registry.UnknownComponentError` for
        unregistered keys and :class:`ScenarioError` for parameters a
        builder does not accept — before any trial starts.
        """
        spec = self.spec
        if spec.sweep is not None:
            # Applying every axis value catches bad paths and out-of-domain
            # values before any trial starts.
            for value in spec.sweep.values:
                self.point_spec(value)
        if spec.mode == "network":
            return
        if spec.churn is not None:
            self._streams.check_params("churn", self._churn_params(spec.churn))
        else:
            self._streams.check_params(spec.stream.kind, spec.stream.params)
        for attack in spec.adversary or []:
            self._adversaries.check_params(attack.kind, attack.params)
        for strategy in spec.strategies:
            self._strategies.check_params(strategy.kind, strategy.params)
            if strategy.sketch is not None:
                self._sketches.check_params(strategy.sketch.kind,
                                            strategy.sketch.params)
                if not self._strategies.accepts(strategy.kind,
                                                "frequency_oracle"):
                    raise ScenarioError(
                        f"strategy {strategy.kind!r} does not accept a "
                        "frequency oracle; remove the 'sketch' section of "
                        f"{strategy.label!r}")

    @staticmethod
    def _churn_params(churn: ChurnSpec) -> Dict[str, Any]:
        """Map a stream-mode churn section onto the churn stream component."""
        params: Dict[str, Any] = {
            "initial_population": churn.initial_population,
            "churn_steps": churn.churn_steps,
            "stable_steps": churn.stable_steps,
            "join_rate": churn.join_rate,
            "leave_rate": churn.leave_rate,
        }
        if churn.advertisements_per_step is not None:
            params["advertisements_per_step"] = churn.advertisements_per_step
        return params

    def stream_factory(self):
        """Return the harness stream factory compiled from the spec.

        The factory builds the trial's legitimate stream from the stream
        registry (the churn component when a ``churn`` section is present);
        the harness merges in the static attacks of :meth:`attack_factory`.
        """
        spec = self.spec
        if spec.churn is not None:
            churn_params = self._churn_params(spec.churn)

            def churn_factory(rng: np.random.Generator) -> IdentifierStream:
                return self._streams.build("churn", churn_params,
                                           random_state=rng)

            return churn_factory

        def factory(rng: np.random.Generator) -> IdentifierStream:
            return self._streams.build(spec.stream.kind, spec.stream.params,
                                       random_state=rng)

        return factory

    def attack_factory(self):
        """Return the harness attack factory, or ``None`` without attacks.

        The factory builds the ``adversary`` list against one trial's
        legitimate stream: ``correct_identifiers`` is its universe, and
        every attack mints Sybil identifiers from one shared
        :class:`~repro.adversary.attacks.SybilIdentifierFactory`, so the
        coalition's identifiers never collide.  Building draws no
        randomness.  Adaptive attacks are rejected here, before any
        strategy runs, with the scalar driver or a strategy that needs the
        whole stream up front.
        """
        spec = self.spec
        if spec.adversary is None:
            return None

        def factory(stream: IdentifierStream) -> List[Any]:
            sybils = SybilIdentifierFactory(stream.universe)
            attacks = [self._adversaries.build(
                attack.kind, attack.params,
                correct_identifiers=stream.universe, sybil_factory=sybils)
                for attack in spec.adversary]
            if any(isinstance(attack, AdaptiveAttack) for attack in attacks):
                self._check_adaptive()
            return attacks

        return factory

    def _check_adaptive(self) -> None:
        """Reject what an adaptive attack cannot run with."""
        spec = self.spec
        if spec.engine.driver != "batch":
            raise ScenarioError(
                f"scenario {spec.name!r} has an adaptive attack; its "
                "feedback loop is chunk-granular, so the engine driver must "
                "be 'batch'")
        for strategy in spec.strategies:
            if self._strategies.accepts(strategy.kind, "stream"):
                raise ScenarioError(
                    f"strategy {strategy.kind!r} needs the full input "
                    "stream up front (it declares a 'stream' context "
                    "parameter); an adaptive attack generates the stream "
                    f"incrementally, so it cannot run in scenario "
                    f"{spec.name!r}")

    @staticmethod
    def _stable_metrics_view(stream: IdentifierStream,
                             output: IdentifierStream):
        """Restrict a (input, output) pair to the post-``T0`` stable view.

        The sampler processed the whole stream — churn-phase poison included
        — but uniformity is measured on what it emitted after ``T0``,
        against the stable population only (Section III-C).
        """
        stability_time = getattr(stream, "stability_time", None)
        stable_population = getattr(stream, "stable_population", None)
        if stability_time is None or stable_population is None:
            raise ScenarioError(
                "stable-only churn metrics need a stream carrying "
                "stability_time/stable_population metadata (produced by the "
                "'churn' stream component)")
        if len(output.identifiers) != len(stream.identifiers):
            raise ScenarioError(
                f"strategy emitted {len(output.identifiers)} outputs for "
                f"{len(stream.identifiers)} inputs; the stable-only view "
                "slices both streams at the input's T0 position and needs "
                "one output per input element")
        metric_input = IdentifierStream(
            identifiers=stream.identifiers[stability_time:],
            universe=stable_population,
            label=f"{stream.label}+stable",
        )
        metric_output = IdentifierStream(
            identifiers=output.identifiers[stability_time:],
            universe=stable_population,
            label=f"{output.label}+stable",
        )
        return metric_input, metric_output

    def strategy_factories(self) -> Dict[str, Any]:
        """Return the harness strategy factories, keyed by report label.

        With ``engine.shards`` set, each strategy is wrapped in a
        :class:`~repro.engine.sharded.ShardedSamplingService` whose shards
        run independent clones built from per-shard spawned generators, on
        the execution backend the engine section selects
        (``engine.backend`` / ``engine.workers``).  The shard factory is the
        picklable :class:`ScenarioShardFactory`, so process backends can
        ship it to their workers under any start method.  The worker token
        is read here, from the file ``engine.auth_token_file`` names.
        """
        spec = self.spec
        engine = spec.engine
        auth_token = (None if engine.auth_token_file is None
                      else load_auth_token(engine.auth_token_file))
        factories: Dict[str, Any] = {}
        for strategy in spec.strategies:
            if engine.shards is None:
                factories[strategy.label] = partial(
                    _build_strategy, strategy, self._strategies,
                    self._sketches)
                continue

            def sharded(stream: IdentifierStream, rng: np.random.Generator,
                        *, _strategy=strategy) -> ShardedSamplingService:
                shard_factory = ScenarioShardFactory(
                    strategy=_strategy,
                    stream=stream,
                    strategies=self._strategies,
                    sketches=self._sketches,
                )
                return ShardedSamplingService(
                    engine.shards, shard_factory, random_state=rng,
                    backend=engine.backend, workers=engine.workers,
                    endpoints=engine.endpoints, auth_token=auth_token,
                    autoscale=engine.autoscale)

            factories[strategy.label] = sharded
        return factories

    def compile(self, *, random_state: RandomState = None):
        """Compile a stream scenario into a ready experiment harness.

        ``random_state`` defaults to the spec's master seed; ``run_sweep``
        passes a shared generator instead so successive sweep points draw
        successive per-trial children from one master stream.
        """
        from repro.experiments.harness import ExperimentHarness

        spec = self.spec
        if spec.mode != "stream":
            raise ScenarioError(
                f"scenario {spec.name!r} is a network scenario; use run() "
                "or system_simulation()")
        self.validate()
        batch_size = (spec.engine.batch_size
                      if spec.engine.driver == "batch" else None)
        metrics_view = (self._stable_metrics_view
                        if spec.churn is not None and spec.churn.stable_only
                        else None)
        return ExperimentHarness(
            self.stream_factory(),
            self.strategy_factories(),
            trials=spec.trials,
            random_state=(spec.seed if random_state is None else random_state),
            batch_size=batch_size,
            metrics_view=metrics_view,
            attack_factory=self.attack_factory(),
        )

    def system_config(self) -> SystemConfig:
        """Build the :class:`SystemConfig` of a network scenario.

        A ``churn`` section maps onto :class:`ChurnConfig`: the membership
        is dynamic for ``churn_steps`` rounds, then frozen for
        ``stable_steps`` rounds (the network ``rounds`` field is ignored),
        and with ``stable_only`` the report covers the stable population
        only.
        """
        network = self.spec.network
        if network is None:
            raise ScenarioError(
                f"scenario {self.spec.name!r} has no network section")
        churn = None
        if self.spec.churn is not None:
            churn = ChurnConfig(
                churn_rounds=self.spec.churn.churn_steps,
                stable_rounds=self.spec.churn.stable_steps,
                join_rate=self.spec.churn.join_rate,
                leave_rate=self.spec.churn.leave_rate,
                stable_only=self.spec.churn.stable_only,
            )
        return SystemConfig(
            churn=churn,
            num_correct=network.num_correct,
            num_malicious=network.num_malicious,
            sybil_identifiers_per_malicious=(
                network.sybil_identifiers_per_malicious),
            protocol=DisseminationProtocol(network.protocol),
            rounds=network.rounds,
            node_config=NodeConfig(
                memory_size=network.memory_size,
                sketch_width=network.sketch_width,
                sketch_depth=network.sketch_depth,
            ),
            fanout=network.fanout,
            malicious_fanout=network.malicious_fanout,
        )

    def system_simulation(self, *, random_state=None) -> SystemSimulation:
        """Build one ready-to-run :class:`SystemSimulation` from the spec."""
        return SystemSimulation(
            self.system_config(),
            random_state=(self.spec.seed
                          if random_state is None else random_state),
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(self) -> ScenarioResult:
        """Execute the scenario and return its serializable result.

        Scenarios carrying a ``sweep`` section are one-axis families, not
        single experiments — run those through :meth:`run_sweep`.
        """
        if self.spec.sweep is not None:
            raise ScenarioError(
                f"scenario {self.spec.name!r} has a sweep section; "
                "use run_sweep()")
        if self.spec.mode == "network":
            return self._run_network()
        return self._run_stream()

    def point_spec(self, value: Any) -> ScenarioSpec:
        """Return the scenario of one sweep point (axis set to ``value``).

        The point keeps the base scenario's every other field, drops the
        sweep section, applies the sweep's per-point ``trials`` override and
        renames itself ``name[label=value]``.
        """
        sweep = self.spec.sweep
        if sweep is None:
            raise ScenarioError(
                f"scenario {self.spec.name!r} has no sweep section")
        data = self.spec.to_dict()
        data.pop("sweep", None)
        if sweep.trials is not None:
            data["trials"] = sweep.trials
        _set_axis_value(data, sweep.parameter, value)
        data["name"] = f"{self.spec.name}[{sweep.label}={value}]"
        return ScenarioSpec.from_dict(data)

    def run_sweep(self, *, random_state: RandomState = None) -> SweepResult:
        """Execute every point of the sweep and return the collected results.

        All points draw from one master generator seeded by the spec's
        ``seed`` (or ``random_state``): point ``i+1`` continues where point
        ``i`` stopped spawning per-trial children.  This is exactly the seed
        flow of the retired per-figure driver loops, so a figure rebuilt as
        a sweep reproduces its legacy output bit for bit — and re-running a
        serialized sweep spec reproduces the whole family.
        """
        sweep = self.spec.sweep
        if sweep is None:
            raise ScenarioError(
                f"scenario {self.spec.name!r} has no sweep section; "
                "use run()")
        # Fail on a bad axis path or an out-of-spec value at any point
        # before the first point starts running (validate applies every
        # sweep value), not halfway through the family.
        self.validate()
        master = ensure_rng(self.spec.seed
                            if random_state is None else random_state)
        points: List[SweepPoint] = []
        for value in sweep.values:
            runner = ScenarioRunner(
                self.point_spec(value),
                strategies=self._strategies,
                streams=self._streams,
                sketches=self._sketches,
                adversaries=self._adversaries,
            )
            if runner.spec.mode == "network":
                result = runner._run_network(random_state=master)
            else:
                result = runner._run_stream(random_state=master)
            points.append(SweepPoint(value=value, result=result))
        reg = telemetry.active()
        if reg is not None:
            reg.counter("scenario.sweeps").inc()
            reg.counter("scenario.sweep_points").inc(len(points))
        return SweepResult(name=self.spec.name, parameter=sweep.parameter,
                           label=sweep.label, points=points)

    def _run_stream(self, *, random_state: RandomState = None
                    ) -> ScenarioResult:
        spec = self.spec
        started = time.perf_counter()
        harness = self.compile(random_state=random_state)
        result = harness.run()
        reg = telemetry.active()
        if reg is not None:
            reg.counter("scenario.stream_runs").inc()
            reg.histogram("scenario.run_seconds", TIME_EDGES).observe(
                time.perf_counter() - started)
        collect = set(spec.metrics.collect)
        summaries: List[Dict[str, Any]] = []
        for name, summary in result.summaries().items():
            row: Dict[str, Any] = {"strategy": name, "trials": summary.trials}
            if "gain" in collect:
                row["mean_gain"] = summary.mean_gain
                row["std_gain"] = summary.std_gain
            if "divergence" in collect:
                row["mean_input_divergence"] = summary.mean_input_divergence
                row["mean_output_divergence"] = summary.mean_output_divergence
            if "max_frequency" in collect:
                row["mean_output_max_frequency"] = (
                    summary.mean_output_max_frequency)
            summaries.append(row)
        details: List[Dict[str, Any]] = []
        for trial in result.trials:
            row = {"strategy": trial.strategy, "trial": trial.trial,
                   "stream_size": trial.stream_size}
            if "gain" in collect:
                row["gain"] = trial.gain
            if "divergence" in collect:
                row["input_divergence"] = trial.input_divergence
                row["output_divergence"] = trial.output_divergence
            if "max_frequency" in collect:
                row["input_max_frequency"] = trial.input_max_frequency
                row["output_max_frequency"] = trial.output_max_frequency
            details.append(row)
        return ScenarioResult(name=spec.name, mode=spec.mode,
                              summaries=summaries, details=details)

    def _network_rows(self, trial: int, report: SystemReport):
        collect = set(self.spec.metrics.collect)
        summary: Dict[str, Any] = {"trial": trial,
                                   "nodes": len(report.per_node)}
        if "gain" in collect:
            summary["mean_gain"] = report.mean_gain
        if "divergence" in collect:
            summary["mean_input_divergence"] = report.mean_input_divergence
            summary["mean_output_divergence"] = report.mean_output_divergence
        if "malicious_fraction" in collect:
            summary["mean_malicious_fraction_output"] = (
                report.mean_malicious_fraction_output)
        details = []
        for node in report.per_node:
            row: Dict[str, Any] = {
                "trial": trial,
                "node_id": node.node_id,
                "stream_length": node.stream_length,
                "distinct_received": node.distinct_received,
            }
            if "gain" in collect:
                row["gain"] = node.gain
            if "divergence" in collect:
                row["input_divergence"] = node.input_divergence
                row["output_divergence"] = node.output_divergence
            if "malicious_fraction" in collect:
                row["malicious_fraction_input"] = node.malicious_fraction_input
                row["malicious_fraction_output"] = (
                    node.malicious_fraction_output)
            details.append(row)
        return summary, details

    def _run_network(self, *, random_state: RandomState = None
                     ) -> ScenarioResult:
        spec = self.spec
        config = self.system_config()
        master = ensure_rng(spec.seed if random_state is None
                            else random_state)
        trial_rngs = spawn_children(master, spec.trials)
        summaries: List[Dict[str, Any]] = []
        details: List[Dict[str, Any]] = []
        started = time.perf_counter()
        for trial, rng in enumerate(trial_rngs):
            simulation = SystemSimulation(config, random_state=rng).run()
            summary, rows = self._network_rows(trial, simulation.report())
            summaries.append(summary)
            details.extend(rows)
        reg = telemetry.active()
        if reg is not None:
            reg.counter("scenario.network_runs").inc()
            reg.counter("scenario.network_trials").inc(len(trial_rngs))
            reg.histogram("scenario.run_seconds", TIME_EDGES).observe(
                time.perf_counter() - started)
        return ScenarioResult(name=spec.name, mode=spec.mode,
                              summaries=summaries, details=details)


def run_scenario(spec, **kwargs) -> ScenarioResult:
    """One-call convenience: build a runner for ``spec`` and run it."""
    return ScenarioRunner(spec, **kwargs).run()


def run_sweep(spec, **kwargs) -> SweepResult:
    """One-call convenience: build a runner for ``spec`` and run its sweep."""
    return ScenarioRunner(spec, **kwargs).run_sweep()
