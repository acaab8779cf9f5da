"""Experiment harness: run a sampling strategy against a biased stream.

The paper evaluates every setting by averaging 100 trials of the same
experiment.  :class:`ExperimentHarness` encapsulates one such experiment —
a stream-factory, a set of strategies, and the metrics to report — and runs
it for an arbitrary number of trials with independent seeds, returning both
per-trial and averaged results.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.adversary.adaptive import AdaptiveAdversary, AdaptiveAttack
from repro.adversary.adversary import Adversary
from repro.core.base import SamplingStrategy
from repro.core.knowledge_free import KnowledgeFreeStrategy
from repro.core.omniscient import OmniscientStrategy
from repro.engine.batch import DEFAULT_BATCH_SIZE, run_stream
from repro.streams.source import MaterializedStreamSource
from repro.metrics.divergence import kl_divergence_to_uniform, kl_gain
from repro.streams.oracle import StreamOracle
from repro.streams.stream import IdentifierStream
from repro.telemetry import runtime as telemetry
from repro.telemetry.registry import TIME_EDGES
from repro.utils.rng import RandomState, ensure_rng, spawn_children
from repro.utils.validation import check_positive

#: A stream factory takes a per-trial RNG and returns the trial's stream (the
#: attacks of an ``attack_factory``, if any, are applied on top of it).
StreamFactory = Callable[[np.random.Generator], IdentifierStream]

#: A strategy factory takes the input stream and a per-trial RNG and returns a
#: ready-to-run sampling strategy (the stream is needed by omniscient
#: strategies to build their oracle).
StrategyFactory = Callable[[IdentifierStream, np.random.Generator], SamplingStrategy]

#: A metrics view maps the (input, output) stream pair of one strategy run to
#: the pair the metrics are computed over — e.g. the post-T0 suffixes over
#: the stable population for churn scenarios.  The identity view is used when
#: absent.
MetricsView = Callable[[IdentifierStream, IdentifierStream],
                       "tuple[IdentifierStream, IdentifierStream]"]

#: An attack factory takes the trial's legitimate stream and returns the
#: trial's attacks — static ones (merged into the stream up front) and
#: :class:`~repro.adversary.adaptive.AdaptiveAttack` objects (scheduled
#: between chunks).  Building attacks must consume no randomness.
AttackFactory = Callable[[IdentifierStream], Sequence[object]]


@dataclass
class TrialResult:
    """Metrics of one strategy on one trial."""

    strategy: str
    trial: int
    input_divergence: float
    output_divergence: float
    gain: float
    input_max_frequency: int
    output_max_frequency: int
    stream_size: int


@dataclass
class StrategySummary:
    """Averaged metrics of one strategy over all trials."""

    strategy: str
    trials: int
    mean_input_divergence: float
    mean_output_divergence: float
    mean_gain: float
    std_gain: float
    mean_output_max_frequency: float


@dataclass
class ExperimentResult:
    """All per-trial results plus per-strategy summaries."""

    trials: List[TrialResult] = field(default_factory=list)

    def for_strategy(self, name: str) -> List[TrialResult]:
        """Return the per-trial results of one strategy."""
        return [trial for trial in self.trials if trial.strategy == name]

    def summaries(self) -> Dict[str, StrategySummary]:
        """Return the averaged metrics keyed by strategy name."""
        summaries: Dict[str, StrategySummary] = {}
        names = sorted({trial.strategy for trial in self.trials})
        for name in names:
            rows = self.for_strategy(name)
            gains = np.array([row.gain for row in rows])
            summaries[name] = StrategySummary(
                strategy=name,
                trials=len(rows),
                mean_input_divergence=float(np.mean(
                    [row.input_divergence for row in rows])),
                mean_output_divergence=float(np.mean(
                    [row.output_divergence for row in rows])),
                mean_gain=float(gains.mean()),
                std_gain=float(gains.std()),
                mean_output_max_frequency=float(np.mean(
                    [row.output_max_frequency for row in rows])),
            )
        return summaries

    def mean_gain(self, strategy: str) -> float:
        """Return the mean gain of one strategy."""
        rows = self.for_strategy(strategy)
        if not rows:
            raise KeyError(f"no trials recorded for strategy {strategy!r}")
        return float(np.mean([row.gain for row in rows]))


def default_strategy_factories(memory_size: int, sketch_width: int,
                               sketch_depth: int) -> Dict[str, StrategyFactory]:
    """Return the paper's two strategies as harness factories.

    The omniscient strategy receives an oracle built from the exact empirical
    frequencies of the trial's input stream, matching the paper's definition
    of omniscience.
    """
    def make_knowledge_free(stream: IdentifierStream,
                            rng: np.random.Generator) -> SamplingStrategy:
        return KnowledgeFreeStrategy(memory_size, sketch_width=sketch_width,
                                     sketch_depth=sketch_depth,
                                     random_state=rng)

    def make_omniscient(stream: IdentifierStream,
                        rng: np.random.Generator) -> SamplingStrategy:
        oracle = StreamOracle.from_stream(stream)
        return OmniscientStrategy(oracle, memory_size, random_state=rng)

    return {
        "knowledge-free": make_knowledge_free,
        "omniscient": make_omniscient,
    }


class ExperimentHarness:
    """Run one experiment (stream x strategies) over several trials.

    Parameters
    ----------
    stream_factory:
        Builds the input stream of a trial from a per-trial RNG.
    strategy_factories:
        Mapping strategy-name -> factory; each strategy processes the same
        input stream within a trial.
    trials:
        Number of independent repetitions.
    random_state:
        Master seed from which per-trial seeds are derived.
    batch_size:
        Chunk size handed to the batch streaming engine
        (:func:`repro.engine.batch.run_stream`), which since the engine's
        introduction is the harness's driver.  Every strategy produces the
        same output stream under the batch driver as per-element (the
        engine's exactness contract), so this only changes speed; pass
        ``None`` to force the legacy per-element ``process_stream`` loop.
    metrics_view:
        Optional view applied to each (input, output) stream pair before
        any metric is computed.  The strategies still process the *full*
        input stream; the view only narrows what is measured — churn
        scenarios use it to report uniformity over the post-``T0`` suffix
        and the stable population only.
    attack_factory:
        Optional builder of each trial's attacks, one adversary of
        Section III-B.  Static attacks are merged into the trial's stream
        once, with the trial's generator, before any strategy is built, so
        every strategy of the trial reads the same biased input.  Adaptive
        attacks run per strategy on a fresh copy: between chunks they
        observe the running sampler through a read-only view and
        interleave their insertions, so each strategy's metric input is
        its own biased stream.  Adaptive attacks require the batch driver.
    """

    def __init__(self, stream_factory: StreamFactory,
                 strategy_factories: Dict[str, StrategyFactory], *,
                 trials: int = 10,
                 random_state: RandomState = None,
                 batch_size: Optional[int] = DEFAULT_BATCH_SIZE,
                 metrics_view: Optional[MetricsView] = None,
                 attack_factory: Optional[AttackFactory] = None) -> None:
        check_positive("trials", trials)
        if not strategy_factories:
            raise ValueError("at least one strategy factory is required")
        if batch_size is not None:
            check_positive("batch_size", batch_size)
        self.stream_factory = stream_factory
        self.strategy_factories = dict(strategy_factories)
        self.trials = int(trials)
        self.batch_size = batch_size
        self.metrics_view = metrics_view
        self.attack_factory = attack_factory
        self._rng = ensure_rng(random_state)

    @classmethod
    def from_scenario(cls, spec) -> "ExperimentHarness":
        """Compile a declarative scenario spec into a ready harness.

        ``spec`` is anything :class:`~repro.scenarios.runner.ScenarioRunner`
        accepts (a :class:`~repro.scenarios.spec.ScenarioSpec`, a dict, or a
        JSON string) in stream mode.  This is the preferred wiring path:
        hand-built factory dictionaries remain supported for programmatic
        use, but every scenario expressible as data should be declared as a
        spec and compiled here (or run directly through
        :func:`repro.scenarios.run_scenario`).
        """
        from repro.scenarios.runner import ScenarioRunner

        return ScenarioRunner(spec).compile()

    def trial_input(self, rng: np.random.Generator
                    ) -> Tuple[IdentifierStream, List[AdaptiveAttack]]:
        """Build one trial's input from the trial generator ``rng``.

        Returns the stream every strategy of the trial reads — the
        legitimate stream with the static attacks' insertions merged in —
        and the adaptive attacks, which :meth:`run` schedules per strategy.
        """
        stream = self.stream_factory(rng)
        attacks = (list(self.attack_factory(stream))
                   if self.attack_factory is not None else [])
        adaptive = [attack for attack in attacks
                    if isinstance(attack, AdaptiveAttack)]
        static = [attack for attack in attacks
                  if not isinstance(attack, AdaptiveAttack)]
        if adaptive and self.batch_size is None:
            raise ValueError(
                "adaptive attacks schedule insertions between chunks; they "
                "require the batch driver (set batch_size)")
        if static:
            stream = Adversary(static, random_state=rng).bias(stream)
        return stream, adaptive

    def _drive(self, strategy: SamplingStrategy, stream: IdentifierStream,
               adaptive: List[AdaptiveAttack], rng: np.random.Generator
               ) -> Tuple[IdentifierStream, IdentifierStream]:
        """Feed one strategy its input; return the (input, output) pair.

        The stream is read chunk by chunk through a
        :class:`~repro.streams.source.StreamSource`; with adaptive attacks
        the source interleaves their insertions, scheduled against the
        running strategy, and the biased stream it emitted is the input.
        """
        if self.batch_size is None:
            return stream, strategy.process_stream(stream)
        source = MaterializedStreamSource(stream, chunk_size=self.batch_size)
        if adaptive:
            # Fresh attack state per run, and the adversary's own spawned
            # child generator — separate from the sampler's coins, as the
            # paper's model requires.  Spawning advances the trial
            # generator's spawn key only, never its bit stream.
            adversary = AdaptiveAdversary(
                copy.deepcopy(adaptive),
                random_state=spawn_children(rng, 1)[0])
            source = adversary.source(source)
        result = run_stream(strategy, source, batch_size=self.batch_size)
        biased = source.materialized()
        label = getattr(strategy, "name", type(strategy).__name__)
        return biased, result.output_stream(
            biased, label=f"{label}({biased.label})")

    def run(self) -> ExperimentResult:
        """Run all trials and return the collected results."""
        result = ExperimentResult()
        trial_rngs = spawn_children(self._rng, self.trials)
        # Telemetry (when enabled) times each trial and each strategy drive
        # and counts the elements the metrics are computed over; it draws no
        # randomness, so enabling it cannot shift any trial's coin streams.
        reg = telemetry.active()
        if reg is not None:
            trial_seconds = reg.histogram("harness.trial_seconds", TIME_EDGES)
            drive_seconds = reg.histogram("harness.drive_seconds", TIME_EDGES)
            trials_total = reg.counter("harness.trials")
            drives_total = reg.counter("harness.strategy_runs")
            metric_elements = reg.counter("harness.metric_elements")
            view_applications = reg.counter("harness.metrics_view_applied")
        for trial_index, trial_rng in enumerate(trial_rngs):
            trial_started = time.perf_counter()
            stream, adaptive = self.trial_input(trial_rng)
            for name, factory in self.strategy_factories.items():
                strategy = factory(stream, trial_rng)
                drive_started = time.perf_counter()
                try:
                    input_stream, output = self._drive(strategy, stream,
                                                       adaptive, trial_rng)
                finally:
                    # process-backed sharded services hold worker processes;
                    # release them as soon as the trial's outputs are read
                    closer = getattr(strategy, "close", None)
                    if callable(closer):
                        closer()
                if reg is not None:
                    drive_seconds.observe(time.perf_counter() - drive_started)
                    drives_total.inc()
                if self.metrics_view is None:
                    metric_input, metric_output = input_stream, output
                else:
                    metric_input, metric_output = self.metrics_view(
                        input_stream, output)
                if reg is not None:
                    metric_elements.inc(len(metric_output.identifiers))
                    if self.metrics_view is not None:
                        view_applications.inc()
                # a metrics view narrows the measured support (e.g. to the
                # stable population), so out-of-support outputs are scored
                # as uniformity violations rather than rejected
                penalise = self.metrics_view is not None
                support = metric_input.universe
                input_divergence = kl_divergence_to_uniform(
                    metric_input, support=support,
                    penalise_out_of_support=penalise)
                output_divergence = kl_divergence_to_uniform(
                    metric_output, support=support,
                    penalise_out_of_support=penalise)
                gain = kl_gain(metric_input, metric_output, support=support,
                               penalise_out_of_support=penalise)
                result.trials.append(TrialResult(
                    strategy=name,
                    trial=trial_index,
                    input_divergence=input_divergence,
                    output_divergence=output_divergence,
                    gain=gain,
                    input_max_frequency=metric_input.max_frequency(),
                    output_max_frequency=metric_output.max_frequency(),
                    stream_size=input_stream.size,
                ))
            if reg is not None:
                trial_seconds.observe(time.perf_counter() - trial_started)
                trials_total.inc()
        return result


def sweep(parameter_values: Sequence,
          harness_factory: Callable[[object], ExperimentHarness]
          ) -> Dict[object, ExperimentResult]:
    """Run a harness for every value of a swept parameter.

    This is the programmatic escape hatch for sweeps over hand-built
    harnesses; sweeps expressible as data should be declared through a
    ``sweep`` section on a :class:`~repro.scenarios.spec.ScenarioSpec` and
    run with :meth:`~repro.scenarios.runner.ScenarioRunner.run_sweep` (the
    path the paper figures use).

    Parameters
    ----------
    parameter_values:
        The values of the swept parameter.
    harness_factory:
        Builds the harness for one parameter value.

    Returns
    -------
    dict
        Mapping parameter value -> :class:`ExperimentResult`.
    """
    results: Dict[object, ExperimentResult] = {}
    for value in parameter_values:
        harness = harness_factory(value)
        results[value] = harness.run()
    return results
