"""Built-in component registrations of the scenario API.

Importing this module (done automatically by :mod:`repro.scenarios`)
registers the library's stock streams, strategies, sketches and adversaries
under the string keys a :class:`~repro.scenarios.spec.ScenarioSpec` uses.
Applications extend the same registries with the ``register_*`` decorators.
"""

from __future__ import annotations

from repro.adversary.adaptive import (
    BurstSybilAttack,
    EclipseAttack,
    MemoryFloodAttack,
)
from repro.adversary.attacks import (
    flooding_attack,
    peak_attack,
    targeted_attack,
)
from repro.core.adaptive import AdaptiveKnowledgeFreeStrategy
from repro.core.baselines import (
    FullMemorySampler,
    MinWiseSampler,
    ReservoirSampler,
)
from repro.core.knowledge_free import KnowledgeFreeStrategy
from repro.core.omniscient import OmniscientStrategy
from repro.scenarios.registry import (
    ScenarioError,
    register_adversary,
    register_sketch,
    register_strategy,
    register_stream,
)
from repro.sketches.count_min import CountMinSketch, ExactFrequencyCounter
from repro.sketches.count_sketch import CountSketch
from repro.sketches.misra_gries import SpaceSavingSummary
from repro.streams.churn import (
    ChurnModel,
    FlashCrowdChurnModel,
    ParetoChurnModel,
)
from repro.streams.generators import (
    overrepresented_stream,
    peak_attack_stream,
    peak_stream,
    poisson_arrival_stream,
    poisson_attack_stream,
    truncated_poisson_stream,
    uniform_stream,
    zipf_stream,
)
from repro.streams.oracle import StreamOracle
from repro.streams.traces import PAPER_TRACES, SyntheticTrace
from repro.utils.rng import RandomState

# --------------------------------------------------------------------- #
# Streams
# --------------------------------------------------------------------- #
register_stream("uniform", uniform_stream)
register_stream("zipf", zipf_stream)
register_stream("truncated-poisson", truncated_poisson_stream)
register_stream("peak", peak_stream)
register_stream("peak-attack", peak_attack_stream)
register_stream("poisson-attack", poisson_attack_stream)
register_stream("bursty", poisson_arrival_stream)
register_stream("overrepresented", overrepresented_stream)


@register_stream("churn")
def churn_stream(initial_population: int, churn_steps: int = 100,
                 stable_steps: int = 100, *, join_rate: float = 0.05,
                 leave_rate: float = 0.05, advertisements_per_step: int = 5,
                 random_state: RandomState = None):
    """Full churn-phase-plus-stable-phase stream of a dynamic population.

    The returned stream carries the pre-/post-``T0`` split as metadata
    (``stability_time``, the index at which churn ceased, and
    ``stable_population``): scenarios with a ``churn`` section use it to
    measure uniformity over the stable population only, as the paper's
    Uniformity property requires.
    """
    model = ChurnModel(initial_population, join_rate=join_rate,
                       leave_rate=leave_rate,
                       advertisements_per_step=advertisements_per_step,
                       random_state=random_state)
    trace = model.generate(churn_steps, stable_steps)
    stream = trace.stream
    stream.stability_time = trace.stability_time
    stream.stable_population = trace.stable_population
    return stream


@register_stream("pareto_churn")
def pareto_churn_stream(initial_population: int, churn_steps: int = 100,
                        stable_steps: int = 100, *, join_rate: float = 0.05,
                        lifetime_shape: float = 1.5,
                        lifetime_scale: float = 10.0,
                        advertisements_per_step: int = 5,
                        random_state: RandomState = None):
    """Churn stream with heavy-tailed (Pareto) session lifetimes.

    Same pre-/post-``T0`` metadata contract as the ``churn`` component, but
    departures are driven by per-node Pareto lifetimes instead of a constant
    leave rate — the session-time law peer-to-peer measurement studies
    report (most sessions short, a few near-immortal).
    """
    model = ParetoChurnModel(initial_population, join_rate=join_rate,
                             lifetime_shape=lifetime_shape,
                             lifetime_scale=lifetime_scale,
                             advertisements_per_step=advertisements_per_step,
                             random_state=random_state)
    trace = model.generate(churn_steps, stable_steps)
    stream = trace.stream
    stream.stability_time = trace.stability_time
    stream.stable_population = trace.stable_population
    return stream


@register_stream("flash_crowd")
def flash_crowd_stream(initial_population: int, churn_steps: int = 100,
                       stable_steps: int = 100, *, burst_rate: float = 0.02,
                       burst_size: float = 20.0, join_rate: float = 0.0,
                       leave_rate: float = 0.05,
                       advertisements_per_step: int = 5,
                       random_state: RandomState = None):
    """Churn stream with Poisson-burst correlated arrivals (flash crowds).

    Same pre-/post-``T0`` metadata contract as the ``churn`` component, but
    the join process is bursty: with per-step probability ``burst_rate`` a
    crowd of ``1 + Poisson(burst_size)`` nodes joins at once, on top of an
    optional ``join_rate`` trickle — the correlated mass-arrival regime of
    flash-crowd measurement studies.
    """
    model = FlashCrowdChurnModel(initial_population, burst_rate=burst_rate,
                                 burst_size=burst_size, join_rate=join_rate,
                                 leave_rate=leave_rate,
                                 advertisements_per_step=advertisements_per_step,
                                 random_state=random_state)
    trace = model.generate(churn_steps, stable_steps)
    stream = trace.stream
    stream.stability_time = trace.stability_time
    stream.stable_population = trace.stable_population
    return stream


@register_stream("trace")
def _trace_stream(name: str, scale: float = 0.01, *,
                  random_state: RandomState = None):
    """One of the paper's Table II trace stand-ins, down-scaled for replay."""
    specs = {spec.name.lower(): spec for spec in PAPER_TRACES}
    try:
        spec = specs[str(name).lower()]
    except KeyError:
        raise ScenarioError(
            f"unknown trace {name!r}; available: "
            f"{', '.join(sorted(specs))}") from None
    trace = SyntheticTrace(spec, scale=scale, random_state=random_state)
    return trace.materialise()


# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #
register_strategy("knowledge-free", KnowledgeFreeStrategy)
register_strategy("adaptive-knowledge-free", AdaptiveKnowledgeFreeStrategy)
register_strategy("minwise", MinWiseSampler)
register_strategy("reservoir", ReservoirSampler)
register_strategy("full-memory", FullMemorySampler)


@register_strategy("omniscient")
def _omniscient_strategy(memory_size: int, *, stream=None,
                         random_state: RandomState = None):
    """Algorithm 1 with an oracle built from the trial's exact frequencies."""
    if stream is None:
        raise ScenarioError(
            "the omniscient strategy needs the trial's input stream to build "
            "its oracle; it can only run inside a scenario")
    oracle = StreamOracle.from_stream(stream)
    return OmniscientStrategy(oracle, memory_size, random_state=random_state)


# --------------------------------------------------------------------- #
# Sketches (frequency oracles for the knowledge-free strategy)
# --------------------------------------------------------------------- #
register_sketch("count-min", CountMinSketch)
register_sketch("count-sketch", CountSketch)
register_sketch("space-saving", SpaceSavingSummary)
register_sketch("exact", ExactFrequencyCounter)


# --------------------------------------------------------------------- #
# Adversaries: static attacks are merged into the stream before ingestion,
# adaptive ones are scheduled between chunks against the running sampler
# --------------------------------------------------------------------- #
register_adversary("peak", peak_attack)
register_adversary("targeted", targeted_attack)
register_adversary("flooding", flooding_attack)
register_adversary("memory_flood", MemoryFloodAttack)
register_adversary("eclipse", EclipseAttack)
register_adversary("burst_sybil", BurstSybilAttack)
