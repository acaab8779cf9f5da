"""High-level system simulator tying overlays, gossip/walks and sampling together.

:class:`SystemSimulation` is the "whole system" entry point: it builds a
population of correct and malicious nodes, connects them with an overlay,
disseminates identifiers with either gossip or random walks, and reports
per-node uniformity metrics of the resulting sampler outputs.  The example
applications and the integration tests drive the library through this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional

import numpy as np

from repro.metrics.divergence import kl_divergence_to_uniform, kl_gain
from repro.network.gossip import GossipConfig, GossipSimulation
from repro.network.node import NodeConfig
from repro.network.random_walk import RandomWalkConfig, RandomWalkSimulation
from repro.streams.stream import IdentifierStream
from repro.utils.rng import RandomState, ensure_rng, spawn_children
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_probability,
)


class DisseminationProtocol(str, Enum):
    """Which identifier-dissemination substrate feeds the samplers."""

    GOSSIP = "gossip"
    RANDOM_WALK = "random-walk"


@dataclass
class ChurnConfig:
    """Dynamic-membership parameters of a system simulation.

    During the first ``churn_rounds`` dissemination rounds, correct nodes
    join (with probability ``join_rate`` per round) and leave (with
    probability ``leave_rate`` per round, a uniformly chosen alive node).
    After that point — the paper's stability time ``T0`` — the membership
    freezes and the simulation runs ``stable_rounds`` further rounds.
    Malicious nodes do not churn: the adversary's ``l`` identifiers are
    fixed (Section III-B).

    With ``stable_only`` (the default) the report restricts every metric to
    the post-``T0`` portion of each stream and to the stable population —
    the setting of the paper's Uniformity property.
    """

    churn_rounds: int = 25
    stable_rounds: int = 25
    join_rate: float = 0.05
    leave_rate: float = 0.05
    stable_only: bool = True

    def __post_init__(self) -> None:
        check_positive("churn_rounds", self.churn_rounds)
        check_non_negative("stable_rounds", self.stable_rounds)
        check_probability("join_rate", self.join_rate)
        check_probability("leave_rate", self.leave_rate)
        if self.stable_only and self.stable_rounds == 0:
            raise ValueError(
                "stable_only needs a non-empty stable phase (the report "
                "would cover zero post-T0 traffic); set stable_rounds > 0 "
                "or stable_only to False")

    @property
    def total_rounds(self) -> int:
        """Total number of dissemination rounds (churn then stable phase)."""
        return self.churn_rounds + self.stable_rounds


@dataclass(frozen=True)
class MembershipEvent:
    """One scheduled membership change of the churn phase."""

    round: int
    node_id: int
    joined: bool


@dataclass
class SystemConfig:
    """Configuration of a whole-system simulation."""

    num_correct: int = 50
    num_malicious: int = 5
    sybil_identifiers_per_malicious: int = 1
    protocol: DisseminationProtocol = DisseminationProtocol.GOSSIP
    rounds: int = 50
    node_config: NodeConfig = field(default_factory=NodeConfig)
    fanout: int = 3
    malicious_fanout: int = 6
    #: Optional dynamic membership; when set, ``num_correct`` is the
    #: population at round 0 and the simulation runs
    #: ``churn.total_rounds`` rounds (the ``rounds`` field is ignored).
    churn: Optional[ChurnConfig] = None

    def __post_init__(self) -> None:
        check_positive("num_correct", self.num_correct)
        if self.num_malicious < 0:
            raise ValueError("num_malicious must be non-negative")
        check_positive("rounds", self.rounds)


@dataclass
class NodeReport:
    """Uniformity metrics of one correct node after the simulation."""

    node_id: int
    stream_length: int
    distinct_received: int
    input_divergence: float
    output_divergence: float
    gain: float
    malicious_fraction_input: float
    malicious_fraction_output: float


@dataclass
class SystemReport:
    """Aggregated metrics over all correct nodes."""

    per_node: List[NodeReport]

    @property
    def mean_gain(self) -> float:
        """Mean KL gain over the correct nodes."""
        if not self.per_node:
            return 0.0
        return float(np.mean([report.gain for report in self.per_node]))

    @property
    def mean_input_divergence(self) -> float:
        """Mean input-stream KL divergence to uniform."""
        if not self.per_node:
            return 0.0
        return float(np.mean([report.input_divergence for report in self.per_node]))

    @property
    def mean_output_divergence(self) -> float:
        """Mean output-stream KL divergence to uniform."""
        if not self.per_node:
            return 0.0
        return float(np.mean([report.output_divergence for report in self.per_node]))

    @property
    def mean_malicious_fraction_output(self) -> float:
        """Mean fraction of adversary-controlled identifiers in the outputs."""
        if not self.per_node:
            return 0.0
        return float(np.mean([report.malicious_fraction_output
                              for report in self.per_node]))


class SystemSimulation:
    """End-to-end simulation of the node sampling service in a hostile system.

    Parameters
    ----------
    config:
        System configuration.
    random_state:
        Master seed.
    """

    def __init__(self, config: Optional[SystemConfig] = None, *,
                 random_state: RandomState = None) -> None:
        self.config = config or SystemConfig()
        num_correct = self.config.num_correct
        self._membership_events: List[MembershipEvent] = []
        self._initially_inactive: List[int] = []
        self.stable_correct_ids: List[int] = list(range(num_correct))
        self._t0_marks: Optional[Dict[int, int]] = None
        if self.config.churn is not None:
            # The churn schedule is drawn before the engine is built so the
            # final population size (initial nodes plus every joiner) is
            # known up front: joiners are provisioned in the overlay from the
            # start but stay inactive until their join round.  The engine
            # gets its own child generator so a churn-free configuration is
            # untouched (it still receives ``random_state`` directly).
            master = ensure_rng(random_state)
            schedule_rng, random_state = spawn_children(master, 2)
            (self._membership_events,
             self.stable_correct_ids,
             num_correct) = self._draw_schedule(
                num_correct, self.config.churn, schedule_rng)
        if self.config.protocol is DisseminationProtocol.GOSSIP:
            engine_class = GossipSimulation
            engine_config = GossipConfig(
                fanout=self.config.fanout,
                malicious_fanout=self.config.malicious_fanout,
                node_config=self.config.node_config,
            )
        else:
            engine_class = RandomWalkSimulation
            engine_config = RandomWalkConfig(
                node_config=self.config.node_config)
        self._engine = engine_class(
            num_correct,
            self.config.num_malicious,
            sybil_identifiers_per_malicious=(
                self.config.sybil_identifiers_per_malicious),
            config=engine_config,
            random_state=random_state,
        )
        if self.config.churn is not None:
            self._initially_inactive = [
                event.node_id for event in self._membership_events
                if event.joined]
            for identifier in self._initially_inactive:
                self._engine.nodes[identifier].active = False

    @staticmethod
    def _draw_schedule(initial: int, churn: ChurnConfig, rng):
        """Draw the membership schedule of the churn phase.

        Mirrors the event model of :class:`~repro.streams.churn.ChurnModel`:
        at most one join and one leave per round, the leaver drawn uniformly
        from the currently alive correct nodes.  Returns the events, the
        stable correct population (alive at ``T0``) and the total number of
        correct node slots to provision (initial plus every joiner).
        """
        alive: List[int] = list(range(initial))
        next_identifier = initial
        events: List[MembershipEvent] = []
        for round_index in range(churn.churn_rounds):
            if rng.random() < churn.join_rate:
                alive.append(next_identifier)
                events.append(MembershipEvent(round=round_index,
                                              node_id=next_identifier,
                                              joined=True))
                next_identifier += 1
            if len(alive) > 1 and rng.random() < churn.leave_rate:
                victim_index = int(rng.integers(0, len(alive)))
                victim = alive[victim_index]
                del alive[victim_index]
                events.append(MembershipEvent(round=round_index,
                                              node_id=victim,
                                              joined=False))
        return events, list(alive), next_identifier

    @classmethod
    def from_scenario(cls, spec, *, random_state=None) -> "SystemSimulation":
        """Build a simulation from a declarative scenario spec.

        ``spec`` is anything :class:`~repro.scenarios.runner.ScenarioRunner`
        accepts (a :class:`~repro.scenarios.spec.ScenarioSpec`, a dict, or a
        JSON string) whose ``network`` section describes this simulation.
        This is the preferred wiring path; constructing :class:`SystemConfig`
        by hand remains supported for programmatic use.
        """
        from repro.scenarios.runner import ScenarioRunner

        return ScenarioRunner(spec).system_simulation(
            random_state=random_state)

    @property
    def engine(self):
        """The underlying dissemination simulation (gossip or random walk)."""
        return self._engine

    @property
    def membership_events(self) -> List[MembershipEvent]:
        """The scheduled join/leave events (empty without a churn config)."""
        return list(self._membership_events)

    @property
    def stability_round(self) -> Optional[int]:
        """The round index ``T0`` at which churn ceases (None without churn)."""
        if self.config.churn is None:
            return None
        return self.config.churn.churn_rounds

    def run(self, rounds: Optional[int] = None) -> "SystemSimulation":
        """Run the dissemination.

        Without a churn config this runs ``rounds`` rounds (default:
        ``config.rounds``).  With one, the membership events are applied
        round by round for ``churn.churn_rounds`` rounds, the per-node
        stream positions at ``T0`` are recorded, and the simulation
        continues for ``churn.stable_rounds`` rounds with a frozen
        membership (``rounds`` must then be None — the churn config owns
        the schedule).
        """
        churn = self.config.churn
        if churn is None:
            self._engine.run(rounds if rounds is not None
                             else self.config.rounds)
            return self
        if rounds is not None:
            raise ValueError(
                "a churn-configured simulation derives its round count from "
                "churn_rounds + stable_rounds; do not pass rounds to run()")
        by_round: Dict[int, List[MembershipEvent]] = {}
        for event in self._membership_events:
            by_round.setdefault(event.round, []).append(event)
        for round_index in range(churn.churn_rounds):
            for event in by_round.get(round_index, ()):
                self._engine.nodes[event.node_id].active = event.joined
            self._engine.run_round()
        self._t0_marks = {
            identifier: len(self._engine.nodes[identifier].received)
            for identifier in self.stable_correct_ids
        }
        if churn.stable_rounds > 0:
            self._engine.run(churn.stable_rounds)
        return self

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #
    def _malicious_fraction(self, identifiers: List[int]) -> float:
        if not identifiers:
            return 0.0
        malicious = set(self._engine.malicious_ids) | set(
            self._engine.sybil_identifiers)
        hits = sum(1 for identifier in identifiers if identifier in malicious)
        return hits / len(identifiers)

    def _stable_universe(self):
        """Return the (universe, malicious) pair of the stable population.

        Node-independent — computed once per report, not per node.
        """
        malicious = sorted(set(self._engine.malicious_ids)
                           | set(self._engine.sybil_identifiers))
        universe = sorted(set(self.stable_correct_ids) | set(malicious))
        return universe, malicious

    def _stable_streams(self, identifier: int, universe: List[int],
                        malicious: List[int]):
        """Return the post-``T0`` input/output streams of a stable node.

        Both streams are truncated at the node's stream position at ``T0``
        and carry the *stable* universe (stable correct nodes plus the
        adversary's identifiers) — uniformity is measured over the population
        that remains after churn ceases, as the paper defines it.
        """
        input_stream = self._engine.input_stream_of(identifier)
        output_stream = self._engine.output_stream_of(identifier)
        if len(output_stream.identifiers) != len(input_stream.identifiers):
            raise ValueError(
                f"node {identifier} emitted "
                f"{len(output_stream.identifiers)} outputs for "
                f"{len(input_stream.identifiers)} inputs; the stable-only "
                "report slices both streams at the node's T0 input position "
                "and needs one output per input element")
        mark = self._t0_marks[identifier]
        stable_input = IdentifierStream(
            identifiers=input_stream.identifiers[mark:],
            universe=universe,
            malicious=malicious,
            label=f"{input_stream.label}+stable",
        )
        stable_output = IdentifierStream(
            identifiers=output_stream.identifiers[mark:],
            universe=universe,
            malicious=malicious,
            label=f"{output_stream.label}+stable",
        )
        return stable_input, stable_output

    def report(self) -> SystemReport:
        """Return per-node and aggregate uniformity metrics.

        With a churn config whose ``stable_only`` flag is set (the default),
        only the nodes alive at ``T0`` are reported and their metrics cover
        the post-``T0`` portion of the streams over the stable population.
        """
        churn = self.config.churn
        stable_only = (churn is not None and churn.stable_only
                       and self._t0_marks is not None)
        reports: List[NodeReport] = []
        node_ids = (self.stable_correct_ids if stable_only
                    else self._engine.correct_ids)
        if stable_only:
            stable_universe, stable_malicious = self._stable_universe()
        for identifier in node_ids:
            if stable_only:
                input_stream, output_stream = self._stable_streams(
                    identifier, stable_universe, stable_malicious)
            else:
                input_stream = self._engine.input_stream_of(identifier)
                output_stream = self._engine.output_stream_of(identifier)
            if input_stream.size == 0:
                continue
            support = input_stream.universe
            # stable-only metrics score identifiers that departed before T0
            # (but linger in sampler memories) as uniformity violations
            input_divergence = kl_divergence_to_uniform(
                input_stream, support=support,
                penalise_out_of_support=stable_only)
            output_divergence = kl_divergence_to_uniform(
                output_stream, support=support,
                penalise_out_of_support=stable_only)
            gain = kl_gain(input_stream, output_stream, support=support,
                           penalise_out_of_support=stable_only)
            reports.append(NodeReport(
                node_id=identifier,
                stream_length=input_stream.size,
                distinct_received=len(set(input_stream.identifiers)),
                input_divergence=input_divergence,
                output_divergence=output_divergence,
                gain=gain,
                malicious_fraction_input=self._malicious_fraction(
                    input_stream.identifiers),
                malicious_fraction_output=self._malicious_fraction(
                    output_stream.identifiers),
            ))
        return SystemReport(per_node=reports)
