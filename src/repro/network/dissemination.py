"""The node population both dissemination protocols run over.

A correct node's input stream is the identifiers spread by gossip or by
random walks over one overlay joined by colluding malicious nodes
(Section IV); the two protocols differ only in how a round moves
identifiers.  :class:`DisseminationSimulation` owns everything else: the
correct and malicious nodes with the adversary's Sybil identifiers, the
default overlay, the round loop that hands every receiver its round's
traffic as one chunk, and the per-node input and output streams.  A
protocol subclass supplies its config class, its stream label and
:meth:`DisseminationSimulation._round_traffic`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.network.node import CorrectNode, MaliciousNode, Node
from repro.network.overlay import OverlayGraph, ring_with_shortcuts
from repro.streams.stream import IdentifierStream
from repro.utils.rng import RandomState, ensure_rng, spawn_children
from repro.utils.validation import check_positive


class DisseminationSimulation:
    """Round-based identifier dissemination over an overlay graph.

    Parameters
    ----------
    num_correct:
        Number of correct nodes.
    num_malicious:
        Number of malicious (adversary-controlled) nodes.
    sybil_identifiers_per_malicious:
        Number of identifiers each malicious node cycles through when
        advertising: its own plus fabricated ones (1 means malicious nodes
        only advertise themselves).
    config:
        Protocol parameters, an instance of :attr:`config_class` (its
        defaults when omitted); ``config.node_config`` configures the
        sampling service of every correct node.
    overlay:
        Optional pre-built overlay; defaults to a ring with random shortcuts
        over all the nodes (correct and malicious mixed).
    random_state:
        Master seed; every correct node receives an independent child
        generator and the rounds draw from the master.
    """

    #: The protocol's parameter class.
    config_class: type
    #: Stream label prefix: ``<prefix>-input(node=i)``, ``<prefix>-output(node=i)``.
    label_prefix: str

    def __init__(self, num_correct: int, num_malicious: int = 0, *,
                 sybil_identifiers_per_malicious: int = 1,
                 config=None,
                 overlay: Optional[OverlayGraph] = None,
                 random_state: RandomState = None) -> None:
        check_positive("num_correct", num_correct)
        if num_malicious < 0:
            raise ValueError("num_malicious must be non-negative")
        check_positive("sybil_identifiers_per_malicious",
                       sybil_identifiers_per_malicious)
        self.config = config or self.config_class()
        self._rng = ensure_rng(random_state)
        total = num_correct + num_malicious
        # One child per node plus one for the overlay.  Malicious nodes draw
        # no coins, but their children are still spawned: the count fixes
        # every correct node's coins for a given seed.
        children = spawn_children(self._rng, total + 1)

        self.correct_ids = list(range(num_correct))
        self.malicious_ids = list(range(num_correct, total))
        self.nodes: Dict[int, Node] = {
            identifier: CorrectNode(identifier,
                                    config=self.config.node_config,
                                    random_state=children[identifier])
            for identifier in self.correct_ids
        }
        #: Every identifier the adversary advertises: each malicious node's
        #: own followed by its fabricated ones.
        self.sybil_identifiers: List[int] = []
        fabricated = sybil_identifiers_per_malicious - 1
        next_sybil = total
        for identifier in self.malicious_ids:
            controlled = [identifier,
                          *range(next_sybil, next_sybil + fabricated)]
            next_sybil += fabricated
            self.nodes[identifier] = MaliciousNode(identifier, controlled)
            self.sybil_identifiers.extend(controlled)
        self._adversary_identifiers = frozenset(self.sybil_identifiers)
        self._universe = sorted(set(self.correct_ids)
                                | self._adversary_identifiers)
        if overlay is None:
            # Shuffle the node order so malicious nodes are scattered around
            # the ring instead of forming a contiguous (mostly self-connected)
            # segment.
            node_order = list(self.nodes)
            children[-1].shuffle(node_order)
            overlay = ring_with_shortcuts(
                node_order, shortcuts=max(1, total // 2),
                random_state=children[-1],
            )
        self.overlay = overlay
        self.rounds_executed = 0
        self._all_active = True

    # ------------------------------------------------------------------ #
    # Simulation
    # ------------------------------------------------------------------ #
    def run_round(self) -> None:
        """Execute one synchronous round.

        Inactive nodes (dynamic membership, see the churn-aware system
        simulation) neither send nor receive; when every node is active the
        round is identical — draw for draw — to a churn-free one.  Routing
        never reads a receiver's state, so every receiver ingests its round's
        traffic, in arrival order, as one chunk through the batch engine.
        """
        # Checked once per round so churn-free rounds (the common case, and
        # the one the overlay throughput benchmark tracks) skip the per-edge
        # active filter; membership is fixed within a round.
        self._all_active = all(node.active for node in self.nodes.values())
        for target, chunk in self._round_traffic():
            self.nodes[target].receive_batch(chunk)
        self.rounds_executed += 1

    def run(self, rounds: int) -> None:
        """Execute ``rounds`` rounds."""
        check_positive("rounds", rounds)
        for _ in range(rounds):
            self.run_round()

    def _round_traffic(self) -> Iterable[Tuple[int, Sequence[int]]]:
        """Return one round's ``(receiver, identifiers)`` deliveries."""
        raise NotImplementedError

    def _neighbors(self, identifier: int) -> List[int]:
        """Return the active overlay neighbours of ``identifier``."""
        neighbors = self.overlay.neighbors(identifier)
        if self._all_active:
            return neighbors
        return [neighbor for neighbor in neighbors
                if self.nodes[neighbor].active]

    # ------------------------------------------------------------------ #
    # Observation
    # ------------------------------------------------------------------ #
    def correct_nodes(self) -> List[CorrectNode]:
        """Return the correct nodes of the simulation."""
        return [self.nodes[identifier] for identifier in self.correct_ids]

    def input_stream_of(self, identifier: int) -> IdentifierStream:
        """Return the input stream ``sigma_i`` received so far by a correct node."""
        return self._stream(identifier, "input",
                            self._correct_node(identifier).received)

    def output_stream_of(self, identifier: int) -> IdentifierStream:
        """Return the sampler output stream ``sigma'_i`` of a correct node."""
        service = self._correct_node(identifier).sampling_service
        return self._stream(identifier, "output",
                            service.output_stream.identifiers)

    def correct_overlay_is_connected(self) -> bool:
        """Check the weak-connectivity assumption over the correct nodes only."""
        return self.overlay.is_connected(restrict_to=self.correct_ids)

    def _correct_node(self, identifier: int) -> CorrectNode:
        node = self.nodes[int(identifier)]
        if node.is_malicious:
            raise ValueError("malicious nodes do not run the sampling service")
        return node

    def _stream(self, identifier: int, kind: str,
                identifiers: List[int]) -> IdentifierStream:
        return IdentifierStream(
            identifiers=identifiers,
            universe=self._universe,
            malicious=self.sybil_identifiers,
            label=f"{self.label_prefix}-{kind}(node={identifier})",
        )
