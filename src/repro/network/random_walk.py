"""Random-walk based identifier dissemination.

The paper's second stream source: "the node ids received during random walks
initiated at each node of the system" (Section IV).  A token carrying its
initiator's advertised identifier performs a random walk over the overlay;
every correct node the token visits appends the carried identifier to its
input stream.  Malicious nodes initiate extra walks carrying adversary-chosen
identifiers and may bias the routing of tokens they relay (they forward
preferentially towards other malicious nodes to slow the spread of correct
identifiers).  A round's visits reach each node as one chunk at the end of
the round; the population, overlay and streams are those of
:class:`~repro.network.dissemination.DisseminationSimulation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.network.dissemination import DisseminationSimulation
from repro.network.node import NodeConfig
from repro.utils.validation import check_positive


@dataclass
class RandomWalkConfig:
    """Parameters of the random-walk dissemination simulation."""

    #: Number of hops of each walk.
    walk_length: int = 10
    #: Number of walks each correct node initiates per round.
    walks_per_node: int = 1
    #: Number of walks each malicious node initiates per round.
    malicious_walks_per_node: int = 3
    #: Sampling-service configuration of every correct node.
    node_config: NodeConfig = None

    def __post_init__(self) -> None:
        check_positive("walk_length", self.walk_length)
        check_positive("walks_per_node", self.walks_per_node)
        check_positive("malicious_walks_per_node", self.malicious_walks_per_node)
        if self.node_config is None:
            self.node_config = NodeConfig()


class RandomWalkSimulation(DisseminationSimulation):
    """Random-walk dissemination of node identifiers over an overlay.

    Takes the parameters of
    :class:`~repro.network.dissemination.DisseminationSimulation`, with a
    :class:`RandomWalkConfig` as ``config``.
    """

    config_class = RandomWalkConfig
    label_prefix = "walk"
    config: RandomWalkConfig

    def _next_hop(self, current: int, carrying_malicious: bool) -> Optional[int]:
        """Pick the next hop of a walk currently at ``current``.

        Correct relays forward uniformly among their neighbours.  Malicious
        relays bias the routing in the adversary's favour: walks carrying an
        adversary-controlled identifier are pushed towards *correct*
        neighbours (to spread the malicious identifiers), while walks carrying
        a correct identifier are pulled towards *malicious* neighbours (to
        suppress its dissemination) whenever such neighbours exist.
        """
        neighbors = self._neighbors(current)
        if not neighbors:
            return None
        node = self.nodes[current]
        if node.is_malicious:
            if carrying_malicious:
                preferred = [neighbor for neighbor in neighbors
                             if not self.nodes[neighbor].is_malicious]
            else:
                preferred = [neighbor for neighbor in neighbors
                             if self.nodes[neighbor].is_malicious]
            if preferred:
                index = int(self._rng.integers(0, len(preferred)))
                return preferred[index]
        index = int(self._rng.integers(0, len(neighbors)))
        return neighbors[index]

    def _run_walk(self, initiator: int, advertised: int,
                  sink: Dict[int, List[int]]) -> None:
        """Run one walk carrying ``advertised`` starting from ``initiator``.

        Each visited node's delivery is appended to its list in ``sink``.
        """
        carrying_malicious = advertised in self._adversary_identifiers
        current = initiator
        for _ in range(self.config.walk_length):
            next_hop = self._next_hop(current, carrying_malicious)
            if next_hop is None:
                return
            sink.setdefault(next_hop, []).append(advertised)
            current = next_hop

    def _round_traffic(self):
        """Every active node initiates its per-round walks."""
        sink: Dict[int, List[int]] = {}
        for identifier, node in self.nodes.items():
            if not node.active:
                continue
            walks = (self.config.malicious_walks_per_node if node.is_malicious
                     else self.config.walks_per_node)
            for _ in range(walks):
                self._run_walk(identifier, node.advertisement(), sink)
        return sink.items()
