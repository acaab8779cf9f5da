"""Push gossip dissemination of node identifiers.

The paper's input streams "may result from the continuous propagation of node
ids through gossip-based algorithms" (Section IV).  This module implements a
round-based push gossip protocol over an overlay graph: at every round each
node advertises an identifier (its own for correct nodes, an adversary-chosen
identifier for malicious nodes) to ``fanout`` neighbours; each receiver
appends the round's identifiers to its input stream and feeds them to its
local node sampling service.  The population, overlay and streams are those
of :class:`~repro.network.dissemination.DisseminationSimulation`.

The simulation thereby produces, at every correct node, exactly the kind of
adversarially biased identifier stream the sampling strategies are designed
to unbias.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.network.dissemination import DisseminationSimulation
from repro.network.node import NodeConfig
from repro.utils.validation import check_positive


@dataclass
class GossipConfig:
    """Parameters of the push-gossip simulation."""

    #: Number of neighbours contacted by each node per round.
    fanout: int = 3
    #: Number of identifiers each malicious node pushes per round (the
    #: adversary's amplification factor).
    malicious_fanout: int = 6
    #: Sampling-service configuration of every correct node.
    node_config: NodeConfig = field(default_factory=NodeConfig)

    def __post_init__(self) -> None:
        check_positive("fanout", self.fanout)
        check_positive("malicious_fanout", self.malicious_fanout)


class GossipSimulation(DisseminationSimulation):
    """Round-based push gossip over an overlay graph.

    Takes the parameters of
    :class:`~repro.network.dissemination.DisseminationSimulation`, with a
    :class:`GossipConfig` as ``config``.
    """

    config_class = GossipConfig
    label_prefix = "gossip"
    config: GossipConfig

    def _round_traffic(self):
        """Every active node pushes advertisements to active neighbours.

        Deliveries are shuffled after all sends so the round is synchronous,
        then grouped by receiver with one stable argsort, which keeps each
        receiver's arrival order.
        """
        deliveries: List[Tuple[int, int]] = []
        for identifier, node in self.nodes.items():
            if not node.active:
                continue
            neighbors = self._neighbors(identifier)
            if not neighbors:
                continue
            if node.is_malicious:
                # Malicious nodes are not bound by the protocol: they push
                # their full per-round budget, re-contacting neighbours as
                # needed (the adversary's amplification factor).
                count = self.config.malicious_fanout
                chosen = self._rng.choice(len(neighbors), size=count,
                                          replace=True)
            else:
                count = min(self.config.fanout, len(neighbors))
                chosen = self._rng.choice(len(neighbors), size=count,
                                          replace=False)
            for index in chosen:
                target = neighbors[int(index)]
                deliveries.append((target, node.advertisement()))
        self._rng.shuffle(deliveries)
        if not deliveries:
            return ()
        targets = np.fromiter((target for target, _ in deliveries),
                              dtype=np.int64, count=len(deliveries))
        payloads = np.fromiter((advertised for _, advertised in deliveries),
                               dtype=np.int64, count=len(deliveries))
        order = np.argsort(targets, kind="stable")
        targets = targets[order]
        boundaries = np.flatnonzero(np.diff(targets)) + 1
        starts = np.concatenate(([0], boundaries))
        return zip(targets[starts].tolist(),
                   np.split(payloads[order], boundaries))
