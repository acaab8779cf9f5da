"""Network substrate: nodes, overlays, gossip and random-walk dissemination.

The paper's input streams are produced by the continuous propagation of node
identifiers through gossip or random walks over a weakly connected overlay of
correct nodes infiltrated by adversary-controlled nodes.  This subpackage
simulates that substrate end to end:

* :mod:`repro.network.node` — correct nodes (running the sampling service)
  and malicious nodes (advertising adversary-chosen identifiers);
* :mod:`repro.network.overlay` — overlay graphs and connectivity checks;
* :mod:`repro.network.dissemination` — the node population, overlay, round
  loop and per-node streams both dissemination protocols share;
* :mod:`repro.network.gossip` — the push-gossip round;
* :mod:`repro.network.random_walk` — the random-walk round;
* :mod:`repro.network.simulator` — the end-to-end :class:`SystemSimulation`.
"""

from repro.network.gossip import GossipConfig, GossipSimulation
from repro.network.node import CorrectNode, MaliciousNode, Node, NodeConfig
from repro.network.overlay import (
    OverlayGraph,
    erdos_renyi,
    random_regular,
    ring_with_shortcuts,
)
from repro.network.random_walk import RandomWalkConfig, RandomWalkSimulation
from repro.network.simulator import (
    DisseminationProtocol,
    NodeReport,
    SystemConfig,
    SystemReport,
    SystemSimulation,
)

__all__ = [
    "Node",
    "CorrectNode",
    "MaliciousNode",
    "NodeConfig",
    "OverlayGraph",
    "ring_with_shortcuts",
    "erdos_renyi",
    "random_regular",
    "GossipConfig",
    "GossipSimulation",
    "RandomWalkConfig",
    "RandomWalkSimulation",
    "SystemConfig",
    "SystemSimulation",
    "SystemReport",
    "NodeReport",
    "DisseminationProtocol",
]
