"""Node model of the large-scale system (Section III).

The system ``N`` is a set of ``n`` nodes, ``l`` of which are malicious and
collude under the control of the adversary.  Every correct node runs a local
node sampling service fed, one round's chunk at a time, by the stream of
identifiers it receives (through gossip or random walks); malicious nodes
ignore the protocol, drop what they receive and emit the identifiers the
adversary tells them to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.knowledge_free import KnowledgeFreeStrategy
from repro.core.service import NodeSamplingService
from repro.utils.rng import RandomState
from repro.utils.validation import check_positive


@dataclass
class NodeConfig:
    """Configuration of the sampling service run by every correct node."""

    memory_size: int = 10
    sketch_width: int = 10
    sketch_depth: int = 5
    record_output: bool = True

    def __post_init__(self) -> None:
        check_positive("memory_size", self.memory_size)
        check_positive("sketch_width", self.sketch_width)
        check_positive("sketch_depth", self.sketch_depth)


class Node:
    """Base class for simulated nodes.

    Parameters
    ----------
    identifier:
        The node's identifier drawn from the universe ``Omega``.
    """

    is_malicious = False

    def __init__(self, identifier: int) -> None:
        self.identifier = int(identifier)
        #: Whether the node currently participates in the system.  Inactive
        #: nodes neither send nor receive; the churn-aware system simulation
        #: toggles this flag to model joins (a node provisioned up front that
        #: activates at its join round) and leaves.
        self.active: bool = True

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        kind = "malicious" if self.is_malicious else "correct"
        return f"{type(self).__name__}(id={self.identifier}, {kind})"


class CorrectNode(Node):
    """A correct node running the node sampling service on its input stream.

    Parameters
    ----------
    identifier:
        The node's identifier.
    config:
        Sampling-service configuration (memory size, sketch dimensions).
    random_state:
        Local random coins; independent per node and hidden from the adversary.
    """

    is_malicious = False

    def __init__(self, identifier: int, *, config: Optional[NodeConfig] = None,
                 random_state: RandomState = None) -> None:
        super().__init__(identifier)
        self.config = config or NodeConfig()
        strategy = KnowledgeFreeStrategy(
            self.config.memory_size,
            sketch_width=self.config.sketch_width,
            sketch_depth=self.config.sketch_depth,
            random_state=random_state,
        )
        self.sampling_service = NodeSamplingService(
            strategy, record_output=self.config.record_output
        )
        #: Every identifier received so far, in arrival order (the stream sigma_i).
        self.received: List[int] = []

    def receive_batch(self, identifiers: Sequence[int]) -> None:
        """Receive a round's worth of identifiers as one chunk.

        Appends them to the input stream and feeds the sampling service
        through its vectorised
        :meth:`~repro.core.service.NodeSamplingService.on_receive_batch`
        path, which is bit-identical to feeding them one by one.
        """
        chunk = np.asarray(identifiers, dtype=np.int64)
        if chunk.size == 0:
            return
        self.received.extend(chunk.tolist())
        self.sampling_service.on_receive_batch(chunk)

    def sample(self) -> Optional[int]:
        """Return a uniformly sampled node identifier (the service primitive)."""
        return self.sampling_service.sample()

    def advertisement(self) -> int:
        """Return the identifier this node advertises in gossip: its own."""
        return self.identifier


class MaliciousNode(Node):
    """A malicious node emitting adversary-chosen identifiers.

    Parameters
    ----------
    identifier:
        The node's real identifier (it also has one).
    controlled_identifiers:
        The pool of (Sybil) identifiers the adversary told this node to
        advertise; the node cycles through them.
    """

    is_malicious = True

    def __init__(self, identifier: int,
                 controlled_identifiers: Sequence[int]) -> None:
        super().__init__(identifier)
        if not controlled_identifiers:
            raise ValueError("a malicious node needs at least one controlled identifier")
        self.controlled_identifiers = [int(i) for i in controlled_identifiers]
        self._cursor = 0

    def receive_batch(self, identifiers: Sequence[int]) -> None:
        """Drop a round's worth of identifiers: no protocol runs here."""

    def advertisement(self) -> int:
        """Return the next adversary-chosen identifier to advertise."""
        identifier = self.controlled_identifiers[self._cursor]
        self._cursor = (self._cursor + 1) % len(self.controlled_identifiers)
        return identifier
