"""In-process execution backend: every shard runs in the calling process.

This is the partition/dispatch/merge logic that lived inside
:class:`~repro.engine.sharded.ShardedSamplingService` before the backend
layer existed, extracted verbatim — the sharded service with a serial
backend is bit-identical, draw for draw, to the pre-backend implementation.
"""

from __future__ import annotations

import pickle
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.engine.backends.base import ExecutionBackend, ShardFactory
from repro.telemetry import runtime as telemetry
from repro.telemetry.registry import DEPTH_EDGES, TIME_EDGES


class SerialBackend(ExecutionBackend):
    """Runs every shard's service in the calling process, one after another."""

    name = "serial"

    def __init__(self, shards: int, shard_factory: ShardFactory,
                 shard_rngs: Sequence[np.random.Generator]) -> None:
        super().__init__(shards, shard_factory, shard_rngs)
        # the whole ensemble is one "worker": the calling process
        self._placement.add_worker()
        self._placement.assign_round_robin()
        self._services = [shard_factory(index, shard_rngs[index])
                          for index in range(self.shards)]

    @property
    def services(self) -> Tuple[object, ...]:
        """The per-shard services (read-only view); serial backend only."""
        return tuple(self._services)

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #
    def dispatch(self, identifiers: np.ndarray,
                 shard_indices: np.ndarray) -> np.ndarray:
        outputs = np.empty(identifiers.size, dtype=np.int64)
        reg = telemetry.active()
        if reg is None:
            for shard, service in enumerate(self._services):
                mask = shard_indices == shard
                if not mask.any():
                    continue
                outputs[mask] = service.on_receive_batch(identifiers[mask])
            return outputs
        # the serial "round trip" is the in-process shard ingestion itself,
        # recorded under the same instrument family as the worker backends
        started = time.perf_counter()
        subchunks = 0
        for shard, service in enumerate(self._services):
            mask = shard_indices == shard
            if not mask.any():
                continue
            subchunks += 1
            outputs[mask] = service.on_receive_batch(identifiers[mask])
        reg.histogram("backend.serial.roundtrip_seconds.batch",
                      TIME_EDGES).observe(time.perf_counter() - started)
        reg.counter("backend.serial.dispatches").inc()
        reg.counter("backend.serial.dispatch_elements").inc(
            int(identifiers.size))
        reg.histogram("backend.serial.dispatch_subchunks",
                      DEPTH_EDGES).observe(subchunks)
        return outputs

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample_many(self, counts: Dict[int, int]
                    ) -> Dict[int, List[Optional[int]]]:
        return {shard: [self._services[shard].sample() for _ in range(count)]
                for shard, count in counts.items()}

    # ------------------------------------------------------------------ #
    # Inspection and lifecycle
    # ------------------------------------------------------------------ #
    def shard_loads(self) -> List[int]:
        return [service.elements_processed for service in self._services]

    def shard_memories(self) -> List[List[int]]:
        return [list(service.strategy.memory_view)
                for service in self._services]

    def reset(self) -> None:
        for service in self._services:
            service.reset()

    def snapshot_shards(self) -> bytes:
        # pickling deep-copies the live services, so mutating the ensemble
        # after the snapshot cannot retroactively change the blob
        return pickle.dumps(dict(enumerate(self._services)),
                            protocol=pickle.HIGHEST_PROTOCOL)
