"""Shard placement plane: the routing table mapping shard groups to workers.

Before this module, shard ownership was a fixed pinning rule
(``worker = shard % workers``) duplicated across the execution backends and
frozen at construction.  :class:`ShardPlacement` extracts that decision into
an explicit routing table, owned by the execution backend and consulted on
every dispatch (the :class:`~repro.engine.sharded.ShardedSamplingService`
reads it through its ``placement`` property).  That is what makes live
shard migration and runtime worker scale-up/down possible: moving a shard is
an atomic reassignment in this table (plus a state transfer on the worker
side), and adding or removing a worker is a registration change — neither
touches any random draw, so the cross-backend bit-identity guarantee is
untouched.

The table is deliberately dumb: it validates invariants (every shard is
owned by a registered worker; a worker is only removed once it owns
nothing) and counts cutovers, but policy — *when* to move which shard —
lives in :mod:`repro.engine.autoscale`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["ShardPlacement"]


class ShardPlacement:
    """Routing table mapping every shard to the worker that runs it.

    Worker identifiers are small integers handed out in registration order
    and never reused, so transport layers can keep per-worker state in
    id-indexed slots (removed workers leave ``None`` holes).  All iteration
    orders exposed here are sorted and therefore deterministic.
    """

    def __init__(self, shards: int) -> None:
        if shards <= 0:
            raise ValueError(f"shards must be positive, got {shards}")
        self.shards = int(shards)
        self._table: List[Optional[int]] = [None] * self.shards
        self._workers: List[int] = []
        self._next_worker_id = 0
        #: Completed reassignment cutovers (a fresh assignment of an
        #: unowned shard does not count).
        self.migrations = 0

    # ------------------------------------------------------------------ #
    # Worker registration
    # ------------------------------------------------------------------ #
    @property
    def worker_ids(self) -> List[int]:
        """Registered worker ids, ascending (deterministic iteration)."""
        return sorted(self._workers)

    @property
    def workers(self) -> int:
        """Number of registered workers."""
        return len(self._workers)

    def add_worker(self) -> int:
        """Register a new worker and return its (never reused) id."""
        worker = self._next_worker_id
        self._next_worker_id += 1
        self._workers.append(worker)
        return worker

    def remove_worker(self, worker: int) -> None:
        """Deregister a worker; it must not own any shard anymore."""
        if worker not in self._workers:
            raise ValueError(f"worker {worker} is not registered")
        owned = self.shards_of(worker)
        if owned:
            raise ValueError(
                f"worker {worker} still owns shards {owned}; migrate them "
                "away before removing it")
        self._workers.remove(worker)

    # ------------------------------------------------------------------ #
    # Assignment
    # ------------------------------------------------------------------ #
    def assign(self, shard: int, worker: int) -> None:
        """Route ``shard`` to ``worker`` (the atomic migration cutover)."""
        self._check_shard(shard)
        if worker not in self._workers:
            raise ValueError(f"worker {worker} is not registered")
        previous = self._table[shard]
        if previous == worker:
            return
        self._table[shard] = worker
        if previous is not None:
            self.migrations += 1

    def assign_round_robin(self) -> None:
        """Pin shard ``s`` to the ``s % workers``-th registered worker.

        This reproduces the fixed pinning rule the backends used before the
        placement plane existed, so a freshly built pool owns exactly the
        shard groups it always did.
        """
        if not self._workers:
            raise ValueError("cannot assign shards: no workers registered")
        ids = self.worker_ids
        for shard in range(self.shards):
            self._table[shard] = ids[shard % len(ids)]

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def worker_of(self, shard: int) -> int:
        """The worker currently routing ``shard`` (every dispatch asks)."""
        self._check_shard(shard)
        worker = self._table[shard]
        if worker is None:
            raise ValueError(f"shard {shard} is not assigned to any worker")
        return worker

    def shards_of(self, worker: int) -> List[int]:
        """Shards currently routed to ``worker``, ascending."""
        return [shard for shard, owner in enumerate(self._table)
                if owner == worker]

    @property
    def table(self) -> List[Optional[int]]:
        """The shard → worker table (copy; index = shard)."""
        return list(self._table)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly view (the serve STATS command exposes this)."""
        return {
            "workers": self.workers,
            "worker_ids": self.worker_ids,
            "table": self.table,
            "shards_by_worker": {worker: self.shards_of(worker)
                                 for worker in self.worker_ids},
            "migrations": self.migrations,
        }

    def _check_shard(self, shard: int) -> None:
        if not 0 <= shard < self.shards:
            raise ValueError(
                f"shard index {shard} out of range [0, {self.shards})")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"ShardPlacement(shards={self.shards}, "
                f"workers={self.worker_ids}, migrations={self.migrations})")
