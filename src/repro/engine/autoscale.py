"""Load-triggered autoscaling policy for the shard placement plane.

The :class:`Autoscaler` watches the per-shard loads the backend already
counts (``shard_loads``: the elements collected so far, no worker round
trip, no drain) and turns them into placement actions: grow the pool when
the per-worker load target is exceeded, shrink it when workers sit idle,
and migrate single shards when ownership becomes lopsided.  Decisions are
pure functions of those loads and the policy knobs — no clocks, no
randomness.  The loads are read once per ingested batch, after that batch
is collected and before any action: a migration drains the pipeline, and
a chunk collected then would otherwise steer the batch's later checks.  So
a fixed input stream drives the same scaling schedule on every run and on
every backend, pipelined or not, preserving the bit-identity invariant.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional

__all__ = ["AutoscalePolicy", "Autoscaler"]


@dataclass(frozen=True)
class AutoscalePolicy:
    """Knobs for load-triggered rebalancing and worker scale-up/down.

    ``target_load_per_worker`` is the steady-state number of stream
    elements one worker should absorb; the desired pool size is total load
    divided by this target, clamped to ``[min_workers, max_workers]`` (and
    never more workers than shards).  ``check_every`` batches policy
    evaluations so the hot ingest path pays nothing between checks.
    ``imbalance_ratio`` triggers a single-shard migration when the hottest
    worker carries that many times the coldest worker's load.
    """

    min_workers: int = 1
    max_workers: int = 4
    target_load_per_worker: int = 50_000
    check_every: int = 8_192
    imbalance_ratio: float = 2.0

    def __post_init__(self) -> None:
        if self.min_workers <= 0:
            raise ValueError(
                f"min_workers must be positive, got {self.min_workers}")
        if self.max_workers < self.min_workers:
            raise ValueError(
                f"max_workers ({self.max_workers}) must be >= min_workers "
                f"({self.min_workers})")
        if self.target_load_per_worker <= 0:
            raise ValueError(
                "target_load_per_worker must be positive, got "
                f"{self.target_load_per_worker}")
        if self.check_every <= 0:
            raise ValueError(
                f"check_every must be positive, got {self.check_every}")
        if self.imbalance_ratio < 1.0:
            raise ValueError(
                f"imbalance_ratio must be >= 1.0, got {self.imbalance_ratio}")

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AutoscalePolicy":
        if not isinstance(data, dict):
            raise ValueError(
                f"autoscale policy must be a mapping, got {type(data).__name__}")
        known = {"min_workers", "max_workers", "target_load_per_worker",
                 "check_every", "imbalance_ratio"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown autoscale policy keys: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})")
        return cls(**data)

    @classmethod
    def coerce(cls, value: object) -> Optional["AutoscalePolicy"]:
        """Normalise the spec/CLI forms of the knob.

        ``None``/``False`` → disabled, ``True`` → default policy, a mapping
        → :meth:`from_dict`, an existing policy passes through.
        """
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, dict):
            return cls.from_dict(value)
        raise ValueError(
            "autoscale must be a boolean or a policy mapping, got "
            f"{type(value).__name__}")


class Autoscaler:
    """Applies an :class:`AutoscalePolicy` to a scaling-capable backend.

    The service calls :meth:`after_batch` once per collected batch; every
    ``check_every`` elements the policy is evaluated against the backend's
    collected per-shard loads, read once per batch.  At most one corrective
    action family runs per evaluation (scale up, scale down, or a single
    rebalancing migration), keeping churn bounded and the schedule easy to
    reason about.
    """

    def __init__(self, policy: AutoscalePolicy) -> None:
        self.policy = policy
        self._since_check = 0
        self.evaluations = 0
        self.scale_ups = 0
        self.scale_downs = 0
        self.rebalances = 0

    def stats(self) -> Dict[str, int]:
        return {
            "evaluations": self.evaluations,
            "scale_ups": self.scale_ups,
            "scale_downs": self.scale_downs,
            "rebalances": self.rebalances,
        }

    def after_batch(self, backend, elements: int) -> None:
        self._since_check += int(elements)
        if self._since_check < self.policy.check_every:
            return
        loads = [int(load) for load in backend.shard_loads()]
        while self._since_check >= self.policy.check_every:
            self._since_check -= self.policy.check_every
            self.evaluate(backend, loads)

    # ------------------------------------------------------------------ #
    # Policy evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, backend, loads: List[int]) -> None:
        self.evaluations += 1
        policy = self.policy
        total = sum(loads)
        ceiling = min(policy.max_workers, backend.shards)
        desired = math.ceil(total / policy.target_load_per_worker) if total else 0
        desired = max(policy.min_workers, min(ceiling, desired))
        current = backend.placement.workers

        if desired > current:
            for _ in range(desired - current):
                backend.add_worker()
                self.scale_ups += 1
            self._rebalance(backend, loads)
        elif desired < current:
            # Retire the highest-id workers first; their shards are folded
            # back onto the survivors by the backend's drain path.
            for worker in sorted(backend.placement.worker_ids,
                                 reverse=True)[:current - desired]:
                backend.remove_worker(worker)
                self.scale_downs += 1
        else:
            self._maybe_migrate_one(backend, loads)

    def _worker_loads(self, backend, loads: List[int]) -> Dict[int, int]:
        placement = backend.placement
        return {worker: sum(loads[shard] for shard in placement.shards_of(worker))
                for worker in placement.worker_ids}

    def _rebalance(self, backend, loads: List[int]) -> None:
        """Greedy single-step moves until no move improves the spread.

        Each step moves the lightest shard of the hottest multi-shard
        worker to the coldest worker, but only if that strictly shrinks
        the hottest-minus-coldest gap.  Bounded by the shard count, and
        fully deterministic (lowest-id tie-breaks everywhere).
        """
        placement = backend.placement
        for _ in range(backend.shards):
            by_worker = self._worker_loads(backend, loads)
            donors = [w for w in placement.worker_ids
                      if len(placement.shards_of(w)) > 1]
            if not donors:
                return
            hottest = max(donors, key=lambda w: (by_worker[w], -w))
            coldest = min(placement.worker_ids, key=lambda w: (by_worker[w], w))
            if hottest == coldest:
                return
            shard = min(placement.shards_of(hottest),
                        key=lambda s: (loads[s], s))
            gap = by_worker[hottest] - by_worker[coldest]
            new_hot = by_worker[hottest] - loads[shard]
            new_cold = by_worker[coldest] + loads[shard]
            if max(new_hot, new_cold) >= by_worker[hottest] or \
                    abs(new_hot - new_cold) >= gap:
                return
            backend.migrate_shard(shard, coldest)
            self.rebalances += 1

    def _maybe_migrate_one(self, backend, loads: List[int]) -> None:
        placement = backend.placement
        if placement.workers < 2:
            return
        by_worker = self._worker_loads(backend, loads)
        donors = [w for w in placement.worker_ids
                  if len(placement.shards_of(w)) > 1]
        if not donors:
            return
        hottest = max(donors, key=lambda w: (by_worker[w], -w))
        coldest = min(placement.worker_ids, key=lambda w: (by_worker[w], w))
        if hottest == coldest:
            return
        if by_worker[hottest] <= self.policy.imbalance_ratio * (by_worker[coldest] + 1):
            return
        shard = min(placement.shards_of(hottest), key=lambda s: (loads[s], s))
        new_hot = by_worker[hottest] - loads[shard]
        new_cold = by_worker[coldest] + loads[shard]
        if max(new_hot, new_cold) >= by_worker[hottest]:
            return
        backend.migrate_shard(shard, coldest)
        self.rebalances += 1
