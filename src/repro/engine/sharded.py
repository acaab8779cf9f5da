"""Hash-sharded node sampling: the first beyond-one-node scaling scenario.

A single sampler is bounded by one core; a deployment serving "heavy traffic
from millions of users" partitions the input stream across ``S`` independent
:class:`~repro.core.service.NodeSamplingService` instances and merges their
samples.  :class:`ShardedSamplingService` implements that composition:

* **Partitioning** uses a hash function drawn from the same 2-universal
  family as the sketches (Section III-D) with the node's local coins, so the
  adversary cannot aim its over-represented identifiers at a single shard —
  each shard sees a 1/S slice of both correct and malicious traffic and runs
  the full Byzantine-tolerant strategy on it.
* **Sampling** draws a shard uniformly among those with traffic and then
  asks that shard's strategy for a sample.  Identifiers are partitioned
  disjointly across shards, so with a balanced partition the composition
  stays close to uniform over the whole population; per-shard occupancy is
  exposed for monitoring.
* **Batching**: a chunk is split by shard with one vectorised hash pass and
  each shard consumes its sub-chunk through the batch engine; the merged
  output preserves the arrival order of the input chunk.
* **Execution** is delegated to a pluggable
  :class:`~repro.engine.backends.base.ExecutionBackend`: ``"serial"`` runs
  every shard in this process (the original behaviour), ``"process"`` pins
  shard groups to worker processes.  Per master seed, both backends produce
  bit-identical outputs and merged memories — the partition hash, the
  shard-choice coins and the per-shard generator spawning all live here, on
  the caller's side, so a backend only decides *where* each shard executes.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.service import NodeSamplingService
from repro.engine.autoscale import AutoscalePolicy, Autoscaler
from repro.engine.backends.base import (
    BackendError,
    ExecutionBackend,
    ShardFactory,
    make_backend,
)
from repro.engine.placement import ShardPlacement
from repro.sketches.hashing import UniversalHashFamily
from repro.telemetry import runtime as telemetry
from repro.utils.rng import BufferedUniforms, RandomState, ensure_rng, \
    spawn_children
from repro.utils.validation import check_positive

__all__ = ["KnowledgeFreeShardFactory", "RestoredShardFactory",
           "ShardFactory", "ShardedSamplingService"]

#: Format marker of :meth:`ShardedSamplingService.snapshot` blobs, bumped on
#: incompatible layout changes so a stale state file fails loudly.
_SNAPSHOT_FORMAT = 1


@dataclass(frozen=True)
class KnowledgeFreeShardFactory:
    """Builds one knowledge-free shard service (Algorithm 3) per index.

    A module-level class rather than a closure so that process backends can
    pickle it into their workers under any start method.
    """

    memory_size: int
    sketch_width: int = 10
    sketch_depth: int = 5

    def __call__(self, index: int,
                 rng: np.random.Generator) -> NodeSamplingService:
        return NodeSamplingService.knowledge_free(
            self.memory_size,
            sketch_width=self.sketch_width,
            sketch_depth=self.sketch_depth,
            random_state=rng,
            record_output=False,
        )


class RestoredShardFactory:
    """Shard factory that re-materialises shards from a pickled state map.

    Built around the ``services_blob`` of a
    :meth:`ShardedSamplingService.snapshot`: ``__call__`` ignores the offered
    generator and returns the restored service of the requested shard, whose
    own (pickled) generator state continues the exact coin stream the
    original would have drawn.  Pickling the factory ships only the blob, so
    worker-pool backends can send it to their workers like any other factory.
    """

    def __init__(self, services_blob: bytes) -> None:
        self.services_blob = services_blob
        self._cache: Optional[Dict[int, object]] = None

    def __call__(self, index: int, rng: np.random.Generator) -> object:
        if self._cache is None:
            self._cache = {int(shard): service for shard, service
                           in pickle.loads(self.services_blob).items()}
        return self._cache[index]

    def __getstate__(self) -> Dict[str, bytes]:
        return {"services_blob": self.services_blob}

    def __setstate__(self, state: Dict[str, bytes]) -> None:
        self.services_blob = state["services_blob"]
        self._cache = None


class ShardedSamplingService:
    """Hash-partitioned ensemble of independent node sampling services.

    Parameters
    ----------
    shards:
        Number ``S`` of partitions.
    shard_factory:
        Builds the service of one shard; receives the shard index and a
        generator spawned independently per shard (the paper's "one local
        coin per node" requirement).  Process backends ship the factory to
        their workers, so it must be picklable under the ``spawn`` start
        method (any callable works under ``fork``).
    random_state:
        Coins for the partitioning hash, the shard-choice draws, and the
        per-shard generators.
    backend:
        Execution backend: ``"serial"`` (default, every shard in this
        process), ``"process"`` (shard groups pinned to worker processes)
        or ``"socket"`` (shard groups behind authenticated TCP workers,
        local supervised processes or remote ``repro worker serve``
        endpoints).  Outputs and merged memory are bit-identical across
        backends per seed.
    workers:
        Worker count of the process and socket backends; see
        :class:`~repro.engine.backends.process.ProcessBackend` and
        :class:`~repro.engine.backends.socket.SocketBackend`.
    endpoints, auth_token:
        Socket-backend transport: ``host:port`` endpoints of running
        ``repro worker serve`` instances plus the shared auth token itself
        (the CLI and scenario specs read it from the file they name);
        omitted, the socket backend spawns supervised localhost workers
        itself.  :func:`~repro.engine.backends.base.check_backend_options`
        states which backend takes which option.

    Examples
    --------
    >>> service = ShardedSamplingService.knowledge_free(
    ...     shards=4, memory_size=10, sketch_width=16, sketch_depth=4,
    ...     random_state=11)
    >>> _ = service.on_receive_batch(range(1000))
    >>> 0 <= service.sample() < 1000
    True
    """

    def __init__(self, shards: int, shard_factory: ShardFactory, *,
                 random_state: RandomState = None,
                 backend: str = "serial",
                 workers: Optional[int] = None,
                 endpoints: Optional[List[str]] = None,
                 auth_token: Optional[object] = None,
                 autoscale: Optional[object] = None) -> None:
        check_positive("shards", shards)
        self.shards = int(shards)
        rng = ensure_rng(random_state)
        family = UniversalHashFamily(self.shards, random_state=rng)
        self._partition_hash = family.draw()
        child_rngs = spawn_children(rng, self.shards + 1)
        self._shard_coins = BufferedUniforms(child_rngs[-1])
        self._backend = make_backend(
            backend, self.shards, shard_factory, child_rngs[:self.shards],
            workers=workers, endpoints=endpoints, auth_token=auth_token)
        self._init_autoscale(autoscale)

    # ------------------------------------------------------------------ #
    # Convenience constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def knowledge_free(cls, shards: int, memory_size: int, *,
                       sketch_width: int = 10, sketch_depth: int = 5,
                       random_state: RandomState = None,
                       backend: str = "serial",
                       workers: Optional[int] = None,
                       endpoints: Optional[List[str]] = None,
                       auth_token: Optional[object] = None,
                       autoscale: Optional[object] = None
                       ) -> "ShardedSamplingService":
        """Build an ensemble of knowledge-free services (Algorithm 3)."""
        factory = KnowledgeFreeShardFactory(
            memory_size, sketch_width=sketch_width, sketch_depth=sketch_depth)
        return cls(shards, factory, random_state=random_state,
                   backend=backend, workers=workers, endpoints=endpoints,
                   auth_token=auth_token, autoscale=autoscale)

    # ------------------------------------------------------------------ #
    # Snapshot / restore
    # ------------------------------------------------------------------ #
    def snapshot(self) -> bytes:
        """Serialise the ensemble's complete sampler state as one blob.

        The blob carries everything :meth:`restore` needs to resume with a
        **bit-identical** sampler: the partition hash, the shard-choice coin
        stream (buffer position included), the per-shard load counters, and
        every shard's pickled service (sampling memory, sketches, private
        generator state).  Worker-pool backends collect the shard states
        over their command channel — the same machinery the socket
        supervisor uses for its crash-recovery snapshots, here surfaced as
        a public API for the serve drain path and shard migration.

        The backend choice is deliberately **not** part of the blob: a
        snapshot taken on a socket pool restores onto a serial backend (and
        vice versa) with identical subsequent behaviour, per the
        cross-backend bit-identity invariant.
        """
        state = {
            "format": _SNAPSHOT_FORMAT,
            "shards": self.shards,
            "partition_hash": self._partition_hash,
            "shard_coins": self._shard_coins,
            "loads": self.shard_loads(),
            "services_blob": self._backend.snapshot_shards(),
        }
        return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def restore(cls, blob: bytes, *,
                backend: str = "serial",
                workers: Optional[int] = None,
                endpoints: Optional[List[str]] = None,
                auth_token: Optional[object] = None,
                autoscale: Optional[object] = None
                ) -> "ShardedSamplingService":
        """Rebuild an ensemble from a :meth:`snapshot` blob.

        The restored service consumes exactly the coin streams the
        snapshotted one would have consumed next, so ``snapshot(); restore()``
        is invisible in every subsequent output, sample and merged memory —
        regression-tested across backends.  The target ``backend`` (and its
        worker/endpoint knobs) is chosen here, independent of where the
        snapshot was taken.
        """
        state = pickle.loads(blob)
        if not isinstance(state, dict) \
                or state.get("format") != _SNAPSHOT_FORMAT:
            raise ValueError(
                "not a ShardedSamplingService snapshot (or an incompatible "
                f"format; expected format {_SNAPSHOT_FORMAT})")
        service = cls.__new__(cls)
        service.shards = int(state["shards"])
        service._partition_hash = state["partition_hash"]
        service._shard_coins = state["shard_coins"]
        # The factory ignores the offered generators (each restored shard
        # carries its own generator state), but the backend contract wants
        # one per shard, so spawn placeholders from a fixed seed.
        placeholder_rngs = spawn_children(0, service.shards)
        # The routing table is deliberately not part of the blob: the target
        # pool (any backend, any worker count) re-maps the shard groups
        # round-robin over its own workers at construction.
        service._backend = make_backend(
            backend, service.shards,
            RestoredShardFactory(state["services_blob"]),
            placeholder_rngs, workers=workers, endpoints=endpoints,
            auth_token=auth_token)
        service._backend.seed_loads(state["loads"])
        service._init_autoscale(autoscale)
        return service

    # ------------------------------------------------------------------ #
    # Placement plane: migration, autoscaling
    # ------------------------------------------------------------------ #
    def _init_autoscale(self, autoscale: Optional[object]) -> None:
        policy = AutoscalePolicy.coerce(autoscale)
        # On a non-scaling backend (serial) the knob is a no-op, so the same
        # spec runs everywhere — and stays bit-identical, because neither
        # placement nor policy ever touches a random draw.
        if policy is not None and self._backend.supports_scaling:
            self._autoscaler: Optional[Autoscaler] = Autoscaler(policy)
        else:
            self._autoscaler = None
        self._migrating = 0

    @property
    def placement(self) -> ShardPlacement:
        """The shard → worker routing table of the execution backend."""
        return self._backend.placement

    @property
    def autoscaler(self) -> Optional[Autoscaler]:
        """The active autoscaler, or ``None`` when disabled/non-scaling."""
        return self._autoscaler

    def migrate_shard(self, shard: int, target: int) -> None:
        """Live-migrate one shard group to another worker.

        Only worker-pool backends can relocate shards; per the bit-identity
        invariant the ensemble's outputs and samples per seed are unchanged.
        """
        self._check_scaling("migrate a shard")
        self._migrating += 1
        try:
            self._backend.migrate_shard(shard, target)
        finally:
            self._migrating -= 1

    def add_worker(self) -> int:
        """Grow the worker pool by one (it starts owning no shards)."""
        self._check_scaling("add a worker")
        return self._backend.add_worker()

    def remove_worker(self, worker: int) -> None:
        """Drain and retire one worker (its shards migrate to survivors)."""
        self._check_scaling("remove a worker")
        self._migrating += 1
        try:
            self._backend.remove_worker(worker)
        finally:
            self._migrating -= 1

    def _check_scaling(self, action: str) -> None:
        if not self._backend.supports_scaling:
            raise BackendError(
                f"the {self._backend.name!r} backend runs every shard in "
                f"this process and cannot {action}; choose the process or "
                "socket backend for runtime scaling")

    def placement_info(self) -> Dict[str, object]:
        """JSON-friendly view of the routing table and scaling state."""
        info = self.placement.to_dict()
        info["backend"] = self._backend.name
        info["supports_scaling"] = self._backend.supports_scaling
        info["migrations_in_flight"] = self._migrating
        info["autoscale"] = (None if self._autoscaler is None else {
            "policy": self._autoscaler.policy.to_dict(),
            **self._autoscaler.stats(),
        })
        return info

    def wait_placement_idle(self, timeout: float = 30.0) -> bool:
        """Block until no migration is in flight (drain-path barrier).

        Migrations run synchronously on the thread that applies operations,
        so a caller serialised behind that thread (the serve layer's ops
        executor) observes an idle plane immediately; the poll loop covers
        direct multi-threaded use.  Returns ``True`` when idle.
        """
        deadline = time.monotonic() + timeout
        while self._migrating:
            if time.monotonic() > deadline:
                return False
            time.sleep(0.005)
        return True

    # ------------------------------------------------------------------ #
    # Online interface
    # ------------------------------------------------------------------ #
    def shard_of(self, identifier: int) -> int:
        """Return the shard index an identifier is routed to."""
        return int(self._partition_hash(identifier))

    def on_receive(self, identifier: int) -> Optional[int]:
        """Route one identifier to its shard; return that shard's output."""
        outputs = self.on_receive_batch([identifier])
        return int(outputs[0]) if outputs.size else None

    def on_receive_batch(self, identifiers) -> np.ndarray:
        """Route a chunk by shard with one vectorised hash pass.

        The returned output chunk is ordered by input arrival position:
        ``outputs[i]`` is the output the shard of ``identifiers[i]`` produced
        for it, exactly as per-element routing would have interleaved them.
        """
        ids = np.atleast_1d(np.asarray(identifiers, dtype=np.int64))
        if ids.size == 0:
            return np.zeros(0, dtype=np.int64)
        shard_indices = self._partition_hash.hash_many(ids)
        outputs = self._backend.dispatch(ids, shard_indices)
        if self._autoscaler is not None:
            # placement reactions (migrations, worker add/remove) happen
            # between batches and never consume a coin, so they are
            # invisible in the sampled outputs per seed
            self._autoscaler.after_batch(self._backend, int(ids.size))
        return outputs

    @property
    def supports_pipelining(self) -> bool:
        """Whether :meth:`begin_batch` genuinely overlaps with caller work.

        True for backends whose workers run concurrently with the caller
        (the process backend double-buffers); the batch engine consults
        this to pick the pipelined driving loop automatically.
        """
        return self._backend.supports_pipelining

    def begin_batch(self, identifiers):
        """Start ingesting one chunk; finish it with :meth:`finish_batch`.

        The pipelined half of :meth:`on_receive_batch`: the chunk is
        hash-partitioned and posted to the workers, and the caller gets a
        handle back while they are still processing — so it can partition
        and stage the next chunk in the meantime.  Handles must be finished
        in begin order (the backend collects strictly FIFO), and outputs
        are bit-identical to the synchronous path per seed: partitioning
        consumes no coins, and every inspection or sampling operation
        drains the pipeline before touching a worker.
        """
        ids = np.atleast_1d(np.asarray(identifiers, dtype=np.int64))
        if ids.size == 0:
            return (None, 0)
        shard_indices = self._partition_hash.hash_many(ids)
        return (self._backend.dispatch_begin(ids, shard_indices),
                int(ids.size))

    def finish_batch(self, handle) -> np.ndarray:
        """Collect the merged output chunk of a :meth:`begin_batch` handle."""
        ticket, size = handle
        if ticket is None:
            return np.zeros(0, dtype=np.int64)
        outputs = self._backend.dispatch_finish(ticket)
        if self._autoscaler is not None:
            # collection is FIFO and the autoscaler reads the collected
            # loads without draining, so it sees every chunk up to and
            # including this one and none begun after it: the loads a
            # synchronous dispatch of this chunk would have produced
            self._autoscaler.after_batch(self._backend, size)
        return outputs

    def sample(self) -> Optional[int]:
        """Return one sample, or ``None`` before any traffic.

        The one-draw case of :meth:`sample_many`: it consumes the same
        shard-choice coin and raises the same ``RuntimeError`` for a shard
        whose strategy yields no sample.
        """
        samples = self.sample_many(1, strict=False)
        return samples[0] if samples else None

    def sample_many(self, count: int, *, strict: bool = True) -> List[int]:
        """Return ``count`` independent samples from the ensemble.

        Each sample comes from a shard drawn uniformly among those that
        have received traffic — drawing over all shards and probing forward
        from an empty one would bias towards shards that follow runs of
        empty ones.  One vectorised shard-choice draw covers the batch, and
        each chosen shard then serves its draws in order through one
        grouped request (one round trip per worker on the worker pools),
        so the samples equal ``count`` successive :meth:`sample` calls.

        An ensemble that has received no traffic cannot produce a sample.
        With ``strict`` (the default) that raises ``RuntimeError`` instead
        of returning an empty list, which would skew any uniformity
        statistic computed over it; pass ``strict=False`` to get the empty
        list.  A shard that has traffic but yields no sample breaks the
        strategy contract (every strategy in this library inserts while its
        memory has room) and raises ``RuntimeError`` under either
        ``strict``.
        """
        check_positive("count", count)
        candidates = [shard for shard, load in enumerate(self.shard_loads())
                      if load > 0]
        if not candidates:
            if strict:
                raise RuntimeError(
                    f"sample_many({count}) produced only 0 sample(s): no "
                    "shard has received traffic, so every sampling memory "
                    "is empty; pass strict=False to accept an empty result")
            return []
        coins = np.asarray(self._shard_coins.take(count))
        chosen = np.asarray(candidates, dtype=np.int64)[
            (coins * len(candidates)).astype(np.int64)]
        positions_by_shard: Dict[int, List[int]] = {}
        for position, shard in enumerate(chosen.tolist()):
            positions_by_shard.setdefault(shard, []).append(position)
        draws = self._backend.sample_many(
            {shard: len(positions)
             for shard, positions in positions_by_shard.items()})
        samples: List[int] = [0] * count
        for shard, positions in positions_by_shard.items():
            for position, value in zip(positions, draws[shard]):
                if value is None:
                    raise RuntimeError(
                        f"shard {shard} has received traffic but returned "
                        "no sample; its strategy breaks the sample() "
                        "contract")
                samples[position] = value
        return samples

    # ------------------------------------------------------------------ #
    # Inspection
    # ------------------------------------------------------------------ #
    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend running the shard services."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """Registry key of the backend ("serial", "process", "socket")."""
        return self._backend.name

    @property
    def services(self) -> Tuple[NodeSamplingService, ...]:
        """The per-shard services (read-only view); serial backends only."""
        services = getattr(self._backend, "services", None)
        if services is None:
            raise BackendError(
                f"the {self._backend.name!r} backend keeps its shard "
                "services in worker processes; inspect shard_loads() / "
                "merged_memory() instead, or use the serial backend")
        return services

    @property
    def elements_processed(self) -> int:
        """Total number of input elements processed across all shards."""
        return sum(self.shard_loads())

    def shard_loads(self) -> List[int]:
        """Per-shard processed-element counts (partition balance check).

        Drains the pipeline, then reads the backend's collected counts; no
        worker round trip.
        """
        self._backend.drain_pipeline()
        return self._backend.shard_loads()

    def shard_memories(self) -> List[List[int]]:
        """Every shard's sampling memory ``Gamma``, in shard order."""
        return self._backend.shard_memories()

    def memory_sizes(self) -> List[int]:
        """Per-shard sampling-memory sizes (``|Gamma|`` of each shard)."""
        return [len(memory) for memory in self.shard_memories()]

    def merged_memory(self) -> List[int]:
        """Concatenation of every shard's sampling memory ``Gamma``."""
        return [identifier for memory in self.shard_memories()
                for identifier in memory]

    def reset(self) -> None:
        """Reset every shard."""
        self._backend.reset()

    def _harvest_telemetry(self) -> None:
        """Fold final shard loads and worker registries into the parent.

        Worker-side registries (process/socket backends) live in other
        processes and die with them, so the harvest must happen while the
        command channel is still up — :meth:`close` calls this before
        tearing down the transport.  Serial backends record into the
        parent's registry directly, so only the load gauges are added.
        Harvesting is best-effort: telemetry must never turn a clean close
        into a failure (e.g. when a worker is already gone).
        """
        reg = telemetry.active()
        if reg is None:
            return
        try:
            reg.gauge("sharded.shards").set(self.shards)
            reg.gauge("sharded.backend").set(self._backend.name)
            reg.gauge("sharded.workers").set(self.placement.workers)
            for shard, load in enumerate(self.shard_loads()):
                reg.gauge(f"sharded.shard_load.{shard}").set(int(load))
            for shard, worker in enumerate(self.placement.table):
                if worker is not None:
                    reg.gauge(f"sharded.shard_worker.{shard}").set(worker)
            for snapshot in self._backend.telemetry_snapshots():
                reg.merge_snapshot(snapshot)
        except Exception:
            pass

    def close(self) -> None:
        """Release backend resources (worker processes); idempotent.

        With telemetry enabled, the final per-shard loads and every
        worker-side registry snapshot are folded into the active registry
        first (the workers' metrics would otherwise die with their
        processes).
        """
        self._harvest_telemetry()
        self._backend.close()

    def __enter__(self) -> "ShardedSamplingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"ShardedSamplingService(shards={self.shards}, "
                f"backend={self._backend.name!r}, "
                f"processed={self.elements_processed})")
