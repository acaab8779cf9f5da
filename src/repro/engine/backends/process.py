"""Multi-process execution backend: shard groups pinned to worker processes.

The hash partition makes the sharded sampling service embarrassingly
parallel: each shard runs the full Byzantine-tolerant strategy on a disjoint
``1/S`` slice of the stream and never reads another shard's state.  This
backend exploits that by routing shard *groups* to long-lived worker
processes through the shard placement table (initially shard ``s`` lives in
worker ``s % workers``; live migration can move it): the caller
hash-partitions each chunk once, the backend ships every worker its shards'
sub-chunks in one message, the workers ingest them through the ordinary
batch engine, and the parent scatters the returned outputs back into the
chunk's arrival order.

Everything but the launch is the shared
:class:`~repro.engine.backends.base.WorkerPoolBackend`: the request path,
supervision (a worker killed mid-run is re-forked and rebuilt from its last
snapshot plus a journal replay) and teardown.  A worker's channel is one
end of a ``socket.socketpair()`` made before the fork — private to the two
processes, so it needs no handshake.

Data path: each worker's sub-chunks are staged into a per-worker
shared-memory ring (:mod:`~repro.engine.backends.shm`) and only a small
header crosses the channel; the worker answers into the slot's output
region the same way.  Sub-chunks below ``MIN_SHM_BYTES``, payloads that do
not fit a slot and hosts without POSIX shared memory fall back to pickled
frames automatically.  Results are bit-identical either way.

Determinism: the per-shard generators are spawned in the parent (exactly as
the serial backend consumes them) and handed to the workers at start-up, so
each shard's service is constructed from — and keeps drawing — the same coin
stream it would in-process.  Per master seed, outputs and merged memory are
bit-identical to the serial backend's, which the regression tests assert.

Start method: ``fork`` where available (cheap, and shard factories need not
be picklable, since the factory and generators are inherited at fork time),
``spawn`` otherwise — under ``spawn`` they travel through pickle, so
factories must be module-level callables such as
:class:`~repro.engine.sharded.KnowledgeFreeShardFactory`.
"""

from __future__ import annotations

import os
import socket
import uuid
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.engine.backends import shm as _shm
from repro.engine.backends.base import (
    ShardFactory,
    WorkerCrashError,
    WorkerPoolBackend,
    reset_signal_handlers,
    serve_session,
)
from repro.engine.backends.shm import ShmRing
from repro.telemetry import runtime as telemetry

#: Prefix of the backend's shared-memory ring segments.  Unlink tests (and
#: an operator staring at ``/dev/shm``) identify leaked segments by it.
RING_NAME_PREFIX = "repro-ring"


def _ring_name(worker: int) -> str:
    return f"{RING_NAME_PREFIX}-{os.getpid()}-{worker}-{uuid.uuid4().hex[:8]}"


def _run_worker(channel: socket.socket, start: Dict[str, Any]) -> None:
    """Entry point of one worker process: serve its channel until closed."""
    reset_signal_handlers()
    serve_session(channel, first=("start", start))


class ProcessBackend(WorkerPoolBackend):
    """Runs shard groups in supervised, forked worker processes.

    Parameters
    ----------
    workers:
        Number of worker processes; defaults to ``min(shards, cpu_count)``
        and is clamped to ``shards`` (an idle worker would own no shard).
    """

    name = "process"

    #: Double-buffered: chunk k+1 is partitioned and staged while the
    #: workers are still chewing on chunk k.
    pipeline_depth = 2

    def __init__(self, shards: int, shard_factory: ShardFactory,
                 shard_rngs: Sequence[np.random.Generator], *,
                 workers: Optional[int] = None) -> None:
        super().__init__(shards, shard_factory, shard_rngs, workers=workers)
        # hosts without POSIX shared memory run the pickled-frame path
        self._use_shm = _shm.shared_memory_available()
        #: Per-worker ring, kept across re-launches: a re-forked worker
        #: attaches to the same segment, so re-sent headers stay valid.
        self._rings: Dict[int, Optional[ShmRing]] = {}
        self._start_pool()

    def _launch(self, worker: int, start: Dict[str, Any]) -> socket.socket:
        if worker not in self._rings:
            ring = None
            if self._use_shm:
                try:
                    ring = ShmRing(_shm.DEFAULT_RING_SLOTS,
                                   _shm.DEFAULT_SLOT_BYTES,
                                   name=_ring_name(worker))
                except (OSError, ValueError):  # pragma: no cover - shm full
                    ring = None  # this worker degrades to pickled frames
            self._rings[worker] = ring
        if self._rings[worker] is not None:
            start["ring"] = self._rings[worker].spec()
        parent_end, child_end = socket.socketpair()
        try:
            process = self._context.Process(
                target=_run_worker, args=(child_end, start), daemon=True,
                name=f"repro-shard-worker-{worker}")
            process.start()
        except BaseException:  # pragma: no cover - fork failure
            parent_end.close()
            raise
        finally:
            # only the worker may hold its end, so its death reads as EOF
            child_end.close()
        self._processes[worker] = process
        return parent_end

    def _retire(self, worker: int) -> None:
        ring = self._rings.pop(worker, None)
        if ring is not None:
            ring.destroy()

    # ------------------------------------------------------------------ #
    # Data path: shared-memory rings with pickled-frame fallback
    # ------------------------------------------------------------------ #
    def _post_batch(self, worker: int, ticket) -> None:
        payload = ticket.per_worker[worker]
        ring = self._rings.get(worker)
        reg = telemetry.active()
        if ring is not None:
            staged = None
            size = _shm.packed_size(list(payload.values()))
            if size >= _shm.MIN_SHM_BYTES:
                # small sub-chunks skip the ring: the pickle copy is
                # cheaper than the staging bookkeeping below ~2 KiB
                staged = ring.try_stage(payload)
            if staged is not None:
                staged["seq"] = ticket.seq
                ticket.transport_state[worker] = staged["slot"]
                # the journal keeps the arrays, not the header: the slot is
                # reused long before a replay could read it
                self._post(worker, "batch_shm", staged,
                           logical=("batch", payload), metric="batch")
                if reg is not None:
                    reg.counter("backend.process.shm_bytes_sent").inc(size)
                return
            if reg is not None:
                reg.counter("backend.process.shm_fallbacks").inc()
        self._post(worker, "batch", payload)

    def _collect_batch(self, worker: int, ticket):
        reply = self._finish(worker)
        slot = ticket.transport_state.get(worker)
        if slot is None:
            return reply
        if not isinstance(reply, dict) or reply.get("seq") != ticket.seq \
                or reply.get("slot") != slot:
            self._broken = True
            raise WorkerCrashError(
                f"worker {worker} answered a shared-memory batch with a "
                f"mismatched header (expected slot {slot} seq {ticket.seq}, "
                f"got {reply!r}); the protocol is desynchronised — build a "
                "new service")
        if "inline" in reply:  # pragma: no cover - outputs outgrew the slot
            return reply["inline"]
        views = self._rings[worker].read_out(slot, reply["entries"])
        reg = telemetry.active()
        if reg is not None:
            reg.counter("backend.process.shm_bytes_received").inc(
                int(sum(view.nbytes for view in views.values())))
        return views

    def _release_batch(self, worker: int, ticket) -> None:
        slot = ticket.transport_state.pop(worker, None)
        ring = self._rings.get(worker)
        if slot is not None and ring is not None:
            ring.release(slot)
