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
processes, so it needs no handshake.  Each worker's sub-chunks ride one
pickled ``batch`` frame, the same request the socket backend sends, and
the reply frame carries its outputs back.  With two chunks in flight a
worker reads the next request ahead while its reply waits for room in the
channel, so frames larger than the socket buffers cannot deadlock.

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

import socket
from typing import Any, Dict, Optional, Sequence

import numpy as np

from repro.engine.backends.base import (
    ShardFactory,
    WorkerPoolBackend,
    reset_signal_handlers,
    serve_session,
)


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

    #: Double-buffered: chunk k+1 is partitioned and posted while the
    #: workers are still chewing on chunk k.
    pipeline_depth = 2

    def __init__(self, shards: int, shard_factory: ShardFactory,
                 shard_rngs: Sequence[np.random.Generator], *,
                 workers: Optional[int] = None) -> None:
        super().__init__(shards, shard_factory, shard_rngs, workers=workers)
        self._start_pool()

    def _launch(self, worker: int, start: Dict[str, Any]) -> socket.socket:
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
