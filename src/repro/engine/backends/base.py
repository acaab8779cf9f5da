"""Execution-backend abstraction of the sharded sampling service.

A :class:`~repro.engine.sharded.ShardedSamplingService` is the composition of
``S`` independent per-shard services behind one hash partition.  *Where* those
shard services execute is an orthogonal choice: in the calling process (the
:class:`~repro.engine.backends.serial.SerialBackend`, the original behaviour)
or spread over a supervised pool of worker processes (the
:class:`~repro.engine.backends.process.ProcessBackend` and
:class:`~repro.engine.backends.socket.SocketBackend`, both built on
:class:`WorkerPoolBackend`).  This module defines the contract, the worker
pool and the worker-side session loop every pool worker runs.

The contract is shaped by the library's determinism guarantee: per master
seed, every backend must produce **bit-identical** outputs and merged
memories.  The sharded service therefore keeps all *shared* randomness
(partition hash, shard-choice coins) on the caller's side and hands each
backend the already-spawned per-shard generators; a backend only decides
where each shard's service lives and routes sub-chunks and sample calls to
it.  Per-shard processing is independent, so relocating a shard to another
process cannot change what it computes.
"""

from __future__ import annotations

import abc
import logging
import multiprocessing
import pickle
import signal
import socket
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.engine.backends import wire
from repro.engine.backends.shm import ShmRingView
from repro.engine.placement import ShardPlacement
from repro.telemetry import runtime as telemetry
from repro.telemetry.registry import DEPTH_EDGES, SIZE_EDGES, TIME_EDGES

#: Builds the service of one shard from its index and its private generator.
#: Under the ``fork`` start method process workers inherit the factory, so
#: any callable works; under ``spawn`` and for socket workers it is pickled,
#: so it must be a module-level function or class.
ShardFactory = Callable[[int, np.random.Generator], object]

#: The backend names :func:`make_backend` resolves.
BACKENDS = ("serial", "process", "socket")

#: Deadline applied to ordinary worker requests.  Startup keeps its own
#: (shorter) deadline; this one only has to catch a worker that is
#: genuinely hung, so it is generous enough that no legitimate chunk ever
#: trips it — but a wedged worker surfaces as :class:`WorkerTimeoutError`
#: instead of blocking the parent forever.
DEFAULT_REQUEST_TIMEOUT = 300.0

#: Seconds granted to a worker to build its shard services and report ready.
_STARTUP_TIMEOUT = 120.0

#: State-mutating requests a worker accumulates before the supervisor
#: replaces its journal with a state snapshot — the bound on how much a
#: crashed worker has to replay.
_SNAPSHOT_EVERY = 32

#: Re-launch attempts per worker loss before it is declared lost.
_MAX_RESPAWNS = 3

#: Base backoff between re-launch attempts (grows linearly).
_RESPAWN_BACKOFF = 0.1

#: Commands that mutate worker-side shard state and must be journalled for
#: deterministic replay after a crash.  ``migrate_in``/``migrate_out`` ride
#: along so a replay reconstructs shard-membership changes exactly (the
#: shipped state blob is journalled verbatim).
_MUTATING_COMMANDS = frozenset({"batch", "sample_many", "reset",
                                "migrate_in", "migrate_out"})


class BackendError(RuntimeError):
    """An execution backend failed to run a shard operation."""


class WorkerCrashError(BackendError):
    """A worker process died while an operation was in flight."""


class WorkerTimeoutError(BackendError):
    """A worker process did not answer within the configured timeout."""


class AuthenticationError(BackendError):
    """A socket worker endpoint rejected the shared auth token."""


class BackendOptionError(ValueError):
    """A backend option broke a rule; ``option`` names the keyword at fault
    (``workers``, ``endpoints`` or ``auth_token``)."""

    def __init__(self, option: str, message: str) -> None:
        super().__init__(message)
        self.option = option


def check_backend_options(name: str, *, workers: Optional[int] = None,
                          endpoints: Optional[Sequence] = None,
                          auth_token: Optional[object] = None) -> None:
    """The one statement of which backend takes which option.

    The serial backend takes no ``workers``; ``workers`` is positive; only
    the socket backend takes ``endpoints`` or an ``auth_token``;
    ``endpoints`` is a non-empty list of ``host:port`` strings and needs an
    ``auth_token`` (only its presence matters, so a caller may pass the
    name of the token's file).  Raises :class:`BackendOptionError`.
    """
    if workers is not None:
        if name == "serial":
            raise BackendOptionError(
                "workers", "the serial backend runs in-process and takes no "
                "workers; choose the process or socket backend to "
                "parallelise")
        if workers <= 0:
            raise BackendOptionError(
                "workers", f"workers must be positive, got {workers}")
    if name != "socket":
        for option, value in (("endpoints", endpoints),
                              ("auth_token", auth_token)):
            if value is not None:
                raise BackendOptionError(
                    option, f"the {name!r} backend runs on this host and "
                    "takes no endpoints or auth token; choose the socket "
                    "backend for network-transparent workers")
    if endpoints is not None:
        if not endpoints:
            raise BackendOptionError(
                "endpoints",
                "endpoints must be a non-empty list of 'host:port' strings")
        for endpoint in endpoints:
            try:
                wire.parse_endpoint(endpoint)
            except ValueError as error:
                raise BackendOptionError("endpoints", str(error)) from None
        if auth_token is None:
            raise BackendOptionError(
                "auth_token", "remote socket endpoints require the auth "
                "token the workers were started with (`repro worker serve "
                "--auth-token-file`)")


def serve_shard_command(services: Dict[int, object], command: str, payload):
    """Execute one worker-protocol command against a shard-service map.

    This is the single interpreter of the message-shaped worker protocol
    (``batch`` / ``sample_many`` / ``memory`` / ``reset`` / ``snapshot`` /
    ``migrate_in`` / ``migrate_out`` / ``telemetry``), run by
    :func:`serve_session` for process and socket workers alike, so every
    pool executes exactly the same per-shard operations.  Loads have no
    command: the parent counts the elements it collects.

    It runs *inside the worker process*, so it is also where the
    worker-side telemetry accrues: with telemetry enabled, every command is
    counted and batch ingestion is timed into the worker's own registry,
    which the ``telemetry`` command exports back to the parent.
    """
    reg = telemetry.active()
    if reg is not None:
        reg.counter(f"worker.commands.{command}").inc()
    if command == "batch":
        if reg is None:
            return {shard: services[shard].on_receive_batch(chunk)
                    for shard, chunk in payload.items()}
        started = time.perf_counter()
        outputs = {shard: services[shard].on_receive_batch(chunk)
                   for shard, chunk in payload.items()}
        reg.histogram("worker.batch_seconds", TIME_EDGES).observe(
            time.perf_counter() - started)
        reg.counter("worker.batch_elements").inc(
            int(sum(len(chunk) for chunk in payload.values())))
        return outputs
    if command == "telemetry":
        return telemetry.snapshot_active()
    if command == "snapshot":
        # pickled (not live) services so the reply is a self-contained state
        # blob: the pool supervisor keeps it per worker, and
        # ExecutionBackend.snapshot_shards merges the per-worker blobs into
        # the public ShardedSamplingService.snapshot() payload
        return pickle.dumps(services, protocol=pickle.HIGHEST_PROTOCOL)
    if command == "migrate_out":
        # the departing shard's own pickle; the parent forwards exactly
        # these bytes to the target's migrate_in
        blob = pickle.dumps(services[payload],
                            protocol=pickle.HIGHEST_PROTOCOL)
        del services[payload]
        return blob
    if command == "migrate_in":
        for shard, blob in payload.items():
            services[int(shard)] = pickle.loads(blob)
        return None
    if command == "sample_many":
        return {shard: [services[shard].sample() for _ in range(count)]
                for shard, count in payload.items()}
    if command == "memory":
        return {shard: list(service.strategy.memory_view)
                for shard, service in services.items()}
    if command == "reset":
        for service in services.values():
            service.reset()
        return None
    raise ValueError(f"unknown worker command {command!r}")


# --------------------------------------------------------------------- #
# Worker side: one session loop for every pool
# --------------------------------------------------------------------- #
def _build_services(payload: Dict[str, Any]) -> Dict[int, object]:
    """Build one worker's shard-service map from a ``start`` payload.

    Fresh starts carry the shard factory plus the per-shard generators
    spawned in the parent (the determinism root: each shard keeps drawing
    the coin stream the serial backend would consume).  Re-launches after a
    crash carry the supervision snapshot instead — the worker's pickled
    ``{shard: service}`` map as of the last snapshot point — so the
    supervisor replays only the commands issued since.
    """
    if payload.get("telemetry"):
        # fresh per-session registry: a fork-inherited (or previous
        # session's) registry must not leak into the snapshot the parent
        # harvests via "telemetry"
        telemetry.enable_worker()
    blob = payload.get("services_blob")
    if blob is not None:
        return pickle.loads(blob)
    factory = payload["factory"]
    return {shard: factory(shard, rng)
            for shard, rng in zip(payload["shard_ids"], payload["rngs"])}


def _serve_batch_shm(ring: ShmRingView, services, header):
    """Serve one zero-copy batch: views in, ordinary ingest, views out.

    Delegates the ingestion to the regular ``batch`` interpreter, so the
    worker-side batch telemetry behaves identically on both data paths.
    The reply echoes the slot and sequence number (the parent verifies them
    against its ticket) and carries either out-region entries or, when the
    outputs outgrow the slot, the inlined arrays.
    """
    views = ring.read_in(header["slot"], header["entries"], header["dtype"])
    outputs = serve_shard_command(services, "batch", views)
    reply = {"slot": header["slot"], "seq": header["seq"]}
    entries = ring.try_write_out(header["slot"], outputs)
    if entries is None:  # pragma: no cover - outputs larger than the slot
        reply["inline"] = outputs
    else:
        reply["entries"] = entries
    return reply


def serve_session(channel: socket.socket, first=None) -> None:
    """Serve one worker session on a connected channel until it closes.

    Every pool worker runs this loop: ``start`` builds the shard services
    (and attaches the shared-memory ring named in its payload, if any),
    ``batch_shm`` ingests a sub-chunk staged in that ring, and everything
    else goes through :func:`serve_shard_command`.  A request that raises
    replies with the formatted traceback instead of ending the session.
    ``first`` is a request served before anything is read — a process
    worker receives its ``start`` at fork time that way, so factories that
    do not pickle keep working.
    """
    services = ring = None
    try:
        while True:
            if first is not None:
                (command, payload), first = first, None
            else:
                try:
                    command, payload = wire.recv_frame(channel)
                except (wire.ConnectionLost, pickle.UnpicklingError):
                    return
            if command == "close":
                return
            try:
                if command == "start":
                    services = _build_services(payload)
                    if payload.get("ring") is not None:
                        ring = ShmRingView(*payload["ring"])
                    result = sorted(services)
                elif services is None:
                    raise RuntimeError(
                        f"protocol error: {command!r} before 'start'")
                elif command == "batch_shm":
                    result = _serve_batch_shm(ring, services, payload)
                else:
                    result = serve_shard_command(services, command, payload)
                reply = (True, result)
            except Exception:
                reply = (False, traceback.format_exc())
            wire.send_frame(channel, reply)
    except OSError:
        return
    finally:
        if ring is not None:
            ring.close()


def reset_signal_handlers() -> None:
    """Give a forked worker process the default SIGTERM/SIGINT handling.

    A ``fork`` inherits the parent's signal dispositions.  When the parent
    is ``repro serve``, SIGTERM/SIGINT are wired to its drain handler —
    inherited, they would make the worker ignore the supervisor's
    ``terminate()`` and outlive the parent.
    """
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (OSError, ValueError):  # pragma: no cover - exotic platforms
            pass
    try:
        signal.set_wakeup_fd(-1)
    except (OSError, ValueError):  # pragma: no cover - non-main thread
        pass


@dataclass
class DispatchTicket:
    """Handle of one in-flight (or completed) dispatched chunk.

    ``dispatch_begin`` returns one; ``dispatch_finish`` turns it into the
    merged output chunk.  ``seq`` orders tickets globally — replies are
    collected strictly FIFO, which is what keeps pipelined execution
    bit-identical to the synchronous path.  ``transport_state`` is a
    per-worker scratch slot for the backend's transport (the shm transport
    parks each worker's ring-slot number there until release).
    """

    seq: int
    outputs: np.ndarray
    masks: Dict[int, np.ndarray] = field(default_factory=dict)
    counts: Dict[int, int] = field(default_factory=dict)
    per_worker: Dict[int, Dict[int, np.ndarray]] = field(default_factory=dict)
    involved: List[int] = field(default_factory=list)
    collected: bool = False
    transport_state: Dict[int, object] = field(default_factory=dict)


class ExecutionBackend(abc.ABC):
    """Executes the per-shard services of a sharded sampling ensemble.

    Of the reads, only :meth:`shard_loads` never drains the pipeline and
    never makes a worker round trip.  On worker pools every other request
    (:meth:`sample_many`, :meth:`shard_memories`, :meth:`reset`,
    :meth:`snapshot_shards`, :meth:`telemetry_snapshots`) drains first and
    makes one round trip per worker it involves.

    Parameters
    ----------
    shards:
        Number of partitions ``S``.
    shard_factory:
        Builds one shard's service from its index and private generator.
    shard_rngs:
        One already-spawned generator per shard (the paper's "one local coin
        per node" requirement).  Spawning happens in the caller so every
        backend consumes exactly the same child sequence — the root of the
        cross-backend bit-identity guarantee.
    """

    #: Registry key of the backend ("serial", "process", "socket").
    name = "abstract"

    #: Whether the backend supports runtime worker add/remove and live
    #: shard migration (the worker-pool backends; serial has no pool).
    supports_scaling = False

    #: Maximum number of dispatched chunks in flight at once.  1 means the
    #: synchronous contract (dispatch_begin completes the work eagerly);
    #: backends whose workers genuinely run concurrently with the parent
    #: raise it (the process backend double-buffers with depth 2).
    pipeline_depth = 1

    def __init__(self, shards: int, shard_factory: ShardFactory,
                 shard_rngs: Sequence[np.random.Generator]) -> None:
        if shards <= 0:
            raise ValueError(f"shards must be positive, got {shards}")
        if len(shard_rngs) != shards:
            raise ValueError(
                f"expected {shards} shard generators, got {len(shard_rngs)}")
        self.shards = int(shards)
        self._placement = ShardPlacement(self.shards)

    @property
    def placement(self) -> ShardPlacement:
        """The shard → worker routing table this backend consults."""
        return self._placement

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def dispatch(self, identifiers: np.ndarray,
                 shard_indices: np.ndarray) -> np.ndarray:
        """Feed a hash-partitioned chunk and return the merged output chunk.

        ``shard_indices[i]`` is the shard ``identifiers[i]`` is routed to
        (the caller computed it with one vectorised hash pass).  The returned
        chunk is ordered by input arrival position: ``outputs[i]`` is the
        output the shard of ``identifiers[i]`` produced for it, exactly as
        per-element routing would have interleaved them.
        """

    @property
    def supports_pipelining(self) -> bool:
        """Whether begin/finish can usefully overlap with caller work."""
        return self.pipeline_depth > 1

    def dispatch_begin(self, identifiers: np.ndarray,
                       shard_indices: np.ndarray) -> DispatchTicket:
        """Start dispatching one chunk; return its ticket.

        The default (synchronous backends) completes the dispatch eagerly
        and returns an already-collected ticket, so callers can drive every
        backend through begin/finish without behavioural change.  Pipelined
        backends override this to post the chunk and return before the
        replies arrive.
        """
        ticket = DispatchTicket(
            seq=0, outputs=self.dispatch(identifiers, shard_indices))
        ticket.collected = True
        return ticket

    def dispatch_finish(self, ticket: DispatchTicket) -> np.ndarray:
        """Collect a ticket's merged output chunk (FIFO order)."""
        return ticket.outputs

    def drain_pipeline(self) -> None:
        """Collect every in-flight dispatch (no-op for sync backends)."""

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def sample_many(self, counts: Dict[int, int]
                    ) -> Dict[int, List[Optional[int]]]:
        """Draw ``counts[shard]`` consecutive samples from each listed shard.

        The one sampling request of the contract.  Each shard consumes its
        own coin stream in call order, so the draws are exactly the ones
        ``counts[shard]`` successive ``sample()`` calls on that shard's
        service would have produced.
        """

    # ------------------------------------------------------------------ #
    # Inspection and lifecycle
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def shard_loads(self) -> List[int]:
        """Per-shard counts of the elements collected so far.

        Serial reads its services' counters, worker pools their parent-side
        count, which grows when a dispatch is collected.  A dispatch still
        in flight is not counted; callers that need the synchronous view
        call :meth:`drain_pipeline` first.
        """

    @abc.abstractmethod
    def shard_memories(self) -> List[List[int]]:
        """Every shard's sampling memory ``Gamma``, in shard order."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Reset every shard's service."""

    @abc.abstractmethod
    def snapshot_shards(self) -> bytes:
        """Pickled ``{shard: service}`` map of every shard's live service.

        This is the state half of the public snapshot/restore API: the blob
        holds each shard's complete service (sampling memory, sketches, and
        the shard's private generator state), so feeding it back through a
        :class:`~repro.engine.sharded.RestoredShardFactory` rebuilds shards
        that keep drawing the exact coin stream the originals would have —
        the property the serve drain/restart path and live shard migration
        both rely on.
        """

    def seed_loads(self, loads: Sequence[int]) -> None:
        """Install restored per-shard load counters (restore path only).

        Backends that answer :meth:`shard_loads` from the live services
        (serial) need nothing — the restored services carry their own
        ``elements_processed``.  Worker-pool backends keep a parent-side
        count and override this to re-seed it.
        """

    def telemetry_snapshots(self) -> List[Dict[str, Any]]:
        """Telemetry snapshots of the backend's worker processes.

        Backends whose shards run in this process (serial) have nothing to
        ship — their instrumentation lands directly in the caller's
        registry — so the default is an empty list.  Worker-pool backends
        override this with a ``telemetry`` broadcast over the command
        channel.
        """
        return []

    def close(self) -> None:
        """Release backend resources (worker processes); idempotent."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(shards={self.shards})"


class WorkerPoolBackend(ExecutionBackend):
    """Supervised pool of workers that each own a group of shards.

    The process and socket backends differ only in how a worker comes up
    (:meth:`_launch`: fork onto a private socketpair, or spawn/connect a TCP
    worker and authenticate).  Everything after that is written once, here,
    over one channel type — a connected stream socket carrying
    :mod:`~repro.engine.backends.wire` frames, served on the far side by
    :func:`serve_session`:

    * **requests** — :meth:`_post` / :meth:`_finish` with deadlines, FIFO
      per worker, so pipelined dispatch may keep two requests in flight;
    * **the pool** — worker clamping, the shard→worker map, chunk
      partition/scatter, grouped sampling, load accounting, live migration
      and the inspection broadcasts;
    * **supervision** — every state-mutating request is journalled per
      worker, and once :attr:`_snapshot_every` have accumulated on an idle
      worker a state snapshot replaces the journal.  A lost channel (worker
      killed, connection dropped) re-launches the worker from its last
      snapshot, replays the journal and re-sends the requests still in
      flight, so the pending collect completes transparently.  After
      :attr:`_max_respawns` failed attempts — or as many crashes on one
      request — the loss surfaces as :class:`WorkerCrashError`.  A timeout,
      a worker that raises and a desynchronised reply are not recovered:
      they poison the backend, since retrying could read a stale reply;
    * **teardown**.

    Parameters
    ----------
    workers:
        Number of workers; defaults to ``min(shards, cpu_count)`` and is
        clamped to ``shards`` (an idle worker would own no shard).  Every
        request runs under :data:`DEFAULT_REQUEST_TIMEOUT`, so a
        live-but-hung worker cannot block the parent forever.
    """

    supports_scaling = True

    def __init__(self, shards: int, shard_factory: ShardFactory,
                 shard_rngs: Sequence[np.random.Generator], *,
                 workers: Optional[int] = None) -> None:
        super().__init__(shards, shard_factory, shard_rngs)
        check_backend_options(self.name, workers=workers)
        if workers is None:
            workers = min(self.shards, multiprocessing.cpu_count() or 1)
        for _ in range(min(int(workers), self.shards)):
            self._placement.add_worker()
        self._placement.assign_round_robin()
        self._shard_factory = shard_factory
        self._shard_rngs = list(shard_rngs)
        self._loads = [0] * self.shards
        #: FIFO of in-flight dispatch tickets (oldest first).  Bounded by
        #: :attr:`pipeline_depth`; every non-dispatch operation drains it
        #: first so the worker-side command order matches the synchronous
        #: execution exactly (the bit-identity invariant).
        self._pipeline: Deque[DispatchTicket] = deque()
        self._next_seq = 0
        #: Telemetry snapshots harvested from workers drained at runtime,
        #: handed out (and cleared) by :meth:`telemetry_snapshots` so a
        #: retired worker's registry is merged exactly once.
        self._retired_telemetry: List[Dict[str, Any]] = []
        self._closed = False
        self._broken = False
        #: Successful worker recoveries (the crash tests assert it advanced).
        self.respawns = 0
        self._snapshot_every = _SNAPSHOT_EVERY
        self._max_respawns = _MAX_RESPAWNS
        # lifecycle events log under the concrete backend's module, so
        # `repro --log-level WARNING` names the pool that recovered
        self._log = logging.getLogger(type(self).__module__)
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn")
        # Per-worker slot state, indexed by worker id (ids are sequential
        # and never reused, so a new slot is always the next index).
        self._channels: List[Optional[socket.socket]] = []
        self._processes: List[Optional[multiprocessing.Process]] = []
        self._fresh_starts: List[Dict[str, Any]] = []
        self._snapshots: List[Optional[bytes]] = []
        #: Mutating requests completed since the worker's last snapshot.
        self._journals: List[List[tuple]] = []
        #: Per-worker FIFO of posted, not yet collected requests:
        #: ``(request, logical, metric, posted_at)``.  ``request`` is what
        #: went on the wire (and is re-sent after a recovery), ``logical``
        #: what the journal replays, ``metric`` the round-trip series.
        self._inflight: List[Deque[tuple]] = []

    @property
    def workers(self) -> int:
        """Current pool size (changes at runtime under autoscaling)."""
        return self._placement.workers

    # ------------------------------------------------------------------ #
    # Worker lifecycle
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def _launch(self, worker: int, start: Dict[str, Any]) -> socket.socket:
        """Bring up worker ``worker`` and return its channel.

        The worker must execute ``("start", start)`` as its first request,
        so the channel's next frame is the start reply.  A launch that
        creates a process records it in ``self._processes[worker]``.
        """

    def _retire(self, worker: int) -> None:
        """Release per-slot resources once a worker is gone for good."""

    def _start_pool(self) -> None:
        """Start the initial workers (subclass constructors call this last)."""
        workers = self._placement.worker_ids
        try:
            for worker in workers:
                self._add_slot(worker, self._placement.shards_of(worker))
            self._start(workers)
        except BaseException:
            # a failed startup (factory error, timeout, bad token) must not
            # leak the sibling workers already launched
            self._teardown()
            raise

    def _add_slot(self, worker: int, owned: List[int]) -> None:
        """Register the supervision state of a new worker slot.

        The fresh-start payload is frozen here: the shards the slot owns
        now, the factory, and those shards' generators, which the parent
        never draws from — so a re-launch before the first snapshot
        rebuilds the exact initial state, including shards migrated away
        since (a replayed ``migrate_out`` removes them again).
        """
        for slots in (self._channels, self._processes, self._snapshots):
            slots.append(None)
        self._journals.append([])
        self._inflight.append(deque())
        self._fresh_starts.append({
            "shard_ids": owned,
            "factory": self._shard_factory,
            "rngs": [self._shard_rngs[shard] for shard in owned],
        })

    def _start(self, workers: Sequence[int], *,
               from_snapshot: bool = False) -> None:
        """Launch workers, then wait until each has built its shards."""
        worker = None
        try:
            for worker in workers:
                self._stop_process(worker)
                start = dict(self._fresh_starts[worker])
                if from_snapshot and self._snapshots[worker] is not None:
                    start = {"services_blob": self._snapshots[worker]}
                if telemetry.is_enabled():
                    start["telemetry"] = True
                self._channels[worker] = self._launch(worker, start)
            for worker in workers:
                (ok, result), _ = self._receive(worker, _STARTUP_TIMEOUT)
                if not ok:
                    raise WorkerCrashError(
                        f"worker {worker} failed to build its shards:\n"
                        f"{result}")
        except wire.DeadlineExceeded:
            raise WorkerTimeoutError(
                f"worker {worker} did not finish its startup in time"
            ) from None
        except wire.ConnectionLost as error:
            raise WorkerCrashError(
                f"worker {worker} dropped its channel during startup: "
                f"{error}") from error

    def _close_channel(self, worker: int) -> None:
        channel, self._channels[worker] = self._channels[worker], None
        if channel is not None:
            channel.close()

    def _stop_process(self, worker: int) -> None:
        process, self._processes[worker] = self._processes[worker], None
        if process is None:
            return
        if process.is_alive():
            process.terminate()
        process.join(timeout=5.0)
        if process.is_alive():  # pragma: no cover - SIGTERM blocked
            process.kill()
            process.join(timeout=5.0)

    def _halt(self, worker: int) -> None:
        """Close one worker for good: channel, process, slot resources."""
        channel = self._channels[worker]
        if channel is not None:
            try:
                wire.send_frame(channel, ("close", None),
                                deadline=time.monotonic() + 1.0)
            except (wire.DeadlineExceeded, OSError):
                pass
        self._close_channel(worker)
        self._stop_process(worker)
        self._retire(worker)

    def _teardown(self) -> None:
        for worker in range(len(self._channels)):
            self._halt(worker)

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #
    def _check_usable(self) -> None:
        if self._closed:
            raise WorkerCrashError(
                f"the {self.name} backend is closed; build a new service")
        if self._broken:
            raise WorkerCrashError(
                "a previous worker failure desynchronised the worker "
                "protocol (a reply may still be in flight); build a new "
                "service")

    def _receive(self, worker: int, timeout: float):
        """Read one reply frame: ``((ok, result), payload_bytes)``."""
        blob = wire.recv_raw_frame(self._channels[worker],
                                   deadline=time.monotonic() + timeout)
        return pickle.loads(blob), len(blob)

    def _post(self, worker: int, command: str, payload=None, *,
              logical: Optional[tuple] = None,
              metric: Optional[str] = None) -> None:
        """Send one request to a worker (a lost channel is recovered).

        ``logical`` is what the journal replays if it differs from the wire
        request — a shared-memory batch journals its arrays, not the ring
        header, because ring slots are reused.  ``metric`` overrides the
        round-trip series, so both batch data paths report as ``batch``.
        """
        self._check_usable()
        request = (command, payload)
        blob = pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL)
        self._inflight[worker].append((request, logical or request,
                                       metric or command,
                                       time.perf_counter()))
        try:
            wire.send_raw_frame(
                self._channels[worker], blob,
                deadline=time.monotonic() + DEFAULT_REQUEST_TIMEOUT)
        except wire.DeadlineExceeded:
            # a live worker that stopped draining its channel is hung, not
            # dead: surface it like a reply timeout instead of re-launching
            self._broken = True
            raise WorkerTimeoutError(
                f"worker {worker} did not accept a {command!r} request "
                f"within {DEFAULT_REQUEST_TIMEOUT:.3g}s; the backend is now "
                "unusable — build a new service") from None
        except OSError as error:
            # recovery re-sends every in-flight request, this one included
            self._recover(worker, error)
            return
        reg = telemetry.active()
        if reg is not None:
            reg.counter(f"backend.{self.name}.bytes_sent").inc(len(blob))

    def _finish(self, worker: int):
        """Collect the reply of the worker's oldest in-flight request."""
        self._check_usable()
        request, logical, metric, posted = self._inflight[worker][0]
        timeout = DEFAULT_REQUEST_TIMEOUT
        crashes = 0
        while True:
            try:
                (ok, result), received = self._receive(worker, timeout)
                break
            except wire.ConnectionLost as error:
                # a worker that crashes deterministically on this very
                # request must not be re-launched forever
                crashes += 1
                if crashes > self._max_respawns:
                    self._broken = True
                    raise WorkerCrashError(
                        f"worker {worker} crashed {crashes} times on the "
                        f"same {request[0]!r} request; the request itself "
                        "appears to kill it — build a new service"
                    ) from error
                self._recover(worker, error)
            except wire.DeadlineExceeded:
                self._broken = True
                raise WorkerTimeoutError(
                    f"worker {worker} did not reply within {timeout:.3g}s; "
                    "the backend is now unusable (the late reply would "
                    "desynchronise the protocol) — build a new service"
                ) from None
        self._inflight[worker].popleft()
        if not ok:
            # the raising worker's shard state is partially updated and a
            # replay would re-raise: poison the backend
            self._broken = True
            raise WorkerCrashError(
                f"worker {worker} raised while serving {request[0]!r} "
                f"(build a new service):\n{result}")
        if logical[0] in _MUTATING_COMMANDS:
            self._journals[worker].append(logical)
        reg = telemetry.active()
        if reg is not None:
            # the parent's experienced latency: post to reply-in-hand,
            # including any queueing behind sibling workers' replies
            reg.counter(f"backend.{self.name}.bytes_received").inc(received)
            reg.histogram(
                f"backend.{self.name}.roundtrip_seconds.{metric}",
                TIME_EDGES).observe(time.perf_counter() - posted)
        return result

    def _request(self, worker: int, command: str, payload=None):
        self.drain_pipeline()
        self._post(worker, command, payload)
        result = self._finish(worker)
        self._after_requests()
        return result

    def _broadcast(self, command: str, payload=None) -> Dict[int, object]:
        """Send one command to every worker, then collect per-shard replies."""
        merged: Dict[int, object] = {}
        for reply in self._gather(command, payload):
            if reply:
                merged.update(reply)
        return merged

    def _gather(self, command: str, payload=None) -> List[object]:
        """Send one command to every worker; return the replies in order."""
        self.drain_pipeline()
        workers = self._placement.worker_ids
        for worker in workers:
            self._post(worker, command, payload)
        replies = [self._finish(worker) for worker in workers]
        self._after_requests()
        return replies

    # ------------------------------------------------------------------ #
    # Supervision: snapshots and recovery
    # ------------------------------------------------------------------ #
    def _snapshot_due(self) -> bool:
        return any(len(self._journals[worker]) >= self._snapshot_every
                   for worker in self._placement.worker_ids)

    def _after_requests(self) -> None:
        """Snapshot every idle worker whose journal reached the threshold.

        Runs once per completed operation.  A worker with a pipelined batch
        still in flight is skipped: its snapshot would answer after that
        batch and could not be read first.  :meth:`dispatch_begin` collects
        the pipeline whenever a snapshot is due, so the skip is temporary.
        """
        for worker in self._placement.worker_ids:
            if (len(self._journals[worker]) < self._snapshot_every
                    or self._inflight[worker]):
                continue
            self._post(worker, "snapshot")
            blob = self._finish(worker)
            self._snapshots[worker] = blob
            self._journals[worker] = []
            reg = telemetry.active()
            if reg is not None:
                reg.counter(f"backend.{self.name}.snapshots").inc()
                reg.gauge(f"backend.{self.name}.snapshot_bytes").set(
                    len(blob))
                reg.histogram(f"backend.{self.name}.snapshot_size_bytes",
                              SIZE_EDGES).observe(len(blob))

    def _recover(self, worker: int, cause: BaseException) -> None:
        """Re-launch a lost worker and rebuild its shard state.

        Rebuild = last snapshot (or the fresh-start payload) + ordered
        replay of the journal; then every in-flight request is re-sent in
        FIFO order, so the caller's pending :meth:`_finish` completes
        transparently.  Raises :class:`WorkerCrashError` after
        ``_max_respawns`` failed attempts.
        """
        if self._closed:
            raise WorkerCrashError(
                f"the {self.name} backend is closed; build a new service"
            ) from cause
        self._close_channel(worker)
        reg = telemetry.active()
        replayed = len(self._journals[worker])
        self._log.warning(
            "worker %d lost (%s: %s); recovering from %s + replay of %d "
            "journalled command(s)", worker, type(cause).__name__, cause,
            ("its last snapshot" if self._snapshots[worker] is not None
             else "a fresh start"), replayed)
        last_error: BaseException = cause
        for attempt in range(1, self._max_respawns + 1):
            if reg is not None:
                reg.counter(f"backend.{self.name}.respawn_attempts").inc()
            self._log.warning("worker %d re-spawn/reconnect attempt %d/%d",
                              worker, attempt, self._max_respawns)
            try:
                self._start([worker], from_snapshot=True)
                self._replay(worker)
            except AuthenticationError:
                # the endpoint's token changed under us: retrying cannot
                # help, and the worker's channel is gone for good
                self._broken = True
                raise
            except (BackendError, wire.ConnectionLost,
                    wire.DeadlineExceeded, OSError) as error:
                last_error = error
                self._close_channel(worker)
                time.sleep(_RESPAWN_BACKOFF * attempt)
                continue
            self.respawns += 1
            if reg is not None:
                reg.counter(f"backend.{self.name}.respawns").inc()
                reg.counter(f"backend.{self.name}.replayed_commands").inc(
                    replayed)
            self._log.warning(
                "worker %d recovered on attempt %d/%d (%d command(s) "
                "replayed, %d total recoveries)", worker, attempt,
                self._max_respawns, replayed, self.respawns)
            return
        self._broken = True
        self._log.error("worker %d could not be recovered after %d "
                        "attempt(s)", worker, self._max_respawns)
        raise WorkerCrashError(
            f"worker {worker} is gone and could not be re-spawned after "
            f"{self._max_respawns} attempt(s); its shards "
            f"{self._placement.shards_of(worker)} "
            f"are lost — build a new service (last error: {last_error})"
        ) from cause

    def _replay(self, worker: int) -> None:
        """Replay the journal on a re-launched worker, then re-send."""
        channel = self._channels[worker]
        span = DEFAULT_REQUEST_TIMEOUT
        for request in self._journals[worker]:
            deadline = time.monotonic() + span
            wire.send_frame(channel, request, deadline=deadline)
            ok, result = wire.recv_frame(channel, deadline=deadline)
            if not ok:
                raise WorkerCrashError(
                    f"worker {worker} failed replaying {request[0]!r} "
                    f"after a re-spawn:\n{result}")
        for request, *_ in self._inflight[worker]:
            wire.send_frame(channel, request,
                            deadline=time.monotonic() + span)

    # ------------------------------------------------------------------ #
    # Streaming
    # ------------------------------------------------------------------ #
    def dispatch(self, identifiers: np.ndarray,
                 shard_indices: np.ndarray) -> np.ndarray:
        return self.dispatch_finish(
            self.dispatch_begin(identifiers, shard_indices))

    def dispatch_begin(self, identifiers: np.ndarray,
                       shard_indices: np.ndarray) -> DispatchTicket:
        """Partition one chunk and post its sub-chunks to the workers.

        When the pipeline is full (``pipeline_depth`` tickets in flight),
        the oldest dispatch is collected first — that, together with the
        transport's bounded ring slots, is the backpressure that keeps a
        fast producer from outrunning the workers.  A worker due for its
        supervision snapshot also collects the pipeline first, since the
        snapshot waits for the worker to be idle.  With an older ticket
        still in flight, the time spent partitioning and staging here is
        genuine parent/worker overlap, recorded as
        ``backend.<name>.staging_overlap_seconds``.
        """
        while self._pipeline and (len(self._pipeline) >= self.pipeline_depth
                                  or self._snapshot_due()):
            self._collect_oldest()
        reg = telemetry.active()
        overlapping = bool(self._pipeline)
        staging_started = time.perf_counter() \
            if reg is not None and overlapping else None
        ticket = DispatchTicket(
            seq=self._next_seq,
            outputs=np.empty(identifiers.size, dtype=np.int64))
        self._next_seq += 1
        for shard in range(self.shards):
            mask = shard_indices == shard
            if not mask.any():
                continue
            ticket.masks[shard] = mask
            ticket.counts[shard] = int(mask.sum())
            worker = self._placement.worker_of(shard)
            ticket.per_worker.setdefault(worker, {})[shard] = \
                identifiers[mask]
        ticket.involved = sorted(ticket.per_worker)
        for worker in ticket.involved:
            self._post_batch(worker, ticket)
        self._pipeline.append(ticket)
        if reg is not None:
            # queue depth = requests pipelined before the first collect;
            # sub-chunks = per-shard slices scattered across those workers
            reg.counter(f"backend.{self.name}.dispatches").inc()
            reg.counter(f"backend.{self.name}.dispatch_elements").inc(
                int(identifiers.size))
            reg.histogram(f"backend.{self.name}.dispatch_queue_depth",
                          DEPTH_EDGES).observe(len(ticket.involved))
            reg.histogram(f"backend.{self.name}.dispatch_subchunks",
                          DEPTH_EDGES).observe(len(ticket.masks))
            reg.histogram(f"backend.{self.name}.pipeline_occupancy",
                          DEPTH_EDGES).observe(len(self._pipeline))
            if staging_started is not None:
                reg.histogram(
                    f"backend.{self.name}.staging_overlap_seconds",
                    TIME_EDGES).observe(
                        time.perf_counter() - staging_started)
        return ticket

    def dispatch_finish(self, ticket: DispatchTicket) -> np.ndarray:
        while not ticket.collected:
            self._collect_oldest()
        return ticket.outputs

    def drain_pipeline(self) -> None:
        while self._pipeline:
            self._collect_oldest()

    def _collect_oldest(self) -> None:
        """Collect, scatter and release the oldest in-flight dispatch.

        Strictly FIFO — tickets complete in ``seq`` order no matter how the
        caller interleaves begin/finish, which keeps the worker-side command
        stream identical to synchronous execution.  On a collection failure
        the ticket is dropped from the pipeline before the error propagates
        (the backend has already poisoned itself; retrying the collect
        would read stale replies).
        """
        ticket = self._pipeline[0]
        try:
            for worker in ticket.involved:
                replies = self._collect_batch(worker, ticket)
                for shard, shard_outputs in replies.items():
                    ticket.outputs[ticket.masks[shard]] = shard_outputs
                    self._loads[shard] += ticket.counts[shard]
                self._release_batch(worker, ticket)
        except BaseException:
            self._pipeline.popleft()
            ticket.collected = True
            raise
        self._pipeline.popleft()
        ticket.collected = True
        self._after_requests()

    # ------------------------------------------------------------------ #
    # Dispatch data-path hooks (overridden by the shared-memory rings)
    # ------------------------------------------------------------------ #
    def _post_batch(self, worker: int, ticket: DispatchTicket) -> None:
        """Send one worker its sub-chunks of a dispatch (pickled frame)."""
        self._post(worker, "batch", ticket.per_worker[worker])

    def _collect_batch(self, worker: int,
                       ticket: DispatchTicket) -> Dict[int, np.ndarray]:
        """Collect one worker's ``{shard: outputs}`` reply of a dispatch."""
        return self._finish(worker)

    def _release_batch(self, worker: int, ticket: DispatchTicket) -> None:
        """Free data-path resources once a worker's reply is scattered."""

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample_many(self, counts: Dict[int, int]
                    ) -> Dict[int, List[Optional[int]]]:
        self.drain_pipeline()
        per_worker: Dict[int, Dict[int, int]] = {}
        for shard, count in counts.items():
            worker = self._placement.worker_of(shard)
            per_worker.setdefault(worker, {})[shard] = count
        involved = sorted(per_worker)
        for worker in involved:
            self._post(worker, "sample_many", per_worker[worker])
        merged: Dict[int, List[Optional[int]]] = {}
        for worker in involved:
            merged.update(self._finish(worker))
        self._after_requests()
        return merged

    # ------------------------------------------------------------------ #
    # Placement plane: live migration and runtime scaling
    # ------------------------------------------------------------------ #
    def add_worker(self) -> int:
        """Grow the pool by one worker; it starts owning no shards."""
        worker = self._placement.add_worker()
        self._add_slot(worker, [])
        try:
            self._start([worker])
        except BaseException:
            self._halt(worker)
            self._placement.remove_worker(worker)
            raise
        reg = telemetry.active()
        if reg is not None:
            reg.counter(f"backend.{self.name}.workers_added").inc()
            reg.gauge(f"backend.{self.name}.workers").set(self.workers)
        return worker

    def remove_worker(self, worker: int) -> None:
        """Drain a worker (migrating its shards away) and retire it."""
        if worker not in self._placement.worker_ids:
            raise ValueError(f"worker {worker} is not in the pool")
        if self.workers <= 1:
            raise BackendError("cannot remove the last worker of the pool")
        # read once: the first migration drains the pipeline, and a chunk
        # collected then must not steer the later targets
        loads = self.shard_loads()
        for shard in self._placement.shards_of(worker):
            survivors = [w for w in self._placement.worker_ids if w != worker]
            target = min(survivors, key=lambda w: (
                sum(loads[s] for s in self._placement.shards_of(w)), w))
            self.migrate_shard(shard, target)
        reg = telemetry.active()
        if reg is not None:
            # harvest the worker's registry before teardown so its counters
            # survive the drain; telemetry_snapshots() merges them once
            snapshot = self._request(worker, "telemetry", None)
            if snapshot:
                self._retired_telemetry.append(snapshot)
        self._halt(worker)
        self._snapshots[worker] = None
        self._journals[worker] = []
        self._placement.remove_worker(worker)
        if reg is not None:
            reg.counter(f"backend.{self.name}.workers_removed").inc()
            reg.gauge(f"backend.{self.name}.workers").set(self.workers)

    def migrate_shard(self, shard: int, target: int) -> None:
        """Move one shard's service to ``target`` live.

        Sequence: ``migrate_out`` pickles the shard on the source, drops it
        and returns the bytes; the placement table cuts over; ``migrate_in``
        installs the same bytes on the target.  Both commands are
        journalled, so a crash on either side is recoverable: the
        supervisor's replay re-issues them and converges on the routed
        owner.  Until the target has applied it, the moved shard lives in
        the in-flight ``migrate_in`` request, which a recovery re-sends.  No
        step touches a random draw, so outputs per seed are unchanged.
        """
        if target not in self._placement.worker_ids:
            raise ValueError(f"target worker {target} is not in the pool")
        source = self._placement.worker_of(shard)
        if target == source:
            return
        started = time.perf_counter()
        blob = self._request(source, "migrate_out", shard)
        self._placement.assign(shard, target)
        self._request(target, "migrate_in", {shard: blob})
        reg = telemetry.active()
        if reg is not None:
            reg.counter(f"backend.{self.name}.migrations").inc()
            reg.counter(f"backend.{self.name}.migration_bytes").inc(len(blob))
            reg.histogram(f"backend.{self.name}.migration_seconds",
                          TIME_EDGES).observe(time.perf_counter() - started)
            reg.gauge(f"backend.{self.name}.shard_worker.{shard}").set(target)

    # ------------------------------------------------------------------ #
    # Inspection and lifecycle
    # ------------------------------------------------------------------ #
    def shard_loads(self) -> List[int]:
        # updated at collect and zeroed at reset, so it equals the workers'
        # elements_processed once the pipeline is drained: a shard processes
        # exactly the elements dispatched to it
        return list(self._loads)

    def shard_memories(self) -> List[List[int]]:
        by_shard = self._broadcast("memory")
        return [by_shard[shard] for shard in range(self.shards)]

    def reset(self) -> None:
        self._broadcast("reset")
        self._loads = [0] * self.shards

    def snapshot_shards(self) -> bytes:
        # each worker replies with the pickled map of its own shards; the
        # merged map is re-pickled so the caller gets one self-contained blob
        merged: Dict[int, object] = {}
        for blob in self._gather("snapshot"):
            merged.update(pickle.loads(blob))
        return pickle.dumps(merged, protocol=pickle.HIGHEST_PROTOCOL)

    def seed_loads(self, loads: Sequence[int]) -> None:
        if len(loads) != self.shards:
            raise ValueError(
                f"expected {self.shards} shard loads, got {len(loads)}")
        self._loads = [int(load) for load in loads]

    def telemetry_snapshots(self) -> List[Dict[str, Any]]:
        """Pull every worker's telemetry snapshot over the command channel.

        Registries harvested from workers drained at runtime (see
        :meth:`remove_worker`) ride along exactly once: the retired list is
        handed out and cleared here, so a second harvest cannot re-merge a
        dead worker's counters.
        """
        snapshots = self._gather("telemetry") + self._retired_telemetry
        self._retired_telemetry = []
        return snapshots

    def close(self) -> None:
        if self._closed:
            return
        try:
            # collect in-flight dispatches so their loads are accounted;
            # best-effort — a crashed worker must not block the close
            self.drain_pipeline()
        except Exception:
            pass
        self._closed = True
        self._teardown()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"{type(self).__name__}(shards={self.shards}, "
                f"workers={self.workers}, respawns={self.respawns})")


def make_backend(name: str, shards: int, shard_factory: ShardFactory,
                 shard_rngs: Sequence[np.random.Generator], *,
                 workers: Optional[int] = None,
                 endpoints: Optional[Sequence[str]] = None,
                 auth_token: Optional[object] = None
                 ) -> ExecutionBackend:
    """Build the execution backend registered under ``name``.

    Parameters
    ----------
    name:
        One of :data:`BACKENDS` (``"serial"``, ``"process"`` or
        ``"socket"``).
    workers:
        Worker count of the process and socket backends.
    endpoints, auth_token:
        Socket-backend transport: ``host:port`` worker endpoints (already
        running ``repro worker serve`` instances) and the shared auth token
        itself (the CLI and scenario specs read it from the file they
        name).  Without endpoints the socket backend spawns supervised
        localhost workers itself.

    :func:`check_backend_options` states which backend takes which option.
    """
    from repro.engine.backends.process import ProcessBackend
    from repro.engine.backends.serial import SerialBackend

    if name not in BACKENDS:
        raise ValueError(
            f"unknown execution backend {name!r}; available: "
            f"{', '.join(BACKENDS)}")
    check_backend_options(name, workers=workers, endpoints=endpoints,
                          auth_token=auth_token)
    if name == "serial":
        return SerialBackend(shards, shard_factory, shard_rngs)
    if name == "process":
        return ProcessBackend(shards, shard_factory, shard_rngs,
                              workers=workers)
    from repro.engine.backends.socket import SocketBackend

    return SocketBackend(shards, shard_factory, shard_rngs, workers=workers,
                         endpoints=endpoints, auth_token=auth_token)
