"""Asyncio front-end multiplexing client sessions onto one shard pool.

:class:`SamplingServer` accepts many concurrent authenticated client
connections (the protocol of :mod:`repro.serve.protocol`) and applies
their operations to a single :class:`~repro.engine.sharded.\
ShardedSamplingService` — whichever backend it runs on (serial, process
or socket pool).

Determinism
-----------
Every operation that touches the ensemble runs on **one** operations
thread (a single-worker executor), submitted in the order the event loop
finished reading the request frames.  Submission happens synchronously in
each connection's read loop, so the global apply order *is* the frame
arrival order — the normative ordering rule of the protocol docstring —
and the ensemble consumes its coin streams exactly as a local batch run
over the same concatenated stream would.

Backpressure
------------
Two layers, both bounded:

* Per-connection high-water mark (``connection_hwm``): a connection with
  that many ingests in flight stops being *read* — TCP flow control
  pushes back on that client while others proceed.
* Global cap (``queue_cap``): when the server-wide in-flight count is at
  the cap, further ingests are rejected immediately with
  ``{"error": "backpressure", "retry_after": seconds}`` instead of being
  queued — the client retries after the hint.

Drain
-----
``SIGTERM`` (when signal handlers are installed), ``SIGINT``, or a
``drain`` command triggers a graceful drain: stop accepting connections,
reject new ingests, wait for the in-flight queue to empty, snapshot the
ensemble (:meth:`ShardedSamplingService.snapshot`) to the state file,
answer pending ``drain`` requests with a report, close every connection,
and return from :meth:`SamplingServer.serve`.  A server restarted with
the same state file resumes with a bit-identical sampler.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import os
import signal
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Awaitable, Dict, Optional, Set, Tuple, Union

import numpy as np

from repro.metrics.divergence import kl_divergence_to_uniform
from repro.engine.backends import wire
from repro.serve import protocol
from repro.streams.stream import IdentifierStream
from repro.telemetry import runtime as telemetry
from repro.telemetry.registry import DEPTH_EDGES, MetricsRegistry, TIME_EDGES

__all__ = ["SamplingServer", "ServerThread"]

_LOG = logging.getLogger("repro.serve.server")

#: Default global cap on in-flight (accepted, unapplied) operations.
DEFAULT_QUEUE_CAP = 256

#: Default per-connection in-flight high-water mark.
DEFAULT_CONNECTION_HWM = 8

#: Default ``retry_after`` hint sent with backpressure rejections.
DEFAULT_RETRY_AFTER = 0.05

#: Commands answered by querying the service on the operations thread.
_QUERY_COMMANDS = frozenset({"sample", "sample_many", "stats", "memory"})


class _Connection:
    """Per-connection bookkeeping: reply queue, writer task, HWM gate."""

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        self.replies: "asyncio.Queue[Optional[Tuple[str, float, Any]]]" = \
            asyncio.Queue()
        self.pending = 0
        self.below_hwm = asyncio.Event()
        self.below_hwm.set()
        self.writer_task: Optional[asyncio.Task] = None


class SamplingServer:
    """Serve one sharded sampling service to many concurrent clients.

    Parameters
    ----------
    service:
        The (already built or restored) sharded sampling service.  The
        server owns it from here: it is closed when :meth:`serve` returns.
    token:
        Shared client-authentication token (``str`` or ``bytes``).
    host, port:
        Listen address; port 0 picks a free port (read ``address`` after
        the server is ready).
    state_file:
        Where the drain snapshot is written (atomically).  ``None`` keeps
        the snapshot in memory only (``last_snapshot``).
    queue_cap, connection_hwm, retry_after:
        Backpressure knobs, see the module docstring.
    registry:
        Optional :class:`MetricsRegistry` for server-side telemetry.  The
        operations thread installs it as its active registry, so backend
        instrumentation (worker roundtrips, dispatch fan-out) lands in
        the same registry as the ``serve.*`` counters.
    install_signal_handlers:
        Attach SIGTERM/SIGINT handlers that trigger a drain (the CLI
        path; tests drive :meth:`request_drain` directly).
    """

    def __init__(self, service, token: Union[str, bytes], *,
                 host: str = "127.0.0.1", port: int = 0,
                 state_file: Optional[str] = None,
                 queue_cap: int = DEFAULT_QUEUE_CAP,
                 connection_hwm: int = DEFAULT_CONNECTION_HWM,
                 retry_after: float = DEFAULT_RETRY_AFTER,
                 registry: Optional[MetricsRegistry] = None,
                 install_signal_handlers: bool = False) -> None:
        if queue_cap < 1:
            raise ValueError(f"queue_cap must be >= 1, got {queue_cap}")
        if connection_hwm < 1:
            raise ValueError(
                f"connection_hwm must be >= 1, got {connection_hwm}")
        self._service = service
        self._token = wire.token_bytes(token)
        self._host = host
        self._port = port
        self._state_file = state_file
        self.queue_cap = int(queue_cap)
        self.connection_hwm = int(connection_hwm)
        self.retry_after = float(retry_after)
        self._registry = registry
        self._install_signal_handlers = install_signal_handlers

        # Single operations thread: the determinism root (see module doc).
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-ops",
            initializer=self._ops_thread_init)
        self._inflight = 0
        self._ingested = 0  # elements applied; touched on the ops thread only
        self._draining = False
        self._connections: Set[_Connection] = set()

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._drain_requested: Optional[asyncio.Event] = None
        self._drain_done: Optional[asyncio.Event] = None
        self._drain_report: Optional[Dict[str, Any]] = None

        #: The drain snapshot blob (also kept when ``state_file`` is set).
        self.last_snapshot: Optional[bytes] = None
        #: Concrete ``(host, port)`` once listening.
        self.address: Optional[Tuple[str, int]] = None
        self._ready = threading.Event()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def serve(self) -> Dict[str, Any]:
        """Listen, serve until a drain is requested, drain, and return.

        Returns the drain report (elements processed, state file path,
        snapshot size).
        """
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._drain_requested = asyncio.Event()
        self._drain_done = asyncio.Event()
        if self._install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                loop.add_signal_handler(signum, self.request_drain)
        server = await asyncio.start_server(
            self._handle_connection, self._host, self._port)
        try:
            self.address = server.sockets[0].getsockname()[:2]
            self._ready.set()
            _LOG.info("serving on %s:%d", *self.address)
            await self._drain_requested.wait()

            # -- graceful drain ----------------------------------------- #
            _LOG.info("drain requested; closing listener")
            server.close()
            await server.wait_closed()
            self._draining = True
            # everything already submitted precedes this sentinel on the
            # single ops thread, so awaiting it quiesces the queue
            await loop.run_in_executor(self._executor, lambda: None)
            report = await loop.run_in_executor(
                self._executor, self._drain_snapshot)
            self._drain_report = report
            self._drain_done.set()
            await self._flush_connections()
            _LOG.info("drained: %s", report)
            return report
        finally:
            self._ready.set()
            server.close()
            with contextlib.suppress(Exception):
                await server.wait_closed()
            if self._install_signal_handlers:
                for signum in (signal.SIGTERM, signal.SIGINT):
                    with contextlib.suppress(ValueError, RuntimeError):
                        loop.remove_signal_handler(signum)
            # close() harvests worker telemetry into the ops thread's
            # active registry, so it must run there too
            await loop.run_in_executor(self._executor, self._service.close)
            self._executor.shutdown(wait=True)
            self._loop = None

    def request_drain(self) -> None:
        """Trigger a graceful drain (thread- and signal-safe)."""
        loop = self._loop
        if loop is None or self._drain_requested is None:
            return
        loop.call_soon_threadsafe(self._drain_requested.set)

    def wait_ready(self, timeout: Optional[float] = None) -> bool:
        """Block until the server is listening (or failed to start)."""
        return self._ready.wait(timeout)

    def _ops_thread_init(self) -> None:
        if self._registry is not None:
            telemetry.enable(self._registry)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        if not await protocol.server_handshake(reader, writer, self._token):
            self._count("serve.connections.rejected_auth")
            with contextlib.suppress(Exception):
                writer.close()
            return
        self._count("serve.connections.accepted")
        conn = _Connection(writer)
        self._connections.add(conn)
        self._gauge("serve.connections", len(self._connections))
        conn.writer_task = asyncio.create_task(self._reply_writer(conn))
        try:
            await self._read_loop(reader, conn)
        finally:
            await conn.replies.put(None)
            with contextlib.suppress(asyncio.CancelledError):
                await conn.writer_task
            # a drain may have stopped the writer at an earlier sentinel;
            # finish any operations still queued so their in-flight slots
            # are released and no coroutine is left unawaited
            while True:
                try:
                    item = conn.replies.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if item is not None and isinstance(item[2], Awaitable):
                    with contextlib.suppress(Exception):
                        await item[2]
            self._connections.discard(conn)
            self._gauge("serve.connections", len(self._connections))
            with contextlib.suppress(Exception):
                writer.close()

    async def _read_loop(self, reader: asyncio.StreamReader,
                         conn: _Connection) -> None:
        while True:
            try:
                frame, nbytes = await protocol.read_frame(reader)
            except (asyncio.IncompleteReadError, ConnectionError,
                    ValueError, OSError, EOFError):
                return
            self._count("serve.frames_in")
            self._count("serve.bytes_in", nbytes)
            if (not isinstance(frame, tuple) or len(frame) != 2
                    or not isinstance(frame[0], str)):
                await conn.replies.put(
                    ("malformed", time.perf_counter(),
                     (False, "malformed frame: expected (command, payload)")))
                return
            command, payload = frame
            started = time.perf_counter()
            if command == "close":
                return
            if command == "ping":
                await conn.replies.put(
                    (command, started, (True, {"pong": True})))
            elif command == "drain":
                await conn.replies.put(
                    (command, started, self._drain_reply()))
            elif command == "ingest":
                await self._handle_ingest(conn, payload, started)
            elif command in _QUERY_COMMANDS:
                future = self._executor.submit(
                    self._apply_query, command, payload)
                self._track_inflight(conn, +1)
                await conn.replies.put(
                    (command, started,
                     self._op_reply(future, conn, seq=None)))
            else:
                await conn.replies.put(
                    (command, started,
                     (False, f"unknown command {command!r}")))

    async def _handle_ingest(self, conn: _Connection, payload: Any,
                             started: float) -> None:
        payload = payload if isinstance(payload, dict) else {}
        seq = payload.get("seq")
        if self._draining:
            await conn.replies.put(
                ("ingest", started,
                 (False, {"error": "draining", "seq": seq})))
            return
        if self._inflight >= self.queue_cap:
            self._count("serve.backpressure_rejections")
            await conn.replies.put(
                ("ingest", started,
                 (False, {"error": "backpressure",
                          "retry_after": self.retry_after, "seq": seq})))
            return
        future = self._executor.submit(
            self._apply_ingest, payload.get("ids"),
            bool(payload.get("return_outputs")))
        self._track_inflight(conn, +1)
        await conn.replies.put(
            ("ingest", started, self._op_reply(future, conn, seq=seq)))
        if conn.pending >= self.connection_hwm:
            # pause reading this connection until its pipeline shrinks —
            # TCP flow control takes it from here
            conn.below_hwm.clear()
            await conn.below_hwm.wait()

    async def _op_reply(self, future, conn: _Connection,
                        *, seq) -> Tuple[bool, Any]:
        try:
            result = await asyncio.wrap_future(future)
        except Exception:
            return (False, traceback.format_exc())
        finally:
            self._track_inflight(conn, -1)
        if seq is not None:
            result = dict(result)
            result["seq"] = seq
        return (True, result)

    def _track_inflight(self, conn: _Connection, delta: int) -> None:
        self._inflight += delta
        conn.pending += delta
        if conn.pending < self.connection_hwm:
            conn.below_hwm.set()
        self._gauge("serve.queue_depth", self._inflight)
        if self._registry is not None and delta > 0:
            self._registry.histogram("serve.queue_depth_at_submit",
                                     DEPTH_EDGES).observe(self._inflight)

    async def _reply_writer(self, conn: _Connection) -> None:
        """Write replies strictly in request order (FIFO over the queue).

        After a write failure the writer keeps *consuming* the queue
        (awaiting each pending operation, discarding its reply) until the
        sentinel: the in-flight accounting in :meth:`_op_reply` must keep
        flowing even when the peer is gone, or a read loop paused at the
        high-water mark would never wake.
        """
        broken = False
        while True:
            item = await conn.replies.get()
            if item is None:
                return
            command, started, reply = item
            if isinstance(reply, Awaitable):
                try:
                    reply = await reply
                except Exception:
                    reply = (False, traceback.format_exc())
            if broken:
                continue
            try:
                nbytes = protocol.write_frame(conn.writer, reply)
                await conn.writer.drain()
            except (ConnectionError, OSError):
                broken = True
                continue
            self._count("serve.frames_out")
            self._count("serve.bytes_out", nbytes)
            if self._registry is not None:
                self._registry.histogram(
                    f"serve.request_seconds.{command}",
                    TIME_EDGES).observe(time.perf_counter() - started)

    async def _drain_reply(self) -> Tuple[bool, Any]:
        self.request_drain()
        await self._drain_done.wait()
        return (True, dict(self._drain_report or {}))

    async def _flush_connections(self) -> None:
        """Flush every connection's pending replies, then hang up."""
        for conn in list(self._connections):
            await conn.replies.put(None)
        for conn in list(self._connections):
            if conn.writer_task is not None:
                with contextlib.suppress(asyncio.TimeoutError,
                                         asyncio.CancelledError):
                    await asyncio.wait_for(
                        asyncio.shield(conn.writer_task), timeout=10.0)
            with contextlib.suppress(Exception):
                conn.writer.close()

    # ------------------------------------------------------------------ #
    # Operations (run on the single ops thread)
    # ------------------------------------------------------------------ #
    def _apply_ingest(self, ids, return_outputs: bool) -> Dict[str, Any]:
        array = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        outputs = self._service.on_receive_batch(array)
        self._ingested += int(array.size)
        self._count("serve.ingested_elements", int(array.size))
        result: Dict[str, Any] = {"count": int(array.size)}
        if return_outputs:
            result["outputs"] = [int(value) for value in outputs]
        return result

    def _apply_query(self, command: str, payload: Any) -> Dict[str, Any]:
        payload = payload if isinstance(payload, dict) else {}
        if command == "sample":
            return {"sample": self._service.sample()}
        if command == "sample_many":
            count = int(payload.get("count", 1))
            strict = bool(payload.get("strict", True))
            return {"samples": self._service.sample_many(count,
                                                         strict=strict)}
        if command == "memory":
            return {"memory": list(self._service.merged_memory())}
        if command == "stats":
            return self._stats()
        raise RuntimeError(f"unhandled query {command!r}")

    def _stats(self) -> Dict[str, Any]:
        service = self._service
        loads = [int(load) for load in service.shard_loads()]
        memories = service.shard_memories()
        sizes = [len(shard_memory) for shard_memory in memories]
        memory = [identifier for shard_memory in memories
                  for identifier in shard_memory]
        uniformity = None
        if memory:
            uniformity = float(kl_divergence_to_uniform(
                IdentifierStream(memory, label="serve memory")))
        stats: Dict[str, Any] = {
            "backend": service.backend_name,
            "shards": int(service.shards),
            "elements": sum(loads),
            "ingested": self._ingested,
            "shard_loads": loads,
            "memory_sizes": sizes,
            "memory_total": sum(sizes),
            "memory_kl_to_uniform": uniformity,
            "draining": self._draining,
            "connections": len(self._connections),
            # this stats request is itself in flight; don't report it
            "inflight": max(0, self._inflight - 1),
            "placement": service.placement_info(),
        }
        if self._registry is not None:
            stats["telemetry"] = self._registry.snapshot()
        return stats

    def _drain_snapshot(self) -> Dict[str, Any]:
        # shard migrations / autoscaling actions started before the drain
        # must finish before the snapshot, or it could capture a shard
        # mid-move
        self._service.wait_placement_idle()
        blob = self._service.snapshot()
        self.last_snapshot = blob
        if self._state_file:
            tmp = f"{self._state_file}.tmp"
            with open(tmp, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, self._state_file)
        return {
            "elements": self._ingested,
            "total_elements": int(self._service.elements_processed),
            "state_file": self._state_file,
            "snapshot_bytes": len(blob),
        }

    # ------------------------------------------------------------------ #
    # Telemetry helpers (event-loop thread; direct registry reference)
    # ------------------------------------------------------------------ #
    def _count(self, name: str, amount: int = 1) -> None:
        if self._registry is not None:
            self._registry.counter(name).inc(amount)

    def _gauge(self, name: str, value) -> None:
        if self._registry is not None:
            self._registry.gauge(name).set(value)


class ServerThread:
    """Run a :class:`SamplingServer` on a background thread (tests, tools).

    ``start()`` blocks until the server is listening and returns its
    concrete address; ``drain()`` triggers a graceful drain and joins the
    thread.  Usable as a context manager (draining on exit).
    """

    def __init__(self, service, token: Union[str, bytes], **kwargs) -> None:
        self.server = SamplingServer(service, token, **kwargs)
        self.error: Optional[BaseException] = None
        self.report: Optional[Dict[str, Any]] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True)

    def _run(self) -> None:
        try:
            self.report = asyncio.run(self.server.serve())
        except BaseException as error:  # surfaced by start()/drain()
            self.error = error
        finally:
            self.server._ready.set()

    def start(self, timeout: float = 30.0) -> Tuple[str, int]:
        self._thread.start()
        if not self.server.wait_ready(timeout):
            raise TimeoutError("serve thread did not become ready")
        if self.error is not None:
            raise RuntimeError("serve thread failed to start") \
                from self.error
        if self.server.address is None:
            raise RuntimeError("serve thread exited before listening") \
                from self.error
        return self.server.address

    def drain(self, timeout: float = 60.0) -> Dict[str, Any]:
        self.server.request_drain()
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise TimeoutError("serve thread did not drain in time")
        if self.error is not None:
            raise RuntimeError("serve thread crashed") from self.error
        return self.report or {}

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._thread.is_alive():
            self.drain()
