"""Network-transparent execution backend: shard groups behind TCP sockets.

One sampler ensemble can span hosts: each worker of the pool is a TCP
connection carrying the shared frame codec of
:mod:`~repro.engine.backends.wire`, authenticated with a mutual HMAC
challenge–response over a shared token before either side deserialises a
single pickle frame.

* **Worker server** — :class:`WorkerServer` (the ``repro worker serve``
  CLI subcommand) listens on ``host:port`` and serves each authenticated
  connection as one shard-group worker through the same session loop the
  process backend's workers run
  (:func:`~repro.engine.backends.base.serve_session`), so outputs, merged
  memory, loads and samples stay bit-identical to the serial backend per
  master seed.
* **Supervision** — inherited from
  :class:`~repro.engine.backends.base.WorkerPoolBackend`: when a worker
  connection dies, the pool re-spawns/reconnects it and rebuilds its shards
  from the last state snapshot plus a bounded journal replay.

Two deployment modes:

* **local** (no ``endpoints``): the backend spawns one supervised worker
  process per worker slot, each running a :class:`WorkerServer` on a
  loopback port, generates an ephemeral auth token, and re-spawns a worker
  process that dies.  This is the zero-configuration mode the tests,
  benchmarks and CI smoke runs use.
* **remote** (``endpoints`` given): the backend connects to already-running
  ``repro worker serve`` instances (round-robin over the endpoint list) and
  authenticates with the shared token.  On a dropped connection it
  reconnects to the same endpoint with backoff and rebuilds state there;
  if the endpoint stays unreachable the failure surfaces as
  :class:`~repro.engine.backends.base.WorkerCrashError` after a bounded
  number of attempts.
"""

from __future__ import annotations

import secrets
import selectors
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.backends import wire
from repro.engine.backends.base import (
    ShardFactory,
    WorkerCrashError,
    WorkerPoolBackend,
    check_backend_options,
    reset_signal_handlers,
    serve_session,
)

__all__ = ["SocketBackend", "WorkerServer"]

#: Seconds granted to the TCP connect + auth handshake.
_CONNECT_TIMEOUT = 10.0

#: Seconds granted to a freshly spawned local worker to report its port.
_LOCAL_SPAWN_TIMEOUT = 30.0


# --------------------------------------------------------------------- #
# Worker (server) side
# --------------------------------------------------------------------- #
class WorkerServer:
    """TCP server hosting shard workers: ``repro worker serve`` and each
    local worker process of a :class:`SocketBackend` run one.

    Each authenticated connection becomes one shard-group worker, served in
    its own daemon thread, so one server can host every worker of a backend
    (or several backends at once).  The server binds immediately —
    ``address`` is the concrete ``(host, port)`` even when port 0 asked for
    an ephemeral one.
    """

    def __init__(self, host: str, port: int, token: Union[str, bytes], *,
                 backlog: int = 16) -> None:
        self._token = wire.token_bytes(token)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(backlog)
        self._shutdown = threading.Event()
        # Self-pipe: close() writes one byte so a serve_forever blocked in
        # select() wakes immediately.  Closing the listener alone does not
        # reliably interrupt a poll on its fd, so without the wakeup pair a
        # close() racing an in-flight accept wait would only take effect
        # after the full poll_interval.
        self._wakeup_recv, self._wakeup_send = socket.socketpair()
        self._serving = False
        # live worker sessions, tracked so drain() can wait them out (and
        # force-close stragglers) before the process exits
        self._sessions_lock = threading.Lock()
        self._sessions: List[Tuple[threading.Thread, socket.socket]] = []
        self.address: Tuple[str, int] = self._listener.getsockname()[:2]

    def serve_forever(self, *, poll_interval: float = 0.5) -> None:
        """Accept and serve connections until :meth:`close` is called.

        ``poll_interval`` is a liveness fallback only: :meth:`close` from
        another thread wakes the loop through the internal wakeup socket, so
        shutdown latency does not depend on it.
        """
        self._serving = True
        try:
            with selectors.DefaultSelector() as selector:
                try:
                    selector.register(self._listener, selectors.EVENT_READ)
                    selector.register(self._wakeup_recv,
                                      selectors.EVENT_READ)
                except (OSError, ValueError):
                    # close() already released the sockets
                    return
                while not self._shutdown.is_set():
                    try:
                        events = selector.select(poll_interval)
                    except (OSError, ValueError):
                        return
                    for key, _ in events:
                        if key.fileobj is self._wakeup_recv:
                            return
                        try:
                            connection, _ = self._listener.accept()
                        except (BlockingIOError, OSError):
                            # a queued peer vanished, or close() raced us
                            # and released the listener
                            if self._shutdown.is_set():
                                return
                            continue
                        connection.setsockopt(socket.IPPROTO_TCP,
                                              socket.TCP_NODELAY, 1)
                        thread = threading.Thread(
                            target=self._serve_connection,
                            args=(connection,),
                            daemon=True, name="repro-socket-worker")
                        with self._sessions_lock:
                            self._sessions = [
                                (live, conn) for live, conn in self._sessions
                                if live.is_alive()]
                            self._sessions.append((thread, connection))
                        thread.start()
        finally:
            self._serving = False
            try:
                self._wakeup_recv.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def _serve_connection(self, connection: socket.socket) -> None:
        """Serve one authenticated worker session until the peer disconnects.

        The session opens with the server side of the mutual handshake (raw
        frames only; nothing is unpickled before the peer proves token
        knowledge, and an unauthenticated peer learns nothing, not even an
        error), then runs :func:`~repro.engine.backends.base.serve_session`.
        """
        deadline = time.monotonic() + wire.HANDSHAKE_TIMEOUT
        with connection:
            try:
                client_nonce = wire.recv_raw_frame(
                    connection, deadline=deadline,
                    limit=wire.MAX_HANDSHAKE_FRAME)
                challenge = wire.server_challenge(self._token, client_nonce)
                if challenge is None:
                    return
                server_nonce, frame = challenge
                wire.send_raw_frame(connection, frame, deadline=deadline)
                client_mac = wire.recv_raw_frame(
                    connection, deadline=deadline,
                    limit=wire.MAX_HANDSHAKE_FRAME)
                if not wire.server_verify(self._token, client_nonce,
                                          server_nonce, client_mac):
                    return
                wire.send_frame(connection, (True, "ok"))
            except (wire.ConnectionLost, wire.DeadlineExceeded, OSError):
                return
            serve_session(connection)

    def close(self) -> None:
        """Stop accepting connections and release the listening socket.

        Thread-safe and prompt: a serve_forever loop blocked waiting for a
        connection is woken through the wakeup socket instead of waiting out
        its ``poll_interval``.
        """
        self._shutdown.set()
        try:
            self._wakeup_send.send(b"\0")
        except OSError:  # pragma: no cover - already closed
            pass
        # the receive end stays open while a serve loop runs: its selector
        # registration must survive until the loop reads the wakeup event,
        # or the event could be discarded and the loop would wait out its
        # poll_interval after all (the loop closes the socket on exit)
        to_close = [self._listener, self._wakeup_send]
        if not self._serving:
            to_close.append(self._wakeup_recv)
        for sock in to_close:
            try:
                sock.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def drain(self, timeout: float = 30.0) -> None:
        """Wait for in-flight worker sessions to finish, then return.

        Called after :meth:`close` by the ``repro worker serve`` SIGTERM
        path, so a docker-compose scale-down lets parents finish (or fail
        over) their running sessions before the host exits.  Sessions still
        alive when the budget runs out get their connections force-closed —
        the parent-side supervisor treats that like any other connection
        loss and recovers onto another worker.
        """
        deadline = time.monotonic() + timeout
        with self._sessions_lock:
            pending = list(self._sessions)
            self._sessions = []
        for thread, connection in pending:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                try:
                    connection.close()
                except OSError:  # pragma: no cover - already closed
                    pass
                thread.join(timeout=1.0)

    def __enter__(self) -> "WorkerServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _local_worker_main(token: bytes, report) -> None:
    """Entry point of one supervised local worker process.

    Serves on an ephemeral loopback port and reports its address through
    ``report``; killing the process kills the worker, which is what the
    supervisor's re-spawn tests rely on.
    """
    reset_signal_handlers()
    server = WorkerServer("127.0.0.1", 0, token)
    report.send(server.address)
    report.close()
    server.serve_forever()


# --------------------------------------------------------------------- #
# Parent (client) side
# --------------------------------------------------------------------- #
class SocketBackend(WorkerPoolBackend):
    """Runs shard groups behind authenticated TCP worker connections.

    Parameters
    ----------
    workers:
        Number of worker connections; defaults to ``min(shards, cpu_count)``
        and is clamped to ``shards``.
    endpoints:
        ``host:port`` strings (or ``(host, port)`` pairs) of running
        ``repro worker serve`` instances, assigned round-robin to workers.
        ``None`` (default) spawns supervised worker processes on loopback.
    auth_token:
        Shared secret both sides prove knowledge of during the connect
        handshake (never transmitted).  Required with ``endpoints``;
        generated ephemerally in local mode when omitted.
    """

    name = "socket"

    def __init__(self, shards: int, shard_factory: ShardFactory,
                 shard_rngs: Sequence[np.random.Generator], *,
                 workers: Optional[int] = None,
                 endpoints: Optional[Sequence] = None,
                 auth_token: Optional[Union[str, bytes]] = None) -> None:
        check_backend_options(self.name, endpoints=endpoints,
                              auth_token=auth_token)
        super().__init__(shards, shard_factory, shard_rngs, workers=workers)
        self._local = endpoints is None
        self._endpoint_pool = [wire.parse_endpoint(endpoint)
                               for endpoint in endpoints or ()]
        self._token = wire.token_bytes(
            secrets.token_hex(32) if auth_token is None else auth_token)
        self._start_pool()

    def _spawn_local(self, worker: int) -> Tuple[str, int]:
        """Start the supervised local process of one worker slot.

        Returns the ephemeral endpoint the process reports it listens on.
        """
        receive_end, send_end = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_local_worker_main,
            args=(self._token, send_end),
            daemon=True,
            name=f"repro-socket-worker-{worker}",
        )
        process.start()
        send_end.close()
        self._processes[worker] = process
        try:
            if not receive_end.poll(_LOCAL_SPAWN_TIMEOUT):
                raise WorkerCrashError(
                    f"local socket worker {worker} did not report its port "
                    f"within {_LOCAL_SPAWN_TIMEOUT:.0f}s")
            return tuple(receive_end.recv())
        except (EOFError, OSError) as error:
            raise WorkerCrashError(
                f"local socket worker {worker} died while binding its "
                f"port: {error}") from error
        finally:
            receive_end.close()

    def _launch(self, worker: int, start: Dict[str, Any]) -> socket.socket:
        """Connect, authenticate, and send one worker its ``start``.

        Mutual authentication: the endpoint must prove knowledge of the
        shared token before this side deserialises anything it sends — a
        mistyped endpoint or a port squatter surfaces as
        :class:`AuthenticationError`, not as a pickle of attacker-controlled
        bytes.
        """
        if self._local:
            host, port = self._spawn_local(worker)
        else:
            host, port = self._endpoint_pool[worker
                                             % len(self._endpoint_pool)]
        connection = socket.create_connection((host, port),
                                              timeout=_CONNECT_TIMEOUT)
        try:
            connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            wire.client_handshake(connection, self._token,
                                  timeout=_CONNECT_TIMEOUT,
                                  peer=f"worker endpoint {host}:{port}")
            wire.send_frame(connection, ("start", start),
                            deadline=time.monotonic() + _CONNECT_TIMEOUT)
        except BaseException:
            connection.close()
            raise
        return connection
