"""Pluggable execution backends of the sharded sampling service.

* :mod:`repro.engine.backends.base` — the :class:`ExecutionBackend`
  contract, the supervised :class:`WorkerPoolBackend` (requests, crash
  re-spawn via snapshot + bounded replay, teardown), the worker session
  loop, the :func:`make_backend` resolver and
  :func:`check_backend_options`, the one statement of which backend takes
  which option;
* :mod:`repro.engine.backends.serial` — every shard in the calling process
  (the original behaviour, bit-identical);
* :mod:`repro.engine.backends.process` — shard groups in forked worker
  processes fed through shared-memory rings, bit-identical to serial per
  master seed;
* :mod:`repro.engine.backends.socket` — shard groups behind authenticated
  TCP connections (local supervised workers or remote ``repro worker
  serve`` endpoints), bit-identical to serial per master seed;
* :mod:`repro.engine.backends.wire` — the frame and handshake codec every
  worker channel and the ``repro serve`` protocol share.

The contract reads each sampler quantity one way: every draw goes through
``sample_many``, every load is the backend's count of collected elements
(``shard_loads``: no round trip, no drain), and memory is one per-shard
query (``shard_memories``).
"""

from repro.engine.backends.base import (
    BACKENDS,
    AuthenticationError,
    BackendError,
    BackendOptionError,
    DispatchTicket,
    ExecutionBackend,
    WorkerCrashError,
    WorkerPoolBackend,
    WorkerTimeoutError,
    check_backend_options,
    make_backend,
)
from repro.engine.placement import ShardPlacement
from repro.engine.backends.process import ProcessBackend
from repro.engine.backends.serial import SerialBackend
from repro.engine.backends.shm import ShmRing, ShmRingView, \
    shared_memory_available
from repro.engine.backends.socket import SocketBackend, WorkerServer
from repro.engine.backends.wire import load_auth_token, parse_endpoint

__all__ = [
    "BACKENDS",
    "AuthenticationError",
    "BackendError",
    "BackendOptionError",
    "DispatchTicket",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "ShardPlacement",
    "ShmRing",
    "ShmRingView",
    "SocketBackend",
    "WorkerCrashError",
    "WorkerPoolBackend",
    "WorkerServer",
    "WorkerTimeoutError",
    "check_backend_options",
    "load_auth_token",
    "make_backend",
    "parse_endpoint",
    "shared_memory_available",
]
