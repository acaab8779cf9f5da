"""Outside-in layer spans for the traced benchmark run.

:class:`LayerTracer` wraps public functions of each layer of ``repro`` with
timing shims that record into the active telemetry registry
(:func:`repro.telemetry.runtime.active`).  Nothing under ``src/`` changes:
the shims are installed on the classes from here, before the service is
built, so fork-started process and socket workers inherit them, and the
worker-side counters come back through the existing ``telemetry`` worker
command when the service is closed.

Every span keeps a per-thread stack, so each call records both its total
time and its *self* time (total minus the time of wrapped calls nested in
it).  Counters are named ``trace.<layer>.{total_s,self_s,calls}``.  With no
active registry a shim is a single ``is None`` check and a call-through, so
installing the tracer in a process that records nothing costs almost
nothing.
"""

from __future__ import annotations

import functools
import threading
import time
import weakref
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.telemetry import runtime as telemetry


class LayerTracer:
    """Install and remove timing shims around the layers' public calls."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._patched: List[tuple] = []
        #: Raw durations (seconds) of ``SamplerView.memory`` in this process.
        self.view_reads: List[float] = []
        self._tickets: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def install(self) -> None:
        """Wrap every traced layer function (idempotent)."""
        if self._patched:
            return
        from repro.adversary.adaptive import AdaptiveStreamSource, \
            EclipseAttack
        from repro.adversary.view import SamplerView
        from repro.core.knowledge_free import KnowledgeFreeStrategy
        from repro.engine.backends.base import WorkerPoolBackend
        from repro.engine.backends.serial import SerialBackend
        from repro.engine.backends.shm import ShmRing
        from repro.engine.sharded import ShardedSamplingService
        from repro.sketches.count_min import CountMinSketch

        self._span(ShardedSamplingService, "on_receive_batch",
                   "engine.partition")
        self._span(ShardedSamplingService, "begin_batch", "engine.partition")
        self._span(SerialBackend, "dispatch", "backend.dispatch")
        self._span(WorkerPoolBackend, "dispatch_begin", "backend.stage",
                   after=self._remember_ticket)
        self._span(WorkerPoolBackend, "dispatch_finish", "backend.wait")
        self._span(KnowledgeFreeStrategy, "process_batch",
                   "kernel.process_batch")
        self._span(CountMinSketch, "hash_columns", "kernel.hash")
        self._span(CountMinSketch, "export_rows", "kernel.rows_io")
        self._span(CountMinSketch, "import_rows", "kernel.rows_io")
        self._span(AdaptiveStreamSource, "next_chunk", "stream.next_chunk")
        self._span(EclipseAttack, "schedule", "adversary.schedule")
        self._span(SamplerView, "memory", "adversary.view_read",
                   samples=self.view_reads)
        self._span(ShmRing, "try_stage", "backend.shm_stage",
                   after=self._count_staged)
        self._wrap_drain(WorkerPoolBackend)

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _frames(self) -> List[float]:
        frames = getattr(self._local, "frames", None)
        if frames is None:
            frames = self._local.frames = []
        return frames

    def _span(self, owner, attr: str, name: str, *,
              samples: Optional[List[float]] = None, after=None) -> None:
        original = owner.__dict__[attr]
        span = self.span

        @functools.wraps(original)
        def shim(*args, **kwargs):
            reg = telemetry.active()
            if reg is None:
                return original(*args, **kwargs)
            with span(name, samples):
                result = original(*args, **kwargs)
            if after is not None:
                after(reg, args[0], result)
            return result

        setattr(owner, attr, shim)
        self._patched.append((owner, attr, original))

    def _wrap_drain(self, owner) -> None:
        """Count ``drain_pipeline`` calls that find a dispatch in flight."""
        original = owner.__dict__["drain_pipeline"]
        tickets = self._tickets

        @functools.wraps(original)
        def shim(backend):
            reg = telemetry.active()
            pending = tickets.get(backend)
            if reg is not None and pending and any(
                    not ticket.collected for ticket in pending):
                reg.counter("trace.backend.pipeline_drains").inc()
            return original(backend)

        setattr(owner, "drain_pipeline", shim)
        self._patched.append((owner, "drain_pipeline", original))

    # ------------------------------------------------------------------ #
    # Counters at layer boundaries
    # ------------------------------------------------------------------ #
    def _remember_ticket(self, reg, backend, ticket) -> None:
        pending = self._tickets.setdefault(backend, [])
        pending[:] = [item for item in pending if not item.collected]
        pending.append(ticket)

    @staticmethod
    def _count_staged(reg, ring, staged) -> None:
        if staged is not None:
            reg.counter("trace.shm.staged").inc()

    @contextmanager
    def span(self, name: str, samples: Optional[List[float]] = None):
        """Time a block as span ``name``: total, self time and calls.

        The benchmark uses it directly for the root span around
        ``run_stream``; the shims use it around each wrapped call.
        """
        reg = telemetry.active()
        if reg is None:
            yield
            return
        frames = self._frames()
        frames.append(0.0)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            children = frames.pop()
            if frames:
                frames[-1] += elapsed
            reg.counter(f"trace.{name}.total_s").inc(elapsed)
            reg.counter(f"trace.{name}.self_s").inc(elapsed - children)
            reg.counter(f"trace.{name}.calls").inc()
            if samples is not None:
                samples.append(elapsed)


def counter(snapshot: Dict, name: str) -> float:
    """Value of a counter in a registry snapshot (0 when never touched)."""
    return float(snapshot.get("counters", {}).get(name, 0.0))


def histogram(snapshot: Dict, name: str) -> Dict:
    """A histogram of a registry snapshot (an empty one when absent)."""
    return snapshot.get("histograms", {}).get(
        name, {"sum": 0.0, "count": 0, "mean": 0.0})
