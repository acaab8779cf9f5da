"""Shared-memory ring buffers: the process backend's zero-copy data path.

A pickled frame carries every hash-partitioned sub-chunk through the worker
channel — one full copy on each side of the fork.  This module provides the
alternative the process backend uses by default: a per-worker ring of
fixed-size slots in a ``multiprocessing.shared_memory`` segment.  The
parent stages each worker's sub-chunk arrays directly into a free slot and
sends only a small header (slot, offsets, lengths, dtype, sequence number)
over the worker's channel; the worker reconstructs ``np.ndarray`` views
over the same pages with zero copies and writes its result arrays into the
slot's paired output region the same way.  A worker re-forked after a
crash attaches to the same segment, so re-sent headers stay valid.

Layout of one segment (sized ``2 * slots * slot_bytes``)::

    [ in slot 0 | in slot 1 | ... | out slot 0 | out slot 1 | ... ]

Slot ``i``'s input region starts at ``i * slot_bytes``; its output region
at ``(slots + i) * slot_bytes``.  Input and output never share bytes, so a
worker may build its reply while the parent still holds views into the
request (it does not today, but the layout keeps the invariant cheap).
Within a region, arrays are packed back to back at 64-byte aligned offsets
(cache-line aligned, and comfortably aligned for any NumPy dtype).

Slot accounting lives entirely in the parent: a slot is acquired when a
dispatch stages into it and released when that dispatch's reply has been
scattered.  With pipelined dispatch the ring therefore provides natural
backpressure — no free slot means the oldest in-flight dispatch must be
collected first (or the dispatch transparently falls back to pickle).

Ownership: the parent creates and unlinks every segment; workers attach and
close only (see :func:`attach_segment` on why that needs no resource-tracker
fiddling).  Should the parent die without cleanup (``kill -9``), the
surviving resource tracker unlinks the registered segments itself — nothing
leaks in ``/dev/shm`` on any exit path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

try:  # pragma: no cover - exercised via shared_memory_available()
    from multiprocessing import shared_memory
except ImportError:  # pragma: no cover - platform without shm support
    shared_memory = None

__all__ = [
    "DEFAULT_RING_SLOTS",
    "DEFAULT_SLOT_BYTES",
    "MIN_SHM_BYTES",
    "ShmRing",
    "ShmRingView",
    "shared_memory_available",
]

#: Slots per worker ring.  Two would satisfy double-buffered dispatch; four
#: leaves headroom for a dispatch whose reply is collected late.
DEFAULT_RING_SLOTS = 4

#: Bytes per slot region.  1 MiB holds a full default chunk (8192 int64
#: identifiers = 64 KiB) with a wide margin for larger batch sizes.
DEFAULT_SLOT_BYTES = 1 << 20

#: Sub-chunks smaller than this stay on the pickle path: below a couple of
#: KiB the pickle copy is cheaper than the shared-memory bookkeeping.
MIN_SHM_BYTES = 2048

#: Byte alignment of every staged array (cache line; superset of any NumPy
#: dtype's natural alignment).
_ALIGN = 64


def shared_memory_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` is usable on this host."""
    if shared_memory is None:
        return False
    try:
        probe = shared_memory.SharedMemory(create=True, size=_ALIGN)
    except (OSError, ValueError):  # pragma: no cover - no /dev/shm
        return False
    try:
        probe.close()
        probe.unlink()
    except OSError:  # pragma: no cover - already gone
        pass
    return True


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def attach_segment(name: str):
    """Attach an existing segment created by the parent process.

    The attach re-registers the name with the resource tracker, but worker
    processes share the parent's tracker (the fd is inherited under both
    ``fork`` and ``spawn``), whose cache is a set — the duplicate is a
    no-op, and the parent's close/unlink keeps the single registration
    accurate.  Sending an ``unregister`` here instead would delete the
    parent's entry and break its cleanup, so deliberately: no tracker
    fiddling.
    """
    return shared_memory.SharedMemory(name=name)


def packed_size(arrays: Sequence[np.ndarray]) -> int:
    """Bytes the arrays occupy in a region, alignment padding included."""
    offset = 0
    for array in arrays:
        offset = _aligned(offset) + array.nbytes
    return offset


class ShmRing:
    """Parent-side ring of staging slots in one shared-memory segment.

    Parameters
    ----------
    slots, slot_bytes:
        Ring geometry; the segment is sized ``2 * slots * slot_bytes``
        (input and output regions per slot).
    name:
        Optional explicit segment name (else the platform picks one).
    """

    def __init__(self, slots: int = DEFAULT_RING_SLOTS,
                 slot_bytes: int = DEFAULT_SLOT_BYTES, *,
                 name: Optional[str] = None) -> None:
        if slots <= 0:
            raise ValueError(f"slots must be positive, got {slots}")
        if slot_bytes < _ALIGN:
            raise ValueError(
                f"slot_bytes must be at least {_ALIGN}, got {slot_bytes}")
        self.slots = int(slots)
        self.slot_bytes = int(slot_bytes)
        self._segment = shared_memory.SharedMemory(
            create=True, name=name, size=2 * self.slots * self.slot_bytes)
        self._free: List[int] = list(range(self.slots))
        self._closed = False

    @property
    def name(self) -> str:
        """Segment name (``/dev/shm/<name>`` on Linux)."""
        return self._segment.name

    @property
    def free_slots(self) -> int:
        return len(self._free)

    def spec(self) -> Tuple[str, int, int]:
        """``(name, slots, slot_bytes)`` — what a worker needs to attach."""
        return (self.name, self.slots, self.slot_bytes)

    # ------------------------------------------------------------------ #
    # Staging (parent → worker)
    # ------------------------------------------------------------------ #
    def try_stage(self, arrays: Dict[int, np.ndarray]
                  ) -> Optional[Dict[str, object]]:
        """Stage one dispatch's sub-chunk arrays into a free slot.

        Returns the header to send over the command channel —
        ``{"slot", "entries": [(shard, offset, count)], "dtype"}`` with
        offsets relative to the slot's input region — or ``None`` when the
        payload does not fit (oversized, or no free slot), in which case
        the caller falls back to the pickle path.  All arrays must share
        one dtype (the stream's identifier arrays are int64).
        """
        if self._closed or not self._free:
            return None
        ordered = sorted(arrays)
        if packed_size([arrays[shard] for shard in ordered]) > self.slot_bytes:
            return None
        dtype = arrays[ordered[0]].dtype
        if any(arrays[shard].dtype != dtype for shard in ordered[1:]):
            return None
        slot = self._free.pop(0)
        base = slot * self.slot_bytes
        offset = 0
        entries: List[Tuple[int, int, int]] = []
        buffer = self._segment.buf
        for shard in ordered:
            array = np.ascontiguousarray(arrays[shard])
            offset = _aligned(offset)
            view = np.ndarray(array.shape, dtype=dtype, buffer=buffer,
                              offset=base + offset)
            view[:] = array
            entries.append((int(shard), offset, int(array.size)))
            offset += array.nbytes
        return {"slot": slot, "entries": entries, "dtype": dtype.str}

    # ------------------------------------------------------------------ #
    # Collection (worker → parent)
    # ------------------------------------------------------------------ #
    def read_out(self, slot: int, entries: Sequence[Tuple[int, int, int, str]]
                 ) -> Dict[int, np.ndarray]:
        """Views over the reply arrays a worker wrote to a slot's out region.

        The views alias the ring — the caller must scatter (copy) them
        before :meth:`release` hands the slot to a later dispatch.
        """
        base = (self.slots + slot) * self.slot_bytes
        buffer = self._segment.buf
        return {int(shard): np.ndarray((count,), dtype=np.dtype(dtype),
                                       buffer=buffer, offset=base + offset)
                for shard, offset, count, dtype in entries}

    def release(self, slot: int) -> None:
        """Return a slot to the free list (its reply has been consumed)."""
        if not 0 <= slot < self.slots:
            raise ValueError(f"slot {slot} out of range 0..{self.slots - 1}")
        if slot not in self._free:
            self._free.append(slot)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def destroy(self) -> None:
        """Close and unlink the segment; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._free = []
        try:
            self._segment.close()
        except (OSError, BufferError):  # pragma: no cover - exported views
            pass
        try:
            self._segment.unlink()
        except (FileNotFoundError, OSError):  # pragma: no cover
            pass


class ShmRingView:
    """Worker-side attachment to a parent's :class:`ShmRing` segment."""

    def __init__(self, name: str, slots: int, slot_bytes: int) -> None:
        self.slots = int(slots)
        self.slot_bytes = int(slot_bytes)
        self._segment = attach_segment(name)

    def read_in(self, slot: int, entries: Sequence[Tuple[int, int, int]],
                dtype: str) -> Dict[int, np.ndarray]:
        """Zero-copy views over the sub-chunk arrays staged into a slot."""
        base = slot * self.slot_bytes
        buffer = self._segment.buf
        kind = np.dtype(dtype)
        return {int(shard): np.ndarray((count,), dtype=kind, buffer=buffer,
                                       offset=base + offset)
                for shard, offset, count in entries}

    def try_write_out(self, slot: int, arrays: Dict[int, np.ndarray]
                      ) -> Optional[List[Tuple[int, int, int, str]]]:
        """Write reply arrays into a slot's out region.

        Returns the reply entries ``[(shard, offset, count, dtype)]`` or
        ``None`` when the arrays do not fit (the worker then inlines the
        reply in the pickle stream instead).
        """
        ordered = sorted(arrays)
        packed = [np.ascontiguousarray(np.asarray(arrays[shard]))
                  for shard in ordered]
        if packed_size(packed) > self.slot_bytes:
            return None
        base = (self.slots + slot) * self.slot_bytes
        buffer = self._segment.buf
        offset = 0
        entries: List[Tuple[int, int, int, str]] = []
        for shard, array in zip(ordered, packed):
            offset = _aligned(offset)
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=buffer,
                              offset=base + offset)
            view[:] = array
            entries.append((int(shard), offset, int(array.size),
                            array.dtype.str))
            offset += array.nbytes
        return entries

    def close(self) -> None:
        """Detach from the segment (the parent owns the unlink)."""
        try:
            self._segment.close()
        except (OSError, BufferError):  # pragma: no cover
            pass
