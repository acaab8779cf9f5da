"""Tests for the shared-memory ring (repro.engine.backends.shm).

No execution backend uses the ring: the process backend sends every
sub-chunk in a pickled frame.  The module stays for the benchmark's layer
tracer, so the ring's own guarantees stay under test: staged arrays read
back unchanged on both sides, slots cycle FIFO and fail closed when
exhausted or outgrown, and ``destroy`` unlinks the segment from
``/dev/shm``.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.engine.backends.shm import (
    ShmRing,
    ShmRingView,
    packed_size,
    shared_memory_available,
)

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable on this host")

SHM_DIR = Path("/dev/shm")

#: Prefix of the segments these tests name.
RING_NAME_PREFIX = "repro-ring"


def _ring_segments():
    """Names of this process's ring segments still present in /dev/shm."""
    if not SHM_DIR.is_dir():
        pytest.skip("host exposes no /dev/shm to inspect")
    prefix = f"{RING_NAME_PREFIX}-{os.getpid()}-"
    return sorted(path.name for path in SHM_DIR.iterdir()
                  if path.name.startswith(prefix))


class TestShmRing:
    def test_stage_and_read_roundtrip(self):
        ring = ShmRing(slots=2, slot_bytes=4096)
        try:
            arrays = {0: np.arange(10, dtype=np.int64),
                      2: np.arange(100, 117, dtype=np.int64)}
            header = ring.try_stage(arrays)
            assert header is not None
            assert sorted(shard for shard, _, _ in header["entries"]) == [0, 2]
            view = ShmRingView(*ring.spec())
            try:
                seen = view.read_in(header["slot"], header["entries"],
                                    header["dtype"])
                for shard, array in arrays.items():
                    assert np.array_equal(seen[shard], array)
                replies = {shard: array * 2 for shard, array in seen.items()}
                entries = view.try_write_out(header["slot"], replies)
                assert entries is not None
                out = ring.read_out(header["slot"], entries)
                for shard, array in arrays.items():
                    assert np.array_equal(out[shard], array * 2)
            finally:
                view.close()
        finally:
            ring.destroy()

    def test_wrap_around_cycles_every_slot(self):
        """Stage/release past the ring size revisits slots FIFO."""
        ring = ShmRing(slots=3, slot_bytes=1024)
        try:
            slots = []
            for _ in range(8):
                header = ring.try_stage({0: np.arange(4, dtype=np.int64)})
                slots.append(header["slot"])
                ring.release(header["slot"])
            assert slots == [0, 1, 2, 0, 1, 2, 0, 1]
        finally:
            ring.destroy()

    def test_stage_fails_closed_when_exhausted_or_oversized(self):
        ring = ShmRing(slots=1, slot_bytes=128)
        try:
            good = {0: np.arange(4, dtype=np.int64)}
            assert ring.try_stage({0: np.arange(64, dtype=np.int64)}) is None
            header = ring.try_stage(good)
            assert header is not None
            assert ring.try_stage(good) is None  # no free slot
            ring.release(header["slot"])
            assert ring.try_stage(good) is not None
            # mixed dtypes stay on the pickle path
            ring.release(0)
            assert ring.try_stage({0: np.arange(2, dtype=np.int64),
                                   1: np.arange(2, dtype=np.int32)}) is None
        finally:
            ring.destroy()

    def test_release_validates_and_is_idempotent(self):
        ring = ShmRing(slots=2, slot_bytes=128)
        try:
            with pytest.raises(ValueError, match="out of range"):
                ring.release(2)
            header = ring.try_stage({0: np.arange(2, dtype=np.int64)})
            ring.release(header["slot"])
            ring.release(header["slot"])  # double release is a no-op
            assert ring.free_slots == 2
        finally:
            ring.destroy()

    def test_geometry_validation(self):
        with pytest.raises(ValueError, match="slots must be positive"):
            ShmRing(slots=0)
        with pytest.raises(ValueError, match="slot_bytes must be at least"):
            ShmRing(slot_bytes=8)

    def test_packed_size_is_alignment_aware(self):
        a = np.arange(3, dtype=np.int64)   # 24 bytes -> padded to 64
        b = np.arange(2, dtype=np.int64)   # 16 bytes
        assert packed_size([a]) == 24
        assert packed_size([a, b]) == 64 + 16

    def test_destroy_unlinks_the_segment_and_is_idempotent(self):
        ring = ShmRing(slots=1, slot_bytes=128,
                       name=f"{RING_NAME_PREFIX}-{os.getpid()}-t-deadbeef")
        assert _ring_segments() == [ring.name]
        ring.destroy()
        assert _ring_segments() == []
        ring.destroy()  # second destroy must not raise
        assert ring.try_stage({0: np.arange(2, dtype=np.int64)}) is None
