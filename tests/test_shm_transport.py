"""Tests for the zero-copy shared-memory transport (repro.engine.backends.shm).

The guarantees under test: the process backend stages chunk payloads into
per-worker shared-memory rings and is bit-identical to both its pickled-frame
fallback and the serial backend per master seed; the fallback matrix (no
shared memory on the host, sub-chunks below the cutoff, payloads that
outgrow a slot, protocol desync) always lands on a correct pickle path; a
worker killed with a pipelined shared-memory dispatch in flight is re-forked
onto the same ring and replayed bit-identically; and every ring segment is
unlinked from ``/dev/shm`` on every exit path — clean close, worker crash,
startup failure and ``kill -9``.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.engine import (
    ShardedSamplingService,
    WorkerCrashError,
    make_backend,
    run_stream,
)
from repro.engine.backends import shm as shm_module
from repro.engine.backends.process import RING_NAME_PREFIX, ProcessBackend
from repro.engine.backends.serial import SerialBackend
from repro.engine.backends.shm import (
    MIN_SHM_BYTES,
    ShmRing,
    ShmRingView,
    packed_size,
    shared_memory_available,
)
from repro.engine.sharded import KnowledgeFreeShardFactory
from repro.scenarios.registry import ScenarioError
from repro.scenarios.spec import EngineSpec
from repro.streams import zipf_stream
from repro.utils.rng import spawn_children

pytestmark = pytest.mark.skipif(
    not shared_memory_available(),
    reason="multiprocessing.shared_memory unavailable on this host")

STREAM = zipf_stream(8_000, 1_000, alpha=1.3, random_state=17)
IDS = np.asarray(STREAM.identifiers, dtype=np.int64)

SHM_DIR = Path("/dev/shm")


def _ring_segments():
    """Names of this process's ring segments still present in /dev/shm."""
    if not SHM_DIR.is_dir():
        pytest.skip("host exposes no /dev/shm to inspect")
    prefix = f"{RING_NAME_PREFIX}-{os.getpid()}-"
    return sorted(path.name for path in SHM_DIR.iterdir()
                  if path.name.startswith(prefix))


def _service(backend="process", seed=23, shards=4, **kwargs):
    return ShardedSamplingService.knowledge_free(
        shards=shards, memory_size=10, sketch_width=32, sketch_depth=4,
        random_state=seed, backend=backend, **kwargs)


def _factory():
    return KnowledgeFreeShardFactory(10, sketch_width=32, sketch_depth=4)


def _direct_backends():
    """A serial reference and a process backend built from the same seeds."""
    serial = SerialBackend(4, _factory(), spawn_children(23, 4))
    process = ProcessBackend(4, _factory(), spawn_children(23, 4), workers=2)
    return serial, process


def _without_shared_memory(monkeypatch):
    """Make the host look like it has no POSIX shared memory."""
    monkeypatch.setattr(shm_module, "shared_memory_available", lambda: False)


# --------------------------------------------------------------------- #
# The ring itself
# --------------------------------------------------------------------- #
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


# --------------------------------------------------------------------- #
# Transport parity and the fallback matrix
# --------------------------------------------------------------------- #
class TestTransportParity:
    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    def test_bit_identical_to_serial(self, transport, monkeypatch):
        if transport == "pickle":
            _without_shared_memory(monkeypatch)
        reference = _service("serial")
        expected = reference.on_receive_batch(IDS)
        expected_memory = reference.merged_memory()
        expected_samples = reference.sample_many(50)
        expected_loads = reference.shard_loads()
        with _service(workers=2) as service:
            assert (_ring_segments() != []) == (transport == "shm")
            outputs = service.on_receive_batch(IDS)
            assert np.array_equal(outputs, expected)
            assert service.merged_memory() == expected_memory
            assert service.sample_many(50) == expected_samples
            assert service.shard_loads() == expected_loads

    def test_shm_is_the_default_transport(self):
        with _service(workers=2) as service:
            assert _ring_segments() != []
        assert _ring_segments() == []

    def test_host_without_shared_memory_falls_back(self, monkeypatch):
        _without_shared_memory(monkeypatch)
        reference = _service("serial")
        expected = reference.on_receive_batch(IDS[:4096])
        with _service(workers=2) as service:
            assert _ring_segments() == []
            assert np.array_equal(service.on_receive_batch(IDS[:4096]),
                                  expected)

    def test_small_chunks_take_the_pickle_cutoff(self):
        """Sub-chunks under MIN_SHM_BYTES skip the ring — and still match."""
        small, large = IDS[:128], IDS[128:4096]
        reference = _service("serial")
        expected = [reference.on_receive_batch(small),
                    reference.on_receive_batch(large)]
        with telemetry.enabled() as registry:
            with _service(workers=2) as service:
                outputs = [service.on_receive_batch(small)]
                counters = registry.snapshot()["counters"]
                assert counters["backend.process.shm_fallbacks"] >= 2
                assert "backend.process.shm_bytes_sent" not in counters
                outputs.append(service.on_receive_batch(large))
            counters = registry.snapshot()["counters"]
        assert counters["backend.process.shm_bytes_sent"] >= \
            2 * MIN_SHM_BYTES
        assert counters["backend.process.shm_bytes_received"] > 0
        for ours, want in zip(outputs, expected):
            assert np.array_equal(ours, want)

    def test_oversized_payload_falls_back_per_dispatch(self, monkeypatch):
        """A payload larger than a slot transparently rides the channel."""
        monkeypatch.setattr(shm_module, "DEFAULT_SLOT_BYTES", 64)
        ids = IDS[:8192]
        shard_indices = (ids % 4).astype(np.int64)
        serial, process = _direct_backends()
        try:
            expected = serial.dispatch(ids, shard_indices)
            with telemetry.enabled() as registry:
                outputs = process.dispatch(ids, shard_indices)
                counters = registry.snapshot()["counters"]
            assert np.array_equal(outputs, expected)
            assert counters["backend.process.shm_fallbacks"] >= 2
            assert "backend.process.shm_bytes_sent" not in counters
        finally:
            process.close()
        assert _ring_segments() == []

    def test_constructor_and_resolver_validation(self):
        # the transport is chosen automatically: there is no knob to set
        for knob in ({"transport": "pickle"}, {"ring_slots": 2},
                     {"slot_bytes": 64}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                ProcessBackend(4, _factory(), spawn_children(23, 4),
                               workers=2, **knob)
            with pytest.raises(TypeError, match="unexpected keyword"):
                make_backend("process", 4, _factory(),
                             spawn_children(23, 4), **knob)

    def test_engine_spec_validation(self):
        for knob in ("transport", "ring_slots"):
            with pytest.raises(ScenarioError, match="unknown key"):
                EngineSpec.from_dict({"shards": 4, "backend": "process",
                                      knob: 2})


# --------------------------------------------------------------------- #
# Worker-side helpers (module-level so worker processes can ship them)
# --------------------------------------------------------------------- #
class _SuicidalService:
    """Shard service that hard-kills its worker process on every batch."""

    elements_processed = 0

    def on_receive_batch(self, identifiers):
        os._exit(17)


def _suicidal_factory(index, rng):
    return _SuicidalService()


def _broken_on_shard_one_factory(index, rng):
    if index == 1:
        raise RuntimeError("shard 1 construction boom")
    return _SuicidalService()


class _SlowShard:
    """Knowledge-free shard whose batch ingestion sleeps first, so a
    pipelined dispatch stays in flight long enough to kill its worker."""

    def __init__(self, inner):
        self.inner = inner

    def on_receive_batch(self, identifiers):
        time.sleep(0.1)
        return self.inner.on_receive_batch(identifiers)

    def sample(self):
        return self.inner.sample()

    def reset(self):
        self.inner.reset()

    @property
    def elements_processed(self):
        return self.inner.elements_processed

    @property
    def strategy(self):
        return self.inner.strategy


def _slow_factory(index, rng):
    return _SlowShard(_factory()(index, rng))


# --------------------------------------------------------------------- #
# Segment lifecycle on every exit path
# --------------------------------------------------------------------- #
class TestSegmentLifecycle:
    def test_clean_close_unlinks_every_ring(self):
        with _service(workers=2) as service:
            service.on_receive_batch(IDS[:4096])
            assert len(_ring_segments()) == 2  # one ring per worker
        assert _ring_segments() == []

    def test_close_with_an_inflight_dispatch_unlinks(self):
        """close() drains the pipeline, releases slots and unlinks."""
        service = _service(workers=2)
        handle = service.begin_batch(IDS[:4096])
        assert handle[1] == 4096
        service.close()
        assert _ring_segments() == []

    def test_worker_crash_leaves_no_segments(self):
        # a staged batch that kills its worker on every attempt: each
        # re-forked worker attaches to the same ring (no new segments),
        # and after the bounded retries the crash surfaces
        backend = ProcessBackend(4, _suicidal_factory, spawn_children(23, 4),
                                 workers=2)
        try:
            rings = _ring_segments()
            assert len(rings) == 2
            ids = IDS[:4096]
            with pytest.raises(WorkerCrashError, match="crashed"):
                backend.dispatch(ids, (ids % 4).astype(np.int64))
            assert backend.respawns == backend._max_respawns
            assert _ring_segments() == rings
        finally:
            backend.close()
        assert _ring_segments() == []

    def test_startup_failure_leaves_no_segments(self):
        with pytest.raises(WorkerCrashError, match="construction boom"):
            ProcessBackend(4, _broken_on_shard_one_factory,
                           spawn_children(23, 4), workers=2)
        assert _ring_segments() == []

    def test_kill_nine_leaves_no_segments(self):
        reference = _service("serial")
        expected = [reference.on_receive_batch(IDS[:2048]),
                    reference.on_receive_batch(IDS[2048:6144])]
        service = _service(workers=2)
        try:
            outputs = [service.on_receive_batch(IDS[:2048])]
            service.backend._processes[0].kill()
            outputs.append(service.on_receive_batch(IDS[2048:6144]))
            assert service.backend.respawns == 1
            assert len(_ring_segments()) == 2
            for ours, want in zip(outputs, expected):
                assert np.array_equal(ours, want)
            assert service.merged_memory() == reference.merged_memory()
        finally:
            service.close()
        assert _ring_segments() == []

    def test_autoscale_worker_retirement_unlinks_its_ring(self):
        """remove_worker must retire the worker's ring with the worker."""
        with _service(workers=1) as service:
            service.on_receive_batch(IDS[:2048])
            added = service.add_worker()
            assert len(_ring_segments()) == 2
            service.remove_worker(added)
            assert len(_ring_segments()) == 1
            # the survivor still serves traffic over its ring
            service.on_receive_batch(IDS[2048:4096])
        assert _ring_segments() == []


# --------------------------------------------------------------------- #
# Protocol desync fails closed
# --------------------------------------------------------------------- #
class TestSeqProtocol:
    def test_mismatched_reply_header_poisons_the_backend(self):
        service = _service(workers=2)
        try:
            handle = service.begin_batch(IDS[:4096])
            ticket = handle[0]
            assert ticket.transport_state  # at least one worker staged
            ticket.seq += 1  # simulate a desynchronised reply
            with pytest.raises(WorkerCrashError, match="mismatched header"):
                service.finish_batch(handle)
            with pytest.raises(WorkerCrashError, match="build a new service"):
                service.on_receive_batch(IDS[:64])
        finally:
            service.close()
        assert _ring_segments() == []


# --------------------------------------------------------------------- #
# Recovery with the pipeline full
# --------------------------------------------------------------------- #
class TestPipelinedRecovery:
    def test_kill_nine_with_a_pipelined_dispatch_in_flight(self):
        """Two staged chunks in flight when the worker dies: the re-forked
        worker attaches to the same ring, replays its journal and answers
        both re-sent headers in order — bit-identical to serial."""
        chunks = [IDS[start:start + 1000] for start in range(0, 8000, 1000)]
        reference = _service("serial")
        expected = [reference.on_receive_batch(chunk) for chunk in chunks]
        service = ShardedSamplingService(4, _slow_factory, random_state=23,
                                         backend="process", workers=2)
        try:
            # six synchronous chunks cycle the 4-slot ring, so the journal
            # replays batches whose slots were reused since; the seventh
            # mutation comes due while the eighth is still in flight, which
            # defers that snapshot until the worker is idle
            service.backend._snapshot_every = 7
            outputs = [service.on_receive_batch(chunk)
                       for chunk in chunks[:6]]
            handles = [service.begin_batch(chunk) for chunk in chunks[6:]]
            assert all(handle[0].transport_state for handle in handles)
            service.backend._processes[0].kill()
            outputs += [service.finish_batch(handle) for handle in handles]
            assert service.backend.respawns == 1
            assert all(blob is not None
                       for blob in service.backend._snapshots)
            assert len(_ring_segments()) == 2
            for ours, want in zip(outputs, expected):
                assert np.array_equal(ours, want)
            assert service.merged_memory() == reference.merged_memory()
            assert service.sample_many(40) == reference.sample_many(40)
            assert service.shard_loads() == reference.shard_loads()
        finally:
            service.close()
        assert _ring_segments() == []
