"""Tests for double-buffered pipelined dispatch (repro.engine.batch/base).

The guarantee under test: the pipelined driving loop — ``run_stream``
beginning chunk ``k+1`` before collecting chunk ``k``, and the underlying
``dispatch_begin``/``dispatch_finish`` ticket machinery — produces outputs,
merged memory, loads and samples bit-identical to the serial backend on
every edge the double buffer has: single-chunk streams, a final partial
chunk, many chunks in a row, a stalled worker exercising backpressure,
sampling between begin and finish (pipeline drain), a mid-run autoscale
migration, a worker killed with two dispatches in flight, and frames larger
than the channel's socket buffers (the worker reads the next request while
its reply waits, so two in-flight frames cannot deadlock).
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro import telemetry
from repro.core import KnowledgeFreeStrategy
from repro.engine import ShardedSamplingService, run_stream
from repro.engine.backends import wire
from repro.engine.backends.base import serve_session
from repro.engine.backends.process import ProcessBackend
from repro.engine.backends.serial import SerialBackend
from repro.engine.backends.socket import SocketBackend
from repro.engine.sharded import KnowledgeFreeShardFactory
from repro.streams import zipf_stream

STREAM = zipf_stream(8_000, 1_000, alpha=1.3, random_state=17)
IDS = np.asarray(STREAM.identifiers, dtype=np.int64)

AUTOSCALE = {"min_workers": 1, "max_workers": 3,
             "target_load_per_worker": 2_000, "check_every": 1_024}


def _service(backend="process", seed=23, shards=4, **kwargs):
    return ShardedSamplingService.knowledge_free(
        shards=shards, memory_size=10, sketch_width=32, sketch_depth=4,
        random_state=seed, backend=backend, **kwargs)


def _serial_run(ids, batch_size, seed=23):
    """Reference outputs/memory/samples/loads of a serial run_stream."""
    service = _service("serial", seed=seed)
    result = run_stream(service, ids, batch_size=batch_size)
    reference = (result.outputs, service.merged_memory(),
                 service.sample_many(40, strict=False),
                 service.shard_loads())
    service.close()
    return reference


def _assert_matches(service, result, reference):
    outputs, memory, samples, loads = reference
    assert np.array_equal(result.outputs, outputs)
    assert service.merged_memory() == memory
    assert service.sample_many(40, strict=False) == samples
    assert service.shard_loads() == loads


# --------------------------------------------------------------------- #
# Who pipelines
# --------------------------------------------------------------------- #
class TestPipelineSelection:
    def test_depths(self):
        # double-buffered: process only.  The socket backend's request
        # protocol refreshes placement snapshots between dispatches, so it
        # stays synchronous; serial has no workers to overlap with.
        assert ProcessBackend.pipeline_depth == 2
        assert SerialBackend.pipeline_depth == 1
        assert SocketBackend.pipeline_depth == 1

    def test_service_reports_backend_capability(self):
        with _service(workers=2) as service:
            assert service.supports_pipelining is True
        serial = _service("serial")
        assert serial.supports_pipelining is False
        serial.close()

    def test_pipeline_true_needs_begin_finish(self):
        strategy = KnowledgeFreeStrategy(10, sketch_width=32, sketch_depth=4,
                                         random_state=5)
        with pytest.raises(TypeError, match="begin_batch"):
            run_stream(strategy, IDS[:100], pipeline=True)

    def test_sync_fallback_ticket_on_serial(self):
        """begin/finish drive the serial backend eagerly but identically."""
        reference = _serial_run(IDS[:4096], 1024)
        service = _service("serial")
        try:
            outputs = []
            for start in range(0, 4096, 1024):
                handle = service.begin_batch(IDS[start:start + 1024])
                outputs.append(service.finish_batch(handle))
            assert np.array_equal(np.concatenate(outputs), reference[0])
            assert service.merged_memory() == reference[1]
        finally:
            service.close()


# --------------------------------------------------------------------- #
# run_stream edges, all bit-identical to serial
# --------------------------------------------------------------------- #
class TestPipelinedRunStream:
    def test_auto_pipelined_with_final_partial_chunk(self):
        ids = IDS[:6000]  # 2048-chunks: 2048 + 2048 + 1904 (partial tail)
        reference = _serial_run(ids, 2048)
        with _service(workers=2) as service:
            result = run_stream(service, ids, batch_size=2048)
            assert result.batches == 3
            _assert_matches(service, result, reference)

    def test_single_chunk_stream(self):
        ids = IDS[:100]
        reference = _serial_run(ids, 2048)
        with _service(workers=2) as service:
            result = run_stream(service, ids, batch_size=2048)
            assert result.batches == 1
            _assert_matches(service, result, reference)

    def test_empty_stream(self):
        with _service(workers=2) as service:
            result = run_stream(service, np.zeros(0, dtype=np.int64))
            assert result.batches == 0
            assert result.outputs.size == 0

    def test_explicit_pipeline_off_matches(self):
        ids = IDS[:6000]
        reference = _serial_run(ids, 2048)
        with _service(workers=2) as service:
            result = run_stream(service, ids, batch_size=2048,
                                pipeline=False)
            _assert_matches(service, result, reference)

    def test_ring_wrap_around_over_many_chunks(self):
        """16 chunks through the double buffer stay bit-identical."""
        reference = _serial_run(IDS, 512)
        with _service(workers=2) as service:
            result = run_stream(service, IDS, batch_size=512)
            assert result.batches == 16
            _assert_matches(service, result, reference)

    def test_backpressure_with_a_stalled_worker(self):
        """A slow worker fills the pipeline; outputs still match serial."""
        ids = IDS[:4096]
        reference_service = ShardedSamplingService(
            4, _SlowKnowledgeFreeFactory(0.0), random_state=23)
        reference = run_stream(reference_service, ids, batch_size=512)
        expected_memory = reference_service.merged_memory()
        reference_service.close()
        with telemetry.enabled() as registry:
            service = ShardedSamplingService(
                4, _SlowKnowledgeFreeFactory(0.03), random_state=23,
                backend="process", workers=2)
            try:
                result = run_stream(service, ids, batch_size=512)
                assert np.array_equal(result.outputs, reference.outputs)
                assert service.merged_memory() == expected_memory
            finally:
                service.close()
            snapshot = registry.snapshot()
        occupancy = snapshot["histograms"][
            "backend.process.pipeline_occupancy"]
        assert occupancy["count"] == result.batches
        # with the worker stalled, later begins found the buffer occupied
        overlap = snapshot["histograms"][
            "backend.process.staging_overlap_seconds"]
        assert overlap["count"] > 0


# --------------------------------------------------------------------- #
# Direct begin/finish API
# --------------------------------------------------------------------- #
class TestBeginFinish:
    def test_overfilled_pipeline_self_collects(self):
        """Beginning past the depth collects the oldest ticket first."""
        chunks = [IDS[start:start + 1024] for start in range(0, 4096, 1024)]
        serial = _service("serial")
        expected = [serial.on_receive_batch(chunk) for chunk in chunks]
        expected_memory = serial.merged_memory()
        serial.close()
        with _service(workers=2) as service:
            handles = [service.begin_batch(chunk) for chunk in chunks]
            outputs = [service.finish_batch(handle) for handle in handles]
            for ours, want in zip(outputs, expected):
                assert np.array_equal(ours, want)
            assert service.merged_memory() == expected_memory

    def test_sampling_between_begin_and_finish_drains(self):
        """Inspection mid-flight drains the pipeline — same coins, same
        samples, and the handle still finishes correctly."""
        chunk = IDS[:2048]
        serial = _service("serial")
        expected = serial.on_receive_batch(chunk)
        expected_samples = serial.sample_many(10, strict=False)
        serial.close()
        with _service(workers=2) as service:
            handle = service.begin_batch(chunk)
            samples = service.sample_many(10, strict=False)
            outputs = service.finish_batch(handle)
            assert samples == expected_samples
            assert np.array_equal(outputs, expected)

    def test_empty_chunk_handle(self):
        with _service(workers=2) as service:
            handle = service.begin_batch(np.zeros(0, dtype=np.int64))
            assert handle == (None, 0)
            assert service.finish_batch(handle).size == 0


# --------------------------------------------------------------------- #
# Mid-run autoscaling under the pipelined driver
# --------------------------------------------------------------------- #
class TestPipelinedAutoscale:
    def test_flash_crowd_scale_up_matches_serial(self):
        """The acceptance bar: pipelined driving + live autoscale
        migration mid-stream, bit-identical to serial."""
        reference = _serial_run(IDS, 512)
        with _service(workers=1, autoscale=AUTOSCALE) as service:
            assert service.placement.workers == 1
            result = run_stream(service, IDS, batch_size=512)
            stats = service.autoscaler.stats()
            assert service.placement.workers == 3
            assert stats["scale_ups"] == 2
            assert stats["evaluations"] > 0
            _assert_matches(service, result, reference)


# --------------------------------------------------------------------- #
# Recovery with the pipeline full
# --------------------------------------------------------------------- #
class TestPipelinedRecovery:
    def test_kill_nine_with_a_pipelined_dispatch_in_flight(self):
        """Two chunks in flight when worker 0 dies: the re-forked worker
        replays its journal and answers both re-sent batch frames in order
        — bit-identical to serial."""
        chunks = [IDS[start:start + 1000] for start in range(0, 8000, 1000)]
        reference = _service("serial")
        expected = [reference.on_receive_batch(chunk) for chunk in chunks]
        service = ShardedSamplingService(
            4, _SlowKnowledgeFreeFactory(0.1), random_state=23,
            backend="process", workers=2)
        try:
            # the seventh mutation comes due while the eighth chunk is
            # still in flight, which defers that snapshot until the worker
            # is idle
            service.backend._snapshot_every = 7
            outputs = [service.on_receive_batch(chunk)
                       for chunk in chunks[:6]]
            handles = [service.begin_batch(chunk) for chunk in chunks[6:]]
            assert not any(handle[0].collected for handle in handles)
            service.backend._processes[0].kill()
            outputs += [service.finish_batch(handle) for handle in handles]
            assert service.backend.respawns == 1
            assert all(blob is not None
                       for blob in service.backend._snapshots)
            for ours, want in zip(outputs, expected):
                assert np.array_equal(ours, want)
            assert service.merged_memory() == reference.merged_memory()
            assert service.sample_many(40) == reference.sample_many(40)
            assert service.shard_loads() == reference.shard_loads()
        finally:
            service.close()


# --------------------------------------------------------------------- #
# Frames larger than the channel's socket buffers
# --------------------------------------------------------------------- #
class TestLargeFrames:
    @pytest.mark.parametrize("backend", ["process", "socket"])
    @pytest.mark.parametrize("batch_size", [65_536, 262_144])
    def test_chunks_larger_than_the_socket_buffers(self, backend, batch_size,
                                                   monkeypatch):
        """Each worker's frame outgrows the socket buffers, and the process
        backend keeps two of them in flight: the run neither stalls nor
        departs from serial."""
        # a stalled channel surfaces as a timeout, not a 300 s hang
        monkeypatch.setattr("repro.engine.backends.base."
                            "DEFAULT_REQUEST_TIMEOUT", 30.0)
        ids = np.random.default_rng(5).integers(
            0, 100_000, size=3 * batch_size).astype(np.int64)
        reference = _serial_run(ids, batch_size)
        with _service(backend, workers=2) as service:
            result = run_stream(service, ids, batch_size=batch_size)
            assert result.batches == 3
            _assert_matches(service, result, reference)

    def test_worker_reads_ahead_while_its_reply_waits(self):
        """Two large batch frames posted back to back, no reply read in
        between: the session reads the second while the first reply waits
        for room, so both sends complete and both replies arrive in order."""
        parent, child = _started_session()
        try:
            deadline = time.monotonic() + 10.0
            chunks = [np.arange(start, start + 200_000, dtype=np.int64)
                      for start in (0, 10**6)]
            for chunk in chunks:
                wire.send_frame(parent, ("batch", {0: chunk}),
                                deadline=deadline)
            for chunk in chunks:
                ok, result = wire.recv_frame(parent, deadline=deadline)
                assert ok and np.array_equal(result[0], chunk)
            wire.send_frame(parent, ("close", None), deadline=deadline)
            child.join(timeout=10.0)
            assert not child.is_alive()
        finally:
            parent.close()

    def test_session_ends_when_the_parent_closes_mid_reply(self):
        parent, child = _started_session()
        chunk = np.arange(400_000, dtype=np.int64)
        wire.send_frame(parent, ("batch", {0: chunk}),
                        deadline=time.monotonic() + 10.0)
        # the reply outgrows the channel; closing unread ends the session
        time.sleep(0.2)
        parent.close()
        child.join(timeout=10.0)
        assert not child.is_alive()


# --------------------------------------------------------------------- #
# Worker-side helpers (module-level so worker processes can ship them)
# --------------------------------------------------------------------- #
class _SlowShardService:
    """Delegating shard service whose batch ingestion is throttled."""

    def __init__(self, inner, delay):
        self._inner = inner
        self._delay = delay

    def on_receive_batch(self, identifiers):
        if self._delay:
            time.sleep(self._delay)
        return self._inner.on_receive_batch(identifiers)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _SlowKnowledgeFreeFactory:
    """Knowledge-free shards; shard 0's ingestion sleeps per batch."""

    def __init__(self, delay):
        self._delay = delay
        self._inner = KnowledgeFreeShardFactory(10, sketch_width=32,
                                                sketch_depth=4)

    def __call__(self, index, rng):
        inner = self._inner(index, rng)
        return _SlowShardService(inner, self._delay if index == 0 else 0.0)


class _EchoShardService:
    """Shard service that returns each batch unchanged."""

    elements_processed = 0

    def on_receive_batch(self, identifiers):
        return identifiers


def _echo_factory(index, rng):
    return _EchoShardService()


def _started_session():
    """A worker session serving one echo shard on a thread, past start.

    Returns ``(parent_end, thread)``; the thread owns the worker's end.
    """
    parent, worker_end = socket.socketpair()
    start = {"shard_ids": [0], "factory": _echo_factory, "rngs": [None]}

    def serve():
        with worker_end:
            serve_session(worker_end, first=("start", start))

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert wire.recv_frame(parent, deadline=time.monotonic() + 10.0) \
        == (True, [0])
    return parent, thread
