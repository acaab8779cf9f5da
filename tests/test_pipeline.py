"""Tests for double-buffered pipelined dispatch (repro.engine.batch/base).

The guarantee under test: the pipelined driving loop — ``run_stream``
beginning chunk ``k+1`` before collecting chunk ``k``, and the underlying
``dispatch_begin``/``dispatch_finish`` ticket machinery — produces outputs,
merged memory, loads and samples bit-identical to the serial backend on
every edge the double buffer has: single-chunk streams, a final partial
chunk, ring wrap-around, a stalled worker exercising backpressure, sampling
between begin and finish (pipeline drain), and a mid-run autoscale
migration with the shared-memory transport on.
"""

import time

import numpy as np
import pytest

from repro import telemetry
from repro.core import KnowledgeFreeStrategy
from repro.engine import ShardedSamplingService, run_stream
from repro.engine.backends import shm as shm_module
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
    @pytest.mark.parametrize("transport", ["shm", "pickle"])
    def test_auto_pipelined_with_final_partial_chunk(self, transport,
                                                     monkeypatch):
        if transport == "pickle":
            # the automatic fallback of a host without shared memory
            monkeypatch.setattr(shm_module, "shared_memory_available",
                                lambda: False)
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

    def test_ring_wrap_around_over_many_chunks(self, monkeypatch):
        """A 2-slot ring cycled by 16 chunks stays bit-identical."""
        monkeypatch.setattr(shm_module, "DEFAULT_RING_SLOTS", 2)
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
# Mid-run autoscaling under the pipelined shm driver
# --------------------------------------------------------------------- #
class TestPipelinedAutoscale:
    def test_flash_crowd_scale_up_matches_serial(self):
        """The acceptance bar: shm transport + pipelined driving + live
        autoscale migration mid-stream, bit-identical to serial."""
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
