"""Tests for repro.engine.backends (pluggable execution backends).

The headline guarantee under test: per master seed, the process and socket
backends' outputs, merged memory, shard loads and samples are bit-identical
to the serial backend's, so every experiment can run on any of them.  Both
worker pools share one supervisor: a killed worker is re-spawned and its
shards rebuilt from the last state snapshot plus a bounded journal replay,
which the crash tests assert end-to-end on both pools.
"""

import json
import multiprocessing
import os
import pickle
import socket as socket_module
import subprocess
import sys
import textwrap
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import telemetry
from repro.cli import main
from repro.engine import (
    AuthenticationError,
    BackendError,
    KnowledgeFreeShardFactory,
    ProcessBackend,
    ShardedSamplingService,
    SocketBackend,
    WorkerCrashError,
    WorkerServer,
    WorkerTimeoutError,
    make_backend,
    run_stream,
)
from repro.engine.backends import BackendOptionError
from repro.engine.backends.serial import SerialBackend
from repro.scenarios import ScenarioRunner, ScenarioSpec
from repro.scenarios.registry import ScenarioError
from repro.scenarios.spec import EngineSpec
from repro.streams import zipf_stream
from repro.utils.rng import spawn_children

STREAM = zipf_stream(8_000, 1_000, alpha=1.3, random_state=17)

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "scenarios"

#: The non-serial backends; every bit-identity test runs once per entry.
PARALLEL_BACKENDS = ["process", "socket"]


def _service(backend, seed=23, shards=4, **kwargs):
    return ShardedSamplingService.knowledge_free(
        shards=shards, memory_size=10, sketch_width=32, sketch_depth=4,
        random_state=seed, backend=backend, **kwargs)


# --------------------------------------------------------------------- #
# Worker-side helpers (module-level so process backends can ship them)
# --------------------------------------------------------------------- #
class _MuteStrategy:
    """Stands in for a custom strategy holding an empty sampling memory."""

    memory_view = ()


class _MuteService:
    """Shard service that ingests traffic but never yields a sample.

    A shard with loads but no sample breaks the strategy contract, which
    ``sample_many`` reports by naming the shard.
    """

    def __init__(self):
        self.elements_processed = 0
        self.strategy = _MuteStrategy()

    def on_receive_batch(self, identifiers):
        chunk = np.asarray(identifiers, dtype=np.int64)
        self.elements_processed += int(chunk.size)
        return chunk

    def sample(self):
        return None

    def reset(self):
        self.elements_processed = 0


def _mute_factory(index, rng):
    return _MuteService()


def _shard_one_mute_factory(index, rng):
    if index == 1:
        return _MuteService()
    return KnowledgeFreeShardFactory(10, sketch_width=32,
                                     sketch_depth=4)(index, rng)


class _SleepyService:
    """Shard service whose batch ingestion stalls (timeout-path fixture)."""

    elements_processed = 0

    def on_receive_batch(self, identifiers):
        time.sleep(1.0)
        return np.asarray(identifiers, dtype=np.int64)


def _sleepy_factory(index, rng):
    return _SleepyService()


def _broken_factory(index, rng):
    raise RuntimeError("shard construction boom")


class _SuicidalService:
    """Shard service that hard-kills its worker process on every batch."""

    elements_processed = 0

    def on_receive_batch(self, identifiers):
        os._exit(13)


def _suicidal_factory(index, rng):
    return _SuicidalService()


def _broken_on_shard_one_factory(index, rng):
    if index == 1:
        raise RuntimeError("shard 1 construction boom")
    return _MuteService()


class _RaisingService(_MuteService):
    """Shard service whose batch ingestion raises inside the worker."""

    def on_receive_batch(self, identifiers):
        raise ValueError("batch ingestion boom")


def _raising_factory(index, rng):
    return _RaisingService()


def _live_shard_workers():
    """Names of still-running backend worker processes of this process."""
    return sorted(child.name for child in multiprocessing.active_children()
                  if child.name.startswith(("repro-shard-worker",
                                            "repro-socket-worker")))


def _assert_no_leaked_workers(timeout=10.0):
    """Assert every backend worker process exits within ``timeout``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not _live_shard_workers():
            return
        time.sleep(0.05)
    raise AssertionError(f"leaked worker processes: {_live_shard_workers()}")


def _server_process_main(report, token):
    """Run a WorkerServer in a dedicated process (killable in tests)."""
    server = WorkerServer("127.0.0.1", 0, token)
    report.send(server.address)
    report.close()
    server.serve_forever()


def _spawn_server_process(token):
    """Start a WorkerServer process; return ``(process, "host:port")``."""
    context = multiprocessing.get_context()
    receive_end, send_end = context.Pipe(duplex=False)
    process = context.Process(target=_server_process_main,
                              args=(send_end, token), daemon=True)
    process.start()
    send_end.close()
    assert receive_end.poll(30.0), "worker server did not report its port"
    host, port = receive_end.recv()
    receive_end.close()
    return process, f"{host}:{port}"


@pytest.fixture
def worker_server():
    """An in-process threaded WorkerServer with a known token."""
    server = WorkerServer("127.0.0.1", 0, b"test-secret")
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.close()


# --------------------------------------------------------------------- #
# Cross-backend bit-identity
# --------------------------------------------------------------------- #
class TestBitIdentity:
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_outputs_memory_and_loads_match_serial(self, backend):
        serial = _service("serial")
        with _service(backend, workers=2) as parallel:
            serial_run = run_stream(serial, STREAM, batch_size=512)
            parallel_run = run_stream(parallel, STREAM, batch_size=512)
            assert np.array_equal(serial_run.outputs, parallel_run.outputs)
            assert serial.merged_memory() == parallel.merged_memory()
            assert serial.shard_loads() == parallel.shard_loads()
            assert serial.elements_processed == parallel.elements_processed

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_samples_match_serial(self, backend):
        serial = _service("serial", seed=31)
        with _service(backend, seed=31, workers=3) as parallel:
            serial.on_receive_batch(STREAM.identifiers)
            parallel.on_receive_batch(STREAM.identifiers)
            assert serial.sample_many(250) == parallel.sample_many(250)
            assert serial.sample() == parallel.sample()

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_reset_keeps_backends_aligned(self, backend):
        serial = _service("serial", seed=7)
        with _service(backend, seed=7, workers=2) as parallel:
            for service in (serial, parallel):
                service.on_receive_batch(STREAM.identifiers)
                service.reset()
            assert parallel.elements_processed == 0
            assert parallel.sample() is None
            a = serial.on_receive_batch(STREAM.identifiers[:1000])
            b = parallel.on_receive_batch(STREAM.identifiers[:1000])
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_scenario_results_match_across_backends(self, backend):
        base = {
            "name": "backend-equality",
            "seed": 99,
            "trials": 2,
            "stream": {"kind": "zipf",
                       "params": {"stream_size": 5000,
                                  "population_size": 500, "alpha": 1.5}},
            "strategies": [{"kind": "knowledge-free",
                            "params": {"memory_size": 10,
                                       "sketch_width": 16,
                                       "sketch_depth": 4}}],
            "engine": {"driver": "batch", "batch_size": 1024, "shards": 3,
                       "backend": "serial"},
        }
        serial_result = ScenarioRunner(dict(base)).run().to_dict()
        parallel = dict(base)
        parallel["engine"] = dict(base["engine"],
                                  backend=backend, workers=2)
        parallel_result = ScenarioRunner(parallel).run().to_dict()
        serial_result["name"] = parallel_result["name"] = "backend-equality"
        assert serial_result == parallel_result

    def test_sharded_zipf_scenario_socket_matches_serial(self):
        # the committed example spec, serial vs socket, end to end
        spec = replace(ScenarioSpec.load(EXAMPLES / "sharded_zipf.json"),
                       trials=1)
        serial_result = ScenarioRunner(spec).run().to_dict()
        socket_spec = replace(
            spec, engine=replace(spec.engine, backend="socket", workers=2))
        socket_result = ScenarioRunner(socket_spec).run().to_dict()
        assert serial_result == socket_result


class TestBulkSampleMany:
    @pytest.mark.parametrize("backend", ["serial"] + PARALLEL_BACKENDS)
    def test_bulk_path_matches_per_sample_loop(self, backend):
        reference = _service("serial", seed=41)
        reference.on_receive_batch(STREAM.identifiers)
        looped = [reference.sample() for _ in range(137)]
        with _service(backend, seed=41) as bulk:
            bulk.on_receive_batch(STREAM.identifiers)
            assert bulk.sample_many(137) == looped

    @pytest.mark.parametrize("backend", ["serial"] + PARALLEL_BACKENDS)
    def test_no_traffic_yields_no_sample(self, backend):
        with _service(backend, seed=41) as service:
            with pytest.raises(RuntimeError, match="0 sample"):
                service.sample_many(5)
            assert service.sample_many(5, strict=False) == []
            assert service.sample() is None

    @pytest.mark.parametrize("backend", ["serial"] + PARALLEL_BACKENDS)
    def test_mute_shard_raises_naming_it(self, backend):
        with ShardedSamplingService(2, _shard_one_mute_factory,
                                    random_state=5,
                                    backend=backend) as service:
            service.on_receive_batch(STREAM.identifiers[:100])
            assert all(load > 0 for load in service.shard_loads())
            for strict in (True, False):
                with pytest.raises(RuntimeError,
                                   match="shard 1 has received traffic"):
                    service.sample_many(64, strict=strict)


# --------------------------------------------------------------------- #
# One load path: the parent's collected count, equal to serial's
# --------------------------------------------------------------------- #
def _worker_loads(service):
    """Per-shard ``elements_processed`` of the services the workers hold."""
    states = pickle.loads(service.backend.snapshot_shards())
    return [states[shard].elements_processed
            for shard in range(service.shards)]


class TestOneLoadPath:
    """Pool ``shard_loads()`` equals serial's, whatever happened before."""

    @staticmethod
    def _assert_loads_match(serial, service):
        assert service.shard_loads() == serial.shard_loads()
        assert _worker_loads(service) == serial.shard_loads()
        assert service.elements_processed == serial.elements_processed

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_after_ingest(self, backend):
        serial = _service("serial", seed=29)
        with _service(backend, seed=29, workers=2) as service:
            for start in range(0, 6000, 1500):
                chunk = STREAM.identifiers[start:start + 1500]
                serial.on_receive_batch(chunk)
                service.on_receive_batch(chunk)
                self._assert_loads_match(serial, service)

    def test_backend_count_excludes_a_chunk_in_flight(self):
        with _service("process", seed=29, workers=2) as service:
            service.on_receive_batch(STREAM.identifiers[:1000])
            collected = service.backend.shard_loads()
            handle = service.begin_batch(STREAM.identifiers[1000:2000])
            # the backend read neither drains nor asks a worker ...
            assert service.backend.shard_loads() == collected
            # ... the service's read drains first
            assert sum(service.shard_loads()) == 2000
            service.finish_batch(handle)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_after_reset(self, backend):
        serial = _service("serial", seed=29)
        with _service(backend, seed=29, workers=2) as service:
            for target in (serial, service):
                target.on_receive_batch(STREAM.identifiers[:3000])
                target.reset()
            self._assert_loads_match(serial, service)
            assert service.shard_loads() == [0, 0, 0, 0]
            for target in (serial, service):
                target.on_receive_batch(STREAM.identifiers[3000:4000])
            self._assert_loads_match(serial, service)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_after_snapshot_and_restore_onto_another_backend(self, backend):
        serial = _service("serial", seed=29)
        serial.on_receive_batch(STREAM.identifiers)
        other = "socket" if backend == "process" else "process"
        with _service(backend, seed=29, workers=2) as service:
            service.on_receive_batch(STREAM.identifiers[:5000])
            blob = service.snapshot()
        with ShardedSamplingService.restore(blob, backend=other,
                                            workers=3) as restored:
            restored.on_receive_batch(STREAM.identifiers[5000:])
            self._assert_loads_match(serial, restored)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_after_live_migration(self, backend):
        serial = _service("serial", seed=29)
        with _service(backend, seed=29, workers=2) as service:
            for target in (serial, service):
                target.on_receive_batch(STREAM.identifiers[:4000])
            service.migrate_shard(0, 1)
            service.remove_worker(0)
            self._assert_loads_match(serial, service)
            for target in (serial, service):
                target.on_receive_batch(STREAM.identifiers[4000:])
            self._assert_loads_match(serial, service)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_after_kill_nine_recovery(self, backend):
        serial = _service("serial", seed=29)
        with _service(backend, seed=29, workers=2) as service:
            for target in (serial, service):
                target.on_receive_batch(STREAM.identifiers[:4000])
            victim = service.backend._processes[1]
            victim.kill()
            victim.join(timeout=5.0)
            for target in (serial, service):
                target.on_receive_batch(STREAM.identifiers[4000:])
            assert service.backend.respawns == 1
            self._assert_loads_match(serial, service)


# --------------------------------------------------------------------- #
# Worker failure paths
# --------------------------------------------------------------------- #
class TestWorkerFailures:
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_construction_error_surfaces(self, backend):
        with pytest.raises(WorkerCrashError, match="shard construction boom"):
            ShardedSamplingService(2, _broken_factory, random_state=3,
                                   backend=backend)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_construction_error_does_not_leak_sibling_workers(self, backend):
        # regression: a failed startup used to propagate without
        # terminating the sibling workers already spawned
        with pytest.raises(WorkerCrashError, match="shard 1"):
            ShardedSamplingService(2, _broken_on_shard_one_factory,
                                   random_state=3, backend=backend,
                                   workers=2)
        _assert_no_leaked_workers()

    def test_dead_worker_detected(self):
        # depending on timing the parent sees the dead workers as a broken
        # channel at send time or as EOF at collect; either way it re-forks
        # them from their journals and the run stays serial-identical
        serial = _service("serial", shards=2)
        ids = np.asarray(STREAM.identifiers, dtype=np.int64)
        service = _service("process", shards=2, workers=2)
        try:
            assert np.array_equal(serial.on_receive_batch(ids[:500]),
                                  service.on_receive_batch(ids[:500]))
            for process in service.backend._processes:
                process.terminate()
                process.join(timeout=5.0)
            assert np.array_equal(serial.on_receive_batch(ids[500:1000]),
                                  service.on_receive_batch(ids[500:1000]))
            assert service.backend.respawns == 2
            assert serial.merged_memory() == service.merged_memory()
            assert serial.shard_loads() == service.shard_loads()
        finally:
            service.close()
        _assert_no_leaked_workers()

    def test_process_worker_crash_mid_dispatch(self):
        # the crash lands while the batch request is in flight; the
        # supervisor re-forks the workers and re-sends the request
        service = ShardedSamplingService(2, _sleepy_factory, random_state=3,
                                         backend="process", workers=2)
        try:
            processes = list(service.backend._processes)
            killer = threading.Timer(
                0.3, lambda: [process.terminate() for process in processes])
            killer.start()
            outputs = service.on_receive_batch(STREAM.identifiers[:64])
            killer.join()
            assert np.array_equal(
                np.sort(outputs),
                np.sort(np.asarray(STREAM.identifiers[:64], dtype=np.int64)))
            assert service.backend.respawns >= 1
        finally:
            service.close()

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_unpicklable_factory_survives_a_refork(self):
        # fork hands the factory to each worker without pickling it, on the
        # first launch and again when a killed worker is re-forked
        factory = KnowledgeFreeShardFactory(10, sketch_width=32,
                                            sketch_depth=4)

        def closure(index, rng):
            return factory(index, rng)

        serial = _service("serial", shards=2)
        ids = np.asarray(STREAM.identifiers, dtype=np.int64)
        with ShardedSamplingService(2, closure, random_state=23,
                                    backend="process",
                                    workers=2) as service:
            assert np.array_equal(serial.on_receive_batch(ids[:4000]),
                                  service.on_receive_batch(ids[:4000]))
            service.backend._processes[1].kill()
            assert np.array_equal(serial.on_receive_batch(ids[4000:]),
                                  service.on_receive_batch(ids[4000:]))
            assert service.backend.respawns == 1
            assert serial.merged_memory() == service.merged_memory()

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_hung_worker_hits_default_deadline(self, backend, monkeypatch):
        # regression: a live-but-hung worker used to block _receive
        # forever; the request deadline must surface WorkerTimeoutError on
        # both worker transports
        monkeypatch.setattr("repro.engine.backends.base."
                            "DEFAULT_REQUEST_TIMEOUT", 0.2)
        service = ShardedSamplingService(2, _sleepy_factory, random_state=3,
                                         backend=backend, workers=2)
        try:
            with pytest.raises(WorkerTimeoutError, match="did not reply"):
                service.on_receive_batch(STREAM.identifiers[:64])
        finally:
            service.close()

    def test_timeout_poisons_backend_against_stale_replies(self,
                                                          monkeypatch):
        # regression: the timed-out request's late reply stays queued in the
        # pipe; a retry used to consume it as the answer to the new request
        monkeypatch.setattr("repro.engine.backends.base."
                            "DEFAULT_REQUEST_TIMEOUT", 0.1)
        service = ShardedSamplingService(2, _sleepy_factory, random_state=3,
                                         backend="process")
        try:
            with pytest.raises(WorkerTimeoutError):
                service.on_receive_batch(STREAM.identifiers[:64])
            with pytest.raises(WorkerCrashError, match="desynchronised"):
                service.on_receive_batch(STREAM.identifiers[:32])
            # loads are the parent's own count; the memory query is the
            # inspection that still asks the workers
            with pytest.raises(WorkerCrashError, match="desynchronised"):
                service.merged_memory()
        finally:
            service.close()

    @pytest.mark.parametrize("backend", ["serial"] + PARALLEL_BACKENDS)
    def test_close_is_idempotent(self, backend):
        service = _service(backend, shards=2)
        service.close()
        service.close()

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_closed_backend_rejects_requests(self, backend):
        service = _service(backend, shards=2)
        service.close()
        with pytest.raises(BackendError, match="closed"):
            service.on_receive_batch(STREAM.identifiers[:10])

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_close_after_worker_crash(self, backend):
        # close() must stay safe (and idempotent) over dead workers and
        # dead connections
        service = _service(backend, shards=2, workers=2)
        service.on_receive_batch(STREAM.identifiers[:200])
        for process in service.backend._processes:
            process.kill()
            process.join(timeout=5.0)
        service.close()
        service.close()
        _assert_no_leaked_workers()

    def test_no_helper_process_outlives_a_pool(self):
        # a fresh interpreter: the ring tests may already have started the
        # multiprocessing resource tracker in this one
        script = textwrap.dedent("""
            import multiprocessing
            from multiprocessing import resource_tracker

            import numpy as np

            from repro.engine import ShardedSamplingService

            ids = np.arange(4096, dtype=np.int64)
            for backend in ("process", "socket"):
                service = ShardedSamplingService.knowledge_free(
                    shards=4, memory_size=10, random_state=23,
                    backend=backend, workers=2)
                service.on_receive_batch(ids)
                service.begin_batch(ids)  # still in flight at close()
                service.close()
            assert resource_tracker._resource_tracker._pid is None
            assert multiprocessing.active_children() == []
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        finished = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True, env=env,
                                  timeout=120)
        assert finished.returncode == 0, finished.stderr


# --------------------------------------------------------------------- #
# The process backend's one data path: a pickled batch frame per worker
# --------------------------------------------------------------------- #
class TestProcessFramePath:
    @pytest.mark.parametrize("size", [1, 128, 2048, 8000])
    def test_every_chunk_size_matches_serial(self, size):
        # a one-element chunk reaches a single worker; the largest is the
        # whole stream in one frame per worker
        ids = np.asarray(STREAM.identifiers, dtype=np.int64)
        chunks = [ids[start:start + size]
                  for start in range(0, min(ids.size, 32 * size), size)]
        serial = _service("serial")
        with _service("process", workers=2) as service:
            for chunk in chunks:
                assert np.array_equal(service.on_receive_batch(chunk),
                                      serial.on_receive_batch(chunk))
            assert service.merged_memory() == serial.merged_memory()
            assert service.shard_loads() == serial.shard_loads()
            assert service.sample_many(50) == serial.sample_many(50)

    def test_runs_where_shared_memory_is_unavailable(self, monkeypatch):
        # no step of the data path opens a shared-memory segment, in the
        # parent or in the (forked) workers
        from multiprocessing import shared_memory

        def unavailable(*args, **kwargs):
            raise OSError("no POSIX shared memory on this host")

        monkeypatch.setattr(shared_memory, "SharedMemory", unavailable)
        ids = np.asarray(STREAM.identifiers, dtype=np.int64)
        serial = _service("serial")
        with _service("process", workers=2) as service:
            assert np.array_equal(service.on_receive_batch(ids),
                                  serial.on_receive_batch(ids))
            assert service.merged_memory() == serial.merged_memory()

    def test_one_batch_frame_per_involved_worker(self):
        ids = np.asarray(STREAM.identifiers, dtype=np.int64)
        with telemetry.enabled() as registry:
            with _service("process", workers=2) as service:
                # one element reaches one shard, hence one worker; the
                # larger chunks reach both workers
                for chunk in (ids[:1], ids[:4096], ids[4096:]):
                    service.on_receive_batch(chunk)
            snapshot = registry.snapshot()
        histograms = snapshot["histograms"]
        assert histograms["backend.process.roundtrip_seconds.batch"][
            "count"] == 1 + 2 + 2
        assert snapshot["counters"]["backend.process.dispatch_elements"] \
            == 1 + ids.size
        names = [*snapshot["counters"], *histograms, *snapshot["gauges"]]
        assert [name for name in names if "shm" in name] == []

    def test_clean_close_reaps_every_worker(self):
        with _service("process", workers=2) as service:
            service.on_receive_batch(STREAM.identifiers[:4096])
            processes = list(service.backend._processes)
            assert [process.is_alive() for process in processes] \
                == [True, True]
        assert all(process.exitcode is not None for process in processes)

    def test_close_with_a_dispatch_in_flight_reaps_every_worker(self):
        service = _service("process", workers=2)
        processes = list(service.backend._processes)
        ticket, size = service.begin_batch(STREAM.identifiers[:4096])
        assert size == 4096 and not ticket.collected
        service.close()
        # close collected the chunk first, so its loads are accounted
        assert ticket.collected
        assert sum(service.shard_loads()) == 4096
        assert all(process.exitcode is not None for process in processes)

    def test_retired_worker_is_reaped_and_the_survivor_serves(self):
        ids = np.asarray(STREAM.identifiers, dtype=np.int64)
        serial = _service("serial")
        with _service("process", workers=1) as service:
            added = service.add_worker()
            retired = service.backend._processes[added]
            service.migrate_shard(0, added)
            for chunk in (ids[:2048], ids[2048:4096]):
                assert np.array_equal(service.on_receive_batch(chunk),
                                      serial.on_receive_batch(chunk))
            service.remove_worker(added)
            assert retired.exitcode is not None
            assert service.backend._processes[added] is None
            assert np.array_equal(service.on_receive_batch(ids[4096:]),
                                  serial.on_receive_batch(ids[4096:]))
            assert service.merged_memory() == serial.merged_memory()

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_worker_that_raises_poisons_the_backend(self, backend):
        # the raising worker's shards are half-updated and the other
        # worker's reply is still unread: no later request may run
        service = ShardedSamplingService(2, _raising_factory, random_state=3,
                                         backend=backend, workers=2)
        try:
            with pytest.raises(WorkerCrashError,
                               match="raised while serving 'batch'"):
                service.on_receive_batch(STREAM.identifiers[:64])
            with pytest.raises(WorkerCrashError, match="desynchronised"):
                service.on_receive_batch(STREAM.identifiers[:64])
        finally:
            service.close()
        _assert_no_leaked_workers()


# --------------------------------------------------------------------- #
# Pool supervision (both pools): re-spawn, snapshots, bounded replay; and
# the socket-only endpoint and authentication paths
# --------------------------------------------------------------------- #
class TestSocketSupervision:
    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_worker_killed_mid_run_recovers_bit_identical(self, backend):
        serial = _service("serial", seed=23)
        ids = np.asarray(STREAM.identifiers, dtype=np.int64)
        with _service(backend, seed=23, workers=2) as service:
            a1 = serial.on_receive_batch(ids[:4000])
            b1 = service.on_receive_batch(ids[:4000])
            victim = service.backend._processes[0]
            victim.kill()
            victim.join(timeout=5.0)
            a2 = serial.on_receive_batch(ids[4000:])
            b2 = service.on_receive_batch(ids[4000:])
            assert np.array_equal(a1, b1)
            assert np.array_equal(a2, b2)
            assert service.backend.respawns >= 1
            assert serial.merged_memory() == service.merged_memory()
            assert serial.shard_loads() == service.shard_loads()
            assert serial.sample_many(100) == service.sample_many(100)

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_stats_proxies_serial_identical_after_recovery(self, backend):
        # the memory proxies answer from the *rebuilt* workers and the
        # loads from the parent's count, so a mid-run kill must leave them
        # serial-identical, repeatedly
        serial = _service("serial", seed=23)
        ids = np.asarray(STREAM.identifiers, dtype=np.int64)
        with _service(backend, seed=23, workers=2) as service:
            for round_number, (start, stop) in enumerate(
                    [(0, 3000), (3000, 6000), (6000, 8000)]):
                serial.on_receive_batch(ids[start:stop])
                service.on_receive_batch(ids[start:stop])
                assert serial.shard_loads() == service.shard_loads()
                assert serial.memory_sizes() == service.memory_sizes()
                assert serial.merged_memory() == service.merged_memory()
                if round_number < 2:  # kill a different worker each round
                    victim = service.backend._processes[round_number % 2]
                    victim.kill()
                    victim.join(timeout=5.0)
            assert service.backend.respawns >= 2

    def test_socket_worker_crash_mid_dispatch_recovers(self):
        # the kill lands while the batch request is in flight; the
        # supervisor re-spawns the worker and replays it transparently
        service = ShardedSamplingService(2, _sleepy_factory, random_state=3,
                                         backend="socket", workers=2)
        try:
            victim = service.backend._processes[0]
            killer = threading.Timer(0.2, victim.kill)
            killer.start()
            outputs = service.on_receive_batch(STREAM.identifiers[:64])
            killer.join()
            assert np.array_equal(
                np.sort(outputs),
                np.sort(np.asarray(STREAM.identifiers[:64], dtype=np.int64)))
            assert service.backend.respawns >= 1
        finally:
            service.close()

    def test_snapshot_bounds_the_replay_after_a_kill(self):
        factory = KnowledgeFreeShardFactory(10, sketch_width=32,
                                            sketch_depth=4)
        ids = np.asarray(STREAM.identifiers, dtype=np.int64)
        for name in PARALLEL_BACKENDS:  # the one supervisor, on both pools
            serial = SerialBackend(4, factory, spawn_children(7, 4))
            backend = make_backend(name, 4, factory, spawn_children(7, 4),
                                   workers=2)
            backend._snapshot_every = 2
            try:
                for start in range(0, 4000, 500):
                    chunk = ids[start:start + 500]
                    assert np.array_equal(
                        serial.dispatch(chunk, chunk % 4),
                        backend.dispatch(chunk, chunk % 4))
                # snapshots were collected, so the journal stays bounded
                assert all(blob is not None for blob in backend._snapshots)
                assert all(len(journal) <= 2
                           for journal in backend._journals)
                victim = backend._processes[1]
                victim.kill()
                victim.join(timeout=5.0)
                for start in range(4000, 8000, 500):
                    chunk = ids[start:start + 500]
                    assert np.array_equal(
                        serial.dispatch(chunk, chunk % 4),
                        backend.dispatch(chunk, chunk % 4))
                assert backend.respawns >= 1
                assert serial.shard_memories() == backend.shard_memories()
            finally:
                backend.close()

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_deterministically_crashing_request_is_bounded(self, backend):
        # a request that kills its worker on every attempt must not
        # re-spawn forever: after max_respawns recoveries the crash surfaces
        pool = make_backend(backend, 2, _suicidal_factory,
                            spawn_children(3, 2), workers=2)
        pool._max_respawns = 2
        try:
            chunk = np.arange(50, dtype=np.int64)
            with pytest.raises(WorkerCrashError, match="crashed 3 times"):
                pool.dispatch(chunk, chunk % 2)
            assert pool.respawns == 2
        finally:
            pool.close()
        _assert_no_leaked_workers()

    def test_remote_endpoint_lost_for_good_is_bounded(self):
        # a remote endpoint (not backend-owned) cannot be re-spawned: after
        # max_respawns reconnect attempts the failure surfaces
        process, endpoint = _spawn_server_process(b"test-secret")
        backend = SocketBackend(2, _mute_factory, spawn_children(3, 2),
                                workers=2, endpoints=[endpoint],
                                auth_token=b"test-secret")
        backend._max_respawns = 2
        try:
            chunk = np.arange(100, dtype=np.int64)
            backend.dispatch(chunk, chunk % 2)
            process.kill()
            process.join(timeout=5.0)
            with pytest.raises(WorkerCrashError,
                               match="could not be re-spawned after 2"):
                backend.dispatch(chunk, chunk % 2)
        finally:
            backend.close()
            if process.is_alive():  # pragma: no cover - defensive
                process.kill()

    def test_remote_endpoints_match_serial(self, worker_server):
        host, port = worker_server.address
        endpoint = f"{host}:{port}"
        serial = _service("serial", seed=23)
        with _service("socket", seed=23, workers=2,
                      endpoints=[endpoint],
                      auth_token=b"test-secret") as remote:
            a = serial.on_receive_batch(STREAM.identifiers[:2000])
            b = remote.on_receive_batch(STREAM.identifiers[:2000])
            assert np.array_equal(a, b)
            assert serial.merged_memory() == remote.merged_memory()

    def test_bad_auth_token_rejected(self, worker_server):
        # a token mismatch fails the mutual handshake on the client side
        # (the server's HMAC cannot be verified) before anything untrusted
        # is unpickled
        host, port = worker_server.address
        with pytest.raises(AuthenticationError, match="prove knowledge"):
            _service("socket", workers=2, endpoints=[f"{host}:{port}"],
                     auth_token=b"not-the-secret")
        _assert_no_leaked_workers()

    def test_non_worker_endpoint_rejected_without_unpickling(self):
        # a port squatter that speaks the framing but not the handshake is
        # refused: its bytes never reach pickle.loads on the parent side
        import struct as struct_module

        listener = socket_module.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()[:2]

        def impostor():
            connection, _ = listener.accept()
            connection.recv(4096)  # the client's nonce
            evil = b"arbitrary-not-a-valid-handshake-reply"
            connection.sendall(struct_module.pack(">Q", len(evil)) + evil)
            connection.close()

        thread = threading.Thread(target=impostor, daemon=True)
        thread.start()
        try:
            with pytest.raises(AuthenticationError, match="prove knowledge"):
                _service("socket", workers=1, shards=1,
                         endpoints=[f"{host}:{port}"],
                         auth_token=b"whatever")
        finally:
            listener.close()

    def test_remote_endpoints_require_auth_token(self):
        with pytest.raises(ValueError, match="auth token"):
            SocketBackend(2, _mute_factory, spawn_children(3, 2),
                          endpoints=["127.0.0.1:9"])


# --------------------------------------------------------------------- #
# WorkerServer shutdown
# --------------------------------------------------------------------- #
class TestWorkerServerShutdown:

    def test_close_wakes_blocked_accept_loop_promptly(self):
        """close() from another thread must not wait out poll_interval."""
        server = WorkerServer("127.0.0.1", 0, b"test-secret")
        thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 30.0}, daemon=True)
        thread.start()
        time.sleep(0.2)  # let the loop block in select()
        started = time.monotonic()
        server.close()
        thread.join(timeout=5.0)
        elapsed = time.monotonic() - started
        assert not thread.is_alive(), \
            "serve_forever did not return after close()"
        assert elapsed < 5.0

    def test_close_before_serve_and_double_close_are_safe(self):
        server = WorkerServer("127.0.0.1", 0, b"test-secret")
        server.close()
        server.close()
        # a closed server's serve loop returns immediately
        server.serve_forever(poll_interval=0.05)


# --------------------------------------------------------------------- #
# Public snapshot / restore
# --------------------------------------------------------------------- #
class TestSnapshotRestore:
    """snapshot(); restore() is invisible in every subsequent output."""

    def _reference(self, ids):
        service = _service("serial")
        service.on_receive_batch(ids)
        samples = service.sample_many(30, strict=False)
        memory = service.merged_memory()
        service.close()
        return samples, memory

    def test_serial_snapshot_restore_is_invisible(self):
        ids = np.asarray(STREAM.identifiers, dtype=np.int64)
        half = ids.size // 2
        ref_samples, ref_memory = self._reference(ids)
        service = _service("serial")
        service.on_receive_batch(ids[:half])
        blob = service.snapshot()
        # mutating the snapshotted service must not leak into the blob
        service.on_receive_batch(ids[half:])
        service.close()
        restored = ShardedSamplingService.restore(blob)
        restored.on_receive_batch(ids[half:])
        assert restored.elements_processed == ids.size
        assert restored.sample_many(30, strict=False) == ref_samples
        assert restored.merged_memory() == ref_memory
        restored.close()

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_parallel_snapshot_restores_cross_backend(self, backend):
        ids = np.asarray(STREAM.identifiers, dtype=np.int64)
        half = ids.size // 2
        ref_samples, ref_memory = self._reference(ids)
        with _service(backend, workers=2) as service:
            service.on_receive_batch(ids[:half])
            blob = service.snapshot()
        for target, kwargs in [("serial", {}), (backend, {"workers": 2})]:
            restored = ShardedSamplingService.restore(blob, backend=target,
                                                      **kwargs)
            restored.on_receive_batch(ids[half:])
            assert restored.elements_processed == ids.size
            assert restored.sample_many(30, strict=False) == ref_samples
            assert restored.merged_memory() == ref_memory
            restored.close()

    def test_restore_remaps_placement_to_new_pool_shape(self):
        """socket/4 workers -> process/2 workers: re-mapped, bit-identical.

        The snapshot deliberately omits the placement table; restore lays
        the shards out round-robin over whatever pool it is given, so the
        same blob serves any backend and worker count.
        """
        ids = np.asarray(STREAM.identifiers, dtype=np.int64)
        half = ids.size // 2
        ref_samples, ref_memory = self._reference(ids)
        with _service("socket", workers=4) as service:
            assert service.placement.workers == 4
            service.on_receive_batch(ids[:half])
            blob = service.snapshot()
        restored = ShardedSamplingService.restore(blob, backend="process",
                                                  workers=2)
        try:
            table = restored.placement.to_dict()
            assert table["workers"] == 2
            assert table["shards_by_worker"] == {0: [0, 2], 1: [1, 3]}
            restored.on_receive_batch(ids[half:])
            assert restored.elements_processed == ids.size
            assert restored.sample_many(30, strict=False) == ref_samples
            assert restored.merged_memory() == ref_memory
        finally:
            restored.close()

    def test_restore_rejects_non_snapshot_blobs(self):
        import pickle

        with pytest.raises(ValueError, match="snapshot"):
            ShardedSamplingService.restore(pickle.dumps({"format": 999}))
        with pytest.raises(ValueError, match="snapshot"):
            ShardedSamplingService.restore(pickle.dumps([1, 2, 3]))

    def test_seed_loads_validates_shard_count(self):
        backend = make_backend("process", 4, _mute_factory,
                              spawn_children(1, 4), workers=2)
        try:
            with pytest.raises(ValueError, match="shard loads"):
                backend.seed_loads([1, 2, 3])
        finally:
            backend.close()


# --------------------------------------------------------------------- #
# Configuration surfaces
# --------------------------------------------------------------------- #
class TestBackendSelection:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown execution backend"):
            _service("quantum")

    @pytest.mark.parametrize("knob", [{"workers": 2}], ids=["workers"])
    def test_serial_backend_rejects_workers(self, knob):
        with pytest.raises(ValueError, match="serial"):
            _service("serial", **knob)

    def test_non_socket_backends_reject_endpoints(self):
        with pytest.raises(ValueError, match="endpoints"):
            _service("process", shards=2, endpoints=["127.0.0.1:7333"])

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("knob", [{"auth_token": "secret"}],
                             ids=["auth_token"])
    def test_non_socket_backends_reject_auth_tokens(self, backend, knob):
        with pytest.raises(ValueError, match="auth token"):
            make_backend(backend, 2, _mute_factory, spawn_children(1, 2),
                         **knob)

    def test_services_property_requires_serial(self):
        assert len(_service("serial").services) == 4
        with _service("process", shards=2) as service:
            with pytest.raises(BackendError, match="worker processes"):
                service.services

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_worker_count_is_clamped_to_shards(self, backend):
        with _service(backend, shards=2, workers=8) as service:
            assert service.backend.workers == 2

    def test_make_backend_validation(self):
        rngs = spawn_children(1, 2)
        with pytest.raises(ValueError, match="unknown execution backend"):
            make_backend("gpu", 2, _mute_factory, rngs)
        with pytest.raises(ValueError, match="endpoints"):
            make_backend("serial", 2, _mute_factory, rngs,
                         endpoints=["127.0.0.1:7333"])

    def test_constructor_and_resolver_validation(self):
        # every chunk rides a pickled frame: there is no transport knob
        for knob in ({"transport": "pickle"}, {"ring_slots": 2},
                     {"slot_bytes": 64}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                ProcessBackend(4, _mute_factory, spawn_children(23, 4),
                               workers=2, **knob)
            with pytest.raises(TypeError, match="unexpected keyword"):
                make_backend("process", 4, _mute_factory,
                             spawn_children(23, 4), **knob)


class TestEngineSpec:
    def test_backend_round_trips_through_json(self):
        spec = EngineSpec(shards=4, backend="process", workers=2)
        rebuilt = EngineSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_socket_backend_round_trips_through_json(self):
        spec = EngineSpec(shards=4, backend="socket", workers=2,
                          endpoints=["10.0.0.1:7333", "10.0.0.2:7333"],
                          auth_token_file="/run/secrets/workers")
        rebuilt = EngineSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_defaults_stay_serial(self):
        spec = EngineSpec.from_dict({"driver": "batch"})
        assert spec.backend == "serial"
        assert spec.workers is None
        assert spec.endpoints is None
        assert spec.auth_token_file is None

    def test_unknown_backend_rejected(self):
        with pytest.raises(ScenarioError, match="engine backend"):
            EngineSpec(shards=2, backend="gpu")

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_parallel_backends_require_shards(self, backend):
        with pytest.raises(ScenarioError, match="shards"):
            EngineSpec(backend=backend)

    def test_workers_require_parallel_backend(self):
        with pytest.raises(ScenarioError, match="workers"):
            EngineSpec(shards=2, workers=2)

    def test_endpoints_require_socket_backend(self):
        with pytest.raises(ScenarioError, match="endpoints"):
            EngineSpec(shards=2, backend="process",
                       endpoints=["127.0.0.1:7333"])

    def test_endpoints_require_auth_token_file(self):
        with pytest.raises(ScenarioError, match="auth_token_file"):
            EngineSpec(shards=2, backend="socket",
                       endpoints=["127.0.0.1:7333"])

    def test_malformed_endpoint_rejected(self):
        with pytest.raises(ScenarioError, match="host:port"):
            EngineSpec(shards=2, backend="socket", endpoints=["nonsense"],
                       auth_token_file="token")

    def test_auth_token_file_requires_socket_backend(self):
        with pytest.raises(ScenarioError, match="auth_token_file"):
            EngineSpec(shards=2, backend="process",
                       auth_token_file="token")

    def test_scenario_spec_round_trip_keeps_backend(self):
        spec = ScenarioSpec.load(EXAMPLES / "sharded_zipf.json")
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert rebuilt.engine.shards == 4
        assert rebuilt.engine.backend == "serial"

    def test_autoscale_round_trips_through_dict(self):
        spec = EngineSpec(shards=4,
                          autoscale={"min_workers": 1, "max_workers": 3,
                                     "target_load_per_worker": 2_000})
        rebuilt = EngineSpec.from_dict(spec.to_dict())
        assert rebuilt.autoscale == spec.autoscale
        assert rebuilt.autoscale.max_workers == 3

    def test_autoscale_requires_shards(self):
        with pytest.raises(ScenarioError, match="engine.shards"):
            EngineSpec(autoscale=True)

    def test_invalid_autoscale_policy_rejected(self):
        with pytest.raises(ScenarioError, match="engine.autoscale"):
            EngineSpec(shards=4, autoscale={"min_workers": 0})

    def test_engine_spec_validation(self):
        for knob in ("transport", "ring_slots"):
            with pytest.raises(ScenarioError, match="unknown key"):
                EngineSpec.from_dict({"shards": 4, "backend": "process",
                                      knob: 2})


#: One mistake per backend-option rule: ``(backend, options, field)``.
#: ``options`` are library keywords (``auth_token: True`` stands for "a
#: token is given": the library gets the token, the spec and the CLI the
#: file that holds it); ``field`` is the ``engine.`` field at fault.
OPTION_MISTAKES = {
    "serial-workers": ("serial", {"workers": 2}, "workers"),
    "nonpositive-workers": ("process", {"workers": 0}, "workers"),
    "process-endpoints": ("process", {"endpoints": ["127.0.0.1:7333"]},
                          "endpoints"),
    "process-auth-token": ("process", {"auth_token": True},
                           "auth_token_file"),
    "empty-endpoints": ("socket", {"endpoints": [], "auth_token": True},
                        "endpoints"),
    "malformed-endpoint": ("socket", {"endpoints": ["nonsense"],
                                      "auth_token": True}, "endpoints"),
    "endpoints-without-token": ("socket",
                                {"endpoints": ["127.0.0.1:7333"]},
                                "auth_token_file"),
}


class TestBackendOptionRules:
    """Each backend rule is stated once, so a mistake reads the same on
    every surface: the library, a scenario's engine section and the CLI."""

    @pytest.mark.parametrize("mistake", sorted(OPTION_MISTAKES))
    def test_one_message_on_every_surface(self, mistake, tmp_path):
        backend, options, field = OPTION_MISTAKES[mistake]
        token_file = tmp_path / "worker.token"
        token_file.write_bytes(b"secret\n")
        library = dict(options)
        spec = dict(options)
        flags = ["--backend", backend]
        if "workers" in options:
            flags += ["--workers", str(options["workers"])]
        if "endpoints" in options:
            flags += ["--endpoints", ",".join(options["endpoints"])]
        if spec.pop("auth_token", None):
            library["auth_token"] = b"secret"
            spec["auth_token_file"] = str(token_file)

        with pytest.raises(BackendOptionError) as raised:
            make_backend(backend, 2, _mute_factory, spawn_children(1, 2),
                         **library)
        message = str(raised.value)
        with pytest.raises(ScenarioError) as raised:
            EngineSpec(shards=2, backend=backend, **spec)
        assert str(raised.value) == f"engine.{field}: {message}"

        def token_flag(name):
            return [name, str(token_file)] if "auth_token" in options else []

        surfaces = [
            (["run", str(EXAMPLES / "sharded_zipf.json")]
             + token_flag("--auth-token-file"),
             f"repro run: engine.{field}: {message}"),
            (["throughput"] + token_flag("--auth-token-file"),
             f"repro throughput: {message}"),
            (["serve", "--listen", "127.0.0.1:0",
              "--auth-token-file", str(token_file)]
             + token_flag("--worker-auth-token-file"),
             f"repro serve: {message}"),
        ]
        for argv, expected in surfaces:
            with pytest.raises(SystemExit) as raised:
                main(argv + flags)
            assert raised.value.code == expected


class TestCli:
    def test_throughput_against_worker_serve_endpoints(self, capsys,
                                                       tmp_path,
                                                       worker_server):
        host, port = worker_server.address
        token_file = tmp_path / "worker.token"
        token_file.write_bytes(b"test-secret\n")
        assert main(["throughput", "--stream-size", "4000",
                     "--population-size", "400", "--scalar-limit", "2000",
                     "--batch-size", "1024", "--memory-size", "5",
                     "--sketch-width", "8", "--sketch-depth", "3",
                     "--shards", "2", "--backend", "socket",
                     "--workers", "2", "--endpoints", f"{host}:{port}",
                     "--auth-token-file", str(token_file), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exact"] is True
        assert report["config"]["backend"] == "socket"
        assert report["config"]["workers"] == 2

    def test_run_with_process_backend(self, capsys):
        assert main(["run", str(EXAMPLES / "sharded_zipf.json"),
                     "--backend", "process", "--workers", "2",
                     "--trials", "1"]) == 0
        assert "knowledge-free" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", PARALLEL_BACKENDS)
    def test_run_backend_override_matches_serial(self, capsys, backend):
        spec = str(EXAMPLES / "sharded_zipf.json")
        assert main(["run", spec, "--trials", "1", "--json"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["run", spec, "--trials", "1", "--json",
                     "--backend", backend, "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_run_against_worker_serve_endpoints(self, capsys, tmp_path,
                                                worker_server):
        host, port = worker_server.address
        token_file = tmp_path / "worker.token"
        token_file.write_bytes(b"test-secret\n")
        spec = str(EXAMPLES / "sharded_zipf.json")
        assert main(["run", spec, "--trials", "1", "--json"]) == 0
        serial_out = capsys.readouterr().out
        assert main(["run", spec, "--trials", "1", "--json",
                     "--backend", "socket", "--workers", "2",
                     "--endpoints", f"{host}:{port}",
                     "--auth-token-file", str(token_file)]) == 0
        assert capsys.readouterr().out == serial_out

    def test_worker_serve_subcommand(self, tmp_path):
        # end to end through the CLI entry point, in a real server process
        token_file = tmp_path / "worker.token"
        token_file.write_bytes(b"cli-secret\n")
        with socket_module.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        context = multiprocessing.get_context()
        server = context.Process(
            target=main,
            args=(["worker", "serve", "--listen", f"127.0.0.1:{port}",
                   "--auth-token-file", str(token_file)],),
            daemon=True)
        server.start()
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                try:
                    socket_module.create_connection(("127.0.0.1", port),
                                                    timeout=1.0).close()
                    break
                except OSError:
                    time.sleep(0.1)
            else:
                raise AssertionError("worker server never came up")
            serial = _service("serial", seed=29, shards=2)
            with _service("socket", seed=29, shards=2, workers=2,
                          endpoints=[f"127.0.0.1:{port}"],
                          auth_token=b"cli-secret") as remote:
                a = serial.on_receive_batch(STREAM.identifiers[:1000])
                b = remote.on_receive_batch(STREAM.identifiers[:1000])
                assert np.array_equal(a, b)
        finally:
            server.terminate()
            server.join(timeout=5.0)

    def test_worker_serve_sigterm_drains_and_exits_zero(self, tmp_path):
        # SIGTERM (docker stop / compose scale-down) must be a graceful
        # drain: in-flight sessions finish and the process exits 0
        token_file = tmp_path / "worker.token"
        token_file.write_bytes(b"cli-secret\n")
        with socket_module.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        context = multiprocessing.get_context()
        server = context.Process(
            target=main,
            args=(["worker", "serve", "--listen", f"127.0.0.1:{port}",
                   "--auth-token-file", str(token_file)],),
            daemon=True)
        server.start()
        try:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                try:
                    socket_module.create_connection(("127.0.0.1", port),
                                                    timeout=1.0).close()
                    break
                except OSError:
                    time.sleep(0.1)
            else:
                raise AssertionError("worker server never came up")
            with _service("socket", seed=29, shards=2, workers=1,
                          endpoints=[f"127.0.0.1:{port}"],
                          auth_token=b"cli-secret") as remote:
                remote.on_receive_batch(STREAM.identifiers[:1000])
                # SIGTERM with a session still attached: the server must
                # stop accepting but wait for the session to finish
                server.terminate()
                time.sleep(0.3)
                assert server.is_alive(), \
                    "server dropped a live session on SIGTERM"
                # the session stays usable while the host drains
                remote.on_receive_batch(STREAM.identifiers[1000:2000])
            server.join(timeout=15.0)
            assert server.exitcode == 0
        finally:
            if server.is_alive():  # pragma: no cover - failure cleanup
                server.kill()
                server.join(timeout=5.0)

    def test_throughput_process_backend(self, capsys):
        assert main(["throughput", "--stream-size", "20000",
                     "--population-size", "2000", "--scalar-limit", "4000",
                     "--backend", "process", "--workers", "2"]) == 0
        assert "[process w=2]" in capsys.readouterr().out

    def test_throughput_socket_backend(self, capsys):
        assert main(["throughput", "--stream-size", "20000",
                     "--population-size", "2000", "--scalar-limit", "4000",
                     "--backend", "socket", "--workers", "2"]) == 0
        assert "[socket w=2]" in capsys.readouterr().out
