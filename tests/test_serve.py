"""Tests for repro.serve (the always-on sampling service).

The headline guarantee under test is the wire bit-identity invariant: a
fixed sequence of ingest batches over the wire — spread across several
client connections, with a mid-run drain/restart — yields outputs,
samples and merged memory identical to the batch engine run on the
concatenated stream with the same seed, on the serial and socket
backends alike.
"""

import json
import logging
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.bench.compare import compare_records, load_record
from repro.cli import main
from repro.engine import AuthenticationError, ShardedSamplingService
from repro.engine.backends import wire
from repro.serve import (
    BackpressureError,
    IngestRetryError,
    ServeClient,
    ServeError,
    ServerThread,
    run_loadgen,
)
from repro.streams import zipf_stream
from repro.telemetry import MetricsRegistry

STREAM = zipf_stream(12_288, 1_200, alpha=1.2, random_state=11)
IDS = np.asarray(STREAM.identifiers, dtype=np.int64)
TOKEN = "serve-test-token"


def _service(seed=31, shards=4, backend="serial", **kwargs):
    return ShardedSamplingService.knowledge_free(
        shards=shards, memory_size=10, sketch_width=32, sketch_depth=4,
        random_state=seed, backend=backend, **kwargs)


def _reference(seed=31, shards=4):
    """Outputs/samples/memory of a local batch run on the full stream."""
    service = _service(seed, shards)
    outputs = [int(value) for value in service.on_receive_batch(IDS)]
    samples = service.sample_many(40, strict=False)
    memory = service.merged_memory()
    service.close()
    return outputs, samples, memory


# --------------------------------------------------------------------- #
# Wire equivalence
# --------------------------------------------------------------------- #
class TestWireEquivalence:

    @pytest.mark.parametrize("backend", ["serial", "socket"])
    def test_multi_connection_with_drain_restart(self, backend, tmp_path):
        """Wire run == local batch run, across a drain/restart boundary."""
        ref_outputs, ref_samples, ref_memory = _reference()
        kwargs = {"workers": 2} if backend == "socket" else {}
        state = tmp_path / "state.snap"
        half = IDS.size // 2  # batch-aligned: 6 * 1024
        outputs = []

        thread = ServerThread(_service(backend=backend, **kwargs), TOKEN,
                              state_file=str(state))
        address = thread.start()
        clients = [ServeClient(address, auth_token=TOKEN) for _ in range(3)]
        batches = [IDS[start:start + 1024] for start in range(0, half, 1024)]
        for index, batch in enumerate(batches):
            reply = clients[index % 3].ingest(batch, return_outputs=True)
            outputs.extend(reply["outputs"])
        report = clients[0].drain()
        assert report["state_file"] == str(state)
        for client in clients:
            client.close()
        thread.drain()
        assert state.exists()

        restored = ShardedSamplingService.restore(
            state.read_bytes(), backend=backend, **kwargs)
        thread = ServerThread(restored, TOKEN, state_file=str(state))
        address = thread.start()
        clients = [ServeClient(address, auth_token=TOKEN) for _ in range(2)]
        batches = [IDS[start:start + 1024]
                   for start in range(half, IDS.size, 1024)]
        for index, batch in enumerate(batches):
            reply = clients[index % 2].ingest(batch, return_outputs=True)
            outputs.extend(reply["outputs"])
        samples = clients[0].sample_many(40, strict=False)
        memory = clients[1].memory()
        stats = clients[0].stats()
        for client in clients:
            client.close()
        thread.drain()

        assert outputs == ref_outputs
        assert samples == ref_samples
        assert memory == ref_memory
        assert stats["elements"] == IDS.size

    def test_arrival_order_rule_across_connections(self):
        """Ack-sequenced sends from 3 clients apply in ack order."""
        order = [0, 2, 1, 1, 0, 2, 2, 0, 1, 0, 1, 2]
        batches = [IDS[index * 1024:(index + 1) * 1024]
                   for index in range(len(order))]
        reference = _service(seed=77)
        for batch in batches:
            reference.on_receive_batch(batch)
        ref_samples = reference.sample_many(20, strict=False)
        ref_memory = reference.merged_memory()
        reference.close()

        thread = ServerThread(_service(seed=77), TOKEN)
        address = thread.start()
        clients = {key: ServeClient(address, auth_token=TOKEN)
                   for key in set(order)}
        for key, batch in zip(order, batches):
            # waiting for each ack before the next send (from any
            # connection) pins the global arrival order — the protocol's
            # normative ordering rule
            clients[key].ingest(batch)
        samples = clients[0].sample_many(20, strict=False)
        memory = clients[1].memory()
        for client in clients.values():
            client.close()
        thread.drain()
        assert samples == ref_samples
        assert memory == ref_memory

    def test_concurrent_clients_all_batches_land(self):
        """Unsequenced concurrent ingest: totals add up, queue drains."""
        thread = ServerThread(_service(seed=5), TOKEN, connection_hwm=4)
        address = thread.start()
        errors = []

        def work(offset):
            try:
                with ServeClient(address, auth_token=TOKEN) as client:
                    for start in range(offset, IDS.size, 4 * 1024):
                        client.ingest(IDS[start:start + 1024],
                                      max_retries=32)
            except BaseException as error:  # surfaced below
                errors.append(error)

        workers = [threading.Thread(target=work, args=(lane * 1024,))
                   for lane in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not errors
        with ServeClient(address, auth_token=TOKEN) as client:
            stats = client.stats()
        thread.drain()
        assert stats["elements"] == IDS.size
        assert stats["inflight"] == 0


# --------------------------------------------------------------------- #
# Backpressure and errors
# --------------------------------------------------------------------- #
class _SlowService:
    """Wrap a service so every ingest stalls (forces queue buildup)."""

    def __init__(self, inner, delay=0.2):
        self._inner = inner
        self._delay = delay
        #: Set when an admitted ingest starts running.
        self.ingesting = threading.Event()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def on_receive_batch(self, identifiers):
        self.ingesting.set()
        time.sleep(self._delay)
        return self._inner.on_receive_batch(identifiers)


class TestBackpressure:

    def test_pipelined_overload_rejects_in_order(self):
        thread = ServerThread(_SlowService(_service(seed=1)), TOKEN,
                              queue_cap=1, connection_hwm=16,
                              retry_after=0.01)
        address = thread.start()
        client = ServeClient(address, auth_token=TOKEN)
        for seq in range(4):
            client.send_command("ingest", {"ids": IDS[:64], "seq": seq})
        replies = [client.read_reply() for _ in range(4)]
        client.close()
        thread.drain()
        # replies arrive in request order, rejections included
        assert [reply[1]["seq"] for reply in replies] == [0, 1, 2, 3]
        assert replies[0][0] is True
        rejected = [reply for ok, reply in replies if not ok]
        assert rejected, "expected at least one backpressure rejection"
        for reply in rejected:
            assert reply["error"] == "backpressure"
            assert reply["retry_after"] > 0

    def test_client_retries_through_backpressure(self):
        slow = _SlowService(_service(seed=2), delay=0.05)
        thread = ServerThread(slow, TOKEN, queue_cap=1, connection_hwm=16,
                              retry_after=0.02)
        address = thread.start()
        with ServeClient(address, auth_token=TOKEN) as probe:
            with ServeClient(address, auth_token=TOKEN) as client:
                # saturate the queue, then check the retry loop lands the
                # batch anyway.  The two connections' frames can reach the
                # server in either order, so the probe waits until the
                # client's ingest holds the one slot.
                client.send_command("ingest", {"ids": IDS[:64]})
                assert slow.ingesting.wait(timeout=30)
                result = probe.ingest(IDS[64:128], max_retries=50)
                assert result["count"] == 64
                assert client.read_reply()[0] is True
        thread.drain()

    def test_wrong_token_is_rejected(self):
        thread = ServerThread(_service(seed=3), TOKEN)
        address = thread.start()
        with pytest.raises(AuthenticationError):
            ServeClient(address, auth_token="wrong-token")
        thread.drain()

    def test_remote_failure_surfaces_as_serve_error(self):
        thread = ServerThread(_service(seed=4), TOKEN)
        address = thread.start()
        with ServeClient(address, auth_token=TOKEN) as client:
            with pytest.raises(ServeError):
                client.sample_many(5, strict=True)  # empty ensemble
            assert client.ping()  # session survives the failed request
        thread.drain()


class TestMalformedFrames:

    def test_unpicklable_frame_is_answered_then_closed(self, caplog):
        thread = ServerThread(_service(seed=5), TOKEN)
        address = thread.start()
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with ServeClient(address, auth_token=TOKEN) as client:
                wire.send_raw_frame(client._connection,
                                    b"\x80\x05garbage-not-a-pickle")
                assert client.read_reply() == (
                    False, "malformed frame: expected (command, payload)")
                with pytest.raises(wire.ConnectionLost):
                    client.read_reply()
            with ServeClient(address, auth_token=TOKEN) as client:
                assert client.ping()
        thread.drain()
        assert not [record for record in caplog.records
                    if record.name == "asyncio"
                    and record.levelno >= logging.ERROR]


class TestIngestBackoff:
    """The client retry loop: server hints, exponential growth, a cap,
    and a typed error once the budget runs out."""

    def _stub_client(self, monkeypatch, retry_after):
        client = ServeClient.__new__(ServeClient)  # no connection needed
        requests = []

        def fail(command, payload):
            requests.append(command)
            raise BackpressureError(retry_after)

        sleeps = []
        monkeypatch.setattr(client, "_request", fail, raising=False)
        monkeypatch.setattr("repro.serve.client.time.sleep", sleeps.append)
        return client, requests, sleeps

    def test_backoff_honours_hint_doubles_and_caps(self, monkeypatch):
        client, requests, sleeps = self._stub_client(monkeypatch, 0.04)
        with pytest.raises(IngestRetryError) as info:
            client.ingest(IDS[:8], max_retries=4,
                          backoff_base=0.01, backoff_cap=0.1)
        # hint-seeded, doubled per consecutive rejection, capped
        assert sleeps == pytest.approx([0.04, 0.08, 0.1, 0.1])
        assert len(requests) == 5  # initial send + 4 retries
        assert info.value.attempts == 4
        assert info.value.slept == pytest.approx(sum(sleeps))
        assert isinstance(info.value.__cause__, BackpressureError)

    def test_backoff_base_floors_a_tiny_hint(self, monkeypatch):
        client, _, sleeps = self._stub_client(monkeypatch, 0.001)
        with pytest.raises(IngestRetryError):
            client.ingest(IDS[:8], max_retries=3,
                          backoff_base=0.02, backoff_cap=1.0)
        assert sleeps == pytest.approx([0.02, 0.04, 0.08])

    def test_zero_budget_raises_raw_backpressure(self, monkeypatch):
        client, requests, sleeps = self._stub_client(monkeypatch, 0.01)
        with pytest.raises(BackpressureError):
            client.ingest(IDS[:8])
        assert requests == ["ingest"] and sleeps == []

    def test_budget_exhaustion_over_the_wire(self):
        thread = ServerThread(_SlowService(_service(seed=6), delay=0.5),
                              TOKEN, queue_cap=1, connection_hwm=16,
                              retry_after=0.01)
        address = thread.start()
        with ServeClient(address, auth_token=TOKEN) as client:
            with ServeClient(address, auth_token=TOKEN) as probe:
                client.send_command("ingest", {"ids": IDS[:64]})
                time.sleep(0.1)  # the slow ingest now occupies the queue
                with pytest.raises(IngestRetryError) as info:
                    probe.ingest(IDS[64:128], max_retries=2,
                                 backoff_base=0.01, backoff_cap=0.05)
                assert isinstance(info.value.__cause__, BackpressureError)
                assert client.read_reply()[0] is True
        thread.drain()


class TestPlacementStats:
    def test_stats_expose_the_placement_plane(self):
        thread = ServerThread(_service(backend="socket", workers=2), TOKEN)
        address = thread.start()
        with ServeClient(address, auth_token=TOKEN) as client:
            client.ingest(IDS[:1024])
            stats = client.stats()
        thread.drain()
        placement = stats["placement"]
        assert placement["workers"] == 2
        assert placement["supports_scaling"] is True
        assert placement["table"] == [0, 1, 0, 1]
        assert placement["migrations"] == 0
        assert placement["migrations_in_flight"] == 0
        assert placement["autoscale"] is None

    def test_stats_report_autoscale_policy_and_growth(self):
        service = _service(backend="process", workers=1, autoscale={
            "min_workers": 1, "max_workers": 2,
            "target_load_per_worker": 2_000, "check_every": 1_024})
        thread = ServerThread(service, TOKEN)
        address = thread.start()
        with ServeClient(address, auth_token=TOKEN) as client:
            for start in range(0, 6 * 1024, 1024):
                client.ingest(IDS[start:start + 1024])
            stats = client.stats()
        thread.drain()
        placement = stats["placement"]
        assert placement["workers"] == 2
        assert placement["autoscale"]["policy"]["max_workers"] == 2
        assert placement["autoscale"]["scale_ups"] == 1
        assert placement["autoscale"]["evaluations"] > 0


# --------------------------------------------------------------------- #
# Stats and telemetry
# --------------------------------------------------------------------- #
class TestStats:

    def test_stats_shape_and_uniformity(self):
        registry = MetricsRegistry()
        thread = ServerThread(_service(seed=6), TOKEN, registry=registry)
        address = thread.start()
        with ServeClient(address, auth_token=TOKEN) as client:
            client.ingest(IDS[:4096])
            stats = client.stats()
        thread.drain()
        assert stats["backend"] == "serial"
        assert stats["shards"] == 4
        assert stats["elements"] == 4096
        assert stats["ingested"] == 4096
        assert sum(stats["shard_loads"]) == 4096
        assert stats["memory_total"] == sum(stats["memory_sizes"])
        assert stats["memory_kl_to_uniform"] >= -1e-9
        assert stats["draining"] is False
        assert stats["connections"] == 1
        telemetry = stats["telemetry"]
        assert telemetry["counters"]["serve.frames_in"] >= 2
        assert telemetry["counters"]["serve.ingested_elements"] == 4096
        assert telemetry["counters"]["serve.connections.accepted"] == 1
        assert "serve.request_seconds.ingest" in telemetry["histograms"]

    def test_drain_report_counts_restored_elements(self, tmp_path):
        state = tmp_path / "state.snap"
        thread = ServerThread(_service(seed=8), TOKEN,
                              state_file=str(state))
        address = thread.start()
        with ServeClient(address, auth_token=TOKEN) as client:
            client.ingest(IDS[:2048])
        report = thread.drain()
        assert report["elements"] == 2048
        assert report["total_elements"] == 2048

        restored = ShardedSamplingService.restore(state.read_bytes())
        thread = ServerThread(restored, TOKEN, state_file=str(state))
        address = thread.start()
        with ServeClient(address, auth_token=TOKEN) as client:
            client.ingest(IDS[2048:3072])
        report = thread.drain()
        # "elements" counts this server's ingests; "total_elements" the
        # ensemble's lifetime load carried through the snapshot
        assert report["elements"] == 1024
        assert report["total_elements"] == 3072


# --------------------------------------------------------------------- #
# Load generator
# --------------------------------------------------------------------- #
class TestLoadgen:

    def test_report_and_bench_record(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BENCH_JSON_DIR", str(tmp_path))
        thread = ServerThread(_service(seed=13), TOKEN)
        address = thread.start()
        report = run_loadgen(
            address, auth_token=TOKEN, stream="zipf",
            stream_params={"population_size": 500, "alpha": 1.2},
            stream_size=8_192, connections=3, batch_size=1_024, seed=7,
            drain=True)
        thread.drain()
        assert report["elements"] == 8_192
        assert report["batches"] == 8
        assert report["elements_per_second"] > 0
        latency = report["ingest_latency"]
        assert latency["count"] == 8
        assert 0 < latency["p50_seconds"] <= latency["p95_seconds"] \
            <= latency["p99_seconds"] <= latency["max_seconds"]
        assert report["server"]["elements"] == 8_192
        assert report["drain"]["elements"] == 8_192

        record = load_record(str(tmp_path / "BENCH_serve.json"))
        assert record["name"] == "serve"
        assert record["tiers"]["loadgen"]["elements_per_second"] > 0
        # a record gates cleanly against itself
        assert compare_records(record, record) == []

    def test_cli_loadgen_json(self, capsys, tmp_path):
        token_file = tmp_path / "tok"
        token_file.write_text(TOKEN)
        thread = ServerThread(_service(seed=15), TOKEN)
        host, port = thread.start()
        main(["loadgen", "--server", f"{host}:{port}",
              "--auth-token-file", str(token_file),
              "--stream-size", "4096", "--population-size", "400",
              "--batch-size", "512", "--connections", "2", "--json"])
        thread.drain()
        report = json.loads(capsys.readouterr().out)
        assert report["elements"] == 4096
        assert report["server"]["elements"] == 4096


# --------------------------------------------------------------------- #
# CLI end-to-end: SIGTERM drain
# --------------------------------------------------------------------- #
class TestServeCli:

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        token_file = tmp_path / "tok"
        token_file.write_text(TOKEN)
        state = tmp_path / "state.snap"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--listen", "127.0.0.1:0",
             "--auth-token-file", str(token_file),
             "--state-file", str(state)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, env=env)
        try:
            line = process.stdout.readline()
            assert line.startswith("serving on "), line
            address = line.split()[-1]
            with ServeClient(address, auth_token=TOKEN) as client:
                assert client.ingest(IDS[:1024])["count"] == 1024
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0, stderr
        assert state.exists()
        report = json.loads(stdout)
        assert report["elements"] == 1024
        assert report["state_file"] == str(state)
