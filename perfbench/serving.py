"""The ``serve_socket`` workload: open-loop load against ``repro serve``.

The server runs as its own process (started through
``perfbench/serve_launcher.py``) on the socket backend in local mode: one
worker, 4 shards, memory 50, sketch 200x5.  One client connection carries
an operation sequence generated from the seed: ingests of 1024 Zipf(1.1)
identifiers over a 10k population, and a ``sample_many(64)`` after every
4th ingest.  A sender thread sends each operation at its due time on a
fixed schedule (open loop at :data:`OFFERED_EPS`) whatever the server
does, and the main thread reads the replies, which arrive in request
order.  Latency runs from an operation's due time to its reply, so a stall
also charges every operation queued behind it.  The schedule is cut into
segments of :data:`SEGMENT_S` seconds with a host probe between them, and
each segment's timings are scaled to the reference host speed by the
probes around it (:func:`perfbench.measure.speed_factors`).  One
connection keeps the apply order deterministic, so every ``sample_many``
reply and the final memory are compared with a library run of the same
sequence.
"""

from __future__ import annotations

import json
import os
import secrets
import select
import shutil
import subprocess
import sys
import threading
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.serve.client import ServeClient
from repro.streams.generators import zipf_stream

from perfbench import measure
from perfbench.library import (
    MEMORY,
    SHARDS,
    SKETCH_DEPTH,
    SKETCH_WIDTH,
    build_service,
    output_kl,
    replica_seeds,
    scalar_replay,
)
from perfbench.tracing import counter, histogram

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAUNCHER = os.path.join(ROOT, "perfbench", "serve_launcher.py")
#: Scratch directory inside the checkout (token, server logs, telemetry).
WORKDIR = os.path.join(ROOT, ".perfbench_run")

BATCH = 1024
READ_EVERY = 4
READ_COUNT = 64
POPULATION = 10_000
ALPHA = 1.1
#: Offered load, fixed so every commit is judged at the same load.  The
#: closed-loop capacity of this workload was ~163k el/s on a 2-core host
#: when the benchmark was defined; at 60k el/s the host's drift already
#: queued requests (p50 from 6 to 12 ms across runs), so the load sits
#: near a fifth of capacity, where latency is mostly service time.
OFFERED_EPS = 30_000
#: Latency limit on ``ingest_tail_ms``; a refused request misses it.
INGEST_LIMIT_MS = 50.0
SETUP_LAUNCHES = 5
#: Seconds of schedule between host probes.  The load pauses for each
#: probe (the server is idle then), and each segment's latencies and CPU
#: are scaled by the probes around it.
SEGMENT_S = 2.5
#: Ingests replayed per element for ``kernel.turnover``.
TURNOVER_INGESTS = 256
#: Ingests whose samples ``output_kl`` scores on each sampler seed.
KL_INGESTS = 128
_START_TIMEOUT = 120.0

Op = Tuple[str, object, float]


def make_ops(seed: int, seconds: float) -> Tuple[List[Op], List[int]]:
    """The operation sequence ``(command, argument, due seconds)``."""
    ingests = max(READ_EVERY, int(OFFERED_EPS * seconds / BATCH))
    stream = zipf_stream(ingests * BATCH, POPULATION, alpha=ALPHA,
                         random_state=seed)
    identifiers = np.asarray(stream.identifiers, dtype=np.int64)
    ops: List[Op] = []
    for index in range(ingests):
        due = index * BATCH / OFFERED_EPS
        ops.append(("ingest",
                    identifiers[index * BATCH:(index + 1) * BATCH], due))
        if (index + 1) % READ_EVERY == 0:
            ops.append(("sample_many", READ_COUNT, due))
    return ops, stream.universe


def reference(seed: int, ops: List[Op]):
    """The same operation sequence applied through the library (serial)."""
    service = build_service(seed, "serial")
    replies = []
    for command, argument, _ in ops:
        if command == "ingest":
            service.on_receive_batch(argument)
        else:
            replies.append(service.sample_many(argument))
    memory = service.merged_memory()
    service.close()
    return replies, memory


class Server:
    """One ``repro serve`` process; ``setup_s`` runs from launch to a ping."""

    def __init__(self, seed: int, tag: str, *, traced: bool = False) -> None:
        token_file = os.path.join(WORKDIR, "token")
        self.telemetry_file = (os.path.join(WORKDIR, f"telemetry-{tag}.json")
                               if traced else None)
        argv = [sys.executable, LAUNCHER] + (["--trace"] if traced else []) + [
            "serve", "--listen", "127.0.0.1:0",
            "--auth-token-file", token_file, "--backend", "socket",
            "--workers", "1", "--shards", str(SHARDS),
            "--memory-size", str(MEMORY), "--sketch-width", str(SKETCH_WIDTH),
            "--sketch-depth", str(SKETCH_DEPTH), "--seed", str(seed)]
        if traced:
            argv += ["--telemetry-out", self.telemetry_file]
        self._log = open(os.path.join(WORKDIR, f"server-{tag}.log"), "w")
        self.client = None
        probe = measure.host_probe()
        started = time.perf_counter()
        self.process = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                        stderr=self._log, text=True, cwd=ROOT)
        try:
            address = self._await_address()
            self.client = ServeClient(address, auth_token_file=token_file)
            self.client.ping()
        except BaseException:
            self.kill()
            raise
        raw_s = time.perf_counter() - started
        speed, = measure.speed_factors([probe, measure.host_probe()])
        self.setup_s = raw_s * speed

    def _await_address(self) -> Tuple[str, int]:
        stdout = self.process.stdout
        ready, _, _ = select.select([stdout], [], [], _START_TIMEOUT)
        line = stdout.readline() if ready else ""
        if not line.startswith("serving on "):
            raise RuntimeError(f"repro serve did not start (got {line!r}); "
                               f"see {self._log.name}")
        host, port = line.split()[-1].rsplit(":", 1)
        return host, int(port)

    def pids(self) -> List[int]:
        return [self.process.pid] + measure.descendants(self.process.pid)

    def stop(self) -> Dict:
        """Drain the server, wait for it to exit, return its telemetry."""
        try:
            self.client.drain()
            self.client.close()
            self.process.wait(timeout=60)
        finally:
            self.kill()
        if self.telemetry_file is None:
            return {}
        with open(self.telemetry_file, encoding="utf-8") as handle:
            return json.load(handle)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=30)
        self.process.stdout.close()
        self._log.close()


def segments(ops: List[Op]) -> List[List[Op]]:
    """Cut ``ops`` into runs of :data:`SEGMENT_S` seconds of schedule.

    Each segment's due times restart at 0 (its first operation is due at
    once).
    """
    cut: Dict[int, List[Op]] = {}
    for command, argument, due in ops:
        cut.setdefault(int(due // SEGMENT_S), []).append(
            (command, argument, due))
    return [[(command, argument, due - part[0][2])
             for command, argument, due in part]
            for _, part in sorted(cut.items())]


def drive_segment(client: ServeClient, ops: List[Op]) -> Dict:
    """Send ``ops`` on their schedule and collect replies and timings."""
    count = len(ops)
    sent = [0.0] * count
    received = [0.0] * count
    replies: List[Tuple[bool, object]] = [(False, None)] * count
    errors: List[BaseException] = []
    start = time.perf_counter() + 0.05

    def send_all() -> None:
        try:
            for index, (command, argument, due) in enumerate(ops):
                delay = start + due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent[index] = time.perf_counter()
                if command == "ingest":
                    client.send_command("ingest",
                                        {"ids": argument, "seq": index})
                else:
                    client.send_command("sample_many", {"count": argument})
        except BaseException as error:  # re-raised after the join
            errors.append(error)

    sender = threading.Thread(target=send_all, name="perfbench-sender")
    sender.start()
    try:
        for index in range(count):
            replies[index] = client.read_reply()
            received[index] = time.perf_counter()
    finally:
        sender.join()
    if errors:
        raise RuntimeError("open-loop sender failed") from errors[0]
    return {"start": start, "sent": sent, "received": received,
            "replies": replies}


def drive(server: Server, ops: List[Op]) -> Dict:
    """Drive ``ops`` segment by segment, with a host probe around each.

    Latencies and CPU time are scaled to the reference host speed by the
    probes around their segment; ``wall_s`` (and so the ingest rate, which
    the schedule fixes) and the generator's lateness stay as measured.
    """
    client = server.client
    pids = server.pids()
    probes = [measure.host_probe()]
    cpu_raw: List[float] = []
    parts = []
    for part in segments(ops):
        cpu_before = measure.cpu_seconds(pids)
        parts.append((part, drive_segment(client, part)))
        cpu_raw.append(measure.cpu_seconds(pids) - cpu_before)
        probes.append(measure.host_probe())
    rss_mb = measure.peak_rss_mb(pids)
    memory = client.memory()
    speeds = measure.speed_factors(probes)
    ingest, reads, client_s, samples, late = [], [], [], [], []
    failed = 0
    wall_s = 0.0
    for (part, timing), speed in zip(parts, speeds):
        start, sent, received = (timing["start"], timing["sent"],
                                 timing["received"])
        wall_s += received[-1] - start
        for index, (command, _, due) in enumerate(part):
            ok, result = timing["replies"][index]
            latency = (received[index] - (start + due)) * speed
            late.append(sent[index] - (start + due))
            if not ok:
                failed += 1
                latency = float("inf")
            elif command == "sample_many":
                samples.append(result["samples"])
            if command == "ingest":
                ingest.append(latency)
                client_s.append((received[index] - sent[index]) * speed)
            else:
                reads.append(latency)
    return {
        "elements": sum(op[1].size for op in ops if op[0] == "ingest"),
        "failed": failed, "attempted": len(ops), "wall_s": wall_s,
        "cpu_s": sum(cpu * speed for cpu, speed in zip(cpu_raw, speeds)),
        "rss_mb": rss_mb, "speed": measure.median(speeds),
        "ingest": ingest, "reads": reads, "client_s": client_s,
        "late": late, "samples": samples, "memory": memory,
    }


def sample_kl(seed: int, ops: List[Op], population: List[int],
              samples: List[List[int]]) -> float:
    """Mean ``output_kl`` of the samples drawn during the first ingests.

    The first replica is the server's own samples; the others replay the
    same operations through the library with the other
    :func:`~perfbench.library.replica_seeds`.
    """
    prefix = ops[:KL_INGESTS + KL_INGESTS // READ_EVERY]
    reads = sum(1 for command, _, _ in prefix if command == "sample_many")
    drawn = [samples[:reads]]
    drawn += [reference(replica, prefix)[0]
              for replica in replica_seeds(seed)[1:]]
    kls = [output_kl(population, [sample for reply in replies
                                  for sample in reply])
           for replies in drawn]
    return sum(kls) / len(kls)


def _check(result: Dict, expected) -> List[str]:
    replies, memory = expected
    problems = []
    if result["samples"] != replies:
        problems.append("sample_many replies differ from the library run")
    if result["memory"] != memory:
        problems.append("final memory differs from the library run")
    return problems


def _session(seed: int, ops: List[Op], tag: str, *, traced: bool):
    server = Server(seed, tag, traced=traced)
    try:
        result = drive(server, ops)
    finally:
        snapshot = server.stop()
    return result, snapshot, server.setup_s


def run(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    os.makedirs(WORKDIR, exist_ok=True)
    try:
        with open(os.path.join(WORKDIR, "token"), "w",
                  encoding="ascii") as handle:
            handle.write(secrets.token_hex(32))
        return _traced(seed, seconds) if trace else _measured(seed, seconds)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)


def _measured(seed: int, seconds: float) -> Dict:
    """Median set-up over several launches, then the open-loop run."""
    ops, population = make_ops(seed, seconds)
    setups = []
    for launch in range(SETUP_LAUNCHES - 1):
        server = Server(seed, f"setup{launch}")
        setups.append(server.setup_s)
        server.stop()
    result, _, setup_s = _session(seed, ops, "measured", traced=False)
    setups.append(setup_s)
    problems = _check(result, reference(seed, ops))
    ingest_tail = measure.tail(result["ingest"])
    info = {
        "offered_eps": OFFERED_EPS, "operations": len(ops),
        "ingest_tail": ingest_tail,
        "read_tail": measure.tail(result["reads"], measure.READ_WINDOW),
        "ingest_limit_ms": INGEST_LIMIT_MS,
        "limit_met": (ingest_tail["ms"] <= INGEST_LIMIT_MS
                      and result["failed"] == 0),
        "generator_late_p50_ms": measure.p50_ms(result["late"]),
        "generator_late_tail": measure.tail(result["late"]),
        "setup_launches_s": setups, "speed": result["speed"],
        "mismatches": problems,
    }
    attempted = result["attempted"]
    metrics = {
        "setup_s": measure.median(setups),
        "ingest_eps": result["elements"] / result["wall_s"],
        "ingest_p50_ms": measure.p50_ms(result["ingest"]),
        "ingest_tail_ms": ingest_tail["ms"],
        "read_p50_ms": measure.p50_ms(result["reads"]),
        "read_tail_ms": info["read_tail"]["ms"],
        "cpu_s_per_melem": result["cpu_s"] / result["elements"] * 1e6,
        "peak_rss_mb": result["rss_mb"],
        "output_kl": sample_kl(seed, ops, population, result["samples"]),
        "success_ratio": (attempted - result["failed"]) / attempted,
    }
    return {"correct": not problems, "attempted": attempted,
            "failed": result["failed"], "metrics": metrics, "info": info}


def _traced(seed: int, seconds: float) -> Dict:
    """Half the time on a bare server, half on a traced one."""
    ops, _ = make_ops(seed, seconds / 2)
    expected = reference(seed, ops)
    bare, _, _ = _session(seed, ops, "bare", traced=False)
    traced, snap, _ = _session(seed, ops, "traced", traced=True)
    problems = _check(bare, expected) + _check(traced, expected)
    ingested = [argument for command, argument, _ in ops
                if command == "ingest"][:TURNOVER_INGESTS]
    _, replaced = scalar_replay(seed, ingested)
    elements = counter(snap, "serve.ingested_elements")
    per_melem = 1e6 / elements
    # server-side times are scaled to the reference host speed, like the
    # client-side ones
    speed = traced["speed"]
    time_per_melem = per_melem * speed
    roundtrip = histogram(snap, "backend.socket.roundtrip_seconds.batch")
    worker_busy = histogram(snap, "worker.batch_seconds")["sum"]

    def mean_ms(name: str) -> float:
        return histogram(snap, name)["mean"] * 1e3 * speed

    def total_s(layer: str) -> float:
        return counter(snap, f"trace.{layer}.total_s") * time_per_melem

    request_ms = mean_ms("serve.request_seconds.ingest")
    metrics = {
        "engine.partition_s": counter(
            snap, "trace.engine.partition.self_s") * time_per_melem,
        "backend.stage_s": total_s("backend.stage"),
        "backend.wait_s": total_s("backend.wait"),
        "backend.wire_s": (roundtrip["sum"] - worker_busy) * time_per_melem,
        "backend.bytes_per_elem": (
            counter(snap, "backend.socket.bytes_sent")
            + counter(snap, "backend.socket.bytes_received"))
        / counter(snap, "backend.socket.dispatch_elements"),
        "backend.pipeline_drains": counter(
            snap, "trace.backend.pipeline_drains") * per_melem,
        "worker.busy_ratio": worker_busy / traced["wall_s"],
        "kernel.process_batch_s": total_s("kernel.process_batch"),
        "kernel.hash_s": total_s("kernel.hash"),
        "kernel.rows_io_s": total_s("kernel.rows_io"),
        "kernel.loop_s": counter(
            snap, "trace.kernel.process_batch.self_s") * time_per_melem,
        "kernel.turnover": replaced / (len(ingested) * BATCH),
        "serve.request_ms.ingest": request_ms,
        "serve.request_ms.sample_many": mean_ms(
            "serve.request_seconds.sample_many"),
        "serve.frontend_ms": (sum(traced["client_s"])
                              / len(traced["client_s"]) * 1e3 - request_ms),
        "serve.queue_depth_at_submit": histogram(
            snap, "serve.queue_depth_at_submit")["mean"],
        "serve.bytes_per_elem": (counter(snap, "serve.bytes_in")
                                 + counter(snap, "serve.bytes_out"))
        / elements,
        "loadgen.late_ms": measure.tail(traced["late"])["ms"],
        # the offered rate is fixed, so tracing costs server CPU, not rate
        "trace.overhead_ratio": (
            traced["cpu_s"] / traced["elements"]
            / (bare["cpu_s"] / bare["elements"]) - 1.0),
    }
    info = {"operations": len(ops), "speed": speed, "mismatches": problems}
    return {"correct": not problems,
            "attempted": bare["attempted"] + traced["attempted"],
            "failed": bare["failed"] + traced["failed"],
            "metrics": metrics, "info": info}
