"""Library workloads: ``skewed_serial`` and ``trace_eclipse_process``.

Both drive :func:`repro.engine.batch.run_stream` over a 4-shard
:class:`~repro.engine.sharded.ShardedSamplingService` (memory 50, sketch
200x5, 8192-element chunks).  A run repeats *episodes* until its time is
up: each episode builds the service (``setup_s``), streams the whole
generated input through it with a ``sample_many(256)`` read before every
n-th chunk (:data:`READ_EVERY`), and closes it.  Every episode sees the
same input, so each must produce the same outputs; the first is checked
against an independent reference run, and the per-episode figures are
reported as medians.
"""

from __future__ import annotations

import hashlib
import os
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.adversary.adaptive import AdaptiveAdversary, EclipseAttack
from repro.engine.batch import run_stream
from repro.engine.sharded import ShardedSamplingService
from repro.metrics.divergence import kl_divergence_to_uniform
from repro.streams.generators import zipf_stream
from repro.streams.source import MaterializedStreamSource, StreamSource
from repro.streams.stream import IdentifierStream
from repro.streams.traces import NASA, SyntheticTrace
from repro.telemetry import runtime as telemetry
from repro.telemetry.registry import MetricsRegistry

from perfbench import measure
from perfbench.tracing import LayerTracer, counter, histogram

SHARDS = 4
MEMORY = 50
SKETCH_WIDTH = 200
SKETCH_DEPTH = 5
CHUNK = 8192
#: Chunks per episode of ``skewed_serial`` (the trace sets its own length).
EPISODE_CHUNKS = 32
#: A ``sample_many`` read comes before every n-th chunk: every 8th on the
#: trace, where a read drains the pipeline; every 2nd on ``skewed_serial``,
#: where a read costs ~0.4 ms, so its tail has enough samples to be steady.
READ_EVERY = {"skewed_serial": 2, "trace_eclipse_process": 8}
READ_COUNT = 256
PROCESS_WORKERS = 2
#: Down-scaling of the NASA Table II stand-in: ~265k elements, ~11.5k ids.
TRACE_SCALE = 0.14
#: Chunks the per-element reference replays on ``skewed_serial``; the
#: prefix spans the first read.
SCALAR_PREFIX_CHUNKS = 9
#: Sampler seeds ``output_kl`` averages over, the run's own seed first.
#: The Count-Min hash draw shifts a run's divergence for its whole length
#: (one seed alone ranged 0.35-1.7 nats on the trace workload), so a
#: single seed is too noisy to bound.
KL_REPLICAS = 16
#: Chunks of output each replica scores; short keeps the replicas cheap.
KL_CHUNKS = 4


def replica_seeds(seed: int) -> List[int]:
    return [seed] + [seed + 7919 * index for index in range(1, KL_REPLICAS)]


@dataclass
class Workload:
    """Generated inputs of one library workload (a pure function of seed)."""

    name: str
    backend: str
    seed: int
    identifiers: np.ndarray
    population: List[int]
    adversary: bool
    read_every: int
    #: Cores the workload keeps busy, so the host probe's width.
    probe_width: int


def make_workload(name: str, seed: int) -> Workload:
    if name == "skewed_serial":
        stream = zipf_stream(EPISODE_CHUNKS * CHUNK, 100_000, alpha=2.0,
                             random_state=seed)
        return Workload(name, "serial", seed,
                        np.asarray(stream.identifiers, dtype=np.int64),
                        stream.universe, adversary=False,
                        read_every=READ_EVERY[name], probe_width=1)
    trace = SyntheticTrace(NASA, scale=TRACE_SCALE, random_state=seed)
    stream = trace.materialise()
    return Workload(name, "process", seed,
                    np.asarray(stream.identifiers, dtype=np.int64),
                    stream.universe, adversary=True,
                    read_every=READ_EVERY[name],
                    probe_width=PROCESS_WORKERS)


def build_service(seed: int, backend: str, **kwargs
                  ) -> ShardedSamplingService:
    """The benchmark's ensemble: 4 shards, memory 50, sketch 200x5."""
    return ShardedSamplingService.knowledge_free(
        SHARDS, MEMORY, sketch_width=SKETCH_WIDTH, sketch_depth=SKETCH_DEPTH,
        random_state=seed, backend=backend, **kwargs)


class TimedTarget:
    """The service as ``run_stream`` sees it, timing each chunk and read.

    A chunk's latency runs from the ``begin_batch`` (or
    ``on_receive_batch``) call to its outputs being in hand.
    """

    def __init__(self, service: ShardedSamplingService) -> None:
        self.service = service
        self.supports_pipelining = service.supports_pipelining
        self.chunk_seconds: List[float] = []
        self.read_seconds: List[float] = []
        self.reads: List[List[int]] = []
        self.chunks: List[np.ndarray] = []
        self._begun: deque = deque()

    def on_receive_batch(self, identifiers):
        self.chunks.append(identifiers)
        started = time.perf_counter()
        outputs = self.service.on_receive_batch(identifiers)
        self.chunk_seconds.append(time.perf_counter() - started)
        return outputs

    def begin_batch(self, identifiers):
        self.chunks.append(identifiers)
        self._begun.append(time.perf_counter())
        return self.service.begin_batch(identifiers)

    def finish_batch(self, handle):
        outputs = self.service.finish_batch(handle)
        self.chunk_seconds.append(time.perf_counter() - self._begun.popleft())
        return outputs

    def merged_memory(self):
        return self.service.merged_memory()

    def read(self) -> None:
        started = time.perf_counter()
        samples = self.service.sample_many(READ_COUNT)
        self.read_seconds.append(time.perf_counter() - started)
        self.reads.append(samples)


class ReadingSource(StreamSource):
    """Issue a ``sample_many`` read before every ``every``-th chunk."""

    def __init__(self, inner: StreamSource, read: Callable[[], None],
                 every: int) -> None:
        self._inner = inner
        self._read = read
        self._every = every
        self._pulled = 0

    def bind_sampler(self, view) -> None:
        self._inner.bind_sampler(view)

    def next_chunk(self, rng=None):
        if self._pulled and self._pulled % self._every == 0:
            self._read()
        self._pulled += 1
        return self._inner.next_chunk()


def _source(workload: Workload, target: TimedTarget) -> StreamSource:
    source: StreamSource = MaterializedStreamSource(workload.identifiers,
                                                    chunk_size=CHUNK)
    if workload.adversary:
        # a budget the run never exhausts, so the attack reads the sampler
        # memory through its SamplerView on every chunk
        attack = EclipseAttack(workload.population, target_fraction=0.1,
                               insertion_budget=1 << 40)
        source = AdaptiveAdversary([attack], random_state=workload.seed + 1
                                   ).source(source)
    return ReadingSource(source, target.read, workload.read_every)


@dataclass
class Episode:
    setup_s: float
    wall_s: float
    elements: int
    cpu_s: float
    rss_mb: float
    digest: str
    outputs: Optional[np.ndarray]
    memory: List[int]
    reads: List[List[int]]
    chunks: List[np.ndarray]
    chunk_seconds: List[float] = field(default_factory=list)
    read_seconds: List[float] = field(default_factory=list)
    #: Host-speed factor of the episode (:func:`measure.speed_factors`).
    speed: float = 1.0

    def eps(self) -> float:
        """Elements per second at the reference host speed."""
        return self.elements / (self.wall_s * self.speed)


def run_episode(workload: Workload, backend: str,
                tracer: Optional[LayerTracer] = None, *,
                keep: bool = True) -> Episode:
    """Build, stream the whole input through, inspect and close.

    Without ``keep`` only a digest of the outputs, reads and memory is
    kept, so later episodes do not grow this process's memory.
    """
    started = time.perf_counter()
    service = build_service(
        workload.seed, backend,
        workers=PROCESS_WORKERS if backend == "process" else None)
    setup_s = time.perf_counter() - started
    try:
        target = TimedTarget(service)
        source = _source(workload, target)
        pids = [os.getpid()] + measure.descendants(os.getpid())
        cpu_before = measure.cpu_seconds(pids)
        started = time.perf_counter()
        if tracer is None:
            result = run_stream(target, source)
        else:
            with tracer.span("engine.run_stream"):
                result = run_stream(target, source)
        wall_s = time.perf_counter() - started
        cpu_s = measure.cpu_seconds(pids) - cpu_before
        rss_mb = measure.peak_rss_mb(pids)
        memory = service.merged_memory()
    finally:
        service.close()
    digest = hashlib.sha256(result.outputs.tobytes())
    digest.update(repr((memory, target.reads)).encode())
    if not keep:
        result.outputs, target.reads, target.chunks = None, [], []
    return Episode(setup_s, wall_s, result.elements, cpu_s, rss_mb,
                   digest.hexdigest(), result.outputs, memory, target.reads,
                   target.chunks, target.chunk_seconds, target.read_seconds)


def scalar_replay(seed: int, chunks, *, read_every: int = 0):
    """Per-element Algorithm 3 over ``chunks``: the independent reference.

    Routes each identifier with ``shard_of`` and feeds it to its shard's
    ``on_receive`` (the per-element ``process`` path, not the chunk
    kernel), issuing a read before every ``read_every``-th chunk, as the
    benchmark does, when ``read_every`` is non-zero.  Returns the outputs
    and the number of memory entries replaced: an element replaced one
    exactly when the memory was full and its snapshot changed
    (``memory_view`` is rebuilt only on a change).
    """
    service = build_service(seed, "serial")
    outputs: List[int] = []
    replaced = 0
    for index, chunk in enumerate(chunks):
        if read_every and index and index % read_every == 0:
            service.sample_many(READ_COUNT)
        for identifier in np.asarray(chunk).tolist():
            shard = service.services[service.shard_of(identifier)]
            before = shard.strategy.memory_view
            outputs.append(shard.on_receive(identifier))
            after = shard.strategy.memory_view
            if after is not before and len(after) == len(before):
                replaced += 1
    service.close()
    return np.asarray(outputs, dtype=np.int64), replaced


def check_outputs(workload: Workload, episodes: List[Episode]) -> List[str]:
    """Compare every episode with the first, and the first with references.

    Returns the list of mismatches (empty when everything agrees).
    """
    first = episodes[0]
    problems: List[str] = []
    for index, episode in enumerate(episodes):
        if episode.digest != first.digest:
            problems.append(f"episode {index} differs from episode 0")
    if workload.backend == "serial":
        # the measured run is already serial: check it against the
        # per-element path instead, on a prefix that spans a read
        prefix, _ = scalar_replay(workload.seed,
                                  first.chunks[:SCALAR_PREFIX_CHUNKS],
                                  read_every=workload.read_every)
        if not np.array_equal(first.outputs[:prefix.size], prefix):
            problems.append("outputs differ from the per-element reference")
    else:
        reference = run_episode(workload, "serial")
        if not np.array_equal(first.outputs, reference.outputs):
            problems.append("output stream differs from the serial backend")
        if first.memory != reference.memory:
            problems.append("merged memory differs from the serial backend")
        if first.reads != reference.reads:
            problems.append("sample_many replies differ from serial backend")
    return problems


def output_kl(population: List[int], outputs) -> float:
    """KL divergence of an output stream to uniform over the population.

    Identifiers outside the correct population (the eclipse attack's
    Sybils) stay in the distribution and are scored against the floored
    uniform target, so emitting them is penalised.
    """
    stream = IdentifierStream(list(outputs), universe=population)
    return float(kl_divergence_to_uniform(
        stream, support=population, penalise_out_of_support=True))


def replicated_kl(workload: Workload, first: Episode) -> float:
    """Mean ``output_kl`` of the first ``KL_CHUNKS`` chunks' outputs.

    The first replica is the measured episode; each other one streams the
    same first chunks through a serial ensemble (and adversary) seeded
    with the next of :func:`replica_seeds`.
    """
    head = sum(len(chunk) for chunk in first.chunks[:KL_CHUNKS])
    kls = [output_kl(workload.population, first.outputs[:head].tolist())]
    prefix = replace(workload,
                     identifiers=workload.identifiers[:KL_CHUNKS * CHUNK])
    for seed in replica_seeds(workload.seed)[1:]:
        replica = run_episode(replace(prefix, seed=seed), "serial")
        kls.append(output_kl(workload.population, replica.outputs.tolist()))
    return sum(kls) / len(kls)


def _episodes(workload: Workload, seconds: float, *, traced: bool):
    """Run episodes until ``seconds`` have passed (at least three).

    In a traced run, every second episode is traced and the others run
    bare, so the two can be compared for the tracing overhead.  A host
    probe runs before the first episode and after each one, and gives each
    episode its speed factor.
    """
    plain: List[Episode] = []
    traced_runs: List[Episode] = []
    ordered: List[Episode] = []
    probes = [measure.host_probe(workload.probe_width)]
    registry = MetricsRegistry()
    tracer = LayerTracer()
    deadline = time.perf_counter() + seconds
    while len(ordered) < 3 or time.perf_counter() < deadline:
        if traced and len(ordered) % 2 == 1:
            tracer.install()
            try:
                with telemetry.enabled(registry):
                    episode = run_episode(workload, workload.backend, tracer,
                                          keep=not traced_runs)
            finally:
                tracer.uninstall()
            traced_runs.append(episode)
        else:
            episode = run_episode(workload, workload.backend, keep=not plain)
            plain.append(episode)
        ordered.append(episode)
        probes.append(measure.host_probe(workload.probe_width))
    for episode, speed in zip(ordered, measure.speed_factors(probes)):
        episode.speed = speed
    return plain, traced_runs, registry, tracer


def run(name: str, seed: int, seconds: float, trace: bool) -> Dict:
    workload = make_workload(name, seed)
    plain, traced, registry, tracer = _episodes(workload, seconds,
                                                traced=trace)
    episodes = plain + traced
    problems = check_outputs(workload, episodes)
    attempted = sum(len(e.chunk_seconds) + len(e.read_seconds)
                    for e in episodes)
    info = {"episodes": len(plain), "traced_episodes": len(traced),
            "elements_per_episode": plain[0].elements,
            "speed": measure.median([e.speed for e in episodes]),
            "raw_ingest_eps": measure.median([e.elements / e.wall_s
                                              for e in plain]),
            "mismatches": problems}
    if trace:
        metrics = layer_metrics(workload, plain, traced, registry, tracer)
    else:
        metrics = end_to_end(workload, plain, info)
    return {"correct": not problems, "attempted": attempted, "failed": 0,
            "metrics": metrics, "info": info}


def end_to_end(workload: Workload, episodes: List[Episode],
               info: Dict) -> Dict[str, float]:
    chunk_seconds = [s * e.speed for e in episodes for s in e.chunk_seconds]
    read_seconds = [s * e.speed for e in episodes for s in e.read_seconds]
    ingest_tail = measure.tail(chunk_seconds)
    read_tail = measure.tail(read_seconds, measure.READ_WINDOW)
    info["ingest_tail"] = ingest_tail
    info["read_tail"] = read_tail
    return {
        "setup_s": measure.median([e.setup_s * e.speed for e in episodes]),
        "ingest_eps": measure.median([e.eps() for e in episodes]),
        "ingest_p50_ms": measure.p50_ms(chunk_seconds),
        "ingest_tail_ms": ingest_tail["ms"],
        "read_p50_ms": measure.p50_ms(read_seconds),
        "read_tail_ms": read_tail["ms"],
        "cpu_s_per_melem": measure.median([e.cpu_s * e.speed / e.elements
                                           * 1e6 for e in episodes]),
        "peak_rss_mb": measure.median([e.rss_mb for e in episodes]),
        "output_kl": replicated_kl(workload, episodes[0]),
        "success_ratio": 1.0,
    }


def layer_metrics(workload: Workload, plain: List[Episode],
                  traced: List[Episode], registry: MetricsRegistry,
                  tracer: LayerTracer) -> Dict[str, float]:
    """Per-layer figures of the traced episodes (see README.md)."""
    snap = registry.snapshot()
    elements = sum(e.elements for e in traced)
    wall = sum(e.wall_s for e in traced)
    per_melem = 1e6 / elements
    # layer times are scaled to the reference host speed, like end_to_end
    speed = measure.median([e.speed for e in traced])
    time_per_melem = per_melem * speed

    def self_s(layer: str) -> float:
        return counter(snap, f"trace.{layer}.self_s") * time_per_melem

    def total_s(layer: str) -> float:
        return counter(snap, f"trace.{layer}.total_s") * time_per_melem

    name = workload.backend
    pool = name != "serial"
    roundtrip = histogram(snap, f"backend.{name}.roundtrip_seconds.batch")
    worker_busy = histogram(snap, "worker.batch_seconds")["sum"]
    moved = sum(counter(snap, f"backend.{name}.{kind}") for kind in (
        "bytes_sent", "bytes_received", "shm_bytes_sent",
        "shm_bytes_received"))
    dispatched = counter(snap, f"backend.{name}.dispatch_elements")
    stage = counter(snap, "trace.backend.stage.total_s")
    root = counter(snap, "trace.engine.run_stream.total_s")
    # the stream one traced episode ingested, replayed per element
    _, replaced = scalar_replay(workload.seed, traced[0].chunks)
    view = [seconds * speed for seconds in tracer.view_reads]
    return {
        "engine.partition_s": self_s("engine.partition"),
        "engine.driver_s": self_s("engine.run_stream"),
        "backend.dispatch_s": self_s("backend.dispatch"),
        "backend.stage_s": total_s("backend.stage"),
        "backend.wait_s": total_s("backend.wait"),
        "backend.wire_s": ((roundtrip["sum"] - worker_busy) * time_per_melem
                           if pool else 0.0),
        "backend.bytes_per_elem": moved / dispatched if pool else 0.0,
        "backend.shm_hit_ratio": (counter(snap, "trace.shm.staged")
                                  / roundtrip["count"]
                                  if pool and roundtrip["count"] else 0.0),
        "backend.overlap_ratio": (histogram(
            snap, f"backend.{name}.staging_overlap_seconds")["sum"] / stage
            if stage else 0.0),
        "backend.pipeline_drains": counter(
            snap, "trace.backend.pipeline_drains") * per_melem,
        "worker.busy_ratio": (worker_busy / (PROCESS_WORKERS * wall)
                              if pool else 0.0),
        "kernel.process_batch_s": total_s("kernel.process_batch"),
        "kernel.hash_s": total_s("kernel.hash"),
        "kernel.rows_io_s": total_s("kernel.rows_io"),
        "kernel.loop_s": self_s("kernel.process_batch"),
        "kernel.turnover": replaced / traced[0].elements,
        "adversary.view_read_p50_ms": (measure.p50_ms(view) if view
                                       else 0.0),
        "adversary.view_read_tail_ms": (measure.tail(view)["ms"] if view
                                        else 0.0),
        "adversary.schedule_s": self_s("adversary.schedule"),
        "stream.next_chunk_s": self_s("stream.next_chunk"),
        "trace.layer_coverage": (root - counter(
            snap, "trace.engine.run_stream.self_s")) / root,
        "trace.overhead_ratio": (
            measure.median([e.eps() for e in plain])
            / measure.median([e.eps() for e in traced]) - 1.0),
    }
