"""Throughput tier — elements/second of the streaming drivers.

Not a paper figure: this tier tracks the engine-level quantity the paper's
system model demands ("node sampling ... must keep pace with the input
stream", Section III-A) on a million-element Zipf-biased stream:

* ``scalar``  — the per-element reference driver (one Python call per id);
* ``batch``   — the vectorised chunk driver of :mod:`repro.engine.batch`;
* ``sharded`` — the batch driver over a hash-partitioned 4-shard ensemble
  on the serial execution backend (every shard in this process);
* ``process`` — the same ensemble on the process backend (shard groups
  pinned to worker processes): zero-copy shared-memory rings plus
  double-buffered pipelined dispatch.  Its outputs
  and merged memory are asserted bit-identical to the serial ensemble's,
  and on a machine with enough cores it must reach at least 2x the serial
  ensemble's throughput.
* ``process_pickle`` — the same ensemble on the process backend with the
  pickled-frame fallback forced (the path of a host without shared memory)
  and the synchronous driving loop (``pipeline=False``).  On a machine with
  enough cores the shm+pipelined tier must beat this tier by at least 1.5x
  — the regression gate of the zero-copy data path.
* ``socket``  — the same ensemble on the socket backend (shard groups
  behind authenticated localhost TCP workers), the network-transparent
  tier; also asserted bit-identical to the serial ensemble.  This tier
  tracks the TCP framing cost against the process tier.

The workload and the parallel tier scale down through environment variables
(the same pattern as ``OVERLAY_BENCH_NODES``): ``ENGINE_BENCH_STREAM_SIZE``
shrinks the stream for CI smoke runs and ``ENGINE_BENCH_WORKERS`` sets the
worker count of the process tier; the 2x speedup assertion only arms when
the machine actually has at least 4 cores to parallelise over (CI smoke
boxes keep the bit-identity check, which holds on any core count).

A second group replays the paper's Table II trace stand-ins (NASA, ClarkNet,
Saskatchewan) through the batch driver and records elements/sec per trace —
the trace-replay workload tier, covering realistic HTTP-log frequency
profiles rather than only synthetic Zipf bias.

The recorded ``elements_per_second`` extra-info gives the benchmark JSON its
throughput trajectory, and the final test asserts the engine's headline
guarantee: the batch driver is at least 10x faster than the scalar path on
the same workload (it also re-checks that both produce identical outputs, so
the speed never comes at the cost of the exactness contract).  Both drivers
run in one process, one after the other, so the gate can fail on any core
count.  On a 2-core host, 17 runs at the CI scale (200k elements) gave
16.9-25.1x and 5 runs at the default scale 18.1-20.2x, so a kernel that
turns 2x slower fails it.  (Those ratios were taken with the NumPy chunk
kernel, before the compiled one.)  The last test gates the compiled
Algorithm 3 chunk kernel the same way: the ``batch`` workload runs through
it and through the NumPy kernel it falls back to, in one process, and the
compiled kernel must stay at least 3x faster with identical outputs.
"""

import multiprocessing
import os

import numpy as np
import pytest

from repro import telemetry
from repro.bench.record import (
    bench_json_dir,
    summarise_snapshot,
    write_bench_json,
)
from repro.core import KnowledgeFreeStrategy, chunk_kernel
from repro.engine import ShardedSamplingService, run_stream, run_stream_scalar
from repro.engine.backends import shm
from repro.streams import PAPER_TRACES, SyntheticTrace, zipf_stream

#: The paper-scale workload: a million identifiers, Zipf-biased as in the
#: attack scenarios, over a population far larger than the sketch.  CI smoke
#: runs export ENGINE_BENCH_STREAM_SIZE to shrink it.
STREAM_SIZE = int(os.environ.get("ENGINE_BENCH_STREAM_SIZE", 1_000_000))
POPULATION_SIZE = max(1, STREAM_SIZE // 10)
ALPHA = 1.1
MEMORY_SIZE = 50
SKETCH_WIDTH = 200
SKETCH_DEPTH = 5
BATCH_SIZE = 8192
SHARDS = 4
#: Worker processes of the parallel tier (scaled down in CI smoke runs).
WORKERS = int(os.environ.get("ENGINE_BENCH_WORKERS", 4))
SEED = 99

#: elements/second per driver, filled by the benchmarks and read by the
#: speedup assertion at the end of the module (tests run in file order).
RECORDED = {}

#: Registry the parallel tiers run under: the process/socket benchmarks
#: execute with telemetry *enabled* (and their bit-identity against the
#: telemetry-off serial tier is asserted below, so the no-RNG-impact
#: guarantee is regression-checked at benchmark scale), and the aggregates
#: land in the persisted BENCH_engine.json.
TELEMETRY_REGISTRY = telemetry.MetricsRegistry()


@pytest.fixture(scope="module", autouse=True)
def _persist_bench_record():
    """Write BENCH_engine.json after the module when BENCH_JSON_DIR is set."""
    yield
    directory = bench_json_dir()
    if directory is None or not RECORDED:
        return
    tiers = {name: {"elements_per_second": int(eps)}
             for name, (eps, _) in RECORDED.items()}
    write_bench_json(
        os.path.join(directory, "BENCH_engine.json"), "engine", tiers,
        telemetry=summarise_snapshot(TELEMETRY_REGISTRY.snapshot()),
        config={
            "stream_size": STREAM_SIZE,
            "population_size": POPULATION_SIZE,
            "alpha": ALPHA,
            "batch_size": BATCH_SIZE,
            "shards": SHARDS,
            "workers": WORKERS,
            "seed": SEED,
        })


@pytest.fixture(scope="module")
def identifiers():
    stream = zipf_stream(STREAM_SIZE, POPULATION_SIZE, alpha=ALPHA,
                         random_state=SEED)
    return np.asarray(stream.identifiers, dtype=np.int64)


def _strategy():
    return KnowledgeFreeStrategy(MEMORY_SIZE, sketch_width=SKETCH_WIDTH,
                                 sketch_depth=SKETCH_DEPTH, random_state=SEED)


def _sharded(backend="serial", **kwargs):
    return ShardedSamplingService.knowledge_free(
        shards=SHARDS, memory_size=MEMORY_SIZE, sketch_width=SKETCH_WIDTH,
        sketch_depth=SKETCH_DEPTH, random_state=SEED, backend=backend,
        **kwargs)


#: Merged sampling memories of the sharded tiers, read by the cross-backend
#: bit-identity assertion (tests run in file order).
MERGED_MEMORY = {}


def _record(benchmark, print_result, name, result):
    throughput = result.throughput
    RECORDED[name] = (throughput, result.outputs)
    benchmark.extra_info["elements_per_second"] = int(throughput)
    benchmark.extra_info["elements"] = result.elements
    print_result(f"engine throughput: {name}",
                 f"{result.elements:,} elements in "
                 f"{result.elapsed_seconds:.2f}s -> {throughput:,.0f} elem/s")


@pytest.mark.figure("throughput")
def test_scalar_driver_throughput(benchmark, print_result, identifiers):
    result = benchmark.pedantic(
        lambda: run_stream_scalar(_strategy(), identifiers),
        rounds=1, iterations=1)
    _record(benchmark, print_result, "scalar", result)


@pytest.mark.figure("throughput")
def test_batch_driver_throughput(benchmark, print_result, identifiers):
    result = benchmark.pedantic(
        lambda: run_stream(_strategy(), identifiers, batch_size=BATCH_SIZE),
        rounds=1, iterations=1)
    _record(benchmark, print_result, "batch", result)


@pytest.mark.figure("throughput")
def test_sharded_driver_throughput(benchmark, print_result, identifiers):
    service = _sharded()
    result = benchmark.pedantic(
        lambda: run_stream(service, identifiers, batch_size=BATCH_SIZE),
        rounds=1, iterations=1)
    MERGED_MEMORY["sharded"] = service.merged_memory()
    _record(benchmark, print_result, "sharded", result)


@pytest.mark.figure("throughput")
def test_process_backend_throughput(benchmark, print_result, identifiers):
    """The parallel tier: the sharded ensemble on the process backend.

    Runs with telemetry enabled (construction, run and close all inside the
    enabled block so worker registries activate and are harvested on close);
    the bit-identity assertion against the telemetry-off serial tier below
    doubles as the no-RNG-impact regression check.
    """
    with telemetry.enabled(TELEMETRY_REGISTRY):
        service = _sharded("process", workers=WORKERS)
        try:
            result = benchmark.pedantic(
                lambda: run_stream(service, identifiers,
                                   batch_size=BATCH_SIZE),
                rounds=1, iterations=1)
            MERGED_MEMORY["process"] = service.merged_memory()
        finally:
            service.close()
    benchmark.extra_info["workers"] = service.backend.workers
    benchmark.extra_info["transport"] = (
        "shm" if shm.shared_memory_available() else "pickle")
    _record(benchmark, print_result, "process", result)


@pytest.mark.figure("throughput")
def test_process_pickle_backend_throughput(benchmark, print_result,
                                           identifiers, monkeypatch):
    """The pre-ring reference tier: pickled frames, synchronous dispatch.

    What the process backend shipped before the shared-memory rings — every
    sub-chunk pickled into the worker channel and each chunk collected
    before the next is partitioned; today the automatic fallback of a host
    without shared memory, forced here.  The shm+pipelined tier above is
    gated against this tier's throughput.
    """
    monkeypatch.setattr(shm, "shared_memory_available", lambda: False)
    with telemetry.enabled(TELEMETRY_REGISTRY):
        service = _sharded("process", workers=WORKERS)
        try:
            result = benchmark.pedantic(
                lambda: run_stream(service, identifiers,
                                   batch_size=BATCH_SIZE, pipeline=False),
                rounds=1, iterations=1)
            MERGED_MEMORY["process_pickle"] = service.merged_memory()
        finally:
            service.close()
    benchmark.extra_info["workers"] = service.backend.workers
    benchmark.extra_info["transport"] = "pickle"
    _record(benchmark, print_result, "process_pickle", result)


@pytest.mark.figure("throughput")
def test_socket_backend_throughput(benchmark, print_result, identifiers):
    """The network-transparent tier: the ensemble behind TCP workers.

    Like the process tier, runs entirely inside the telemetry-enabled block
    (command latency histograms, wire bytes and worker registries flow into
    the persisted record) while staying bit-identical to the serial tier.
    """
    with telemetry.enabled(TELEMETRY_REGISTRY):
        service = _sharded("socket", workers=WORKERS)
        try:
            result = benchmark.pedantic(
                lambda: run_stream(service, identifiers,
                                   batch_size=BATCH_SIZE),
                rounds=1, iterations=1)
            MERGED_MEMORY["socket"] = service.merged_memory()
        finally:
            service.close()
    benchmark.extra_info["workers"] = service.backend.workers
    _record(benchmark, print_result, "socket", result)


@pytest.mark.figure("throughput")
@pytest.mark.parametrize("backend", ["process", "process_pickle", "socket"])
def test_parallel_backends_bit_identical_to_serial(print_result, backend):
    """Cross-backend exactness: same outputs, same merged memory, per seed."""
    if "sharded" not in RECORDED or backend not in RECORDED:
        pytest.skip("sharded benchmarks did not run before this test")
    _, serial_outputs = RECORDED["sharded"]
    _, backend_outputs = RECORDED[backend]
    assert np.array_equal(serial_outputs, backend_outputs)
    assert MERGED_MEMORY["sharded"] == MERGED_MEMORY[backend]
    print_result("backend exactness",
                 f"{backend} backend bit-identical to serial over "
                 f"{serial_outputs.size:,} outputs and "
                 f"{len(MERGED_MEMORY['sharded'])} memory slots")


@pytest.mark.figure("throughput")
def test_process_backend_at_least_2x_serial_sharded(print_result):
    """>= 2x serial-ensemble throughput with 4 workers (needs >= 4 cores)."""
    if "sharded" not in RECORDED or "process" not in RECORDED:
        pytest.skip("sharded benchmarks did not run before this test")
    serial_eps, _ = RECORDED["sharded"]
    process_eps, _ = RECORDED["process"]
    speedup = process_eps / serial_eps
    print_result("parallel speedup",
                 f"process backend is {speedup:.2f}x the serial ensemble "
                 f"({process_eps:,.0f} vs {serial_eps:,.0f} elem/s, "
                 f"{WORKERS} workers, {multiprocessing.cpu_count()} cores)")
    if multiprocessing.cpu_count() < 4 or WORKERS < 4:
        pytest.skip(
            f"speedup assertion needs >= 4 cores and >= 4 workers "
            f"(have {multiprocessing.cpu_count()} cores, {WORKERS} workers); "
            "bit-identity was still asserted")
    assert speedup >= 2.0, (
        f"process backend only {speedup:.2f}x the serial ensemble "
        f"({process_eps:,.0f} vs {serial_eps:,.0f} elem/s)"
    )


@pytest.mark.figure("throughput")
def test_process_shm_at_least_1p5x_process_pickle(print_result):
    """>= 1.5x the pickle/synchronous tier with 4 workers (needs >= 4 cores).

    The zero-copy transport's regression gate: staging chunks into the
    shared-memory rings while double-buffering dispatch must beat pickling
    every payload through the pipes synchronously.  On boxes with fewer
    cores only the bit-identity checks arm (the speedup cannot materialise
    without genuine parallelism between the parent's staging and the
    workers' ingestion).
    """
    if "process" not in RECORDED or "process_pickle" not in RECORDED:
        pytest.skip("process benchmarks did not run before this test")
    shm_eps, _ = RECORDED["process"]
    pickle_eps, _ = RECORDED["process_pickle"]
    speedup = shm_eps / pickle_eps
    print_result("transport speedup",
                 f"shm+pipelined dispatch is {speedup:.2f}x the "
                 f"pickle/synchronous tier ({shm_eps:,.0f} vs "
                 f"{pickle_eps:,.0f} elem/s, {WORKERS} workers, "
                 f"{multiprocessing.cpu_count()} cores)")
    if multiprocessing.cpu_count() < 4 or WORKERS < 4:
        pytest.skip(
            f"transport speedup assertion needs >= 4 cores and >= 4 workers "
            f"(have {multiprocessing.cpu_count()} cores, {WORKERS} workers); "
            "bit-identity was still asserted")
    assert speedup >= 1.5, (
        f"shm+pipelined dispatch only {speedup:.2f}x the pickle tier "
        f"({shm_eps:,.0f} vs {pickle_eps:,.0f} elem/s)"
    )


#: Down-scaling applied to the multi-million-element traces so the replay
#: tier finishes in seconds while preserving each trace's frequency law.
TRACE_SCALE = 0.25


@pytest.mark.figure("throughput")
@pytest.mark.parametrize("spec", PAPER_TRACES,
                         ids=[spec.name for spec in PAPER_TRACES])
def test_trace_replay_throughput(benchmark, print_result, spec):
    """Batch-driver elements/sec on each Table II trace stand-in."""
    trace = SyntheticTrace(spec, scale=TRACE_SCALE, random_state=SEED)
    identifiers = np.asarray(trace.materialise().identifiers, dtype=np.int64)
    result = benchmark.pedantic(
        lambda: run_stream(_strategy(), identifiers, batch_size=BATCH_SIZE),
        rounds=1, iterations=1)
    _record(benchmark, print_result, f"trace:{spec.name}", result)
    benchmark.extra_info["trace"] = spec.name
    benchmark.extra_info["scale"] = TRACE_SCALE
    assert result.outputs.size == identifiers.size


@pytest.mark.figure("throughput")
def test_batch_driver_at_least_10x_faster_than_scalar(print_result):
    if "scalar" not in RECORDED or "batch" not in RECORDED:
        pytest.skip("throughput benchmarks did not run before this test")
    scalar_eps, scalar_outputs = RECORDED["scalar"]
    batch_eps, batch_outputs = RECORDED["batch"]
    speedup = batch_eps / scalar_eps
    print_result("engine speedup",
                 f"batch is {speedup:.1f}x the scalar driver "
                 f"({batch_eps:,.0f} vs {scalar_eps:,.0f} elem/s)")
    # exactness first: same seed, same outputs, element for element
    assert np.array_equal(scalar_outputs, batch_outputs)
    assert speedup >= 10.0, (
        f"batch driver only {speedup:.2f}x the scalar path "
        f"({batch_eps:,.0f} vs {scalar_eps:,.0f} elem/s)"
    )


#: Floor of the compiled/NumPy chunk-kernel ratio on the ``batch`` workload:
#: 0.6 of the slowest of 24 runs at the CI scale (200k elements) on a 2-core
#: host, which gave 5.01-6.78x.
COMPILED_OVER_NUMPY_FLOOR = 3.0


@pytest.mark.figure("throughput")
def test_batch_compiled_kernel_faster_than_numpy_kernel(print_result,
                                                        identifiers,
                                                        monkeypatch):
    """The compiled chunk kernel against the NumPy kernel, in one process.

    Runs the ``batch`` tier's workload three times through each kernel,
    alternating, and compares the best run of each; the NumPy kernel is
    forced as on a host without a compiler.  Both must give the same
    outputs.  Like the batch/scalar gate, it holds on any core count.
    """
    kernel = chunk_kernel.load()
    if kernel is None:
        pytest.skip("the compiled chunk kernel cannot be built on this host")
    best = {}
    outputs = {}
    for _ in range(3):
        for name, loaded in (("compiled", kernel), ("numpy", None)):
            monkeypatch.setattr(chunk_kernel, "load",
                                lambda loaded=loaded: loaded)
            result = run_stream(_strategy(), identifiers,
                                batch_size=BATCH_SIZE)
            best[name] = max(best.get(name, 0.0), result.throughput)
            outputs[name] = result.outputs
    ratio = best["compiled"] / best["numpy"]
    print_result("chunk kernel speedup",
                 f"compiled kernel is {ratio:.2f}x the NumPy kernel "
                 f"({best['compiled']:,.0f} vs {best['numpy']:,.0f} elem/s)")
    assert np.array_equal(outputs["compiled"], outputs["numpy"])
    assert ratio >= COMPILED_OVER_NUMPY_FLOOR, (
        f"compiled kernel only {ratio:.2f}x the NumPy kernel "
        f"({best['compiled']:,.0f} vs {best['numpy']:,.0f} elem/s)")
