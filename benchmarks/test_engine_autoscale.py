"""Autoscale tier — elasticity cost of the shard placement plane.

Not a paper figure: this tier prices the machinery that lets the sharded
ensemble change shape while a stream is running, against the invariant the
paper's analysis rests on (every placement action is a pure routing change,
so outputs per seed never move):

* ``serial``  — the reference run: the same Zipf workload on the serial
  backend, no placement actions (the bit-identity baseline); it also
  records ``snapshot_bytes``, the size of the 4-shard ``snapshot()`` after
  the run;
* ``process`` / ``socket`` — the same workload on a pool that starts at one
  worker and grows under a load-triggered :class:`AutoscalePolicy`, i.e.
  live migrations and worker spawns happen *inside* the timed run.  Outputs
  and merged memory are asserted bit-identical to the serial tier, and the
  recorded extra-info captures the scaling schedule (final worker count,
  scale-ups, migrations) plus the bytes of shard state the migrations
  shipped (each moves one shard's own pickle).

Both byte counts are a pure function of the seed and the workload, so the
regression gate (:mod:`repro.bench.compare`) holds every ``*_bytes`` tier
metric to within a fixed 5% of its baseline on any host.

The workload scales down through the same environment knobs as the
throughput tier (``ENGINE_BENCH_STREAM_SIZE``); the autoscale policy's
load target scales with the stream so the schedule stays comparable.
"""

import os

import numpy as np
import pytest

from repro import telemetry
from repro.bench.record import (
    bench_json_dir,
    summarise_snapshot,
    write_bench_json,
)
from repro.engine import ShardedSamplingService, run_stream
from repro.streams import zipf_stream

STREAM_SIZE = int(os.environ.get("ENGINE_BENCH_STREAM_SIZE", 1_000_000))
POPULATION_SIZE = max(1, STREAM_SIZE // 10)
ALPHA = 1.1
MEMORY_SIZE = 50
SKETCH_WIDTH = 200
SKETCH_DEPTH = 5
BATCH_SIZE = 8192
SHARDS = 4
SEED = 99

#: Grow from one worker toward three while the stream runs; the load target
#: is pinned to the stream size so roughly the same schedule (two scale-ups
#: plus rebalancing migrations) plays out at every ENGINE_BENCH_STREAM_SIZE.
AUTOSCALE = {
    "min_workers": 1,
    "max_workers": 3,
    "target_load_per_worker": max(1, STREAM_SIZE // 3),
    "check_every": max(1, STREAM_SIZE // 16),
}

#: elements/second plus scaling/byte aggregates per tier, filled by the
#: benchmarks and read by the assertions at the end (tests run in file
#: order) and by the persisted BENCH_autoscale.json.
RECORDED = {}
MERGED_MEMORY = {}
SCALING = {}

TELEMETRY_REGISTRY = telemetry.MetricsRegistry()


@pytest.fixture(scope="module", autouse=True)
def _persist_bench_record():
    """Write BENCH_autoscale.json after the module when BENCH_JSON_DIR set."""
    yield
    directory = bench_json_dir()
    if directory is None or not RECORDED:
        return
    tiers = {}
    for name, (eps, _) in RECORDED.items():
        tier = {"elements_per_second": int(eps)}
        tier.update(SCALING.get(name, {}))
        tiers[name] = tier
    write_bench_json(
        os.path.join(directory, "BENCH_autoscale.json"), "autoscale", tiers,
        telemetry=summarise_snapshot(TELEMETRY_REGISTRY.snapshot()),
        config={
            "stream_size": STREAM_SIZE,
            "population_size": POPULATION_SIZE,
            "alpha": ALPHA,
            "batch_size": BATCH_SIZE,
            "shards": SHARDS,
            "seed": SEED,
            "autoscale": AUTOSCALE,
        })


@pytest.fixture(scope="module")
def identifiers():
    stream = zipf_stream(STREAM_SIZE, POPULATION_SIZE, alpha=ALPHA,
                         random_state=SEED)
    return np.asarray(stream.identifiers, dtype=np.int64)


def _sharded(backend="serial", **kwargs):
    return ShardedSamplingService.knowledge_free(
        shards=SHARDS, memory_size=MEMORY_SIZE, sketch_width=SKETCH_WIDTH,
        sketch_depth=SKETCH_DEPTH, random_state=SEED, backend=backend,
        **kwargs)


def _record(benchmark, print_result, name, result):
    throughput = result.throughput
    RECORDED[name] = (throughput, result.outputs)
    benchmark.extra_info["elements_per_second"] = int(throughput)
    benchmark.extra_info["elements"] = result.elements
    print_result(f"autoscale throughput: {name}",
                 f"{result.elements:,} elements in "
                 f"{result.elapsed_seconds:.2f}s -> {throughput:,.0f} elem/s")


@pytest.mark.figure("autoscale")
def test_serial_reference_throughput(benchmark, print_result, identifiers):
    service = _sharded()
    result = benchmark.pedantic(
        lambda: run_stream(service, identifiers, batch_size=BATCH_SIZE),
        rounds=1, iterations=1)
    MERGED_MEMORY["serial"] = service.merged_memory()
    SCALING["serial"] = {"snapshot_bytes": len(service.snapshot())}
    benchmark.extra_info.update(SCALING["serial"])
    print_result("autoscale snapshot: serial",
                 f"{SCALING['serial']['snapshot_bytes']:,} bytes for "
                 f"{SHARDS} shards")
    _record(benchmark, print_result, "serial", result)


@pytest.mark.figure("autoscale")
@pytest.mark.parametrize("backend", ["process", "socket"])
def test_autoscaled_backend_throughput(benchmark, print_result, identifiers,
                                       backend):
    """One worker to three, live, inside the timed run."""
    with telemetry.enabled(TELEMETRY_REGISTRY):
        service = _sharded(backend, workers=1, autoscale=AUTOSCALE)
        try:
            result = benchmark.pedantic(
                lambda: run_stream(service, identifiers,
                                   batch_size=BATCH_SIZE),
                rounds=1, iterations=1)
            MERGED_MEMORY[backend] = service.merged_memory()
            stats = service.autoscaler.stats()
            scaling = {
                "final_workers": service.placement.workers,
                "scale_ups": stats["scale_ups"],
                "rebalances": stats["rebalances"],
                "migrations": service.placement.migrations,
            }
        finally:
            service.close()
    snapshot = TELEMETRY_REGISTRY.snapshot()["counters"]
    scaling["migration_bytes"] = int(
        snapshot.get(f"backend.{backend}.migration_bytes", 0))
    SCALING[backend] = scaling
    benchmark.extra_info.update(scaling)
    print_result(
        f"autoscale schedule: {backend}",
        f"{scaling['final_workers']} workers after "
        f"{scaling['scale_ups']} scale-ups, "
        f"{scaling['migrations']} migrations "
        f"({scaling['migration_bytes']:,} bytes of shard state moved)")
    _record(benchmark, print_result, backend, result)


@pytest.mark.figure("autoscale")
@pytest.mark.parametrize("backend", ["process", "socket"])
def test_autoscaled_run_bit_identical_to_serial(print_result, backend):
    """Elasticity never moves an output: same stream, same seed, same bits."""
    if "serial" not in RECORDED or backend not in RECORDED:
        pytest.skip("autoscale benchmarks did not run before this test")
    _, serial_outputs = RECORDED["serial"]
    _, backend_outputs = RECORDED[backend]
    assert np.array_equal(serial_outputs, backend_outputs)
    assert MERGED_MEMORY["serial"] == MERGED_MEMORY[backend]
    scaling = SCALING[backend]
    assert scaling["final_workers"] == 3, scaling
    assert scaling["scale_ups"] == 2, scaling
    assert scaling["migrations"] > 0, scaling
    print_result(
        "autoscale exactness",
        f"{backend} pool grew 1 -> {scaling['final_workers']} workers "
        f"mid-run and stayed bit-identical to serial over "
        f"{serial_outputs.size:,} outputs")
