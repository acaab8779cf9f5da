"""Overlay tier — rounds/second of the whole-system simulator at scale.

Not a paper figure: this tier tracks the simulator-level quantity the
north-star demands — how fast the end-to-end system (overlay + gossip
dissemination + per-node batch-ingested samplers) turns rounds at a
population far beyond the paper's 1k-node experiments.  Batch ingestion
made 10k-node overlays tractable (each node receives one chunk per round);
this benchmark pins that down as rounds/sec so regressions in the
simulator hot path are caught.

Two workloads are measured:

* ``steady``  — a static membership, the pure dissemination + sampling path;
* ``churn``   — dynamic membership (joins/leaves until ``T0``, then a
  stable phase), the path scenario-driven churn experiments exercise.

The node count scales with the environment so the same module serves both
tiers: CI smoke runs set ``OVERLAY_BENCH_NODES`` to a few hundred; run
locally without the variable to get the 10k-node measurement.  CI also sets
``OVERLAY_BENCH_ROUNDS`` to 60, so each workload's timed region lasts about
two seconds at 400 nodes: at 4 rounds (0.1-0.3 s) host noise spread runs
about 3x, too wide for a 30% gate to catch a 2x slowdown.
"""

import os

import pytest

from repro.bench.record import bench_json_dir, write_bench_json
from repro.network.node import NodeConfig
from repro.network.simulator import (
    ChurnConfig,
    SystemConfig,
    SystemSimulation,
)

#: 10k nodes locally; export OVERLAY_BENCH_NODES to scale down (CI smoke).
TOTAL_NODES = int(os.environ.get("OVERLAY_BENCH_NODES", 10_000))
ROUNDS = int(os.environ.get("OVERLAY_BENCH_ROUNDS", 5))

#: 5% of the population is adversary-controlled, as in the paper's settings.
NUM_MALICIOUS = max(1, TOTAL_NODES // 20)
NUM_CORRECT = TOTAL_NODES - NUM_MALICIOUS
SEED = 2013

NODE_CONFIG = NodeConfig(memory_size=10, sketch_width=16, sketch_depth=4,
                         record_output=False)

#: rounds/second per workload, filled by the benchmarks and persisted into
#: BENCH_overlay.json by the module fixture when BENCH_JSON_DIR is set.
RECORDED = {}


@pytest.fixture(scope="module", autouse=True)
def _persist_bench_record():
    """Write BENCH_overlay.json after the module when BENCH_JSON_DIR is set."""
    yield
    directory = bench_json_dir()
    if directory is None or not RECORDED:
        return
    tiers = {name: {"rounds_per_second": value}
             for name, value in RECORDED.items()}
    write_bench_json(
        os.path.join(directory, "BENCH_overlay.json"), "overlay", tiers,
        config={
            "nodes": TOTAL_NODES,
            "rounds": ROUNDS,
            "num_malicious": NUM_MALICIOUS,
            "seed": SEED,
        })


def _measure(benchmark, print_result, name, config, total_rounds):
    simulation = SystemSimulation(config, random_state=SEED)
    benchmark.pedantic(simulation.run, rounds=1, iterations=1)
    elapsed = benchmark.stats.stats.total
    rounds_per_second = total_rounds / elapsed if elapsed else float("inf")
    benchmark.extra_info["nodes"] = TOTAL_NODES
    benchmark.extra_info["rounds"] = total_rounds
    benchmark.extra_info["rounds_per_second"] = round(rounds_per_second, 3)
    RECORDED[name] = round(rounds_per_second, 3)
    print_result(
        f"overlay throughput: {name}",
        f"{TOTAL_NODES:,} nodes, {total_rounds} rounds in {elapsed:.2f}s "
        f"-> {rounds_per_second:.2f} rounds/s")
    return simulation


@pytest.mark.figure("overlay-throughput")
def test_gossip_rounds_per_second(benchmark, print_result):
    """Steady-state gossip rounds/sec over the full population."""
    config = SystemConfig(
        num_correct=NUM_CORRECT,
        num_malicious=NUM_MALICIOUS,
        rounds=ROUNDS,
        node_config=NODE_CONFIG,
    )
    simulation = _measure(benchmark, print_result, "steady gossip", config,
                          ROUNDS)
    assert simulation.engine.rounds_executed == ROUNDS


@pytest.mark.figure("overlay-throughput")
def test_gossip_rounds_per_second_under_churn(benchmark, print_result):
    """Gossip rounds/sec with dynamic membership until ``T0``."""
    churn_rounds = max(1, ROUNDS // 2)
    stable_rounds = max(1, ROUNDS - churn_rounds)
    config = SystemConfig(
        num_correct=NUM_CORRECT,
        num_malicious=NUM_MALICIOUS,
        node_config=NODE_CONFIG,
        churn=ChurnConfig(churn_rounds=churn_rounds,
                          stable_rounds=stable_rounds,
                          join_rate=0.2, leave_rate=0.2),
    )
    total = churn_rounds + stable_rounds
    simulation = _measure(benchmark, print_result, "gossip + churn", config,
                          total)
    assert simulation.engine.rounds_executed == total
