"""Seeded generator of random valid scenario specs.

:func:`generate_specs` draws ``count`` scenarios from a single
``numpy`` generator seeded with ``seed``, so the same ``(count, seed)``
pair always yields the same spec list — a fuzz failure reported by CI is
reproduced locally with the same two numbers.

The sampled space deliberately crosses every plane the differential
executor must keep bit-identical: stream families, adversary lists with
static attacks, adaptive attacks or both, churn-model streams, shard
counts, batch sizes and autoscale policies.  Sizes are kept small (a few
thousand identifiers per stream) so a 20-spec differential sweep stays
inside a CI smoke budget.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.scenarios import ScenarioSpec

__all__ = ["generate_specs"]


def _choice(rng: np.random.Generator, options):
    """Pick one element of ``options`` (kept order-stable for replay)."""
    return options[int(rng.integers(len(options)))]


def _stream_section(rng: np.random.Generator,
                    adaptive: bool) -> Dict[str, Any]:
    """Draw a stream component; adaptive runs need feedback-visible skew."""
    population = int(rng.integers(100, 400))
    stream_size = int(rng.integers(2000, 6000))
    kinds = ["zipf", "uniform", "truncated-poisson", "flash_crowd"]
    if adaptive:
        # the adaptive attacks key off held/over-represented identifiers;
        # keep the stream families where that feedback loop has signal
        kinds = ["zipf", "flash_crowd"]
    kind = _choice(rng, kinds)
    if kind == "zipf":
        params = {"stream_size": stream_size, "population_size": population,
                  "alpha": round(float(rng.uniform(1.1, 2.5)), 3)}
    elif kind == "uniform":
        params = {"stream_size": stream_size, "population_size": population}
    elif kind == "truncated-poisson":
        params = {"stream_size": stream_size, "population_size": population,
                  "lam": round(float(rng.uniform(5.0, 20.0)), 3)}
    else:  # flash_crowd: churn-model stream, sizes follow its own knobs
        params = {"initial_population": population,
                  "churn_steps": int(rng.integers(40, 120)),
                  "stable_steps": int(rng.integers(40, 120)),
                  "advertisements_per_step": int(rng.integers(3, 8))}
    return {"kind": kind, "params": params}


def _strategy_sections(rng: np.random.Generator) -> List[Dict[str, Any]]:
    """Draw one or two strategies that run on any backend."""
    memory = int(rng.integers(8, 20))
    sections = [{"kind": "knowledge-free",
                 "params": {"memory_size": memory,
                            "sketch_width": int(rng.integers(16, 40)),
                            "sketch_depth": int(rng.integers(3, 6))}}]
    if rng.random() < 0.5:
        sections.append({"kind": _choice(rng, ["reservoir", "minwise"]),
                         "params": {"memory_size": memory}})
    return sections


def _adaptive_attacks(rng: np.random.Generator) -> List[Dict[str, Any]]:
    """Draw one or two adaptive attacks with small budgets."""
    attacks = []
    kind = _choice(rng, ["memory_flood", "eclipse", "burst_sybil"])
    if kind == "memory_flood":
        attacks.append({"kind": "memory_flood", "params": {
            "insertion_budget": int(rng.integers(200, 1200)),
            "repetitions_per_target": int(rng.integers(2, 6))}})
    elif kind == "eclipse":
        attacks.append({"kind": "eclipse", "params": {
            "target_fraction": round(float(rng.uniform(0.05, 0.2)), 3),
            "insertion_budget": int(rng.integers(200, 1200)),
            "repetitions_per_target": int(rng.integers(2, 8)),
            "evictors_per_chunk": int(rng.integers(4, 24))}})
    else:
        attacks.append({"kind": "burst_sybil", "params": {
            "distinct_identifiers": int(rng.integers(8, 48)),
            "repetitions": int(rng.integers(2, 4)),
            "burst_threshold": round(float(rng.uniform(0.02, 0.3)), 3),
            "cohort_size": int(rng.integers(4, 12))}})
    if rng.random() < 0.3:
        attacks.append({"kind": "memory_flood", "params": {
            "insertion_budget": int(rng.integers(100, 500))}})
    return attacks


def _engine_section(rng: np.random.Generator) -> Dict[str, Any]:
    """Draw the sharding topology; the executor swaps backends later.

    The shard count is fixed here, in the spec, because bit-identity only
    holds across backends *at the same topology* — ``S`` shards hold ``S``
    independent samplers whatever process they run in.
    """
    engine: Dict[str, Any] = {
        "driver": "batch",
        "batch_size": int(_choice(rng, [256, 512, 1024])),
        "shards": int(_choice(rng, [1, 2, 3])),
    }
    if rng.random() < 0.25:
        engine["autoscale"] = {
            "min_workers": 1,
            "max_workers": 2,
            "target_load_per_worker": int(_choice(rng, [400, 800])),
            "check_every": int(_choice(rng, [256, 512])),
        }
    return engine


def generate_specs(count: int, seed: int) -> List[ScenarioSpec]:
    """Return ``count`` random valid scenario specs, deterministic in ``seed``.

    Every spec is constructed through :meth:`ScenarioSpec.from_dict`, so the
    generator can only emit combinations the spec layer itself accepts —
    a generated spec that fails validation is a generator bug, not a fuzz
    finding.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    rng = np.random.default_rng(seed)
    specs: List[ScenarioSpec] = []
    for index in range(count):
        mode = _choice(rng, ["plain", "plain", "static", "adaptive",
                             "adaptive", "static+adaptive", "churn"])
        adaptive = mode in ("adaptive", "static+adaptive")
        data: Dict[str, Any] = {
            "name": f"fuzz-{seed}-{index}",
            "seed": int(rng.integers(0, 2**31 - 1)),
            "trials": 1,
            "strategies": _strategy_sections(rng),
            "engine": _engine_section(rng),
        }
        if mode == "churn":
            data["churn"] = {
                "churn_steps": int(rng.integers(40, 120)),
                "stable_steps": int(rng.integers(40, 120)),
                "join_rate": round(float(rng.uniform(0.01, 0.1)), 3),
                "leave_rate": round(float(rng.uniform(0.01, 0.1)), 3),
                "initial_population": int(rng.integers(100, 300)),
            }
        else:
            data["stream"] = _stream_section(rng, adaptive=adaptive)
        attacks: List[Dict[str, Any]] = []
        if mode in ("static", "static+adaptive"):
            attacks.append({"kind": "flooding", "params": {
                "distinct_identifiers": int(rng.integers(4, 32)),
                "repetitions": int(rng.integers(2, 10))}})
        if adaptive:
            attacks.extend(_adaptive_attacks(rng))
        if attacks:
            data["adversary"] = attacks
        specs.append(ScenarioSpec.from_dict(data))
    return specs
