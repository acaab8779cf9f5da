"""Regression gate: compare a benchmark record against a baseline.

CLI (the CI step)::

    python -m repro.bench.compare BENCH_engine.json \\
        benchmarks/baselines/BENCH_engine.json --tolerance 0.30

Every ``*_per_second`` metric in the baseline's tiers is treated as a
higher-is-better throughput: the gate fails (exit code 1) when the current
value falls more than ``tolerance`` below the baseline.  Every ``*_bytes``
metric is lower-is-better: it fails when the current value exceeds the
baseline by more than :data:`BYTES_ALLOWANCE`.  Byte counts (migrated or
snapshotted shard state) are a pure function of the seed and the workload,
so their allowance is a fixed small constant rather than a host-noise
tolerance.  A baseline tier/metric missing from the current record fails
too (a silently vanished tier is itself a regression; pass
``--allow-missing`` to tolerate it during scale-downs).  Improvements and
small fluctuations pass quietly, so the committed baseline only needs a
deliberate refresh when a metric moves for good.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List

__all__ = ["BYTES_ALLOWANCE", "compare_records", "load_record", "main"]

#: Allowed fractional growth of a ``*_bytes`` metric over its baseline.
BYTES_ALLOWANCE = 0.05


def _gated(metrics: Dict[str, Any]) -> Dict[str, float]:
    """The gated metrics of one baseline tier: throughputs and byte counts."""
    return {name: value for name, value in metrics.items()
            if isinstance(value, (int, float)) and (
                (name.endswith("_per_second") and value > 0)
                or (name.endswith("_bytes") and value >= 0))}


def load_record(path: str) -> Dict[str, Any]:
    """Load one ``BENCH_*.json`` record and validate its shape."""
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    if not isinstance(record, dict) or "tiers" not in record:
        raise ValueError(
            f"{path}: not a benchmark record (expected a JSON object with "
            "a 'tiers' section)")
    return record


def compare_records(current: Dict[str, Any], baseline: Dict[str, Any], *,
                    tolerance: float = 0.30,
                    allow_missing: bool = False) -> List[str]:
    """Return the list of regression messages (empty = gate passes).

    ``tolerance`` is the allowed fractional throughput drop: with ``0.30``,
    a current throughput below 70% of the baseline fails.  Byte counts may
    grow by :data:`BYTES_ALLOWANCE` at most.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError(f"tolerance must be in [0, 1), got {tolerance}")
    failures: List[str] = []
    current_tiers = current.get("tiers", {})
    for tier, metrics in sorted(baseline.get("tiers", {}).items()):
        gated = _gated(metrics)
        if not gated:
            continue
        if tier not in current_tiers:
            if not allow_missing:
                failures.append(
                    f"tier {tier!r}: present in the baseline but missing "
                    "from the current record")
            continue
        for name, base_value in sorted(gated.items()):
            value = current_tiers[tier].get(name)
            if not isinstance(value, (int, float)):
                if not allow_missing:
                    failures.append(
                        f"tier {tier!r}: metric {name!r} missing from the "
                        "current record")
                continue
            if name.endswith("_bytes"):
                if value > base_value * (1.0 + BYTES_ALLOWANCE):
                    failures.append(
                        f"tier {tier!r}: {name} grew "
                        f"{value - base_value:,.0f} bytes ({value:,.0f} vs "
                        f"baseline {base_value:,.0f}, allowance "
                        f"{BYTES_ALLOWANCE:.0%})")
            elif value < base_value * (1.0 - tolerance):
                drop = 1.0 - value / base_value
                failures.append(
                    f"tier {tier!r}: {name} regressed {drop:.0%} "
                    f"({value:,.0f} vs baseline {base_value:,.0f}, "
                    f"tolerance {tolerance:.0%})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.compare",
        description="Fail when a benchmark record regresses against a "
                    "committed baseline.")
    parser.add_argument("current", help="the BENCH_*.json of this run")
    parser.add_argument("baseline",
                        help="the committed baseline BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed fractional throughput drop "
                             "(default 0.30 = fail below 70%% of baseline)")
    parser.add_argument("--allow-missing", action="store_true",
                        help="tolerate baseline tiers/metrics absent from "
                             "the current record")
    arguments = parser.parse_args(argv)
    try:
        current = load_record(arguments.current)
        baseline = load_record(arguments.baseline)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"bench-compare: {error}", file=sys.stderr)
        return 2
    failures = compare_records(current, baseline,
                               tolerance=arguments.tolerance,
                               allow_missing=arguments.allow_missing)
    name = current.get("name", arguments.current)
    if failures:
        print(f"bench-compare: {name}: {len(failures)} regression(s)")
        for failure in failures:
            print(f"  FAIL {failure}")
        return 1
    gated = [metric for metrics in baseline.get("tiers", {}).values()
             for metric in _gated(metrics)]
    sizes = sum(1 for metric in gated if metric.endswith("_bytes"))
    print(f"bench-compare: {name}: OK ({len(gated) - sizes} throughput "
          f"metric(s) within {arguments.tolerance:.0%} of baseline, {sizes} "
          f"byte metric(s) within {BYTES_ALLOWANCE:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
