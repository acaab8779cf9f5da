"""Repository benchmark: one workload per call, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload skewed_serial --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is the separate traced run that reports the per-layer metrics.  A
human-readable table and the run's details (tail percentiles and their
sample counts, host facts, mismatches) go to standard error; the last line
of standard output is the JSON result.  The exit code is non-zero when an
output check fails or the run cannot start.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("skewed_serial", "trace_eclipse_process", "serve_socket")

def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics.

    ``BENCHMARK.json`` at the repository root is the one list of metrics.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def host_facts() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no repro sources under {ROOT}/src; run from a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import measure

    measure.adopt_orphans()
    try:
        if arguments.workload == "serve_socket":
            from perfbench import serving as module
        else:
            from perfbench import library as module
        result = module.run(arguments.workload, arguments.seed,
                            arguments.seconds, bool(arguments.trace))
    finally:
        measure.stop_descendants()
    info = result.pop("info")
    info["host"] = host_facts()
    info["workload"] = arguments.workload
    info["seed"] = arguments.seed
    # a layer that does not run on this workload reports 0 (README.md)
    measured = result["metrics"]
    units = metric_units("per_layer" if arguments.trace else "end_to_end")
    result["metrics"] = {
        name: {"value": float(measured.get(name, 0.0) if arguments.trace
                              else measured[name]), "unit": unit}
        for name, unit in units.items()}
    for name, metric in result["metrics"].items():
        print(f"{arguments.workload:>22} {name:<30} {metric['value']:>14.6g} "
              f"{metric['unit']}", file=sys.stderr)
    print(json.dumps(info, sort_keys=True), file=sys.stderr)
    print(json.dumps(result))
    if not result["correct"]:
        print("perfbench: output check failed: "
              + "; ".join(info.get("mismatches", [])), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
