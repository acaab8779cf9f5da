"""Shared configuration of the benchmark harness.

Every module in this directory regenerates one table or figure of the paper
(or one ablation).  Benchmarks print the rows/series they produce so that
running ``pytest benchmarks/ --benchmark-only -s`` shows the same quantities
the paper reports; run without ``-s`` to only collect the timings.

Simulation benchmarks default to scaled-down workloads (documented in each
module) so the whole harness completes in a few minutes; pass the paper-scale
parameters through the driver functions in :mod:`repro.experiments.figures`
to reproduce the full-size experiments.
"""

import pytest


@pytest.fixture(scope="session", autouse=True)
def chunk_kernel_built():
    """Build (or load) the compiled chunk kernel before anything is timed.

    The first chunk of a fresh checkout would otherwise compile
    ``chunk_kernel.c`` (~0.2 s) inside the first timed run; fork-started
    workers inherit the loaded kernel.
    """
    from repro.core import chunk_kernel

    chunk_kernel.load()


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "figure(name): marks a benchmark as regenerating a paper figure"
    )


@pytest.fixture
def print_result():
    """Print a titled block of benchmark output (visible with ``-s``)."""
    def _print(title: str, body: str) -> None:
        print(f"\n=== {title} ===")
        print(body)
    return _print
