"""Streaming-sketch substrate.

This subpackage contains the data-stream summaries the node sampling service
is built on:

* :mod:`repro.sketches.hashing` — 2-universal hash families (Section III-D);
* :mod:`repro.sketches.count_min` — Count-Min sketch (Algorithm 2) plus an
  exact frequency oracle used by the omniscient strategy and the tests;
* :mod:`repro.sketches.count_sketch`, :mod:`repro.sketches.misra_gries`
  (Space-Saving) — alternative frequency estimators used for ablations;
* :mod:`repro.sketches.hyperloglog` — distinct-count estimator (online
  population-size estimation, used by the adaptive strategy).
"""

from repro.sketches.count_min import (
    CountMinSketch,
    ExactFrequencyCounter,
    dimensions_from_error,
)
from repro.sketches.count_sketch import CountSketch
from repro.sketches.hashing import (
    MERSENNE_PRIME_61,
    UniversalHashFamily,
    UniversalHashFunction,
    pairwise_collision_rate,
)
from repro.sketches.hyperloglog import HyperLogLog
from repro.sketches.misra_gries import SpaceSavingSummary

__all__ = [
    "CountMinSketch",
    "ExactFrequencyCounter",
    "dimensions_from_error",
    "CountSketch",
    "SpaceSavingSummary",
    "HyperLogLog",
    "UniversalHashFamily",
    "UniversalHashFunction",
    "pairwise_collision_rate",
    "MERSENNE_PRIME_61",
]
