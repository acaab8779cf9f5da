"""Differential scenario fuzzing: random specs, cross-backend equality.

The paper's determinism story — every execution backend replays the same
coins and produces bit-identical outputs per master seed — is only as strong
as the test surface that exercises it.  This package generates that surface:

* :mod:`repro.fuzz.generator` — a seeded generator of random *valid*
  :class:`~repro.scenarios.spec.ScenarioSpec` combinations (streams x
  churn x adversaries x sharding x autoscale);
* :mod:`repro.fuzz.differential` — the differential executor that runs each
  spec on several backends (serial, process, socket)
  and fails on any divergence in the result dictionaries, emitting the
  offending spec in the replayable corpus format of ``tests/fuzz_corpus/``.

Surfaced on the command line as ``repro fuzz --specs N --seed S``.
"""

from repro.fuzz.differential import (
    DEFAULT_VARIANTS,
    VARIANTS,
    DivergenceReport,
    FuzzReport,
    corpus_entry,
    replay_corpus_entry,
    run_differential,
)
from repro.fuzz.generator import generate_specs

__all__ = [
    "generate_specs",
    "run_differential",
    "replay_corpus_entry",
    "corpus_entry",
    "DivergenceReport",
    "FuzzReport",
    "VARIANTS",
    "DEFAULT_VARIANTS",
]
