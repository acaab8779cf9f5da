"""The paper's primary contribution: Byzantine-tolerant node sampling.

* :mod:`repro.core.base` — the common online sampling-strategy interface;
* :mod:`repro.core.omniscient` — Algorithm 1 (omniscient strategy);
* :mod:`repro.core.knowledge_free` — Algorithm 3 (knowledge-free strategy
  backed by a Count-Min sketch);
* :mod:`repro.core.chunk_kernel` — Algorithm 3 over a whole chunk in C,
  built with the system compiler at first use (the strategy falls back to
  its NumPy chunk kernel where that fails);
* :mod:`repro.core.baselines` — min-wise (Brahms-style), reservoir and
  full-memory baselines;
* :mod:`repro.core.service` — the :class:`NodeSamplingService` facade exposing
  the ``sample()`` primitive to applications.
"""

from repro.core.adaptive import AdaptiveKnowledgeFreeStrategy
from repro.core.base import SamplingStrategy
from repro.core.baselines import (
    FullMemorySampler,
    MinWiseSampler,
    ReservoirSampler,
)
from repro.core.knowledge_free import FrequencyOracle, KnowledgeFreeStrategy
from repro.core.omniscient import EmpiricalOmniscientStrategy, OmniscientStrategy
from repro.core.service import NodeSamplingService

__all__ = [
    "SamplingStrategy",
    "OmniscientStrategy",
    "EmpiricalOmniscientStrategy",
    "KnowledgeFreeStrategy",
    "AdaptiveKnowledgeFreeStrategy",
    "FrequencyOracle",
    "MinWiseSampler",
    "ReservoirSampler",
    "FullMemorySampler",
    "NodeSamplingService",
]
