"""Adversary and attack models (Sections III-B and V).

* :mod:`repro.adversary.attacks` — targeted, flooding and peak attacks, their
  scenario builders, and Sybil identifier generation;
* :mod:`repro.adversary.adversary` — the strong-adversary controller that
  composes static attacks and biases a correct node's input stream up front;
* :mod:`repro.adversary.view` — the read-only sampler observation the
  strong adversary is allowed (the memory; never the coins);
* :mod:`repro.adversary.adaptive` — feedback-driven attacks scheduled
  chunk by chunk against the observed sampler state.

A scenario's ``adversary`` list mixes both kinds: one coalition whose
attacks mint Sybil identifiers from one shared factory.
"""

from repro.adversary.adaptive import (
    AdaptiveAdversary,
    AdaptiveAttack,
    AdaptiveStreamSource,
    BudgetLedger,
    BurstSybilAttack,
    EclipseAttack,
    MemoryFloodAttack,
)
from repro.adversary.adversary import (
    Adversary,
    make_combined_adversary,
    make_flooding_adversary,
    make_peak_adversary,
    make_targeted_adversary,
)
from repro.adversary.attacks import (
    AttackBudget,
    FloodingAttack,
    PeakAttack,
    SybilIdentifierFactory,
    TargetedAttack,
)
from repro.adversary.view import SamplerView

__all__ = [
    "Adversary",
    "AttackBudget",
    "TargetedAttack",
    "FloodingAttack",
    "PeakAttack",
    "SybilIdentifierFactory",
    "SamplerView",
    "BudgetLedger",
    "AdaptiveAttack",
    "AdaptiveAdversary",
    "AdaptiveStreamSource",
    "MemoryFloodAttack",
    "EclipseAttack",
    "BurstSybilAttack",
    "make_peak_adversary",
    "make_targeted_adversary",
    "make_flooding_adversary",
    "make_combined_adversary",
]
