"""Attack models (Sections III-B and V of the paper).

The adversary fully controls ``l`` malicious node identifiers and may insert
them anywhere, any number of times, in the input stream of any correct node.
This module implements the three representative attacks the paper analyses
and simulates:

* :class:`TargetedAttack` — bias the frequency estimate of a *single* correct
  identifier by colliding with all ``s`` of its Count-Min cells; Section V-A
  shows this requires at least ``L_{k,s}`` distinct malicious identifiers.
* :class:`FloodingAttack` — bias *every* identifier's estimate by filling the
  whole Count-Min matrix; Section V-B shows this requires ``E_k`` distinct
  identifiers.
* :class:`PeakAttack` — the simulation scenario of Figure 7(a): one
  identifier is repeated an enormous number of times.
* :class:`SybilIdentifierFactory` — generation of fresh malicious identifiers
  disjoint from the correct population (the Sybil attack of Douceur).

Each attack produces an :class:`~repro.streams.stream.IdentifierStream` of
malicious insertions that can be merged with a correct stream via
:func:`repro.streams.stream.merge_streams` or handed to the
:class:`~repro.adversary.adversary.Adversary` controller.
:func:`peak_attack`, :func:`targeted_attack` and :func:`flooding_attack`
build each attack from its scenario parameters (the ``peak``, ``targeted``
and ``flooding`` adversary kinds).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.streams.stream import IdentifierStream
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_positive


class SybilIdentifierFactory:
    """Generates fresh malicious identifiers outside the correct population.

    The paper notes that a single real malicious node can present many
    identifiers, at the cost of obtaining a certificate per identifier from
    the central authority; the *number of distinct identifiers* is therefore
    the adversary's budget and the quantity bounded by Section V.

    Parameters
    ----------
    correct_identifiers:
        Identifiers already used by correct nodes; generated Sybil identifiers
        never collide with them.
    start:
        First candidate identifier value; defaults to one past the largest
        correct identifier.
    """

    def __init__(self, correct_identifiers: Sequence[int], *,
                 start: Optional[int] = None) -> None:
        self._taken = set(int(identifier) for identifier in correct_identifiers)
        if start is None:
            start = (max(self._taken) + 1) if self._taken else 0
        self._next = int(start)

    def generate(self, count: int) -> List[int]:
        """Return ``count`` fresh identifiers, never reusing previous ones."""
        check_positive("count", count)
        generated: List[int] = []
        while len(generated) < count:
            candidate = self._next
            self._next += 1
            if candidate in self._taken:
                continue
            self._taken.add(candidate)
            generated.append(candidate)
        return generated


@dataclass
class AttackBudget:
    """The adversary's effort for one attack.

    Attributes
    ----------
    distinct_identifiers:
        Number of distinct malicious identifiers injected (the quantity
        bounded by ``L_{k,s}`` / ``E_k``).
    repetitions:
        Number of times each malicious identifier is repeated in the stream.
    """

    distinct_identifiers: int
    repetitions: int = 1

    def __post_init__(self) -> None:
        check_positive("distinct_identifiers", self.distinct_identifiers)
        check_positive("repetitions", self.repetitions)

    @property
    def total_insertions(self) -> int:
        """Total number of malicious insertions in the stream."""
        return self.distinct_identifiers * self.repetitions


class TargetedAttack:
    """Attack aimed at eclipsing a single correct identifier (Section V-A).

    The adversary injects ``budget.distinct_identifiers`` distinct malicious
    identifiers, each repeated ``budget.repetitions`` times, hoping that for
    every row of the victim's Count-Min sketch at least one of them collides
    with the targeted identifier's cell, thereby inflating its estimate
    ``f̂_target`` and driving its insertion probability ``a_target`` down.

    Parameters
    ----------
    target_identifier:
        The correct identifier whose sampling frequency the adversary wants to
        suppress.
    budget:
        Number of distinct identifiers and per-identifier repetitions.
    sybil_factory:
        Source of fresh malicious identifiers.
    """

    name = "targeted"

    def __init__(self, target_identifier: int, budget: AttackBudget,
                 sybil_factory: SybilIdentifierFactory) -> None:
        self.target_identifier = int(target_identifier)
        self.budget = budget
        self._factory = sybil_factory
        self._identifiers: Optional[List[int]] = None

    @property
    def malicious_identifiers(self) -> List[int]:
        """The distinct malicious identifiers used by this attack."""
        if self._identifiers is None:
            self._identifiers = self._factory.generate(
                self.budget.distinct_identifiers
            )
        return list(self._identifiers)

    def generate_insertions(self, *,
                            random_state: RandomState = None) -> IdentifierStream:
        """Return the stream of malicious insertions for this attack."""
        rng = ensure_rng(random_state)
        identifiers = self.malicious_identifiers
        insertions: List[int] = []
        for identifier in identifiers:
            insertions.extend([identifier] * self.budget.repetitions)
        rng.shuffle(insertions)
        return IdentifierStream(
            identifiers=insertions,
            universe=identifiers,
            malicious=identifiers,
            label=f"targeted-attack(target={self.target_identifier}, "
                  f"l={self.budget.distinct_identifiers}, "
                  f"rep={self.budget.repetitions})",
        )


class FloodingAttack:
    """Attack aimed at inflating every frequency estimate (Section V-B).

    The adversary injects enough distinct identifiers to touch *all* ``k``
    columns of every row of the Count-Min matrix, which overestimates the
    frequency of every identifier (correct and malicious alike).
    """

    name = "flooding"

    def __init__(self, budget: AttackBudget,
                 sybil_factory: SybilIdentifierFactory) -> None:
        self.budget = budget
        self._factory = sybil_factory
        self._identifiers: Optional[List[int]] = None

    @property
    def malicious_identifiers(self) -> List[int]:
        """The distinct malicious identifiers used by this attack."""
        if self._identifiers is None:
            self._identifiers = self._factory.generate(
                self.budget.distinct_identifiers
            )
        return list(self._identifiers)

    def generate_insertions(self, *,
                            random_state: RandomState = None) -> IdentifierStream:
        """Return the stream of malicious insertions for this attack."""
        rng = ensure_rng(random_state)
        identifiers = self.malicious_identifiers
        insertions: List[int] = []
        for identifier in identifiers:
            insertions.extend([identifier] * self.budget.repetitions)
        rng.shuffle(insertions)
        return IdentifierStream(
            identifiers=insertions,
            universe=identifiers,
            malicious=identifiers,
            label=f"flooding-attack(l={self.budget.distinct_identifiers}, "
                  f"rep={self.budget.repetitions})",
        )


class PeakAttack:
    """The simulation peak attack of Figure 7(a).

    A single malicious identifier is repeated ``peak_frequency`` times.  Used
    together with a lightly biased or uniform correct stream, it reproduces
    the "one identifier occurs 50,000 times, the others 50 times" scenario.
    """

    name = "peak"

    def __init__(self, peak_frequency: int,
                 sybil_factory: SybilIdentifierFactory, *,
                 peak_identifier: Optional[int] = None) -> None:
        check_positive("peak_frequency", peak_frequency)
        self.peak_frequency = int(peak_frequency)
        if peak_identifier is None:
            peak_identifier = sybil_factory.generate(1)[0]
        self.peak_identifier = int(peak_identifier)

    @property
    def malicious_identifiers(self) -> List[int]:
        """The single identifier repeated by the attack."""
        return [self.peak_identifier]

    def generate_insertions(self, *,
                            random_state: RandomState = None) -> IdentifierStream:
        """Return the stream of malicious insertions for this attack."""
        insertions = [self.peak_identifier] * self.peak_frequency
        return IdentifierStream(
            identifiers=insertions,
            universe=[self.peak_identifier],
            malicious=[self.peak_identifier],
            label=f"peak-attack(freq={self.peak_frequency})",
        )


# ---------------------------------------------------------------------- #
# Builders: the scenario-parameter form of each attack
# ---------------------------------------------------------------------- #
def peak_attack(peak_frequency: int = 50_000, *,
                sybil_factory: SybilIdentifierFactory) -> PeakAttack:
    """Peak attack of Figure 7(a): one identifier ``peak_frequency`` times."""
    return PeakAttack(peak_frequency, sybil_factory)


def targeted_attack(target_identifier: int, *, distinct_identifiers: int,
                    repetitions: int = 1,
                    sybil_factory: SybilIdentifierFactory) -> TargetedAttack:
    """Targeted attack against ``target_identifier`` with the given budget."""
    budget = AttackBudget(distinct_identifiers=distinct_identifiers,
                          repetitions=repetitions)
    return TargetedAttack(target_identifier, budget, sybil_factory)


def flooding_attack(*, distinct_identifiers: int, repetitions: int = 1,
                    sybil_factory: SybilIdentifierFactory) -> FloodingAttack:
    """Flooding attack with the given identifier budget."""
    budget = AttackBudget(distinct_identifiers=distinct_identifiers,
                          repetitions=repetitions)
    return FloodingAttack(budget, sybil_factory)
