"""Adaptive, feedback-driven adversaries (the strong model of Section III-B).

The static :class:`~repro.adversary.adversary.Adversary` pre-generates its
whole malicious stream before ingestion begins, so it can never react to the
sampler's observed state.  The classes here close that loop: an
:class:`AdaptiveAdversary` owns a set of :class:`AdaptiveAttack` objects
and, between chunks of the legitimate stream, lets each attack query a
read-only :class:`~repro.adversary.view.SamplerView` (the memory contents —
an observation, never the sampler's coins) and schedule its next insertions
accordingly.

Three attacks exercise the loop:

* :class:`MemoryFloodAttack` — floods identifiers the sampler *currently
  holds*.  Under Algorithm 3 an inflated estimate ``f̂_j`` collapses the
  insertion probability ``a_j = min_sigma / f̂_j``, so a flooded identifier
  that gets evicted can essentially never re-enter the memory.
* :class:`EclipseAttack` — the overlay eclipse/partition strategy: pick a
  fixed neighbour set of correct identifiers, flood the ones currently in
  memory (poisoning their re-entry probability) while injecting fresh
  Sybil evictors to push them out — once every target is evicted, the
  targeted nodes are invisible to the sampling service.
* :class:`BurstSybilAttack` — colluding sybils that ride flash-crowd
  bursts: when a chunk carries an unusually high fraction of never-seen
  identifiers (a correlated join burst), a cohort of fresh sybils is
  inserted alongside so they blend in with the legitimately new arrivals.

Every attack spends against an explicit :class:`BudgetLedger` wrapping the
paper's :class:`~repro.adversary.attacks.AttackBudget` (the ``l`` distinct
identifiers / total insertions that Section V bounds), so exhaustion
mid-stream simply stops the attack.

Determinism: attack decisions are pure functions of (observations, the
upcoming legitimate chunk, the adversary's own generator).  Observations
are backend-invariant — pipelined backends drain in-flight chunks before
answering — so an adaptive run is bit-identical across every execution
backend per seed.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

import numpy as np

from repro.adversary.attacks import AttackBudget, SybilIdentifierFactory
from repro.adversary.view import SamplerView
from repro.streams.source import StreamSource
from repro.streams.stream import IdentifierStream
from repro.telemetry import runtime as telemetry
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_positive, check_probability


class BudgetLedger:
    """Track an attack's spending against its :class:`AttackBudget`.

    The budget is the paper's adversary-effort quantity: a number of
    distinct malicious identifiers, each insertable ``repetitions`` times.
    Grants clamp to what remains, so an attack can keep asking and simply
    receives zero once exhausted.
    """

    def __init__(self, budget: AttackBudget) -> None:
        self.budget = budget
        self.insertions_spent = 0
        self.distinct_spent = 0

    @property
    def insertions_remaining(self) -> int:
        """Insertions still allowed before the budget is exhausted."""
        return self.budget.total_insertions - self.insertions_spent

    @property
    def distinct_remaining(self) -> int:
        """Fresh distinct identifiers still allowed."""
        return self.budget.distinct_identifiers - self.distinct_spent

    @property
    def exhausted(self) -> bool:
        """Whether no further insertions are possible."""
        return self.insertions_remaining <= 0

    def grant_insertions(self, requested: int) -> int:
        """Grant up to ``requested`` insertions, clamped to the remainder."""
        granted = max(0, min(int(requested), self.insertions_remaining))
        self.insertions_spent += granted
        return granted

    def grant_distinct(self, requested: int) -> int:
        """Grant up to ``requested`` fresh distinct identifiers."""
        granted = max(0, min(int(requested), self.distinct_remaining))
        self.distinct_spent += granted
        return granted


class AdaptiveAttack(abc.ABC):
    """One feedback-driven attack scheduled chunk by chunk.

    Subclasses implement :meth:`schedule`, which may query the sampler view
    and the upcoming legitimate chunk (the adversary is strong: it observes
    the stream) and returns the insertions to interleave with that chunk.
    """

    name: str = "adaptive"

    def __init__(self, budget: AttackBudget) -> None:
        self.ledger = BudgetLedger(budget)

    @property
    @abc.abstractmethod
    def malicious_identifiers(self) -> List[int]:
        """Distinct adversary-controlled identifiers used so far."""

    @abc.abstractmethod
    def schedule(self, view: SamplerView, chunk: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
        """Return this attack's insertions for the upcoming chunk."""


class MemoryFloodAttack(AdaptiveAttack):
    """Flood the identifiers the sampler currently holds.

    Each observation reads the sampler memory ``Gamma`` and re-inserts every
    held identifier ``repetitions_per_target`` times.  The flooded
    identifiers' Count-Min estimates balloon while they sit in memory, so
    the moment one is evicted its insertion probability
    ``a_j = min_sigma / f̂_j`` is negligible and it cannot re-enter — the
    sampler's future memory is steered away from whatever it holds today.

    The flooded identifiers are *correct* nodes' (the adversary inserts
    identifiers it does not control, which the model allows), so
    ``malicious_identifiers`` is empty; the budget counts insertions.
    """

    name = "memory_flood"

    def __init__(self, *, insertion_budget: int = 4096,
                 repetitions_per_target: int = 4) -> None:
        check_positive("insertion_budget", insertion_budget)
        check_positive("repetitions_per_target", repetitions_per_target)
        super().__init__(AttackBudget(distinct_identifiers=insertion_budget,
                                      repetitions=1))
        self.repetitions_per_target = int(repetitions_per_target)

    @property
    def malicious_identifiers(self) -> List[int]:
        return []

    def schedule(self, view: SamplerView, chunk: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
        if self.ledger.exhausted:
            return np.zeros(0, dtype=np.int64)
        held = view.memory()
        if not held:
            return np.zeros(0, dtype=np.int64)
        wanted = len(held) * self.repetitions_per_target
        granted = self.ledger.grant_insertions(wanted)
        if granted == 0:
            return np.zeros(0, dtype=np.int64)
        targets = np.asarray(held, dtype=np.int64)
        return np.resize(np.repeat(targets, self.repetitions_per_target),
                         granted)


class EclipseAttack(AdaptiveAttack):
    """Eclipse a neighbour set of correct identifiers from the sampler.

    The overlay reading of the attack: the adversary sits between a victim
    and a subset of its neighbours and wants those neighbours to vanish from
    the victim's uniform samples.  Against Algorithm 3 that means (a)
    flooding each target *while it is held* so its estimate is poisoned and
    it cannot re-enter once evicted, and (b) injecting fresh Sybil
    identifiers — which, being new, carry tiny estimates and near-1
    insertion probabilities — to force evictions.  Both steps adapt to the
    observed memory each chunk.

    Parameters
    ----------
    correct_identifiers:
        The correct population; targets are drawn from it and Sybil
        identifiers never collide with it.
    target_fraction:
        Fraction of the correct population to eclipse (used when
        ``targets`` is not given; at least one target).
    targets:
        Explicit target identifiers (overrides ``target_fraction``).
    insertion_budget:
        Total insertions (floods plus evictors) the attack may spend.
    repetitions_per_target:
        Flood repetitions per held target per observation.
    evictors_per_chunk:
        Fresh Sybil insertions per observation while targets remain held.
    sybil_factory:
        Source of the fresh Sybil evictors; defaults to a private factory
        over ``correct_identifiers``.  The attacks of one adversary share a
        factory so their Sybil identifiers never collide.
    """

    name = "eclipse"

    def __init__(self, correct_identifiers: Sequence[int], *,
                 target_fraction: float = 0.1,
                 targets: Optional[Sequence[int]] = None,
                 insertion_budget: int = 4096,
                 repetitions_per_target: int = 8,
                 evictors_per_chunk: int = 16,
                 sybil_factory: Optional[SybilIdentifierFactory] = None
                 ) -> None:
        check_positive("insertion_budget", insertion_budget)
        check_positive("repetitions_per_target", repetitions_per_target)
        check_positive("evictors_per_chunk", evictors_per_chunk)
        super().__init__(AttackBudget(distinct_identifiers=insertion_budget,
                                      repetitions=1))
        self._correct = [int(identifier)
                         for identifier in correct_identifiers]
        if not self._correct:
            raise ValueError("eclipse needs a non-empty correct population")
        self._factory = (sybil_factory if sybil_factory is not None
                         else SybilIdentifierFactory(self._correct))
        self._sybils: List[int] = []
        self.repetitions_per_target = int(repetitions_per_target)
        self.evictors_per_chunk = int(evictors_per_chunk)
        if targets is not None:
            self.targets: Optional[List[int]] = sorted(
                int(identifier) for identifier in targets)
            if not self.targets:
                raise ValueError("explicit eclipse targets must be non-empty")
            self._target_fraction = None
        else:
            check_probability("target_fraction", target_fraction)
            if target_fraction <= 0.0:
                raise ValueError("target_fraction must be positive")
            self.targets = None
            self._target_fraction = float(target_fraction)

    @property
    def malicious_identifiers(self) -> List[int]:
        return list(self._sybils)

    def _pick_targets(self, rng: np.random.Generator) -> List[int]:
        if self.targets is None:
            count = max(1, round(self._target_fraction * len(self._correct)))
            count = min(count, len(self._correct))
            chosen = rng.choice(np.asarray(self._correct, dtype=np.int64),
                                size=count, replace=False)
            self.targets = sorted(int(identifier) for identifier in chosen)
        return self.targets

    def schedule(self, view: SamplerView, chunk: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
        if self.ledger.exhausted:
            return np.zeros(0, dtype=np.int64)
        targets = self._pick_targets(rng)
        held = set(view.memory()).intersection(targets)
        if not held:
            return np.zeros(0, dtype=np.int64)
        flood_wanted = len(held) * self.repetitions_per_target
        flood = self.ledger.grant_insertions(flood_wanted)
        parts: List[np.ndarray] = []
        if flood:
            held_array = np.asarray(sorted(held), dtype=np.int64)
            parts.append(np.resize(
                np.repeat(held_array, self.repetitions_per_target), flood))
        evictors = self.ledger.grant_insertions(self.evictors_per_chunk)
        if evictors:
            fresh = self._factory.generate(evictors)
            self._sybils.extend(fresh)
            parts.append(np.asarray(fresh, dtype=np.int64))
        if not parts:
            return np.zeros(0, dtype=np.int64)
        return np.concatenate(parts)


class BurstSybilAttack(AdaptiveAttack):
    """Colluding sybils that piggyback on flash-crowd join bursts.

    The attack watches the legitimate stream for chunks carrying an
    unusually high fraction of never-before-seen identifiers — the
    signature of a correlated join burst (the ``flash_crowd`` churn
    regime) — and only then spends a cohort of fresh Sybil identifiers,
    each repeated ``repetitions`` times.  New arrivals carry small
    estimates and high insertion probabilities, so sybils inserted *during*
    a burst are indistinguishable from the legitimately new nodes they ride
    in with.  ``sybil_factory`` works as for :class:`EclipseAttack`.
    """

    name = "burst_sybil"

    def __init__(self, correct_identifiers: Sequence[int], *,
                 distinct_identifiers: int = 64,
                 repetitions: int = 3,
                 burst_threshold: float = 0.2,
                 cohort_size: int = 8,
                 sybil_factory: Optional[SybilIdentifierFactory] = None
                 ) -> None:
        check_probability("burst_threshold", burst_threshold)
        check_positive("cohort_size", cohort_size)
        super().__init__(AttackBudget(
            distinct_identifiers=distinct_identifiers,
            repetitions=repetitions))
        self._factory = (sybil_factory if sybil_factory is not None
                         else SybilIdentifierFactory(correct_identifiers))
        self._sybils: List[int] = []
        self._seen: set = set()
        self.burst_threshold = float(burst_threshold)
        self.cohort_size = int(cohort_size)

    @property
    def malicious_identifiers(self) -> List[int]:
        return list(self._sybils)

    def schedule(self, view: SamplerView, chunk: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
        distinct = np.unique(chunk)
        fresh_count = sum(1 for identifier in distinct.tolist()
                          if identifier not in self._seen)
        self._seen.update(distinct.tolist())
        if chunk.size == 0 or self.ledger.exhausted:
            return np.zeros(0, dtype=np.int64)
        if fresh_count / chunk.size < self.burst_threshold:
            return np.zeros(0, dtype=np.int64)
        cohort = self.ledger.grant_distinct(self.cohort_size)
        if cohort == 0:
            return np.zeros(0, dtype=np.int64)
        wanted = cohort * self.budget_repetitions
        granted = self.ledger.grant_insertions(wanted)
        if granted == 0:
            return np.zeros(0, dtype=np.int64)
        sybils = self._factory.generate(cohort)
        self._sybils.extend(sybils)
        cohort_array = np.asarray(sybils, dtype=np.int64)
        return np.resize(np.repeat(cohort_array, self.budget_repetitions),
                         granted)

    @property
    def budget_repetitions(self) -> int:
        """Per-identifier repetitions from the attack budget."""
        return self.ledger.budget.repetitions


class AdaptiveAdversary:
    """Compose adaptive attacks into one feedback-driven controller.

    Parameters
    ----------
    attacks:
        The adaptive attacks to run; each is consulted in order between
        chunks.
    random_state:
        The adversary's own generator — used for its scheduling choices and
        the random interleaving of insertions.  Completely separate from
        the sampler's coins.
    """

    def __init__(self, attacks: Sequence[AdaptiveAttack], *,
                 random_state: RandomState = None) -> None:
        if not attacks:
            raise ValueError("an adaptive adversary needs at least one attack")
        self.attacks: List[AdaptiveAttack] = list(attacks)
        self._rng = ensure_rng(random_state)

    @property
    def malicious_identifiers(self) -> List[int]:
        """All distinct adversary-controlled identifiers used so far."""
        identifiers: List[int] = []
        seen = set()
        for attack in self.attacks:
            for identifier in attack.malicious_identifiers:
                if identifier not in seen:
                    seen.add(identifier)
                    identifiers.append(identifier)
        return identifiers

    @property
    def insertions_spent(self) -> int:
        """Total insertions spent across all attacks."""
        return sum(attack.ledger.insertions_spent for attack in self.attacks)

    def source(self, base: StreamSource) -> "AdaptiveStreamSource":
        """Wrap a legitimate source into the adaptively biased one."""
        return AdaptiveStreamSource(self, base)


class AdaptiveStreamSource(StreamSource):
    """The biased stream an adaptive adversary produces, chunk by chunk.

    Pulls legitimate chunks from ``base``, consults the adversary's attacks
    (with the bound :class:`SamplerView`) and interleaves their insertions
    uniformly at random — the same order-preserving slot interleave as
    :func:`repro.streams.stream.merge_streams`, vectorised.  Every emitted
    chunk is recorded so :meth:`materialized` can reconstruct the full
    biased stream for the experiment metrics.
    """

    def __init__(self, adversary: AdaptiveAdversary,
                 base: StreamSource) -> None:
        self._adversary = adversary
        self._base = base
        self._view: Optional[SamplerView] = None
        self._emitted: List[np.ndarray] = []

    def bind_sampler(self, view) -> None:
        """Receive the engine's read-only view of the driven sampler."""
        self._view = view

    def next_chunk(self) -> Optional[np.ndarray]:
        """Return the next adaptively biased chunk, or ``None`` when done."""
        chunk = self._base.next_chunk()
        if chunk is None:
            return None
        insertions = np.zeros(0, dtype=np.int64)
        if self._view is not None:
            parts: List[np.ndarray] = []
            reg = telemetry.active()
            for attack in self._adversary.attacks:
                scheduled = attack.schedule(self._view, chunk,
                                            self._adversary._rng)
                scheduled = np.asarray(scheduled, dtype=np.int64)
                if scheduled.size:
                    parts.append(scheduled)
                    if reg is not None:
                        reg.counter(
                            f"adversary.insertions.{attack.name}"
                        ).inc(int(scheduled.size))
            if parts:
                insertions = (parts[0] if len(parts) == 1
                              else np.concatenate(parts))
                if reg is not None:
                    reg.counter("adversary.chunks_adapted").inc()
        if insertions.size == 0:
            merged = np.ascontiguousarray(chunk, dtype=np.int64)
        else:
            merged = np.empty(chunk.size + insertions.size, dtype=np.int64)
            mask = np.zeros(merged.size, dtype=bool)
            mask[:insertions.size] = True
            self._adversary._rng.shuffle(mask)
            merged[mask] = insertions
            merged[~mask] = chunk
        self._emitted.append(merged)
        return merged

    def materialized(self) -> IdentifierStream:
        """Return the full biased stream emitted so far.

        The universe is the legitimate universe extended with the
        adversary's identifiers; ``malicious`` marks the adversary's
        (the metadata contract of :meth:`Adversary.bias`).
        """
        legitimate = self._base.materialized()
        malicious = sorted(set(legitimate.malicious)
                           | set(self._adversary.malicious_identifiers))
        universe = sorted(set(legitimate.universe) | set(malicious))
        identifiers = (np.concatenate(self._emitted).tolist()
                       if self._emitted else [])
        names = "+".join(attack.name for attack in self._adversary.attacks)
        return IdentifierStream(
            identifiers=identifiers,
            universe=universe,
            malicious=malicious,
            label=f"{legitimate.label}+adaptive({names})",
        )
