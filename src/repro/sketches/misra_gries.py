"""Deterministic heavy-hitter summary: Space-Saving.

Space-Saving (Metwally et al.), a counter-based summary of the Misra–Gries
family, keeps at most ``capacity`` (identifier, counter) pairs and answers
frequency point queries with bounded error ``m / capacity``.  It is cited in
the paper's related work on frequent-item estimation and is the registered
``space-saving`` frequency oracle of the sketch-choice ablation.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.utils.validation import check_positive


class SpaceSavingSummary:
    """Space-Saving summary (Metwally et al.): frequencies overestimated.

    When a new item arrives and the summary is full, the item replaces the
    entry with the smallest counter and inherits that counter plus one, so
    ``f_j <= estimate(j) <= f_j + m / capacity``.
    """

    def __init__(self, capacity: int) -> None:
        check_positive("capacity", capacity)
        self.capacity = int(capacity)
        self._counters: Dict[int, int] = {}
        self._total = 0

    def update(self, item: int, count: int = 1) -> None:
        """Record ``count`` occurrences of ``item``."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        self._total += count
        if item in self._counters:
            self._counters[item] += count
            return
        if len(self._counters) < self.capacity:
            self._counters[item] = count
            return
        victim = min(self._counters, key=self._counters.get)
        inherited = self._counters.pop(victim)
        self._counters[item] = inherited + count

    def update_many(self, items: Iterable[int]) -> None:
        """Record a batch of single occurrences."""
        for item in items:
            self.update(item)

    def estimate(self, item: int) -> int:
        """Return the (over-)estimate of the item's frequency."""
        return self._counters.get(item, 0)

    def min_cell(self) -> int:
        """Return the smallest tracked counter (0 when the summary is empty)."""
        if not self._counters:
            return 0
        return min(self._counters.values())

    @property
    def total(self) -> int:
        """Total number of updates seen."""
        return self._total

    def __len__(self) -> int:
        return self._total
