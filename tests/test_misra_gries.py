"""Tests for repro.sketches.misra_gries (Space-Saving)."""

import numpy as np
import pytest

from repro.sketches.misra_gries import SpaceSavingSummary


def _zipf_items(size=3_000, seed=4):
    """A skewed identifier stream over at most 200 distinct ids."""
    rng = np.random.default_rng(seed)
    return rng.zipf(1.4, size=size) % 200


def _true_counts(items):
    values, counts = np.unique(items, return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


class TestSpaceSaving:
    def test_overestimates_within_bound(self):
        summary = SpaceSavingSummary(capacity=20)
        rng = np.random.default_rng(1)
        items = rng.integers(0, 60, size=2_000)
        true_counts = {}
        for item in items:
            item = int(item)
            true_counts[item] = true_counts.get(item, 0) + 1
            summary.update(item)
        bound = len(items) / summary.capacity
        for item, count in true_counts.items():
            estimate = summary.estimate(item)
            if estimate > 0:
                assert estimate <= count + bound

    def test_heavy_item_never_lost(self):
        summary = SpaceSavingSummary(capacity=5)
        for _ in range(500):
            summary.update(99)
        for item in range(100):
            summary.update(item)
        assert summary.estimate(99) >= 500

    def test_capacity_respected(self):
        summary = SpaceSavingSummary(capacity=4)
        summary.update_many(range(50))
        assert len(summary._counters) <= 4

    def test_min_cell_and_total(self):
        summary = SpaceSavingSummary(capacity=4)
        assert summary.min_cell() == 0
        summary.update_many([1, 1, 2])
        assert summary.min_cell() == 1
        assert summary.total == 3

    def test_rejects_invalid_arguments(self):
        with pytest.raises(ValueError):
            SpaceSavingSummary(capacity=0)
        with pytest.raises(ValueError):
            SpaceSavingSummary(capacity=2).update(1, count=-2)

    def test_counters_sum_to_total(self):
        # every update adds its count to exactly one counter, and a
        # replacement hands the victim's counter to the newcomer
        summary = SpaceSavingSummary(capacity=8)
        rng = np.random.default_rng(2)
        for item, count in zip(rng.integers(0, 40, size=500),
                               rng.integers(1, 4, size=500)):
            summary.update(int(item), int(count))
        assert sum(summary._counters.values()) == summary.total

    def test_tracked_items_never_underestimated(self):
        summary = SpaceSavingSummary(capacity=12)
        items = _zipf_items()
        summary.update_many(items.tolist())
        true_counts = _true_counts(items)
        for item in summary._counters:
            assert summary.estimate(item) >= true_counts[item]

    def test_items_above_the_error_bound_are_tracked(self):
        summary = SpaceSavingSummary(capacity=12)
        items = _zipf_items()
        summary.update_many(items.tolist())
        bound = len(items) / summary.capacity
        frequent = [item for item, count in _true_counts(items).items()
                    if count > bound]
        assert frequent
        for item in frequent:
            assert item in summary._counters

    def test_replacement_inherits_the_smallest_counter(self):
        summary = SpaceSavingSummary(capacity=2)
        summary.update(1, count=5)
        summary.update(2, count=3)
        summary.update(3)
        assert summary.estimate(2) == 0
        assert summary.estimate(3) == 4
        assert summary.estimate(1) == 5
        assert summary.min_cell() == 4

    def test_ties_evict_the_earliest_inserted_entry(self):
        summary = SpaceSavingSummary(capacity=3)
        summary.update_many([1, 2, 3, 4])
        assert summary.estimate(1) == 0
        assert [summary.estimate(item) for item in (2, 3, 4)] == [1, 1, 2]

    def test_weighted_update_equals_repeated_unit_updates(self):
        weighted = SpaceSavingSummary(capacity=5)
        unit = SpaceSavingSummary(capacity=5)
        rng = np.random.default_rng(3)
        for item, count in zip(rng.integers(0, 30, size=300),
                               rng.integers(1, 6, size=300)):
            weighted.update(int(item), int(count))
            for _ in range(int(count)):
                unit.update(int(item))
        assert weighted._counters == unit._counters
        assert weighted.total == unit.total

    def test_rejected_count_leaves_the_summary_unchanged(self):
        # a full summary must not evict for an update it rejects
        summary = SpaceSavingSummary(capacity=2)
        summary.update_many([1, 2])
        for count in (0, -3):
            with pytest.raises(ValueError, match="positive"):
                summary.update(3, count)
        assert summary._counters == {1: 1, 2: 1}
        assert summary.total == 2

    def test_update_many_in_chunks_keeps_the_error_bound(self):
        summary = SpaceSavingSummary(capacity=16)
        items = _zipf_items(seed=6)
        for start in range(0, items.size, 256):
            summary.update_many(items[start:start + 256].tolist())
        assert summary.total == len(summary) == items.size
        bound = items.size / summary.capacity
        true_counts = _true_counts(items)
        for item in summary._counters:
            assert true_counts[item] <= summary.estimate(item) \
                <= true_counts[item] + bound
