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

    def test_update_batch_applies_first_occurrence_aggregates(self):
        items = np.array([7, 3, 7, 9, 3, 7, 11, 12, 9], dtype=np.int64)
        counts = np.array([1, 2, 3, 1, 1, 2, 4, 1, 5], dtype=np.int64)
        batched = SpaceSavingSummary(capacity=3)
        batched.update_batch(items, counts)
        expected = SpaceSavingSummary(capacity=3)
        for item, count in [(7, 6), (3, 3), (9, 6), (11, 4), (12, 1)]:
            expected.update(item, count)
        assert batched._counters == expected._counters
        assert batched.total == int(counts.sum())

    def test_update_batch_without_counts_counts_each_occurrence(self):
        items = _zipf_items()
        batched = SpaceSavingSummary(capacity=10)
        batched.update_batch(items)
        expected = SpaceSavingSummary(capacity=10)
        first_seen = {}
        for item in items.tolist():
            first_seen[item] = first_seen.get(item, 0) + 1
        for item, count in first_seen.items():
            expected.update(item, count)
        assert batched._counters == expected._counters
        assert batched.total == len(batched) == items.size

    def test_update_batch_keeps_the_error_bound(self):
        summary = SpaceSavingSummary(capacity=16)
        items = _zipf_items(seed=6)
        for start in range(0, items.size, 256):
            summary.update_batch(items[start:start + 256])
        bound = items.size / summary.capacity
        true_counts = _true_counts(items)
        for item in summary._counters:
            assert true_counts[item] <= summary.estimate(item) \
                <= true_counts[item] + bound

    def test_update_batch_rejects_invalid_counts(self):
        summary = SpaceSavingSummary(capacity=4)
        with pytest.raises(ValueError, match="shape"):
            summary.update_batch([1, 2, 3], [1, 1])
        with pytest.raises(ValueError, match="positive"):
            summary.update_batch([1, 2], [1, 0])
        with pytest.raises(TypeError, match="integer"):
            summary.update_batch([1, 2], [1.0, 2.0])
        assert summary.total == 0

    def test_estimate_batch_matches_point_queries(self):
        summary = SpaceSavingSummary(capacity=6)
        summary.update_many(_zipf_items(size=400).tolist())
        queries = np.arange(-2, 60, dtype=np.int64)
        estimates = summary.estimate_batch(queries)
        assert estimates.dtype == np.int64
        assert estimates.tolist() == [summary.estimate(int(item))
                                      for item in queries]
        assert summary.estimate_batch(5).tolist() == [summary.estimate(5)]

