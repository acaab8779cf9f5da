"""Tests for the distinct-count sketch (HyperLogLog)."""

import numpy as np
import pytest

from repro.sketches.hyperloglog import (
    HyperLogLog,
    _bit_lengths,
    _mix64,
    _mix64_batch,
)


class TestHyperLogLog:
    def test_empty_estimate_is_zero(self):
        assert HyperLogLog(random_state=0).estimate() == 0.0

    def test_estimate_accuracy(self):
        sketch = HyperLogLog(precision=10, random_state=3)
        distinct = 5_000
        sketch.update_many(range(distinct))
        estimate = sketch.estimate()
        # 1.04/sqrt(1024) ~ 3.2% standard error; allow a generous margin.
        assert abs(estimate - distinct) / distinct < 0.25

    def test_duplicates_do_not_inflate(self):
        sketch = HyperLogLog(precision=8, random_state=4)
        for _ in range(5):
            sketch.update_many(range(500))
        assert abs(sketch.estimate() - 500) / 500 < 0.4
        assert sketch.total == 2_500

    def test_small_range_correction(self):
        sketch = HyperLogLog(precision=10, random_state=5)
        sketch.update_many(range(10))
        assert 1 <= sketch.estimate() <= 30

    def test_merge(self):
        first = HyperLogLog(precision=8, random_state=6)
        # Merge requires identical hash functions: clone via shared state.
        second = HyperLogLog(precision=8, random_state=6)
        second._hash_function = first._hash_function
        first.update_many(range(0, 1_000))
        second.update_many(range(500, 1_500))
        first.merge(second)
        assert abs(first.estimate() - 1_500) / 1_500 < 0.35

    def test_merge_rejects_mismatched_precision(self):
        with pytest.raises(ValueError):
            HyperLogLog(precision=8, random_state=0).merge(
                HyperLogLog(precision=10, random_state=0))

    def test_precision_bounds(self):
        with pytest.raises(ValueError):
            HyperLogLog(precision=2)
        with pytest.raises(ValueError):
            HyperLogLog(precision=20)

    def test_relative_error_formula(self):
        sketch = HyperLogLog(precision=10)
        assert sketch.relative_error() == pytest.approx(1.04 / 32)

    @pytest.mark.parametrize("precision", [6, 8, 10, 12])
    def test_estimate_within_three_standard_errors(self, precision):
        sketch = HyperLogLog(precision=precision, random_state=0)
        distinct = 20_000
        sketch.update_many(range(distinct))
        error = abs(sketch.estimate() - distinct) / distinct
        assert error < 3 * sketch.relative_error()

    def test_hash_batch_gives_the_scalar_register_change(self):
        items = [0, 1, 2, 3, 1_000, 2**40 + 5, 123_456_789]
        reference = HyperLogLog(precision=6, random_state=9)
        indices, ranks = reference.hash_batch(items)
        remaining_bits = HyperLogLog.HASH_BITS - reference.precision
        for item, index, rank in zip(items, indices, ranks):
            sketch = HyperLogLog(precision=6, random_state=9)
            sketch.update(item)
            assert np.flatnonzero(sketch._registers).tolist() == [index]
            assert sketch._registers[index] == rank
            assert 1 <= rank <= remaining_bits + 1

    @pytest.mark.parametrize("items", [
        np.random.default_rng(7).integers(0, 10**9, size=3_000),
        np.random.default_rng(7).integers(-2**63, 2**63 - 1, size=3_000,
                                          dtype=np.int64),
    ], ids=["below-10^9", "all-int64"])
    def test_hash_batch_folds_to_the_scalar_registers(self, items):
        # the adaptive strategy's epoch scan applies hash_batch's register
        # changes chunk by chunk in place of update
        scalar = HyperLogLog(precision=9, random_state=8)
        scalar.update_many(items.tolist())
        folded = np.zeros_like(scalar._registers)
        for start in range(0, items.size, 700):
            indices, ranks = scalar.hash_batch(items[start:start + 700])
            np.maximum.at(folded, indices, ranks.astype(folded.dtype))
        assert np.array_equal(folded, scalar._registers)

    def test_update_many_and_hash_batch_of_nothing(self):
        sketch = HyperLogLog(precision=5, random_state=10)
        sketch.update_many([])
        indices, ranks = sketch.hash_batch(np.array([], dtype=np.int64))
        assert indices.size == ranks.size == 0
        assert sketch.total == 0
        assert not sketch._registers.any()
        assert sketch.estimate() == 0.0

    def test_same_seed_gives_the_same_sketch(self):
        items = list(range(0, 5_000, 3))
        first = HyperLogLog(precision=8, random_state=11)
        second = HyperLogLog(precision=8, random_state=11)
        other = HyperLogLog(precision=8, random_state=12)
        for sketch in (first, second, other):
            sketch.update_many(items)
        assert np.array_equal(first._registers, second._registers)
        assert not np.array_equal(first._registers, other._registers)

    def test_merge_equals_the_sketch_of_the_union(self):
        first = HyperLogLog(precision=8, random_state=13)
        second = HyperLogLog(precision=8, random_state=13)
        union = HyperLogLog(precision=8, random_state=13)
        first.update_many(range(0, 1_200))
        second.update_many(range(800, 2_000))
        union.update_many(range(0, 1_200))
        union.update_many(range(800, 2_000))
        first.merge(second)
        assert np.array_equal(first._registers, union._registers)
        assert first.total == union.total
        assert first.estimate() == union.estimate()

    def test_merge_rejects_different_hash_functions(self):
        first = HyperLogLog(precision=8, random_state=14)
        second = HyperLogLog(precision=8, random_state=15)
        with pytest.raises(ValueError, match="hash functions"):
            first.merge(second)


class TestHashBitHelpers:
    def test_bit_lengths_match_int_bit_length(self):
        values = [0, 1, 2, 3, 4, 7, 8, 255, 256, 2**31 - 1, 2**31, 2**32,
                  2**53 + 1, 2**63 - 1, 2**63, 2**64 - 1]
        lengths = _bit_lengths(np.array(values, dtype=np.uint64))
        assert lengths.tolist() == [value.bit_length() for value in values]

    def test_mix64_batch_matches_the_scalar_mixer(self):
        values = [0, 1, 2, 12345, 2**32 + 7, 2**61 - 2, 2**64 - 1]
        mixed = _mix64_batch(np.array(values, dtype=np.uint64))
        assert [int(value) for value in mixed] == [_mix64(value)
                                                   for value in values]
