"""Tests for repro.sketches.hashing (2-universal hash families)."""

import numpy as np
import pytest

from repro.sketches.hashing import (
    MERSENNE_PRIME_61,
    UniversalHashFamily,
    UniversalHashFunction,
    hash_rows,
    pairwise_collision_rate,
)


class TestUniversalHashFunction:
    def test_output_in_range(self):
        function = UniversalHashFunction(a=7, b=3, prime=101, range_size=10)
        for item in range(200):
            assert 0 <= function(item) < 10

    def test_deterministic(self):
        function = UniversalHashFunction(a=7, b=3, prime=101, range_size=10)
        assert function(42) == function(42)

    def test_hash_many_matches_scalar(self):
        function = UniversalHashFunction(a=123456789, b=987654321,
                                         prime=MERSENNE_PRIME_61,
                                         range_size=64)
        items = [1, 5, 10**12, 2**60, 999]
        vectorised = function.hash_many(items)
        assert list(vectorised) == [function(item) for item in items]

    @pytest.mark.parametrize("items", [
        [0, 1, 7, 10**12, MERSENNE_PRIME_61 - 1, MERSENNE_PRIME_61,
         1 << 61, (1 << 61) + 5, 1 << 62, (1 << 63) - 1],
        [-5, -1, 0, 3, 1 << 61],          # negative: object-dtype fallback
    ], ids=["at-and-above-2^61", "negative"])
    def test_hash_rows_matches_each_row(self, items):
        functions = UniversalHashFamily(37, random_state=4).draw_many(5)
        rows = hash_rows(functions, np.asarray(items, dtype=np.int64))
        assert rows.shape == (5, len(items))
        assert rows.dtype == np.int64
        for row, function in zip(rows, functions):
            assert row.tolist() == function.hash_many(items).tolist()
            assert row.tolist() == [function(item) for item in items]

    def test_invalid_coefficients_rejected(self):
        with pytest.raises(ValueError):
            UniversalHashFunction(a=0, b=0, prime=101, range_size=10)
        with pytest.raises(ValueError):
            UniversalHashFunction(a=1, b=200, prime=101, range_size=10)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            UniversalHashFunction(a=1, b=0, prime=101, range_size=0)


class TestUniversalHashFamily:
    def test_draw_returns_valid_function(self):
        family = UniversalHashFamily(32, random_state=0)
        function = family.draw()
        assert isinstance(function, UniversalHashFunction)
        assert function.range_size == 32

    def test_draw_many_returns_distinct_functions(self):
        family = UniversalHashFamily(32, random_state=0)
        functions = family.draw_many(10)
        assert len(functions) == 10
        coefficients = {(f.a, f.b) for f in functions}
        assert len(coefficients) > 1

    def test_different_seeds_give_different_functions(self):
        first = UniversalHashFamily(64, random_state=1).draw()
        second = UniversalHashFamily(64, random_state=2).draw()
        assert (first.a, first.b) != (second.a, second.b)

    def test_prime_must_exceed_range(self):
        with pytest.raises(ValueError):
            UniversalHashFamily(100, prime=50)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            UniversalHashFamily(0)

    def test_collision_rate_near_universal_bound(self):
        # Average the empirical pairwise collision rate over many drawn
        # functions: 2-universality guarantees <= 1/range_size on average.
        range_size = 20
        family = UniversalHashFamily(range_size, random_state=3)
        items = list(range(40))
        rates = [pairwise_collision_rate(family.draw(), items)
                 for _ in range(30)]
        assert np.mean(rates) <= 1.5 / range_size

    def test_outputs_roughly_uniform(self):
        family = UniversalHashFamily(8, random_state=4)
        function = family.draw()
        values = function.hash_many(list(range(8_000)))
        counts = np.bincount(values, minlength=8)
        assert counts.min() > 0
        assert counts.max() / counts.min() < 2.0
