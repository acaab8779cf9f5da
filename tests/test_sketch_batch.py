"""Edge-case and chunk/scalar agreement tests for the sketch layer.

Covers empty sketches, degenerate 1x1 dimensions, exact agreement between
the Count-Min chunk hooks (``update_and_estimate``, ``hash_columns``,
``min_cell_state``, ``export_rows``/``import_rows``) and repeated scalar
calls on random streams, the per-element ``update_many`` of every oracle,
and the buffered coin streams.
"""

import pickle

import numpy as np
import pytest

from repro.sketches import (
    CountMinSketch,
    CountSketch,
    ExactFrequencyCounter,
    SpaceSavingSummary,
)
from repro.utils.rng import BufferedUniforms


def _random_items(size=2_000, universe=300, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, universe, size=size).tolist()


#: The frequency oracles the knowledge-free strategy can be driven by.
ORACLES = {
    "count-min": lambda: CountMinSketch(width=8, depth=3, random_state=0),
    "count-sketch": lambda: CountSketch(width=8, depth=3, random_state=0),
    "space-saving": lambda: SpaceSavingSummary(capacity=4),
    "exact": ExactFrequencyCounter,
}

#: The two oracles whose ``update_many`` adds into a counter matrix.
MATRIX_SKETCHES = {
    "count-min": lambda: CountMinSketch(width=32, depth=3, random_state=7),
    "count-sketch": lambda: CountSketch(width=32, depth=3, random_state=7),
}


class TestEmptySketch:
    def test_count_min_min_cell_empty(self):
        sketch = CountMinSketch(width=8, depth=3, random_state=0)
        assert sketch.min_cell() == 0
        assert sketch.min_cell_state() == (0, 0)
        assert sketch.total == 0

    def test_count_sketch_min_cell_empty(self):
        assert CountSketch(width=8, depth=3, random_state=0).min_cell() == 0

    def test_space_saving_min_cell_empty(self):
        assert SpaceSavingSummary(capacity=4).min_cell() == 0

    def test_count_min_estimate_on_empty_sketch(self):
        sketch = CountMinSketch(width=8, depth=3, random_state=0)
        queries = [1, 2, 3, -4, 2**62]
        assert [sketch.estimate(item) for item in queries] == [0] * 5

    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_update_many_empty_input(self, oracle):
        sketch = ORACLES[oracle]()
        sketch.update_many([])
        sketch.update_many(iter(()))
        assert sketch.total == len(sketch) == 0
        assert sketch.min_cell() == 0
        assert sketch.estimate(1) == 0


class TestDegenerateDimensions:
    @pytest.mark.parametrize("width,depth", [(1, 1), (1, 4), (16, 1)])
    def test_count_min_width_depth_one(self, width, depth):
        sketch = CountMinSketch(width=width, depth=depth, random_state=1)
        items = _random_items(size=500, universe=50)
        sketch.update_many(items)
        assert sketch.total == 500
        if width == 1:
            # every item collides into the single column: the estimate is the
            # whole stream and so is the minimum non-empty cell
            assert sketch.estimate(7) == 500
            assert sketch.min_cell() == 500
        for item in range(10):
            # Count-Min never underestimates
            assert sketch.estimate(item) >= items.count(item)

    def test_count_sketch_width_depth_one(self):
        sketch = CountSketch(width=1, depth=1, random_state=2)
        for item in [3, 3, 3]:
            sketch.update(item)
        assert sketch.estimate(3) in (0, 3)  # sign may flip the single bucket
        assert sketch.min_cell() >= 1

    def test_space_saving_capacity_one(self):
        summary = SpaceSavingSummary(capacity=1)
        summary.update_many([1, 2, 2, 3])
        assert summary.total == 4
        assert len(summary._counters) == 1


class TestBatchScalarAgreement:
    @pytest.mark.parametrize("width,depth,universe,chunk", [
        (1, 1, 50, 700),      # one cell: the minimum climbs every element
        (3, 2, 20, 97),
        (16, 4, 300, 250),    # cells keep filling from zero mid-chunk
        (200, 5, 5_000, 1_000),
    ])
    def test_count_min_update_and_estimate_agrees_with_scalar(
            self, width, depth, universe, chunk):
        chunked = CountMinSketch(width=width, depth=depth, random_state=16)
        scalar = CountMinSketch(width=width, depth=depth, random_state=16)
        rng = np.random.default_rng(17)
        items = np.concatenate([rng.integers(0, universe, 1_500),
                                np.full(300, 3),   # one id floods the sketch
                                rng.integers(0, universe, 700)])
        for start in range(0, items.size, chunk):
            part = items[start:start + chunk]
            estimates, min_cells = chunked.update_and_estimate(part)
            expected_estimates, expected_min_cells = [], []
            for item in part.tolist():
                scalar.update(item)
                expected_estimates.append(scalar.estimate(item))
                expected_min_cells.append(scalar.min_cell())
            assert estimates.tolist() == expected_estimates
            assert min_cells.tolist() == expected_min_cells
            assert np.array_equal(chunked.table, scalar.table)
            assert chunked.total == scalar.total
        empty = chunked.update_and_estimate([])
        assert empty[0].size == empty[1].size == 0

    def test_count_min_update_and_estimate_at_the_int64_extremes(self):
        # the kernel streams reach 2^61 + 300; ids span all of int64
        items = np.array([-2**63, 2**63 - 1, -1, 0, 2**61 - 1, 2**61,
                          2**62 + 5, -2**61, -2**63, 2**63 - 1, 0],
                         dtype=np.int64)
        chunked = CountMinSketch(width=50, depth=4, random_state=1)
        scalar = CountMinSketch(width=50, depth=4, random_state=1)
        estimates, min_cells = chunked.update_and_estimate(items)
        expected_estimates, expected_min_cells = [], []
        for item in items.tolist():
            scalar.update(item)
            expected_estimates.append(scalar.estimate(item))
            expected_min_cells.append(scalar.min_cell())
        assert estimates.tolist() == expected_estimates
        assert min_cells.tolist() == expected_min_cells
        assert np.array_equal(chunked.table, scalar.table)

    def test_count_min_hash_columns_read_the_scalar_estimates(self):
        sketch = CountMinSketch(width=64, depth=4, random_state=3)
        sketch.update_many(_random_items(seed=3))
        queries = np.array(_random_items(size=500, seed=4)
                           + [-7, 2**61 - 1, 2**61, 2**62 + 5],
                           dtype=np.int64)
        columns = sketch.hash_columns(queries)
        assert columns.shape == (sketch.depth, queries.size)
        rows = np.arange(sketch.depth)[:, None]
        estimates = sketch.table[rows, columns].min(axis=0)
        assert estimates.tolist() == [sketch.estimate(query)
                                      for query in queries.tolist()]
        assert sketch.hash_columns(5).shape == (sketch.depth, 1)

    def test_count_min_min_cell_state_skips_empty_cells_and_counts_ties(self):
        sketch = CountMinSketch(width=3, depth=2, random_state=18)
        sketch.import_rows([[0, 2, 1], [1, 2, 0]], total=3)
        assert sketch.min_cell_state() == (1, 2)
        assert sketch.min_cell() == 1

    def test_count_min_export_and_import_rows_round_trip(self):
        source = CountMinSketch(width=32, depth=4, random_state=19)
        source.update_many(_random_items(seed=19))
        rows = source.export_rows()
        assert len(rows) == source.depth
        assert all(type(row) is list and len(row) == source.width
                   for row in rows)
        target = source.copy_empty()
        target.import_rows(rows, source.total)
        assert np.array_equal(target.table, source.table)
        assert target.total == source.total
        assert target.min_cell_state() == source.min_cell_state()
        queries = range(300)
        assert [target.estimate(q) for q in queries] == \
            [source.estimate(q) for q in queries]

    def test_count_min_import_rows_rejects_a_mismatched_shape(self):
        sketch = CountMinSketch(width=4, depth=2, random_state=20)
        with pytest.raises(ValueError, match="shape"):
            sketch.import_rows([[1, 2, 3, 4]], total=10)
        assert sketch.total == 0
        assert not sketch.table.any()

    @pytest.mark.parametrize("sketch", sorted(MATRIX_SKETCHES))
    def test_weighted_update_equals_repeated_unit_updates(self, sketch):
        weighted = MATRIX_SKETCHES[sketch]()
        unit = MATRIX_SKETCHES[sketch]()
        rng = np.random.default_rng(8)
        for item, count in zip(rng.integers(0, 100, size=400).tolist(),
                               rng.integers(1, 9, size=400).tolist()):
            weighted.update(item, count)
            for _ in range(count):
                unit.update(item)
        assert np.array_equal(weighted._table, unit._table)
        assert weighted.total == unit.total

    @pytest.mark.parametrize("sketch", sorted(MATRIX_SKETCHES))
    def test_update_many_state_is_independent_of_order(self, sketch):
        # every update adds into fixed cells, so any order of the same
        # elements leaves the same matrix
        items = _random_items(seed=12)
        forward = MATRIX_SKETCHES[sketch]()
        shuffled = MATRIX_SKETCHES[sketch]()
        forward.update_many(items)
        shuffled.update_many(
            np.random.default_rng(13).permutation(items).tolist())
        assert np.array_equal(forward._table, shuffled._table)
        assert forward.total == shuffled.total == len(items)

    @pytest.mark.parametrize("depth", [3, 4], ids=["odd-depth", "even-depth"])
    def test_count_sketch_estimate_is_the_clamped_median_of_signed_rows(
            self, depth):
        sketch = CountSketch(width=64, depth=depth, random_state=9)
        sketch.update_many(_random_items(seed=9))
        for query in _random_items(size=200, seed=10):
            signed = [
                (1 if sign(query) == 1 else -1)
                * int(sketch._table[row, bucket(query)])
                for row, (bucket, sign) in enumerate(
                    zip(sketch._bucket_hashes, sketch._sign_hashes))
            ]
            # an even depth averages the two middle rows
            assert sketch.estimate(query) == max(0, int(np.median(signed)))

    def test_space_saving_point_queries_cover_the_stream(self):
        summary = SpaceSavingSummary(capacity=16)
        items = _random_items(universe=40, seed=13)
        summary.update_many(items)
        estimates = [summary.estimate(query) for query in range(-2, 42)]
        # each update lands in exactly one tracked counter; untracked ids
        # read 0
        assert sum(estimates) == summary.total == len(items)
        assert sum(1 for value in estimates if value) == summary.capacity


class TestBufferedUniforms:
    def test_next_and_take_consume_the_same_stream(self):
        one_by_one = BufferedUniforms(123, block_size=8)
        blocked = BufferedUniforms(123, block_size=8)
        expected = [one_by_one.next() for _ in range(50)]
        got = blocked.take(20) + [blocked.next()] + blocked.take(29)
        assert got == expected

    def test_block_size_does_not_change_values(self):
        small = BufferedUniforms(7, block_size=3)
        large = BufferedUniforms(7, block_size=4096)
        assert [small.next() for _ in range(40)] == \
            [large.next() for _ in range(40)]

    def test_values_in_unit_interval(self):
        stream = BufferedUniforms(0)
        assert all(0.0 <= value < 1.0 for value in stream.take(1000))

    def test_validation(self):
        with pytest.raises(ValueError):
            BufferedUniforms(0, block_size=0)
        with pytest.raises(ValueError):
            BufferedUniforms(0).take(-1)

    @pytest.mark.parametrize("block_size", [1, 3, 4096])
    def test_peek_and_advance_interleave_with_next_and_take(self,
                                                           block_size):
        one_by_one = BufferedUniforms(21, block_size=block_size)
        expected = [one_by_one.next() for _ in range(400)]
        mixed = BufferedUniforms(21, block_size=block_size)
        got = []
        for step in range(40):
            got.append(mixed.next())
            got.extend(mixed.take(step % 5))
            peeked = mixed.peek(step % 7 + 1)
            used = min(step % 3, len(peeked))
            got.extend(peeked[:used])
            mixed.advance(used)
            got.extend(mixed.take_array(step % 4).tolist())
            peeked = mixed.peek_array(step % 6)
            assert peeked.dtype == np.float64
            got.extend(peeked[:step % 2].tolist())
            mixed.advance(min(step % 2, peeked.size))
        assert got == expected[:len(got)]
        assert mixed.next() == expected[len(got)]

    def test_peek_consumes_nothing(self):
        stream = BufferedUniforms(22, block_size=8)
        first = stream.peek(20)
        assert stream.peek(5) == first[:5]
        assert stream.peek(0) == []
        assert stream.peek_array(30).tolist()[:20] == first
        assert stream.take(20) == first

    def test_pickle_between_peek_and_advance_keeps_the_stream(self):
        reference = BufferedUniforms(23, block_size=4)
        expected = [reference.next() for _ in range(30)]
        stream = BufferedUniforms(23, block_size=4)
        peeked = stream.peek(10)
        restored = pickle.loads(pickle.dumps(stream))
        restored.advance(6)
        assert peeked[:6] == expected[:6]
        assert [restored.next() for _ in range(24)] == expected[6:]

    def test_peek_and_advance_reject_negative_counts(self):
        stream = BufferedUniforms(24)
        for method in (stream.peek, stream.peek_array, stream.advance,
                       stream.take_array):
            with pytest.raises(ValueError):
                method(-1)
