"""Edge-case and batch/scalar agreement tests for the sketch layer.

Covers the corners the vectorisation refactor could silently break: empty
sketches, degenerate 1x1 dimensions, and exact agreement between the batch
fast paths and repeated scalar calls on random streams.
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

    def test_estimate_batch_on_empty_sketch(self):
        sketch = CountMinSketch(width=8, depth=3, random_state=0)
        assert sketch.estimate_batch([1, 2, 3]).tolist() == [0, 0, 0]

    def test_update_batch_empty_input(self):
        sketch = CountMinSketch(width=8, depth=3, random_state=0)
        sketch.update_batch([])
        assert sketch.total == 0
        assert sketch.estimate_batch([]).size == 0


class TestDegenerateDimensions:
    @pytest.mark.parametrize("width,depth", [(1, 1), (1, 4), (16, 1)])
    def test_count_min_width_depth_one(self, width, depth):
        sketch = CountMinSketch(width=width, depth=depth, random_state=1)
        items = _random_items(size=500, universe=50)
        sketch.update_batch(items)
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
        summary.update_batch([1, 2, 2, 3])
        assert summary.total == 4
        assert len(summary._counters) == 1


class TestBatchScalarAgreement:
    def test_count_min_estimate_batch_agrees_with_scalar(self):
        sketch = CountMinSketch(width=64, depth=4, random_state=3)
        items = _random_items(seed=3)
        sketch.update_batch(items)
        queries = _random_items(size=500, seed=4)
        batch = sketch.estimate_batch(queries)
        assert batch.tolist() == [sketch.estimate(q) for q in queries]

    def test_count_min_update_batch_agrees_with_scalar(self):
        batched = CountMinSketch(width=32, depth=5, random_state=5)
        scalar = CountMinSketch(width=32, depth=5, random_state=5)
        items = _random_items(seed=6)
        batched.update_batch(items)
        for item in items:
            scalar.update(item)
        assert np.array_equal(batched.table, scalar.table)
        assert batched.total == scalar.total
        assert batched.min_cell() == scalar.min_cell()

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

    def test_count_min_weighted_update_batch(self):
        batched = CountMinSketch(width=32, depth=3, random_state=7)
        scalar = CountMinSketch(width=32, depth=3, random_state=7)
        rng = np.random.default_rng(8)
        items = rng.integers(0, 100, size=400)
        counts = rng.integers(1, 9, size=400)
        batched.update_batch(items, counts=counts)
        for item, count in zip(items.tolist(), counts.tolist()):
            scalar.update(item, count)
        assert np.array_equal(batched.table, scalar.table)
        assert batched.total == scalar.total

    @pytest.mark.parametrize("depth", [3, 4], ids=["odd-depth", "even-depth"])
    def test_count_sketch_estimate_batch_agrees_with_scalar(self, depth):
        sketch = CountSketch(width=64, depth=depth, random_state=9)
        items = _random_items(seed=9)
        sketch.update_batch(items)
        queries = _random_items(size=500, seed=10)
        batch = sketch.estimate_batch(queries)
        assert batch.tolist() == [sketch.estimate(q) for q in queries]

    def test_count_sketch_update_batch_agrees_with_scalar(self):
        batched = CountSketch(width=32, depth=5, random_state=11)
        scalar = CountSketch(width=32, depth=5, random_state=11)
        items = _random_items(seed=12)
        batched.update_batch(items)
        scalar.update_many(iter(items[:16]))   # small path
        for item in items[16:]:
            scalar.update(item)
        assert np.array_equal(batched._table, scalar._table)
        assert batched.total == scalar.total

    def test_space_saving_estimate_batch_agrees_with_scalar(self):
        summary = SpaceSavingSummary(capacity=16)
        items = _random_items(universe=40, seed=13)
        summary.update_batch(items)
        queries = list(range(40))
        batch = summary.estimate_batch(queries)
        assert batch.tolist() == [summary.estimate(q) for q in queries]

    def test_space_saving_update_batch_preserves_bounds(self):
        summary = SpaceSavingSummary(capacity=8)
        items = _random_items(size=3_000, universe=20, seed=14)
        summary.update_batch(items)
        assert summary.total == len(items)
        error = summary.total / summary.capacity
        for item in set(items):
            true_frequency = items.count(item)
            estimate = summary.estimate(item)
            if estimate:   # tracked items obey the Space-Saving bracket
                assert true_frequency <= estimate <= true_frequency + error

    def test_exact_counter_batch_interface(self):
        counter = ExactFrequencyCounter()
        counter.update_batch([1, 2, 2, 3], counts=[1, 1, 1, 4])
        assert counter.estimate_batch([1, 2, 3, 9]).tolist() == [1, 2, 4, 0]

    def test_update_batch_rejects_bad_counts(self):
        sketch = CountMinSketch(width=8, depth=2, random_state=15)
        with pytest.raises(ValueError):
            sketch.update_batch([1, 2], counts=[1])
        with pytest.raises(ValueError):
            sketch.update_batch([1, 2], counts=[1, 0])
        with pytest.raises(ValueError):
            sketch.update(1, count=0)

    @pytest.mark.parametrize("factory", [
        lambda: CountMinSketch(width=8, depth=2, random_state=15),
        lambda: CountSketch(width=8, depth=2, random_state=15),
        lambda: SpaceSavingSummary(capacity=4),
        ExactFrequencyCounter,
    ], ids=["count-min", "count-sketch", "space-saving", "exact"])
    def test_update_batch_rejects_float_counts(self, factory):
        # regression: float counts were silently truncated to integers
        sketch = factory()
        with pytest.raises(TypeError):
            sketch.update_batch([1, 2, 3], counts=[1.9, 2.9, 3.9])
        assert sketch.total == 0


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
