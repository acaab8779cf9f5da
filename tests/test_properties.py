"""Property-based tests (hypothesis) on core data structures and invariants."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.stirling import occupancy_distribution, stirling_second_kind
from repro.core import chunk_kernel
from repro.core.knowledge_free import KnowledgeFreeStrategy
from repro.core.omniscient import OmniscientStrategy
from repro.metrics.distributions import FrequencyDistribution
from repro.metrics.divergence import kl_divergence, total_variation
from repro.sketches.count_min import CountMinSketch, ExactFrequencyCounter
from repro.sketches.hashing import UniversalHashFamily
from repro.streams.oracle import StreamOracle
from repro.streams.stream import IdentifierStream, stream_from_frequencies

# Shared hypothesis profile: these tests exercise randomized data structures,
# so a moderate number of examples keeps the suite fast while still covering
# the input space well.
DEFAULT_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


identifier_lists = st.lists(st.integers(min_value=0, max_value=500),
                            min_size=1, max_size=300)


class TestHashingProperties:
    @DEFAULT_SETTINGS
    @given(items=st.lists(st.integers(min_value=0, max_value=2**40),
                          min_size=1, max_size=50),
           range_size=st.integers(min_value=2, max_value=1_000),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_outputs_always_in_range(self, items, range_size, seed):
        function = UniversalHashFamily(range_size, random_state=seed).draw()
        for item in items:
            assert 0 <= function(item) < range_size


class TestCountMinProperties:
    @DEFAULT_SETTINGS
    @given(items=identifier_lists, seed=st.integers(0, 2**31 - 1))
    def test_never_underestimates(self, items, seed):
        sketch = CountMinSketch(width=16, depth=4, random_state=seed)
        exact = ExactFrequencyCounter()
        for item in items:
            sketch.update(item)
            exact.update(item)
        for item in set(items):
            assert sketch.estimate(item) >= exact.estimate(item)

    @DEFAULT_SETTINGS
    @given(items=identifier_lists, seed=st.integers(0, 2**31 - 1))
    def test_total_and_min_cell_invariants(self, items, seed):
        sketch = CountMinSketch(width=8, depth=3, random_state=seed)
        sketch.update_many(items)
        assert sketch.total == len(items)
        assert 0 < sketch.min_cell() <= len(items)

    @DEFAULT_SETTINGS
    @given(items=identifier_lists, seed=st.integers(0, 2**31 - 1))
    def test_estimate_bounded_by_stream_length(self, items, seed):
        sketch = CountMinSketch(width=8, depth=3, random_state=seed)
        sketch.update_many(items)
        for item in set(items):
            assert sketch.estimate(item) <= len(items)


class TestStirlingProperties:
    @DEFAULT_SETTINGS
    @given(n=st.integers(min_value=1, max_value=15))
    def test_row_recurrence(self, n):
        for k in range(1, n + 1):
            assert stirling_second_kind(n, k) == (
                stirling_second_kind(n - 1, k - 1)
                + k * stirling_second_kind(n - 1, k))

    @DEFAULT_SETTINGS
    @given(num_urns=st.integers(min_value=1, max_value=30),
           num_balls=st.integers(min_value=0, max_value=60))
    def test_occupancy_is_probability_distribution(self, num_urns, num_balls):
        distribution = occupancy_distribution(num_urns, num_balls)
        assert abs(distribution.sum() - 1.0) < 1e-9
        assert (distribution >= -1e-12).all()
        # N_l <= min(k, l) almost surely.
        limit = min(num_urns, num_balls)
        assert distribution[limit + 1:].sum() < 1e-12


class TestDivergenceProperties:
    probability_tables = st.dictionaries(
        keys=st.integers(min_value=0, max_value=20),
        values=st.floats(min_value=0.01, max_value=10.0,
                         allow_nan=False, allow_infinity=False),
        min_size=1, max_size=15,
    )

    @DEFAULT_SETTINGS
    @given(table=probability_tables)
    def test_self_divergence_is_zero(self, table):
        dist = FrequencyDistribution(table)
        assert abs(kl_divergence(dist, dist)) < 1e-9

    @DEFAULT_SETTINGS
    @given(first=probability_tables, second=probability_tables)
    def test_divergence_non_negative_on_common_support(self, first, second):
        support = sorted(set(first) | set(second))
        # Give both distributions full support to avoid the floor penalty.
        v = FrequencyDistribution({k: first.get(k, 0.01) for k in support})
        w = FrequencyDistribution({k: second.get(k, 0.01) for k in support})
        assert kl_divergence(v, w) >= -1e-9

    @DEFAULT_SETTINGS
    @given(first=probability_tables, second=probability_tables)
    def test_total_variation_bounds_and_symmetry(self, first, second):
        v = FrequencyDistribution(first)
        w = FrequencyDistribution(second)
        distance = total_variation(v, w)
        assert -1e-12 <= distance <= 1.0 + 1e-12
        assert abs(distance - total_variation(w, v)) < 1e-12


class TestStreamProperties:
    @DEFAULT_SETTINGS
    @given(frequencies=st.dictionaries(
        keys=st.integers(min_value=0, max_value=100),
        values=st.integers(min_value=0, max_value=50),
        min_size=1, max_size=30),
        seed=st.integers(0, 2**31 - 1))
    def test_stream_from_frequencies_round_trip(self, frequencies, seed):
        stream = stream_from_frequencies(frequencies, random_state=seed)
        realised = stream.frequencies()
        for identifier, count in frequencies.items():
            assert realised.get(identifier, 0) == count

    @DEFAULT_SETTINGS
    @given(identifiers=identifier_lists)
    def test_occurrence_probabilities_sum_to_one(self, identifiers):
        stream = IdentifierStream(identifiers=identifiers)
        probabilities = stream.occurrence_probabilities()
        assert abs(sum(probabilities.values()) - 1.0) < 1e-9


class TestSamplerInvariants:
    @DEFAULT_SETTINGS
    @given(identifiers=identifier_lists,
           memory_size=st.integers(min_value=1, max_value=20),
           seed=st.integers(0, 2**31 - 1))
    def test_knowledge_free_memory_invariants(self, identifiers, memory_size,
                                              seed):
        strategy = KnowledgeFreeStrategy(memory_size, sketch_width=8,
                                         sketch_depth=3, random_state=seed)
        seen = set()
        for identifier in identifiers:
            output = strategy.process(identifier)
            seen.add(identifier)
            # Invariants: bounded memory, no duplicates, memory and output
            # only ever contain identifiers actually read from the stream.
            assert len(strategy.memory) <= memory_size
            assert len(set(strategy.memory)) == len(strategy.memory)
            assert set(strategy.memory) <= seen
            assert output in seen

    @DEFAULT_SETTINGS
    @given(identifiers=identifier_lists,
           memory_size=st.integers(min_value=1, max_value=10),
           seed=st.integers(0, 2**31 - 1))
    def test_omniscient_memory_invariants(self, identifiers, memory_size, seed):
        stream = IdentifierStream(identifiers=identifiers)
        oracle = StreamOracle.from_stream(stream)
        strategy = OmniscientStrategy(oracle, memory_size, random_state=seed)
        seen = set()
        for identifier in identifiers:
            output = strategy.process(identifier)
            seen.add(identifier)
            assert len(strategy.memory) <= memory_size
            assert len(set(strategy.memory)) == len(strategy.memory)
            assert set(strategy.memory) <= seen
            assert output in seen

    @DEFAULT_SETTINGS
    @given(table=st.dictionaries(
        keys=st.integers(min_value=0, max_value=50),
        values=st.floats(min_value=0.01, max_value=5.0,
                         allow_nan=False, allow_infinity=False),
        min_size=2, max_size=20))
    def test_oracle_insertion_probabilities_in_unit_interval(self, table):
        oracle = StreamOracle(table)
        for identifier in table:
            probability = oracle.insertion_probability(identifier)
            assert 0.0 < probability <= 1.0 + 1e-12


#: Chunk-kernel inputs: ids that recur (42 small ones, so Gamma fills and
#: ids outside it come back and face rejection), negative ids, ids around
#: and above 2^61 (reduced mod 2^61 - 1 before hashing) and arbitrary
#: 64-bit ids.
kernel_identifiers = st.lists(
    st.one_of(st.integers(-12, 12),
              st.integers(2**61 - 8, 2**61 + 8),
              st.integers(-2**63, 2**63 - 1)),
    min_size=1, max_size=600)


class TestChunkKernelProperties:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(identifiers=kernel_identifiers,
           cuts=st.lists(st.integers(min_value=0, max_value=600),
                         max_size=8),
           memory_size=st.integers(min_value=1, max_value=60),
           width=st.integers(min_value=1, max_value=40),
           depth=st.integers(min_value=1, max_value=6),
           seed=st.integers(0, 2**31 - 1))
    def test_compiled_numpy_and_scalar_kernels_agree(
            self, identifiers, cuts, memory_size, width, depth, seed):
        """Both chunk kernels, any chunking, leave ``process``'s state."""
        kernel = chunk_kernel.load()
        if kernel is None:
            pytest.skip("the compiled chunk kernel cannot be built here")
        ids = np.asarray(identifiers, dtype=np.int64)
        chunks = np.split(ids, sorted({cut % ids.size for cut in cuts}))

        def build():
            return KnowledgeFreeStrategy(memory_size, sketch_width=width,
                                         sketch_depth=depth,
                                         random_state=seed)

        reference = build()
        expected = [reference.process(identifier)
                    for identifier in identifiers]
        runs = {}
        for name, loaded in (("compiled", kernel), ("numpy", None)):
            strategy = build()
            with mock.patch.object(chunk_kernel, "load",
                                   lambda loaded=loaded: loaded):
                outputs = [strategy.process_batch(chunk) for chunk in chunks]
            assert np.concatenate(outputs).tolist() == expected, name
            runs[name] = strategy
        for name, strategy in runs.items():
            assert strategy.memory == reference.memory, name
            assert np.array_equal(strategy.sketch.table,
                                  reference.sketch.table), name
            assert strategy.sketch.total == reference.sketch.total, name
            assert (strategy.sketch.min_cell()
                    == reference.sketch.min_cell()), name
        for coins in ("_accept_coins", "_victim_coins", "_sample_coins"):
            values = {getattr(strategy, coins).next()
                      for strategy in (reference, *runs.values())}
            assert len(values) == 1, coins
