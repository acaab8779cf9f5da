"""Tests for repro.engine.batch (the batch streaming execution engine).

The engine's central contract — the batch driver produces exactly the output
stream the per-element driver produces for the same seed — is what makes it
safe for the experiment harness to run every figure on the vectorised path.
The seed-determinism tests below are the regression guard for that contract.
"""

import math

import numpy as np
import pytest

import repro.core.knowledge_free as knowledge_free
from repro.core import (
    AdaptiveKnowledgeFreeStrategy,
    KnowledgeFreeStrategy,
    MinWiseSampler,
    NodeSamplingService,
    ReservoirSampler,
)
from repro.engine import (
    BatchResult,
    as_identifier_array,
    iter_batches,
    run_stream,
    run_stream_scalar,
)
from repro.sketches import CountSketch, ExactFrequencyCounter
from repro.streams import peak_attack_stream, zipf_stream

STREAM = zipf_stream(8_000, 1_000, alpha=1.5, random_state=17)


def _knowledge_free(seed=5):
    return KnowledgeFreeStrategy(12, sketch_width=32, sketch_depth=4,
                                 random_state=seed)


def _kernel_stream(name, size=3_000):
    """The chunk kernel's equivalence streams, each ``size`` ids long."""
    rng = np.random.default_rng(29)
    if name == "uniform":
        return rng.integers(0, 300, size)
    if name.startswith("zipf"):
        alpha = float(name[len("zipf"):])
        return np.asarray(zipf_stream(size, 500, alpha=alpha,
                                      random_state=31).identifiers)
    if name == "peak-attack":   # one id floods half the stream
        return np.asarray(peak_attack_stream(size, 300,
                                             random_state=37).identifiers)
    if name == "negative":      # hashed through the object-dtype fallback
        return rng.integers(-200, 100, size)
    offset = {"below-2^61": -300, "above-2^61": 0}[name]
    return (1 << 61) + offset + rng.integers(0, 300, size)


#: Pairwise subset of streams x chunk sizes x memory sizes x sketch shapes x
#: admission paths: every pair of levels of any two factors occurs at least
#: once in these 40 cases.  Memory 7 or 50 with chunks of 64 or 1000 fills
#: Gamma part-way through a chunk.
KERNEL_STREAMS = ["uniform", "zipf1.1", "zipf2", "zipf4", "peak-attack",
                  "negative", "below-2^61", "above-2^61"]
KERNEL_CHUNKS = [1, 5, 64, 1000, 8192]
KERNEL_MEMORIES = [1, 7, 50]
KERNEL_SKETCHES = [(1, 1), (3, 2), (200, 5)]
KERNEL_PATHS = {"loop": 0.0, "vectorised": math.inf}
KERNEL_CASES = [
    (KERNEL_STREAMS[s], KERNEL_CHUNKS[c], KERNEL_MEMORIES[(s + c) % 3],
     KERNEL_SKETCHES[(s + 2 * c) % 3], sorted(KERNEL_PATHS)[(s // 4 + c) % 2])
    for s in range(len(KERNEL_STREAMS)) for c in range(len(KERNEL_CHUNKS))
]


class TestSeedDeterminism:
    """Same random_state => identical outputs through both drivers."""

    def test_knowledge_free_scalar_equals_batch(self):
        scalar = run_stream_scalar(_knowledge_free(), STREAM)
        batch = run_stream(_knowledge_free(), STREAM, batch_size=1024)
        assert np.array_equal(scalar.outputs, batch.outputs)

    def test_knowledge_free_sketch_state_matches(self):
        scalar_strategy = _knowledge_free()
        batch_strategy = _knowledge_free()
        run_stream_scalar(scalar_strategy, STREAM)
        run_stream(batch_strategy, STREAM, batch_size=512)
        assert np.array_equal(scalar_strategy.frequency_oracle.table,
                              batch_strategy.frequency_oracle.table)
        assert (scalar_strategy.frequency_oracle.min_cell()
                == batch_strategy.frequency_oracle.min_cell())
        assert scalar_strategy.memory == batch_strategy.memory

    def test_chunk_size_invariance(self):
        reference = run_stream(_knowledge_free(), STREAM, batch_size=4096)
        for batch_size in (1, 7, 97, 1000):
            result = run_stream(_knowledge_free(), STREAM,
                                batch_size=batch_size)
            assert np.array_equal(reference.outputs, result.outputs), batch_size

    @pytest.mark.parametrize("factory", [
        lambda: ReservoirSampler(12, random_state=5),
        lambda: MinWiseSampler(8, random_state=5),
        lambda: AdaptiveKnowledgeFreeStrategy(12, initial_sketch_width=16,
                                              sketch_depth=4, random_state=5),
    ], ids=["reservoir", "minwise", "adaptive"])
    def test_fallback_strategies_scalar_equals_batch(self, factory):
        scalar = run_stream_scalar(factory(), STREAM)
        batch = run_stream(factory(), STREAM, batch_size=640)
        assert np.array_equal(scalar.outputs, batch.outputs)

    @pytest.mark.parametrize("oracle_factory", [
        lambda: CountSketch(width=32, depth=5, random_state=3),
        lambda: ExactFrequencyCounter(),
    ], ids=["count-sketch", "exact"])
    def test_alternative_oracles_fall_back_exactly(self, oracle_factory):
        def build():
            return KnowledgeFreeStrategy(
                10, frequency_oracle=oracle_factory(), random_state=23)

        scalar = run_stream_scalar(build(), STREAM)
        batch = run_stream(build(), STREAM, batch_size=256)
        assert np.array_equal(scalar.outputs, batch.outputs)

    def test_elements_processed_advances_identically(self):
        strategy = _knowledge_free()
        run_stream(strategy, STREAM, batch_size=300)
        assert strategy.elements_processed == STREAM.size

    @pytest.mark.parametrize(
        "stream_name,chunk,memory,sketch,path", KERNEL_CASES,
        ids=[f"{name}-chunk{chunk}-c{memory}-{width}x{depth}-{path}"
             for name, chunk, memory, (width, depth), path in KERNEL_CASES])
    def test_chunk_kernel_matches_scalar_reference(
            self, monkeypatch, stream_name, chunk, memory, sketch, path):
        """The chunk kernel leaves every observable exactly as ``process``.

        Each admission path is forced through the break-even constant: 0
        sends every chunk with a qualifier to the per-element loop, infinity
        sends every chunk to the vectorised path.
        """
        monkeypatch.setattr(knowledge_free, "_VECTOR_ADMISSION_BREAK_EVEN",
                            KERNEL_PATHS[path])
        vectorised = KnowledgeFreeStrategy._admit_between_replacements
        per_element = KnowledgeFreeStrategy._admit_per_element

        def checked_vectorised(self, ids, acceptance, positive, qualifies,
                               samples):
            # with the constant at 0 the loop takes every chunk that has a
            # qualifier
            assert path == "vectorised" or not qualifies.any()
            return vectorised(self, ids, acceptance, positive, qualifies,
                              samples)

        def checked_per_element(self, *args):
            assert path == "loop"
            return per_element(self, *args)

        monkeypatch.setattr(KnowledgeFreeStrategy,
                            "_admit_between_replacements", checked_vectorised)
        monkeypatch.setattr(KnowledgeFreeStrategy, "_admit_per_element",
                            checked_per_element)
        stream = _kernel_stream(stream_name)
        width, depth = sketch

        def build():
            return KnowledgeFreeStrategy(memory, sketch_width=width,
                                         sketch_depth=depth, random_state=41)

        reference, kernel = build(), build()
        expected = run_stream_scalar(reference, stream)
        result = run_stream(kernel, stream, batch_size=chunk)
        assert np.array_equal(expected.outputs, result.outputs)
        assert reference.memory == kernel.memory
        assert np.array_equal(reference.sketch.table, kernel.sketch.table)
        assert reference.sketch.total == kernel.sketch.total
        assert reference.sketch.min_cell() == kernel.sketch.min_cell()
        for coins in ("_accept_coins", "_victim_coins", "_sample_coins"):
            assert (getattr(reference, coins).next()
                    == getattr(kernel, coins).next()), coins


class TestRunStream:
    def test_batch_result_accounting(self):
        result = run_stream(_knowledge_free(), STREAM, batch_size=1000)
        assert isinstance(result, BatchResult)
        assert result.elements == STREAM.size
        assert result.batches == (STREAM.size + 999) // 1000
        assert result.batch_size == 1000
        assert result.outputs.dtype == np.int64
        assert result.outputs.size == STREAM.size
        assert result.elapsed_seconds > 0
        assert result.throughput > 0

    def test_output_stream_propagates_metadata(self):
        result = run_stream(_knowledge_free(), STREAM, batch_size=512)
        output = result.output_stream(STREAM, label="kf(test)")
        assert output.universe == STREAM.universe
        assert output.label == "kf(test)"
        assert output.size == STREAM.size

    def test_empty_stream(self):
        result = run_stream(_knowledge_free(), [], batch_size=64)
        assert result.elements == 0
        assert result.batches == 0
        assert result.outputs.size == 0
        assert result.throughput == 0.0

    def test_drives_service_through_on_receive_batch(self):
        service = NodeSamplingService(_knowledge_free())
        result = run_stream(service, STREAM, batch_size=2048)
        assert result.outputs.size == STREAM.size
        assert service.output_stream.size == STREAM.size
        # the recorded output is exactly what the driver returned
        assert service.output_stream.identifiers == result.outputs.tolist()

    def test_rejects_invalid_batch_size(self):
        with pytest.raises(ValueError):
            run_stream(_knowledge_free(), STREAM, batch_size=0)

    def test_rejects_target_without_batch_interface(self):
        with pytest.raises(TypeError):
            run_stream(object(), STREAM)
        with pytest.raises(TypeError):
            run_stream_scalar(object(), STREAM)


class TestHelpers:
    def test_as_identifier_array(self):
        assert as_identifier_array(STREAM).dtype == np.int64
        assert as_identifier_array([1, 2, 3]).tolist() == [1, 2, 3]
        arr = np.array([4, 5], dtype=np.int32)
        assert as_identifier_array(arr).dtype == np.int64

    def test_iter_batches_covers_stream(self):
        identifiers = as_identifier_array(range(10))
        chunks = list(iter_batches(identifiers, 4))
        assert [len(chunk) for chunk in chunks] == [4, 4, 2]
        assert np.concatenate(chunks).tolist() == list(range(10))

    def test_iter_batches_validates(self):
        with pytest.raises(ValueError):
            list(iter_batches(as_identifier_array([1]), 0))


class TestServiceBatchInterface:
    def test_on_receive_batch_equals_on_receive_loop(self):
        scalar_service = NodeSamplingService(_knowledge_free())
        batch_service = NodeSamplingService(_knowledge_free())
        for identifier in STREAM:
            scalar_service.on_receive(identifier)
        batch_service.consume(STREAM, batch_size=777)
        assert (scalar_service.output_stream.identifiers
                == batch_service.output_stream.identifiers)
        assert (scalar_service.output_frequencies()
                == batch_service.output_frequencies())

    def test_consume_rejects_bad_batch_size(self):
        service = NodeSamplingService(_knowledge_free())
        with pytest.raises(ValueError):
            service.consume(STREAM, batch_size=0)
