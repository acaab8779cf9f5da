"""Tests for repro.engine.batch (the batch streaming execution engine).

The engine's central contract — the batch driver produces exactly the output
stream the per-element driver produces for the same seed — is what makes it
safe for the experiment harness to run every figure on the vectorised path.
The seed-determinism tests below are the regression guard for that contract.
"""

import logging
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    AdaptiveKnowledgeFreeStrategy,
    KnowledgeFreeStrategy,
    MinWiseSampler,
    NodeSamplingService,
    ReservoirSampler,
    chunk_kernel,
)
from repro.engine import (
    BatchResult,
    as_identifier_array,
    iter_batches,
    run_stream,
    run_stream_scalar,
)
from repro.sketches import (
    CountMinSketch,
    CountSketch,
    ExactFrequencyCounter,
    UniversalHashFamily,
)
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


#: Pairwise subset of streams x chunk sizes x memory sizes x sketch shapes:
#: every pair of levels of any two factors occurs at least once in these 40
#: cases, each run once per chunk kernel.  Memory 7 or 50 with chunks of 64
#: or 1000 fills Gamma part-way through a chunk.
KERNEL_STREAMS = ["uniform", "zipf1.1", "zipf2", "zipf4", "peak-attack",
                  "negative", "below-2^61", "above-2^61"]
KERNEL_CHUNKS = [1, 5, 64, 1000, 8192]
KERNEL_MEMORIES = [1, 7, 50]
KERNEL_SKETCHES = [(1, 1), (3, 2), (200, 5)]
KERNEL_CASES = [
    (KERNEL_STREAMS[s], KERNEL_CHUNKS[c], KERNEL_MEMORIES[(s + c) % 3],
     KERNEL_SKETCHES[(s + 2 * c) % 3])
    for s in range(len(KERNEL_STREAMS)) for c in range(len(KERNEL_CHUNKS))
]


def _kernel_strategy(memory, sketch):
    width, depth = sketch
    return KnowledgeFreeStrategy(memory, sketch_width=width,
                                 sketch_depth=depth, random_state=41)


def _assert_same_state(reference, strategy):
    """``strategy`` left every observable of Algorithm 3 as ``reference``."""
    assert reference.memory == strategy.memory
    assert np.array_equal(reference.sketch.table, strategy.sketch.table)
    assert reference.sketch.total == strategy.sketch.total
    assert reference.sketch.min_cell() == strategy.sketch.min_cell()
    for coins in ("_accept_coins", "_victim_coins", "_sample_coins"):
        assert (getattr(reference, coins).next()
                == getattr(strategy, coins).next()), coins


@pytest.fixture
def compiled_kernel():
    """The compiled chunk kernel; skips where it cannot be built."""
    kernel = chunk_kernel.load()
    if kernel is None:
        pytest.skip("the compiled chunk kernel cannot be built on this host")
    return kernel


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

    @pytest.mark.parametrize("kernel", ["numpy", "compiled"])
    @pytest.mark.parametrize(
        "stream_name,chunk,memory,sketch", KERNEL_CASES,
        ids=[f"{name}-chunk{chunk}-c{memory}-{width}x{depth}"
             for name, chunk, memory, (width, depth) in KERNEL_CASES])
    def test_chunk_kernel_matches_scalar_reference(
            self, request, monkeypatch, kernel, stream_name, chunk, memory,
            sketch):
        """Each chunk kernel leaves every observable as ``process``.

        The NumPy kernel runs with the loader forced to report no compiled
        kernel; the compiled one skips where it cannot be built.
        """
        if kernel == "numpy":
            monkeypatch.setattr(chunk_kernel, "load", lambda: None)
        else:
            request.getfixturevalue("compiled_kernel")

            def numpy_kernel(self, ids):
                raise AssertionError("the NumPy kernel ran")

            monkeypatch.setattr(KnowledgeFreeStrategy, "_process_chunk_numpy",
                                numpy_kernel)
        stream = _kernel_stream(stream_name)
        reference = _kernel_strategy(memory, sketch)
        strategy = _kernel_strategy(memory, sketch)
        expected = run_stream_scalar(reference, stream)
        result = run_stream(strategy, stream, batch_size=chunk)
        assert np.array_equal(expected.outputs, result.outputs)
        _assert_same_state(reference, strategy)

    @pytest.mark.parametrize("stream_name,memory", [("zipf1.1", 7),
                                                    ("zipf2", 70)])
    @pytest.mark.parametrize("first", ["compiled", "numpy"])
    def test_kernels_interchange_mid_stream(self, monkeypatch,
                                            compiled_kernel, stream_name,
                                            memory, first):
        """A strategy pickled after one kernel's chunks continues on the other.

        Zipf(2) over memory 70 is still filling Gamma at the switch (61
        distinct ids so far) and fills after it; Zipf(1.1) over memory 7
        admits ids all along.
        """
        stream = _kernel_stream(stream_name, size=4_000)
        reference = _kernel_strategy(memory, (200, 5))
        expected = run_stream_scalar(reference, stream)
        strategy = _kernel_strategy(memory, (200, 5))
        loaders = {"compiled": lambda: compiled_kernel, "numpy": lambda: None}
        second = "numpy" if first == "compiled" else "compiled"
        outputs = []
        for half, kernel in ((stream[:2_000], first),
                             (stream[2_000:], second)):
            monkeypatch.setattr(chunk_kernel, "load", loaders[kernel])
            outputs.append(run_stream(strategy, half, batch_size=300).outputs)
            strategy = pickle.loads(pickle.dumps(strategy))
        assert np.array_equal(expected.outputs, np.concatenate(outputs))
        _assert_same_state(reference, strategy)

    def test_numpy_kernel_draws_coins_only_for_qualifiers(self, monkeypatch):
        """Accept coins go to qualifiers only, victim coins to accepted ones.

        A qualifier arrives with Gamma full, is not in Gamma and has
        ``a_j > 0``; the NumPy kernel peeks a chunk's length of accept coins
        and must advance by exactly the number it used.
        """
        monkeypatch.setattr(chunk_kernel, "load", lambda: None)
        strategy = _kernel_strategy(5, (16, 3))
        accept = strategy._accept_coins.peek(4)
        victim = strategy._victim_coins.peek(4)
        # Gamma fills from the chunk's first five distinct ids; repeats
        # while it fills and members after it is full draw no coin
        strategy.process_batch([1, 2, 1, 3, 4, 5, 5, 2, 3, 1, 4])
        assert sorted(strategy.memory) == [1, 2, 3, 4, 5]
        assert strategy._accept_coins.peek(4) == accept
        assert strategy._victim_coins.peek(4) == victim
        # one non-member: one accept coin, and a victim coin if accepted
        strategy.process_batch([6])
        accepted = 6 in strategy.memory
        assert strategy._accept_coins.peek(3) == accept[1:]
        assert strategy._victim_coins.peek(3) == \
            (victim[1:] if accepted else victim[:3])
        assert strategy.elements_processed == 12

    def test_non_mersenne_hash_rows_take_the_numpy_kernel(self,
                                                           monkeypatch):
        """The compiled kernel hashes modulo 2^61 - 1 only.

        A Count-Min sketch drawn over another prime must run the NumPy
        kernel even where the compiled one loads, and stay exact.
        """
        def run_chunk(*args):
            raise AssertionError("the compiled kernel ran")

        monkeypatch.setattr(chunk_kernel, "load", lambda: object())
        monkeypatch.setattr(chunk_kernel, "run_chunk", run_chunk)
        strategies = []
        for _ in range(2):
            sketch = CountMinSketch(width=50, depth=4, random_state=43)
            family = UniversalHashFamily(50, prime=2**31 - 1,
                                         random_state=44)
            sketch._hash_functions = tuple(family.draw_many(4))
            strategies.append(KnowledgeFreeStrategy(
                7, frequency_oracle=sketch, random_state=45))
        reference, strategy = strategies
        stream = _kernel_stream("zipf1.1")
        expected = run_stream_scalar(reference, stream)
        result = run_stream(strategy, stream, batch_size=256)
        assert np.array_equal(expected.outputs, result.outputs)
        _assert_same_state(reference, strategy)


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


class TestChunkKernelLoader:
    """Building and loading the compiled kernel, and falling back."""

    def test_build_failure_falls_back_with_one_warning(self, monkeypatch,
                                                       tmp_path, caplog):
        cache = tmp_path / "cache"
        monkeypatch.setattr(chunk_kernel, "COMPILER",
                            "repro-test-no-such-compiler")
        monkeypatch.setattr(chunk_kernel, "CACHE_DIR", cache)
        monkeypatch.setattr(chunk_kernel, "_kernel", chunk_kernel._UNSET)
        reference, strategy = _knowledge_free(), _knowledge_free()
        with caplog.at_level(logging.WARNING, logger=chunk_kernel.__name__):
            assert chunk_kernel.load() is None
            expected = run_stream_scalar(reference, STREAM)
            result = run_stream(strategy, STREAM, batch_size=1000)
            assert chunk_kernel.kernel_name() == "numpy"
        warnings = [record for record in caplog.records
                    if record.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "repro-test-no-such-compiler" in warnings[0].getMessage()
        assert np.array_equal(expected.outputs, result.outputs)
        _assert_same_state(reference, strategy)
        assert list(cache.iterdir()) == []

    def test_concurrent_builds_leave_one_library(self, compiled_kernel,
                                                 tmp_path):
        """Two processes building into one empty cache both get a kernel."""
        cache = tmp_path / "cache"
        script = textwrap.dedent("""
            import sys, time
            from pathlib import Path

            import numpy as np

            from repro.core import KnowledgeFreeStrategy, chunk_kernel
            from repro.engine import run_stream, run_stream_scalar
            from repro.streams import zipf_stream

            cache = Path(sys.argv[1])
            chunk_kernel.CACHE_DIR = cache
            # start both builds together
            (cache.parent / f"ready-{sys.argv[2]}").touch()
            deadline = time.monotonic() + 60
            while (len(list(cache.parent.glob("ready-*"))) < 2
                   and time.monotonic() < deadline):
                time.sleep(0.001)
            assert chunk_kernel.load() is not None
            stream = zipf_stream(3_000, 300, alpha=1.2, random_state=5)

            def build():
                return KnowledgeFreeStrategy(10, sketch_width=32,
                                             sketch_depth=4, random_state=3)

            expected = run_stream_scalar(build(), stream).outputs
            assert np.array_equal(
                run_stream(build(), stream, batch_size=500).outputs, expected)
            print(chunk_kernel.kernel_name())
        """)
        source = Path(chunk_kernel.__file__).resolve().parents[2]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            str(source), os.environ.get("PYTHONPATH")])))
        processes = [subprocess.Popen(
            [sys.executable, "-c", script, str(cache), str(worker)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True) for worker in range(2)]
        for process in processes:
            out, err = process.communicate(timeout=180)
            assert process.returncode == 0, err
            assert out.strip() == "compiled"
        libraries = list(cache.iterdir())
        assert len(libraries) == 1
        assert libraries[0].suffix == ".so"
