"""Knowledge-free one-pass sampling strategy (Algorithm 3 of the paper).

The knowledge-free strategy makes no assumption about the input stream: it
does not know the population size, the stream length, or any occurrence
probability.  Instead it maintains a Count-Min sketch ``F̂`` (Algorithm 2) in
parallel with the sampling memory ``Gamma`` and, for every received
identifier ``j``:

1. updates the sketch with ``j`` and queries the estimate ``f̂_j``;
2. computes ``min_sigma`` — the minimum cell of the whole sketch, a proxy for
   the frequency of the rarest identifier seen so far;
3. if ``Gamma`` is not full, stores ``j``;
4. otherwise, with probability ``a_j = min_sigma / f̂_j``, evicts an
   identifier chosen uniformly (``r_k = 1/c``) and stores ``j``;
5. outputs an identifier chosen uniformly from ``Gamma``.

The frequency oracle is pluggable (any object exposing ``update``,
``estimate`` and ``min_cell``): the sketch-choice ablation drives the same
strategy with a Count sketch or a Space-Saving summary instead of Count-Min.

Randomness
----------
The strategy's three kinds of coin flips — eviction acceptance, victim
choice, and the ``sample()`` primitive — are drawn from three independent
:class:`~repro.utils.rng.BufferedUniforms` streams spawned from the node's
local generator.  Buffering amortises the per-draw cost, and because each
stream is consumed strictly sequentially the scalar path (:meth:`process`)
and the batch path (:meth:`process_batch`) produce **bit-identical** output
streams for the same seed, whatever the chunking.

The contract both paths keep: an accept coin goes only to a *qualifier* —
an element that arrives with Gamma full, is not in Gamma and has
``a_j > 0`` — in element order; a victim coin goes only to an accepted
qualifier; every element draws exactly one sample coin.  The batch path
has two chunk kernels, compiled and NumPy.  The compiled kernel draws all
three kinds of coin in place: it takes the values each buffer still holds
and then calls the stream's NumPy bit generator, which yields the values
the buffer would have drawn next, and each buffer then advances by the
coins used.  The NumPy kernel draws through the buffers: it takes a
chunk's sample coins at once, reads its accept coins with one ``peek`` of
the chunk's length and then calls ``advance`` with exactly the number it
used (it cannot know in advance how many qualifiers a chunk holds), and
draws victim coins one at a time.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, runtime_checkable

import numpy as np

from repro.core import chunk_kernel
from repro.core.base import SamplingStrategy
from repro.sketches.count_min import CountMinSketch
from repro.sketches.hashing import MERSENNE_PRIME_61
from repro.utils.rng import (
    BufferedUniforms,
    RandomState,
    ensure_rng,
    spawn_children,
)


@runtime_checkable
class FrequencyOracle(Protocol):
    """Minimal interface Algorithm 3 needs from its frequency estimator."""

    def update(self, item: int, count: int = 1) -> None:
        """Record an occurrence of ``item``."""

    def estimate(self, item: int) -> int:
        """Return the estimated frequency of ``item``."""

    def min_cell(self) -> int:
        """Return a lower bound on the frequency of the rarest item seen."""


class KnowledgeFreeStrategy(SamplingStrategy):
    """Algorithm 3: knowledge-free node sampling backed by a Count-Min sketch.

    Parameters
    ----------
    memory_size:
        Capacity ``c`` of the sampling memory ``Gamma``.
    sketch_width:
        Number ``k`` of columns of the Count-Min matrix.  Ignored when an
        explicit ``frequency_oracle`` is supplied.
    sketch_depth:
        Number ``s`` of rows of the Count-Min matrix.  Ignored when an
        explicit ``frequency_oracle`` is supplied.
    frequency_oracle:
        Optional alternative frequency estimator implementing
        :class:`FrequencyOracle`; defaults to a fresh
        :class:`~repro.sketches.count_min.CountMinSketch` of the requested
        dimensions.
    random_state:
        The node's local random coins (sketch hash functions included).

    Examples
    --------
    >>> from repro.streams import zipf_stream
    >>> strategy = KnowledgeFreeStrategy(memory_size=10, sketch_width=10,
    ...                                  sketch_depth=5, random_state=1)
    >>> biased = zipf_stream(5_000, 100, alpha=4, random_state=1)
    >>> output = strategy.process_stream(biased)
    >>> len(output) == len(biased)
    True
    """

    name = "knowledge-free"

    def __init__(self, memory_size: int, *, sketch_width: int = 10,
                 sketch_depth: int = 5,
                 frequency_oracle: Optional[FrequencyOracle] = None,
                 random_state: RandomState = None) -> None:
        rng = ensure_rng(random_state)
        super().__init__(memory_size, random_state=rng)
        if frequency_oracle is None:
            frequency_oracle = CountMinSketch(width=sketch_width,
                                              depth=sketch_depth,
                                              random_state=rng)
        self.frequency_oracle = frequency_oracle
        accept_rng, victim_rng, sample_rng = spawn_children(rng, 3)
        self._accept_coins = BufferedUniforms(accept_rng)
        self._victim_coins = BufferedUniforms(victim_rng)
        self._sample_coins = BufferedUniforms(sample_rng)

    # ------------------------------------------------------------------ #
    # Algorithm 3 internals
    # ------------------------------------------------------------------ #
    def insertion_probability(self, identifier: int) -> float:
        """Return ``a_j = min_sigma / f̂_j`` for the given identifier.

        Queried *after* the sketch has been updated with the identifier, so
        ``f̂_j >= 1`` and the ratio is well defined and lies in ``(0, 1]``.
        """
        estimate = self.frequency_oracle.estimate(identifier)
        if estimate <= 0:
            return 1.0
        min_sigma = self.frequency_oracle.min_cell()
        return min(1.0, min_sigma / estimate) if min_sigma > 0 else 0.0

    def _admit(self, identifier: int) -> None:
        """One admission step of Algorithm 3 (lines 4-12)."""
        # cobegin: the sketch and the sampler read the same element in parallel.
        self.frequency_oracle.update(identifier)
        if not self.memory_is_full:
            if identifier not in self._memory_set:
                self._insert(identifier)
            return
        if identifier in self._memory_set:
            return
        acceptance = self.insertion_probability(identifier)
        if acceptance > 0 and self._accept_coins.next() < acceptance:
            victim_index = int(self._victim_coins.next() * len(self._memory))
            self._replace(victim_index, identifier)

    def sample(self) -> Optional[int]:
        """Return an identifier chosen uniformly at random from ``Gamma``."""
        return self._coin_sample(self._sample_coins)

    # ------------------------------------------------------------------ #
    # Batch fast path (the streaming engine's per-chunk workhorse)
    # ------------------------------------------------------------------ #
    def process_batch(self, identifiers) -> np.ndarray:
        """Process a chunk of identifiers, vectorising the per-element costs.

        Bit-identical to calling :meth:`process` once per element: the
        admission logic, coin-flip consumption and outputs are exactly those
        of the scalar path.  The compiled chunk kernel
        (:mod:`repro.core.chunk_kernel`) runs that loop in C.  Where it
        cannot be built, the NumPy kernel's speed-up comes from (a) the
        Count-Min half running as array operations over the whole chunk
        (:meth:`~repro.sketches.count_min.CountMinSketch.update_and_estimate`:
        one broadcast hashing pass, every element's estimate from a stable
        argsort of its cells, ``min_sigma`` tracked by a loop over the few
        hits that can move it) and (b) admission running as a lean
        per-element loop over the precomputed ``a_j``.

        Subclasses that override the admission logic (e.g. the adaptive
        strategy) and strategies driven by a non-Count-Min oracle fall back
        to the generic per-element loop, which is equally exact.
        """
        ids = np.atleast_1d(np.asarray(identifiers, dtype=np.int64))
        if ids.size == 0:
            return np.zeros(0, dtype=np.int64)
        cls = type(self)
        if (cls._admit is not KnowledgeFreeStrategy._admit
                or cls.sample is not KnowledgeFreeStrategy.sample
                or cls.insertion_probability
                is not KnowledgeFreeStrategy.insertion_probability
                or cls.memory_is_full is not SamplingStrategy.memory_is_full
                or not isinstance(self.frequency_oracle, CountMinSketch)):
            return super().process_batch(ids)
        return self._process_chunk_count_min(ids)

    def _process_chunk_count_min(self, ids: np.ndarray) -> np.ndarray:
        """Algorithm 3 over one chunk, Count-Min oracle only.

        Runs the compiled kernel (:mod:`repro.core.chunk_kernel`) when it
        built and every hash row uses the Mersenne-61 prime, else the NumPy
        kernel (:meth:`_process_chunk_numpy`).  Either leaves exactly the
        state of the per-element loop, so the two can alternate freely
        within one stream.
        """
        kernel = chunk_kernel.load()
        sketch = self.frequency_oracle
        if kernel is None or any(function.prime != MERSENNE_PRIME_61
                                 for function in sketch._hash_functions):
            return self._process_chunk_numpy(ids)
        size = int(ids.size)
        memory = self._memory
        gamma = np.zeros(self.memory_size, dtype=np.int64)
        gamma[:len(memory)] = memory
        outputs, length = chunk_kernel.run_chunk(
            kernel, np.ascontiguousarray(ids), sketch, gamma, len(memory),
            self._sample_coins, self._accept_coins, self._victim_coins)
        memory[:] = gamma[:length].tolist()
        self._memory_set.clear()
        self._memory_set.update(memory)
        self._memory_snapshot = None
        self._elements_processed += size
        return outputs

    def _process_chunk_numpy(self, ids: np.ndarray) -> np.ndarray:
        """Algorithm 3 over one chunk in NumPy, Count-Min oracle only.

        With the sketch work done for the whole chunk, each element's step
        only tests membership, compares its ``a_j`` with the next peeked
        accept coin and draws the output.
        """
        estimates, min_cells = self.frequency_oracle.update_and_estimate(ids)
        # a_j = min(1, min_sigma / f̂_j).  float64 division of the int64
        # counts equals the scalar path's Python int / int while the counts
        # stay below 2^53.  After its own update an element's Count-Min
        # estimate and min_sigma are both >= 1, so the scalar path's other
        # two cases (estimate <= 0, min_sigma == 0) cannot arise here.
        acceptance = np.minimum(min_cells / estimates, 1.0)
        size = int(ids.size)
        memory = self._memory
        memory_set = self._memory_set
        capacity = self.memory_size
        victim_next = self._victim_coins.next
        coins = self._accept_coins.peek(size)
        used = 0
        outputs: List[int] = []
        append = outputs.append
        for identifier, probability, sample in zip(
                ids.tolist(), acceptance.tolist(),
                self._sample_coins.take(size)):
            if identifier not in memory_set:
                if len(memory) < capacity:
                    memory.append(identifier)
                    memory_set.add(identifier)
                elif probability > 0:
                    if coins[used] < probability:
                        victim_index = int(victim_next() * capacity)
                        memory_set.discard(memory[victim_index])
                        memory[victim_index] = identifier
                        memory_set.add(identifier)
                    used += 1
            append(memory[int(sample * len(memory))])
        self._accept_coins.advance(used)
        self._memory_snapshot = None
        self._elements_processed += size
        return np.asarray(outputs, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # Introspection helpers used by experiments and tests
    # ------------------------------------------------------------------ #
    @property
    def sketch(self) -> FrequencyOracle:
        """The underlying frequency oracle (Count-Min sketch by default)."""
        return self.frequency_oracle

    def estimated_frequency(self, identifier: int) -> int:
        """Return the oracle's current frequency estimate for ``identifier``."""
        return self.frequency_oracle.estimate(identifier)
