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
qualifier; every element draws exactly one sample coin.  Once Gamma is
full the batch path takes a chunk's sample coins with one ``take``.  It
cannot know in advance how many qualifiers a chunk holds, so it reads its
accept coins with one ``peek`` of at most the chunk's length and then
calls ``advance`` with exactly the number of coins its qualifiers used.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, runtime_checkable

import numpy as np

from repro.core.base import SamplingStrategy
from repro.sketches.count_min import CountMinSketch
from repro.utils.rng import (
    BufferedUniforms,
    RandomState,
    ensure_rng,
    spawn_children,
)

#: Break-even of the two admission paths of a chunk with Gamma full, in
#: expected replacements per element (the sum of ``a_j`` over the chunk's
#: qualifiers, divided by the number of elements).  The vectorised path
#: costs a few array passes over the chunk plus, per replacement, one
#: Python step and an O(chunk) recurrence check (and a recomputation of the
#: qualifiers when a replaced id recurs); the per-element loop costs one
#: Python step per element.  Both therefore scale with the chunk length and
#: meet at a replacement rate that moves little with it.  Timed on Zipf
#: chunks of 512 to 8192 elements (2-core x86-64 host, CPython 3.11, NumPy
#: 2.4), the two paths tie at 0.013-0.028 replacements per element (0.013
#: at 8192 elements, 0.021 at 2048, 0.028 at 512); on synthetic chunks
#: whose ids never recur the vectorised path still wins at 0.04.  For
#: scale, over a 4-shard ensemble (memory 50, 200x5 sketch): Zipf(2) runs
#: at ~0.003, Zipf(1.1) at ~0.05 and the NASA trace stand-in at ~0.24.
_VECTOR_ADMISSION_BREAK_EVEN = 0.02


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
        of the scalar path.  The speed-up comes from (a) the Count-Min half
        running as array operations over the whole chunk
        (:meth:`~repro.sketches.count_min.CountMinSketch.update_and_estimate`:
        one broadcast hashing pass, every element's estimate from a stable
        argsort of its cells, ``min_sigma`` tracked by a loop over the few
        hits that can move it), (b) admission running with Python once per
        *replacement*, not once per element: Gamma is constant between two
        replacements, so membership, the accept-coin test and the output
        draws are array operations in between, and (c) chunks that expect
        many replacements running admission as a lean per-element loop over
        the precomputed ``a_j`` instead, whichever the expected replacement
        rate makes cheaper.

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
        """Algorithm 3 over one chunk, Count-Min oracle only."""
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
        # While Gamma fills (a strategy's first few dozen distinct ids), an
        # element draws no accept or victim coin, only its sample coin.
        filled: List[int] = []
        index = 0
        if len(memory) < capacity:
            sample_next = self._sample_coins.next
            for identifier in ids.tolist():
                if len(memory) >= capacity:
                    break
                if identifier not in memory_set:
                    memory.append(identifier)
                    memory_set.add(identifier)
                filled.append(memory[int(sample_next() * len(memory))])
                index += 1
        self._memory_snapshot = None
        self._elements_processed += size
        if index == size:
            return np.asarray(filled, dtype=np.int64)
        rest = ids[index:]
        acceptance = acceptance[index:]
        # A qualifier arrives with Gamma full, is not in Gamma and has
        # a_j > 0: exactly the elements that draw an accept coin.
        positive = acceptance > 0
        members = np.sort(np.asarray(memory, dtype=np.int64))
        found = np.searchsorted(members, rest)
        found[found == capacity] = 0
        qualifies = positive & (members[found] != rest)
        expected = float(acceptance[qualifies].sum())
        # Each path takes the rest of the chunk's sample coins at once, in
        # the form it reads them.
        if expected > _VECTOR_ADMISSION_BREAK_EVEN * rest.size:
            admitted = self._admit_per_element(
                rest, acceptance, self._sample_coins.take(rest.size))
        else:
            admitted = self._admit_between_replacements(
                rest, acceptance, positive, qualifies,
                self._sample_coins.take_array(rest.size))
        if not filled:
            return admitted
        return np.concatenate([np.asarray(filled, dtype=np.int64), admitted])

    def _admit_between_replacements(self, ids: np.ndarray,
                                    acceptance: np.ndarray,
                                    positive: np.ndarray,
                                    qualifies: np.ndarray,
                                    samples: np.ndarray) -> np.ndarray:
        """Admission with Gamma full, vectorised between two replacements.

        Gamma is constant between two accepted replacements, so the accept
        coins of a whole run of qualifiers are compared at once and the
        outputs up to the next acceptance are one gather; Python runs once
        per replacement.  A replacement changes who qualifies later in the
        chunk only if the admitted id (which stops qualifying) or the
        evicted id (which qualifies again) recurs there; only then are the
        qualifiers and their coins recomputed.
        """
        memory = self._memory
        memory_set = self._memory_set
        capacity = self.memory_size
        victim_next = self._victim_coins.next
        gamma = np.asarray(memory, dtype=np.int64)
        slots = (samples * capacity).astype(np.int64)
        coins = self._accept_coins.peek_array(ids.size)
        outputs = np.empty(ids.size, dtype=np.int64)
        used = 0       # accept coins drawn before ``start``
        start = 0      # first element whose output is not yet drawn
        while True:
            candidates = np.flatnonzero(qualifies[start:]) + start
            trial = coins[used:used + candidates.size] < acceptance[candidates]
            for drawn in np.flatnonzero(trial).tolist():
                position = int(candidates[drawn])
                outputs[start:position] = gamma[slots[start:position]]
                victim_index = int(victim_next() * capacity)
                evicted = memory[victim_index]
                admitted = int(ids[position])
                memory_set.discard(evicted)
                memory[victim_index] = admitted
                memory_set.add(admitted)
                gamma[victim_index] = admitted
                outputs[position] = gamma[slots[position]]
                start = position + 1
                tail = ids[start:]
                recurs_admitted = tail == admitted
                recurs_evicted = tail == evicted
                if recurs_admitted.any() or recurs_evicted.any():
                    qualifies[start:] &= ~recurs_admitted
                    qualifies[start:] |= positive[start:] & recurs_evicted
                    used += drawn + 1
                    break
            else:
                outputs[start:] = gamma[slots[start:]]
                used += candidates.size
                break
        self._accept_coins.advance(used)
        return outputs

    def _admit_per_element(self, ids: np.ndarray, acceptance: np.ndarray,
                           samples: List[float]) -> np.ndarray:
        """Admission with Gamma full, one Python step per element.

        Used when a chunk expects too many replacements for the vectorised
        path to pay off.  The sketch work is already done, so each step only
        tests membership, compares a precomputed ``a_j`` with the next
        peeked accept coin and draws the output.
        """
        memory = self._memory
        memory_set = self._memory_set
        capacity = self.memory_size
        victim_next = self._victim_coins.next
        coins = self._accept_coins.peek(ids.size)
        used = 0
        outputs: List[int] = []
        append = outputs.append
        for identifier, probability, sample in zip(
                ids.tolist(), acceptance.tolist(), samples):
            if probability > 0 and identifier not in memory_set:
                if coins[used] < probability:
                    victim_index = int(victim_next() * capacity)
                    memory_set.discard(memory[victim_index])
                    memory[victim_index] = identifier
                    memory_set.add(identifier)
                used += 1
            append(memory[int(sample * capacity)])
        self._accept_coins.advance(used)
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
