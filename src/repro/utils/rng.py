"""Random-number-generator helpers.

All randomized classes in the library accept either:

* ``None`` — a fresh, OS-seeded generator is created;
* an ``int`` seed — a deterministic generator is created from it;
* an existing :class:`numpy.random.Generator` — used as is.

:func:`ensure_rng` normalises these three cases.  :func:`spawn_children`
derives independent child generators, which is how a simulation hands an
independent random coin to every simulated node (the paper requires that the
adversary has no access to the local coins, hence one generator per node).
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np

RandomState = Union[None, int, np.random.Generator]


def ensure_rng(random_state: RandomState = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed, generator or None.

    Parameters
    ----------
    random_state:
        ``None`` for a non-deterministic generator, an integer seed for a
        reproducible one, or an already constructed generator (returned
        unchanged).

    Raises
    ------
    TypeError
        If ``random_state`` is none of the accepted types.
    """
    if random_state is None:
        return np.random.default_rng()
    if isinstance(random_state, np.random.Generator):
        return random_state
    if isinstance(random_state, (int, np.integer)):
        return np.random.default_rng(int(random_state))
    raise TypeError(
        "random_state must be None, an int seed, or a numpy Generator, "
        f"got {type(random_state).__name__}"
    )


class BufferedUniforms:
    """Amortised stream of uniform ``[0, 1)`` doubles from one generator.

    Scalar random draws through :meth:`numpy.random.Generator.random` cost a
    full Python/C round-trip per value; this helper refills an internal block
    of ``block_size`` values at once and hands them out one by one, cutting
    the per-draw cost by an order of magnitude.

    The crucial property for the batch streaming engine is *chunk invariance*:
    the sequence of values consumed through :meth:`next`, :meth:`take` and
    :meth:`advance` is a fixed function of the underlying generator's seed,
    independent of how the draws are grouped; :meth:`peek` reads ahead
    without consuming.  A strategy whose scalar and batch execution paths
    both draw their coins from the same buffered streams therefore produces
    bit-identical outputs under both drivers.  (NumPy generators fill
    ``random(n)`` sequentially from the bit stream, so the refill block
    boundaries do not change which value sits at which stream position.)

    The compiled chunk kernel (:mod:`repro.core.chunk_kernel`) draws past
    the buffer itself: it takes the :meth:`pending` values first and then
    calls :attr:`bit_generator`'s ``next_double``, the function
    ``random(n)`` fills its blocks with, so it reads the values a refill
    would have buffered; :meth:`advance_drawn` then records how many it
    used.  A pickle holds only the unconsumed values, so a stream that
    has been drained carries none of the values it handed out.

    Refill blocks start at :attr:`INITIAL_BLOCK` values and grow
    geometrically up to ``block_size``: a simulation holding one stream
    per node (10k+ nodes, a handful of draws per node per round) must not
    pay a 4096-value refill for every stream it merely touches, while a
    stream that is actually drained still amortises at the full block size
    after a few refills.  A stream the compiled kernel leaves empty starts
    small again, since its next reader may want only a few values.
    """

    __slots__ = ("_rng", "_block_size", "_next_block", "_buffer", "_position")

    #: Size of the first refill, and of the first after the buffer empties.
    INITIAL_BLOCK = 32

    def __init__(self, random_state: RandomState = None, *,
                 block_size: int = 4096) -> None:
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        self._rng = ensure_rng(random_state)
        self._block_size = int(block_size)
        self._next_block = min(self.INITIAL_BLOCK, self._block_size)
        self._buffer: List[float] = []
        self._position = 0

    def __getstate__(self):
        # the default pickle's layout, with only the unconsumed values:
        # a pickle that also holds consumed ones and their position
        # restores through the same default path
        return None, {"_rng": self._rng, "_block_size": self._block_size,
                      "_next_block": self._next_block,
                      "_buffer": self._buffer[self._position:],
                      "_position": 0}

    def _refill(self, needed: int) -> None:
        """Make at least ``needed`` unconsumed values available."""
        pending = self._buffer[self._position:]
        fresh = self._rng.random(max(self._next_block, needed - len(pending)))
        self._buffer = pending + fresh.tolist()
        self._next_block = min(self._next_block * 4, self._block_size)
        self._position = 0

    def next(self) -> float:
        """Return the next uniform ``[0, 1)`` value of the stream."""
        position = self._position
        if position >= len(self._buffer):
            self._refill(1)
            position = 0
        self._position = position + 1
        return self._buffer[position]

    def take(self, count: int) -> List[float]:
        """Return the next ``count`` values of the stream as a list.

        Equivalent to ``[stream.next() for _ in range(count)]`` but amortised;
        the consumed positions are exactly the same.
        """
        values = self.peek(count)
        self._position += count
        return values

    def peek(self, count: int) -> List[float]:
        """Return the next ``count`` values of the stream without consuming them.

        A consumer that does not know in advance how many values it will use
        peeks an upper bound, uses a prefix, and then calls :meth:`advance`
        with the length of that prefix; the stream then continues as if the
        prefix had been drawn with :meth:`next`.  Peeked values are buffered
        values, so a snapshot taken between a peek and its advance resumes
        the same stream.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if len(self._buffer) - self._position < count:
            self._refill(count)
        return self._buffer[self._position:self._position + count]

    def advance(self, count: int) -> None:
        """Consume the next ``count`` values, as ``count`` :meth:`next` calls."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if len(self._buffer) - self._position < count:
            self._refill(count)
        self._position += count

    @property
    def bit_generator(self) -> np.random.BitGenerator:
        """The bit generator behind the stream, for :meth:`advance_drawn`."""
        return self._rng.bit_generator

    def pending(self) -> np.ndarray:
        """The buffered values not yet consumed, in stream order."""
        return np.array(self._buffer[self._position:], dtype=np.float64)

    def advance_drawn(self, count: int) -> None:
        """Consume ``count`` values, drawing none.

        The first ones are the :meth:`pending` values; the rest must already
        have been drawn from :attr:`bit_generator` with ``next_double``, one
        per value, as the compiled chunk kernel does.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count < len(self._buffer) - self._position:
            self._position += count
            return
        self._buffer = []
        self._position = 0
        self._next_block = min(self.INITIAL_BLOCK, self._block_size)


def spawn_children(random_state: RandomState, count: int) -> List[np.random.Generator]:
    """Derive ``count`` statistically independent child generators.

    Child generators are created through numpy's ``spawn`` mechanism when the
    parent exposes a seed sequence, which guarantees independence between the
    streams handed to different simulated nodes.

    Parameters
    ----------
    random_state:
        Parent seed/generator (see :func:`ensure_rng`).
    count:
        Number of independent generators to derive.  Must be positive.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    rng = ensure_rng(random_state)
    bit_generator = rng.bit_generator
    seed_seq = getattr(bit_generator, "seed_seq", None)
    if seed_seq is not None:
        return [np.random.default_rng(child) for child in seed_seq.spawn(count)]
    # Fallback for exotic bit generators without a seed sequence: derive
    # children from integers drawn from the parent.
    seeds = rng.integers(0, 2**63 - 1, size=count)
    return [np.random.default_rng(int(seed)) for seed in seeds]
