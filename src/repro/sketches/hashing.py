"""2-universal hash families (Section III-D of the paper).

The knowledge-free strategy relies on hash functions drawn from a 2-universal
family: for any two distinct items ``x != y`` the collision probability is at
most ``1 / range_size``, exactly what a truly random function would give.

We implement the classic Carter–Wegman construction

    h(x) = ((a * x + b) mod p) mod range_size

with ``p`` a Mersenne prime larger than the identifier universe and ``a, b``
drawn uniformly at random (``a != 0``) using the node's *local* random coins —
the adversary knows the construction but not ``a`` and ``b`` (Section III-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_positive

#: Mersenne prime 2^61 - 1 — larger than any 160-bit identifier reduced into
#: 61 bits and large enough for the universes used in simulations.
MERSENNE_PRIME_61 = (1 << 61) - 1

# Pre-boxed numpy constants of the vectorised Mersenne-61 modular arithmetic.
_P61 = np.uint64(MERSENNE_PRIME_61)
_U61 = np.uint64(61)
_U31 = np.uint64(31)
_U30 = np.uint64(30)
_U1 = np.uint64(1)
_MASK31 = np.uint64(0x7FFF_FFFF)
_MASK30 = np.uint64(0x3FFF_FFFF)


def _mod_mersenne61(values: np.ndarray) -> np.ndarray:
    """Reduce ``uint64`` ``values`` modulo ``2^61 - 1``.

    Uses the Mersenne identity ``2^61 ≡ 1 (mod p)``: splitting a value as
    ``q * 2^61 + r`` gives the congruent ``q + r < 2^61 + 8``, which a single
    conditional subtraction brings below ``p``.  The subtraction is
    branch-free: below ``p``, ``values - p`` wraps around above ``values``,
    so the minimum of the two is the reduced value.
    """
    values = (values >> _U61) + (values & _P61)
    return np.minimum(values, values - _P61)


def _mulmod_mersenne61(multipliers: np.ndarray, values: np.ndarray,
                       offsets: np.ndarray) -> np.ndarray:
    """Return ``(multipliers * values + offsets) mod (2^61 - 1)``.

    ``multipliers`` and ``offsets`` are ``(k, 1)`` ``uint64`` columns below
    ``p`` and ``values`` a ``uint64`` vector of length ``n``; the result is
    the ``(k, n)`` matrix of every row, so ``k`` hash rows cost one
    broadcast pass.  ``uint64`` cannot hold the 122-bit product, so both
    operands are split into 30/31-bit halves and the powers ``2^62`` and
    ``2^31`` are folded back with the Mersenne identity.  Every partial
    term stays below ``2^62`` and their sum below ``2^64``, so one reduction
    at the end suffices.  The result is bit-identical to Python's
    arbitrary-precision ``(multiplier * int(x) + offset) % p``.
    """
    a_hi = multipliers >> _U31                             # < 2^30
    a_lo = multipliers & _MASK31                           # < 2^31
    x = _mod_mersenne61(values)
    x_hi = x >> _U31                                       # < 2^30
    x_lo = x & _MASK31                                     # < 2^31
    # a*x = a_hi*x_hi*2^62 + (a_hi*x_lo + a_lo*x_hi)*2^31 + a_lo*x_lo, and
    # 2^62 ≡ 2, so the first term folds to 2*a_hi*x_hi < 2^61.  The middle
    # sum (< 2^62) splits as mid_hi*2^30 + mid_lo, and mid*2^31 ≡ mid_hi +
    # mid_lo*2^31 with both parts below 2^61.
    mid = a_hi * x_lo + a_lo * x_hi
    total = (a_hi * x_hi) << _U1
    total += mid >> _U30
    total += (mid & _MASK30) << _U31
    total += a_lo * x_lo
    total += offsets
    return _mod_mersenne61(total)


def hash_rows(functions: Sequence["UniversalHashFunction"],
              items) -> np.ndarray:
    """Hash ``items`` through every function at once.

    Returns an int64 array of shape ``(len(functions),) + items.shape``
    whose row ``r`` is ``functions[r]`` applied to every item.  For the
    default Mersenne modulus ``2^61 - 1`` and non-negative integer inputs,
    all rows are computed in one broadcast pass of split-multiplication
    ``uint64`` arithmetic (:func:`_mulmod_mersenne61`) — bit-identical to
    the scalar ``__call__`` but two orders of magnitude faster per element.
    Other moduli (and exotic inputs such as negative identifiers) fall back
    to exact arbitrary-precision arithmetic through an object-dtype array.
    """
    arr = np.asarray(items)
    if (all(function.prime == MERSENNE_PRIME_61 for function in functions)
            and arr.dtype.kind in "iu"
            and (arr.dtype.kind == "u" or arr.size == 0
                 or int(arr.min()) >= 0)):
        def column(values):
            return np.array(values, dtype=np.uint64).reshape(-1, 1)

        hashed = _mulmod_mersenne61(
            column([f.a for f in functions]),
            arr.reshape(-1).astype(np.uint64, copy=False),
            column([f.b for f in functions]))
        hashed %= column([f.range_size for f in functions])
        return hashed.astype(np.int64).reshape((len(functions),) + arr.shape)
    obj = np.asarray(items, dtype=object)
    rows = [((f.a * obj + f.b) % f.prime) % f.range_size for f in functions]
    return np.array(rows, dtype=object).astype(np.int64).reshape(
        (len(functions),) + obj.shape)


@dataclass(frozen=True)
class UniversalHashFunction:
    """A single hash function ``h(x) = ((a x + b) mod p) mod m`` from the family.

    Attributes
    ----------
    a, b:
        Random multipliers defining the function; ``1 <= a < p``, ``0 <= b < p``.
    prime:
        The modulus ``p`` of the Carter–Wegman construction.
    range_size:
        The size ``m`` of the output range; outputs lie in ``[0, m)``.
    """

    a: int
    b: int
    prime: int
    range_size: int

    def __post_init__(self) -> None:
        check_positive("range_size", self.range_size)
        check_positive("prime", self.prime)
        if not 1 <= self.a < self.prime:
            raise ValueError(f"a must be in [1, prime), got {self.a}")
        if not 0 <= self.b < self.prime:
            raise ValueError(f"b must be in [0, prime), got {self.b}")

    def __call__(self, item: int) -> int:
        """Hash ``item`` into ``[0, range_size)``."""
        return ((self.a * int(item) + self.b) % self.prime) % self.range_size

    def hash_many(self, items: Sequence[int]) -> np.ndarray:
        """Vectorised hashing of a sequence of identifiers.

        The one-row case of :func:`hash_rows`: bit-identical to the scalar
        ``__call__``, with the uint64 fast path for the default Mersenne
        modulus and the exact object-dtype fallback otherwise.
        """
        return hash_rows((self,), items)[0]


class UniversalHashFamily:
    """Factory drawing independent functions from a 2-universal family.

    Parameters
    ----------
    range_size:
        Output range ``m`` of every drawn function.
    prime:
        Field modulus; must exceed the largest identifier ever hashed.  The
        default (2^61 - 1) is safe for the 63-bit identifier universes used in
        the simulations.
    random_state:
        Local random coins used to draw the coefficients.
    """

    def __init__(self, range_size: int, *, prime: int = MERSENNE_PRIME_61,
                 random_state: RandomState = None) -> None:
        check_positive("range_size", range_size)
        check_positive("prime", prime)
        if prime <= range_size:
            raise ValueError(
                f"prime ({prime}) must be larger than range_size ({range_size})"
            )
        self.range_size = int(range_size)
        self.prime = int(prime)
        self._rng = ensure_rng(random_state)

    def draw(self) -> UniversalHashFunction:
        """Draw one hash function uniformly from the family."""
        a = int(self._rng.integers(1, self.prime))
        b = int(self._rng.integers(0, self.prime))
        return UniversalHashFunction(a=a, b=b, prime=self.prime,
                                     range_size=self.range_size)

    def draw_many(self, count: int) -> List[UniversalHashFunction]:
        """Draw ``count`` independent hash functions."""
        check_positive("count", count)
        return [self.draw() for _ in range(count)]


def pairwise_collision_rate(function: UniversalHashFunction,
                            items: Iterable[int]) -> float:
    """Empirical pairwise collision rate of ``function`` over distinct ``items``.

    Mainly used by the test-suite to check the 2-universality bound
    ``P{h(x) = h(y)} <= 1 / range_size`` on average over random functions.
    """
    values = [function(item) for item in set(items)]
    n = len(values)
    if n < 2:
        return 0.0
    collisions = 0
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            pairs += 1
            if values[i] == values[j]:
                collisions += 1
    return collisions / pairs
