"""HyperLogLog distinct-count estimator (Flajolet et al. 2007).

A modern alternative to the Flajolet–Martin sketch: the identifier is hashed,
the first ``precision`` bits select a register and the remaining bits
contribute the position of their leading one-bit; the harmonic mean of the
register values estimates the cardinality.

Included as a substrate so that deployments of the node sampling service can
estimate the population size ``n`` online, as assumed away by the omniscient
strategy.
"""

from __future__ import annotations

import math
from typing import Iterable, Tuple

import numpy as np

from repro.sketches.hashing import UniversalHashFamily
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_in_range


_MASK_64 = (1 << 64) - 1


def _mix64(value: int) -> int:
    """Apply a splitmix64-style finalizer to decorrelate the hash bits.

    The Carter–Wegman hash is 2-universal but its output bits are strongly
    structured for consecutive inputs (the value advances by the multiplier
    ``a`` at every step), which biases the leading-zero statistics HyperLogLog
    relies on.  A fixed avalanche mixer removes that structure without
    affecting the 2-universal collision guarantee.
    """
    value &= _MASK_64
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & _MASK_64
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & _MASK_64
    return value ^ (value >> 31)


def _mix64_batch(values: np.ndarray) -> np.ndarray:
    """Vectorised :func:`_mix64` over a ``uint64`` array (wrapping multiply)."""
    values = values.astype(np.uint64, copy=True)
    values ^= values >> np.uint64(30)
    values *= np.uint64(0xBF58476D1CE4E5B9)
    values ^= values >> np.uint64(27)
    values *= np.uint64(0x94D049BB133111EB)
    return values ^ (values >> np.uint64(31))


def _bit_lengths(values: np.ndarray) -> np.ndarray:
    """Exact vectorised ``int.bit_length`` for a non-negative ``uint64`` array.

    Six shift-and-mask passes; stays in integer arithmetic because float
    logarithms are inexact near powers of two (and values may exceed the
    53-bit float mantissa).
    """
    values = values.astype(np.uint64, copy=True)
    lengths = np.zeros(values.shape, dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        mask = values >= np.uint64(1 << shift)
        lengths[mask] += shift
        values[mask] >>= np.uint64(shift)
    lengths[values > 0] += 1
    return lengths


def _alpha(num_registers: int) -> float:
    """Bias-correction constant for the harmonic-mean estimator."""
    if num_registers == 16:
        return 0.673
    if num_registers == 32:
        return 0.697
    if num_registers == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / num_registers)


class HyperLogLog:
    """HyperLogLog cardinality estimator.

    Parameters
    ----------
    precision:
        Number of index bits ``p``; the sketch keeps ``2**p`` one-byte
        registers and achieves a relative error of roughly
        ``1.04 / sqrt(2**p)``.
    random_state:
        Local random coins used to draw the underlying hash function.
    """

    #: Number of hashed bits fed to each register's leading-one computation.
    #: Kept below the 61-bit Mersenne modulus of the hash family.
    HASH_BITS = 60

    def __init__(self, precision: int = 10, *,
                 random_state: RandomState = None) -> None:
        check_in_range("precision", precision, 4, 18)
        self.precision = int(precision)
        self.num_registers = 1 << self.precision
        rng = ensure_rng(random_state)
        family = UniversalHashFamily(1 << self.HASH_BITS, random_state=rng)
        self._hash_function = family.draw()
        self._registers = np.zeros(self.num_registers, dtype=np.uint8)
        self._total = 0

    def update(self, item: int) -> None:
        """Record one occurrence of ``item``.

        The register index is taken from the *high* bits of the hash: with the
        affine Carter–Wegman construction the low bits of consecutive
        identifiers can cycle with a short period (when the multiplier shares
        a power-of-two factor), whereas the high bits remain well spread.
        """
        hashed = _mix64(self._hash_function(item)) % (1 << self.HASH_BITS)
        remaining_bits = self.HASH_BITS - self.precision
        register_index = hashed >> remaining_bits
        remaining = hashed & ((1 << remaining_bits) - 1)
        rank = remaining_bits - remaining.bit_length() + 1
        self._registers[register_index] = max(
            self._registers[register_index], rank
        )
        self._total += 1

    def update_many(self, items: Iterable[int]) -> None:
        """Record a batch of occurrences."""
        for item in items:
            self.update(item)

    def hash_batch(self, items) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised ``(register index, rank)`` for a batch of identifiers.

        ``registers[indices[i]] = max(registers[indices[i]], ranks[i])`` is
        exactly the state change :meth:`update` applies for ``items[i]`` —
        bit-identical to the scalar computation, which is what lets chunked
        consumers (the adaptive strategy's epoch scan) interleave register
        updates with per-element decisions.
        """
        items = np.atleast_1d(np.asarray(items))
        hashed = self._hash_function.hash_many(items).astype(np.uint64)
        mixed = (_mix64_batch(hashed)
                 & np.uint64((1 << self.HASH_BITS) - 1))
        remaining_bits = self.HASH_BITS - self.precision
        indices = (mixed >> np.uint64(remaining_bits)).astype(np.int64)
        remaining = mixed & np.uint64((1 << remaining_bits) - 1)
        ranks = remaining_bits - _bit_lengths(remaining) + 1
        return indices, ranks

    def estimate(self) -> float:
        """Return the estimated number of distinct identifiers seen."""
        if self._total == 0:
            return 0.0
        registers = self._registers.astype(np.float64)
        harmonic = np.sum(2.0 ** (-registers))
        raw = _alpha(self.num_registers) * self.num_registers ** 2 / harmonic
        # Small-range correction (linear counting) when many registers are empty.
        zeros = int(np.count_nonzero(self._registers == 0))
        if raw <= 2.5 * self.num_registers and zeros > 0:
            return self.num_registers * math.log(self.num_registers / zeros)
        return float(raw)

    def merge(self, other: "HyperLogLog") -> None:
        """Merge another sketch built with the same precision and hash function."""
        if self.precision != other.precision:
            raise ValueError("cannot merge HyperLogLogs with different precisions")
        if self._hash_function != other._hash_function:
            raise ValueError("cannot merge HyperLogLogs with different hash functions")
        np.maximum(self._registers, other._registers, out=self._registers)
        self._total += other._total

    @property
    def total(self) -> int:
        """Total number of updates seen (with duplicates)."""
        return self._total

    def relative_error(self) -> float:
        """Theoretical standard relative error ``1.04 / sqrt(num_registers)``."""
        return 1.04 / math.sqrt(self.num_registers)
