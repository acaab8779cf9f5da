"""Count sketch (Charikar, Chen & Farach-Colton 2004).

An unbiased frequency estimator cited in the paper's related work (reference
[8]).  It is included as a substrate for the sketch-choice ablation: the
knowledge-free strategy can be instantiated with any frequency oracle exposing
``update`` / ``estimate`` / ``min_cell``.

Each row pairs a bucket hash with a sign hash; the estimate is the median of
``sign * counter`` across rows, which makes the estimator unbiased (unlike
Count-Min, which only overestimates).
"""

from __future__ import annotations

import statistics
from typing import Iterable, Tuple

import numpy as np

from repro.sketches.hashing import UniversalHashFamily, UniversalHashFunction
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import check_positive


class CountSketch:
    """Median-of-signed-counters frequency estimator.

    Parameters
    ----------
    width:
        Number of buckets per row.
    depth:
        Number of rows; the estimate is the median across rows, so an odd
        depth is recommended.
    random_state:
        Local random coins for the bucket and sign hash functions.
    """

    def __init__(self, width: int, depth: int, *,
                 random_state: RandomState = None) -> None:
        check_positive("width", width)
        check_positive("depth", depth)
        self.width = int(width)
        self.depth = int(depth)
        rng = ensure_rng(random_state)
        bucket_family = UniversalHashFamily(self.width, random_state=rng)
        sign_family = UniversalHashFamily(2, random_state=rng)
        self._bucket_hashes: Tuple[UniversalHashFunction, ...] = tuple(
            bucket_family.draw_many(self.depth)
        )
        self._sign_hashes: Tuple[UniversalHashFunction, ...] = tuple(
            sign_family.draw_many(self.depth)
        )
        self._table = np.zeros((self.depth, self.width), dtype=np.int64)
        self._total = 0

    def _sign(self, row: int, item: int) -> int:
        return 1 if self._sign_hashes[row](item) == 1 else -1

    def update(self, item: int, count: int = 1) -> None:
        """Record ``count`` occurrences of ``item``."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        for row, bucket_hash in enumerate(self._bucket_hashes):
            self._table[row, bucket_hash(item)] += self._sign(row, item) * count
        self._total += count

    def update_many(self, items: Iterable[int]) -> None:
        """Record a batch of single occurrences."""
        for item in items:
            self.update(item)

    def estimate(self, item: int) -> int:
        """Return the median-of-rows estimate of the item's frequency.

        The estimate is clamped at zero: frequencies are non-negative and the
        sampling strategies divide by the returned value.
        """
        values = [
            self._sign(row, item) * int(self._table[row, bucket_hash(item)])
            for row, bucket_hash in enumerate(self._bucket_hashes)
        ]
        return max(0, int(statistics.median(values)))

    def min_cell(self) -> int:
        """Return a conservative lower bound playing the role of ``min_sigma``.

        The Count sketch stores signed counters, so the raw minimum cell can be
        negative; we clamp at zero and fall back to 1 once the stream is
        non-empty so that callers dividing by this value stay well defined.
        """
        if self._total == 0:
            return 0
        return max(1, int(self._table.min()))

    @property
    def total(self) -> int:
        """Total number of updates seen."""
        return self._total

    def __len__(self) -> int:
        return self._total
