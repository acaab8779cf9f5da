"""Count-Min sketch (Algorithm 2 of the paper, Cormode & Muthukrishnan 2005).

The sketch maintains an ``s x k`` matrix ``F̂`` of counters and ``s`` hash
functions drawn from a 2-universal family.  Every arriving identifier
increments one counter per row; a point query returns the minimum of the ``s``
counters the identifier maps to, which overestimates the true frequency by at
most ``eps * m`` with probability at least ``1 - delta`` where
``k = ceil(e / eps)`` and ``s = ceil(ln(1 / delta))``.

The knowledge-free sampling strategy (Algorithm 3) additionally needs
``min_sigma`` — the minimum value over *all* cells of the matrix — which it
uses as a proxy for the frequency of the rarest identifier seen so far.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.sketches.hashing import (
    UniversalHashFamily,
    UniversalHashFunction,
    hash_rows,
)
from repro.utils.rng import RandomState, ensure_rng
from repro.utils.validation import (
    check_batch,
    check_positive,
    check_probability,
)


def dimensions_from_error(epsilon: float, delta: float) -> Tuple[int, int]:
    """Return ``(width k, depth s)`` from the accuracy parameters of Algorithm 2.

    ``k = ceil(e / epsilon)`` and ``s = ceil(ln(1 / delta))`` (the paper writes
    ``log`` for the natural logarithm; Algorithm 2 line 1-2).
    """
    check_probability("epsilon", epsilon, allow_zero=False, allow_one=False)
    check_probability("delta", delta, allow_zero=False, allow_one=False)
    width = int(math.ceil(math.e / epsilon))
    depth = max(1, int(math.ceil(math.log(1.0 / delta))))
    return width, depth


class CountMinSketch:
    """Streaming frequency estimator with ``O(k * s)`` memory.

    Parameters
    ----------
    width:
        Number of counters per row (``k`` in the paper).
    depth:
        Number of rows / hash functions (``s`` in the paper).
    random_state:
        Local random coins used to draw the hash functions.  The adversary
        knows ``width`` and ``depth`` but not the drawn functions.

    Examples
    --------
    >>> sketch = CountMinSketch(width=16, depth=4, random_state=42)
    >>> for item in [1, 2, 2, 3, 3, 3]:
    ...     sketch.update(item)
    >>> sketch.estimate(3) >= 3
    True
    """

    def __init__(self, width: int, depth: int, *,
                 random_state: RandomState = None) -> None:
        check_positive("width", width)
        check_positive("depth", depth)
        self.width = int(width)
        self.depth = int(depth)
        self._rng = ensure_rng(random_state)
        family = UniversalHashFamily(self.width, random_state=self._rng)
        self._hash_functions: Tuple[UniversalHashFunction, ...] = tuple(
            family.draw_many(self.depth)
        )
        self._table = np.zeros((self.depth, self.width), dtype=np.int64)
        self._total = 0

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_error(cls, epsilon: float, delta: float, *,
                   random_state: RandomState = None) -> "CountMinSketch":
        """Build a sketch sized from ``(epsilon, delta)`` as in Algorithm 2."""
        width, depth = dimensions_from_error(epsilon, delta)
        return cls(width=width, depth=depth, random_state=random_state)

    # ------------------------------------------------------------------ #
    # Streaming interface
    # ------------------------------------------------------------------ #
    #: Below this batch size the vectorised path loses to plain Python: the
    #: fixed cost of the numpy calls exceeds the per-element savings.
    _VECTOR_THRESHOLD = 32

    def update(self, item: int, count: int = 1) -> None:
        """Record ``count`` occurrences of ``item`` (Algorithm 2, lines 5-7).

        This is the single-element specialisation of :meth:`update_batch`,
        kept as a direct loop because per-element callers (the gossip
        simulator, the scalar reference driver) are themselves hot paths.
        """
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        for row, hash_function in enumerate(self._hash_functions):
            self._table[row, hash_function(item)] += count
        self._total += count

    def update_many(self, items: Iterable[int]) -> None:
        """Record a batch of single occurrences."""
        self.update_batch(np.fromiter(items, dtype=np.int64))

    def update_batch(self, items, counts=None) -> None:
        """Record a batch of occurrences with amortised vectorised hashing.

        Parameters
        ----------
        items:
            Array-like of identifiers.
        counts:
            Optional array-like of positive integer per-item multiplicities
            (default: every item counts once).

        Equivalent to calling :meth:`update` once per item — the sketch state
        after the batch is identical because counter increments commute.
        """
        items, counts = check_batch(items, counts)
        size = int(items.size)
        if size == 0:
            return
        if size < self._VECTOR_THRESHOLD:
            item_list = items.tolist()
            count_list = counts.tolist() if counts is not None else [1] * size
            for item, count in zip(item_list, count_list):
                for row, hash_function in enumerate(self._hash_functions):
                    self._table[row, hash_function(item)] += count
            self._total += sum(count_list)
            return
        columns = self.hash_columns(items)
        if counts is None:
            self._table += np.bincount(
                self._cells(columns).reshape(-1), minlength=self._table.size
            ).reshape(self._table.shape)
        else:
            rows = np.arange(self.depth)[:, None]
            np.add.at(self._table, (rows, columns), counts)
        self._total += size if counts is None else int(counts.sum())

    def estimate(self, item: int) -> int:
        """Return ``f̂_item``, the Count-Min estimate of the item's frequency."""
        return int(min(
            self._table[row, hash_function(item)]
            for row, hash_function in enumerate(self._hash_functions)
        ))

    def estimate_batch(self, items) -> np.ndarray:
        """Return the Count-Min estimates for a whole batch of identifiers.

        Agrees element-wise with repeated :meth:`estimate` calls on the same
        sketch state; hashing is vectorised across the batch.
        """
        items = np.atleast_1d(np.asarray(items))
        if items.size == 0:
            return np.zeros(0, dtype=np.int64)
        cells = self._cells(self.hash_columns(items))
        return self._table.reshape(-1)[cells].min(axis=0)

    # ------------------------------------------------------------------ #
    # Quantities used by the knowledge-free strategy
    # ------------------------------------------------------------------ #
    def min_cell(self) -> int:
        """Return ``min_sigma``: the minimum *non-empty* counter of the matrix.

        Algorithm 3 (line 6) uses this value as a conservative estimate of the
        frequency of the least frequent identifier observed so far.  Cells
        that no identifier has ever hashed to carry no information about any
        observed identifier, so they are excluded; otherwise a single
        untouched cell (likely when the number of distinct identifiers is
        comparable to the matrix width) would drive every insertion
        probability ``a_j = min_sigma / f̂_j`` to zero and freeze the sampling
        memory.  Returns 0 only when the sketch is empty.
        """
        if self._total == 0:
            return 0
        non_zero = self._table[self._table > 0]
        if non_zero.size == 0:
            return 0
        return int(non_zero.min())

    # ------------------------------------------------------------------ #
    # Chunk-processing hooks (used by the batch streaming engine)
    # ------------------------------------------------------------------ #
    def hash_columns(self, items) -> np.ndarray:
        """Return the ``(depth, n)`` int64 column matrix of a batch.

        ``result[row][i]`` is the column that ``items[i]`` hashes to in
        ``row``; every row is computed in one broadcast pass
        (:func:`~repro.sketches.hashing.hash_rows`).
        """
        return hash_rows(self._hash_functions, np.atleast_1d(np.asarray(items)))

    def export_rows(self) -> list:
        """Return the counter matrix as plain Python lists (one per row).

        No longer on the chunk path: :meth:`update_and_estimate` works on
        the array directly.  It stays, with :meth:`import_rows`, as the
        list-level view of the sketch state, and because the repository
        benchmark's tracer (``perfbench/tracing.py``) wraps both by name.
        """
        return [row.tolist() for row in self._table]

    def import_rows(self, rows, total: int) -> None:
        """Replace the counter matrix and total with ``rows`` and ``total``.

        The inverse of :meth:`export_rows`; like it, no longer on the chunk
        path.
        """
        matrix = np.asarray(rows, dtype=np.int64)
        if matrix.shape != self._table.shape:
            raise ValueError(
                f"rows shape {matrix.shape} does not match sketch shape "
                f"{self._table.shape}"
            )
        self._table[:, :] = matrix
        self._total = int(total)

    def _cells(self, columns: np.ndarray) -> np.ndarray:
        """Map a ``(depth, n)`` column matrix to flat indices of the table."""
        offsets = np.arange(0, self._table.size, self.width, dtype=np.int64)
        return columns + offsets[:, None]

    def update_and_estimate(self, items) -> Tuple[np.ndarray, np.ndarray]:
        """Record a chunk of single occurrences, reporting what Algorithm 3 reads.

        Returns ``(estimates, min_cells)``: ``estimates[i]`` and
        ``min_cells[i]`` are what :meth:`estimate` of ``items[i]`` and
        :meth:`min_cell` return right after ``update(items[i])`` when the
        chunk is fed one :meth:`update` at a time.  The final table and total
        are those of that loop too.

        The loop is sequential only in appearance.  Element ``i``'s
        pre-update value in a cell is the cell's start value plus the number
        of earlier hits to that cell in the chunk, which one stable argsort
        of the hit cells yields for all hits at once; the estimate is then a
        row-wise minimum.  ``min_cell`` moves only when a zero cell fills
        (it drops to 1) or when the last cell at the minimum ``m`` is hit (it
        becomes ``m + 1``, and the count at the new minimum is read off the
        table as it stands at that hit: the element's earlier rows updated,
        its later rows not).  Only a hit whose pre-update value is at most an
        upper bound on the minimum over the whole chunk can do either, so the
        Python loop runs over those few hits, not over elements.
        """
        items = np.atleast_1d(np.asarray(items))
        size = int(items.size)
        if size == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        depth = self.depth
        minimum, count_at_min = self.min_cell_state()
        start_minimum = minimum
        cells = self._cells(self.hash_columns(items))
        hits = cells.reshape(-1)
        start = self._table.reshape(-1).copy()
        counts = np.bincount(hits, minlength=start.size)
        # A stable sort of the hits groups them by cell and, within a cell,
        # by element (a cell lies in one row, so row-major order is element
        # order).  A hit's sorted position minus its cell's first position is
        # the number of earlier hits to that cell.  A 16-bit key lets numpy's
        # stable argsort run as a radix sort.
        key = hits.astype(np.uint16) if start.size <= 1 << 16 else hits
        position = np.empty(hits.size, dtype=np.int64)
        position[np.argsort(key, kind="stable")] = np.arange(hits.size)
        first = np.cumsum(counts) - counts
        before = ((start - first)[hits] + position).reshape(depth, size)
        estimates = before.min(axis=0) + 1
        final = start + counts
        self._table[:, :] = final.reshape(self._table.shape)
        self._total += size

        # A cell non-empty from the first hit on (non-empty at the start, or
        # the first hit's own cell) bounds the minimum by its final value.
        occupied = start > 0
        occupied[cells[0, 0]] = True
        bound = int(final[occupied].min())
        # the hits that can move the minimum, in loop order (element-major)
        events = np.flatnonzero((before <= bound).T)
        if events.size == 0:
            return estimates, np.full(size, start_minimum, dtype=np.int64)
        elements, rows = np.divmod(events, depth)
        # ``live`` follows the table hit by hit wherever a cell's value is at
        # most ``bound``: the hits to a cell from values at or below
        # ``bound`` are a prefix of that cell's hits.  That is all the count
        # at the minimum, which never exceeds ``bound``, reads.
        live = start.tolist()
        changed_at: List[int] = []
        changed_to: List[int] = []
        for element, cell, value in zip(elements.tolist(),
                                        cells[rows, elements].tolist(),
                                        before[rows, elements].tolist()):
            live[cell] = value + 1
            if value == 0:
                if minimum == 1:
                    count_at_min += 1
                    continue
                minimum = count_at_min = 1
            elif value == minimum:
                count_at_min -= 1
                if count_at_min:
                    continue
                minimum += 1
                count_at_min = live.count(minimum)
            else:
                continue
            changed_at.append(element)
            changed_to.append(minimum)
        if not changed_at:
            return estimates, np.full(size, start_minimum, dtype=np.int64)
        # min_cells[i] is the last change made by element i or before it
        latest = np.searchsorted(changed_at, np.arange(size), side="right") - 1
        min_cells = np.asarray(changed_to, dtype=np.int64)[latest]
        min_cells[latest < 0] = start_minimum
        return estimates, min_cells

    def min_cell_state(self) -> Tuple[int, int]:
        """Return ``(min_cell, count_at_min)`` over the non-empty counters.

        Seeds the incremental ``min_sigma`` tracking of the batch processor;
        ``(0, 0)`` when the sketch is empty.
        """
        if self._total == 0:
            return 0, 0
        non_zero = self._table[self._table > 0]
        if non_zero.size == 0:
            return 0, 0
        minimum = int(non_zero.min())
        return minimum, int(np.count_nonzero(self._table == minimum))

    @property
    def total(self) -> int:
        """Total number of updates seen (the current stream length ``m``)."""
        return self._total

    @property
    def table(self) -> np.ndarray:
        """A read-only view of the counter matrix (for inspection/tests)."""
        view = self._table.view()
        view.setflags(write=False)
        return view

    # ------------------------------------------------------------------ #
    # Error bound helpers
    # ------------------------------------------------------------------ #
    @property
    def epsilon(self) -> float:
        """Additive-error factor implied by the current width (``e / k``)."""
        return math.e / self.width

    @property
    def delta(self) -> float:
        """Failure probability implied by the current depth (``e^-s``)."""
        return math.exp(-self.depth)

    def error_bound(self) -> float:
        """Return the additive error bound ``epsilon * total``.

        With probability at least ``1 - delta``,
        ``estimate(j) <= f_j + error_bound()`` for any item ``j``.
        """
        return self.epsilon * self._total

    # ------------------------------------------------------------------ #
    # Merging (standard Count-Min property, useful for distributed use)
    # ------------------------------------------------------------------ #
    def merge(self, other: "CountMinSketch") -> None:
        """Merge another sketch built with the *same* hash functions in place.

        Raises
        ------
        ValueError
            If the sketches have different dimensions or hash functions —
            merging such sketches would produce meaningless estimates.
        """
        if (self.width, self.depth) != (other.width, other.depth):
            raise ValueError("cannot merge sketches with different dimensions")
        if self._hash_functions != other._hash_functions:
            raise ValueError("cannot merge sketches with different hash functions")
        self._table += other._table
        self._total += other._total

    def copy_empty(self) -> "CountMinSketch":
        """Return a zeroed sketch sharing this sketch's hash functions."""
        clone = CountMinSketch.__new__(CountMinSketch)
        clone.width = self.width
        clone.depth = self.depth
        clone._rng = self._rng
        clone._hash_functions = self._hash_functions
        clone._table = np.zeros_like(self._table)
        clone._total = 0
        return clone

    def __len__(self) -> int:
        return self._total

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"CountMinSketch(width={self.width}, depth={self.depth}, "
                f"total={self._total})")


class ExactFrequencyCounter:
    """Exact frequency oracle with the same interface as :class:`CountMinSketch`.

    Used by the omniscient strategy and by tests comparing sketch estimates to
    ground truth.  Memory grows with the number of distinct identifiers, which
    is exactly the cost the paper's knowledge-free strategy avoids.
    """

    def __init__(self) -> None:
        self._counts: Dict[int, int] = {}
        self._total = 0

    def update(self, item: int, count: int = 1) -> None:
        """Record ``count`` occurrences of ``item``."""
        if count <= 0:
            raise ValueError(f"count must be positive, got {count}")
        self._counts[item] = self._counts.get(item, 0) + count
        self._total += count

    def update_many(self, items: Iterable[int]) -> None:
        """Record a batch of single occurrences."""
        for item in items:
            self.update(item)

    def update_batch(self, items, counts=None) -> None:
        """Record a batch of occurrences (interface parity with the sketch)."""
        items, counts = check_batch(items, counts)
        if counts is None:
            for item in items.tolist():
                self.update(item)
            return
        for item, count in zip(items.tolist(), counts.tolist()):
            self.update(item, count)

    def estimate(self, item: int) -> int:
        """Return the exact frequency of ``item`` (0 if never seen)."""
        return self._counts.get(item, 0)

    def estimate_batch(self, items) -> np.ndarray:
        """Return the exact frequencies for a batch of identifiers."""
        item_list = np.atleast_1d(np.asarray(items)).tolist()
        get = self._counts.get
        return np.fromiter((get(item, 0) for item in item_list),
                           dtype=np.int64, count=len(item_list))

    def min_cell(self) -> int:
        """Return the frequency of the rarest identifier seen so far (0 if none)."""
        if not self._counts:
            return 0
        return min(self._counts.values())

    @property
    def total(self) -> int:
        """Total number of updates seen."""
        return self._total

    @property
    def distinct(self) -> int:
        """Number of distinct identifiers seen."""
        return len(self._counts)

    def frequencies(self) -> Dict[int, int]:
        """Return a copy of the exact frequency table."""
        return dict(self._counts)

    def __len__(self) -> int:
        return self._total
