"""Columnar sample blocks: the struct-of-arrays face of the access layer.

The IKY12 weighted-sampling model charges the LCA one unit per *draw*;
nothing in the accounting requires each draw to become a Python object.
:class:`SampleBlock` therefore carries a whole batch of draws as three
parallel numpy arrays (``indices``, ``profits``, ``weights``) — the
representation the cold pipeline consumes end to end (mask, dedup,
slice, encode) without materializing ``m`` :class:`Sample`/``Item``
objects.  :class:`TableBlock` is the
weighted sampler's block: it gathers its columns only when read and
counts its efficiency codes from the alias table's memo.

:class:`Sample` (one draw as a value object) lives here too; the
object-path APIs (``sample``, ``sample_many``) are now thin views over
blocks, so there is a single source of truth for what a draw reveals.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import OracleError
from ..knapsack.items import Item
from .beside import halves
from .codes import (
    DENSE_MAX_POINTS,
    UNENCODED,
    CodeCounts,
    count_codes,
    encode_small,
)

__all__ = ["Sample", "SampleBlock", "TableBlock"]


class Sample:
    """One weighted sample: the item's index plus its (p, w) pair.

    The IKY12 model reveals the sampled item's identity and attributes
    in a single sample — the LCA pays one unit per draw.
    """

    __slots__ = ("index", "item")

    def __init__(self, index: int, item: Item) -> None:
        self.index = index
        self.item = item

    @property
    def profit(self) -> float:
        """Sampled item's profit."""
        return self.item.profit

    @property
    def weight(self) -> float:
        """Sampled item's weight."""
        return self.item.weight

    @property
    def efficiency(self) -> float:
        """Sampled item's efficiency ratio."""
        return self.item.efficiency

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Sample(index={self.index}, item={self.item})"


class SampleBlock:
    """A batch of draws (or point queries) as parallel columns.

    Parameters
    ----------
    indices, profits, weights:
        Equal-length 1-D arrays; row ``k`` is draw ``k`` in draw order.
        Arrays are frozen (``writeable=False``) on construction so a
        block can be shared between pipeline phases safely.
    """

    __slots__ = ("indices", "_profits", "_weights")

    def __init__(self, indices, profits, weights) -> None:
        idx = np.ascontiguousarray(indices, dtype=np.int64)
        p = np.ascontiguousarray(profits, dtype=float)
        w = np.ascontiguousarray(weights, dtype=float)
        if idx.ndim != 1 or p.shape != idx.shape or w.shape != idx.shape:
            raise OracleError(
                "SampleBlock columns must be 1-D arrays of equal length, got "
                f"indices{idx.shape}, profits{p.shape}, weights{w.shape}"
            )
        for arr in (idx, p, w):
            arr.setflags(write=False)
        self.indices = idx
        self._profits = p
        self._weights = w

    # ------------------------------------------------------------------
    @property
    def profits(self) -> np.ndarray:
        """Per-draw profits (read-only)."""
        return self._profits

    @property
    def weights(self) -> np.ndarray:
        """Per-draw weights (read-only)."""
        return self._weights

    def small_code_counts(self, eps_sq: float, domain) -> CodeCounts:
        """:class:`~repro.access.codes.CodeCounts` of the grid codes of
        the draws with profit at most ``eps_sq`` (``domain.encode_many``
        of their efficiencies): the multiset rQuantile gets in Algorithm
        2 line 10.  Computed from this block's own columns (so a
        corrupted or custom block keeps its values)."""
        codes = encode_small(self.profits, self.weights, eps_sq, domain)[1]
        return count_codes(codes, domain.size)

    def __len__(self) -> int:
        return int(self.indices.size)

    # ------------------------------------------------------------------
    # Object-path compatibility views (lazy: nothing is materialized
    # until a caller actually iterates).
    # ------------------------------------------------------------------
    def sample_at(self, k: int) -> Sample:
        """Draw ``k`` as a :class:`Sample` value object."""
        return Sample(
            int(self.indices[k]),
            Item(float(self.profits[k]), float(self.weights[k])),
        )

    def samples(self) -> Iterator[Sample]:
        """Iterate the block as :class:`Sample` objects (back-compat view)."""
        for i, p, w in zip(self.indices, self.profits, self.weights):
            yield Sample(int(i), Item(float(p), float(w)))

    def to_samples(self) -> list[Sample]:
        """Materialize the whole block as a list of :class:`Sample`."""
        return list(self.samples())

    def __iter__(self) -> Iterator[Sample]:
        return self.samples()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SampleBlock(size={len(self)})"


class TableBlock(SampleBlock):
    """Draws from an alias table over an explicit instance.

    ``profits``/``weights`` are gathered from the instance columns on
    first access.  :meth:`small_code_counts` reads the table's
    :class:`~repro.access.codes.CodeMemo` instead (from the table's
    second run on): each half of a large block is looked up in the memo
    and counted beside the other, so a run that only needs the counts
    never gathers the float columns nor keeps a per-draw code array.
    Both faces agree: the memo and :meth:`SampleBlock.small_code_counts`
    encode through one function, :func:`~repro.access.codes.encode_small`.
    """

    __slots__ = ("_columns", "_table")

    def __init__(
        self, indices, profits: np.ndarray, weights: np.ndarray, table
    ) -> None:
        idx = np.ascontiguousarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise OracleError(f"TableBlock indices must be 1-D, got shape {idx.shape}")
        idx.setflags(write=False)
        self.indices = idx
        self._profits = None
        self._weights = None
        self._columns = (profits, weights)
        self._table = table

    @staticmethod
    def _gather(column: np.ndarray, rows: np.ndarray) -> np.ndarray:
        out = column[rows]
        out.setflags(write=False)
        return out

    @property
    def profits(self) -> np.ndarray:
        if self._profits is None:
            self._profits = self._gather(self._columns[0], self.indices)
        return self._profits

    @property
    def weights(self) -> np.ndarray:
        if self._weights is None:
            self._weights = self._gather(self._columns[1], self.indices)
        return self._weights

    def small_code_counts(self, eps_sq: float, domain) -> CodeCounts:
        memo = self._table.code_memo(*self._columns, eps_sq, domain)
        if memo is None:
            return super().small_code_counts(eps_sq, domain)
        idx, size = self.indices, domain.size
        if size > DENSE_MAX_POINTS:
            codes = memo.codes[idx]
            todo = np.flatnonzero(codes == UNENCODED)
            if todo.size:
                codes[todo] = memo.fill(idx[todo])
            return count_codes(codes[codes >= 0], size)

        def count(lo: int, hi: int):
            # Shifted by 2, LARGE and UNENCODED land in bins 0 and 1.
            rows = idx[lo:hi]
            codes = memo.codes[rows]
            hist = np.bincount(np.add(codes, 2, dtype=np.intp), minlength=size + 2)
            if hist[1] == 0:
                return hist, None
            if hist[1] == rows.size:  # a new memo: fill every row, copy none
                return hist, rows
            return hist, rows[np.flatnonzero(codes == UNENCODED)]

        parts = halves(count, idx.size)
        hist = sum(part_hist for part_hist, _ in parts)
        for _, todo in parts:
            if todo is not None:
                fresh = memo.fill(todo)
                hist += np.bincount(np.add(fresh, 2, dtype=np.intp), minlength=size + 2)
        return CodeCounts.from_histogram(hist[2:])
