"""Columnar sample blocks: the struct-of-arrays face of the access layer.

The IKY12 weighted-sampling model charges the LCA one unit per *draw*;
nothing in the accounting requires each draw to become a Python object.
:class:`SampleBlock` therefore carries a whole batch of draws as three
parallel numpy arrays (``indices``, ``profits``, ``weights``) — the
representation the cold pipeline consumes end to end (mask, dedup,
slice, encode) without materializing ``m`` :class:`Sample`/``Item``
objects.  :class:`TableBlock` is the
weighted sampler's block: it gathers its columns only when read and
takes its efficiency codes from the alias table's memo.

:class:`Sample` (one draw as a value object) lives here too; the
object-path APIs (``sample``, ``sample_many``) are now thin views over
blocks, so there is a single source of truth for what a draw reveals.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..errors import OracleError
from ..knapsack.items import Item
from .codes import encode_small

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

    def small_codes(self, eps_sq: float, domain) -> np.ndarray:
        """Grid codes of the draws with profit at most ``eps_sq``, in
        draw order: ``domain.encode_many`` of their efficiencies, the
        input rQuantile gets in Algorithm 2 line 10.  Computed from this
        block's own columns (so a corrupted or custom block keeps its
        values)."""
        return encode_small(self.profits, self.weights, eps_sq, domain)[1]

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
    first access; :meth:`small_codes` reads the table's
    :class:`~repro.access.codes.CodeMemo` instead (from the table's
    second run on), so a run that only needs codes never gathers the
    float columns.  Both faces agree: the memo and
    :meth:`SampleBlock.small_codes` encode through one function,
    :func:`~repro.access.codes.encode_small`.
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

    def small_codes(self, eps_sq: float, domain) -> np.ndarray:
        memo = self._table.code_memo(*self._columns, eps_sq, domain)
        if memo is None:
            return super().small_codes(eps_sq, domain)
        codes = memo.lookup(self.indices)
        return codes[codes >= 0]
