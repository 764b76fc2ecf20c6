"""Per-item efficiency codes, memoized on the alias table they are drawn from.

Algorithm 2 (lines 5-10) hands rQuantile the *grid codes* of the small
items in its efficiency sample Q: ``domain.encode_many(efficiency_array(
p, w))`` for every draw with ``p <= eps^2``.  A draw's code is a pure
function of the item, ``eps^2`` and the domain, so only *which* items
were drawn is fresh per run (Def. 2.5); the arithmetic need not be.
:class:`CodeMemo` keeps one small-int column over the instance: each
row holds the item's code, :data:`LARGE` for ``p > eps^2``, or
:data:`UNENCODED` until some run first draws it.  A run encodes only
its still-unencoded rows, through the same rule
(:func:`encode_small`) a block computes its codes with, so every code
it reads equals the one it would have computed.

The memo costs 2 bytes per item for domains of at most ``2**15``
points (the calibrated 12-bit domain), wider only for larger domains.
It is filled lazily: an eager fill is O(n) set-up that warm queries
never use.
"""

from __future__ import annotations

import numpy as np

from ..knapsack.items import efficiency_array

__all__ = ["CodeMemo", "LARGE", "UNENCODED", "code_dtype", "encode_small"]

#: Row not yet encoded by any run.
UNENCODED = -1
#: Row of a large item (``profit > eps^2``): it never enters Q's codes.
LARGE = -2


def encode_small(profits, weights, eps_sq: float, domain, rows=None):
    """``(small, codes)`` for the rows of ``profits``/``weights``
    (all of them, or ``rows`` of them): ``small`` masks the rows with
    profit at most ``eps_sq`` and ``codes`` are
    ``domain.encode_many(efficiency_array(p, w))`` of those rows, in
    row order.  The one encoding rule both
    :meth:`~repro.access.blocks.SampleBlock.small_codes` and
    :class:`CodeMemo` use; weights are gathered for small rows only."""
    p = profits if rows is None else profits[rows]
    small = p <= eps_sq
    w = weights[small] if rows is None else weights[rows[small]]
    return small, domain.encode_many(efficiency_array(p[small], w))


def code_dtype(domain_size: int) -> np.dtype:
    """Narrowest signed dtype holding ``[0, domain_size)`` and the sentinels."""
    if domain_size <= 1 << 15:
        return np.dtype(np.int16)
    if domain_size <= 1 << 31:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


class CodeMemo:
    """Lazily filled efficiency codes of one instance under ``(eps^2, domain)``.

    ``profits`` and ``weights`` are the instance columns the codes are
    computed from; the owner (:meth:`~repro.access.weighted_sampler.
    AliasTable.code_memo`) hands out a memo only to callers drawing from
    those very arrays.
    """

    __slots__ = ("profits", "weights", "eps_sq", "domain", "codes")

    def __init__(
        self, profits: np.ndarray, weights: np.ndarray, eps_sq: float, domain
    ) -> None:
        self.profits = profits
        self.weights = weights
        self.eps_sq = eps_sq
        self.domain = domain
        self.codes = np.full(profits.size, UNENCODED, dtype=code_dtype(domain.size))

    def encode(self, rows: np.ndarray) -> np.ndarray:
        """Codes of ``rows`` computed from the columns (no memo read)."""
        small, codes = encode_small(
            self.profits, self.weights, self.eps_sq, self.domain, rows
        )
        out = np.full(rows.size, LARGE, dtype=self.codes.dtype)
        out[small] = codes
        return out

    def lookup(self, rows: np.ndarray) -> np.ndarray:
        """Codes of ``rows`` (:data:`LARGE` for large items), encoding and
        storing the rows no run has encoded yet."""
        codes = self.codes[rows]
        todo = np.flatnonzero(codes == UNENCODED)
        if todo.size == 0:
            return codes
        if todo.size == rows.size:  # nothing drawn was encoded yet
            todo_rows = rows
            codes = fresh = self.encode(rows)
        else:
            todo_rows = rows[todo]
            fresh = self.encode(todo_rows)
            codes[todo] = fresh
        # No lock: every writer stores encode(row), a pure function of
        # the row, so threads racing on one row write equal values.  A
        # reader sees either the sentinel, and encodes the row itself,
        # or the final code.
        self.codes[todo_rows] = fresh
        return codes
