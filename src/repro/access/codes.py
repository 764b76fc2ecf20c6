"""Per-item efficiency codes, memoized on the alias table they are drawn from.

Algorithm 2 (lines 5-10) hands rQuantile the *grid codes* of the small
items in its efficiency sample Q: ``domain.encode_many(efficiency_array(
p, w))`` for every draw with ``p <= eps^2``.  rQuantile depends only on
the multiset of those codes, never on their draw order, so a block hands
it their :class:`CodeCounts`: the distinct codes drawn, ascending, and
how often each was drawn.

A draw's code is a pure function of the item, ``eps^2`` and the domain,
so only *which* items were drawn is fresh per run (Def. 2.5); the
arithmetic need not be.  :class:`CodeMemo` keeps one small-int column
over the instance: each row holds the item's code, :data:`LARGE` for
``p > eps^2``, or :data:`UNENCODED` until some run first draws it.  A
run encodes only its still-unencoded rows, through the same rule
(:func:`encode_small`) a block computes its codes with, so every code
it counts equals the one it would have computed.

The memo costs 2 bytes per item for domains of at most ``2**15``
points (the calibrated 12-bit domain), wider only for larger domains.
It is filled lazily: an eager fill is O(n) set-up that warm queries
never use.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..knapsack.items import efficiency_array

__all__ = [
    "CodeCounts",
    "CodeMemo",
    "DENSE_MAX_POINTS",
    "LARGE",
    "UNENCODED",
    "code_dtype",
    "count_codes",
    "encode_small",
]

#: Row not yet encoded by any run.
UNENCODED = -1
#: Row of a large item (``profit > eps^2``): it never enters Q's codes.
LARGE = -2

#: Widest domain whose codes are counted into a dense ``np.bincount``
#: histogram; wider domains (``bits`` goes up to 62) count by
#: ``np.unique``.
DENSE_MAX_POINTS = 1 << 16


class CodeCounts(NamedTuple):
    """A multiset of grid codes as its sorted support: ``values`` holds
    the distinct codes, ascending, and ``counts[j]`` (at least 1) how
    many times ``values[j]`` occurs.  Both are int64."""

    values: np.ndarray
    counts: np.ndarray

    @property
    def total(self) -> int:
        """Size of the multiset."""
        return int(self.counts.sum())

    @classmethod
    def from_histogram(cls, hist: np.ndarray) -> "CodeCounts":
        """The support of a dense histogram (``hist[c]`` draws of code ``c``)."""
        values = np.flatnonzero(hist)
        return cls(values, hist[values].astype(np.int64, copy=False))


def count_codes(codes: np.ndarray, domain_size: int) -> CodeCounts:
    """:class:`CodeCounts` of integer ``codes`` in ``[0, domain_size)``:
    through a dense ``np.bincount`` for domains of at most
    :data:`DENSE_MAX_POINTS` points, through ``np.unique`` for wider
    ones.  Both give the same arrays."""
    if domain_size <= DENSE_MAX_POINTS:
        return CodeCounts.from_histogram(np.bincount(codes, minlength=domain_size))
    values, counts = np.unique(codes, return_counts=True)
    return CodeCounts(
        values.astype(np.int64, copy=False), counts.astype(np.int64, copy=False)
    )


def encode_small(profits, weights, eps_sq: float, domain, rows=None):
    """``(small, codes)`` for the rows of ``profits``/``weights``
    (all of them, or ``rows`` of them): ``small`` lists the positions
    of the rows with profit at most ``eps_sq`` and ``codes`` are
    ``domain.encode_many(efficiency_array(p, w))`` of those rows, in
    row order, as :func:`code_dtype` integers.  The one encoding rule
    both :meth:`~repro.access.blocks.SampleBlock.small_code_counts` and
    :class:`CodeMemo` use; weights are gathered for small rows only.

    The rows are selected by position: the small/large mask is mixed,
    and numpy gathers through a mixed boolean mask several times
    slower than through its position list."""
    p = profits if rows is None else profits[rows]
    small = np.flatnonzero(p <= eps_sq)
    w = weights[small] if rows is None else weights[rows[small]]
    codes = domain.encode_many(efficiency_array(p[small], w))
    return small, codes.astype(code_dtype(domain.size), copy=False)


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

    def fill(self, rows: np.ndarray) -> np.ndarray:
        """Encode ``rows`` (:data:`LARGE` for large items), store their
        codes in the memo and return them."""
        codes = self.encode(rows)
        # No lock: every writer stores encode(row), a pure function of
        # the row, so threads racing on one row write equal values.  A
        # reader sees either the sentinel, and encodes the row itself,
        # or the final code.
        self.codes[rows] = codes
        return codes
