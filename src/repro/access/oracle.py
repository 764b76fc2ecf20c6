"""Query-access oracle: the LCA model's window onto the instance.

Definition 2.2 gives the algorithm *query access* to the instance: ask
for item ``i``, learn ``(p_i, w_i)``.  :class:`QueryOracle` mediates all
such access, counting queries (the resource every theorem in the paper
is about) and optionally enforcing a hard budget — which is how the
lower-bound harness (Section 3) cuts off algorithms that read too much.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..errors import OracleError, QueryBudgetExceededError
from ..knapsack.instance import InstanceLike, KnapsackInstance
from ..knapsack.items import Item
from ..obs import runtime as _obs
from .blocks import SampleBlock

__all__ = ["QueryOracle", "FunctionInstance"]


class FunctionInstance:
    """An :class:`~repro.knapsack.InstanceLike` defined by callables.

    Used for implicitly-defined massive instances and for the
    lower-bound reductions, where item ``i`` of the simulated Knapsack
    instance is computed on demand from the underlying OR input
    (Figure 1) instead of being stored.
    """

    __slots__ = ("_n", "_capacity", "_profit_fn", "_weight_fn")

    def __init__(
        self,
        n: int,
        capacity: float,
        profit_fn: Callable[[int], float],
        weight_fn: Callable[[int], float],
    ) -> None:
        if n < 1:
            raise OracleError("FunctionInstance needs n >= 1")
        self._n = int(n)
        self._capacity = float(capacity)
        self._profit_fn = profit_fn
        self._weight_fn = weight_fn

    @property
    def n(self) -> int:
        """Number of items."""
        return self._n

    @property
    def capacity(self) -> float:
        """The weight limit K."""
        return self._capacity

    def profit(self, i: int) -> float:
        """Profit of item ``i`` (computed on demand)."""
        return float(self._profit_fn(i))

    def weight(self, i: int) -> float:
        """Weight of item ``i`` (computed on demand)."""
        return float(self._weight_fn(i))


class QueryOracle:
    """Counting (and optionally budgeted) query access to an instance.

    Parameters
    ----------
    instance:
        Anything satisfying :class:`~repro.knapsack.InstanceLike`.
    budget:
        Maximum number of queries; ``None`` means unlimited.  Exceeding
        the budget raises :class:`QueryBudgetExceededError`.

    Like the LCA it serves (Definitions 2.3-2.4), the oracle is
    stateless apart from its counter: it keeps no record of which
    indices were asked.  :class:`~repro.access.transcripts.RecordingOracle`
    is the one access object that keeps a transcript.
    """

    def __init__(self, instance: InstanceLike, *, budget: int | None = None) -> None:
        if budget is not None and budget < 0:
            raise OracleError(f"budget must be >= 0, got {budget}")
        self._instance = instance
        self._budget = budget
        self._queries = 0

    # ------------------------------------------------------------------
    # The query interface
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Instance size (known to the LCA: it is part of the problem)."""
        return self._instance.n

    @property
    def capacity(self) -> float:
        """The weight limit K (also known up front)."""
        return self._instance.capacity

    def query(self, i: int) -> Item:
        """Reveal item ``i``; counts against the budget."""
        if not 0 <= i < self._instance.n:
            raise OracleError(f"query index {i} out of range [0, {self._instance.n})")
        self._charge()
        return Item(self._instance.profit(i), self._instance.weight(i))

    def query_many(self, indices) -> list[Item]:
        """Reveal a batch of items (charged per :meth:`query` semantics).

        Budget and bounds enforcement behave exactly as if :meth:`query`
        were called once per index, in order; the batch form exists so
        callers on the serving hot path have one charging point per
        batch instead of a Python-level loop in their own code.
        """
        return [self.query(int(i)) for i in indices]

    def query_block(self, indices) -> SampleBlock:
        """Reveal a batch of items as one columnar :class:`SampleBlock`.

        Semantically identical to :meth:`query_many` — same budget and
        bounds enforcement, and one cost unit per query — but the
        revealed attributes come back as parallel numpy columns with a
        *single* accounting call for the whole block.  The fast path
        engages for array-backed instances when every index is in range
        and the budget has room for the entire batch; otherwise
        :meth:`_query_each` runs the per-query loop (preserving the
        exact partial-charge-then-raise behaviour).
        """
        idx = [int(i) for i in indices]
        remaining = self.remaining
        fast = (
            (remaining is None or remaining >= len(idx))
            and isinstance(self._instance, KnapsackInstance)
            and (not idx or (min(idx) >= 0 and max(idx) < self._instance.n))
        )
        if not fast:
            return self._query_each(idx)
        self._queries += len(idx)
        _obs.record_oracle_queries(len(idx))
        arr = np.asarray(idx, dtype=np.int64)
        profits = self._instance.profits[arr]
        weights = self._instance.weights[arr]
        return SampleBlock(arr, profits, weights)

    def _query_each(self, idx: list[int]) -> SampleBlock:
        """One :meth:`query` per index, assembled into a block.

        Charges (and raises) exactly as :meth:`query_many` does,
        including partial charging before a mid-batch error.
        """
        items = [self.query(i) for i in idx]
        return SampleBlock(
            idx,
            [it.profit for it in items],
            [it.weight for it in items],
        )

    def profit(self, i: int) -> float:
        """Convenience: profit component of :meth:`query`."""
        return self.query(i).profit

    def weight(self, i: int) -> float:
        """Convenience: weight component of :meth:`query`."""
        return self.query(i).weight

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def queries_used(self) -> int:
        """Number of (charged) queries so far."""
        return self._queries

    @property
    def cost_counter(self) -> int:
        """Uniform :class:`~repro.access.cost.CostMeter` face of
        :attr:`queries_used` — one cost unit per charged query."""
        return self._queries

    @property
    def budget(self) -> int | None:
        """The budget, or ``None`` when unlimited."""
        return self._budget

    @property
    def remaining(self) -> int | None:
        """Queries left, or ``None`` when unlimited."""
        if self._budget is None:
            return None
        return self._budget - self._queries

    def reset(self) -> None:
        """Zero the query counter (a fresh stateless run)."""
        self._queries = 0

    def _charge(self) -> None:
        if self._budget is not None and self._queries >= self._budget:
            raise QueryBudgetExceededError(self._budget, self._queries + 1)
        self._queries += 1
        _obs.record_oracle_queries(1)
