"""Exact branch-and-bound Knapsack solver for real-valued data.

Depth-first branch and bound in greedy (efficiency) order with the
fractional-relaxation upper bound for pruning.  Works directly on float
profits/weights — unlike the DP solvers it needs no integrality — so it
is the reference "ground truth" for the approximation benches on
moderate instance sizes (hundreds of items for typical random families).

A node limit guards against adversarial instances where pruning is
ineffective; hitting the limit raises :class:`SolverError` rather than
silently returning a non-optimal answer.
"""

from __future__ import annotations

import numpy as np

from ...errors import SolverError
from ..instance import KnapsackInstance
from .greedy import greedy_order
from .result import SolverResult

__all__ = ["branch_and_bound"]


def branch_and_bound(
    instance: KnapsackInstance,
    *,
    node_limit: int = 5_000_000,
) -> SolverResult:
    """Solve Knapsack exactly; raises :class:`SolverError` past ``node_limit``.

    The search explores items in non-increasing efficiency order,
    branching include-first, and prunes a node whenever the fractional
    bound of its residual subproblem cannot beat the incumbent.
    """
    order = greedy_order(instance)
    profits = instance.profits[order]
    weights = instance.weights[order]
    capacity = instance.capacity
    slack = instance.slack
    n = instance.n

    # Suffix arrays for the fractional bound: from position k onward,
    # items are already efficiency-sorted, so the bound is a prefix walk.
    suffix_profit = np.concatenate([np.cumsum(profits[::-1])[::-1], [0.0]])
    suffix_weight = np.concatenate([np.cumsum(weights[::-1])[::-1], [0.0]])

    def fractional_bound(pos: int, remaining: float) -> float:
        """Fractional optimum of the subproblem on items order[pos:]."""
        if remaining <= 0:
            return 0.0
        if suffix_weight[pos] <= remaining:
            return float(suffix_profit[pos])
        bound = 0.0
        cap = remaining
        for k in range(pos, n):
            w = weights[k]
            if w <= cap:
                bound += profits[k]
                cap -= w
            else:
                if w > 0:
                    bound += profits[k] * (cap / w)
                break
        return float(bound)

    best_value = -1.0
    best_set: list[int] = []
    current: list[int] = []
    nodes = 0

    # Iterative DFS: stack of (pos, remaining, value, decision) where
    # decision marks whether we are entering (None) or backtracking.
    def dfs(pos: int, remaining: float, value: float) -> None:
        nonlocal best_value, best_set, nodes
        nodes += 1
        if nodes > node_limit:
            raise SolverError(
                f"branch_and_bound exceeded node limit {node_limit}; "
                "use fptas() or a smaller instance"
            )
        if value > best_value:
            best_value = value
            best_set = current.copy()
        if pos >= n:
            return
        if value + fractional_bound(pos, remaining) <= best_value + 1e-12:
            return
        w = weights[pos]
        # Include branch first (greedy order makes it the promising one).
        if w <= remaining + slack:
            current.append(pos)
            dfs(pos + 1, remaining - w, value + profits[pos])
            current.pop()
        dfs(pos + 1, remaining, value)

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, n * 2 + 100))
    try:
        dfs(0, capacity, 0.0)
    finally:
        sys.setrecursionlimit(old_limit)

    chosen = [int(order[k]) for k in best_set]
    return SolverResult.from_indices(
        instance,
        chosen,
        solver="branch_and_bound",
        exact=True,
        meta={"nodes": nodes},
    )
