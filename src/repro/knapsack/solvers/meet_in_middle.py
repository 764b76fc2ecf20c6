"""Exact meet-in-the-middle Knapsack solver.

Splits the item set in two halves, enumerates all subsets of each half
(O(2^(n/2)) time/space), prunes the second half's subsets to the Pareto
frontier (weight up, value up), and matches each first-half subset with
the best compatible second-half subset by binary search.

Exact on arbitrary real-valued data; practical to ~n = 40.  Used by the
test suite to cross-validate branch-and-bound and the DPs on small
random instances — three independent exact solvers catching each other's
bugs.
"""

from __future__ import annotations

import bisect
from itertools import combinations

from ...errors import SolverError
from ..instance import KnapsackInstance
from .result import SolverResult

__all__ = ["meet_in_middle"]

_MAX_N = 44


def _enumerate_half(instance: KnapsackInstance, indices: list[int]):
    """All (weight, value, subset-mask-as-tuple) triples for one half."""
    out = []
    for r in range(len(indices) + 1):
        for combo in combinations(indices, r):
            w = instance.weight_of(combo)
            if w <= instance.capacity + instance.slack:
                out.append((w, instance.profit_of(combo), combo))
    return out


def meet_in_middle(instance: KnapsackInstance) -> SolverResult:
    """Solve Knapsack exactly via meet-in-the-middle (n <= 44)."""
    n = instance.n
    if n > _MAX_N:
        raise SolverError(f"meet_in_middle supports n <= {_MAX_N}, got {n}")
    left = list(range(n // 2))
    right = list(range(n // 2, n))

    left_sets = _enumerate_half(instance, left)
    right_sets = _enumerate_half(instance, right)

    # Pareto-prune the right half: sort by weight, keep only entries with
    # strictly increasing value; then best value for weight <= x is a
    # prefix-max lookup.
    right_sets.sort(key=lambda t: (t[0], -t[1]))
    pareto: list[tuple[float, float, tuple]] = []
    best_value = -1.0
    for w, v, combo in right_sets:
        if v > best_value:
            pareto.append((w, v, combo))
            best_value = v
    pareto_weights = [t[0] for t in pareto]

    best = (-1.0, (), ())
    cap = instance.capacity
    for w, v, combo in left_sets:
        budget = cap - w + instance.slack
        pos = bisect.bisect_right(pareto_weights, budget) - 1
        if pos < 0:
            continue
        total = v + pareto[pos][1]
        if total > best[0]:
            best = (total, combo, pareto[pos][2])

    chosen = list(best[1]) + list(best[2])
    return SolverResult.from_indices(
        instance,
        chosen,
        solver="meet_in_middle",
        exact=True,
        meta={"left_subsets": len(left_sets), "right_pareto": len(pareto)},
    )
