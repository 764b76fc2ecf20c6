"""Fully polynomial-time approximation scheme (FPTAS) for Knapsack.

The classic profit-rounding FPTAS ([WS11, Section 3.2], which the paper
cites in its footnote 5 as the alternative route to a finite efficiency
domain): round each profit down to a multiple of mu = eps * P_max / n,
run the exact profit-indexed DP on the rounded instance, and return that
solution evaluated on the *original* profits.  Guarantees value
>= (1 - eps) * OPT in O(n^3 / eps) time.
"""

from __future__ import annotations

import numpy as np

from ...errors import SolverError
from ..instance import KnapsackInstance
from .exact_dp import dp_by_profit
from .result import SolverResult

__all__ = ["fptas"]


def fptas(instance: KnapsackInstance, epsilon: float = 0.1) -> SolverResult:
    """Return a (1 - epsilon)-approximate solution.

    ``meta`` records the rounding unit ``mu`` and the DP size, so benches
    can report the accuracy/work trade-off.
    """
    if not 0 < epsilon < 1:
        raise SolverError(f"epsilon must lie in (0, 1), got {epsilon}")
    n = instance.n
    # Only items that fit at all can be in any solution; the largest
    # fitting profit calibrates the rounding unit.
    fitting = np.nonzero(instance.weights <= instance.capacity + instance.slack)[0]
    if fitting.size == 0:
        return SolverResult.from_indices(
            instance, (), solver="fptas", meta={"mu": 0.0, "epsilon": epsilon}
        )
    p_max = float(instance.profits[fitting].max())
    if p_max <= 0:
        return SolverResult.from_indices(
            instance, (), solver="fptas", meta={"mu": 0.0, "epsilon": epsilon}
        )
    mu = epsilon * p_max / n

    rounded = np.floor(instance.profits / mu)
    # Build a scaled instance whose profits are the integers floor(p/mu).
    # Items rounded to zero profit can be dropped from the DP outright.
    scaled = KnapsackInstance(
        rounded,
        instance.weights,
        instance.capacity,
        normalize=False,
        validate=False,
    )
    result = dp_by_profit(scaled, profit_scale=1.0)
    return SolverResult.from_indices(
        instance,
        result.indices,
        solver="fptas",
        meta={
            "mu": mu,
            "epsilon": epsilon,
            "scaled_value": result.meta.get("scaled_value"),
            "table_cells": result.meta.get("table_cells"),
        },
    )
