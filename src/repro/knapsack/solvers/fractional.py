"""Fractional (LP-relaxation) Knapsack.

Solved exactly by the greedy rule (Section 1.2): take items in
non-increasing efficiency order, then a fractional share of the first
item that does not fit.  The fractional optimum upper-bounds the 0/1
optimum, which is what the branch-and-bound solver prunes with and what
the 1/2-approximation's analysis compares against.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..instance import KnapsackInstance
from .greedy import greedy_order

__all__ = ["FractionalSolution", "fractional_optimum", "fractional_upper_bound"]


@dataclass(frozen=True)
class FractionalSolution:
    """Optimal fractional packing.

    ``full_indices`` are taken whole; ``fractional_index`` (if any) is
    taken with coefficient ``fraction`` in (0, 1).
    """

    full_indices: frozenset[int]
    fractional_index: int | None
    fraction: float
    value: float
    weight: float


def fractional_optimum(instance: KnapsackInstance) -> FractionalSolution:
    """Solve Fractional Knapsack exactly via the greedy rule."""
    order = greedy_order(instance)
    remaining = instance.capacity
    value = 0.0
    full: list[int] = []
    frac_idx: int | None = None
    fraction = 0.0
    for idx in order:
        i = int(idx)
        w = instance.weight(i)
        p = instance.profit(i)
        if w <= remaining + instance.slack:
            full.append(i)
            remaining -= w
            value += p
        else:
            if remaining > 0 and w > 0:
                fraction = remaining / w
                frac_idx = i
                value += p * fraction
                remaining = 0.0
            break
    weight = instance.capacity - remaining if frac_idx is not None else instance.weight_of(full)
    return FractionalSolution(
        full_indices=frozenset(full),
        fractional_index=frac_idx,
        fraction=fraction,
        value=value,
        weight=weight,
    )


def fractional_upper_bound(instance: KnapsackInstance) -> float:
    """Value of the fractional optimum (an upper bound on the 0/1 OPT)."""
    return fractional_optimum(instance).value
