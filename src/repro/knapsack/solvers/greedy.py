"""Greedy Knapsack algorithms and the classic 1/2-approximation.

These are the algorithms the paper's positive result is built on
(Section 1.2 "Knapsack", [WS11, Exercise 3.1]):

* :func:`greedy_order` — items sorted by non-increasing efficiency;
* :func:`prefix_greedy` — include items in that order, *stopping* at the
  first item that does not fit (the paper's greedy; its cut point
  defines the "efficiency cut-off" CONVERT-GREEDY extracts);
* :func:`skipping_greedy` — the variant that keeps scanning past items
  that do not fit (a strictly better packing, provided for comparison);
* :func:`half_approximation` — the better of the greedy prefix and the
  singleton consisting of the first item the prefix left out; guarantees
  value >= OPT/2.

Ties in efficiency are broken by ascending index so all algorithms are
deterministic.
"""

from __future__ import annotations

import numpy as np

from ..instance import KnapsackInstance
from .result import SolverResult

__all__ = [
    "greedy_order",
    "prefix_greedy",
    "skipping_greedy",
    "half_approximation",
]


def greedy_order(instance: KnapsackInstance) -> np.ndarray:
    """Item indices sorted by non-increasing efficiency (ties: by index).

    Zero-weight profitable items have infinite efficiency and therefore
    come first, matching the convention in :func:`repro.knapsack.items.efficiency`.
    """
    eff = instance.efficiencies()
    # np.argsort is stable with kind="stable"; sort on -eff so that equal
    # efficiencies keep ascending index order.
    order = np.argsort(-eff, kind="stable")
    return order


def prefix_greedy(instance: KnapsackInstance) -> SolverResult:
    """Greedy prefix: take items in efficiency order until one fails to fit.

    Returns the selected prefix; ``meta`` carries the greedy machinery the
    LCA needs:

    * ``order`` — the full greedy order;
    * ``cut_index`` — position (in the order) of the first item that did
      not fit, or ``len(order)`` if everything fit;
    * ``first_rejected`` — the instance index of that item, or ``None``;
    * ``cutoff_efficiency`` — the efficiency of the first rejected item
      (the paper's *efficiency cut-off*), or ``None``.
    """
    order = greedy_order(instance)
    remaining = instance.capacity
    chosen: list[int] = []
    cut_index = len(order)
    first_rejected: int | None = None
    for pos, idx in enumerate(order):
        w = instance.weight(int(idx))
        if w <= remaining + instance.slack:
            chosen.append(int(idx))
            remaining -= w
        else:
            cut_index = pos
            first_rejected = int(idx)
            break
    cutoff = instance.efficiency(first_rejected) if first_rejected is not None else None
    return SolverResult.from_indices(
        instance,
        chosen,
        solver="prefix_greedy",
        meta={
            "order": order.tolist(),
            "cut_index": cut_index,
            "first_rejected": first_rejected,
            "cutoff_efficiency": cutoff,
        },
    )


def skipping_greedy(instance: KnapsackInstance) -> SolverResult:
    """Greedy that skips non-fitting items instead of stopping.

    Always at least as good as :func:`prefix_greedy`; included as a
    baseline so benches can quantify how much the paper's simpler greedy
    leaves on the table.
    """
    order = greedy_order(instance)
    remaining = instance.capacity
    chosen: list[int] = []
    skipped = 0
    for idx in order:
        w = instance.weight(int(idx))
        if w <= remaining + instance.slack:
            chosen.append(int(idx))
            remaining -= w
        else:
            skipped += 1
    return SolverResult.from_indices(
        instance, chosen, solver="skipping_greedy", meta={"skipped": skipped}
    )


def half_approximation(instance: KnapsackInstance) -> SolverResult:
    """The classic 1/2-approximation: max(greedy prefix, first-rejected singleton).

    For every instance, the greedy prefix plus the first rejected item
    has value at least the fractional optimum, hence at least OPT; taking
    the better of the two parts therefore yields value >= OPT/2.  The
    ``meta`` records which branch won (``"prefix"`` or ``"singleton"``)
    — the same dichotomy CONVERT-GREEDY (Algorithm 3) resolves with its
    ``B_indicator`` flag.
    """
    prefix = prefix_greedy(instance)
    rejected = prefix.meta["first_rejected"]
    if rejected is None:
        return SolverResult.from_indices(
            instance,
            prefix.indices,
            solver="half_approximation",
            meta={**prefix.meta, "branch": "prefix"},
        )
    singleton_value = instance.profit(rejected)
    if prefix.value >= singleton_value:
        branch, indices = "prefix", prefix.indices
    else:
        branch, indices = "singleton", frozenset({rejected})
    return SolverResult.from_indices(
        instance,
        indices,
        solver="half_approximation",
        meta={**prefix.meta, "branch": branch},
    )
