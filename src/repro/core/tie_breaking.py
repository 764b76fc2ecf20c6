"""Extension: stochastic tie-breaking at the greedy cut (beyond the paper).

**The problem.**  CONVERT-GREEDY's decision rule is a pure efficiency
threshold: a small item is in C iff its efficiency is at least
``e_small``.  A threshold rule cannot include a *strict subset* of
items that share one efficiency value — so on efficiency-degenerate
instances (e.g. subset-sum-like, where every small item has efficiency
exactly 1) no equally partitioning sequence exists, the strict ``>``
comparisons collapse, and the solution degenerates to the large-item
component (see EXPERIMENTS.md, "degenerate families").

**The fix (not in the paper).**  The LCA has one more tool a threshold
does not use: per-item shared randomness.  ``hash(seed, i)`` is a
deterministic coin for item ``i`` that every run evaluates identically.
We include a *fraction* of the cut band:

* from the greedy run on I~, read off which band the cut landed in and
  the fraction ``f`` of that band's representatives the greedy packed;
* a queried small item whose efficiency falls in the cut band is
  included iff its per-item coin ``U_i = hash(seed, i) in [0,1)`` is
  below ``f``.

Consistency is inherited: the coin is seed-deterministic, and ``f`` and
the band are functions of I~, so two runs agree whenever their
pipelines agree — the same condition as for the base rule.  Feasibility
becomes *stochastic*: the included band weight concentrates around
``f * (band weight)``, which mirrors the greedy's allocation; with many
light items (the regime where degeneracy actually occurs) the overshoot
probability is tiny, and the harness measures it (bench E12).  This is
an engineering extension with empirical — not worst-case — guarantees,
which is exactly how it is labelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..access.seeds import SeedChain
from ..knapsack.items import efficiency, efficiency_array
from .convert_greedy import ConvertGreedyResult
from .simplified_instance import SimplifiedInstance

__all__ = ["TieBreakingRule", "derive_tie_breaking"]


@dataclass(frozen=True)
class TieBreakingRule:
    """The base decision rule plus fractional inclusion of the cut band.

    ``band_lo``/``band_hi`` bound the cut band's efficiency (inclusive
    below, exclusive above, with multiplicative tolerance already
    applied); ``fraction`` is the share of the band to include;
    ``seed`` drives the per-item coins.
    """

    base: ConvertGreedyResult
    band_lo: float
    band_hi: float
    fraction: float
    seed: SeedChain

    def coin(self, index: int) -> float:
        """Deterministic U[0,1) coin for item ``index`` (seed-shared)."""
        return self.seed.child("tie").child(index).uniform()

    def decide(self, profit: float, weight: float, original_index: int) -> bool:
        """Base rule, plus fractional inclusion inside the cut band."""
        if self.base.decide(profit, weight, original_index):
            return True
        if self.fraction <= 0.0:
            return False
        eps_sq = self.base.epsilon * self.base.epsilon
        if profit > eps_sq:
            return False  # large items are fully decided by the base rule
        eff = efficiency(profit, weight)
        if eff < eps_sq:
            return False  # garbage never enters
        if not (self.band_lo <= eff < self.band_hi):
            return False
        return self.coin(original_index) < self.fraction

    def decide_many(self, profits, weights, indices) -> np.ndarray | list[bool]:
        """Vectorized :meth:`decide`: base rule plus per-item coins.

        The base threshold is evaluated as one numpy pass; coins are
        then tossed only for the (typically few) items that land in the
        cut band, so the hot path stays vectorized outside the band.  A
        one-row input is answered by :meth:`decide` itself, as in
        :meth:`ConvertGreedyResult.decide_many`.
        """
        if len(indices) == 1:
            return [
                self.decide(float(profits[0]), float(weights[0]), int(indices[0]))
            ]
        p = np.asarray(profits, dtype=float)
        w = np.asarray(weights, dtype=float)
        idx = np.asarray(indices, dtype=np.int64)
        include = self.base.decide_many(p, w, idx)
        if self.fraction <= 0.0:
            return include
        eps_sq = self.base.epsilon * self.base.epsilon
        eff = efficiency_array(p, w)
        in_band = (
            ~include
            & (p <= eps_sq)
            & (eff >= eps_sq)
            & (eff >= self.band_lo)
            & (eff < self.band_hi)
        )
        for pos in np.nonzero(in_band)[0]:
            include[pos] = self.coin(int(idx[pos])) < self.fraction
        return include


def derive_tie_breaking(
    simplified: SimplifiedInstance,
    converted: ConvertGreedyResult,
    seed: SeedChain,
    *,
    band_mass_estimator=None,
    band_tolerance: float = 0.02,
) -> TieBreakingRule:
    """Derive the fractional rule from one pipeline's greedy run.

    Reads the greedy cut out of ``converted``'s diagnostics.  The *cut
    band* is defined by efficiency proximity (within ``band_tolerance``
    multiplicative) to the last included item — NOT by threshold index:
    on degenerate instances several EPS thresholds collapse onto one
    efficiency atom, and the whole atom must share one fate.

    The inclusion fraction is budgeted in **profit mass**: the greedy
    packed ``c`` cut-band representatives, i.e. ``c * eps^2`` of modeled
    band mass; the real band's profit mass is obtained by calling
    ``band_mass_estimator(lo, hi)`` (supplied by the LCA pipeline from
    its weighted sample; falls back to the modeled copy count when
    absent).  Including each band item with probability
    ``f = c * eps^2 / band_mass`` makes the expected included weight
    match the greedy's allocation, because weight = profit / efficiency
    and the band shares one efficiency.

    **Scope.**  The rule engages only when the base threshold produced
    *no* small items (``e_small is None``) even though the greedy packed
    small representatives — i.e. exactly the degenerate regime the
    extension exists for.  When ``e_small`` is set, the base rule's
    2-band back-off margin (Lemma 4.7's feasibility slack) is already
    partly consumed by the modeled-vs-real band-mass mismatch, and
    re-spending it fractionally was measured to overshoot the capacity
    on near-degenerate families (bench E12's development history); the
    marginal value there is small, so the extension stands down.

    Other corners that fall back to ``fraction = 0`` (the base rule):
    the singleton branch, an empty EPS, or a cut among large items.
    """
    base_rule = TieBreakingRule(
        base=converted, band_lo=math.inf, band_hi=math.inf, fraction=0.0, seed=seed
    )
    if converted.b_indicator or not simplified.eps_sequence:
        return base_rule
    if converted.e_small is not None:
        return base_rule
    items = simplified.items
    j = converted.j
    if j <= 0 or j > len(items):
        return base_rule
    cut_item = items[j - 1]
    if cut_item.kind != "small":
        return base_rule

    center = cut_item.efficiency
    lo = center * (1.0 - band_tolerance)
    hi = center * (1.0 + band_tolerance)

    def in_band(it) -> bool:
        return it.kind == "small" and lo <= it.efficiency < hi

    band_members = sum(1 for it in items if in_band(it))
    included = sum(1 for it in items[:j] if in_band(it))
    if band_members == 0 or included == 0:
        return base_rule

    eps_sq = simplified.epsilon * simplified.epsilon
    modeled_mass = band_members * eps_sq
    band_mass = None
    if band_mass_estimator is not None:
        band_mass = band_mass_estimator(lo, hi)
    if not band_mass or band_mass <= 0:
        band_mass = modeled_mass
    # The estimate can only *shrink* the fraction relative to the model:
    # under-estimated band mass would overshoot the weight budget.
    band_mass = max(band_mass, modeled_mass)
    # Safety factor: I~ models each band as exactly eps of profit, but a
    # real EPS band carries up to eps + eps^2 (Definition 4.3), plus
    # sampling noise; shave the fraction accordingly so the expected
    # included weight stays inside the greedy's allocation.
    safety = max(0.5, 1.0 - 2.0 * simplified.epsilon)
    fraction = min(1.0, safety * (included * eps_sq) / band_mass)
    return TieBreakingRule(
        base=converted, band_lo=lo, band_hi=hi, fraction=fraction, seed=seed
    )
