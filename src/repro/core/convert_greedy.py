"""CONVERT-GREEDY (Algorithm 3): greedy on I~, exported as a decision rule.

Running the classic 1/2-approximation on the simplified instance I~
yields either a greedy prefix or a singleton.  CONVERT-GREEDY distills
that outcome into three values that suffice to answer *any* membership
query about the original instance:

* ``index_large`` — original indices of large items in the solution;
* ``e_small``     — efficiency threshold for small items (the paper's
  ``e_{k-2}`` back-off; ``None`` encodes the paper's ``-1`` sentinel);
* ``b_indicator`` — True when the singleton branch won (then no small
  item is included).

The derived :meth:`ConvertGreedyResult.decide` is the pure decision
rule LCA-KP lines 20-24 apply per query, and MAPPING-GREEDY applies to
every item at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..knapsack.items import efficiency, efficiency_array
from ..obs import runtime as _obs
from .simplified_instance import SimplifiedInstance

__all__ = ["ConvertGreedyResult", "convert_greedy"]


@dataclass(frozen=True)
class ConvertGreedyResult:
    """Output of CONVERT-GREEDY plus diagnostics.

    ``e_small is None`` encodes the paper's ``e_small = -1``.
    ``anomaly`` flags the measure-zero corner where the singleton branch
    selected a constructed small representative (which has no original
    index); the result then answers according to the empty small-set,
    documented in DESIGN.md.
    """

    epsilon: float
    index_large: frozenset[int]
    e_small: float | None
    b_indicator: bool
    # Diagnostics (1-based positions, matching the paper's indexing):
    j: int
    k: int
    cut_efficiency: float
    greedy_profit: float
    greedy_weight: float
    anomaly: str | None = None

    def decide(self, profit: float, weight: float, original_index: int) -> bool:
        """Membership rule of LCA-KP lines 20-24 for one original item.

        * members of ``index_large``: yes unconditionally.  (Under the
          paper's coupon mode these are exactly sampled items with
          ``p > eps^2``; under the heavy-hitters extension a borderline
          item just below ``eps^2`` can be promoted by the shared
          randomized cutoff, and its membership must stay authoritative
          so that the decision rule matches the I~ the greedy ran on.)
        * other large items (``p > eps^2``): no;
        * small items (``p <= eps^2``, efficiency >= ``eps^2``): yes iff
          the greedy branch won and efficiency >= ``e_small``;
        * garbage items: no.  (Algorithm 2's literal line 22 omits this
          guard because ``e_small >= eps^2`` holds for valid EPS; we add
          it so the rule coincides with MAPPING-GREEDY's restriction to
          S(I) even on degenerate estimated sequences.)
        """
        eps_sq = self.epsilon * self.epsilon
        if original_index in self.index_large:
            return True
        if profit > eps_sq:
            return False
        if self.b_indicator or self.e_small is None:
            return False
        eff = efficiency(profit, weight)
        return eff >= eps_sq and eff >= self.e_small

    def decide_many(self, profits, weights, indices) -> np.ndarray | list[bool]:
        """Vectorized :meth:`decide` over parallel arrays.

        Returns a boolean sequence; element ``k`` equals
        ``decide(profits[k], weights[k], indices[k])`` exactly — the
        serving hot path depends on bit-identity with the scalar rule.
        A one-row input is answered by :meth:`decide` itself (a list),
        which skips the numpy set-up a single item does not amortize.
        """
        if len(indices) == 1:
            return [
                self.decide(float(profits[0]), float(weights[0]), int(indices[0]))
            ]
        p = np.asarray(profits, dtype=float)
        w = np.asarray(weights, dtype=float)
        idx = np.asarray(indices, dtype=np.int64)
        eps_sq = self.epsilon * self.epsilon
        large = self.sorted_large()
        if large.size:
            pos = np.searchsorted(large, idx)
            include = large.take(pos, mode="clip") == idx
        else:
            include = np.zeros(idx.shape, dtype=bool)
        if not self.b_indicator and self.e_small is not None:
            eff = efficiency_array(p, w)
            include |= (
                ~include
                & (p <= eps_sq)
                & (eff >= eps_sq)
                & (eff >= self.e_small)
            )
        return include

    def sorted_large(self) -> np.ndarray:
        """``index_large`` as a sorted int64 array, built once per rule.

        Memoized on this (frozen) object like
        :meth:`~repro.core.lca_kp.PipelineResult.summary`: the memo is
        not a field, so ``==``, ``repr`` and pickles ignore it.  Threads
        racing to fill it compute equal arrays, so no lock.
        """
        large = self.__dict__.get("_sorted_large")
        if large is None:
            large = np.array(sorted(self.index_large), dtype=np.int64)
            large.setflags(write=False)
            object.__setattr__(self, "_sorted_large", large)
        return large

    def __getstate__(self) -> dict:
        # Pickle the fields only: a rule that has served answers pickles
        # to the same bytes as a fresh one.
        state = dict(self.__dict__)
        state.pop("_sorted_large", None)
        return state


def convert_greedy(simplified: SimplifiedInstance) -> ConvertGreedyResult:
    """Run Algorithm 3 on a built simplified instance.

    Follows the paper's lines with the corner cases made explicit:

    * ``j = 0`` (nothing fits — possible when a constructed small
      representative outweighs K): the cut efficiency is +inf, ``k = 0``
      and the singleton comparison is against a sum of zero.
    * No ``k`` with ``e_k > p_j / w_j``: ``k = 0``, hence
      ``e_small = -1`` (no small items make the solution).
    """
    with _obs.span("convert.greedy"):
        return _convert_greedy(simplified)


def _convert_greedy(simplified: SimplifiedInstance) -> ConvertGreedyResult:
    items = simplified.items
    thresholds = simplified.eps_sequence
    capacity = simplified.capacity
    epsilon = simplified.epsilon

    # Line 2: largest prefix that fits.
    j = 0
    weight_sum = 0.0
    profit_sum = 0.0
    for it in items:
        if weight_sum + it.weight <= capacity + 1e-12:
            weight_sum += it.weight
            profit_sum += it.profit
            j += 1
        else:
            break

    cut_eff = items[j - 1].efficiency if j >= 1 else math.inf

    # Line 3: largest 1-based k with e_k > p_j / w_j.
    k = 0
    for pos, e in enumerate(thresholds, start=1):
        if e > cut_eff:
            k = pos
        else:
            break

    # Line 4: greedy prefix wins if everything fit or it beats the
    # first rejected item.
    if j == len(items) or profit_sum >= items[j].profit:
        index_large = frozenset(
            it.ref for it in items[:j] if it.kind == "large"
        )
        # Degeneracy guard (beyond the paper's literal text, within its
        # logic): a *duplicated* threshold means one efficiency atom
        # swallowed several EPS bands, i.e. the band above e_small can
        # carry ~eps of real profit per duplicate that I~ does not
        # model.  The paper's k-2 back-off budgets ~2 bands of slack
        # for feasibility (Lemma 4.7); each duplicate above the cut
        # consumes one band of it, so we back off one extra band per
        # duplicate.  On non-degenerate instances duplicates are rare
        # and this is a no-op.
        duplicates = sum(
            1 for i in range(1, k) if thresholds[i] == thresholds[i - 1]
        )
        back = k - 3 - duplicates  # 0-based index of the paper's e_{k-2}
        if k >= 3 and back >= 0:
            e_small: float | None = thresholds[back]
        else:
            e_small = None
        return ConvertGreedyResult(
            epsilon=epsilon,
            index_large=index_large,
            e_small=e_small,
            b_indicator=False,
            j=j,
            k=k,
            cut_efficiency=cut_eff,
            greedy_profit=profit_sum,
            greedy_weight=weight_sum,
        )

    # Lines 11-13: the singleton branch.
    rejected = items[j]
    if rejected.kind == "large":
        index_large = frozenset({rejected.ref})
        anomaly = None
    else:
        # A small representative with profit above the whole prefix can
        # only arise from a degenerate estimated EPS; fall back to the
        # empty solution for small items and record the anomaly.
        index_large = frozenset()
        anomaly = "singleton-branch-selected-small-representative"
    return ConvertGreedyResult(
        epsilon=epsilon,
        index_large=index_large,
        e_small=None,
        b_indicator=True,
        j=j,
        k=k,
        cut_efficiency=cut_eff,
        greedy_profit=rejected.profit,
        greedy_weight=rejected.weight,
        anomaly=anomaly,
    )
