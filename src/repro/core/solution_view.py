"""A lazy view of the LCA's solution, including value estimation.

The whole point of an LCA is that the solution C is never written
down; :class:`SolutionView` packages the natural ways to *use* such a
virtual object:

* membership (``i in view``) — one stateless LCA run per query;
* sampling members — rejection-sample items and keep those in C;
* **value estimation** — a pleasant corollary of the weighted-sampling
  access model: since items are sampled with probability equal to their
  (normalized) profit,

      p(C) = sum_{i in C} p_i = Pr_{i ~ profits}[ i in C ],

  so the fraction of weighted samples whose item the LCA accepts is an
  unbiased estimator of the solution's value, with Hoeffding
  concentration in the number of membership queries.  This estimates
  the value of the LCA's *own* solution — complementary to the IKY
  estimator (:mod:`repro.iky`), which estimates OPT's value but answers
  no membership queries.

Because each membership check is a full stateless run, estimation cost
is (queries) x (per-run sample budget); the ``shared_run`` flag lets
callers amortize one pipeline across the whole estimate — legitimate
whenever the caller is a single process (the answers are a
deterministic function of the pipeline, so the output law is that of
one run).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..access.seeds import fresh_nonce
from ..analysis.stats import binomial_ci
from ..errors import ReproError
from .lca_kp import LCAKP

__all__ = ["ValueEstimateFromLCA", "SolutionView"]


@dataclass(frozen=True)
class ValueEstimateFromLCA:
    """Estimated p(C) with its confidence interval.

    ``nonce`` is the pipeline run the estimate measured (drawn from the
    caller's ``rng``), or None when every check was its own run.
    """

    estimate: float
    queries: int
    ci_low: float
    ci_high: float
    nonce: int | None = None

    def half_width(self) -> float:
        """Half the CI width (the +- error bar)."""
        return (self.ci_high - self.ci_low) / 2


class SolutionView:
    """Virtual access to the solution C behind an :class:`LCAKP`.

    Parameters
    ----------
    lca:
        The LCA providing membership answers.
    sampler:
        The weighted sampler over the same instance (used for member
        sampling and value estimation; may be the LCA's own sampler).
    shared_run:
        If true (default), one pipeline run is reused for all queries a
        single method call makes — the caller's prerogative discussed in
        :meth:`LCAKP.answer_many`.  If false, every membership check is
        an independent stateless run (slower; exercises consistency).
    """

    def __init__(self, lca: LCAKP, sampler, *, shared_run: bool = True) -> None:
        self._lca = lca
        self._sampler = sampler
        self._shared = shared_run

    # ------------------------------------------------------------------
    def __contains__(self, index: int) -> bool:
        return self._lca.answer(int(index)).include

    def membership(self, indices, *, nonce: int | None = None) -> list[bool]:
        """Membership for a batch of indices."""
        if self._shared:
            return [a.include for a in self._lca.answer_many(indices, nonce=nonce)]
        return [self._lca.answer(int(i)).include for i in indices]

    # ------------------------------------------------------------------
    def sample_members(
        self,
        k: int,
        rng: np.random.Generator,
        *,
        max_attempts_factor: int = 50,
    ) -> list[int]:
        """Sample up to ``k`` (profit-weighted) members of C.

        Rejection sampling: draw items proportionally to profit, keep
        those the LCA accepts.  The acceptance rate is exactly p(C), so
        the expected attempts are ``k / p(C)``; gives up (returning what
        it has) after ``max_attempts_factor * k`` attempts so an empty
        solution cannot loop forever.
        """
        if k < 1:
            raise ReproError(f"k must be >= 1, got {k}")
        pipeline = self._lca.run_pipeline(nonce=fresh_nonce()) if self._shared else None
        members: list[int] = []
        attempts = 0
        while len(members) < k and attempts < max_attempts_factor * k:
            attempts += 1
            s = self._sampler.sample(rng)
            if pipeline is not None:
                include = pipeline.rule.decide(s.profit, s.weight, s.index)
            else:
                include = self._lca.answer(s.index).include
            if include:
                members.append(s.index)
        return members

    # ------------------------------------------------------------------
    def estimate_value(
        self,
        queries: int,
        rng: np.random.Generator,
        *,
        confidence: float = 0.95,
    ) -> ValueEstimateFromLCA:
        """Unbiased estimate of p(C) from weighted samples + membership.

        ``queries`` membership checks give a binomial proportion whose
        mean is exactly p(C); the Wilson interval quantifies the error.
        The shared pipeline's nonce is drawn from ``rng`` too, so the
        same ``rng`` state gives the same estimate of the same C.
        """
        if queries < 1:
            raise ReproError(f"queries must be >= 1, got {queries}")
        nonce = int(rng.integers(2**63)) if self._shared else None
        pipeline = None if nonce is None else self._lca.run_pipeline(nonce=nonce)
        if pipeline is not None:
            # Shared-pipeline mode: one columnar block of draws, one
            # vectorized decision pass — no per-draw Python objects.
            block = self._sampler.sample_block(queries, rng)
            include = pipeline.rule.decide_many(
                block.profits, block.weights, block.indices
            )
            hits = int(np.count_nonzero(include))
        else:
            hits = 0
            for _ in range(queries):
                s = self._sampler.sample(rng)
                hits += int(self._lca.answer(s.index).include)
        lo, hi = binomial_ci(hits, queries, confidence)
        return ValueEstimateFromLCA(
            estimate=hits / queries,
            queries=queries,
            ci_low=lo,
            ci_high=hi,
            nonce=nonce,
        )
