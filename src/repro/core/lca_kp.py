"""LCA-KP (Algorithm 2): the paper's Local Computation Algorithm.

Given weighted-sampling access to a Knapsack instance, a per-item query
access (to reveal the queried item itself), the accuracy parameter
epsilon and a shared read-only seed, :class:`LCAKP` answers "is item i
in the solution?" consistently with a single ``(1/2, 6 eps)``-
approximate feasible solution C — with high probability, across
arbitrarily many *stateless* runs.

Statelessness is structural: :meth:`LCAKP.answer` rebuilds everything
from scratch on every call.  Each run draws *fresh* samples (nonce-
derived randomness) but shares the internal random string (the bare
seed) with every other run, exactly the (s1, s2; r) split of
Definition 2.5.  Consistency then rests on the pipeline being
reproducible: fresh samples, same seed => same simplified instance I~
=> same decision rule, w.h.p.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..access.cost import ensure_cost_meter
from ..access.oracle import QueryOracle
from ..access.seeds import SeedChain, fresh_nonce
from ..errors import ReproError
from ..knapsack.items import Item, efficiency_array
from ..obs import runtime as _obs
from ..reproducible.rquantile import ReproducibleQuantileEstimator
from .convert_greedy import ConvertGreedyResult, convert_greedy
from .parameters import LCAParameters
from .simplified_instance import SimplifiedInstance, build_simplified_instance
from .tie_breaking import TieBreakingRule, derive_tie_breaking

__all__ = ["LCAAnswer", "PipelineResult", "RunSummary", "LCAKP"]


@dataclass(frozen=True)
class PipelineResult:
    """Everything one stateless run derives before answering queries."""

    p_large: float
    large_items: dict[int, tuple[float, float]]
    eps_sequence: tuple[float, ...]
    simplified: SimplifiedInstance
    converted: ConvertGreedyResult
    samples_used: int
    small_sample_size: int
    tie_rule: "TieBreakingRule | None" = None
    nonce: int | None = None

    @property
    def rule(self):
        """The decision rule in force: tie-breaking extension or base."""
        return self.tie_rule if self.tie_rule is not None else self.converted

    def signature(self) -> tuple:
        """Identity of the run's derived state; equal signatures imply
        identical answers to every possible query."""
        sig = self.simplified.signature()
        if self.tie_rule is None:
            return sig
        return sig + (self.tie_rule.band_lo, self.tie_rule.band_hi, self.tie_rule.fraction)

    def signature_hash(self) -> str:
        """Short stable hex digest of :meth:`signature` (hash-seed
        independent, unlike ``hash()`` on a tuple containing strings)."""
        h = hashlib.sha256(repr(self.signature()).encode("utf-8"))
        return h.hexdigest()[:16]

    def summary(self) -> "RunSummary":
        """The lightweight cross-process face of this run, computed once.

        Hashing I~ costs O(|I~|), so the first call memoizes the result
        on this (frozen) object and every warm answer reuses it.  The
        memo is not a field: ``==``, ``repr`` and pickles ignore it, and
        ``dataclasses.replace`` builds a new object with a fresh memo.
        Threads racing to fill it compute equal values, so no lock.
        """
        summary = self.__dict__.get("_summary")
        if summary is None:
            summary = RunSummary(
                p_large=self.p_large,
                samples_used=self.samples_used,
                small_sample_size=self.small_sample_size,
                num_large=len(self.large_items),
                num_thresholds=len(self.eps_sequence),
                signature_hash=self.signature_hash(),
                tie_breaking=self.tie_rule is not None,
                nonce=self.nonce,
            )
            object.__setattr__(self, "_summary", summary)
        return summary

    def __getstate__(self) -> dict:
        # Pickle the fields only: a memoized pipeline pickles to the
        # same bytes as a fresh one, and its copy recomputes the memo.
        state = dict(self.__dict__)
        state.pop("_summary", None)
        return state


@dataclass(frozen=True)
class RunSummary:
    """Lightweight summary of one pipeline run, computed once per run.

    :meth:`PipelineResult.summary` builds it on first use and every
    answer from that pipeline shares the same object.  This is what an
    :class:`LCAAnswer` carries instead of the full
    :class:`PipelineResult`: a handful of scalars that (a) identify the
    run — ``signature_hash`` equality implies identical answers to every
    query, ``nonce`` replays it — and (b) account for it (``p_large``,
    ``samples_used``).  Cheap to pickle, so answers cross process
    boundaries without dragging the simplified instance along.
    """

    p_large: float
    samples_used: int
    small_sample_size: int
    num_large: int
    num_thresholds: int
    signature_hash: str
    tie_breaking: bool
    nonce: int | None


@dataclass(frozen=True)
class LCAAnswer:
    """Answer to one LCA query, with lightweight run provenance.

    ``run`` summarizes the pipeline execution that produced the answer;
    callers that need the full derived state (the simplified instance,
    the decision rule) should call :meth:`LCAKP.run_pipeline` themselves
    and use :meth:`LCAKP.answers_from` — answers stay cheap to ship
    between processes.
    """

    index: int
    include: bool
    item: Item
    reason: str
    run: RunSummary


class LCAKP:
    """The paper's LCA for Knapsack under weighted sampling access.

    Parameters
    ----------
    sampler:
        Weighted-sampling access (:class:`~repro.access.WeightedSampler`
        or :class:`~repro.access.CustomSampler`).
    oracle:
        Plain query access, used for exactly one query per answer: the
        queried item's own (p, w).
    epsilon:
        Accuracy parameter; the solution is (1/2, 6 eps)-approximate.
    seed:
        The shared read-only random string r (int or
        :class:`~repro.access.SeedChain`).  All runs that should be
        mutually consistent must use the same seed.
    params:
        Optional :class:`~repro.core.parameters.LCAParameters` override;
        defaults to ``LCAParameters.calibrated(epsilon)``.
    tie_breaking:
        Opt-in extension (NOT in the paper; see
        :mod:`repro.core.tie_breaking`): fractionally include the cut
        efficiency band via per-item shared-seed coins, recovering
        non-trivial solutions on efficiency-degenerate instances at the
        cost of stochastic (empirically validated) feasibility.
    large_item_mode:
        How the large-item set is extracted from the sample R:

        * ``"coupon"`` (the paper's Algorithm 2 lines 2-3): keep every
          sampled item with profit > eps^2.  Items with profit just
          above eps^2 are then kept or missed by sampling luck, which
          is a (rare) cross-run inconsistency source;
        * ``"heavy_hitters"``: run the reproducible heavy-hitters
          primitive (:mod:`repro.reproducible.heavy_hitters`) on the
          sampled indices with a seed-randomized profit cutoff around
          eps^2.  **Measured to be worse than coupon mode** at
          practical sample sizes (ablation E13): resolving frequencies
          at eps^2 granularity needs astronomically more samples than
          detecting presence, which is exactly why the paper routes
          identity discovery through coupon collection.  Kept as an
          instructive §5-spirit ablation, not a recommendation.
    """

    def __init__(
        self,
        sampler,
        oracle: QueryOracle,
        epsilon: float,
        seed: int | SeedChain,
        *,
        params: LCAParameters | None = None,
        tie_breaking: bool = False,
        large_item_mode: str = "coupon",
    ) -> None:
        if not 0 < epsilon <= 1:
            raise ReproError(f"epsilon must lie in (0, 1], got {epsilon}")
        ensure_cost_meter(sampler, "sampler")
        ensure_cost_meter(oracle, "oracle")
        self._sampler = sampler
        self._oracle = oracle
        self._epsilon = epsilon
        self._seed = seed if isinstance(seed, SeedChain) else SeedChain(seed)
        self._params = params or LCAParameters.calibrated(epsilon)
        self._tie_breaking = bool(tie_breaking)
        if large_item_mode not in ("coupon", "heavy_hitters"):
            raise ReproError(
                f"large_item_mode must be 'coupon' or 'heavy_hitters', got {large_item_mode!r}"
            )
        self._large_item_mode = large_item_mode
        if abs(self._params.epsilon - epsilon) > 1e-12:
            raise ReproError(
                f"params were built for epsilon={self._params.epsilon}, "
                f"but the LCA was given epsilon={epsilon}"
            )

    # ------------------------------------------------------------------
    @property
    def epsilon(self) -> float:
        """The accuracy parameter."""
        return self._epsilon

    @property
    def params(self) -> LCAParameters:
        """The static parameters in force."""
        return self._params

    @property
    def seed(self) -> SeedChain:
        """The shared random string r."""
        return self._seed

    # ------------------------------------------------------------------
    def run_pipeline(self, *, nonce: int | None = None) -> PipelineResult:
        """One full stateless run of Algorithm 2 lines 1-19.

        ``nonce`` seeds this run's *fresh* sampling randomness; omit it
        for OS entropy (the production behaviour), pass a fixed value to
        make a run replayable in tests.  The nonce actually used (drawn
        from OS entropy when omitted) is recorded on the result, so any
        run can be replayed or cache-keyed after the fact.
        """
        resolved = int(nonce) if nonce is not None else fresh_nonce()
        with _obs.span("lca.pipeline"):
            return self._run_pipeline(nonce=resolved)

    def _run_pipeline(self, *, nonce: int) -> PipelineResult:
        params = self._params
        eps = self._epsilon
        eps_sq = params.eps_sq
        rng = self._seed.run_stream(nonce).rng()
        samples_before = self._sampler.cost_counter

        # Lines 1-3: sample R, keep large items, deduplicate.  The block
        # is consumed columnar: a boolean profit mask, then np.unique
        # first-occurrence dedup ordered by draw position — the same
        # first-sample-wins semantics as the original per-object loop
        # (and the same Python-float summation order for p_large, which
        # the bit-identity guarantee of the equivalence test relies on).
        with _obs.span("sample.large"):
            r_block = self._sampler.sample_block(params.m_large, rng)
            large: dict[int, tuple[float, float]] = {}
            if self._large_item_mode == "heavy_hitters":
                # Extension: the sampled index stream has per-index frequency
                # equal to the item's (normalized) profit, so reproducible
                # heavy hitters at theta = eps^2 recover L(I) with a shared
                # randomized cutoff deciding borderline profits consistently.
                from ..reproducible.heavy_hitters import reproducible_heavy_hitters

                idx_list = r_block.indices.tolist()
                attributes = {
                    i: (p, w)
                    for i, p, w in zip(
                        idx_list, r_block.profits.tolist(), r_block.weights.tolist()
                    )
                }
                hh = reproducible_heavy_hitters(
                    idx_list,
                    theta=eps_sq,
                    seed=self._seed.child("large-heavy-hitters"),
                    tau=eps_sq / 4,
                )
                large = {i: attributes[i] for i in hh.items}
            else:
                mask = r_block.profits > eps_sq
                cand = r_block.indices[mask]
                uniq, first = np.unique(cand, return_index=True)
                order = np.argsort(first, kind="stable")
                keep = first[order]
                large = {
                    int(i): (float(p), float(w))
                    for i, p, w in zip(
                        uniq[order],
                        r_block.profits[mask][keep],
                        r_block.weights[mask][keep],
                    )
                }
            p_large = min(sum(p for p, _ in large.values()), 1.0)

        # Lines 4-17: estimate the EPS when enough mass sits outside L.
        # Q's small draws reach rQuantile as grid codes; the block reads
        # them from the sampler's per-item memo when it has one, so only
        # the draw itself is fresh work per run.
        eps_sequence: tuple[float, ...] = ()
        small_sample_size = 0
        q_block = None
        total_q_draws = 0
        if 1.0 - p_large >= eps:
            with _obs.span("eps.estimate"):
                run = params.per_run(p_large)
                q_block = self._sampler.sample_block(run.a, rng)
                total_q_draws = run.a
                codes = q_block.small_codes(eps_sq, params.domain)
                small_sample_size = int(codes.size)
                if small_sample_size > 0 and run.t > 0:
                    estimator = ReproducibleQuantileEstimator(
                        domain=params.domain,
                        tau=params.tau,
                        rho=params.rho,
                        beta=params.beta,
                    )
                    # All t descents share the sample array, so they run
                    # batched (one sort, one searchsorted per grid
                    # level) — bit-identical to per-k quantile() calls.
                    targets = [
                        min(max(1.0 - k * run.q, 0.0), 1.0)
                        for k in range(1, run.t + 1)
                    ]
                    nodes = [
                        self._seed.child("rquantile").child(k)
                        for k in range(1, run.t + 1)
                    ]
                    raw = estimator.quantiles(codes, targets, nodes)
                    thresholds: list[float] = []
                    for e_k in raw:
                        e_k = float(e_k)
                        if thresholds:
                            e_k = min(e_k, thresholds[-1])  # enforce monotonicity
                        thresholds.append(e_k)
                    # Lines 11-14: drop a final threshold below eps^2.
                    if thresholds and thresholds[-1] < eps_sq:
                        thresholds.pop()
                    eps_sequence = tuple(thresholds)

        # Lines 18-19: build I~ and convert its greedy solution.
        simplified = build_simplified_instance(
            large, eps_sequence, eps, self._sampler.capacity
        )
        converted = convert_greedy(simplified)
        tie_rule = None
        if self._tie_breaking:

            def band_mass(lo: float, hi: float) -> float | None:
                if total_q_draws == 0 or small_sample_size == 0:
                    return None
                small = q_block.profits <= eps_sq
                efficiencies = efficiency_array(
                    q_block.profits[small], q_block.weights[small]
                )
                in_band = np.count_nonzero((efficiencies >= lo) & (efficiencies < hi))
                # Weighted sampling: each draw represents 1/a of the
                # total (unit) profit, so the band's profit mass is the
                # in-band draw fraction.
                return float(in_band) / float(total_q_draws)

            with _obs.span("tie.breaking"):
                tie_rule = derive_tie_breaking(
                    simplified,
                    converted,
                    self._seed.child("tie-breaking"),
                    band_mass_estimator=band_mass,
                )
        samples_used = self._sampler.cost_counter - samples_before
        return PipelineResult(
            p_large=p_large,
            large_items=large,
            eps_sequence=eps_sequence,
            simplified=simplified,
            converted=converted,
            samples_used=samples_used,
            small_sample_size=small_sample_size,
            tie_rule=tie_rule,
            nonce=nonce,
        )

    # ------------------------------------------------------------------
    def answer(self, index: int, *, nonce: int | None = None) -> LCAAnswer:
        """Answer one query (Algorithm 2 lines 20-24), statelessly.

        Every call re-runs the full pipeline: no state survives between
        queries, per Definition 2.2.  Use :meth:`answer_many` when the
        *caller* wants to amortize a run over several queries (that is
        the caller's prerogative — e.g. the serving engine gives each
        batch shard one run — and does not change the output law, since
        answers are a deterministic function of the pipeline result).
        """
        with _obs.span("lca.answer"):
            pipeline = self.run_pipeline(nonce=nonce)
            return self._answer_from(pipeline, index)

    def answer_many(
        self, indices, *, nonce: int | None = None
    ) -> list[LCAAnswer]:
        """Answer a batch of queries from a single pipeline run."""
        with _obs.span("lca.answer"):
            pipeline = self.run_pipeline(nonce=nonce)
            return self.answers_from(pipeline, indices)

    def answers_from(self, pipeline: PipelineResult, indices) -> list[LCAAnswer]:
        """Answer a batch of queries against an already-run pipeline.

        This is the caller-amortization hot path (the serving engine's
        cache hit): one columnar :meth:`~repro.access.QueryOracle.query_block`
        reveal per batch, then the decision rule applied as a single
        vectorized pass (``decide_many``; a one-item batch takes the
        scalar rule) instead of a Python-level loop.  Answers are
        bit-identical to calling :meth:`answer` per index with this
        pipeline's nonce — the decision is a pure function of
        (pipeline, item).
        """
        idx = [int(i) for i in indices]
        with _obs.span("oracle.reveal"):
            block = self._oracle.query_block(idx)
        include = pipeline.rule.decide_many(
            block.profits, block.weights, block.indices
        )
        summary = pipeline.summary()
        items = [
            Item(p, w)
            for p, w in zip(block.profits.tolist(), block.weights.tolist())
        ]
        return [
            LCAAnswer(
                index=i,
                include=bool(inc),
                item=item,
                reason=self._reason(pipeline, item, bool(inc)),
                run=summary,
            )
            for i, item, inc in zip(idx, items, include)
        ]

    def _reason(self, pipeline: PipelineResult, item: Item, include: bool) -> str:
        eps_sq = self._params.eps_sq
        if item.profit > eps_sq:
            return "large-in-solution" if include else "large-not-in-solution"
        if include:
            return "small-above-threshold"
        if pipeline.converted.b_indicator:
            return "singleton-branch-excludes-small"
        if pipeline.converted.e_small is None:
            return "no-small-threshold"
        return "below-threshold-or-garbage"

    def _answer_from(self, pipeline: PipelineResult, index: int) -> LCAAnswer:
        with _obs.span("oracle.reveal"):
            item = self._oracle.query(index)
        include = pipeline.rule.decide(item.profit, item.weight, index)
        return LCAAnswer(
            index=index,
            include=include,
            item=item,
            reason=self._reason(pipeline, item, include),
            run=pipeline.summary(),
        )
