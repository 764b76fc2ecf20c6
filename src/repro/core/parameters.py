"""Parameter derivation for LCA-KP (Algorithm 2).

Algorithm 2 fixes, as functions of the accuracy parameter epsilon:

* ``tau   = eps^2 / 5``   — rQuantile accuracy (line 5);
* ``rho   = eps^2 / 18``  — rQuantile reproducibility (line 5);
* ``beta  = rho / 2``     — rQuantile failure probability (line 5);
* ``m``   — size of the large-item sample R (line 1), sized by the
  coupon-collector bound of Lemma 4.2 amplified to failure eps/3;
* ``n_rq``— rQuantile's sample complexity (line 5);
* ``q, t``— the quantile step and count, which depend on the sampled
  large-profit mass ``p(L(I~))`` and are therefore computed per run
  (lines 4-5): ``q = (eps + eps^2/2) / (1 - p_L)``, ``t = floor(1/q)``;
* ``a``   — size of the efficiency sample Q (line 6):
  ``ceil(3 n_rq / (2 (1 - p_L)))``.

:class:`LCAParameters` owns the static part; :meth:`LCAParameters.per_run`
derives the run-dependent part.  Two fidelity modes exist:

* ``paper`` — the exact formulas above (tau/rho quadratic in eps).  The
  resulting rQuantile sample sizes are enormous for small eps; they are
  what EXPERIMENTS.md reports as "theory sizing".
* ``calibrated`` (default) — same structure, but tau/rho scale linearly
  in eps (``tau = eps/5``, ``rho = eps/6``) and sample sizes are capped.
  This preserves every qualitative behaviour at laptop scale; the
  approximation and consistency benches measure what it actually buys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import ReproError
from ..reproducible.domains import EfficiencyDomain
from ..reproducible.rmedian import practical_sample_complexity

__all__ = ["LCAParameters", "RunParameters", "coupon_collector_samples"]


def coupon_collector_samples(delta: float, failure: float = 1 / 6) -> int:
    """Lemma 4.2 sample count, amplified to the requested failure probability.

    One batch of ``ceil(6 delta^-1 (log delta^-1 + 1))`` weighted samples
    collects every item of profit >= delta with probability >= 5/6; k
    independent batches fail together with probability <= (1/6)^k, so we
    take ``k = ceil(log_6(1/failure))`` batches.
    """
    if not 0 < delta <= 1:
        raise ReproError(f"delta must lie in (0, 1], got {delta}")
    if not 0 < failure < 1:
        raise ReproError(f"failure must lie in (0, 1), got {failure}")
    batch = math.ceil(6.0 / delta * (math.log(1.0 / delta) + 1.0))
    # The 1e-9 guard keeps float noise from bumping an exact power of 6
    # (e.g. failure = 6^-3) into an extra batch.
    k = max(1, math.ceil(math.log(1.0 / failure) / math.log(6.0) - 1e-9))
    return batch * k


@dataclass(frozen=True)
class RunParameters:
    """Run-dependent quantities of Algorithm 2 (they depend on p(L(I~)))."""

    p_large: float  # sampled large-item profit mass p(L(I~))
    q: float  # quantile step (line 5)
    t: int  # number of quantiles (line 5)
    a: int  # efficiency sample size |Q| (line 6)

    @property
    def small_mass(self) -> float:
        """``1 - p(L(I~))`` — profit mass outside the sampled large items."""
        return 1.0 - self.p_large


@dataclass(frozen=True)
class LCAParameters:
    """Static parameters of LCA-KP, derived from epsilon.

    Use :meth:`calibrated` (default scaling) or :meth:`paper` (verbatim
    formulas) instead of the raw constructor unless you are sweeping
    parameters deliberately.
    """

    epsilon: float
    tau: float
    rho: float
    beta: float
    m_large: int  # |R|, line 1
    n_rq: int  # rQuantile sample complexity, line 5
    domain: EfficiencyDomain = field(default_factory=EfficiencyDomain)
    fidelity: str = "calibrated"

    def __post_init__(self) -> None:
        if not 0 < self.epsilon <= 1:
            raise ReproError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if not 0 < self.tau < 1 or not 0 < self.rho < 1 or not 0 < self.beta < 1:
            raise ReproError("tau, rho, beta must lie in (0, 1)")
        if self.m_large < 1 or self.n_rq < 1:
            raise ReproError("sample sizes must be positive")

    # ------------------------------------------------------------------
    @classmethod
    def paper(cls, epsilon: float, *, domain: EfficiencyDomain | None = None) -> "LCAParameters":
        """Verbatim Algorithm 2 parameters (tau = eps^2/5, rho = eps^2/18).

        Sample sizes follow the paper's formulas with the reproducible-
        engine sizing of :func:`practical_sample_complexity` (the true
        Theorem 4.5 constants are astronomically large; see DESIGN.md).
        """
        dom = domain or EfficiencyDomain()
        eps_sq = epsilon * epsilon
        tau = eps_sq / 5.0
        rho = eps_sq / 18.0
        beta = rho / 2.0
        m_large = coupon_collector_samples(eps_sq, failure=epsilon / 3.0)
        n_rq = practical_sample_complexity(tau, rho, dom.bits, beta=beta)
        return cls(
            epsilon=epsilon,
            tau=tau,
            rho=rho,
            beta=beta,
            m_large=m_large,
            n_rq=n_rq,
            domain=dom,
            fidelity="paper",
        )

    @classmethod
    def calibrated(
        cls,
        epsilon: float,
        *,
        domain: EfficiencyDomain | None = None,
        max_nrq: int = 120_000,
        max_m_large: int = 60_000,
    ) -> "LCAParameters":
        """Laptop-scale parameters: tau = eps/5, rho = eps/6, capped sizes.

        Rationale: the paper's quadratic tau = eps^2/5 buys the tight
        ``[eps, eps + eps^2)`` EPS intervals needed for the *worst-case*
        proof of Lemma 4.6; empirically (bench E4) the approximation
        guarantee holds comfortably with linear scaling, at orders of
        magnitude fewer samples per query.

        The default 12-bit efficiency domain (multiplicative step ~1.4%)
        is the measured sweet spot of the consistency/resolution
        trade-off (ablation bench E10): coarser grids collapse genuinely
        distinct efficiencies into one atom (degenerating the EPS, see
        EXPERIMENTS.md on subset-sum-like instances), finer grids make
        exact cross-run agreement sample-hungry — the practical face of
        the paper's log*|X| phenomenon.
        """
        dom = domain or EfficiencyDomain(bits=12)
        tau = epsilon / 5.0
        rho = epsilon / 6.0
        beta = rho / 2.0
        m_large = min(
            coupon_collector_samples(epsilon * epsilon, failure=epsilon / 3.0),
            max_m_large,
        )
        n_rq = practical_sample_complexity(tau, rho, dom.bits, beta=beta, max_samples=max_nrq)
        return cls(
            epsilon=epsilon,
            tau=tau,
            rho=rho,
            beta=beta,
            m_large=m_large,
            n_rq=n_rq,
            domain=dom,
            fidelity="calibrated",
        )

    @classmethod
    def capped(cls, epsilon: float, cap: int) -> "LCAParameters | None":
        """:meth:`calibrated` with ``m_large`` and ``n_rq`` capped at
        ``cap`` (the runs' speed knob); ``cap=0`` returns ``None``, which
        leaves the full calibrated sizes to the callee."""
        return cls.calibrated(epsilon, max_nrq=cap, max_m_large=cap) if cap else None

    # ------------------------------------------------------------------
    @property
    def eps_sq(self) -> float:
        """``eps^2`` — the large/small profit threshold of the partition."""
        return self.epsilon * self.epsilon

    def per_run(self, p_large: float) -> RunParameters:
        """Derive the run-dependent quantities from the sampled p(L(I~)).

        Implements Algorithm 2 lines 4-6.  Caller must have checked that
        ``1 - p_large >= epsilon`` (line 4) before using q/t/a; if the
        check fails the EPS is empty and these fields are unused, but we
        still return well-defined values for diagnostics.
        """
        if not 0 <= p_large <= 1 + 1e-9:
            raise ReproError(f"p_large must lie in [0, 1], got {p_large}")
        small = max(1.0 - p_large, 1e-12)
        q = (self.epsilon + self.eps_sq / 2.0) / small
        t = max(int(math.floor(1.0 / q)), 0)
        a = math.ceil(3.0 * self.n_rq / (2.0 * small))
        return RunParameters(p_large=p_large, q=q, t=t, a=a)

    def expected_query_cost(self, p_large: float | None = None) -> int:
        """Upper bound on samples per LCA query: |R| + |Q| (Lemma 4.10).

        With ``p_large=None`` this is the worst case over runs: line 4
        guarantees the EPS is only estimated when ``1 - p(L) >= eps``,
        so ``|Q| <= ceil(3 n_rq / (2 eps))``.  Passing a concrete
        ``p_large`` gives the bound for that run.
        """
        if p_large is None:
            small = self.epsilon
        else:
            small = max(1.0 - p_large, self.epsilon)
        a = math.ceil(3.0 * self.n_rq / (2.0 * small))
        return self.m_large + a
