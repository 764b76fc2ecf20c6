"""Reproducible quantiles — Algorithm 1 (``rQuantile``) of the paper.

The paper reduces the p-quantile of a distribution D to the *median* of
a padded distribution D': halve D's mass and add atoms at -inf / +inf
with masses (1-p)/2 and p/2 (Section 4.2).  We provide:

* :func:`rquantile_padding` — the faithful reduction: materialize the
  padded sample over the extended domain ``{-inf} + X + {+inf}`` and
  call :func:`~repro.reproducible.rmedian.rmedian` on it;
* :func:`rquantile_direct` — the equivalent shortcut that runs the grid
  descent with quantile target p directly (no padding, half the
  samples' bookkeeping); property tests check the two agree up to tau.

:class:`ReproducibleQuantileEstimator` is the value-level front door
used by LCA-KP: it owns the :class:`EfficiencyDomain`, encodes float
efficiencies to grid indices, runs the reproducible engine and decodes
the answer back to an efficiency value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..access.seeds import SeedChain
from ..errors import ReproducibilityError
from .domains import EfficiencyDomain
from .rmedian import (
    practical_sample_complexity,
    rmedian,
    rquantile_descent,
    rquantile_descent_batch,
    theoretical_sample_complexity,
)

__all__ = [
    "rquantile_padding",
    "rquantile_direct",
    "ReproducibleQuantileEstimator",
]


def rquantile_padding(
    samples,
    domain_size: int,
    p: float,
    seed: SeedChain,
    *,
    tau: float = 0.05,
    branching: int = 4,
) -> int:
    """Faithful Algorithm 1: p-quantile via the padded-median reduction.

    The padded domain has ``domain_size + 2`` points: index 0 is -inf,
    indices ``1 .. domain_size`` are X shifted by one, and the top index
    is +inf.  Each of the n real samples carries D'-mass ``1/(2n)``, so
    the padding contributes ``n (1 - p)`` copies of -inf and ``n p``
    copies of +inf (rounded).  Per Theorem 4.5, the median is computed
    to accuracy ``tau / 2`` on the extended domain.

    Returns an index in the *original* domain ``[0, domain_size)``
    (sentinels, which occur only when the quantile falls off the data
    range, clamp to the nearest real point).
    """
    xs = np.asarray(samples, dtype=np.int64)
    if xs.size == 0:
        raise ReproducibilityError("rquantile_padding needs at least one sample")
    if not 0 <= p <= 1:
        raise ReproducibilityError(f"p must lie in [0, 1], got {p}")
    n = xs.size
    n_neg = int(round(n * (1 - p)))
    n_pos = int(round(n * p))
    padded = np.concatenate(
        [
            np.zeros(n_neg, dtype=np.int64),  # -inf sentinel
            xs + 1,  # shifted real samples
            np.full(n_pos, domain_size + 1, dtype=np.int64),  # +inf sentinel
        ]
    )
    out = rmedian(padded, domain_size + 2, seed, tau=tau / 2, branching=branching)
    if out == 0:
        return 0
    if out == domain_size + 1:
        return domain_size - 1
    return out - 1


def rquantile_direct(
    samples,
    domain_size: int,
    p: float,
    seed: SeedChain,
    *,
    tau: float = 0.05,
    branching: int = 4,
) -> int:
    """Direct engine call with quantile target p (no padding)."""
    return rquantile_descent(
        samples, domain_size, seed, target=p, tau=tau, branching=branching
    )


@dataclass
class ReproducibleQuantileEstimator:
    """Value-level reproducible quantiles over efficiencies.

    Parameters mirror Algorithm 1's requirements block: the target
    accuracy ``tau``, reproducibility ``rho``, failure probability
    ``beta``, and the finite domain (of size ``2**domain.bits``).

    ``method`` selects the faithful padding reduction (``"padding"``),
    the direct grid descent (``"direct"``, the default — equivalent
    output law, less bookkeeping), or the independently-constructed
    dyadic engine (``"dyadic"``, see
    :mod:`repro.reproducible.dyadic`).
    """

    domain: EfficiencyDomain = field(default_factory=EfficiencyDomain)
    tau: float = 0.05
    rho: float = 0.1
    beta: float = 0.05
    method: str = "direct"
    branching: int = 4
    vote: int = 1
    max_samples: int = 200_000

    def __post_init__(self) -> None:
        if self.method not in ("direct", "padding", "dyadic"):
            raise ReproducibilityError(f"unknown method {self.method!r}")
        if not 0 < self.tau < 1:
            raise ReproducibilityError(f"tau must lie in (0, 1), got {self.tau}")
        if not 0 < self.beta < self.rho < 1:
            raise ReproducibilityError(
                f"need 0 < beta < rho < 1 (Theorem 4.5), got beta={self.beta}, rho={self.rho}"
            )

    # ------------------------------------------------------------------
    def sample_complexity(self) -> int:
        """Calibrated number of samples (``n_rq`` in Algorithm 2 line 5)."""
        return practical_sample_complexity(
            self.tau,
            self.rho,
            self.domain.bits,
            beta=self.beta,
            branching=self.branching,
            max_samples=self.max_samples,
        )

    def theoretical_complexity(self) -> int:
        """The Theorem 4.5 bound, for reporting alongside measurements."""
        return theoretical_sample_complexity(self.tau, self.rho, self.domain.bits, beta=self.beta)

    # ------------------------------------------------------------------
    def quantile(self, values, p: float, seed: SeedChain) -> float:
        """Reproducible tau-approximate p-quantile of float ``values``.

        ``seed`` should be derived per quantile index (Algorithm 2 line
        10 calls rQuantile once per k with shared randomness); the
        caller is responsible for labelling, e.g.
        ``seed.child("rquantile").child(k)``.
        """
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            raise ReproducibilityError("quantile needs at least one sample")
        return self._quantile_codes(self.domain.encode_many(arr), p, seed)

    def _quantile_codes(self, encoded: np.ndarray, p: float, seed: SeedChain) -> float:
        """:meth:`quantile` over values already encoded to grid codes."""
        if self.vote <= 1:
            idx = self._one_call(encoded, p, seed)
        else:
            # Mode amplification: run the engine on `vote` disjoint
            # sample splits (all sharing the seed) and keep the most
            # frequent output.  The reproducibility analysis of
            # Lemma 4.9 shows a rho-reproducible call's output
            # distribution has a mode of mass >= 1 - rho; voting
            # concentrates each run on that mode, boosting exact
            # cross-run agreement at the cost of smaller per-call
            # samples.  Ties break toward the smallest index so the
            # rule stays deterministic.
            # All splits share the *same* seed (thresholds, offsets,
            # lattice): they estimate the same randomized functional on
            # independent data, so their outputs concentrate on one cell
            # and the majority recovers it.
            chunks = np.array_split(encoded, self.vote)
            outputs = [
                self._one_call(chunk, p, seed) for chunk in chunks if chunk.size > 0
            ]
            counts: dict[int, int] = {}
            for out in outputs:
                counts[out] = counts.get(out, 0) + 1
            best = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
            idx = best[0]
        return self.domain.decode(idx)

    def _one_call(self, encoded: np.ndarray, p: float, seed: SeedChain) -> int:
        if self.method == "padding":
            return rquantile_padding(
                encoded, self.domain.size, p, seed, tau=self.tau, branching=self.branching
            )
        if self.method == "dyadic":
            from .dyadic import rquantile_dyadic

            return rquantile_dyadic(
                encoded, self.domain.size, seed, target=p, tau=self.tau
            )
        return rquantile_direct(
            encoded, self.domain.size, p, seed, tau=self.tau, branching=self.branching
        )

    def quantiles(self, codes, targets, seeds) -> np.ndarray:
        """Batched :meth:`quantile`: many targets over one array of grid codes.

        ``codes`` are values already encoded to this estimator's grid,
        i.e. ``self.domain.encode_many`` of the float values — what
        LCA-KP reads from its per-item code memo.  Bit-identical to
        calling :meth:`quantile` on the float values once per
        ``(target, seed)`` pair — LCA-KP's threshold loop depends on
        that — but, for the default ``method="direct"`` single-vote
        configuration, all descents run in lockstep via
        :func:`rquantile_descent_batch`, sharing one sort and one
        ``searchsorted`` per grid level.  Other methods and ``vote > 1``
        fall back to per-target calls (same outputs, no sharing).
        """
        targets = [float(p) for p in targets]
        seeds = list(seeds)
        if len(targets) != len(seeds):
            raise ReproducibilityError(
                f"got {len(seeds)} seeds for {len(targets)} targets"
            )
        if not targets:
            return np.empty(0)
        codes = np.asarray(codes)
        if codes.size == 0:
            raise ReproducibilityError("quantile needs at least one sample")
        if self.method != "direct" or self.vote > 1:
            return np.asarray(
                [self._quantile_codes(codes, p, s) for p, s in zip(targets, seeds)]
            )
        indices = rquantile_descent_batch(
            codes,
            self.domain.size,
            seeds,
            targets,
            tau=self.tau,
            branching=self.branching,
        )
        return np.asarray([self.domain.decode(int(i)) for i in indices])

    def median(self, values, seed: SeedChain) -> float:
        """Reproducible tau-approximate median of float ``values``."""
        return self.quantile(values, 0.5, seed)

    # ------------------------------------------------------------------
    def reproducibility_rate(
        self,
        sample_factory,
        p: float,
        seed: SeedChain,
        *,
        runs: int = 20,
    ) -> float:
        """Empirical pairwise agreement rate across ``runs`` fresh samples.

        ``sample_factory(run_index)`` must return a fresh i.i.d. sample
        of values each call.  Returns the fraction of run pairs whose
        outputs are exactly equal — the empirical counterpart of
        Definition 2.5's ``1 - rho``.
        """
        if runs < 2:
            raise ReproducibilityError("need at least 2 runs to measure reproducibility")
        outputs = [self.quantile(sample_factory(r), p, seed) for r in range(runs)]
        agree = 0
        total = 0
        for i in range(runs):
            for j in range(i + 1, runs):
                total += 1
                if outputs[i] == outputs[j]:
                    agree += 1
        return agree / total
