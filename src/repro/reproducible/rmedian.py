"""Reproducible approximate median over a finite ordered domain.

This module implements the role played by ILPS22's ``rMedian``
(Theorem 2.7 in the paper): a randomized algorithm which, given i.i.d.
samples from a distribution D over a finite ordered domain X and a
shared random string r, outputs a tau-approximate median such that two
runs on *fresh samples* but the *same r* return the **exact same
element** with probability at least 1 - rho.

Construction (randomized grid descent with mass-based stopping)
---------------------------------------------------------------
The original ILPS22 construction is not restated in the reproduced
paper, and its sample complexity ``(3/tau^2)^(log*|X|)`` is astronomical
by design (their lower bound shows the log* dependence is *necessary*
for worst-case distributions).  We implement a practical variant that
preserves the observable guarantees at realistic sample sizes — see
DESIGN.md, "Substitutions":

1. Draw a target quantile ``theta ~ U[target - tau/2, target + tau/2]``
   and a stopping mass ``floor ~ U[tau/4, tau/2]`` from the shared seed.
   Randomizing both makes every data-dependent comparison a random-
   threshold comparison, so small sampling perturbations flip them with
   probability proportional to the perturbation.
2. Maintain a candidate interval ``[lo, hi)`` of the domain, initially
   all of X.  Each round splits it into ``branching`` equal cells with
   a randomly-offset lattice (offsets from the shared seed), locates the
   empirical within-interval theta-quantile, and descends into the cell
   containing it, renormalizing the quantile target.
3. Stop when the interval's empirical mass drops below ``floor`` or its
   width reaches 1; output the interval's **left edge** — a lattice
   point fully determined by the shared offsets and the descent path,
   so two runs agree exactly iff their descent paths agree.

Two runs disagree only if, in some round, their empirical pivots fall
in different (randomly placed) cells, or their mass estimates straddle
the (randomly placed) stopping floor — both events have probability
O(sampling deviation / threshold width) per round.  Accuracy: the true
target quantile stays inside the interval up to sampling error, and the
final interval holds at most ``~tau/2`` mass, so the emitted edge is a
tau-approximate quantile with high probability.

The official ILPS22 round structure (``log*|X|`` rounds) is retained in
the *reporting* layer: :func:`theoretical_sample_complexity` implements
the Theorem 4.5 formula verbatim so benches can print the theory bound
next to the calibrated sizes actually used.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..access.codes import CodeCounts, count_codes
from ..access.seeds import SeedChain
from ..analysis.logstar import log_star_of_pow2
from ..errors import ReproducibilityError

__all__ = [
    "rmedian",
    "rquantile_descent",
    "rquantile_descent_batch",
    "rquantile_descent_counts",
    "shared_coin",
    "theoretical_sample_complexity",
    "practical_sample_complexity",
]


#: Shared-seed coins :func:`rquantile_descent_counts` keeps (LRU-evicted).
COIN_MEMO_SIZE = 4096


@functools.lru_cache(maxsize=COIN_MEMO_SIZE, typed=True)
def _memo_coin(key: tuple, label: str, kind: str, low, high):
    node = SeedChain(key[0], key[1] + (label,))
    return node.uniform(low, high) if kind == "uniform" else node.integer(low, high)


def shared_coin(node: SeedChain, label: str, kind: str, low, high):
    """``node.child(label).uniform(low, high)`` (``kind="uniform"``) or
    ``.integer(low, high)`` (``kind="integer"``), memoized.

    rQuantile's coins (target perturbation, stopping floor, lattice
    offsets) come from the shared seed r, so every run of the pipeline
    derives the same few dozen of them; each derivation is a SHA-256
    and a fresh generator.  The memo is keyed by node, label, kind and
    bounds, typed so that int and float bounds never share an entry,
    and bounded at :data:`COIN_MEMO_SIZE` entries.  It is deliberately
    not a memo on every :class:`SeedChain` draw: fault and tie coins
    use keys drawn once and never again, which would only churn it.
    """
    return _memo_coin(node.key, label, kind, low, high)


def rquantile_descent(
    samples,
    domain_size: int,
    seed: SeedChain,
    *,
    target: float = 0.5,
    tau: float = 0.05,
    branching: int = 4,
) -> int:
    """Reproducible ``target``-quantile via randomized grid descent.

    Parameters
    ----------
    samples:
        Integer domain indices in ``[0, domain_size)``, i.i.d. from D.
    domain_size:
        ``|X|``.
    seed:
        Shared random string r.  Runs with equal seeds share the target
        perturbation, the stopping floor and every lattice offset.
    target:
        Desired quantile p (0.5 = median).
    tau:
        Accuracy: the output aims to be a tau-approximate p-quantile;
        also sets the randomized target window and the stopping mass.
    branching:
        Cells per round.  Small values keep the per-round disagreement
        probability at ``O(branching * eta / interval_mass)``; the
        default 4 gives ``log_4|X|`` rounds.

    Returns
    -------
    int
        A domain element (grid index): the left edge of the surviving
        interval.
    """
    xs = np.sort(np.asarray(samples, dtype=np.int64))
    if xs.size == 0:
        raise ReproducibilityError("rquantile_descent needs at least one sample")
    if domain_size < 1:
        raise ReproducibilityError(f"domain_size must be >= 1, got {domain_size}")
    if xs[0] < 0 or xs[-1] >= domain_size:
        raise ReproducibilityError(
            f"samples must lie in [0, {domain_size}); got range [{xs[0]}, {xs[-1]}]"
        )
    if not 0 <= target <= 1:
        raise ReproducibilityError(f"target quantile must lie in [0, 1], got {target}")
    if not 0 < tau <= 1:
        raise ReproducibilityError(f"tau must lie in (0, 1], got {tau}")
    if branching < 2:
        raise ReproducibilityError(f"branching must be >= 2, got {branching}")

    n = xs.size
    # Shared randomized thresholds: identical across runs with equal seeds.
    lo_t = max(0.0, target - tau / 2)
    hi_t = min(1.0, target + tau / 2)
    theta = seed.child("theta").uniform(lo_t, hi_t)
    floor = seed.child("floor").uniform(tau / 4, tau / 2)

    lo, hi = 0, domain_size
    t = theta
    mass = 1.0
    round_idx = 0
    while hi - lo > 1 and mass > floor:
        width = max(1, math.ceil((hi - lo) / branching))
        offset = seed.child(f"offset-{round_idx}").integer(0, width)
        a = int(np.searchsorted(xs, lo, side="left"))
        b = int(np.searchsorted(xs, hi, side="left"))
        sub = xs[a:b]
        if sub.size == 0:
            # No data left in the interval: the quantile is unidentifiable
            # here; emit the deterministic left edge.
            break
        rank = min(max(math.ceil(t * sub.size) - 1, 0), sub.size - 1)
        pivot = int(sub[rank])
        anchor = lo - offset
        cell_start = anchor + ((pivot - anchor) // width) * width
        new_lo = max(cell_start, lo)
        new_hi = min(cell_start + width, hi)
        below = float(np.searchsorted(sub, new_lo, side="left")) / sub.size
        upto = float(np.searchsorted(sub, new_hi, side="left")) / sub.size
        cell_frac = upto - below
        t = 0.5 if cell_frac <= 0 else min(max((t - below) / cell_frac, 0.0), 1.0)
        mass *= max(cell_frac, 0.0)
        lo, hi = new_lo, new_hi
        round_idx += 1

    return int(lo)


def rquantile_descent_batch(
    samples,
    domain_size: int,
    seeds,
    targets,
    *,
    tau: float = 0.05,
    branching: int = 4,
) -> np.ndarray:
    """Batched :func:`rquantile_descent`: many targets over one sample set.

    The array face of :func:`rquantile_descent_counts`: the samples are
    counted into their sorted support
    (:func:`~repro.access.codes.count_codes`, a ``bincount`` for domains
    of at most ``2**16`` points, ``np.unique`` beyond) and every descent
    runs over that.  The result is bit-identical to calling
    :func:`rquantile_descent` once per ``(seed, target)`` pair; a
    hypothesis property test pins this, since run outputs (and therefore
    pipeline reproducibility) depend on it.

    Parameters
    ----------
    samples, domain_size, tau, branching:
        As in :func:`rquantile_descent` (shared by all descents).
    seeds:
        Sequence of :class:`SeedChain` nodes, one per descent.
    targets:
        Sequence of quantile targets, same length as ``seeds``.

    Returns
    -------
    numpy.ndarray
        int64 array of surviving-interval left edges, one per target.
    """
    seeds = list(seeds)
    targets = [float(p) for p in targets]
    if len(seeds) != len(targets):
        raise ReproducibilityError(
            f"got {len(seeds)} seeds for {len(targets)} targets"
        )
    if not targets:
        return np.empty(0, dtype=np.int64)
    xs = np.asarray(samples)
    if xs.dtype.kind != "i":
        xs = xs.astype(np.int64)
    counts = CodeCounts(np.empty(0, np.int64), np.empty(0, np.int64))
    if xs.size and domain_size >= 1:  # else rquantile_descent_counts raises
        low, high = xs.min(), xs.max()
        if low < 0 or high >= domain_size:
            raise ReproducibilityError(
                f"samples must lie in [0, {domain_size}); got range [{low}, {high}]"
            )
        counts = count_codes(xs, domain_size)
    return rquantile_descent_counts(
        counts,
        domain_size,
        seeds,
        targets,
        tau=tau,
        branching=branching,
    )


def rquantile_descent_counts(
    counts: CodeCounts,
    domain_size: int,
    seeds,
    targets,
    *,
    tau: float = 0.05,
    branching: int = 4,
) -> np.ndarray:
    """:func:`rquantile_descent_batch` over the samples' sorted support.

    The descent depends only on the sorted multiset of the samples, so it
    reads :class:`~repro.access.codes.CodeCounts` (the distinct values
    ``values`` ascending and their ``counts``) and never the samples.
    With ``ends`` the cumulative counts (``ends[j]`` samples lie below
    ``values[j]``), the sorted array's ``searchsorted(xs, v)`` is
    ``ends[searchsorted(values, v)]`` and its element at position ``j``
    is ``values[searchsorted(ends[1:], j, "right")]``: the same integers,
    from arrays of at most ``min(|Q|, |X|)`` entries.

    All descents run in lockstep, one vectorized ``searchsorted`` per
    grid level serving every threshold, while every per-threshold scalar
    (``theta``, ``floor``, lattice offsets, rank arithmetic, mass decay)
    is computed with the exact floating-point expressions of the scalar
    path; the shared-seed coins come through :func:`shared_coin`, so
    repeated runs derive them once.
    """
    seeds = list(seeds)
    targets = [float(p) for p in targets]
    if len(seeds) != len(targets):
        raise ReproducibilityError(
            f"got {len(seeds)} seeds for {len(targets)} targets"
        )
    k = len(targets)
    if k == 0:
        return np.empty(0, dtype=np.int64)
    values, multiplicities = counts
    if values.size == 0:
        raise ReproducibilityError("rquantile_descent needs at least one sample")
    if domain_size < 1:
        raise ReproducibilityError(f"domain_size must be >= 1, got {domain_size}")
    if values[0] < 0 or values[-1] >= domain_size:
        raise ReproducibilityError(
            f"samples must lie in [0, {domain_size}); "
            f"got range [{values[0]}, {values[-1]}]"
        )
    for p in targets:
        if not 0 <= p <= 1:
            raise ReproducibilityError(f"target quantile must lie in [0, 1], got {p}")
    if not 0 < tau <= 1:
        raise ReproducibilityError(f"tau must lie in (0, 1], got {tau}")
    if branching < 2:
        raise ReproducibilityError(f"branching must be >= 2, got {branching}")
    values = values.astype(np.int64, copy=False)
    ends = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(multiplicities, out=ends[1:])
    n = int(ends[-1])

    def below(v: np.ndarray) -> np.ndarray:
        """Number of samples less than each ``v``."""
        return ends[np.searchsorted(values, v, side="left")]

    t = np.empty(k)
    floor = np.empty(k)
    for i, (node, p) in enumerate(zip(seeds, targets)):
        lo_t = max(0.0, p - tau / 2)
        hi_t = min(1.0, p + tau / 2)
        t[i] = shared_coin(node, "theta", "uniform", lo_t, hi_t)
        floor[i] = shared_coin(node, "floor", "uniform", tau / 4, tau / 2)

    lo = np.zeros(k, dtype=np.int64)
    hi = np.full(k, domain_size, dtype=np.int64)
    mass = np.ones(k)
    active = np.ones(k, dtype=bool)
    round_idx = 0
    while True:
        active &= (hi - lo > 1) & (mass > floor)
        if not active.any():
            break
        width = np.maximum(1, np.ceil((hi - lo) / branching)).astype(np.int64)
        offset = np.zeros(k, dtype=np.int64)
        for i in np.nonzero(active)[0]:
            offset[i] = shared_coin(
                seeds[i], f"offset-{round_idx}", "integer", 0, int(width[i])
            )
        a = below(lo)
        sz = below(hi) - a
        # Empty interval: the quantile is unidentifiable; that descent
        # stops and emits its current left edge (the scalar `break`).
        active &= sz > 0
        if not active.any():
            break
        sz_safe = np.maximum(sz, 1)
        rank = np.minimum(
            np.maximum(np.ceil(t * sz_safe).astype(np.int64) - 1, 0), sz_safe - 1
        )
        position = np.minimum(a + rank, n - 1)
        pivot = values[np.searchsorted(ends[1:], position, side="right")]
        anchor = lo - offset
        cell_start = anchor + ((pivot - anchor) // width) * width
        new_lo = np.maximum(cell_start, lo)
        new_hi = np.minimum(cell_start + width, hi)
        # Counts over the whole support minus the interval's offset equal
        # counts over the interval, since new_lo/new_hi lie within
        # [lo, hi).
        frac_below = (below(new_lo) - a) / sz_safe
        upto = (below(new_hi) - a) / sz_safe
        cell_frac = upto - frac_below
        with np.errstate(divide="ignore", invalid="ignore"):
            t_desc = np.where(
                cell_frac <= 0,
                0.5,
                np.minimum(np.maximum((t - frac_below) / cell_frac, 0.0), 1.0),
            )
        t = np.where(active, t_desc, t)
        mass = np.where(active, mass * np.maximum(cell_frac, 0.0), mass)
        lo = np.where(active, new_lo, lo)
        hi = np.where(active, new_hi, hi)
        round_idx += 1

    return lo


def rmedian(
    samples,
    domain_size: int,
    seed: SeedChain,
    *,
    tau: float = 0.05,
    branching: int = 4,
) -> int:
    """Reproducible tau-approximate **median** (``target = 1/2``).

    This is the paper's ``rMedian`` interface (Theorem 2.7); it simply
    fixes the quantile target of :func:`rquantile_descent` at 1/2.
    """
    return rquantile_descent(
        samples, domain_size, seed, target=0.5, tau=tau, branching=branching
    )


# ----------------------------------------------------------------------
# Sample-complexity formulas
# ----------------------------------------------------------------------
def theoretical_sample_complexity(
    tau: float,
    rho: float,
    domain_bits: int,
    *,
    beta: float = 1 / 3,
) -> int:
    """Sample complexity exactly as stated in Theorem 4.5.

    ``O~((1 / (tau^2 (rho - beta)^2)) * (12 / tau^2)^(log*|X| + 1))``
    with the polylog factor instantiated as ``log(1 / (tau rho beta))``
    and unit leading constant.  These numbers are astronomical for the
    paper's parameter choices — they exist so benches can *report* the
    theory-side bound next to the calibrated size actually used
    (see :func:`practical_sample_complexity` and DESIGN.md).
    """
    _check_params(tau, rho, beta)
    ls = log_star_of_pow2(domain_bits)
    base = 1.0 / (tau * tau * (rho - beta) ** 2) if rho > beta else math.inf
    blowup = (12.0 / (tau * tau)) ** (ls + 1)
    polylog = max(1.0, math.log(1.0 / (tau * rho * beta)))
    value = base * blowup * polylog
    if value > 1e18:
        return int(1e18)  # effectively "do not run this"
    return math.ceil(value)


def practical_sample_complexity(
    tau: float,
    rho: float,
    domain_bits: int,
    *,
    beta: float = 1 / 3,
    branching: int = 4,
    scale: float = 1.0,
    max_samples: int = 200_000,
) -> int:
    """Calibrated sample size actually used by default.

    Sizing rationale: by the DKW inequality, ``m`` samples pin every
    empirical CDF value to within ``eta = sqrt(ln(4/delta) / 2m)``.
    Descent rounds near the stopping floor are the contested ones; their
    disagreement probability is ``O(branching * eta / tau)`` each, so we
    target ``eta ~ tau * rho / (4 * branching)`` and cap the result at
    ``max_samples`` to keep per-query work bounded.  ``scale``
    multiplies the target for sensitivity studies (ablation bench E10
    sweeps it).
    """
    _check_params(tau, rho, beta)
    delta = min(beta, 0.25)
    eta = tau * rho / (4.0 * branching)
    eta = max(eta, 1e-6)
    m = math.ceil(scale * math.log(4.0 / delta) / (2.0 * eta * eta))
    return max(64, min(m, max_samples))


def _check_params(tau: float, rho: float, beta: float) -> None:
    if not 0 < tau < 1:
        raise ReproducibilityError(f"tau must lie in (0, 1), got {tau}")
    if not 0 < rho < 1:
        raise ReproducibilityError(f"rho must lie in (0, 1), got {rho}")
    if not 0 < beta < 1:
        raise ReproducibilityError(f"beta must lie in (0, 1), got {beta}")
