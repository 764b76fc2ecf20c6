"""Seeded, deterministic fault plans.

A :class:`FaultPlan` is the whole configuration of an unreliable-oracle
experiment: which fault kinds fire and how often.  Every injection
decision is drawn from a *fault stream* — a numpy generator seeded
through a :class:`~repro.access.SeedChain` under the reserved
``"__faults__"`` label — so that

* injections are bit-reproducible: same plan, same stream labels, same
  probe sequence => same faults, byte for byte;
* the algorithm's own RNG stream is never perturbed: fault coins come
  from a disjoint seed-chain subtree, so a rate-0 plan is observationally
  identical to no plan at all (the equivalence property test pins this).

Shard-kill decisions are label-derived scalars (no stream state), so a
requeued shard can re-evaluate its own fate deterministically from
``(nonce, attempt)`` alone — attempt ``k`` of a shard is killed or
spared identically no matter which process asks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..access.seeds import SeedChain
from ..errors import ReproError

__all__ = ["FaultDecision", "FaultPlan", "FaultStream"]


@dataclass(frozen=True)
class FaultDecision:
    """The fault outcome for one probe (one point query or one block)."""

    fail: bool
    latency_s: float
    corrupt: bool
    corruption_factor: float

    @property
    def clean(self) -> bool:
        """True when the probe proceeds untouched."""
        return not self.fail and not self.corrupt and self.latency_s == 0.0


class FaultStream:
    """A deterministic per-resource stream of :class:`FaultDecision`.

    Each call to :meth:`decide` consumes a fixed number of draws from the
    stream's private generator regardless of which faults fire, so the
    decision at probe ``k`` depends only on ``(plan seed, labels, k)`` —
    never on the fault *rates* of earlier probes' outcomes.
    """

    __slots__ = ("_rng", "_plan", "decisions")

    def __init__(self, rng: np.random.Generator, plan: "FaultPlan") -> None:
        self._rng = rng
        self._plan = plan
        self.decisions = 0

    def decide(self) -> FaultDecision:
        """Draw the fault outcome for the next probe."""
        plan = self._plan
        coins = self._rng.random(4)  # fixed consumption per probe
        self.decisions += 1
        fail = bool(coins[0] < plan.probe_failure_rate)
        latency = plan.latency_spike_s if coins[1] < plan.latency_spike_rate else 0.0
        corrupt = bool(coins[2] < plan.corruption_rate)
        # Symmetric multiplicative perturbation in [1 - s, 1 + s].
        factor = 1.0 + plan.corruption_scale * (2.0 * float(coins[3]) - 1.0)
        return FaultDecision(
            fail=fail, latency_s=latency, corrupt=corrupt, corruption_factor=factor
        )


@dataclass(frozen=True)
class FaultPlan:
    """Configuration of a deterministic fault-injection experiment.

    Parameters
    ----------
    seed:
        Root seed of the fault subtree.  All fault streams and shard-kill
        coins derive from it; the algorithm's seed is untouched.
    probe_failure_rate:
        Probability that a charged probe's response is lost
        (:class:`~repro.errors.ProbeFailureError`; transient, retryable).
    latency_spike_rate, latency_spike_s:
        Probability and size of an injected latency spike.  Latency is
        *virtual* — accumulated, never slept — and only becomes an error
        when it exceeds a per-probe timeout
        (:class:`~repro.errors.ProbeTimeoutError`).
    corruption_rate, corruption_scale:
        Probability that a probe's response comes back with profits
        multiplied by a factor in ``[1 - scale, 1 + scale]``.  Silent
        by default (chaos reports count it); a
        :class:`~repro.faults.audit.ProbeAuditor` under a retry policy
        (``probe_audit=True`` on the service) detects a delivery whose
        perturbed efficiency leaves the plausible range and re-probes
        it like a lost one.
    shard_kill_rate, shard_kill_attempts:
        Probability that a process-pool shard attempt is killed outright
        (``os._exit`` in the child => ``BrokenProcessPool`` in the
        parent).  Only attempts with index below ``shard_kill_attempts``
        are eligible, so ``rate=1.0, attempts=1`` deterministically kills
        every first attempt and spares every requeue — the worker-death
        recovery scenario the resilience tests pin.
    shard_stall_rate, shard_stall_s, shard_stall_attempts:
        Probability that a process-pool shard attempt *wedges* — sleeps
        ``shard_stall_s`` real seconds before doing any work, modeling a
        stuck worker that is alive but not progressing.  Like kills,
        only attempts below ``shard_stall_attempts`` are eligible, so
        ``rate=1.0, attempts=1`` deterministically stalls every first
        attempt and spares every requeue — the stuck-shard-watchdog
        scenario.  A stall long enough to blow the service's shard
        deadline surfaces as a watchdog timeout and requeue.
    """

    seed: int = 0
    probe_failure_rate: float = 0.0
    latency_spike_rate: float = 0.0
    latency_spike_s: float = 0.05
    corruption_rate: float = 0.0
    corruption_scale: float = 0.01
    shard_kill_rate: float = 0.0
    shard_kill_attempts: int = 1
    shard_stall_rate: float = 0.0
    shard_stall_s: float = 0.25
    shard_stall_attempts: int = 1

    def __post_init__(self) -> None:
        for name in ("probe_failure_rate", "latency_spike_rate", "corruption_rate",
                     "shard_kill_rate", "shard_stall_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ReproError(f"{name} must lie in [0, 1], got {rate}")
        if self.latency_spike_s < 0:
            raise ReproError(f"latency_spike_s must be >= 0, got {self.latency_spike_s}")
        if not 0.0 <= self.corruption_scale < 1.0:
            raise ReproError(
                f"corruption_scale must lie in [0, 1), got {self.corruption_scale}"
            )
        if self.shard_kill_attempts < 0:
            raise ReproError(
                f"shard_kill_attempts must be >= 0, got {self.shard_kill_attempts}"
            )
        if self.shard_stall_s < 0:
            raise ReproError(
                f"shard_stall_s must be >= 0, got {self.shard_stall_s}"
            )
        if self.shard_stall_attempts < 0:
            raise ReproError(
                f"shard_stall_attempts must be >= 0, got {self.shard_stall_attempts}"
            )

    # ------------------------------------------------------------------
    @property
    def is_null(self) -> bool:
        """True when no fault kind can ever fire under this plan."""
        return (
            self.probe_failure_rate == 0.0
            and self.latency_spike_rate == 0.0
            and self.corruption_rate == 0.0
            and self.shard_kill_rate == 0.0
            and self.shard_stall_rate == 0.0
        )

    def _chain(self) -> SeedChain:
        return SeedChain(int(self.seed)).child("__faults__")

    def stream(self, *labels: str | int) -> FaultStream:
        """A fresh fault stream for the resource named by ``labels``.

        Two streams with equal plans and labels replay identical fault
        sequences; distinct labels are independent.
        """
        return FaultStream(self._chain().descend(labels).rng(), self)

    def shard_kill(self, nonce: int, attempt: int) -> bool:
        """Deterministic kill verdict for shard ``(nonce, attempt)``.

        Label-derived (stateless), so parent and child agree without
        sharing anything, and a requeued attempt re-evaluates its own
        coin rather than its predecessor's.
        """
        if self.shard_kill_rate <= 0.0 or attempt >= self.shard_kill_attempts:
            return False
        coin = self._chain().child("shard-kill").child(int(nonce)).child(int(attempt)).uniform()
        return coin < self.shard_kill_rate

    def shard_stall(self, nonce: int, attempt: int) -> float:
        """Deterministic stall (seconds) for shard ``(nonce, attempt)``.

        Label-derived like :meth:`shard_kill` — stateless, so the
        watchdog's requeue re-evaluates its own coin.  Returns ``0.0``
        when the attempt is spared.
        """
        if self.shard_stall_rate <= 0.0 or attempt >= self.shard_stall_attempts:
            return 0.0
        coin = (
            self._chain()
            .child("shard-stall")
            .child(int(nonce))
            .child(int(attempt))
            .uniform()
        )
        return self.shard_stall_s if coin < self.shard_stall_rate else 0.0
