"""Bounded, budget-honest retries over unreliable probes.

:class:`RetryPolicy` is the recovery half of the fault model: transient
probe failures (:class:`~repro.errors.ProbeFailureError`,
:class:`~repro.errors.ProbeTimeoutError`) are retried a bounded number
of times with exponential backoff and *deterministic* jitter (drawn from
a seed chain keyed by the probe label and attempt number — no wall
clock, no global RNG).  Three invariants:

* **budget honesty** — every retry re-executes the real probe, which
  re-charges the budget; when retries push past it, the oracle's own
  :class:`~repro.errors.QueryBudgetExceededError` escapes *immediately*
  (budget exhaustion is not transient — Theorems 3.2-3.4 are exactly
  statements about this resource, so the policy never papers over it);
* **bounded work** — after ``max_retries`` re-probes the last transient
  error is wrapped in :class:`~repro.errors.RetriesExhaustedError`
  (still a :class:`~repro.errors.FaultInjectionError`, so the serving
  layer's degradation ladder catches it);
* **virtual time** — backoff is accumulated, never slept; chaos sweeps
  stay deterministic and fast.

:class:`RetryingAccess` applies the policy to every probe of a wrapped
access object, so :class:`~repro.core.LCAKP` gains retries without
knowing they exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..access.seeds import SeedChain
from ..errors import (
    CorruptProbeError,
    ProbeFailureError,
    ProbeTimeoutError,
    QueryBudgetExceededError,
    ReproError,
    RetriesExhaustedError,
)
from ..obs import runtime as _obs
from .audit import ProbeAuditor
from .layer import ProbeLayer

__all__ = ["TRANSIENT_FAULTS", "RetryOutcome", "RetryPolicy", "RetryingAccess"]

#: Fault errors a retry may recover from.  Budget exhaustion is absent on
#: purpose: a re-probe cannot un-spend the budget.  A detected corruption
#: is transient in the same sense a lost response is: the charged probe
#: yielded nothing usable, and a fresh probe may succeed.
TRANSIENT_FAULTS = (ProbeFailureError, ProbeTimeoutError, CorruptProbeError)


@dataclass(frozen=True)
class RetryOutcome:
    """Result plus the bill of one retried (and possibly hedged) probe.

    ``hedges`` counts backup probes fired by the hedging extension (each
    one charged the budget like any probe); ``latency_saved_s`` is the
    virtual tail-latency cut when a backup beat a slow primary.
    """

    value: Any
    attempts: int
    retries: int
    backoff_s: float
    hedges: int = 0
    latency_saved_s: float = 0.0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic jitter.

    Parameters
    ----------
    max_retries:
        Re-probes allowed after the first attempt (0 disables retrying).
    backoff_base_s, backoff_factor:
        Attempt ``k`` (1-based) backs off ``base * factor**(k-1)``
        seconds before re-probing.
    jitter:
        Fractional jitter; the actual delay is scaled by
        ``1 + jitter * u`` with ``u`` drawn deterministically from
        ``(seed, labels, attempt)``.
    probe_timeout_s:
        Per-probe timeout handed to the fault injectors (an injected
        latency spike above it is a transient timeout).
    hedge_after_s:
        Per-probe hedging: when set, a backup probe fires this many
        (virtual) seconds after the primary instead of waiting for the
        timeout verdict.  A timed-out primary re-probes after only
        ``hedge_after_s`` (no backoff — the backup was already in
        flight), and a slow-but-successful primary races one backup,
        the earlier virtual finisher winning.  At most one hedge per
        logical probe; every backup is a real charged probe (budget
        honesty is untouched), and which probe wins is a deterministic
        function of the seeded fault plan.  ``None`` disables.
    seed:
        Root of the jitter seed chain.
    """

    max_retries: int = 3
    backoff_base_s: float = 0.001
    backoff_factor: float = 2.0
    jitter: float = 0.1
    probe_timeout_s: float | None = None
    hedge_after_s: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ReproError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_s < 0 or self.backoff_factor < 1.0:
            raise ReproError("backoff must use base >= 0 and factor >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ReproError(f"jitter must lie in [0, 1], got {self.jitter}")
        if self.hedge_after_s is not None and self.hedge_after_s <= 0:
            raise ReproError(
                f"hedge_after_s must be > 0 (or None), got {self.hedge_after_s}"
            )

    def backoff_s(self, labels: tuple, attempt: int) -> float:
        """Deterministic delay before re-probe number ``attempt`` (1-based)."""
        base = self.backoff_base_s * self.backoff_factor ** (attempt - 1)
        u = (
            SeedChain(int(self.seed))
            .child("__retry__")
            .descend(str(x) for x in labels)
            .child(attempt)
            .uniform()
        )
        return base * (1.0 + self.jitter * u)

    def execute(
        self,
        fn: Callable[[], Any],
        *,
        labels: tuple = (),
        probe_latency: Callable[[], float] | None = None,
    ) -> RetryOutcome:
        """Run ``fn`` under the policy; returns value plus the retry bill.

        Only :data:`TRANSIENT_FAULTS` are retried; anything else —
        including :class:`~repro.errors.QueryBudgetExceededError` raised
        by a re-probe that ran the budget dry — propagates unchanged.

        ``probe_latency`` (when hedging is on) reads the cumulative
        virtual latency the probe path has accrued — the fault
        injectors' ``latency_injected_s`` — so the policy can tell a
        slow primary from a fast one without a wall clock.
        """
        retries = 0
        backoff = 0.0
        hedges = 0
        saved = 0.0
        hedge = self.hedge_after_s
        while True:
            start = (
                probe_latency()
                if hedge is not None and probe_latency is not None
                else None
            )
            try:
                value = fn()
            except TRANSIENT_FAULTS as exc:
                if (
                    hedge is not None
                    and hedges == 0
                    and isinstance(exc, ProbeTimeoutError)
                ):
                    # The backup fired hedge_after_s after the primary —
                    # before the timeout verdict — so the re-probe costs
                    # only the hedge delay, no backoff, and does not
                    # consume the retry budget.  One hedge per probe.
                    hedges += 1
                    backoff += hedge
                    continue
                retries += 1
                if retries > self.max_retries:
                    raise RetriesExhaustedError(
                        "/".join(str(x) for x in labels) or "probe", retries, exc
                    ) from exc
                delay = self.backoff_s(labels, retries)
                backoff += delay
                continue
            if start is not None and hedges == 0:
                primary_latency = probe_latency() - start
                if primary_latency > hedge:
                    # Slow-but-successful primary: the backup had been
                    # racing it since hedge_after_s.  Fire it (charged),
                    # keep whichever would have finished first in
                    # virtual time.  The primary's answer already exists,
                    # so a failing backup — even one that drains the
                    # budget — never loses the probe.
                    hedges += 1
                    b0 = probe_latency()
                    try:
                        backup = fn()
                    except TRANSIENT_FAULTS + (QueryBudgetExceededError,):
                        backup = None
                    else:
                        backup_latency = probe_latency() - b0
                        if hedge + backup_latency < primary_latency:
                            saved += primary_latency - (hedge + backup_latency)
                            value = backup
            return RetryOutcome(
                value=value,
                attempts=retries + hedges + 1,
                retries=retries,
                backoff_s=backoff,
                hedges=hedges,
                latency_saved_s=saved,
            )


class RetryingAccess(ProbeLayer):
    """Apply a :class:`RetryPolicy` to every probe of an oracle or sampler.

    Each probe runs under :meth:`RetryPolicy.execute` with labels
    ``(resource, probe, calls)``, where ``calls`` counts this layer's
    probes.  With ``audit`` set, every delivered item or block also
    passes a :class:`~repro.faults.audit.ProbeAuditor` plausibility
    check *inside* the retried call, so an implausible delivery triggers
    a fresh (re-charged) probe exactly like a lost one.

    A retried draw calls the inner sampler again with the *same*
    generator, consuming fresh values: the lost draws are gone (like the
    budget that paid for them), and the run proceeds with new samples.
    The run remains a perfectly valid stateless LCA run — fresh samples
    are arbitrary by Definition 2.5 — but under nonzero fault rates two
    runs sharing a nonce may no longer be bit-identical; see
    ``docs/robustness.md`` for the consistency ladder.
    """

    def __init__(
        self, inner, policy: RetryPolicy, *, audit: ProbeAuditor | None = None
    ) -> None:
        super().__init__(inner)
        self._policy = policy
        self._audit = audit
        self._calls = 0
        self._retries = 0
        self._backoff_s = 0.0
        self._hedges = 0
        self._latency_saved_s = 0.0
        # Hedging reads the injector's cumulative virtual latency to
        # tell slow probes from fast ones; without an injector below us
        # there is no latency concept and hedging is inert.
        self._hedging = policy.hedge_after_s is not None and hasattr(
            inner, "latency_injected_s"
        )

    @property
    def policy(self) -> RetryPolicy:
        """The retry policy in force."""
        return self._policy

    @property
    def audit(self) -> ProbeAuditor | None:
        """The plausibility auditor, if corruption detection is on."""
        return self._audit

    @property
    def retries_used(self) -> int:
        """Total re-probes performed (each one was charged)."""
        return self._retries

    @property
    def backoff_s(self) -> float:
        """Total virtual backoff accumulated."""
        return self._backoff_s

    @property
    def hedges_used(self) -> int:
        """Backup probes fired by the hedging extension (each charged)."""
        return self._hedges

    @property
    def hedge_latency_saved_s(self) -> float:
        """Virtual tail latency cut by backups that beat slow primaries."""
        return self._latency_saved_s

    def _latency(self) -> float:
        return float(self._inner.latency_injected_s)

    def _probe(self, resource, probe, call):
        if self._audit is not None:
            check = (
                self._audit.check_block
                if probe.endswith("_block")
                else self._audit.check_item
            )
            raw = call
            call = lambda: check(raw(), probe)
        self._calls += 1
        try:
            outcome = self._policy.execute(
                call,
                labels=(resource, probe, self._calls),
                probe_latency=self._latency if self._hedging else None,
            )
        except RetriesExhaustedError as exc:
            _obs.record_event(
                "retry.exhausted",
                resource=resource,
                probe=probe,
                attempts=exc.attempts,
                reason=getattr(exc.last_error, "reason_code", "unknown"),
            )
            raise
        if outcome.retries:
            self._retries += outcome.retries
            self._backoff_s += outcome.backoff_s
            _obs.record_probe_retries(outcome.retries)
            _obs.record_event(
                "retry.recovered",
                resource=resource,
                probe=probe,
                retries=outcome.retries,
            )
        if outcome.hedges:
            self._hedges += outcome.hedges
            self._latency_saved_s += outcome.latency_saved_s
            if not outcome.retries:
                self._backoff_s += outcome.backoff_s
            _obs.record_probe_hedges(outcome.hedges)
            _obs.record_event(
                "retry.hedged",
                resource=resource,
                probe=probe,
                hedges=outcome.hedges,
            )
        return outcome.value
