"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without also swallowing programming
errors (``TypeError``, ``KeyError``, ...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class InvalidInstanceError(ReproError):
    """A Knapsack instance violates a structural invariant.

    Raised, for example, when an item has negative profit or weight, when
    an item's weight exceeds the knapsack capacity (the paper's model in
    Definition 2.2 requires every individual weight to be at most K), or
    when profits fail the total-profit-one normalization.
    """


class NormalizationError(InvalidInstanceError):
    """Profits (or weights) could not be normalized as required."""


class QueryBudgetExceededError(ReproError):
    """An algorithm exceeded its allotted number of oracle queries.

    The query budget is the central resource of the LCA model: the paper's
    lower bounds are statements about how many oracle queries *any* LCA
    must spend per output query.  Budgeted oracles raise this error when
    the budget is exhausted, which the lower-bound harness uses to cut off
    strategies that would read too much of the input.
    """

    def __init__(self, budget: int, attempted: int) -> None:
        self.budget = budget
        self.attempted = attempted
        super().__init__(
            f"query budget exhausted: budget={budget}, attempted query #{attempted}"
        )


class OracleError(ReproError):
    """Malformed interaction with an instance oracle (e.g. bad index)."""


class SolverError(ReproError):
    """An exact or approximate solver failed or was misconfigured."""


class InfeasibleSolutionError(SolverError):
    """A produced solution violates the knapsack capacity constraint."""


class ReproducibilityError(ReproError):
    """A reproducible-algorithm invariant was violated.

    Raised for misuse of :mod:`repro.reproducible` (e.g. empty sample,
    parameters outside their documented ranges), *not* for the stochastic
    event of two runs disagreeing — that event is the ρ failure
    probability and is reported by the consistency checkers, not raised.
    """


class DomainError(ReproducibilityError):
    """A value fell outside the finite domain used by rMedian/rQuantile."""


class ConsistencyViolation(ReproError):
    """Two runs of an LCA that share a seed answered inconsistently.

    Carried by the audit reports in :mod:`repro.lca.consistency`; raised
    only when the caller asked for strict enforcement.
    """

    def __init__(self, query: int, answers: tuple) -> None:
        self.query = query
        self.answers = answers
        super().__init__(
            f"inconsistent LCA answers for query {query}: observed {answers}"
        )


class ExperimentError(ReproError):
    """An experiment/benchmark harness was misconfigured."""


class FaultInjectionError(ReproError):
    """An injected (or injected-and-unrecovered) fault surfaced to the caller.

    The fault-injection layer (:mod:`repro.faults`) models oracle access
    as an unreliable, costed resource: probes can fail, time out, or come
    back corrupted.  Every concrete fault error carries a machine-readable
    ``reason_code`` so degraded answers and chaos reports can account for
    failures without parsing messages.
    """

    reason_code = "fault-injected"


class ProbeFailureError(FaultInjectionError):
    """A charged probe's response was lost (transient; retryable).

    The probe *was* charged against the budget before failing — the model
    is "the query reached the oracle, the answer did not come back", so
    retries pay again.  This is what keeps the resource accounting honest
    with respect to Theorems 3.2-3.4: faults never grant free queries.
    """

    reason_code = "probe-failure"

    def __init__(self, probe: str, attempt: int = 1) -> None:
        self.probe = probe
        self.attempt = attempt
        super().__init__(f"injected failure on probe {probe!r} (attempt {attempt})")


class ProbeTimeoutError(FaultInjectionError):
    """A probe's injected latency exceeded the per-probe timeout (transient)."""

    reason_code = "probe-timeout"

    def __init__(self, probe: str, latency_s: float, timeout_s: float) -> None:
        self.probe = probe
        self.latency_s = latency_s
        self.timeout_s = timeout_s
        super().__init__(
            f"probe {probe!r} took {latency_s:.4g}s (injected), timeout {timeout_s:.4g}s"
        )


class CorruptProbeError(FaultInjectionError):
    """A delivered probe failed the plausibility audit (transient; retryable).

    Raised by :class:`~repro.faults.audit.ProbeAuditor` when a delivered
    item or block is implausible — non-finite or negative profit/weight,
    or a finite nonzero efficiency strictly outside the reproducible
    domain's range.  The probe *was* charged (charge-then-lose, like
    every fault), and the answer is discarded rather than trusted: a
    retry re-probes and re-pays, turning silent corruption into a
    recoverable fault instead of a wrong answer.
    """

    reason_code = "corrupt-probe"

    def __init__(self, probe: str, detail: str = "") -> None:
        self.probe = probe
        self.detail = detail
        super().__init__(
            f"implausible response on probe {probe!r}"
            + (f": {detail}" if detail else "")
        )


class RetriesExhaustedError(FaultInjectionError):
    """A transient fault persisted through every allowed retry.

    ``last_error`` is the final transient failure; ``attempts`` counts
    every probe attempt made (initial try plus retries), all of which
    were charged against the budget.
    """

    reason_code = "retries-exhausted"

    def __init__(self, probe: str, attempts: int, last_error: Exception) -> None:
        self.probe = probe
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(
            f"probe {probe!r} failed {attempts} attempt(s); last error: {last_error}"
        )


class ShardFailureError(FaultInjectionError):
    """A parallel shard (process-pool worker) died and exhausted its requeues."""

    reason_code = "shard-failure"

    def __init__(self, shard: int, attempts: int, last_error: Exception) -> None:
        self.shard = shard
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(
            f"shard {shard} failed {attempts} attempt(s); last error: {last_error!r}"
        )


class DeadlineExceededError(FaultInjectionError):
    """A query's deadline passed before (or at) dispatch.

    Raised by the overload governor's admission gate: serving an answer
    nobody is waiting for wastes capacity the queue behind it needs, so
    already-doomed work is shed *before* it touches the oracle.  No
    probe is charged — the query never ran — which keeps shedding
    honest with respect to Theorems 3.2-3.4: a deadline miss is an
    availability loss, never a free query.
    """

    reason_code = "deadline-exceeded"

    def __init__(self, deadline_s: float, now_s: float) -> None:
        self.deadline_s = deadline_s
        self.now_s = now_s
        super().__init__(
            f"deadline {deadline_s:.6g}s passed before dispatch (now {now_s:.6g}s)"
        )


class WatchdogTimeoutError(FaultInjectionError):
    """A process-shard future blew its watchdog deadline (stuck shard).

    The shard may still be running (wedged, not dead); the watchdog
    treats it exactly like a killed worker — the attempt is abandoned
    and the shard requeues through the existing worker-death path, its
    already-charged probes staying charged.
    """

    reason_code = "watchdog-timeout"

    def __init__(self, shard: int, deadline_s: float) -> None:
        self.shard = shard
        self.deadline_s = deadline_s
        super().__init__(
            f"shard {shard} exceeded its {deadline_s:.4g}s watchdog deadline"
        )


class SharedMemoryError(ReproError):
    """A shared-memory instance segment operation failed.

    The shared-memory tier (:mod:`repro.knapsack.shm`) hands out
    :class:`~repro.knapsack.shm.SharedInstanceHandle` tokens whose
    validity the owner controls; every concrete failure carries a
    machine-readable ``reason_code`` mirroring the fault hierarchy, so
    degraded paths and obs counters can account for segment problems
    without parsing messages.
    """

    reason_code = "shm-error"


class SegmentMissingError(SharedMemoryError):
    """An attach targeted a segment that no longer exists.

    Raised when a handle outlives its segment — typically an
    attach-after-unlink: the owning store was closed (or its process
    exited) before a worker attached.  The attach fails *before* any
    probe is billed; callers holding a stale handle must obtain a fresh
    one from a live store.
    """

    reason_code = "segment-missing"

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"shared-memory segment {name!r} does not exist (unlinked?)")


class DigestMismatchError(SharedMemoryError):
    """An attached segment's content digest does not match its handle.

    The handle pins the instance identity (n, capacity and a content
    digest over the profit/weight columns); a mismatch means the segment
    was recycled or corrupted.  Verification happens at attach time,
    before any query is billed, so a poisoned segment can never silently
    serve answers for the wrong instance.
    """

    reason_code = "digest-mismatch"

    def __init__(self, name: str, expected: str, actual: str) -> None:
        self.name = name
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"segment {name!r} digest mismatch: handle pinned {expected!r}, "
            f"segment holds {actual!r}"
        )
