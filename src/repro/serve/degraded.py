"""Graceful degradation: reason-coded answers when the LCA path fails.

When probes fail past retry, or the oracle budget runs dry, a strict
service re-raises (today's behavior).  A non-strict service walks the
**degradation ladder** instead and keeps answering:

1. **cache** — any memoized pipeline for this exact configuration
   (fingerprint, seed, params; *any* nonce) still encodes a valid
   solution C; apply its decision rule to the queried items.
2. **greedy** — a once-computed prefix-greedy include mask over the raw
   instance (the classic 1/2-approximation the paper builds on); cheap,
   deterministic, feasible.
3. **trivial** — the empty solution (always feasible; the paper's
   trivial LCA baseline), for implicit instances with no materialized
   arrays.

Every degraded answer is *labeled*: a machine-readable ``reason_code``
(why the LCA path failed) plus ``source`` (which ladder rung answered),
so callers, metrics, and chaos reports can never mistake a degraded
answer for a Theorem 4.1 answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import FaultInjectionError, QueryBudgetExceededError
from ..knapsack.instance import KnapsackInstance
from ..obs import runtime as _obs

__all__ = [
    "DEGRADED_REASON_CODES",
    "DegradedAnswer",
    "GreedyFallback",
    "degraded_answers",
    "reason_code_for",
]

#: Every reason code a :class:`DegradedAnswer` may carry.
DEGRADED_REASON_CODES = (
    "budget-exhausted",
    "probe-failure",
    "probe-timeout",
    "corrupt-probe",
    "retries-exhausted",
    "shard-failure",
    "fault-injected",
    "deadline-exceeded",
    "brownout",
    "watchdog-timeout",
    "unrecoverable",
)


def reason_code_for(exc: BaseException) -> str:
    """Map a failure to its machine-readable degradation reason."""
    if isinstance(exc, QueryBudgetExceededError):
        return "budget-exhausted"
    if isinstance(exc, FaultInjectionError):
        return exc.reason_code
    return "unrecoverable"


@dataclass(frozen=True)
class DegradedAnswer:
    """A reason-coded answer served off the degradation ladder.

    Duck-compatible with :class:`~repro.core.lca_kp.LCAAnswer` where it
    matters (``index``, ``include``, ``reason``) but marked
    ``degraded=True`` and carrying no run provenance — a degraded answer
    is *not* a Theorem 4.1 answer and never pretends to be.
    """

    index: int
    include: bool
    reason_code: str
    source: str  # "cache" | "greedy" | "trivial" | "shed"
    detail: str = ""
    degraded: bool = True
    #: Batches the answering pipeline was off the warm path when the
    #: cache rung served it (0 = same batch); ``None`` off-cache.
    staleness: int | None = None

    @property
    def reason(self) -> str:
        """LCAAnswer-compatible reason string."""
        return f"degraded:{self.reason_code}:{self.source}"

    def to_dict(self) -> dict:
        """JSON-ready form (round-trips through :meth:`from_dict`)."""
        doc = {
            "index": self.index,
            "include": self.include,
            "degraded": True,
            "reason_code": self.reason_code,
            "source": self.source,
            "detail": self.detail,
        }
        if self.staleness is not None:
            doc["staleness"] = self.staleness
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "DegradedAnswer":
        """Rebuild from :meth:`to_dict` output."""
        staleness = doc.get("staleness")
        return cls(
            index=int(doc["index"]),
            include=bool(doc["include"]),
            reason_code=str(doc["reason_code"]),
            source=str(doc["source"]),
            detail=str(doc.get("detail", "")),
            staleness=None if staleness is None else int(staleness),
        )


def degraded_answers(
    idx, exc: BaseException, verdicts, source: str, staleness: int | None = None
) -> list[DegradedAnswer]:
    """Label ladder ``verdicts`` for ``idx`` as degraded by ``exc``.

    The one builder of ladder answers, wherever the shard ran: records
    the ``serve.degraded`` flight event (with ``staleness`` when the
    cache rung answered) and returns one :class:`DegradedAnswer` per
    index.
    """
    code = reason_code_for(exc)
    detail = str(exc)
    _obs.record_event(
        "serve.degraded",
        queries=len(idx),
        reason=code,
        source=source,
        **({} if staleness is None else {"staleness": staleness}),
    )
    return [
        DegradedAnswer(
            index=int(i), include=inc, reason_code=code,
            source=source, detail=detail, staleness=staleness,
        )
        for i, inc in zip(idx, verdicts)
    ]


class GreedyFallback:
    """Once-computed cheap decision rule for degraded answers.

    For explicit instances: the prefix-greedy include mask (value >=
    OPT/2 together with the best singleton; here the prefix alone — the
    point is feasible-and-cheap, not optimal).  For implicit instances:
    the trivial empty solution.
    """

    def __init__(self, instance) -> None:
        self._n = instance.n
        if isinstance(instance, KnapsackInstance):
            from ..knapsack.solvers.greedy import prefix_greedy

            result = prefix_greedy(instance)
            mask = np.zeros(instance.n, dtype=bool)
            mask[list(result.indices)] = True
            self._mask: np.ndarray | None = mask
            self.source = "greedy"
        else:
            self._mask = None
            self.source = "trivial"

    def decide(self, index: int) -> bool:
        """Fallback inclusion verdict for one item."""
        if self._mask is None:
            return False
        return bool(self._mask[index])

    def decide_many(self, indices) -> list[bool]:
        """Vectorized fallback verdicts."""
        if self._mask is None:
            return [False] * len(list(indices))
        return [bool(b) for b in self._mask[np.asarray(list(indices), dtype=np.int64)]]

    def degrade(self, idx, exc: BaseException) -> list[DegradedAnswer]:
        """The greedy (or trivial) rung's labeled answers for ``idx``."""
        return degraded_answers(idx, exc, self.decide_many(idx), self.source)
