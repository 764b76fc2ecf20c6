"""Fault injection and resilience: oracle access as an unreliable resource.

The LCA model's central resource is the per-query probe budget; this
package treats each probe as something that can *fail* — deterministic,
seeded fault injection (:class:`FaultPlan`, :class:`FaultyAccess`),
bounded budget-honest recovery (:class:`RetryPolicy`,
:class:`RetryingAccess`), plausibility auditing that turns silent
corruption into a retryable fault (:class:`ProbeAuditor`), and seeded
chaos sweeps (:func:`chaos_sweep`) that certify availability under each
fault rate.  Both wrappers are :class:`ProbeLayer` subclasses: one hook
around every probe, every accounting face forwarded.  See
``docs/robustness.md``.
"""

from .audit import ProbeAuditor
from .chaos import CHAOS_DEFAULTS, CHAOS_SCHEMA, chaos_document, chaos_sweep, run_chaos
from .injectors import FaultyAccess
from .layer import ProbeLayer
from .plan import FaultDecision, FaultPlan, FaultStream
from .retry import TRANSIENT_FAULTS, RetryOutcome, RetryPolicy, RetryingAccess

__all__ = [
    "CHAOS_DEFAULTS",
    "CHAOS_SCHEMA",
    "FaultDecision",
    "FaultPlan",
    "FaultStream",
    "FaultyAccess",
    "ProbeAuditor",
    "ProbeLayer",
    "RetryOutcome",
    "RetryPolicy",
    "RetryingAccess",
    "TRANSIENT_FAULTS",
    "chaos_document",
    "chaos_sweep",
    "run_chaos",
]
