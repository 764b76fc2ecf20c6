"""Fault injection for the access layer.

:class:`FaultyAccess` wraps a real oracle or sampler and presents the
same interface (a :class:`~repro.faults.layer.ProbeLayer`, so it
satisfies :func:`~repro.access.cost.ensure_cost_meter`): an
:class:`~repro.core.LCAKP` built over it cannot tell it is being
sabotaged — which is the point.

The failure model is *charge-then-lose*: the wrapped probe executes
first (budget charged, algorithm RNG consumed, transcript recorded) and
only then may the response be lost or corrupted.  A failed probe is a
paid probe; a retried probe pays again.  This keeps the oracle-budget
accounting — the currency of Theorems 3.2-3.4 — honest under any fault
pattern: faults can only *waste* budget, never mint it.

One probe = one fault decision.  A point query or draw is one probe; a
columnar block (``query_block`` / ``sample_block``) is one probe no
matter how many rows it carries, mirroring its single accounting call.
"""

from __future__ import annotations

from ..access.blocks import Sample, SampleBlock
from ..errors import ProbeFailureError, ProbeTimeoutError
from ..knapsack.items import Item
from ..obs import runtime as _obs
from .layer import ProbeLayer
from .plan import FaultStream

__all__ = ["FaultyAccess"]


class FaultyAccess(ProbeLayer):
    """Decorate an oracle or a sampler with injected faults.

    A wrapped sampler draws from the *algorithm's* generator exactly as
    it would unwrapped (a lost response still consumed those draws —
    they are gone, like the budget that paid for them), while fault
    coins come from the plan's own stream.

    Parameters
    ----------
    inner:
        The real access object; all accounting (budget, log, cache)
        lives there.
    stream:
        A :meth:`~repro.faults.FaultPlan.stream` for this resource.
    timeout_s:
        Per-probe timeout; an injected latency spike above it raises
        :class:`~repro.errors.ProbeTimeoutError` (still charged).
        ``None`` means spikes only accumulate virtual latency.

    The fault bookkeeping is public: ``probes`` (decisions taken),
    ``probe_failures`` and ``timeouts`` (charged probes whose response
    was lost), ``corruptions`` (responses silently perturbed) and
    ``latency_injected_s`` (total virtual latency of spikes below the
    timeout).
    """

    def __init__(
        self, inner, stream: FaultStream, *, timeout_s: float | None = None
    ) -> None:
        super().__init__(inner)
        self._stream = stream
        self._timeout_s = timeout_s
        self.probes = 0
        self.probe_failures = 0
        self.timeouts = 0
        self.corruptions = 0
        self.latency_injected_s = 0.0

    def _probe(self, resource, probe, call):
        """Run the charged probe, then the fault gate; scale the profit
        of a corrupted response."""
        value = call()
        factor = self._inject(f"{resource}.{probe}")
        if factor is None:
            return value
        if isinstance(value, SampleBlock):
            return SampleBlock(value.indices, value.profits * factor, value.weights)
        if isinstance(value, Sample):
            return Sample(value.index, Item(value.item.profit * factor, value.item.weight))
        return Item(value.profit * factor, value.weight)

    def _inject(self, probe: str) -> float | None:
        """Post-charge fault gate; return a corruption factor or None.

        Raises the transient fault errors; every path records itself in
        the process-global metrics registry so chaos sweeps show up in
        ``repro metrics`` next to the cost counters.
        """
        decision = self._stream.decide()
        self.probes += 1
        if decision.fail:
            self.probe_failures += 1
            _obs.record_fault("probe_failures")
            _obs.record_event("fault.probe_failure", probe=probe)
            raise ProbeFailureError(probe)
        if decision.latency_s > 0.0:
            timeout_s = self._timeout_s
            if timeout_s is not None and decision.latency_s > timeout_s:
                self.timeouts += 1
                _obs.record_fault("timeouts")
                _obs.record_event("fault.timeout", probe=probe)
                raise ProbeTimeoutError(probe, decision.latency_s, timeout_s)
            self.latency_injected_s += decision.latency_s
            _obs.record_fault("latency_spikes")
            _obs.record_event("fault.latency_spike", probe=probe)
        if decision.corrupt:
            self.corruptions += 1
            _obs.record_fault("corruptions")
            _obs.record_event("fault.corruption", probe=probe)
            return decision.corruption_factor
        return None
