"""Tests for the probe plausibility audit (corruption detection).

Silent corruption is the one injected fault the retry layer could not
see: the probe "succeeds", just with perturbed numbers.  The auditor
closes that gap by checking every delivered response against the
efficiency domain's plausible range; a violation becomes a reason-coded
:class:`CorruptProbeError`, which is transient — the probe is re-run
(and re-charged) like any lost response.
"""

import math

import numpy as np
import pytest

from repro.access.blocks import SampleBlock
from repro.access.oracle import QueryOracle
from repro.errors import CorruptProbeError, RetriesExhaustedError
from repro.faults import (
    FaultPlan,
    FaultyAccess,
    ProbeAuditor,
    RetryPolicy,
    RetryingAccess,
)
from repro.knapsack.items import Item
from repro.obs import runtime as rt


def block(profits, weights):
    n = len(profits)
    return SampleBlock(
        np.arange(n, dtype=np.int64),
        np.asarray(profits, dtype=float),
        np.asarray(weights, dtype=float),
    )


class CorruptedItem:
    """Stand-in for a corrupted response: real :class:`Item` validates
    its fields, but a fault-injected multiplication happens *after*
    construction, so the audit sees raw attributes like these."""

    def __init__(self, profit, weight):
        self.profit = profit
        self.weight = weight


class TestProbeAuditorUnit:
    def test_plausible_item_passes_and_is_returned(self):
        audit = ProbeAuditor(lo=0.1, hi=10.0)
        item = Item(2.0, 1.0)
        assert audit.check_item(item, "oracle.query") is item
        assert audit.checks == 1
        assert audit.violations == 0

    def test_out_of_range_efficiency_is_a_violation(self):
        audit = ProbeAuditor(lo=0.1, hi=10.0)
        with pytest.raises(CorruptProbeError) as exc:
            audit.check_item(Item(100.0, 1.0), "oracle.query")
        assert exc.value.reason_code == "corrupt-probe"
        assert audit.violations == 1

    def test_negative_and_non_finite_values_are_violations(self):
        audit = ProbeAuditor(lo=1e-12, hi=1e12)
        for bad in (CorruptedItem(-1.0, 1.0), CorruptedItem(1.0, -2.0),
                    CorruptedItem(math.nan, 1.0), CorruptedItem(1.0, math.inf)):
            with pytest.raises(CorruptProbeError):
                audit.check_item(bad, "oracle.query")

    def test_zero_and_infinite_efficiency_are_legal(self):
        # The domain absorbs extremes: profit 0 (eff 0) and weight 0
        # (eff inf) are representable, not corruption.
        audit = ProbeAuditor(lo=0.1, hi=10.0)
        audit.check_item(Item(0.0, 1.0), "oracle.query")
        audit.check_item(Item(1.0, 0.0), "oracle.query")
        assert audit.violations == 0

    def test_block_check_is_vectorized(self):
        audit = ProbeAuditor(lo=0.1, hi=10.0)
        good = block([1.0, 2.0, 0.0], [1.0, 1.0, 1.0])
        assert audit.check_block(good, "oracle.query_block") is good
        bad = block([1.0, 500.0], [1.0, 1.0])
        with pytest.raises(CorruptProbeError):
            audit.check_block(bad, "oracle.query_block")
        assert audit.checks == 2
        assert audit.violations == 1

    def test_empty_block_passes(self):
        audit = ProbeAuditor(lo=0.1, hi=10.0)
        audit.check_block(block([], []), "oracle.query_block")
        assert audit.violations == 0

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            ProbeAuditor(lo=0.0, hi=1.0)
        with pytest.raises(ValueError):
            ProbeAuditor(lo=2.0, hi=1.0)

    def test_detection_emits_flight_event_and_counter(self):
        rt.REGISTRY.reset()
        rt.RECORDER.clear()
        audit = ProbeAuditor(lo=0.1, hi=10.0)
        with pytest.raises(CorruptProbeError):
            audit.check_item(Item(1e6, 1.0), "oracle.query")
        counters = rt.REGISTRY.state()["counters"]
        assert counters["faults.corruptions_detected"] == 1
        # Detection is not injection: the injected-fault counter is the
        # saboteur's book, the detected counter is the defender's.
        assert counters.get("faults.injected", 0) == 0
        kinds = [e.kind for e in rt.RECORDER.events()]
        assert kinds == ["fault.corruption_detected"]


class TestAuditedRetryPath:
    def _instance(self):
        from repro.knapsack import generators

        return generators.efficiency_tiers(200, seed=11, tiers=4)

    def _tight_bounds(self, inst):
        effs = np.asarray(inst.profits) / np.asarray(inst.weights)
        return float(effs.min()), float(effs.max())

    def test_corruption_detected_and_retried_to_exhaustion(self):
        # Every probe corrupt, every re-probe corrupt too: the audit
        # must flag violations and the retry budget must run dry.
        inst = self._instance()
        lo, hi = self._tight_bounds(inst)
        plan = FaultPlan(seed=5, corruption_rate=1.0, corruption_scale=0.5)
        faulty = FaultyAccess(QueryOracle(inst), plan.stream("oracle"))
        audit = ProbeAuditor(lo=lo, hi=hi)
        retry = RetryingAccess(
            faulty, RetryPolicy(max_retries=2, seed=5), audit=audit
        )
        with pytest.raises(RetriesExhaustedError):
            for i in range(50):
                retry.query(i)
        assert audit.violations >= 1
        assert faulty.corruptions > audit.violations - 1  # re-probes re-charged

    def test_clean_oracle_passes_audit_untouched(self):
        # rate 0 + audit on must be observationally transparent.
        inst = self._instance()
        lo, hi = self._tight_bounds(inst)
        plan = FaultPlan(seed=5)
        faulty = FaultyAccess(QueryOracle(inst), plan.stream("oracle"))
        audited = RetryingAccess(
            faulty, RetryPolicy(max_retries=2, seed=5),
            audit=ProbeAuditor(lo=lo, hi=hi),
        )
        plain = QueryOracle(inst)
        for i in range(30):
            assert audited.query(i) == plain.query(i)
        assert audited.retries_used == 0

    def test_recovery_bounds_the_blast_radius(self):
        # 50% corruption: detected violations are re-probed; what the
        # audit cannot see (in-range corruption) at least stays
        # plausible — the audit bounds the blast radius, it cannot
        # eliminate it.
        inst = self._instance()
        lo, hi = self._tight_bounds(inst)
        plan = FaultPlan(seed=9, corruption_rate=0.5, corruption_scale=0.9)
        faulty = FaultyAccess(QueryOracle(inst), plan.stream("oracle"))
        audit = ProbeAuditor(lo=lo, hi=hi)
        retry = RetryingAccess(
            faulty, RetryPolicy(max_retries=8, seed=9), audit=audit
        )
        answered = [retry.query(i) for i in range(40)]  # completes: recovery worked
        assert audit.violations >= 1
        assert retry.retries_used >= audit.violations
        for item in answered:
            if item.profit > 0 and item.weight > 0:
                assert lo <= item.profit / item.weight <= hi


class TestServiceAuditWiring:
    def test_probe_audit_requires_retry_policy(self, tiers_instance, fast_params):
        from repro.errors import ReproError
        from repro.serve import KnapsackService

        with pytest.raises(ReproError):
            KnapsackService(
                tiers_instance, 0.1, seed=42, params=fast_params,
                cache=False, probe_audit=True,
            )

    def test_faults_injected_reports_detections(self, tiers_instance, fast_params):
        from repro.serve import KnapsackService

        svc = KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params, cache=False,
            fault_plan=FaultPlan(seed=5, corruption_rate=0.2),
            retry_policy=RetryPolicy(max_retries=2, seed=5),
            strict=False, probe_audit=True,
        )
        svc.answer_batch(list(range(0, 20, 2)), nonce=31)
        out = svc.faults_injected
        assert "corruptions_detected" in out
        assert out["corruptions_detected"] >= 0
