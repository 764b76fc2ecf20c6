"""Tests for graceful degradation in the serving layer."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ProbeFailureError, RetriesExhaustedError
from repro.faults import FaultPlan, RetryPolicy
from repro.knapsack.generators import generate
from repro.obs import runtime as obs
from repro.serve import (
    DEGRADED_REASON_CODES,
    DegradedAnswer,
    GreedyFallback,
    KnapsackService,
    reason_code_for,
)


def doomed_service(instance, fast_params, *, retry=False, **kw):
    """A service whose every probe fails."""
    return KnapsackService(
        instance,
        0.1,
        seed=42,
        params=fast_params,
        cache=False,
        fault_plan=FaultPlan(seed=3, probe_failure_rate=1.0),
        retry_policy=RetryPolicy(max_retries=2, seed=3) if retry else None,
        **kw,
    )


class TestStrictness:
    def test_strict_default_raises(self, tiers_instance, fast_params):
        svc = doomed_service(tiers_instance, fast_params)
        with pytest.raises(ProbeFailureError):
            svc.answer(0, nonce=1)

    def test_strict_with_retry_raises_retries_exhausted(
        self, tiers_instance, fast_params
    ):
        svc = doomed_service(tiers_instance, fast_params, retry=True)
        with pytest.raises(RetriesExhaustedError):
            svc.answer(0, nonce=1)

    def test_non_strict_service_degrades(self, tiers_instance, fast_params):
        svc = doomed_service(tiers_instance, fast_params, strict=False)
        ans = svc.answer(0, nonce=1)
        assert isinstance(ans, DegradedAnswer)
        assert ans.degraded
        assert ans.reason_code == "probe-failure"

    def test_retry_changes_the_reason_code(self, tiers_instance, fast_params):
        svc = doomed_service(
            tiers_instance, fast_params, retry=True, strict=False
        )
        ans = svc.answer(0, nonce=1)
        assert ans.reason_code == "retries-exhausted"

    def test_per_call_strict_override_both_ways(
        self, tiers_instance, fast_params
    ):
        strict_svc = doomed_service(tiers_instance, fast_params)
        ans = strict_svc.answer(0, nonce=1, strict=False)
        assert isinstance(ans, DegradedAnswer)
        lax_svc = doomed_service(tiers_instance, fast_params, strict=False)
        with pytest.raises(ProbeFailureError):
            lax_svc.answer(0, nonce=1, strict=True)

    def test_degraded_batch_completes(self, tiers_instance, fast_params):
        svc = doomed_service(tiers_instance, fast_params, strict=False)
        report = svc.answer_batch([0, 5, 9], nonce=1)
        assert len(report.answers) == 3
        assert report.degraded == 3
        assert report.availability == 0.0
        assert all(a.degraded for a in report.answers)


class TestLadder:
    def test_cold_cacheless_service_uses_greedy(
        self, tiers_instance, fast_params
    ):
        svc = doomed_service(tiers_instance, fast_params, strict=False)
        ans = svc.answer(2, nonce=1)
        assert ans.source == "greedy"
        # The greedy verdict matches the fallback mask directly.
        assert ans.include == GreedyFallback(tiers_instance).decide(2)

    def test_warm_cache_outranks_greedy(self, tiers_instance, fast_params):
        # Warm the cache fault-free; the ladder's first rung (any
        # memoized pipeline for this configuration) must then answer
        # degraded queries, reproducing the honest verdicts.
        svc = KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params, strict=False
        )
        honest = svc.answer_batch([1, 4, 7], nonce=11)
        assert honest.degraded == 0
        answers = svc._degrade([1, 4, 7], ProbeFailureError(probe="x"))
        assert all(a.source == "cache" for a in answers)
        # The cached rule reproduces the honest verdicts.
        assert [a.include for a in answers] == [a.include for a in honest.answers]

    def test_implicit_instance_degrades_to_trivial(self):
        # Implicit instances have no arrays to run greedy over, so the
        # fallback's last rung is the always-feasible empty solution.
        from repro.access.oracle import FunctionInstance

        inst = FunctionInstance(50, 0.3, lambda i: 1.0 + (i % 7), lambda i: 0.01)
        fb = GreedyFallback(inst)
        assert fb.source == "trivial"
        assert fb.decide(3) is False
        assert fb.decide_many([0, 1, 2]) == [False, False, False]

    def test_degradation_ladder_is_reason_stable(
        self, tiers_instance, fast_params
    ):
        svc = doomed_service(tiers_instance, fast_params, strict=False)
        for code in (a.reason_code for a in svc.answer_batch([0, 1], nonce=1).answers):
            assert code in DEGRADED_REASON_CODES


class TestAccounting:
    def test_degraded_counted_in_stats_and_registry(
        self, tiers_instance, fast_params
    ):
        counter = obs.REGISTRY.counter("serve.degraded")
        before = counter.value
        svc = doomed_service(tiers_instance, fast_params, strict=False)
        svc.answer_batch([0, 1, 2, 3], nonce=1)
        assert svc.degraded_total == 4
        assert svc.stats()["degraded_total"] == 4
        assert counter.value == before + 4

    def test_faults_surface_in_stats(self, tiers_instance, fast_params):
        svc = doomed_service(tiers_instance, fast_params, strict=False)
        svc.answer_batch([0, 1], nonce=1)
        assert svc.stats()["faults_injected"]["probe_failures"] >= 1

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_shard_hedges_fold_into_service_totals(self, fast_params, executor):
        counter = obs.REGISTRY.counter("faults.probe_hedges")
        with KnapsackService(
            generate("uniform", 300, seed=11),
            0.1,
            seed=42,
            params=fast_params,
            cache=False,
            executor=executor,
            fault_plan=FaultPlan(seed=3, probe_failure_rate=0.1, latency_spike_rate=0.6),
            retry_policy=RetryPolicy(max_retries=6, seed=42, hedge_after_s=0.002),
            strict=False,
        ) as svc:
            before = counter.value
            svc.answer_batch(range(300), nonce=5, workers=2)
            assert svc.probe_hedges_used == counter.value - before > 0
            assert svc.stats()["probe_hedges"] == svc.probe_hedges_used
            assert svc.hedge_latency_saved_s > 0.0


class TestSerialization:
    def test_round_trip(self):
        ans = DegradedAnswer(
            index=7, include=True, reason_code="budget-exhausted",
            source="cache", detail="budget=100",
        )
        doc = json.loads(json.dumps(ans.to_dict()))
        back = DegradedAnswer.from_dict(doc)
        assert back == ans
        assert back.reason == "degraded:budget-exhausted:cache"

    def test_every_reason_code_round_trips(self):
        for code in DEGRADED_REASON_CODES:
            ans = DegradedAnswer(
                index=0, include=False, reason_code=code, source="greedy"
            )
            assert DegradedAnswer.from_dict(ans.to_dict()).reason_code == code

    def test_reason_code_for_unknown_exception(self):
        assert reason_code_for(ValueError("boom")) == "unrecoverable"


class TestNullPlanEquivalence:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        nonce=st.integers(min_value=1, max_value=2**20),
    )
    def test_rate_zero_plan_is_bit_identical(self, fast_params, seed, nonce):
        # Acceptance criterion: wiring the fault machinery at rate 0
        # must not change a single answer or a single counter.
        inst = generate("efficiency_tiers", 300, seed=9)
        plain = KnapsackService(
            inst, 0.1, seed=seed, params=fast_params, cache=False
        )
        wrapped = KnapsackService(
            inst, 0.1, seed=seed, params=fast_params, cache=False,
            fault_plan=FaultPlan(seed=99),
            retry_policy=RetryPolicy(max_retries=3, seed=99),
            strict=False,
        )
        idx = list(np.random.default_rng(seed).integers(inst.n, size=12))
        a = plain.answer_batch(idx, nonce=nonce)
        b = wrapped.answer_batch(idx, nonce=nonce)
        assert [x.include for x in a.answers] == [x.include for x in b.answers]
        assert [x.index for x in a.answers] == [x.index for x in b.answers]
        assert b.degraded == 0
        assert plain.samples_used == wrapped.samples_used
        assert plain.queries_used == wrapped.queries_used
        assert wrapped.retries_used == 0
