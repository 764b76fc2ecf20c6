"""Tests for the budget-honest retry policy and its access layer."""

import numpy as np
import pytest

from repro.access.oracle import QueryOracle
from repro.access.weighted_sampler import WeightedSampler
from repro.errors import (
    ProbeFailureError,
    QueryBudgetExceededError,
    ReproError,
    RetriesExhaustedError,
)
from repro.faults import FaultPlan, FaultyAccess, RetryingAccess, RetryPolicy
from repro.knapsack.instance import KnapsackInstance


@pytest.fixture()
def inst():
    return KnapsackInstance(
        list(range(1, 13)), [0.05] * 12, 0.4, normalize=False
    )


def stack(inst, plan, policy, *, budget=None):
    inner = QueryOracle(inst, budget=budget)
    return RetryingAccess(FaultyAccess(inner, plan.stream("t", "o")), policy), inner


class TestRecovery:
    def test_transient_failures_are_recovered(self, inst):
        plan = FaultPlan(seed=6, probe_failure_rate=0.5)
        policy = RetryPolicy(max_retries=8, seed=1)
        oracle, inner = stack(inst, plan, policy)
        items = oracle.query_many(range(12))
        assert len(items) == 12  # every probe eventually answered
        assert oracle.retries_used > 0
        # Budget honesty: every retry re-charged the real oracle.
        assert inner.queries_used == 12 + oracle.retries_used

    def test_retries_exhausted_wraps_last_transient(self, inst):
        plan = FaultPlan(seed=6, probe_failure_rate=1.0)
        policy = RetryPolicy(max_retries=2, seed=1)
        oracle, inner = stack(inst, plan, policy)
        with pytest.raises(RetriesExhaustedError) as err:
            oracle.query(0)
        assert err.value.attempts == 3  # initial try + 2 retries
        assert isinstance(err.value.last_error, ProbeFailureError)
        assert inner.queries_used == 3  # all three attempts were charged

    def test_budget_exhaustion_is_not_transient(self, inst):
        # Retrying into a dry budget must surface the budget error, not
        # paper over it: the budget is the currency of Theorems 3.2-3.4.
        plan = FaultPlan(seed=6, probe_failure_rate=1.0)
        policy = RetryPolicy(max_retries=10, seed=1)
        oracle, inner = stack(inst, plan, policy, budget=3)
        with pytest.raises(QueryBudgetExceededError):
            oracle.query(0)
        assert inner.queries_used == 3  # charged exactly up to the budget

    def test_zero_fault_rate_means_zero_retries(self, inst):
        oracle, inner = stack(inst, FaultPlan(seed=6), RetryPolicy(max_retries=3))
        oracle.query_block(range(12))
        assert oracle.retries_used == 0
        assert oracle.backoff_s == 0.0

    def test_retrying_sampler_recovers_with_fresh_draws(self, inst):
        plan = FaultPlan(seed=8, probe_failure_rate=0.5)
        sampler = RetryingAccess(
            FaultyAccess(WeightedSampler(inst), plan.stream("t", "s")),
            RetryPolicy(max_retries=8, seed=1),
        )
        rng = np.random.default_rng(3)
        blocks = [sampler.sample_block(8, rng) for _ in range(6)]
        assert all(len(b.indices) == 8 for b in blocks)
        assert sampler.retries_used > 0
        # Each retried block re-drew (and re-charged) its rows.
        assert sampler.samples_used == 8 * (6 + sampler.retries_used)


class TestHedging:
    def hedged_stack(self, inst, plan, *, hedge=0.01, timeout=None, retries=4, budget=None):
        inner = QueryOracle(inst, budget=budget)
        policy = RetryPolicy(
            max_retries=retries, seed=1, probe_timeout_s=timeout, hedge_after_s=hedge
        )
        faulty = FaultyAccess(inner, plan.stream("t", "o"), timeout_s=timeout)
        return RetryingAccess(faulty, policy), inner

    def test_timeout_hedge_reprobes_without_spending_retries(self, inst):
        # Every spike exceeds the timeout, so every probe times out.
        # With max_retries=0 the retry budget allows no re-probe at all,
        # yet the oracle is charged *twice*: the extra probe was the
        # hedge, fired outside the retry budget.
        plan = FaultPlan(seed=3, latency_spike_rate=1.0, latency_spike_s=0.2)
        oracle, inner = self.hedged_stack(inst, plan, timeout=0.05, retries=0)
        with pytest.raises(RetriesExhaustedError) as err:
            oracle.query(0)
        assert err.value.attempts == 1  # no retries were spent
        assert inner.queries_used == 2  # primary + charged hedge

    def test_timeout_hedge_recovers_intermittent_spikes(self, inst):
        plan = FaultPlan(seed=3, latency_spike_rate=0.5, latency_spike_s=0.2)
        oracle, inner = self.hedged_stack(inst, plan, timeout=0.05, retries=8)
        items = oracle.query_many(range(12))
        assert [it.profit for it in items] == [
            QueryOracle(inst).query(i).profit for i in range(12)
        ]
        assert oracle.hedges_used > 0
        # Budget honesty: every hedge and retry re-charged the oracle.
        assert inner.queries_used == 12 + oracle.retries_used + oracle.hedges_used

    def test_slow_success_races_a_charged_backup(self, inst):
        # Spikes stay under the timeout, so primaries succeed slowly;
        # the policy fires a backup for each spiked primary and keeps
        # the earlier virtual finisher.
        plan = FaultPlan(seed=5, latency_spike_rate=0.6, latency_spike_s=0.05)
        oracle, inner = self.hedged_stack(inst, plan, hedge=0.01, timeout=1.0)
        items = oracle.query_many(range(12))
        assert len(items) == 12
        assert oracle.hedges_used > 0
        assert oracle.hedge_latency_saved_s >= 0.0
        assert inner.queries_used == 12 + oracle.retries_used + oracle.hedges_used

    def test_backup_failure_keeps_the_primary_answer(self, inst):
        # Backups may drain the budget; the primary's answer already
        # exists, so the probe never degrades because of a hedge.  With
        # every primary slow, probes 1-11 charge primary+backup (22),
        # probe 12's primary takes the last unit and its backup hits the
        # dry budget — which is caught, keeping the primary.
        plan = FaultPlan(seed=5, latency_spike_rate=1.0, latency_spike_s=0.05)
        oracle, inner = self.hedged_stack(inst, plan, hedge=0.01, timeout=1.0, budget=23)
        items = oracle.query_many(range(12))
        assert [it.profit for it in items] == [
            QueryOracle(inst).query(i).profit for i in range(12)
        ]
        assert inner.queries_used == 23  # ran the budget dry, kept answering

    def test_hedging_is_deterministic(self, inst):
        def run():
            plan = FaultPlan(seed=5, latency_spike_rate=0.6, latency_spike_s=0.05)
            oracle, _ = self.hedged_stack(inst, plan, hedge=0.01, timeout=1.0)
            oracle.query_many(range(12))
            return oracle.hedges_used, oracle.hedge_latency_saved_s

        assert run() == run()

    def test_hedging_inert_without_an_injector(self, inst):
        # No injector below the policy => no latency concept => the
        # hedge never fires (and never spends budget).
        policy = RetryPolicy(max_retries=2, seed=1, hedge_after_s=0.01)
        inner = QueryOracle(inst)
        oracle = RetryingAccess(inner, policy)
        oracle.query_many(range(12))
        assert oracle.hedges_used == 0
        assert inner.queries_used == 12

    def test_hedge_after_s_validation(self):
        with pytest.raises(ReproError):
            RetryPolicy(hedge_after_s=0.0)
        with pytest.raises(ReproError):
            RetryPolicy(hedge_after_s=-1.0)


class TestBackoffDeterminism:
    def test_backoff_is_a_pure_function_of_labels_and_attempt(self):
        p = RetryPolicy(max_retries=3, backoff_base_s=0.01, seed=5)
        assert p.backoff_s(("a", "b"), 1) == p.backoff_s(("a", "b"), 1)
        assert p.backoff_s(("a", "b"), 1) != p.backoff_s(("a", "b"), 2)
        assert p.backoff_s(("a", "b"), 1) != p.backoff_s(("a", "c"), 1)

    def test_backoff_grows_exponentially_within_jitter(self):
        p = RetryPolicy(backoff_base_s=0.01, backoff_factor=2.0, jitter=0.1, seed=5)
        for attempt in (1, 2, 3):
            base = 0.01 * 2.0 ** (attempt - 1)
            got = p.backoff_s(("x",), attempt)
            assert base <= got <= base * 1.1

    def test_validation(self):
        with pytest.raises(ReproError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ReproError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ReproError):
            RetryPolicy(jitter=2.0)
