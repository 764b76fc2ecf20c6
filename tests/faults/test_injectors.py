"""Tests for the fault-injecting access layer and the layer base.

The load-bearing invariant is *charge-then-lose*: a probe whose response
is lost was still charged against the budget (and, for samplers, still
consumed the algorithm's RNG draws) — faults waste resources, they never
mint them.  A layer with nothing to do (a null plan, a retry policy that
never fires) must be invisible: same responses, same bills, same RNG.
"""

import copy
import inspect
import pickle

import numpy as np
import pytest

from repro.access.blocks import Sample, SampleBlock
from repro.access.cost import CostMeter
from repro.access.oracle import QueryOracle
from repro.access.weighted_sampler import WeightedSampler
from repro.errors import ProbeFailureError, ProbeTimeoutError
from repro.faults import FaultPlan, FaultyAccess, RetryingAccess, RetryPolicy
from repro.knapsack.instance import KnapsackInstance


@pytest.fixture()
def inst():
    return KnapsackInstance(
        [1, 2, 3, 4, 5, 6, 7, 8],
        [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1],
        0.5,
        normalize=False,
    )


def faulty_oracle(inst, plan, **kw):
    return FaultyAccess(QueryOracle(inst), plan.stream("test", "oracle"), **kw)


#: Layers with nothing to do: a null fault plan, a retry policy that
#: never fires (nothing below it fails).
LAYERS = {
    "faulty": lambda inner: FaultyAccess(inner, FaultPlan(seed=4).stream("layer")),
    "retrying": lambda inner: RetryingAccess(inner, RetryPolicy()),
}
BARE = {"oracle": QueryOracle, "sampler": WeightedSampler}


def _plain(value):
    """A probe response as comparable plain data."""
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, SampleBlock):
        return (value.indices.tolist(), value.profits.tolist(), value.weights.tolist())
    if isinstance(value, Sample):
        return (value.index, value.item)
    return value


def _drive(access, kind):
    """Call every probe face once; return the responses and RNG state."""
    if kind == "oracle":
        out = [
            access.query(3),
            access.query_many(np.array([0, 5])),
            access.query_block(np.array([4, 1, 6])),
            access.profit(2),
            access.weight(7),
        ]
        return _plain(out)
    rng = np.random.default_rng(11)
    out = [access.sample(rng), access.sample_many(5, rng), access.sample_block(9, rng)]
    return _plain(out), rng.bit_generator.state["state"]["state"]


class TestChargeThenLose:
    def test_failed_probe_is_still_charged(self, inst):
        plan = FaultPlan(seed=1, probe_failure_rate=1.0)
        oracle = faulty_oracle(inst, plan)
        with pytest.raises(ProbeFailureError):
            oracle.query(0)
        assert oracle.queries_used == 1  # charged before it was lost
        assert oracle.probes == 1
        assert oracle.probe_failures == 1

    def test_failed_block_charges_every_row(self, inst):
        plan = FaultPlan(seed=1, probe_failure_rate=1.0)
        oracle = faulty_oracle(inst, plan)
        with pytest.raises(ProbeFailureError):
            oracle.query_block([0, 1, 2])
        assert oracle.queries_used == 3
        assert oracle.probes == 1  # one block = one probe = one decision

    def test_failed_sampler_draw_consumes_algorithm_rng(self, inst):
        plan = FaultPlan(seed=1, probe_failure_rate=1.0)
        sampler = FaultyAccess(
            WeightedSampler(inst), plan.stream("test", "sampler")
        )
        rng = np.random.default_rng(0)
        state_before = rng.bit_generator.state["state"]["state"]
        with pytest.raises(ProbeFailureError):
            sampler.sample_block(16, rng)
        state_after = rng.bit_generator.state["state"]["state"]
        assert state_after != state_before  # the lost draws are gone
        assert sampler.samples_used == 16  # and they were charged


class TestCorruption:
    def test_corruption_perturbs_profit_only(self, inst):
        plan = FaultPlan(seed=2, corruption_rate=1.0, corruption_scale=0.05)
        oracle = faulty_oracle(inst, plan)
        sampler = FaultyAccess(WeightedSampler(inst), plan.stream("test", "sampler"))
        cases = [
            (QueryOracle(inst).query(3), oracle.query(3)),
            (
                WeightedSampler(inst).sample(np.random.default_rng(5)),
                sampler.sample(np.random.default_rng(5)),
            ),
        ]
        for clean, item in cases:
            assert type(item) is type(clean)
            assert getattr(item, "index", None) == getattr(clean, "index", None)
            assert item.weight == clean.weight
            assert item.profit != clean.profit
            assert abs(item.profit / clean.profit - 1.0) <= 0.05
        assert oracle.corruptions == sampler.corruptions == 1

    def test_block_corruption_is_columnwise(self, inst):
        plan = FaultPlan(seed=2, corruption_rate=1.0, corruption_scale=0.05)
        oracle = faulty_oracle(inst, plan)
        clean = QueryOracle(inst).query_block([0, 1, 2])
        block = oracle.query_block([0, 1, 2])
        np.testing.assert_array_equal(block.weights, clean.weights)
        ratio = block.profits / clean.profits
        assert np.allclose(ratio, ratio[0])  # one factor for the block
        assert not np.allclose(ratio, 1.0)


class TestLatencyAndTimeouts:
    def test_spike_below_timeout_accumulates_virtually(self, inst):
        plan = FaultPlan(seed=3, latency_spike_rate=1.0, latency_spike_s=0.05)
        oracle = faulty_oracle(inst, plan, timeout_s=1.0)
        oracle.query(0)
        oracle.query(1)
        assert oracle.latency_injected_s == pytest.approx(0.1)
        assert oracle.timeouts == 0

    def test_spike_above_timeout_raises_but_charges(self, inst):
        plan = FaultPlan(seed=3, latency_spike_rate=1.0, latency_spike_s=0.05)
        oracle = faulty_oracle(inst, plan, timeout_s=0.01)
        with pytest.raises(ProbeTimeoutError):
            oracle.query(0)
        assert oracle.queries_used == 1
        assert oracle.timeouts == 1

    def test_no_timeout_means_spikes_never_raise(self, inst):
        plan = FaultPlan(seed=3, latency_spike_rate=1.0, latency_spike_s=10.0)
        oracle = faulty_oracle(inst, plan)  # timeout_s=None
        oracle.query(0)
        assert oracle.latency_injected_s == pytest.approx(10.0)


class TestNullPlanTransparency:
    def test_rate_zero_oracle_is_passthrough(self, inst):
        plan = FaultPlan(seed=4)
        oracle = faulty_oracle(inst, plan)
        clean = QueryOracle(inst)
        for i in range(inst.n):
            assert oracle.query(i) == clean.query(i)
        block = oracle.query_block([0, 5, 2])
        clean_block = clean.query_block([0, 5, 2])
        np.testing.assert_array_equal(block.profits, clean_block.profits)
        np.testing.assert_array_equal(block.weights, clean_block.weights)
        assert oracle.probe_failures == oracle.timeouts == oracle.corruptions == 0

    def test_rate_zero_sampler_draws_identically(self, inst):
        plan = FaultPlan(seed=4)
        wrapped = FaultyAccess(WeightedSampler(inst), plan.stream("s"))
        plain = WeightedSampler(inst)
        b1 = wrapped.sample_block(32, np.random.default_rng(7))
        b2 = plain.sample_block(32, np.random.default_rng(7))
        np.testing.assert_array_equal(b1.indices, b2.indices)
        np.testing.assert_array_equal(b1.profits, b2.profits)

    def test_delegation_faces(self, inst):
        plan = FaultPlan(seed=4)
        oracle = faulty_oracle(inst, plan)
        assert oracle.n == inst.n
        assert oracle.capacity == inst.capacity
        assert oracle.budget is None and oracle.remaining is None
        oracle.query(1)
        assert oracle.queries_used == 1
        oracle.reset()
        assert oracle.queries_used == 0

    @pytest.mark.parametrize("layer", sorted(LAYERS))
    @pytest.mark.parametrize("kind", sorted(BARE))
    def test_every_probe_face_matches_the_bare_object(self, inst, layer, kind):
        bare = BARE[kind](inst)
        wrapped = LAYERS[layer](BARE[kind](inst))
        assert _drive(wrapped, kind) == _drive(bare, kind)
        assert wrapped.cost_counter == bare.cost_counter > 0
        assert getattr(wrapped, "blocks_used", None) == getattr(
            bare, "blocks_used", None
        )
        assert (wrapped.n, wrapped.capacity, wrapped.budget) == (
            bare.n, bare.capacity, bare.budget
        )

    @pytest.mark.parametrize("layer", sorted(LAYERS))
    @pytest.mark.parametrize("kind", sorted(BARE))
    def test_cost_counter_is_declared_not_forwarded(self, inst, layer, kind):
        # From Python 3.12 on, isinstance(x, CostMeter) resolves the
        # attribute statically, so a face only __getattr__ supplies fails.
        wrapped = LAYERS[layer](BARE[kind](inst))
        inspect.getattr_static(wrapped, "cost_counter")
        assert isinstance(wrapped, CostMeter)

    def test_stack_survives_copy_and_pickle(self, inst):
        plan = FaultPlan(seed=4, probe_failure_rate=0.3, latency_spike_rate=0.3)
        policy = RetryPolicy(max_retries=6, seed=1, hedge_after_s=0.01)
        stack = RetryingAccess(
            FaultyAccess(QueryOracle(inst), plan.stream("o"), timeout_s=1.0), policy
        )
        stack.query_many(range(4))
        shallow = copy.copy(stack)
        assert shallow.inner is stack.inner
        assert shallow.cost_counter == stack.cost_counter
        clone = pickle.loads(pickle.dumps(stack))
        assert clone.cost_counter == stack.cost_counter
        assert clone.query_many(range(8)) == stack.query_many(range(8))
        assert (clone.retries_used, clone.hedges_used, clone.cost_counter) == (
            stack.retries_used, stack.hedges_used, stack.cost_counter
        )

