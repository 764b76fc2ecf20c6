"""Tests for the columnar batch face: SampleBlock and its producers.

The contract under test: ``sample_block`` / ``query_block`` are the
single batch code path — ``sample_many`` / ``query_many`` must consume
the identical RNG stream and budget, and the block's columns must agree
element-for-element with the per-object view.  Cost is charged once per
block, one unit per row (the IKY12 per-draw currency), so the
``sampler.samples`` / ``oracle.queries`` metric totals are *unchanged*
relative to the object path; only the new ``sampler.blocks`` counter
distinguishes the two.
"""

import numpy as np
import pytest

from repro.access.blocks import Sample, SampleBlock
from repro.access.oracle import FunctionInstance, QueryOracle
from repro.access.transcripts import RecordingOracle, transcripts_agree
from repro.access.weighted_sampler import CustomSampler, WeightedSampler
from repro.errors import OracleError, QueryBudgetExceededError
from repro.knapsack.instance import KnapsackInstance
from repro.obs.runtime import REGISTRY


@pytest.fixture()
def inst():
    return KnapsackInstance(
        [0.5, 0.3, 0.2], [0.1, 0.2, 0.3], 0.5, normalize=False
    )


class TestSampleBlock:
    def test_columns_and_views_agree(self, inst):
        block = SampleBlock([2, 0, 0], inst.profits[[2, 0, 0]], inst.weights[[2, 0, 0]])
        assert len(block) == 3
        samples = block.to_samples()
        assert [s.index for s in samples] == [2, 0, 0]
        for k, s in enumerate(block.samples()):
            assert isinstance(s, Sample)
            assert s.profit == block.profits[k]
            assert s.weight == block.weights[k]
        assert block.sample_at(1).index == 0

    def test_columns_are_read_only(self, inst):
        block = SampleBlock([0], [0.5], [0.1])
        with pytest.raises(ValueError):
            block.indices[0] = 2
        with pytest.raises(ValueError):
            block.profits[0] = 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(OracleError):
            SampleBlock([0, 1], [0.5], [0.1, 0.2])


class TestWeightedSamplerBlocks:
    def test_block_equals_object_path_and_rng_stream(self, inst):
        s_block = WeightedSampler(inst)
        s_obj = WeightedSampler(inst)
        rng_a = np.random.default_rng(7)
        rng_b = np.random.default_rng(7)
        block = s_block.sample_block(50, rng_a)
        samples = s_obj.sample_many(50, rng_b)
        assert block.indices.tolist() == [s.index for s in samples]
        assert block.profits.tolist() == [s.profit for s in samples]
        assert block.weights.tolist() == [s.weight for s in samples]
        # Identical RNG consumption: the streams stay in lockstep after.
        assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)
        assert s_block.cost_counter == s_obj.cost_counter == 50

    def test_cost_charged_once_per_block(self, inst):
        sampler = WeightedSampler(inst)
        rng = np.random.default_rng(0)
        sampler.sample_block(10, rng)
        assert sampler.samples_used == 10
        assert sampler.blocks_used == 1
        sampler.sample_block(5, rng)
        assert sampler.samples_used == 15
        assert sampler.blocks_used == 2
        sampler.reset()
        assert sampler.samples_used == 0
        assert sampler.blocks_used == 0

    def test_budget_enforced_before_drawing(self, inst):
        sampler = WeightedSampler(inst, budget=7)
        rng = np.random.default_rng(0)
        sampler.sample_block(5, rng)
        with pytest.raises(QueryBudgetExceededError):
            sampler.sample_block(3, rng)
        # The failed block charged nothing.
        assert sampler.samples_used == 5
        assert sampler.blocks_used == 1

    def test_negative_count_rejected(self, inst):
        with pytest.raises(OracleError):
            WeightedSampler(inst).sample_block(-1, np.random.default_rng(0))

    def test_empty_block(self, inst):
        sampler = WeightedSampler(inst)
        block = sampler.sample_block(0, np.random.default_rng(0))
        assert len(block) == 0
        assert sampler.samples_used == 0
        assert sampler.blocks_used == 1

    def test_metric_totals_match_object_path(self, inst):
        before_samples = REGISTRY.counter("sampler.samples").value
        before_blocks = REGISTRY.counter("sampler.blocks").value
        sampler = WeightedSampler(inst)
        rng = np.random.default_rng(3)
        sampler.sample_block(20, rng)
        sampler.sample_many(10, rng)
        # sampler.samples counts draws regardless of representation;
        # the block counter records one increment per batch call.
        assert REGISTRY.counter("sampler.samples").value - before_samples == 30
        assert REGISTRY.counter("sampler.blocks").value - before_blocks == 2


class TestCustomSamplerBlocks:
    def test_block_equals_object_path_and_rng_stream(self, inst):
        def law(rng):
            return int(rng.integers(3))

        s_block = CustomSampler(inst, law)
        s_obj = CustomSampler(inst, law)
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        block = s_block.sample_block(40, rng_a)
        samples = s_obj.sample_many(40, rng_b)
        assert block.indices.tolist() == [s.index for s in samples]
        assert block.profits.tolist() == [s.profit for s in samples]
        assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)
        assert s_block.blocks_used == s_obj.blocks_used == 1

    def test_implicit_instance_attribute_fallback(self):
        calls = {"p": 0, "w": 0}

        def profit(i):
            calls["p"] += 1
            return 0.25

        def weight(i):
            calls["w"] += 1
            return 1.0

        fi = FunctionInstance(4, 2.0, profit, weight)
        sampler = CustomSampler(fi, lambda rng: int(rng.integers(4)))
        block = sampler.sample_block(6, np.random.default_rng(0))
        assert block.profits.tolist() == [0.25] * 6
        # Per-index calls preserved, duplicates included.
        assert calls == {"p": 6, "w": 6}

    def test_out_of_range_index_rejected(self, inst):
        sampler = CustomSampler(inst, lambda rng: 99)
        with pytest.raises(OracleError):
            sampler.sample_block(1, np.random.default_rng(0))


class TestOracleQueryBlock:
    def test_block_equals_query_many(self, inst):
        o_fast = QueryOracle(inst)
        o_block = RecordingOracle(inst)
        o_many = RecordingOracle(inst)
        idx = [2, 0, 2, 1]
        block = o_fast.query_block(idx)
        items = o_many.query_many(idx)
        assert block.indices.tolist() == idx
        assert block.profits.tolist() == [it.profit for it in items]
        assert block.weights.tolist() == [it.weight for it in items]
        recorded = o_block.query_block(idx)
        np.testing.assert_array_equal(recorded.profits, block.profits)
        np.testing.assert_array_equal(recorded.weights, block.weights)
        assert o_fast.queries_used == o_block.queries_used == o_many.queries_used == 4
        assert o_block.transcript.indices() == o_many.transcript.indices() == idx
        assert o_block.transcript.distinct_indices() == {0, 1, 2}
        assert transcripts_agree(o_block.transcript, o_many.transcript)

    def test_budget_partial_charge_then_raise(self, inst):
        oracle = QueryOracle(inst, budget=2)
        with pytest.raises(QueryBudgetExceededError):
            oracle.query_block([0, 1, 2])
        # Charged exactly as query_many would have before failing.
        assert oracle.queries_used == 2

    def test_out_of_range_matches_query_many(self, inst):
        o_block = QueryOracle(inst)
        o_many = QueryOracle(inst)
        with pytest.raises(OracleError):
            o_block.query_block([0, 7])
        with pytest.raises(OracleError):
            o_many.query_many([0, 7])
        assert o_block.queries_used == o_many.queries_used == 1

    def test_function_instance_fallback(self):
        fi = FunctionInstance(3, 1.0, lambda i: 0.1 * (i + 1), lambda i: 1.0)
        oracle = QueryOracle(fi)
        block = oracle.query_block([2, 0])
        assert block.profits.tolist() == pytest.approx([0.3, 0.1])
        assert oracle.queries_used == 2

    def test_metric_totals_match_object_path(self, inst):
        before = REGISTRY.counter("oracle.queries").value
        QueryOracle(inst).query_block([0, 1, 2, 0])
        assert REGISTRY.counter("oracle.queries").value - before == 4
