"""Tests for transcript recording and replay (indistinguishability)."""

import pytest

from repro.access.oracle import FunctionInstance
from repro.access.transcripts import (
    RecordingOracle,
    transcripts_agree,
)
from repro.access.weighted_sampler import WeightedSampler
from repro.core.lca_kp import LCAKP
from repro.errors import OracleError, QueryBudgetExceededError
from repro.knapsack.instance import KnapsackInstance


@pytest.fixture()
def inst():
    return KnapsackInstance([1, 2, 3], [0.1, 0.2, 0.3], 0.5, normalize=False)


class TestRecording:
    def test_records_everything(self, inst):
        oracle = RecordingOracle(inst)
        oracle.query(0)
        oracle.query(2)
        t = oracle.transcript
        assert t.num_queries == 2
        assert t.indices() == [0, 2]
        assert t.distinct_indices() == {0, 2}
        assert t.entries[1].profit == 3.0

    def test_reset_clears_transcript(self, inst):
        oracle = RecordingOracle(inst)
        oracle.query(0)
        oracle.reset()
        assert oracle.transcript.num_queries == 0


class TestRecordsEveryChargedQuery:
    """The transcript equals the charged queries on every reveal path."""

    def test_block_on_an_array_instance(self, inst):
        # The path a plain QueryOracle serves from its columnar fast path.
        oracle = RecordingOracle(inst)
        block = oracle.query_block([2, 0, 2])
        assert oracle.queries_used == 3
        assert oracle.transcript.indices() == [2, 0, 2]
        assert [e.profit for e in oracle.transcript.entries] == block.profits.tolist()

    def test_block_on_a_function_instance_records_once(self):
        fi = FunctionInstance(4, 1.0, lambda i: 0.1 * (i + 1), lambda i: 1.0)
        oracle = RecordingOracle(fi)
        oracle.query_block([3, 1, 3])
        assert oracle.queries_used == 3
        assert oracle.transcript.indices() == [3, 1, 3]

    @pytest.mark.parametrize(
        "budget, indices, error, charged",
        [
            (2, [1, 0, 2], QueryBudgetExceededError, [1, 0]),
            (None, [0, 7], OracleError, [0]),
        ],
        ids=["over-budget", "out-of-range"],
    )
    def test_failed_block_records_exactly_the_charged_prefix(
        self, inst, budget, indices, error, charged
    ):
        oracle = RecordingOracle(inst, budget=budget)
        with pytest.raises(error):
            oracle.query_block(indices)
        assert oracle.queries_used == len(charged)
        assert oracle.transcript.indices() == charged

    def test_lca_answer_many(self, tiers_instance, fast_params):
        oracle = RecordingOracle(tiers_instance)
        sampler = WeightedSampler(tiers_instance)
        lca = LCAKP(sampler, oracle, fast_params.epsilon, 42, params=fast_params)
        lca.answer_many([1, 2, 3, 4], nonce=5)
        lca.answer(9, nonce=5)
        assert oracle.queries_used == 5
        assert oracle.transcript.num_queries == oracle.queries_used
        assert oracle.transcript.indices() == [1, 2, 3, 4, 9]


class TestReplay:
    def test_replayable_on_identical_instance(self, inst):
        oracle = RecordingOracle(inst)
        oracle.query(0)
        oracle.query(1)
        clone = KnapsackInstance([1, 2, 3], [0.1, 0.2, 0.3], 0.5, normalize=False)
        assert oracle.transcript.replayable_on(clone)

    def test_indistinguishable_modification(self, inst):
        """The executable core of the lower-bound arguments.

        If a modified instance answers the transcript identically, a
        deterministic algorithm that produced it cannot tell the two
        instances apart — even though their solutions may differ.
        """
        oracle = RecordingOracle(inst)
        oracle.query(0)  # only item 0 was observed
        modified = KnapsackInstance([1, 9, 9], [0.1, 0.2, 0.3], 0.5, normalize=False)
        assert oracle.transcript.replayable_on(modified)

    def test_distinguishable_modification(self, inst):
        oracle = RecordingOracle(inst)
        oracle.query(1)
        modified = KnapsackInstance([1, 9, 3], [0.1, 0.2, 0.3], 0.5, normalize=False)
        assert not oracle.transcript.replayable_on(modified)

    def test_out_of_range_not_replayable(self, inst):
        oracle = RecordingOracle(inst)
        oracle.query(2)
        smaller = KnapsackInstance([1, 2], [0.1, 0.2], 0.5, normalize=False)
        assert not oracle.transcript.replayable_on(smaller)


class TestAgreement:
    def test_equal_transcripts(self, inst):
        a = RecordingOracle(inst)
        b = RecordingOracle(inst)
        for i in (0, 1):
            a.query(i)
            b.query(i)
        assert transcripts_agree(a.transcript, b.transcript)

    def test_different_order_disagrees(self, inst):
        a = RecordingOracle(inst)
        b = RecordingOracle(inst)
        a.query(0)
        a.query(1)
        b.query(1)
        b.query(0)
        assert not transcripts_agree(a.transcript, b.transcript)

    def test_different_length_disagrees(self, inst):
        a = RecordingOracle(inst)
        b = RecordingOracle(inst)
        a.query(0)
        assert not transcripts_agree(a.transcript, b.transcript)
