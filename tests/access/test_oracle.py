"""Tests for QueryOracle and FunctionInstance."""

import pytest

from repro.access.oracle import FunctionInstance, QueryOracle
from repro.access.transcripts import RecordingOracle
from repro.errors import OracleError, QueryBudgetExceededError
from repro.knapsack.instance import KnapsackInstance
from repro.knapsack.items import Item


@pytest.fixture()
def inst():
    return KnapsackInstance([1, 2, 3], [0.1, 0.2, 0.3], 0.5, normalize=False)


class TestQueryOracle:
    def test_query_returns_item(self, inst):
        oracle = QueryOracle(inst)
        assert oracle.query(1) == Item(2.0, 0.2)
        assert oracle.profit(2) == 3.0
        assert oracle.weight(0) == 0.1

    def test_counting(self, inst):
        # Every query is charged, repeats included; order and
        # distinctness are the transcript's business.
        oracle = RecordingOracle(inst)
        oracle.query(0)
        oracle.query(0)
        oracle.query(1)
        assert oracle.queries_used == 3
        assert oracle.transcript.distinct_indices() == {0, 1}
        assert oracle.transcript.indices() == [0, 0, 1]

    def test_budget_enforced(self, inst):
        oracle = QueryOracle(inst, budget=2)
        oracle.query(0)
        oracle.query(1)
        with pytest.raises(QueryBudgetExceededError) as err:
            oracle.query(2)
        assert err.value.budget == 2
        assert oracle.remaining == 0

    def test_out_of_range(self, inst):
        oracle = QueryOracle(inst)
        with pytest.raises(OracleError):
            oracle.query(3)
        # A failed query is not charged.
        assert oracle.queries_used == 0

    def test_reset(self, inst):
        oracle = QueryOracle(inst, budget=5)
        oracle.query(0)
        oracle.reset()
        assert oracle.queries_used == 0
        assert oracle.remaining == 5

    def test_metadata_passthrough(self, inst):
        oracle = QueryOracle(inst)
        assert oracle.n == 3
        assert oracle.capacity == 0.5

    def test_negative_budget_rejected(self, inst):
        with pytest.raises(OracleError):
            QueryOracle(inst, budget=-1)


class TestFunctionInstance:
    def test_lazy_evaluation(self):
        calls = []

        def profit(i):
            calls.append(i)
            return float(i)

        fi = FunctionInstance(10, 1.0, profit, lambda i: 1.0)
        assert fi.profit(4) == 4.0
        assert calls == [4]
        assert fi.n == 10 and fi.capacity == 1.0

    def test_oracle_over_function_instance(self):
        fi = FunctionInstance(5, 1.0, lambda i: 0.5, lambda i: 1.0)
        oracle = QueryOracle(fi, budget=3)
        assert oracle.query(2) == Item(0.5, 1.0)
        assert oracle.queries_used == 1

    def test_invalid_n(self):
        with pytest.raises(OracleError):
            FunctionInstance(0, 1.0, lambda i: 1.0, lambda i: 1.0)


class TestBudgetStraddle:
    def test_block_straddling_the_budget_charges_exactly_to_it(self):
        # Regression: a query_block whose rows straddle the remaining
        # budget must charge every affordable row, then raise with
        # ``attempted`` pointing one past the budget — not overcharge,
        # not roll back.
        inst = KnapsackInstance(
            [1, 2, 3, 4, 5, 6, 7, 8], [0.1] * 8, 0.5, normalize=False
        )
        oracle = QueryOracle(inst, budget=5)
        with pytest.raises(QueryBudgetExceededError) as err:
            oracle.query_block(range(8))
        assert oracle.queries_used == 5
        assert oracle.remaining == 0
        assert err.value.budget == 5
        assert err.value.attempted == 6

    def test_block_exactly_at_the_budget_boundary_succeeds(self):
        inst = KnapsackInstance(
            [1, 2, 3, 4, 5], [0.1] * 5, 0.5, normalize=False
        )
        oracle = QueryOracle(inst, budget=5)
        block = oracle.query_block(range(5))
        assert len(block.indices) == 5
        assert oracle.remaining == 0
        # The next probe is the one that breaks the budget.
        with pytest.raises(QueryBudgetExceededError):
            oracle.query(0)
