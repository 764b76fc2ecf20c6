"""Tests for KnapsackInstance: normalization, validation, predicates."""

import numpy as np
import pytest

from repro.errors import InvalidInstanceError, NormalizationError
from repro.knapsack.instance import KnapsackInstance
from repro.knapsack.items import Item


def simple_instance(**kwargs):
    return KnapsackInstance([2.0, 3.0, 5.0], [0.2, 0.3, 0.5], 0.6, **kwargs)


class TestConstruction:
    def test_profit_normalization(self):
        inst = simple_instance()
        assert inst.total_profit == pytest.approx(1.0)
        assert inst.profit(2) == pytest.approx(0.5)

    def test_weight_normalization(self):
        inst = KnapsackInstance([1, 1], [2.0, 6.0], 8.0, normalize_weights=True)
        assert inst.total_weight == pytest.approx(1.0)
        assert inst.capacity == pytest.approx(1.0)
        assert inst.weight(1) == pytest.approx(0.75)

    def test_weight_normalization_preserves_feasibility(self):
        raw = KnapsackInstance([1, 1, 1], [3.0, 4.0, 5.0], 7.0)
        norm = KnapsackInstance([1, 1, 1], [3.0, 4.0, 5.0], 7.0, normalize_weights=True)
        for subset in ([], [0], [0, 1], [1, 2], [0, 1, 2]):
            assert raw.is_feasible(subset) == norm.is_feasible(subset)

    def test_no_normalize_keeps_raw(self):
        inst = simple_instance(normalize=False)
        assert inst.total_profit == pytest.approx(10.0)

    def test_from_items(self):
        inst = KnapsackInstance.from_items([Item(1, 0.5), (3.0, 0.2)], 0.5)
        assert inst.n == 2
        assert inst.profit(1) == pytest.approx(0.75)

    def test_from_items_empty_rejected(self):
        with pytest.raises(InvalidInstanceError):
            KnapsackInstance.from_items([], 1.0)

    def test_zero_total_profit_rejected(self):
        with pytest.raises(NormalizationError):
            KnapsackInstance([0.0, 0.0], [0.1, 0.1], 1.0)

    def test_zero_total_weight_rejected_for_weight_norm(self):
        with pytest.raises(NormalizationError):
            KnapsackInstance([1.0], [0.0], 1.0, normalize_weights=True)

    def test_mismatched_lengths(self):
        with pytest.raises(InvalidInstanceError):
            KnapsackInstance([1, 2], [1], 1.0)

    def test_arrays_are_read_only(self):
        inst = simple_instance()
        with pytest.raises(ValueError):
            inst.profits[0] = 9.0

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("normalize_weights", [True, False])
    def test_caller_arrays_are_not_aliased(self, normalize, normalize_weights):
        profits = np.array([2.0, 3.0, 5.0])
        weights = np.array([0.2, 0.3, 0.5])
        inst = KnapsackInstance(
            profits, weights, 0.6,
            normalize=normalize, normalize_weights=normalize_weights,
        )
        kept = (inst.profits.copy(), inst.weights.copy())
        profits[:] = 7.0
        weights[:] = 0.1
        assert np.array_equal(inst.profits, kept[0])
        assert np.array_equal(inst.weights, kept[1])
        assert not np.shares_memory(inst.profits, profits)
        assert not np.shares_memory(inst.weights, weights)
        assert profits.flags.writeable and weights.flags.writeable


class TestValidation:
    def test_overweight_item_rejected(self):
        # Definition 2.2: every weight at most K.
        with pytest.raises(InvalidInstanceError):
            KnapsackInstance([1, 1], [0.5, 2.0], 1.0)

    def test_negative_profit_rejected(self):
        with pytest.raises(InvalidInstanceError):
            KnapsackInstance([-1, 2], [0.1, 0.1], 1.0)

    def test_nonfinite_weight_rejected(self):
        with pytest.raises(InvalidInstanceError):
            KnapsackInstance([1, 2], [0.1, float("nan")], 1.0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(InvalidInstanceError):
            KnapsackInstance([1], [0.0], -1.0)

    def test_validate_false_skips_checks(self):
        inst = KnapsackInstance([1, 1], [0.5, 2.0], 1.0, normalize=False, validate=False)
        assert inst.n == 2


class TestAccessors:
    def test_index_bounds(self):
        inst = simple_instance()
        with pytest.raises(InvalidInstanceError):
            inst.profit(3)
        with pytest.raises(InvalidInstanceError):
            inst.weight(-1)

    def test_item_and_items(self):
        inst = simple_instance()
        assert inst.item(0) == Item(0.2, 0.2)
        assert len(inst.items()) == 3

    def test_efficiencies_zero_weight(self):
        inst = KnapsackInstance([1.0, 1.0], [0.0, 0.5], 0.5)
        eff = inst.efficiencies()
        assert np.isinf(eff[0])
        assert eff[1] == pytest.approx(1.0)

    def test_len(self):
        assert len(simple_instance()) == 3


class TestSolutionPredicates:
    def test_profit_and_weight_of(self):
        inst = simple_instance()
        assert inst.profit_of([0, 2]) == pytest.approx(0.7)
        assert inst.weight_of([0, 2]) == pytest.approx(0.7)

    def test_feasibility(self):
        inst = simple_instance()
        assert inst.is_feasible([0, 1])  # 0.5 <= 0.6
        assert not inst.is_feasible([0, 1, 2])  # 1.0 > 0.6

    def test_out_of_range_solution(self):
        with pytest.raises(InvalidInstanceError):
            simple_instance().profit_of([0, 5])

    def test_maximality(self):
        inst = simple_instance()
        # {1, 2} hits 0.8 > K; {0, 1} = 0.5 leaves 0.1 free: nothing fits.
        assert inst.is_maximal([0, 1])
        # {0} leaves 0.4: item 1 (0.3) still fits -> not maximal.
        assert not inst.is_maximal([0])
        # Infeasible sets are not maximal.
        assert not inst.is_maximal([0, 1, 2])

    def test_maximality_with_zero_weight_items(self):
        inst = KnapsackInstance([1, 1, 1], [0.0, 0.6, 0.6], 1.0)
        # A maximal solution must contain every zero-weight item.
        assert not inst.is_maximal([1])
        assert inst.is_maximal([0, 1])

    def test_solution_stats(self):
        stats = simple_instance().solution_stats([0, 1])
        assert stats.size == 2
        assert stats.feasible
        assert stats.profit == pytest.approx(0.5)


class TestSerialization:
    def test_json_roundtrip(self):
        inst = simple_instance()
        again = KnapsackInstance.from_json(inst.to_json())
        assert again == inst
        assert hash(again) == hash(inst)

    def test_equality_vs_other_types(self):
        assert simple_instance() != "nope"
