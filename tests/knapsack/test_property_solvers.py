"""Property-based tests (hypothesis) for the Knapsack substrate.

These pin the algebraic invariants every solver must satisfy on
arbitrary well-formed instances: feasibility, the 1/2-approximation
guarantee, the fractional bound sandwich, and scale invariance of the
normalizations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.knapsack.instance import KnapsackInstance
from repro.knapsack.solvers import (
    fractional_upper_bound,
    half_approximation,
    meet_in_middle,
    prefix_greedy,
    skipping_greedy,
)


@st.composite
def instances(draw, max_items: int = 12):
    """Small random instances with every weight <= K (the model invariant)."""
    n = draw(st.integers(min_value=1, max_value=max_items))
    profits = draw(
        st.lists(
            st.floats(min_value=0.001, max_value=10.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    weights = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    max_w = max(weights)
    capacity = draw(st.floats(min_value=max(max_w, 0.001), max_value=max(max_w, 0.001) * 4))
    return KnapsackInstance(profits, weights, capacity, normalize=False)


@settings(max_examples=60, deadline=None)
@given(instances())
def test_half_approximation_guarantee(inst):
    opt = meet_in_middle(inst).value
    half = half_approximation(inst)
    assert half.value >= 0.5 * opt - 1e-9
    assert half.weight <= inst.capacity + 1e-9


@settings(max_examples=60, deadline=None)
@given(instances())
def test_fractional_sandwich(inst):
    opt = meet_in_middle(inst).value
    frac = fractional_upper_bound(inst)
    total = float(inst.profits.sum())
    assert opt - 1e-9 <= frac <= total + 1e-9


@settings(max_examples=60, deadline=None)
@given(instances())
def test_greedy_chain(inst):
    prefix = prefix_greedy(inst)
    skipping = skipping_greedy(inst)
    opt = meet_in_middle(inst).value
    # prefix <= skipping <= OPT, and all feasible.
    assert prefix.value <= skipping.value + 1e-9
    assert skipping.value <= opt + 1e-9
    for res in (prefix, skipping):
        assert res.weight <= inst.capacity + 1e-9
        assert np.isclose(
            res.value, float(np.sum(inst.profits[sorted(res.indices)])), atol=1e-12
        )


@settings(max_examples=40, deadline=None)
@given(instances(), st.floats(min_value=0.5, max_value=20.0))
def test_optimum_scale_invariance(inst, scale):
    """Scaling all profits scales OPT; scaling weights+capacity preserves it."""
    base = meet_in_middle(inst).value
    scaled_profits = KnapsackInstance(
        inst.profits * scale, inst.weights, inst.capacity, normalize=False
    )
    assert meet_in_middle(scaled_profits).value == abs(base * scale) or np.isclose(
        meet_in_middle(scaled_profits).value, base * scale, rtol=1e-9
    )
    scaled_weights = KnapsackInstance(
        inst.profits, inst.weights * scale, inst.capacity * scale, normalize=False
    )
    assert np.isclose(meet_in_middle(scaled_weights).value, base, rtol=1e-9)


@settings(max_examples=40, deadline=None)
@given(instances())
def test_maximality_of_skipping_greedy(inst):
    """Skipping greedy output is always a maximal feasible solution."""
    res = skipping_greedy(inst)
    assert inst.is_maximal(res.indices)


@pytest.mark.parametrize("sliver", [3.5e-13, 1e-12, 2e-12])
def test_fit_test_scales_with_capacity(sliver):
    """A set that overflows K by a sliver fits at every scale or at none."""

    def scaled(scale):
        return KnapsackInstance(
            [1.0, 1.0], [scale, sliver * scale], scale, normalize=False
        )

    base = scaled(1.0)
    for scale in (0.5, 3.0, 1000.0):
        inst = scaled(scale)
        assert meet_in_middle(inst).value == meet_in_middle(base).value
        greedy = skipping_greedy(inst)
        assert greedy.value == skipping_greedy(base).value
        assert inst.is_maximal(greedy.indices)
