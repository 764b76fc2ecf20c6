"""Solver microbenchmarks: the classical algorithms the paper's
analysis leans on (greedy, the 1/2-approximation, fractional
relaxation, FPTAS, exact search), timed per call on a common workload.

Their agreement table (E11) is the ``E11_solvers`` theorem cell of
``benchmarks/suites/theorems.json``.
"""

import pytest

from repro.knapsack import generators as g
from repro.knapsack.solvers import (
    branch_and_bound,
    fptas,
    fractional_upper_bound,
    half_approximation,
    meet_in_middle,
    prefix_greedy,
    solve_exact,
)


@pytest.fixture(scope="module")
def medium_instance():
    return g.uniform(400, seed=17)


@pytest.fixture(scope="module")
def small_instance():
    return g.uniform(26, seed=17)


def test_prefix_greedy_speed(benchmark, medium_instance):
    result = benchmark(prefix_greedy, medium_instance)
    assert result.weight <= medium_instance.capacity + 1e-9


def test_half_approximation_speed(benchmark, medium_instance):
    result = benchmark(half_approximation, medium_instance)
    assert result.value >= 0.5 * fractional_upper_bound(medium_instance) - 0.5


def test_fractional_bound_speed(benchmark, medium_instance):
    bound = benchmark(fractional_upper_bound, medium_instance)
    assert bound > 0


def test_fptas_speed(benchmark, small_instance):
    result = benchmark(fptas, small_instance, 0.1)
    assert result.value >= 0.9 * solve_exact(small_instance).value - 1e-9


def test_branch_and_bound_speed(benchmark, small_instance):
    result = benchmark(branch_and_bound, small_instance)
    assert result.exact


def test_meet_in_middle_speed(benchmark, small_instance):
    result = benchmark(meet_in_middle, small_instance)
    assert result.exact
