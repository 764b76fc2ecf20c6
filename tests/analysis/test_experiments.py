"""Smoke/shape tests for the experiment runners (small sizes).

The benches run these at full scale; here we verify, fast, that each
runner produces well-formed rows and that its headline relations hold
at reduced sizes.
"""

import pytest

from repro.analysis import experiments as exps
from repro.core.parameters import LCAParameters
from repro.reproducible.domains import EfficiencyDomain


@pytest.fixture(scope="module")
def tiny_params():
    return LCAParameters.calibrated(
        0.1, domain=EfficiencyDomain(bits=10), max_nrq=3000, max_m_large=3000
    )


class TestLowerBoundRunners:
    def test_thm32_rows(self):
        rows = exps.exp_thm32_or_lower_bound(
            ns=(64,), budget_fractions=(0.0, 0.5), trials=300
        )
        assert len(rows) == 2
        assert rows[0]["budget"] == 0
        assert rows[1]["success_emp"] > rows[0]["success_emp"] - 0.1
        assert {"n", "budget", "success_theory", "meets_2/3"} <= set(rows[0])

    def test_thm33_rows(self):
        rows = exps.exp_thm33_approx_lower_bound(alphas=(0.5,), m=64, trials=200)
        assert all(r["semantics_ok"] for r in rows)
        assert all(0 <= r["success_emp"] <= 1 for r in rows)

    def test_thm33_needs_a_distinct_sublinear_budget(self):
        # Below m = 10 the m/10 budget is 0, so the check would grade m/3.
        with pytest.raises(ValueError, match="m >= 10"):
            exps.exp_thm33_approx_lower_bound(alphas=(0.5,), m=9, trials=10)

    def test_thm34_rows(self):
        rows = exps.exp_thm34_maximal_lower_bound(
            ns=(64,), budget_fractions=(0.0, 0.95), trials=300
        )
        assert rows[0]["error_emp"] > rows[-1]["error_emp"]
        assert not rows[0]["below_1/5"]


class TestPositiveResultRunners:
    def test_approximation_rows(self, tiny_params):
        rows = exps.exp_thm41_approximation(
            n=600, epsilon=0.1, runs=1, params=tiny_params
        )
        assert {r["family"] for r in rows} == set(exps.default_families(0.1))
        for r in rows:
            assert r["feasible"]
            assert r["meets_bound"]

    def test_consistency_rows(self, tiny_params):
        rows = exps.exp_thm41_consistency(
            n=600, epsilon=0.1, runs=3, probes=15, params=tiny_params
        )
        for r in rows:
            assert 0 <= r["unanimity"] <= 1
            assert 0 <= r["pairwise_agreement"] <= 1
            assert r["pairwise_agreement"] >= r["unanimity"] - 1e-9

    def test_scaling_rows(self, tiny_params):
        rows = exps.exp_thm41_query_scaling(
            ns=(600, 2400), epsilon=0.1, params=tiny_params
        )
        costs = [r["lca_cost_per_query"] for r in rows]
        assert max(costs) <= 1.3 * min(costs)


class TestBuildingBlockRunners:
    def test_lemma42_rows(self):
        rows = exps.exp_lemma42_coupon(deltas=(0.2,), n=400, trials=30)
        assert rows[0]["meets_guarantee"]

    def test_rquantile_rows(self):
        rows = exps.exp_rquantile_reproducibility(sample_sizes=(2000,), runs=4)
        atomic = [r for r in rows if r["distribution"] == "atomic"][0]
        assert atomic["agreement"] == 1.0
        assert all(r["within_tau"] for r in rows)

    def test_iky_rows(self):
        rows = exps.exp_iky_value(n=300, epsilons=(0.1,), runs=1)
        assert all(r["within_6eps"] for r in rows)

    def test_ablation_rows(self):
        rows = exps.exp_ablation_domain_bits(bits_grid=(10,), n=600, runs=2)
        assert all(r["feasible"] for r in rows)
        assert {r["family"] for r in rows} == {"planted_lsg", "weakly_correlated"}


class TestReferenceOptimum:
    def test_exact_on_small(self):
        from repro.knapsack import generators as g

        opt, exact = exps.reference_optimum(g.uniform(30, seed=1))
        assert exact
        assert opt > 0

    def test_bound_on_large(self):
        from repro.knapsack import generators as g

        opt, exact = exps.reference_optimum(g.uniform(800, seed=1))
        assert not exact
        assert opt > 0
