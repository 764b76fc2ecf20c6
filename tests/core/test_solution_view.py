"""Tests for the lazy SolutionView and LCA-powered value estimation."""

import numpy as np
import pytest

from repro.core.mapping_greedy import mapping_greedy
from repro.core.solution_view import SolutionView
from repro.errors import ReproError
from tests.conftest import make_lca


@pytest.fixture()
def view_setup(tiers_instance, fast_params):
    lca, sampler, _ = make_lca(tiers_instance, fast_params)
    view = SolutionView(lca, sampler)
    # Ground truth from one materialized run (the tiers family is in the
    # perfect-consistency regime, so every run shares this solution).
    solution = mapping_greedy(tiers_instance, lca.run_pipeline(nonce=1).rule)
    return tiers_instance, view, solution


class TestMembership:
    def test_batch_membership_matches_same_run(self, tiers_instance, fast_params):
        # Compare against the materialization of the SAME pipeline run:
        # exact equality holds by construction, independent of the
        # (parameter-dependent) cross-run consistency rate.
        lca, sampler, _ = make_lca(tiers_instance, fast_params)
        view = SolutionView(lca, sampler)
        solution = mapping_greedy(tiers_instance, lca.run_pipeline(nonce=4).rule)
        idx = list(range(0, tiers_instance.n, 53))
        answers = view.membership(idx, nonce=4)
        assert answers == [i in solution for i in idx]

    def test_contains_mostly_matches_across_runs(self, view_setup):
        # Across independent runs agreement is statistical (Lemma 4.9);
        # on the tiers family at these parameters it is near-perfect.
        inst, view, solution = view_setup
        rng = np.random.default_rng(0)
        probes = rng.choice(inst.n, size=25, replace=False)
        agree = sum((int(i) in view) == (int(i) in solution) for i in probes)
        assert agree >= 22


class TestSampleMembers:
    def test_members_are_members(self, view_setup):
        # sample_members runs its own fresh pipeline; cross-run agreement
        # is statistical (Lemma 4.9), so allow a stray boundary item or
        # two rather than demanding exact equality with the reference run.
        inst, view, solution = view_setup
        rng = np.random.default_rng(1)
        members = view.sample_members(15, rng)
        assert len(members) == 15
        strays = set(members) - solution
        assert len(strays) <= 2, f"too many non-members sampled: {strays}"

    def test_gives_up_on_empty_solution(self, tiers_instance, fast_params):
        # An LCA that always says no: sample_members must terminate.
        class NoLCA:
            def run_pipeline(self, nonce=None):
                class R:
                    class rule:
                        @staticmethod
                        def decide(p, w, i):
                            return False

                return R()

            def answer(self, i):
                raise AssertionError("shared-run path should be used")

        from repro.access.weighted_sampler import WeightedSampler

        view = SolutionView(NoLCA(), WeightedSampler(tiers_instance))
        members = view.sample_members(3, np.random.default_rng(0), max_attempts_factor=5)
        assert members == []

    def test_k_validation(self, view_setup):
        _, view, _ = view_setup
        with pytest.raises(ReproError):
            view.sample_members(0, np.random.default_rng(0))


class TestValueEstimation:
    def test_unbiased_estimate_matches_true_value(self, tiers_instance, fast_params):
        # The estimate measures the pipeline its nonce names, so it is an
        # exact binomial mean of that solution's value: abs=0.06 is about
        # 8 sigma at 4000 queries.
        lca, sampler, _ = make_lca(tiers_instance, fast_params)
        est = SolutionView(lca, sampler).estimate_value(4000, np.random.default_rng(2))
        solution = mapping_greedy(tiers_instance, lca.run_pipeline(nonce=est.nonce).rule)
        true_value = tiers_instance.profit_of(solution)
        assert est.estimate == pytest.approx(true_value, abs=0.06)
        assert est.ci_low - 0.03 <= true_value <= est.ci_high + 0.03

    def test_same_rng_gives_the_same_estimate(self, view_setup):
        _, view, _ = view_setup
        first = view.estimate_value(500, np.random.default_rng(7))
        assert view.estimate_value(500, np.random.default_rng(7)) == first
        assert first.nonce is not None

    def test_ci_narrows_with_queries(self, view_setup):
        _, view, _ = view_setup
        wide = view.estimate_value(200, np.random.default_rng(3))
        narrow = view.estimate_value(5000, np.random.default_rng(3))
        assert narrow.half_width() < wide.half_width()

    def test_queries_validation(self, view_setup):
        _, view, _ = view_setup
        with pytest.raises(ReproError):
            view.estimate_value(0, np.random.default_rng(0))

    def test_independent_run_mode(self, tiers_instance, fast_params):
        lca, sampler, _ = make_lca(tiers_instance, fast_params)
        view = SolutionView(lca, sampler, shared_run=False)
        est = view.estimate_value(5, np.random.default_rng(4))
        assert 0.0 <= est.estimate <= 1.0
