"""Edge-path coverage: corners the mainline tests do not reach."""

import math

import numpy as np
import pytest

from repro.core.convert_greedy import convert_greedy
from repro.core.eps import band_masses, check_eps
from repro.core.simplified_instance import build_simplified_instance
from repro.knapsack import generators as g
from repro.knapsack.instance import KnapsackInstance

EPS = 0.1
EPS_SQ = EPS * EPS


class TestConvertGreedyAnomaly:
    def test_singleton_small_representative_flagged(self):
        """The measure-zero corner: a constructed small rep 'wins' the
        singleton branch.  Force it with a degenerate hand-built I~:
        capacity below the first (small) item, no large items."""
        # One band whose representatives are each heavier than K.
        tilde = build_simplified_instance({}, (EPS_SQ / 2.0,), EPS, capacity=0.001)
        # rep weight = eps_sq / (eps_sq/2) = 2.0 > K; nothing fits: j = 0.
        res = convert_greedy(tilde)
        assert res.j == 0
        assert res.b_indicator
        assert res.anomaly == "singleton-branch-selected-small-representative"
        assert res.index_large == frozenset()
        # The anomalous result still answers (conservatively) everywhere.
        assert res.decide(0.5, 0.0005, 0) is False
        assert res.decide(0.001, 0.001, 1) is False

    def test_infinite_cut_efficiency_on_empty_prefix(self):
        tilde = build_simplified_instance({0: (0.9, 0.5)}, (), EPS, capacity=0.1)
        res = convert_greedy(tilde)
        assert res.j == 0
        assert math.isinf(res.cut_efficiency)


class TestEPSEdgeBranches:
    def test_band_masses_excluding_garbage(self):
        inst = g.planted_lsg(800, seed=2, epsilon=EPS)
        from repro.core.eps import true_quantile_sequence

        seq = true_quantile_sequence(inst, EPS)
        with_g = band_masses(inst, seq, EPS, include_garbage_in_last=True)
        without_g = band_masses(inst, seq, EPS, include_garbage_in_last=False)
        assert sum(with_g) >= sum(without_g)
        # Garbage efficiency < eps^2 <= every threshold: only the last
        # band can differ.
        for a, b in zip(with_g[:-1], without_g[:-1]):
            assert a == pytest.approx(b)

    def test_band_masses_empty_thresholds(self):
        inst = g.uniform(50, seed=1)
        assert band_masses(inst, (), EPS) == []

    def test_check_eps_no_small_items(self):
        # All profit on one large item: the small set is empty.
        inst = KnapsackInstance([0.97, 0.03], [0.3, 0.3], 1.0, normalize=False)
        report = check_eps(inst, (1.0,), 0.1)
        assert not report.is_eps  # a band over nothing cannot hold ~eps mass


class TestInstanceEdges:
    def test_solution_stats_deduplicates(self):
        inst = g.uniform(20, seed=0)
        stats = inst.solution_stats([3, 3, 5])
        assert stats.size == 2

    def test_zero_capacity_instance(self):
        inst = KnapsackInstance([1.0, 2.0], [0.0, 0.0], 0.0, normalize=False)
        assert inst.is_feasible([0, 1])
        assert inst.is_maximal([0, 1])

    def test_is_maximal_tolerates_duplicate_indices(self):
        inst = g.uniform(10, seed=0)
        full_greedy = [i for i in range(10)]
        # duplicates in input collapse
        assert inst.weight_of([0, 0]) == pytest.approx(inst.weight(0))


class TestSamplerEdges:
    def test_custom_sampler_sample_many(self, tiers_instance):
        from repro.access.weighted_sampler import CustomSampler

        cs = CustomSampler(tiers_instance, lambda rng: int(rng.integers(5)))
        out = cs.sample_many(7, np.random.default_rng(0))
        assert len(out) == 7
        assert cs.samples_used == 7
        assert all(0 <= s.index < 5 for s in out)

    def test_function_instance_weight_fn(self):
        from repro.access.oracle import FunctionInstance

        fi = FunctionInstance(4, 2.0, lambda i: 0.25, lambda i: float(i))
        assert fi.weight(3) == 3.0
