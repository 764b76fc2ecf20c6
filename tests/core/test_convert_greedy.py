"""Tests for CONVERT-GREEDY (Algorithm 3)."""

import math
import pickle

import numpy as np
import pytest

from repro.access.seeds import SeedChain
from repro.core.convert_greedy import ConvertGreedyResult, convert_greedy
from repro.core.simplified_instance import build_simplified_instance
from repro.core.tie_breaking import TieBreakingRule

EPS = 0.1
EPS_SQ = EPS * EPS


def tilde(large, seq, capacity):
    return build_simplified_instance(large, seq, EPS, capacity)


class TestGreedyBranch:
    def test_everything_fits(self):
        # Small budget of reps, huge capacity: greedy takes all, j = n.
        res = convert_greedy(tilde({0: (0.5, 0.1)}, (2.0, 1.0), capacity=10.0))
        assert not res.b_indicator
        assert res.index_large == {0}
        assert res.j == 1 + 2 * math.floor(1 / EPS)

    def test_k_backoff_two_bands(self):
        # Five bands, capacity cutting inside band 4 (threshold 0.5).
        seq = (8.0, 4.0, 2.0, 1.0, 0.5)
        copies = math.floor(1 / EPS)
        # Band weights: eps^2/e per item. Make capacity fit bands 0-3
        # fully plus part of band 4.
        full = sum(copies * EPS_SQ / e for e in seq[:4])
        capacity = full + 3 * EPS_SQ / 0.5  # three items of the last band
        res = convert_greedy(tilde({}, seq, capacity))
        assert not res.b_indicator
        # Cut efficiency is 0.5 => k = 4 (thresholds 8,4,2,1 all > 0.5).
        assert res.k == 4
        # e_small = e_{k-2} = e_2 = 4.0 (1-based indexing).
        assert res.e_small == pytest.approx(4.0)

    def test_no_threshold_above_cut(self):
        # Cut happens among large items above every band threshold.
        large = {0: (0.5, 0.3), 1: (0.45, 0.3)}  # efficiencies 1.67, 1.5
        res = convert_greedy(tilde(large, (1.0,), capacity=0.3))
        # Only item 0 fits; cut at item 1 (eff 1.5) > e_1 = 1 => k = 0.
        assert res.k == 0
        assert res.e_small is None
        assert res.index_large == {0}

    def test_k_less_than_three_gives_no_small(self):
        seq = (2.0, 1.0)
        copies = math.floor(1 / EPS)
        capacity = copies * EPS_SQ / 2.0 + EPS_SQ / 1.0  # band 0 + one item
        res = convert_greedy(tilde({}, seq, capacity))
        assert res.k <= 2
        assert res.e_small is None
        assert not res.b_indicator


class TestSingletonBranch:
    def test_heavy_large_item_wins(self):
        # A cloud of tiny-profit reps plus one huge item that doesn't fit
        # after them: prefix profit < rejected profit => singleton.
        large = {9: (0.6, 0.5)}  # efficiency 1.2
        seq = (2.0,)  # reps: profit eps^2, weight eps^2/2, eff 2.0 (first)
        copies = math.floor(1 / EPS)
        reps_weight = copies * EPS_SQ / 2.0
        capacity = reps_weight + 0.25  # the 0.5-weight item cannot fit
        res = convert_greedy(tilde(large, seq, capacity))
        assert res.b_indicator
        assert res.index_large == {9}
        assert res.e_small is None
        assert res.anomaly is None

    def test_nothing_fits_zero_prefix(self):
        # Capacity below even the first item: j = 0, singleton on item 1.
        large = {0: (0.9, 0.5)}
        res = convert_greedy(tilde(large, (), capacity=0.4))
        assert res.j == 0
        assert res.b_indicator
        assert res.index_large == {0}

    def test_decide_singleton(self):
        large = {9: (0.6, 0.5)}
        copies = math.floor(1 / EPS)
        capacity = copies * EPS_SQ / 2.0 + 0.25
        res = convert_greedy(tilde(large, (2.0,), capacity))
        assert res.decide(0.6, 0.5, 9) is True
        assert res.decide(0.5, 0.4, 3) is False  # other large item
        assert res.decide(EPS_SQ / 2, EPS_SQ, 4) is False  # small item


class TestDecideRule:
    def make(self):
        seq = (8.0, 4.0, 2.0, 1.0, 0.5)
        copies = math.floor(1 / EPS)
        capacity = sum(copies * EPS_SQ / e for e in seq[:4]) + 3 * EPS_SQ / 0.5
        return convert_greedy(tilde({}, seq, capacity))

    def test_small_above_threshold_included(self):
        res = self.make()  # e_small = 4.0
        assert res.decide(0.005, 0.001, 0) is True  # eff 5 >= 4
        assert res.decide(0.005, 0.0025, 1) is False  # eff 2 < 4

    def test_garbage_always_excluded(self):
        res = self.make()
        assert res.decide(0.001, 1.0, 2) is False  # eff 0.001 < eps^2

    def test_large_membership_by_index(self):
        res = convert_greedy(tilde({4: (0.5, 0.1)}, (), capacity=1.0))
        assert res.decide(0.5, 0.1, 4) is True
        assert res.decide(0.5, 0.1, 5) is False


def _rule(index_large, e_small, b_indicator):
    """A hand-built rule: only the four decision fields matter."""
    return ConvertGreedyResult(
        epsilon=EPS,
        index_large=frozenset(index_large),
        e_small=e_small,
        b_indicator=b_indicator,
        j=0,
        k=0,
        cut_efficiency=math.inf,
        greedy_profit=0.0,
        greedy_weight=0.0,
    )


#: Large indices and the probes around them: below, equal to, between
#: and above every large index (the ``searchsorted`` boundaries).
LARGE = (3, 7, 8, 20)
PROBES = (0, 2, 3, 4, 6, 7, 8, 9, 19, 20, 21, 500)
#: (profit, weight) rows covering large, small, garbage and zero-weight items.
ROWS = (
    (0.5, 0.1),  # large
    (0.02, 0.5),  # large, inefficient
    (0.005, 0.001),  # small, eff 5
    (0.005, 0.0025),  # small, eff 2
    (EPS_SQ, EPS_SQ / 4),  # small at the profit boundary, eff 4
    (0.001, 1.0),  # garbage
    (0.005, 0.0),  # zero weight: eff inf
    (0.0, 0.0),  # zero profit and weight: eff 0
    (0.3, 0.0),  # large, zero weight
)

RULES = {
    "greedy-with-threshold": _rule(LARGE, 4.0, False),
    "greedy-no-threshold": _rule(LARGE, None, False),
    "greedy-no-large": _rule((), 2.0, False),
    "singleton": _rule((7,), None, True),
    "singleton-anomaly": _rule((), None, True),
}


def _tie_rule(base):
    return TieBreakingRule(
        base=base, band_lo=1.9, band_hi=5.5, fraction=0.5, seed=SeedChain(4)
    )


class TestDecideMany:
    """``decide_many`` is :meth:`decide` applied row by row, bit for bit,
    on one row (the scalar path) and on many (the vectorized one)."""

    @pytest.mark.parametrize("name", sorted(RULES))
    @pytest.mark.parametrize("tie", [False, True], ids=["base", "tie"])
    def test_every_size_matches_the_scalar_rule(self, name, tie):
        rule = _tie_rule(RULES[name]) if tie else RULES[name]
        rows = [(p, w, i) for p, w in ROWS for i in PROBES]
        profits, weights, indices = (np.array(col) for col in zip(*rows))
        expected = [rule.decide(p, w, i) for p, w, i in rows]
        for k in range(len(rows)):
            row = slice(k, k + 1)
            one = rule.decide_many(profits[row], weights[row], indices[row])
            assert list(one) == [expected[k]]
            assert type(one[0]) is bool
        assert rule.decide_many(profits, weights, indices).tolist() == expected
        for size in (2, 5):
            got = rule.decide_many(profits[:size], weights[:size], indices[:size])
            assert got.tolist() == expected[:size]

    def test_sorted_large_memo_is_invisible(self):
        rule = _rule(LARGE, 4.0, False)
        fresh = _rule(LARGE, 4.0, False)
        rule.decide_many([0.5, 0.5], [0.1, 0.1], [3, 4])
        assert rule.sorted_large().tolist() == sorted(LARGE)
        assert rule == fresh and repr(rule) == repr(fresh)
        assert hash(rule) == hash(fresh)
        assert pickle.dumps(rule) == pickle.dumps(fresh)
        assert not rule.sorted_large().flags.writeable
