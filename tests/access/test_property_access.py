"""Property-based tests for the access layer."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access import beside
from repro.access.seeds import SeedChain
from repro.access.weighted_sampler import AliasTable
from repro.knapsack.generators import generate


@settings(max_examples=40, deadline=None)
@given(
    probs=st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=30,
    ).filter(lambda ps: sum(ps) > 0),
    rng_seed=st.integers(min_value=0, max_value=1000),
)
def test_alias_table_support_property(probs, rng_seed):
    """Draws only ever land on positive-probability indices."""
    table = AliasTable(probs)
    rng = np.random.default_rng(rng_seed)
    draws = table.draw_many(500, rng)
    support = {i for i, p in enumerate(probs) if p > 0}
    assert set(draws.tolist()) <= support


@settings(max_examples=30, deadline=None)
@given(
    probs=st.lists(
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
        min_size=2,
        max_size=8,
    ),
)
def test_alias_table_frequencies_property(probs):
    """Empirical frequencies converge to the normalized probabilities."""
    table = AliasTable(probs)
    rng = np.random.default_rng(7)
    draws = table.draw_many(60_000, rng)
    freq = np.bincount(draws, minlength=len(probs)) / draws.size
    target = np.array(probs) / sum(probs)
    assert np.allclose(freq, target, atol=0.02)


def _reference_draws(prob, alias, m, rng):
    """The alias rule one draw at a time, over streams drawn the way
    ``draw_many`` draws them: all ``integers``, then all ``random``."""
    idx = rng.integers(prob.size, size=m)
    coin = rng.random(m)
    return [i if c < prob[i] else int(alias[i]) for i, c in zip(idx.tolist(), coin.tolist())]


def _read_only(column):
    view = column.view()
    view.setflags(write=False)
    return view


TABLES = st.one_of(
    # Zero-probability entries and n=1 included.
    st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=30,
    ).filter(lambda ps: sum(ps) > 0),
    # All-equal: every entry keeps its own index, no draw moves.
    st.integers(min_value=1, max_value=30).map(lambda n: [1.0] * n),
)


@settings(max_examples=80, deadline=None)
@given(
    probs=TABLES,
    m=st.one_of(st.sampled_from([0, 1, 2]), st.integers(min_value=0, max_value=400)),
    adopted=st.booleans(),
    rng_seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_draw_many_follows_the_alias_rule(probs, m, adopted, rng_seed):
    """``draw_many`` equals the per-draw alias rule bit for bit, leaves
    the generator where the reference leaves it, and returns a fresh
    int64 array: it never writes into a table column.  Adopted tables
    run over read-only column views, as the shared tier's do."""
    table = AliasTable(probs)
    if adopted:
        table = AliasTable.from_arrays(_read_only(table.prob), _read_only(table.alias))
    prob_before, alias_before = table.prob.copy(), table.alias.copy()
    rng, ref_rng = np.random.default_rng(rng_seed), np.random.default_rng(rng_seed)
    out = table.draw_many(m, rng)
    assert out.tolist() == _reference_draws(table.prob, table.alias, m, ref_rng)
    assert rng.random() == ref_rng.random()
    assert out.dtype == np.int64 and out.shape == (m,)
    assert out.flags.writeable
    assert not np.shares_memory(out, table.prob)
    assert not np.shares_memory(out, table.alias)
    assert table.prob.tolist() == prob_before.tolist()
    assert table.alias.tolist() == alias_before.tolist()


SPLIT = beside.SPLIT_MIN_ROWS


@pytest.fixture(scope="module")
def planted_table():
    return AliasTable(generate("planted_lsg", 20_000, seed=0).profits)


@pytest.mark.parametrize("m", [SPLIT - 1, SPLIT, SPLIT + 1, 3 * SPLIT + 1])
def test_draw_many_is_identical_split_and_inline(planted_table, monkeypatch, m):
    """Around the split threshold (and at an odd size past it), draws
    settled in two halves on two threads equal draws settled inline on
    the caller and the per-draw reference, and all three leave the
    generator in the same state.  With more than one CPU, a block at or
    above the threshold does settle its upper half on a helper."""
    settled_on = []
    settle = AliasTable._settle

    def recording(self, idx, coin):
        settled_on.append(threading.get_ident())
        settle(self, idx, coin)

    monkeypatch.setattr(AliasTable, "_settle", recording)
    table, seed = planted_table, 9000 + m
    free_rng = np.random.default_rng(seed)
    free = table.draw_many(m, free_rng)
    split = len(set(settled_on)) == 2
    settled_on.clear()
    held_rng = np.random.default_rng(seed)
    with beside._SLOT:
        held = table.draw_many(m, held_rng)
    assert set(settled_on) == {threading.get_ident()}
    ref_rng = np.random.default_rng(seed)
    ref = _reference_draws(table.prob, table.alias, m, ref_rng)
    assert free.tolist() == ref
    assert held.tobytes() == free.tobytes()
    assert free_rng.random() == held_rng.random() == ref_rng.random()
    assert split == (m >= SPLIT and beside._cpus() > 1)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=-(2**40), max_value=2**40),
    path_a=st.lists(st.text(min_size=0, max_size=8), max_size=4),
    path_b=st.lists(st.text(min_size=0, max_size=8), max_size=4),
)
def test_seed_chain_path_injectivity(seed, path_a, path_b):
    """Distinct label paths give distinct streams; equal paths, equal ones."""
    a = SeedChain(seed).descend(path_a)
    b = SeedChain(seed).descend(path_b)
    if path_a == path_b:
        assert a == b and a.uniform() == b.uniform()
    else:
        assert a != b  # SHA-256 collision would be news


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**40),
    lo=st.floats(min_value=-100, max_value=100, allow_nan=False),
    width=st.floats(min_value=1e-6, max_value=100, allow_nan=False),
)
def test_seed_chain_uniform_range_property(seed, lo, width):
    v = SeedChain(seed).child("u").uniform(lo, lo + width)
    assert lo <= v < lo + width
