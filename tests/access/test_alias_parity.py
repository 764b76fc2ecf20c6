"""Bit-identity of the vectorized alias-table construction.

The vectorized :meth:`AliasTable._build` replaced the historical
item-at-a-time worklist loop; sampler RNG outcomes depend on the exact
floating-point contents of the table, so the two spellings must agree
*bit for bit*, not just approximately.  :meth:`AliasTable._build_reference`
keeps the loop spelling with the same running-cumulative arithmetic;
these tests pin the pair together and check the table's defining
reconstruction law.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access.weighted_sampler import AliasTable, WeightedSampler
from repro.errors import OracleError
from repro.knapsack.generators import generate
from repro.knapsack.instance import KnapsackInstance

positive_probs = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=200,
).filter(lambda ps: sum(ps) > 0)


def _scaled(probs):
    p = np.asarray(probs, dtype=float)
    p = p / p.sum()
    return p * p.size


@settings(max_examples=120, deadline=None)
@given(probs=positive_probs)
def test_vectorized_build_matches_reference_bit_for_bit(probs):
    scaled = _scaled(probs)
    prob_v, alias_v = AliasTable._build(scaled.copy())
    prob_r, alias_r = AliasTable._build_reference(scaled)
    assert prob_v.tobytes() == prob_r.tobytes()
    assert alias_v.tobytes() == alias_r.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=300),
    dist=st.sampled_from(["uniform", "lognormal", "integers", "sparse"]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_vectorized_build_matches_reference_structured(n, dist, seed):
    """Same pin over structured vectors (ties, zeros, integer profits)."""
    rng = np.random.default_rng(seed)
    if dist == "uniform":
        p = rng.random(n)
    elif dist == "lognormal":
        p = rng.lognormal(0.0, 2.0, size=n)
    elif dist == "integers":
        p = rng.integers(0, 5, size=n).astype(float)
    else:
        p = np.where(rng.random(n) < 0.5, 0.0, rng.random(n))
    if p.sum() <= 0:
        p[0] = 1.0
    scaled = _scaled(p)
    prob_v, alias_v = AliasTable._build(scaled.copy())
    prob_r, alias_r = AliasTable._build_reference(scaled)
    assert prob_v.tobytes() == prob_r.tobytes()
    assert alias_v.tobytes() == alias_r.tobytes()


@pytest.mark.parametrize(
    "probs, branch",
    [
        ([0.56, 0.49, 0.86, 0.05], "unserved_small"),
        ([0.95, 0.14, 0.95, 0.31, 0.42], "demoted_last_large"),
        ([0.3] * 5, "all_small"),
        ([2.0] * 4, "all_large"),
        ([0.0, 0.0, 1e6, 0.0, 0.0, 0.0], "zeros_and_one_dominant"),
        ([0.0, 1e-300, 0.0, 1e6, 0.0, 3.0, 0.0], "zeros_and_one_dominant"),
        ([1.0, 3.0, 1.0, 3.0], "deficit_ties_surplus"),
        ([1.0, 1.0, 3.0, 3.0, 1.0, 3.0], "deficit_ties_surplus"),
        ([1.0, 1.0, 1.0, 0.5, 1.5], "deficit_ties_surplus"),
        ([3.0, 1.0, 3.0, 3.0, 1.0, 1.0, 2.0, 2.0], "deficit_ties_surplus"),
    ],
)
def test_rare_branches_match_reference(probs, branch):
    """Vectors that reach the branches random vectors seldom do."""
    scaled = _scaled(probs)
    small = scaled < 1.0
    prob_r, alias_r = AliasTable._build_reference(scaled)
    if branch == "unserved_small":
        # Rounding left the deficit short of cover: a small keeps prob 1.
        assert np.any(small & (prob_r == 1.0))
    elif branch == "demoted_last_large":
        # Every small is served, yet the last large ends below the total
        # deficit and, having no successor, keeps prob 1 / alias 0.
        smalls = np.flatnonzero(small)[::-1]  # pop order
        larges = np.flatnonzero(~small)[::-1]
        deficit = np.cumsum(1.0 - scaled[smalls])[-1]
        surplus = np.cumsum(scaled[larges] - 1.0)[-1]
        assert deficit > surplus
        assert np.array_equal(prob_r[small], scaled[small])
    elif branch == "all_small":
        assert small.all()
    elif branch == "all_large":
        assert not small.any()
    elif branch == "deficit_ties_surplus":
        # A cumulative deficit equals a cumulative surplus exactly, so
        # the merge of the two runs must order the tie as the loop does.
        deficit = np.cumsum(1.0 - scaled[np.flatnonzero(small)[::-1]])
        surplus = np.cumsum(scaled[np.flatnonzero(~small)[::-1]] - 1.0)
        assert np.intersect1d(deficit, surplus).size > 0
    else:
        assert np.count_nonzero(~small) == 1 and np.any(scaled == 0.0)
    prob_v, alias_v = AliasTable._build(scaled.copy())
    assert prob_v.tobytes() == prob_r.tobytes()
    assert alias_v.tobytes() == alias_r.tobytes()
    assert prob_v.dtype == np.float64 and alias_v.dtype == np.int64


@pytest.mark.parametrize("family", ["uniform", "planted_lsg", "efficiency_tiers"])
def test_generated_profits_match_reference(family):
    """Bit-identity at a size where both cumsums are long runs, far past
    the few hundred items the property tests reach."""
    profits = generate(family, 20_000, seed=0).profits
    scaled = _scaled(profits)
    prob_v, alias_v = AliasTable._build(scaled.copy())
    prob_r, alias_r = AliasTable._build_reference(scaled)
    assert prob_v.tobytes() == prob_r.tobytes()
    assert alias_v.tobytes() == alias_r.tobytes()


@pytest.mark.parametrize("family", ["uniform", "planted_lsg"])
def test_build_peak_is_at_most_three_tables(family):
    """Building the 16-byte-per-item table allocates at most 48 bytes
    per item at its peak, the table included."""
    n = 100_000
    profits = generate(family, n, seed=0).profits
    tracemalloc.start()
    try:
        table = AliasTable(profits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.prob.nbytes + table.alias.nbytes == 16 * n
    assert peak <= 48 * n


@settings(max_examples=60, deadline=None)
@given(probs=positive_probs)
def test_alias_table_reconstruction_law(probs):
    """Per-index mass implied by (prob, alias) equals the normalized input."""
    table = AliasTable(probs)
    n = len(probs)
    mass = np.zeros(n)
    for cell in range(n):
        mass[cell] += table.prob[cell] / n
        mass[int(table.alias[cell])] += (1.0 - table.prob[cell]) / n
    target = np.asarray(probs, dtype=float)
    assert np.allclose(mass, target / target.sum(), atol=1e-12)


def test_from_arrays_adoption_draws_identically():
    rng_p = np.random.default_rng(3)
    probs = rng_p.lognormal(0.0, 1.5, size=512)
    built = AliasTable(probs)
    adopted = AliasTable.from_arrays(built.prob, built.alias)
    a = built.draw_many(4096, np.random.default_rng(11))
    b = adopted.draw_many(4096, np.random.default_rng(11))
    assert a.tobytes() == b.tobytes()


def test_from_arrays_rejects_mismatched_columns():
    with pytest.raises(OracleError):
        AliasTable.from_arrays(np.ones(3), np.zeros(4, dtype=np.int64))
    with pytest.raises(OracleError):
        AliasTable.from_arrays(np.empty(0), np.empty(0, dtype=np.int64))


def test_weighted_sampler_rejects_wrong_size_table():
    inst = KnapsackInstance(np.arange(1.0, 11.0), np.ones(10), 5.0)
    table = AliasTable(np.ones(7))
    with pytest.raises(OracleError, match="7 rows"):
        WeightedSampler(inst, table=table)


def test_weighted_sampler_prebuilt_table_identical_stream():
    inst = KnapsackInstance(np.arange(1.0, 101.0), np.ones(100), 50.0)
    fresh = WeightedSampler(inst)
    reused = WeightedSampler(inst, table=AliasTable(inst.profits))
    blk_a = fresh.sample_block(500, np.random.default_rng(9))
    blk_b = reused.sample_block(500, np.random.default_rng(9))
    assert blk_a.indices.tobytes() == blk_b.indices.tobytes()
    assert fresh.samples_used == reused.samples_used == 500


class _CountingInstance:
    """An instance stand-in that counts reads of its ``profits`` column."""

    def __init__(self, inst):
        self._inst = inst
        self.profit_reads = 0

    @property
    def profits(self):
        self.profit_reads += 1
        return self._inst.profits

    def __getattr__(self, name):
        return getattr(self._inst, name)


def test_sampler_over_prebuilt_table_never_reads_profits():
    inst = KnapsackInstance(np.arange(1.0, 101.0), np.ones(100), 50.0)
    counting = _CountingInstance(inst)
    WeightedSampler(counting, table=AliasTable(inst.profits))
    assert counting.profit_reads == 0
    WeightedSampler(counting)  # no table: the O(n) build reads the column
    assert counting.profit_reads > 0


def test_zero_total_profit_still_rejected():
    from repro.knapsack.shm import SharedInstanceStore

    inst = KnapsackInstance.from_arrays_view(np.zeros(4), np.full(4, 0.1), 1.0)
    with pytest.raises(OracleError, match="positive total profit"):
        WeightedSampler(inst)
    # The table build and the store creation are where a prebuilt
    # table's total is verified, so neither can exist for this instance.
    with pytest.raises(OracleError):
        AliasTable(inst.profits)
    with pytest.raises(OracleError):
        SharedInstanceStore.create(inst)
