"""The per-item efficiency-code memo behind ``TableBlock.small_codes``.

A weighted sampler's block reads the grid codes of its small draws from
a memo on the alias table; every other block computes them from its own
columns.  The two must agree on every draw, whatever the memo already
holds, for any instance, ``eps^2`` and domain.
"""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access.blocks import SampleBlock, TableBlock
from repro.access.codes import LARGE, UNENCODED, CodeMemo, code_dtype
from repro.access.weighted_sampler import AliasTable, WeightedSampler
from repro.faults import FaultPlan, FaultyAccess
from repro.knapsack.instance import KnapsackInstance
from repro.knapsack.items import efficiency
from repro.reproducible.domains import EfficiencyDomain

EPS_SQ = 0.01
DOMAIN = EfficiencyDomain(bits=12, lo=1e-3, hi=1e3)


def memo_of(table, instance, eps_sq=EPS_SQ, domain=DOMAIN):
    """The table's memo for ``instance``, created if the key is unseen
    (the first request only marks a key seen)."""
    args = (instance.profits, instance.weights, eps_sq, domain)
    return table.code_memo(*args) or table.code_memo(*args)


def filled(memo):
    return int(np.count_nonzero(memo.codes != UNENCODED))


def column_codes(instance, indices, eps_sq=EPS_SQ, domain=DOMAIN):
    """The reference: a plain block over the gathered columns."""
    block = SampleBlock(
        indices, instance.profits[indices], instance.weights[indices]
    )
    return block.small_codes(eps_sq, domain)


#: Profits hit eps^2 exactly, straddle it and reach 0; weights reach 0
#: and range far enough that efficiencies leave the domain both ways.
PROFITS = st.sampled_from([0.0, EPS_SQ, np.nextafter(EPS_SQ, 0), 0.02, 1e-9, 0.5, 3e-3])
WEIGHTS = st.sampled_from([0.0, 1e-9, 1e-4, 0.01, 1.0, 1e6])


@st.composite
def instances(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    profits = draw(st.lists(PROFITS, min_size=n, max_size=n))
    weights = draw(st.lists(WEIGHTS, min_size=n, max_size=n))
    profits[draw(st.integers(0, n - 1))] = 0.5  # positive total profit
    return KnapsackInstance(profits, weights, 1e6, normalize=False)


@settings(max_examples=80, deadline=None)
@given(
    instance=instances(),
    draws=st.integers(min_value=0, max_value=120),
    prefill=st.sampled_from(["unseen", "empty", "partial", "full"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_table_codes_equal_column_codes(instance, draws, prefill, seed):
    sampler = WeightedSampler(instance)
    rng = np.random.default_rng(seed)
    if prefill != "unseen":
        memo = memo_of(sampler.table, instance)
    if prefill == "full":
        memo.lookup(np.arange(instance.n))
        assert filled(memo) == instance.n
    elif prefill == "partial":
        memo.lookup(rng.integers(instance.n, size=max(1, instance.n // 2)))
    block = sampler.sample_block(draws, rng)
    assert isinstance(block, TableBlock)
    got = block.small_codes(EPS_SQ, DOMAIN)
    want = column_codes(instance, block.indices)
    assert got.tolist() == want.tolist()
    # The block's lazily gathered columns are the instance's rows.
    assert block.profits.tolist() == instance.profits[block.indices].tolist()
    assert block.weights.tolist() == instance.weights[block.indices].tolist()


def test_sentinels_and_edge_items():
    #          zero-w  0/0   =eps^2  >eps^2  eff<lo  eff>hi
    profits = [0.005, 0.0, EPS_SQ, 0.02, 1e-9, 0.009]
    weights = [0.0, 0.0, 1.0, 1.0, 1.0, 1e-9]
    inst = KnapsackInstance(profits, weights, 1.0, normalize=False)
    memo = CodeMemo(inst.profits, inst.weights, EPS_SQ, DOMAIN)
    assert memo.codes.dtype == np.int16
    assert filled(memo) == 0 and set(memo.codes.tolist()) == {UNENCODED}
    codes = memo.lookup(np.arange(inst.n))
    top = DOMAIN.size - 1
    assert codes.tolist() == [top, 0, DOMAIN.encode(EPS_SQ), LARGE, 0, top]
    assert memo.codes.tolist() == codes.tolist()


def test_code_dtype_widens_only_past_int16():
    assert code_dtype(1 << 12) == np.int16
    assert code_dtype(1 << 15) == np.int16
    assert code_dtype((1 << 15) + 1) == np.int32
    assert code_dtype(1 << 31) == np.int32
    assert code_dtype(1 << 40) == np.int64


def test_wide_domain_memo_matches_columns():
    rng = np.random.default_rng(3)
    inst = KnapsackInstance(rng.uniform(0, 1, 500), rng.uniform(0, 1, 500), 1.0)
    domain = EfficiencyDomain(bits=20)
    sampler = WeightedSampler(inst)
    block = sampler.sample_block(2000, rng)
    eps_sq = float(np.median(inst.profits))
    assert block.small_codes(eps_sq, domain).tolist() == column_codes(
        inst, block.indices, eps_sq, domain
    ).tolist()
    block.small_codes(eps_sq, domain)  # the second run creates the memo
    memo = memo_of(sampler.table, inst, eps_sq, domain)
    assert memo.codes.dtype == np.int32


def test_two_parameter_sets_share_one_table():
    rng = np.random.default_rng(5)
    inst = KnapsackInstance(rng.uniform(0, 1, 300), rng.uniform(0.01, 1, 300), 1.0)
    sampler = WeightedSampler(inst)
    settings_ = [(EPS_SQ, DOMAIN), (0.004, EfficiencyDomain(bits=10))]
    for _ in range(3):
        block = sampler.sample_block(400, rng)
        for eps_sq, domain in settings_:
            assert block.small_codes(eps_sq, domain).tolist() == column_codes(
                inst, block.indices, eps_sq, domain
            ).tolist()
    memos = {id(memo_of(sampler.table, inst, e, d)) for e, d in settings_}
    assert len(memos) == 2


def test_a_second_instance_on_the_table_gets_its_own_memo():
    rng = np.random.default_rng(6)
    profits = rng.uniform(0, 0.02, 200)
    a = KnapsackInstance(profits, rng.uniform(0.01, 1, 200), 1.0, normalize=False)
    b = KnapsackInstance(profits, rng.uniform(0.01, 1, 200), 1.0, normalize=False)
    table = WeightedSampler(a).table
    for inst in (a, b, a):
        block = WeightedSampler(inst, table=table).sample_block(300, rng)
        assert block.small_codes(EPS_SQ, DOMAIN).tolist() == column_codes(
            inst, block.indices
        ).tolist()


def test_a_tables_first_run_allocates_no_memo():
    rng = np.random.default_rng(8)
    inst = KnapsackInstance(rng.uniform(0, 1, 300), rng.uniform(0.01, 1, 300), 1.0)
    sampler = WeightedSampler(inst)
    first = sampler.sample_block(500, rng)
    assert first.small_codes(EPS_SQ, DOMAIN).tolist() == column_codes(
        inst, first.indices
    ).tolist()
    assert list(sampler.table._memos.values()) == [None]
    second = sampler.sample_block(500, rng)
    assert second.small_codes(EPS_SQ, DOMAIN).tolist() == column_codes(
        inst, second.indices
    ).tolist()
    (memo,) = sampler.table._memos.values()
    assert filled(memo) == np.unique(second.indices).size


def test_memo_count_is_bounded():
    inst = KnapsackInstance([0.5, 0.5], [1.0, 1.0], 1.0)
    table = WeightedSampler(inst).table
    for k in range(3 * AliasTable.MAX_CODE_MEMOS):
        memo_of(table, inst, 0.001 * (k + 1), DOMAIN)
    assert len(table._memos) == AliasTable.MAX_CODE_MEMOS
    assert all(memo is not None for memo in table._memos.values())


def test_threads_fill_one_memo():
    # More threads than cores and a short switch interval, so fills of
    # overlapping rows interleave.
    rng = np.random.default_rng(9)
    n = 50_000
    inst = KnapsackInstance(rng.uniform(0, 1, n), rng.uniform(0, 1, n), 1.0)
    eps_sq = float(np.quantile(inst.profits, 0.8))
    sampler = WeightedSampler(inst)
    blocks = [
        sampler.sample_block(40_000, np.random.default_rng(s)) for s in range(6)
    ]
    memo = memo_of(sampler.table, inst, eps_sq, DOMAIN)
    start = threading.Barrier(len(blocks))
    got = [None] * len(blocks)

    def fill(k):
        start.wait()
        for _ in range(3):
            got[k] = blocks[k].small_codes(eps_sq, DOMAIN)

    threads = [threading.Thread(target=fill, args=(k,)) for k in range(len(blocks))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for block, codes in zip(blocks, got):
        assert codes.tolist() == column_codes(inst, block.indices, eps_sq, DOMAIN).tolist()
    rows = np.flatnonzero(memo.codes != UNENCODED)
    drawn = np.unique(np.concatenate([b.indices for b in blocks]))
    assert rows.tolist() == drawn.tolist()
    assert memo.codes[rows].tolist() == memo.encode(rows).tolist()


def test_corrupted_block_reads_its_own_columns():
    rng = np.random.default_rng(4)
    inst = KnapsackInstance(rng.uniform(0, 1, 400), rng.uniform(0.01, 1, 400), 1.0)
    eps_sq = float(np.quantile(inst.profits, 0.9))
    plan = FaultPlan(seed=2, corruption_rate=1.0, corruption_scale=0.5)
    raw = WeightedSampler(inst)
    memo_of(raw.table, inst, eps_sq, DOMAIN).lookup(np.arange(inst.n))
    faulty = FaultyAccess(raw, plan.stream("test", "sampler"))
    block = faulty.sample_block(1000, np.random.default_rng(1))
    assert faulty.corruptions == 1 and not isinstance(block, TableBlock)
    own = SampleBlock(block.indices, block.profits, block.weights)
    assert block.small_codes(eps_sq, DOMAIN).tolist() == own.small_codes(
        eps_sq, DOMAIN
    ).tolist()
    # ...which is not what the memo holds for the same rows.
    assert block.small_codes(eps_sq, DOMAIN).tolist() != column_codes(
        inst, block.indices, eps_sq, DOMAIN
    ).tolist()


def test_memo_is_not_pickled():
    inst = KnapsackInstance([0.3, 0.7], [1.0, 2.0], 2.0)
    sampler = WeightedSampler(inst)
    sampler.sample_block(10, np.random.default_rng(0)).small_codes(0.5, DOMAIN)
    assert sampler.table._memos
    copy = pickle.loads(pickle.dumps(sampler.table))
    assert copy._memos == {}
    assert copy.prob.tolist() == sampler.table.prob.tolist()
    assert copy.alias.tolist() == sampler.table.alias.tolist()


def test_empty_block_has_no_codes():
    inst = KnapsackInstance([0.3, 0.7], [1.0, 2.0], 2.0)
    block = WeightedSampler(inst).sample_block(0, np.random.default_rng(0))
    assert block.small_codes(EPS_SQ, DOMAIN).size == 0
    assert block.profits.size == 0


EDGE_PROFITS = {
    "empty": [0.005, 0.5],  # drawn 0 times
    "all_large": [0.02, 0.5, 0.3, np.nextafter(EPS_SQ, 1)],
    "all_small": [EPS_SQ, 0.004, 1e-9, 0.0, 0.009],
}


@pytest.mark.parametrize("prefill", ["unseen", "empty", "partial", "full"])
@pytest.mark.parametrize("kind", sorted(EDGE_PROFITS))
def test_small_codes_edge_blocks(kind, prefill):
    """Blocks with no draws, no small draws or only small draws give the
    codes a plain block gives, in draw order and of the same dtype,
    whatever the memo already holds."""
    profits = EDGE_PROFITS[kind]
    weights = [1.0, 0.0, 1e-4, 2.0, 1e6][: len(profits)]
    inst = KnapsackInstance(profits, weights, 1e6, normalize=False)
    sampler = WeightedSampler(inst)
    if prefill != "unseen":
        memo = memo_of(sampler.table, inst)
        if prefill == "partial":
            memo.lookup(np.array([0, len(profits) - 1]))
        elif prefill == "full":
            memo.lookup(np.arange(inst.n))
    draws = 0 if kind == "empty" else 300
    block = sampler.sample_block(draws, np.random.default_rng(11))
    got = block.small_codes(EPS_SQ, DOMAIN)
    want = column_codes(inst, block.indices)
    assert got.dtype == want.dtype == code_dtype(DOMAIN.size)
    assert got.tolist() == want.tolist()
    in_draw_order = [
        DOMAIN.encode(efficiency(inst.profits[i], inst.weights[i]))
        for i in block.indices.tolist()
        if inst.profits[i] <= EPS_SQ
    ]
    assert got.tolist() == in_draw_order
    assert got.size == {"empty": 0, "all_large": 0, "all_small": draws}[kind]


@pytest.mark.parametrize("attr", ["indices", "profits", "weights"])
def test_table_block_columns_are_read_only(attr):
    inst = KnapsackInstance([0.3, 0.7], [1.0, 2.0], 2.0)
    block = WeightedSampler(inst).sample_block(5, np.random.default_rng(0))
    with pytest.raises(ValueError):
        getattr(block, attr)[0] = 0
