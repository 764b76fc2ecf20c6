"""The per-item efficiency-code memo behind ``TableBlock.small_code_counts``.

A weighted sampler's block counts the grid codes of its small draws
from a memo on the alias table; every other block computes them from
its own columns.  The two must give the same histogram, whatever the
memo already holds, for any instance, ``eps^2`` and domain.
"""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access import beside
from repro.access import blocks as block_module
from repro.access.blocks import SampleBlock, TableBlock
from repro.access.codes import (
    LARGE,
    UNENCODED,
    CodeCounts,
    CodeMemo,
    code_dtype,
    encode_small,
)
from repro.access.weighted_sampler import AliasTable, WeightedSampler
from repro.faults import FaultPlan, FaultyAccess
from repro.knapsack.generators import generate
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
    """The reference: the small draws' codes, in draw order, computed from
    the gathered columns (what a plain block encodes)."""
    return encode_small(
        instance.profits[indices], instance.weights[indices], eps_sq, domain
    )[1]


def histogram(counts, domain=DOMAIN):
    """``counts`` (a :class:`CodeCounts`) as a dense list over the domain,
    after checking it is a well-formed sorted support."""
    assert isinstance(counts, CodeCounts)
    values, per_value = counts
    assert values.dtype == per_value.dtype == np.int64
    assert np.all(np.diff(values) > 0) and np.all(per_value > 0)
    dense = np.zeros(domain.size, dtype=np.int64)
    dense[values] = per_value
    return dense.tolist()


def column_histogram(instance, indices, eps_sq=EPS_SQ, domain=DOMAIN):
    """The reference histogram: ``np.bincount`` of :func:`column_codes`."""
    codes = column_codes(instance, indices, eps_sq, domain)
    return np.bincount(codes, minlength=domain.size).tolist()


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
        memo.fill(np.arange(instance.n))
        assert filled(memo) == instance.n
    elif prefill == "partial":
        memo.fill(rng.integers(instance.n, size=max(1, instance.n // 2)))
    block = sampler.sample_block(draws, rng)
    assert isinstance(block, TableBlock)
    got = block.small_code_counts(EPS_SQ, DOMAIN)
    assert histogram(got) == column_histogram(instance, block.indices)
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
    codes = memo.fill(np.arange(inst.n))
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
    want = column_histogram(inst, block.indices, eps_sq, domain)
    assert histogram(block.small_code_counts(eps_sq, domain), domain) == want
    # The second run creates the memo, the third reads it.
    for _ in range(2):
        assert histogram(block.small_code_counts(eps_sq, domain), domain) == want
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
            assert histogram(
                block.small_code_counts(eps_sq, domain), domain
            ) == column_histogram(inst, block.indices, eps_sq, domain)
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
        assert histogram(block.small_code_counts(EPS_SQ, DOMAIN)) == (
            column_histogram(inst, block.indices)
        )


def test_a_tables_first_run_allocates_no_memo():
    rng = np.random.default_rng(8)
    inst = KnapsackInstance(rng.uniform(0, 1, 300), rng.uniform(0.01, 1, 300), 1.0)
    sampler = WeightedSampler(inst)
    first = sampler.sample_block(500, rng)
    assert histogram(first.small_code_counts(EPS_SQ, DOMAIN)) == (
        column_histogram(inst, first.indices)
    )
    assert list(sampler.table._memos.values()) == [None]
    second = sampler.sample_block(500, rng)
    assert histogram(second.small_code_counts(EPS_SQ, DOMAIN)) == (
        column_histogram(inst, second.indices)
    )
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
            got[k] = blocks[k].small_code_counts(eps_sq, DOMAIN)

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
        assert histogram(codes) == column_histogram(inst, block.indices, eps_sq)
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
    memo_of(raw.table, inst, eps_sq, DOMAIN).fill(np.arange(inst.n))
    faulty = FaultyAccess(raw, plan.stream("test", "sampler"))
    block = faulty.sample_block(1000, np.random.default_rng(1))
    assert faulty.corruptions == 1 and not isinstance(block, TableBlock)
    own = SampleBlock(block.indices, block.profits, block.weights)
    got = histogram(block.small_code_counts(eps_sq, DOMAIN))
    assert got == histogram(own.small_code_counts(eps_sq, DOMAIN))
    # ...which is not what the memo holds for the same rows.
    assert got != column_histogram(inst, block.indices, eps_sq)


def test_memo_is_not_pickled():
    inst = KnapsackInstance([0.3, 0.7], [1.0, 2.0], 2.0)
    sampler = WeightedSampler(inst)
    sampler.sample_block(10, np.random.default_rng(0)).small_code_counts(0.5, DOMAIN)
    assert sampler.table._memos
    copy = pickle.loads(pickle.dumps(sampler.table))
    assert copy._memos == {}
    assert copy.prob.tolist() == sampler.table.prob.tolist()
    assert copy.alias.tolist() == sampler.table.alias.tolist()


def test_empty_block_has_no_codes():
    inst = KnapsackInstance([0.3, 0.7], [1.0, 2.0], 2.0)
    block = WeightedSampler(inst).sample_block(0, np.random.default_rng(0))
    counts = block.small_code_counts(EPS_SQ, DOMAIN)
    assert counts.values.size == counts.counts.size == counts.total == 0
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
    histogram a plain block gives and the one of the codes encoded draw
    by draw, whatever the memo already holds."""
    profits = EDGE_PROFITS[kind]
    weights = [1.0, 0.0, 1e-4, 2.0, 1e6][: len(profits)]
    inst = KnapsackInstance(profits, weights, 1e6, normalize=False)
    sampler = WeightedSampler(inst)
    if prefill != "unseen":
        memo = memo_of(sampler.table, inst)
        if prefill == "partial":
            memo.fill(np.array([0, len(profits) - 1]))
        elif prefill == "full":
            memo.fill(np.arange(inst.n))
    draws = 0 if kind == "empty" else 300
    block = sampler.sample_block(draws, np.random.default_rng(11))
    got = block.small_code_counts(EPS_SQ, DOMAIN)
    assert column_codes(inst, block.indices).dtype == code_dtype(DOMAIN.size)
    assert histogram(got) == column_histogram(inst, block.indices)
    in_draw_order = [
        DOMAIN.encode(efficiency(inst.profits[i], inst.weights[i]))
        for i in block.indices.tolist()
        if inst.profits[i] <= EPS_SQ
    ]
    assert histogram(got) == np.bincount(
        np.asarray(in_draw_order, dtype=np.int64), minlength=DOMAIN.size
    ).tolist()
    assert got.total == {"empty": 0, "all_large": 0, "all_small": draws}[kind]


@pytest.mark.parametrize("attr", ["indices", "profits", "weights"])
def test_table_block_columns_are_read_only(attr):
    inst = KnapsackInstance([0.3, 0.7], [1.0, 2.0], 2.0)
    block = WeightedSampler(inst).sample_block(5, np.random.default_rng(0))
    with pytest.raises(ValueError):
        getattr(block, attr)[0] = 0


SPLIT = beside.SPLIT_MIN_ROWS


@pytest.fixture(scope="module")
def planted():
    return generate("planted_lsg", 20_000, seed=0)


def recording_halves(monkeypatch):
    """Patch the blocks' :func:`~repro.access.beside.halves` so each part
    it runs records its thread; the list of thread ids."""
    ran_on = []
    split = block_module.halves

    def recording(part, rows):
        def on_thread(lo, hi):
            ran_on.append(threading.get_ident())
            return part(lo, hi)

        return split(on_thread, rows)

    monkeypatch.setattr(block_module, "halves", recording)
    return ran_on


@pytest.mark.parametrize("m", [SPLIT - 1, SPLIT, 3 * SPLIT + 1])
def test_counts_are_identical_split_and_inline(planted, monkeypatch, m):
    """Around the split threshold (and at an odd size past it), a block
    counted in two halves on two threads, and one counted with the helper
    slot held (inline on the caller), both equal ``np.bincount`` of the
    codes computed from the columns, hold the draws ``draw_many`` draws,
    and leave the generator in the same state.  The memo starts part
    filled, so each half also finds rows to encode."""
    counted_on = recording_halves(monkeypatch)
    seed = 7000 + m
    ref_rng = np.random.default_rng(seed)
    ref = AliasTable(planted.profits).draw_many(m, ref_rng)
    seen = []
    for held in (False, True):
        table = AliasTable(planted.profits)
        memo_of(table, planted).fill(np.arange(0, planted.n, 3))
        rng = np.random.default_rng(seed)
        block = WeightedSampler(planted, table=table).sample_block(m, rng)
        counted_on.clear()
        if held:
            with beside._SLOT:
                counts = block.small_code_counts(EPS_SQ, DOMAIN)
        else:
            counts = block.small_code_counts(EPS_SQ, DOMAIN)
        threads = set(counted_on)
        assert block.indices.tobytes() == ref.tobytes()
        assert histogram(counts) == column_histogram(planted, ref)
        seen.append((threads, rng.random()))
    (free_threads, free_next), (held_threads, held_next) = seen
    assert held_threads == {threading.get_ident()}
    assert len(free_threads) == (2 if m >= SPLIT and beside._cpus() > 1 else 1)
    assert free_next == held_next == ref_rng.random()


def test_a_block_read_from_two_threads_gives_the_serial_result(planted):
    """``indices`` on one thread and ``small_code_counts`` on another, at
    once, on a block that splits: both readers get what a serial read
    gives, whichever thread holds the helper slot."""
    m = 2 * SPLIT + 3
    table = AliasTable(planted.profits)
    memo_of(table, planted)
    ref = table.draw_many(m, np.random.default_rng(5))
    want = column_histogram(planted, ref)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(8):
            block = WeightedSampler(planted, table=table).sample_block(
                m, np.random.default_rng(5)
            )
            start = threading.Barrier(2)
            got = {}

            def read_indices():
                start.wait()
                got["indices"] = block.indices.tobytes()

            def read_counts():
                start.wait()
                got["counts"] = histogram(block.small_code_counts(EPS_SQ, DOMAIN))

            readers = [threading.Thread(target=f) for f in (read_indices, read_counts)]
            if trial % 2:
                readers.reverse()
            for t in readers:
                t.start()
            for t in readers:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in readers)
            assert got == {"indices": ref.tobytes(), "counts": want}
    finally:
        sys.setswitchinterval(interval)
