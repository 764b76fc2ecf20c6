"""Bit-identity of the batched grid descent.

:func:`rquantile_descent_batch` serves all k thresholds with one
``searchsorted`` per grid level; LCA-KP's threshold loop switched to it,
so every output must equal the scalar :func:`rquantile_descent` run
*exactly* — same seeds, same thresholds, same floating-point
comparisons — or reproducibility across the two spellings breaks.
"""

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access.codes import code_dtype
from repro.access.seeds import SeedChain
from repro.errors import ReproducibilityError
from repro.reproducible.rmedian import (
    rquantile_descent,
    rquantile_descent_batch,
    shared_coin,
)
from repro.reproducible.rquantile import ReproducibleQuantileEstimator

# The package re-exports the ``rmedian`` function under the module's name.
rmedian = importlib.import_module("repro.reproducible.rmedian")


def _seeds(root, k):
    node = SeedChain(root).child("rquantile")
    return [node.child(i) for i in range(k)]


@settings(max_examples=60, deadline=None)
@given(
    domain_bits=st.integers(min_value=3, max_value=12),
    n=st.integers(min_value=1, max_value=2000),
    k=st.integers(min_value=1, max_value=8),
    dist=st.sampled_from(["uniform", "clustered", "geometric", "constant"]),
    tau=st.sampled_from([0.01, 0.05, 0.2, 0.9]),
    branching=st.sampled_from([2, 4, 7]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_batch_descent_matches_scalar_bit_for_bit(
    domain_bits, n, k, dist, tau, branching, seed
):
    domain_size = 2**domain_bits
    rng = np.random.default_rng(seed)
    if dist == "uniform":
        xs = rng.integers(0, domain_size, size=n)
    elif dist == "clustered":
        centers = rng.integers(0, domain_size, size=3)
        xs = np.clip(
            centers[rng.integers(0, 3, size=n)] + rng.integers(-2, 3, size=n),
            0,
            domain_size - 1,
        )
    elif dist == "geometric":
        xs = np.minimum(rng.geometric(0.01, size=n) - 1, domain_size - 1)
    else:
        xs = np.full(n, int(rng.integers(0, domain_size)))
    targets = [float(t) for t in rng.random(k)]
    seeds = _seeds(seed, k)
    batch = rquantile_descent_batch(
        xs, domain_size, seeds, targets, tau=tau, branching=branching
    )
    scalar = [
        rquantile_descent(xs, domain_size, s, target=t, tau=tau, branching=branching)
        for s, t in zip(seeds, targets)
    ]
    assert batch.tolist() == scalar


def test_batch_descent_edge_targets():
    xs = np.arange(0, 256, 2)
    seeds = _seeds(17, 2)
    batch = rquantile_descent_batch(xs, 256, seeds, [0.0, 1.0])
    scalar = [
        rquantile_descent(xs, 256, s, target=t) for s, t in zip(seeds, [0.0, 1.0])
    ]
    assert batch.tolist() == scalar


def test_batch_descent_validates_inputs():
    xs = np.arange(10)
    with pytest.raises(ReproducibilityError):
        rquantile_descent_batch(xs, 16, _seeds(0, 2), [0.5])  # length mismatch
    with pytest.raises(ReproducibilityError):
        rquantile_descent_batch(xs, 16, _seeds(0, 1), [1.5])  # target out of range
    with pytest.raises(ReproducibilityError):
        rquantile_descent_batch(np.empty(0, dtype=np.int64), 16, _seeds(0, 1), [0.5])


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=1500),
    k=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_estimator_quantiles_matches_per_target_quantile(n, k, seed):
    """The value-level batched face decodes to the same floats."""
    rng = np.random.default_rng(seed)
    values = rng.lognormal(0.0, 1.0, size=n)
    est = ReproducibleQuantileEstimator()
    targets = [float(t) for t in rng.random(k)]
    seeds = _seeds(seed, k)
    batched = est.quantiles(est.domain.encode_many(values), targets, seeds)
    single = [est.quantile(values, t, s) for t, s in zip(targets, seeds)]
    assert batched.tolist() == single


def test_estimator_quantiles_fallback_paths_match_scalar():
    values = np.random.default_rng(3).random(800)
    targets = [0.25, 0.5, 0.75]
    for est in (
        ReproducibleQuantileEstimator(method="padding"),
        ReproducibleQuantileEstimator(vote=3),
    ):
        seeds = _seeds(9, len(targets))
        batched = est.quantiles(est.domain.encode_many(values), targets, seeds)
        single = [est.quantile(values, t, s) for t, s in zip(targets, seeds)]
        assert batched.tolist() == single


def test_estimator_quantiles_empty_targets():
    est = ReproducibleQuantileEstimator()
    out = est.quantiles(est.domain.encode_many(np.arange(10.0)), [], [])
    assert out.size == 0


def test_estimator_quantiles_length_mismatch():
    est = ReproducibleQuantileEstimator()
    with pytest.raises(ReproducibilityError):
        est.quantiles(est.domain.encode_many(np.arange(10.0)), [0.5], _seeds(0, 2))


def test_estimator_quantiles_take_narrow_codes():
    """The memo's narrow code column decodes like the int64 codes."""
    values = np.random.default_rng(4).lognormal(0.0, 2.0, size=900)
    targets = [0.1, 0.5, 0.9]
    for est in (
        ReproducibleQuantileEstimator(),
        ReproducibleQuantileEstimator(method="padding"),
        ReproducibleQuantileEstimator(vote=3),
    ):
        seeds = _seeds(5, len(targets))
        codes = est.domain.encode_many(values).astype(code_dtype(est.domain.size))
        narrow = est.quantiles(codes, targets, seeds)
        assert narrow.tolist() == [
            est.quantile(values, t, s) for t, s in zip(targets, seeds)
        ]
    with pytest.raises(ReproducibilityError):
        est.quantiles(np.empty(0, dtype=np.int16), [0.5], _seeds(0, 1))


LABELS = st.text(min_size=0, max_size=6)


@settings(max_examples=80, deadline=None)
@given(
    root=st.one_of(st.integers(-(2**70), 2**70), st.text(max_size=8)),
    path=st.lists(LABELS, max_size=4),
    label=LABELS,
    int_bounds=st.tuples(
        st.integers(-(2**40), 2**40), st.integers(1, 2**40)
    ),
    float_bounds=st.tuples(
        st.floats(-1e6, 1e6), st.floats(1e-9, 1e6)
    ),
)
def test_memoized_coin_equals_a_fresh_derivation(
    root, path, label, int_bounds, float_bounds
):
    node = SeedChain(root).descend(path)
    lo, span = int_bounds
    fresh = SeedChain(root, tuple(path) + (label,))
    for _ in range(2):  # first call fills the memo, the second reads it
        got = shared_coin(node, label, "integer", lo, lo + span)
        assert type(got) is int
        assert got == int(fresh.rng().integers(lo, lo + span))
    flo, fspan = float_bounds
    for _ in range(2):
        got = shared_coin(node, label, "uniform", flo, flo + fspan)
        assert type(got) is float
        assert got == float(fresh.rng().uniform(flo, flo + fspan))


def test_int_and_float_bounds_keep_separate_entries():
    node = SeedChain(11).child("rquantile").child(1)
    rmedian._memo_coin.cache_clear()
    as_int = shared_coin(node, "theta", "uniform", 0, 1)
    as_float = shared_coin(node, "theta", "uniform", 0.0, 1.0)
    offset = shared_coin(node, "theta", "integer", 0, 1)
    assert rmedian._memo_coin.cache_info().currsize == 3
    assert as_int == as_float == node.child("theta").uniform(0.0, 1.0)
    assert offset == 0 and type(offset) is int


def test_coin_memo_evicts_and_rederives():
    """After 10^4 distinct keys the earliest coin is evicted, and its
    re-derivation still equals a fresh SeedChain draw."""
    node = SeedChain(3).child("rquantile")
    first = shared_coin(node.child(0), "floor", "uniform", 0.0, 1.0)
    for k in range(1, 10_000):
        shared_coin(node.child(k), "floor", "uniform", 0.0, 1.0)
    info = rmedian._memo_coin.cache_info()
    assert info.currsize == rmedian.COIN_MEMO_SIZE
    again = shared_coin(node.child(0), "floor", "uniform", 0.0, 1.0)
    assert rmedian._memo_coin.cache_info().misses == info.misses + 1
    assert again == first == node.child(0).child("floor").uniform(0.0, 1.0)
    # The re-derived coin is cached again: a second query is a hit.
    shared_coin(node.child(0), "floor", "uniform", 0.0, 1.0)
    assert rmedian._memo_coin.cache_info().misses == info.misses + 1
