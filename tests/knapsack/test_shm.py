"""Shared-memory instance tier: lifecycle, verification, leak accounting.

The tier's safety contract has three legs: attaching a vanished segment
fails with a reason-coded error, a digest mismatch is rejected *before*
any query can be billed, and every created segment is unlinked exactly
once (no orphans survive, even through GC-only teardown).
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.access.weighted_sampler import WeightedSampler
from repro.errors import DigestMismatchError, SegmentMissingError, SharedMemoryError
from repro.knapsack import generators
from repro.knapsack.instance import KnapsackInstance
from repro.knapsack.shm import (
    SharedInstanceStore,
    active_segments,
    attach_cached,
    detach_cached,
    process_memory,
    shm_stats,
)
from repro.obs import runtime as rt


@pytest.fixture
def inst():
    return generators.generate("planted_lsg", 2_000, seed=4)


def _counter(name):
    return rt.snapshot()["counters"].get(name, 0)


@pytest.mark.parametrize("backend", ["shm", "mmap"])
def test_round_trip_both_backends(inst, backend, tmp_path, segments):
    with SharedInstanceStore.create(
        inst, backend=backend, spill_dir=str(tmp_path)
    ) as store:
        assert store.owner and store.handle.backend == backend
        view = store.instance
        assert np.array_equal(view.profits, inst.profits)
        assert np.array_equal(view.weights, inst.weights)
        assert view.capacity == inst.capacity

        attached = SharedInstanceStore.attach(store.handle)
        assert not attached.owner
        assert np.array_equal(attached.instance.profits, inst.profits)
        # The shared sampler's draw stream matches a fresh local build.
        a = attached.sampler().sample_block(300, np.random.default_rng(6))
        b = WeightedSampler(inst).sample_block(300, np.random.default_rng(6))
        assert a.indices.tobytes() == b.indices.tobytes()
        attached.close()
    assert store.closed
    assert segments.leaked() == []


def test_prebuilt_table_is_copied_not_rebuilt(inst, monkeypatch, segments):
    table = WeightedSampler(inst).table
    builds = []
    monkeypatch.setattr(
        type(table), "_build", staticmethod(lambda scaled: builds.append(scaled))
    )
    with SharedInstanceStore.create(inst, table=table) as store:
        assert builds == []
        assert store.column("alias_prob").tobytes() == table.prob.tobytes()
        assert store.column("alias_idx").tobytes() == table.alias.tobytes()
    assert segments.leaked() == []


def test_prebuilt_table_row_count_checked(inst):
    other = generators.generate("planted_lsg", 1_000, seed=4)
    created = _counter("shm.segments_created")
    with pytest.raises(SharedMemoryError, match="1000 rows"):
        SharedInstanceStore.create(inst, table=WeightedSampler(other).table)
    assert _counter("shm.segments_created") == created


def test_handle_is_small_and_picklable(inst):
    with SharedInstanceStore.create(inst) as store:
        blob = pickle.dumps(store.handle)
        assert len(blob) < 1024  # O(1) in n: the whole point
        assert pickle.loads(blob) == store.handle


def test_attach_after_unlink_is_reason_coded(inst):
    store = SharedInstanceStore.create(inst)
    handle = store.handle
    store.close()
    with pytest.raises(SegmentMissingError) as exc:
        SharedInstanceStore.attach(handle)
    assert exc.value.reason_code == "segment-missing"


def test_digest_mismatch_rejected_before_any_billing(inst):
    with SharedInstanceStore.create(inst) as store:
        forged = dataclasses.replace(store.handle, digest="0" * 32)
        samples_before = _counter("sampler.samples")
        queries_before = _counter("oracle.queries")
        with pytest.raises(DigestMismatchError) as exc:
            SharedInstanceStore.attach(forged)
        assert exc.value.reason_code == "digest-mismatch"
        # Rejection happened before a sampler or oracle could exist:
        # nothing was billed against the wrong instance.
        assert _counter("sampler.samples") == samples_before
        assert _counter("oracle.queries") == queries_before


def test_full_verification_catches_in_place_corruption(inst):
    store = SharedInstanceStore.create(inst)
    try:
        verified = SharedInstanceStore.attach(store.handle, verify="full")
        assert not verified.owner
        verified.close()
        # Flip one payload byte behind the frozen views.
        offset = dict(
            (name, off) for name, _, off in store.handle.columns
        )["profits"]
        store._segment.buf[offset] = store._segment.buf[offset] ^ 0xFF
        with pytest.raises(DigestMismatchError):
            SharedInstanceStore.attach(store.handle, verify="full")
        # The default O(1) header check does not rehash the columns.
        SharedInstanceStore.attach(store.handle).close()
    finally:
        store.close()


def test_attach_cache_refcounts(inst):
    with SharedInstanceStore.create(inst) as store:
        hits_before = _counter("shm.attach_hits")
        first = attach_cached(store.handle)
        second = attach_cached(store.handle)
        assert second is first
        assert _counter("shm.attach_hits") == hits_before + 1
        detach_cached(store.handle)
        assert not first.closed  # one reference still out
        detach_cached(store.handle)
        assert first.closed
        detach_cached(store.handle)  # over-release is a no-op


def test_lifecycle_counters_balance(inst, segments):
    created0 = _counter("shm.segments_created")
    unlinked0 = _counter("shm.segments_unlinked")
    for _ in range(3):
        store = SharedInstanceStore.create(inst)
        assert store.handle.name in active_segments()
        store.close()
        store.close()  # idempotent
    assert _counter("shm.segments_created") - created0 == 3
    assert _counter("shm.segments_unlinked") - unlinked0 == 3
    assert segments.leaked() == []


def test_segment_ledger_sees_only_this_tests_segments(inst, segments):
    with SharedInstanceStore.create(inst) as store:
        assert segments.names == [store.handle.name]
        assert segments.leaked() == [store.handle.name]
    assert segments.leaked() == []


def test_gc_backstop_unlinks_forgotten_owner(inst, segments):
    import gc

    unlinked0 = _counter("shm.segments_unlinked")
    store = SharedInstanceStore.create(inst)
    name = store.handle.name
    del store
    gc.collect()
    assert name not in active_segments()
    assert segments.leaked() == []
    assert _counter("shm.segments_unlinked") == unlinked0 + 1


def test_closed_store_raises(inst):
    store = SharedInstanceStore.create(inst)
    store.close()
    with pytest.raises(SharedMemoryError):
        store.handle
    with pytest.raises(SharedMemoryError):
        store.instance
    with pytest.raises(SharedMemoryError):
        store.column("profits")


def test_unknown_column_and_backend_rejected(inst):
    with pytest.raises(SharedMemoryError):
        SharedInstanceStore.create(inst, backend="carrier-pigeon")
    with SharedInstanceStore.create(inst) as store:
        with pytest.raises(SharedMemoryError, match="unknown shared column"):
            store.column("velocities")
        with pytest.raises(SharedMemoryError, match="verify mode"):
            SharedInstanceStore.attach(store.handle, verify="vibes")


def test_shared_views_are_read_only(inst):
    with SharedInstanceStore.create(inst) as store:
        for view in (store.instance.profits, store.column("alias_prob")):
            with pytest.raises(ValueError):
                view[0] = 1.0
        attached = SharedInstanceStore.attach(store.handle)
        with pytest.raises(ValueError):
            attached.instance.profits[0] = 1.0
        attached.close()


def test_from_arrays_view_requires_float64():
    with pytest.raises(Exception, match="float64"):
        KnapsackInstance.from_arrays_view(
            np.ones(3, dtype=np.float32), np.ones(3), 1.0
        )


def test_stats_surfaces(inst):
    with SharedInstanceStore.create(inst) as store:
        stats = store.stats()
        assert stats["n"] == inst.n and stats["owner"]
        assert set(stats["columns"]) == {
            "profits", "weights", "alias_prob", "alias_idx"
        }
        tier = shm_stats()
        assert store.handle.name in tier["owned_segments"]
        assert tier["memory"]["rss_kb"] > 0
    mem = process_memory()
    assert mem["rss_kb"] > 0
