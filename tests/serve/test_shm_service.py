"""Service-level shared-memory tier: parity, lifecycle, fault safety.

The tier's acceptance bar: process batches answer bit-identically
whether shards received the pickled instance or a shared handle, the
service's own segment (created with the service) is unlinked exactly
once, and a worker killed mid-batch (fault-plan ``shard_kill``) leaks
no segments — workers never own them, and the requeued round
re-attaches.
"""

import pytest

from repro.errors import ReproError
from repro.knapsack.shm import (
    SharedInstanceStore,
    active_segments,
)
from repro.obs import runtime as rt
from repro.serve import KnapsackService

INDICES = list(range(0, 60, 3))
NONCE = 31


def _counter(name):
    return rt.snapshot()["counters"].get(name, 0)


def _answers(svc):
    report = svc.answer_batch(INDICES, nonce=NONCE, workers=2)
    return [(a.index, a.include) for a in report.answers]


@pytest.mark.slow
class TestSharedServiceParity:
    def test_shm_answers_bit_identical_to_pickled(self, tiers_instance, fast_params):
        pickled = KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params,
            cache=False, executor="process",
        )
        with KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params,
            cache=False, executor="process", shared_instance=True,
        ) as shared:
            assert _answers(shared) == _answers(pickled)
            assert shared.samples_used == pickled.samples_used
            assert shared.queries_used == pickled.queries_used

    def test_worker_telemetry_populated(self, tiers_instance, fast_params):
        with KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params,
            cache=False, executor="process", shared_instance=True,
        ) as svc:
            svc.answer_batch(INDICES, nonce=NONCE, workers=2)
            assert svc.worker_setup_s and all(s >= 0 for s in svc.worker_setup_s)
            assert svc.worker_memory and all(
                m["rss_kb"] > 0 for m in svc.worker_memory
            )
            shm = svc.stats()["shm"]
            assert shm["owns_store"] and shm["store"]["n"] == tiers_instance.n

    def test_all_hit_batch_keeps_the_last_dispatch_telemetry(
        self, tiers_instance, fast_params
    ):
        with KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params,
            executor="process", shared_instance=True,
        ) as svc:
            svc.answer_batch(INDICES, nonce=NONCE, workers=2)
            setup, memory = svc.worker_setup_s, svc.worker_memory
            shm = svc.shm_stats()
            assert len(setup) == len(memory) == 2
            warm = svc.answer_batch(INDICES, nonce=NONCE, workers=2)
            assert warm.cache_hits == 2  # nothing was dispatched
            assert svc.worker_setup_s == setup
            assert svc.worker_memory == memory
            assert svc.shm_stats()["worker_setup_s"] == shm["worker_setup_s"]
            assert svc.shm_stats()["worker_memory"] == shm["worker_memory"]

    def test_worker_kill_requeues_without_leaking(
        self, tiers_instance, fast_params, segments
    ):
        from repro.faults import FaultPlan

        created0 = _counter("shm.segments_created")
        unlinked0 = _counter("shm.segments_unlinked")
        with KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params,
            cache=False, executor="process", shared_instance=True,
            fault_plan=FaultPlan(seed=3, shard_kill_rate=0.5),
            max_shard_retries=8, strict=False,
        ) as svc:
            report = svc.answer_batch(INDICES, nonce=NONCE, workers=2)
            assert len(report.answers) == len(INDICES)
            assert _counter("serve.shard_retries") > 0  # kills actually fired
        assert _counter("shm.segments_created") - created0 == 1
        assert _counter("shm.segments_unlinked") - unlinked0 == 1
        assert segments.leaked() == []


@pytest.mark.slow
def test_caller_owned_store_shared_between_services(
    tiers_instance, fast_params, segments
):
    with SharedInstanceStore.create(tiers_instance) as store:
        for seed in (42, 43):
            svc = KnapsackService(
                tiers_instance, 0.1, seed=seed, params=fast_params,
                cache=False, executor="process", shared_instance=store,
            )
            svc.answer_batch(INDICES[:6], nonce=NONCE, workers=2)
            svc.close()  # must NOT unlink the caller's store
            assert not store.closed
            assert not svc.stats()["shm"]["owns_store"]
    assert segments.leaked() == []


def test_shared_instance_requires_explicit_instance():
    class Implicit:
        n = 100
        capacity = 1.0

        def profit(self, i):
            return 1.0 / self.n

        def weight(self, i):
            return 1.0 / self.n

    with pytest.raises(ReproError, match="explicit KnapsackInstance"):
        KnapsackService(Implicit(), 0.1, shared_instance=True)


def test_thread_executor_ignores_shared_store(tiers_instance, fast_params):
    """Thread shards share memory natively; no segment is ever created."""
    created0 = _counter("shm.segments_created")
    with KnapsackService(
        tiers_instance, 0.1, seed=42, params=fast_params,
        cache=False, executor="thread", shared_instance=True,
    ) as svc:
        svc.answer_batch(INDICES[:6], nonce=NONCE, workers=2)
    assert _counter("shm.segments_created") == created0


def test_close_is_idempotent(tiers_instance, fast_params):
    svc = KnapsackService(
        tiers_instance, 0.1, seed=42, params=fast_params,
        cache=False, executor="process", shared_instance=True,
    )
    svc.close()
    svc.close()
    assert svc.shm_stats()["store"] is None


@pytest.mark.slow
def test_store_created_at_construction_and_recreated_after_close(
    tiers_instance, fast_params
):
    created0 = _counter("shm.segments_created")
    svc = KnapsackService(
        tiers_instance, 0.1, seed=42, params=fast_params,
        cache=False, executor="process", shared_instance=True,
    )
    # The segment exists before any batch: the first request pays no O(n) copy.
    first = svc.shm_stats()["store"]
    assert first is not None
    assert first["name"] in active_segments()
    assert _counter("shm.segments_created") - created0 == 1
    svc.answer_batch(INDICES[:6], nonce=NONCE, workers=2)
    assert _counter("shm.segments_created") - created0 == 1
    svc.close()
    assert svc.shm_stats()["store"] is None
    assert first["name"] not in active_segments()
    # Lazy re-creation: the next process batch lays out a fresh segment.
    svc.answer_batch(INDICES[:6], nonce=NONCE, workers=2)
    again = svc.shm_stats()["store"]
    assert again is not None and again["name"] != first["name"]
    assert _counter("shm.segments_created") - created0 == 2
    svc.close()
    assert again["name"] not in active_segments()
