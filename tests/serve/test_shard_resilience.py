"""Tests for shard requeue and shard-level degradation.

Process-pool shards are killed via seeded, attempt-keyed coins
(``FaultPlan.shard_kill``), so kill-then-recover is a deterministic
scenario, not a flaky one: with ``shard_kill_rate=1.0`` and
``shard_kill_attempts=1`` every shard's first attempt dies and every
requeue survives.
"""

from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.errors import ShardFailureError
from repro.faults import FaultPlan
from repro.serve import KnapsackService
from repro.serve import service as service_module

INDICES = list(range(0, 60, 3))


def service(instance, params, **kw):
    kw.setdefault("cache", False)
    return KnapsackService(
        instance, 0.1, seed=42, params=params, executor="process", **kw
    )


@pytest.mark.slow
class TestRequeue:
    def test_killed_workers_are_requeued_and_batch_completes(
        self, tiers_instance, fast_params
    ):
        kill_plan = FaultPlan(seed=5, shard_kill_rate=1.0, shard_kill_attempts=1)
        svc = service(tiers_instance, fast_params, fault_plan=kill_plan)
        report = svc.answer_batch(INDICES, nonce=31, workers=2)
        assert len(report.answers) == len(INDICES)
        assert report.shard_retries >= 1
        assert report.degraded == 0  # recovered honestly, not degraded

    def test_recovered_answers_match_thread_executor(
        self, tiers_instance, fast_params
    ):
        kill_plan = FaultPlan(seed=5, shard_kill_rate=1.0, shard_kill_attempts=1)
        killed = service(tiers_instance, fast_params, fault_plan=kill_plan)
        threaded = KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params, cache=False
        )
        got = killed.answer_batch(INDICES, nonce=31, workers=2)
        want = threaded.answer_batch(INDICES, nonce=31, workers=2)
        assert [a.index for a in got.answers] == [a.index for a in want.answers]
        assert [a.include for a in got.answers] == [a.include for a in want.answers]

    def test_pool_broken_during_submission_requeues(
        self, tiers_instance, fast_params, monkeypatch
    ):
        # A worker killed before the round's second submit breaks the
        # pool under it; that shard is requeued, not a crashed batch.
        submits: list[int] = []

        class BreaksOnSecondSubmit(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submits.append(1)
                if len(submits) == 2:
                    raise BrokenProcessPool("a worker died mid-submission")
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(service_module, "ProcessPoolExecutor", BreaksOnSecondSubmit)
        svc = service(tiers_instance, fast_params)
        threaded = KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params, cache=False
        )
        got = svc.answer_batch(INDICES, nonce=31, workers=2)
        want = threaded.answer_batch(INDICES, nonce=31, workers=2)
        assert got.shard_retries == 1 and got.degraded == 0
        assert [(a.index, a.include) for a in got.answers] == [
            (a.index, a.include) for a in want.answers
        ]

    def test_cancelled_attempt_requeues(
        self, tiers_instance, fast_params, monkeypatch
    ):
        # Another caller's watchdog escalation cancels the shared pool's
        # queued work; a cancelled attempt is requeued like a dead one.
        submits: list[int] = []

        class CancelsFirstSubmit(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submits.append(1)
                if len(submits) == 1:
                    # What an executor's shutdown(cancel_futures=True)
                    # leaves behind: cancelled, and its waiters notified.
                    cancelled = Future()
                    cancelled.cancel()
                    cancelled.set_running_or_notify_cancel()
                    return cancelled
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(service_module, "ProcessPoolExecutor", CancelsFirstSubmit)
        threaded = KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params, cache=False
        )
        with service(tiers_instance, fast_params) as svc:
            got = svc.answer_batch(INDICES, nonce=31, workers=2)
        want = threaded.answer_batch(INDICES, nonce=31, workers=2)
        assert got.shard_retries == 1 and got.degraded == 0
        assert [(a.index, a.include) for a in got.answers] == [
            (a.index, a.include) for a in want.answers
        ]

    def test_exhausted_retries_degrade_the_shard(
        self, tiers_instance, fast_params
    ):
        # Kill every attempt: with retries exhausted a non-strict batch
        # still completes, serving the dead shards off the ladder.
        kill_plan = FaultPlan(seed=5, shard_kill_rate=1.0, shard_kill_attempts=64)
        svc = service(
            tiers_instance, fast_params, fault_plan=kill_plan,
            strict=False, max_shard_retries=1,
        )
        report = svc.answer_batch(INDICES, nonce=31, workers=2)
        assert len(report.answers) == len(INDICES)
        assert report.degraded == len(INDICES)
        assert {a.reason_code for a in report.answers} == {"shard-failure"}
        assert report.availability == 0.0

    def test_exhausted_retries_raise_when_strict(
        self, tiers_instance, fast_params
    ):
        kill_plan = FaultPlan(seed=5, shard_kill_rate=1.0, shard_kill_attempts=64)
        svc = service(
            tiers_instance, fast_params, fault_plan=kill_plan,
            strict=True, max_shard_retries=1,
        )
        with pytest.raises(ShardFailureError):
            svc.answer_batch(INDICES, nonce=31, workers=2)


@pytest.mark.slow
class TestCachedShards:
    """Only the attempt that answered a shard feeds the pipeline cache."""

    def test_requeued_shard_caches_the_winning_attempt(
        self, tiers_instance, fast_params
    ):
        # Every shard's first attempt dies; its requeue answers.
        kill_plan = FaultPlan(seed=5, shard_kill_rate=1.0, shard_kill_attempts=1)
        with service(
            tiers_instance, fast_params, fault_plan=kill_plan, cache=None
        ) as svc:
            first = svc.answer_batch(INDICES, nonce=31, workers=2)
            again = svc.answer_batch(INDICES, nonce=31, workers=2)
        assert first.shard_retries == 2 and first.pipelines_run == 2
        assert again.shard_retries == 0
        assert again.cache_hits == 2 and again.pipelines_run == 0
        assert again.samples_spent == 0
        assert again.answers == first.answers

    def test_degraded_shard_ships_no_pipeline(self, tiers_instance, fast_params):
        plan = FaultPlan(seed=3, probe_failure_rate=1.0)
        with service(
            tiers_instance, fast_params, fault_plan=plan, strict=False, cache=None
        ) as svc:
            report = svc.answer_batch(INDICES, nonce=31, workers=2)
            assert report.degraded == len(INDICES)
            assert report.pipelines_run == 0
            assert len(svc.cache) == 0
            again = svc.answer_batch(INDICES, nonce=31, workers=2)
        assert again.cache_hits == 0 and again.degraded == len(INDICES)


@pytest.mark.slow
class TestOneAttemptPerShard:
    """Each round submits exactly one attempt per pending shard."""

    W = 3

    @pytest.fixture
    def submits(self, monkeypatch):
        calls: list[int] = []

        class CountingSubmits(ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                calls.append(1)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(service_module, "ProcessPoolExecutor", CountingSubmits)
        return calls

    def test_fault_free_batch_submits_once_per_shard(
        self, tiers_instance, fast_params, submits
    ):
        with service(tiers_instance, fast_params) as svc:
            report = svc.answer_batch(INDICES, nonce=31, workers=self.W)
        assert len(submits) == self.W
        assert report.shard_retries == 0 and report.degraded == 0

    def test_killed_first_attempts_are_resubmitted_once(
        self, tiers_instance, fast_params, submits
    ):
        kill_plan = FaultPlan(seed=5, shard_kill_rate=1.0, shard_kill_attempts=1)
        with service(tiers_instance, fast_params, fault_plan=kill_plan) as svc:
            report = svc.answer_batch(INDICES, nonce=31, workers=self.W)
        assert len(submits) == 2 * self.W
        assert report.shard_retries == self.W
        assert report.degraded == 0
