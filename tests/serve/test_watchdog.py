"""Deadline admission and the stuck-shard watchdog on the real service.

Stalls, like kills, are seeded attempt-keyed coins
(``FaultPlan.shard_stall``): ``rate=1.0, attempts=1`` wedges every
shard's first attempt and spares every requeue, so watchdog-fires-then-
recovers is a deterministic scenario.  The stall must dwarf the shard
deadline and the deadline must dwarf honest compute + pool spin-up —
the watchdog clock starts when the batch is submitted, not when the
worker picks it up.
"""

import pytest

from repro.errors import DeadlineExceededError
from repro.faults import FaultPlan
from repro.serve import KnapsackService
from repro.serve import service as service_module

INDICES = list(range(0, 60, 3))
STALL = FaultPlan(seed=5, shard_stall_rate=1.0, shard_stall_s=2.0,
                  shard_stall_attempts=1)


class TestDeadlineAdmission:
    def test_expired_deadline_sheds_the_whole_batch(
        self, tiers_instance, fast_params
    ):
        svc = KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params, cache=False,
            strict=False,
        )
        report = svc.answer_batch(
            INDICES, nonce=3, deadline_s=5.0, clock=lambda: 10.0
        )
        assert report.mode == "shed"
        assert report.degraded == len(INDICES)
        assert all(a.degraded for a in report.answers)
        assert all(a.reason_code == "deadline-exceeded" for a in report.answers)
        assert all(a.source == "shed" for a in report.answers)
        assert svc.stats()["overload"]["deadline_shed"] == len(INDICES)

    def test_strict_service_raises_instead(self, tiers_instance, fast_params):
        svc = KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params, cache=False,
            strict=True,
        )
        with pytest.raises(DeadlineExceededError) as err:
            svc.answer_batch(INDICES, nonce=3, deadline_s=5.0, clock=lambda: 10.0)
        assert err.value.reason_code == "deadline-exceeded"

    def test_live_deadline_serves_normally(self, tiers_instance, fast_params):
        svc = KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params, cache=False,
        )
        governed = svc.answer_batch(
            INDICES, nonce=3, deadline_s=1e9, clock=lambda: 0.0
        )
        plain = svc.answer_batch(INDICES, nonce=3)
        assert [a.include for a in governed.answers] == [
            a.include for a in plain.answers
        ]
        assert svc.stats()["overload"]["deadline_shed"] == 0


@pytest.mark.slow
class TestWatchdog:
    def test_stalled_shards_are_requeued_and_answers_recover(
        self, tiers_instance, fast_params
    ):
        svc = KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params, cache=False,
            executor="process", fault_plan=STALL, shard_deadline_s=0.75,
        )
        want = KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params, cache=False,
        ).answer_batch(INDICES, nonce=31, workers=2)
        got = svc.answer_batch(INDICES, nonce=31, workers=2)
        assert svc.stats()["overload"]["watchdog_timeouts"] >= 1
        assert got.shard_retries >= 1
        assert got.degraded == 0  # recovered honestly, not degraded
        # Bit-identical to the fault-free path: the watchdog requeue
        # rides the deterministic shard path, it doesn't change answers.
        assert [a.index for a in got.answers] == [a.index for a in want.answers]
        assert [a.include for a in got.answers] == [a.include for a in want.answers]

    def test_stalled_shards_share_one_deadline_per_round(
        self, tiers_instance, fast_params, monkeypatch
    ):
        # Four shards wedge at once: one wait per round, each bounded by
        # the deadline, so all four time out together in the first round
        # instead of costing four deadlines back to back.
        timeouts: list = []
        real_wait = service_module.wait

        def counting_wait(fs, timeout=None, **kwargs):
            timeouts.append(timeout)
            return real_wait(fs, timeout=timeout, **kwargs)

        monkeypatch.setattr(service_module, "wait", counting_wait)
        want = KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params, cache=False,
        ).answer_batch(INDICES, nonce=31, workers=4)
        with KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params, cache=False,
            executor="process", fault_plan=STALL, shard_deadline_s=0.75,
        ) as svc:
            got = svc.answer_batch(INDICES, nonce=31, workers=4)
            assert svc.stats()["overload"]["watchdog_timeouts"] == 4
        assert timeouts == [0.75, 0.75]  # the stalled round, then the requeue
        assert got.shard_retries == 4 and got.degraded == 0
        assert [(a.index, a.include) for a in got.answers] == [
            (a.index, a.include) for a in want.answers
        ]

    def test_watchdog_runs_are_deterministic(self, tiers_instance, fast_params):
        def run():
            svc = KnapsackService(
                tiers_instance, 0.1, seed=42, params=fast_params, cache=False,
                executor="process", fault_plan=STALL, shard_deadline_s=0.75,
            )
            report = svc.answer_batch(INDICES, nonce=31, workers=2)
            return [(a.index, a.include) for a in report.answers]

        assert run() == run()

    def test_no_shm_leak_after_watchdog_teardown(
        self, tiers_instance, fast_params, segments
    ):
        svc = KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params, cache=False,
            executor="process", shared_instance=True, fault_plan=STALL,
            shard_deadline_s=0.75,
        )
        try:
            report = svc.answer_batch(INDICES, nonce=31, workers=2)
            assert len(report.answers) == len(INDICES)
        finally:
            svc.close()
        assert segments.leaked() == []

    def test_bad_deadline_rejected(self, tiers_instance, fast_params):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="shard_deadline_s"):
            KnapsackService(
                tiers_instance, 0.1, seed=42, params=fast_params,
                shard_deadline_s=0.0,
            )
