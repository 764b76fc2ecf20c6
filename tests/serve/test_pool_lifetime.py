"""One long-lived worker pool per service.

A service builds each pool kind — thread and process — once, on its
first sharded batch, and keeps it until
``close()``.  It is replaced only when it breaks (a killed worker) or
when the stuck-shard watchdog escalates.  Answers depend only on
``(seed, nonce, shard)``, never on which worker served them, so a reused
pool must answer byte-identically to a fresh one.
"""

import multiprocessing
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.faults import FaultPlan, RetryPolicy, chaos_sweep
from repro.serve import KnapsackService
from repro.serve import service as service_module
from repro.suite import SuiteConfig, run_suite

INDICES = list(range(0, 60, 3))
NONCES = (31, 32, 33)
SMOKE = Path(__file__).resolve().parents[2] / "benchmarks" / "suites" / "smoke.json"


def make(instance, params, **kw):
    kw.setdefault("cache", False)
    return KnapsackService(instance, 0.1, seed=42, params=params, **kw)


def served(report):
    """The batch's answers as bytes, plus its probe bill."""
    return (
        pickle.dumps(report.answers),
        report.samples_spent,
        report.queries_spent,
        report.degraded,
    )


@pytest.fixture
def built(monkeypatch):
    """Every pool the service module constructs, by kind, in order."""
    pools = {"thread": [], "process": []}

    class CountingThreads(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools["thread"].append(self)

    class CountingProcesses(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.workers = {}
            pools["process"].append(self)

        def submit(self, fn, /, *args, **kwargs):
            fut = super().submit(fn, *args, **kwargs)
            self.workers.update(self._processes or {})
            return fut

    monkeypatch.setattr(service_module, "ThreadPoolExecutor", CountingThreads)
    monkeypatch.setattr(service_module, "ProcessPoolExecutor", CountingProcesses)
    return pools


def new_children(before):
    return [p for p in multiprocessing.active_children() if p not in before]


@pytest.mark.slow
class TestOnePoolPerKind:
    def test_thread_batches_share_one_pool(self, tiers_instance, fast_params, built):
        with make(tiers_instance, fast_params) as svc:
            for nonce in NONCES:
                svc.answer_batch(INDICES, nonce=nonce, workers=2)
        assert len(built["thread"]) == 1
        assert built["process"] == []

    def test_process_pool_is_built_once(self, tiers_instance, fast_params, built):
        with make(tiers_instance, fast_params, executor="process") as svc:
            for nonce in NONCES:
                svc.answer_batch(INDICES, nonce=nonce, workers=2)
        assert len(built["process"]) == 1
        assert built["thread"] == []

    def test_pool_only_grows(self, tiers_instance, fast_params, built):
        with make(tiers_instance, fast_params) as svc:
            for workers in (2, 3, 2, 3):
                svc.answer_batch(INDICES, nonce=31, workers=workers)
        assert [p._max_workers for p in built["thread"]] == [2, 3]


@pytest.mark.slow
class TestReuseIsInvisible:
    @pytest.mark.parametrize(
        "executor, shared",
        [("thread", False), ("process", False), ("process", True)],
    )
    def test_repeated_batches_match_fresh_services(
        self, tiers_instance, fast_params, executor, shared
    ):
        kw = {"executor": executor, "shared_instance": shared}
        with make(tiers_instance, fast_params, **kw) as svc:
            reused = [
                served(svc.answer_batch(INDICES, nonce=n, workers=2)) for n in NONCES
            ]
        fresh = []
        for nonce in NONCES:
            with make(tiers_instance, fast_params, **kw) as svc:
                fresh.append(served(svc.answer_batch(INDICES, nonce=nonce, workers=2)))
        assert reused == fresh

    def test_concurrent_callers_match_serial_calls(
        self, tiers_instance, fast_params, built
    ):
        zero = FaultPlan(seed=5)  # every rate 0: wrapped, never fires
        with make(tiers_instance, fast_params, executor="process") as svc:
            serial = {
                n: served(svc.answer_batch(INDICES, nonce=n, workers=2))
                for n in NONCES
            }
        got: dict = {}
        errors: list = []
        start = threading.Barrier(len(NONCES))
        with make(
            tiers_instance, fast_params, executor="process", fault_plan=zero
        ) as svc:

            def caller(nonce):
                try:
                    start.wait()
                    for _ in range(2):
                        report = svc.answer_batch(INDICES, nonce=nonce, workers=2)
                        got.setdefault(nonce, []).append(served(report))
                except Exception as exc:  # surfaced by the assert below
                    errors.append(exc)

            threads = [threading.Thread(target=caller, args=(n,)) for n in NONCES]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert got == {n: [serial[n], serial[n]] for n in NONCES}
        # Both services built one pool each: the callers shared theirs.
        assert len(built["process"]) == 2


@pytest.mark.slow
class TestReplacement:
    def test_killed_worker_breaks_the_pool_and_it_is_replaced(
        self, tiers_instance, fast_params, built
    ):
        # Every shard's first attempt dies, every requeue survives.
        kill = FaultPlan(seed=5, shard_kill_rate=1.0, shard_kill_attempts=1)
        with make(tiers_instance, fast_params, executor="process") as plain:
            want = [
                served(plain.answer_batch(INDICES, nonce=n, workers=2))[0]
                for n in NONCES[:2]
            ]
        before = len(built["process"])
        with make(
            tiers_instance, fast_params, executor="process", fault_plan=kill
        ) as svc:
            first = svc.answer_batch(INDICES, nonce=NONCES[0], workers=2)
            broken = built["process"][before]
            assert first.shard_retries >= 1
            assert broken._broken
            assert len(built["process"]) - before >= 2  # replaced
            after = svc.answer_batch(INDICES, nonce=NONCES[1], workers=2)
            assert not any(p.is_alive() for p in broken.workers.values())
        assert after.degraded == 0
        assert [served(first)[0], served(after)[0]] == want

    def test_watchdog_escalation_leaves_no_wedged_worker(
        self, tiers_instance, fast_params, built
    ):
        # The stall dwarfs the deadline: unless the escalation terminates
        # the wedged worker, it is still asleep when the batch returns.
        stall = FaultPlan(
            seed=5, shard_stall_rate=1.0, shard_stall_s=5.0, shard_stall_attempts=1
        )
        with make(
            tiers_instance, fast_params, executor="process",
            fault_plan=stall, shard_deadline_s=0.75,
        ) as svc:
            report = svc.answer_batch(INDICES, nonce=31, workers=2)
            wedged = built["process"][0]
            assert svc.stats()["overload"]["watchdog_timeouts"] >= 1
            assert report.degraded == 0
            assert wedged.workers
            assert not any(p.is_alive() for p in wedged.workers.values())
            live = built["process"][-1]
            assert live is not wedged
            assert all(p.is_alive() for p in live.workers.values())


@pytest.mark.slow
class TestClose:
    @pytest.mark.parametrize("shared", [False, True])
    def test_close_leaves_no_child_process(
        self, tiers_instance, fast_params, shared, segments
    ):
        before = multiprocessing.active_children()
        svc = make(
            tiers_instance, fast_params, executor="process", shared_instance=shared
        )
        svc.answer_batch(INDICES, nonce=31, workers=2)
        svc.answer_batch(INDICES, nonce=32, workers=2)
        assert new_children(before)  # the workers outlive each batch
        svc.close()
        assert new_children(before) == []
        assert len(segments.names) == int(shared)
        assert segments.leaked() == []
        # Still usable: the next batch builds a fresh pool (and segment).
        svc.answer_batch(INDICES, nonce=33, workers=2)
        svc.close()
        assert new_children(before) == []
        assert len(segments.names) == 2 * int(shared)
        assert segments.leaked() == []

    def test_in_tree_owners_close_their_services(
        self, tiers_instance, fast_params, monkeypatch, segments
    ):
        # Refcounting reaps a dropped service's pool soon after, so the
        # leak checks below cannot see an owner that forgot close();
        # counting the calls can.
        opened, closed = [], set()
        init, close = KnapsackService.__init__, KnapsackService.close

        def tracked_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            opened.append(self)

        def tracked_close(self):
            closed.add(id(self))
            close(self)

        monkeypatch.setattr(KnapsackService, "__init__", tracked_init)
        monkeypatch.setattr(KnapsackService, "close", tracked_close)
        before = multiprocessing.active_children()
        threads_before = set(threading.enumerate())
        result = run_suite(SuiteConfig.from_file(SMOKE))
        assert all(r.ok for r in result.results)
        chaos_sweep(
            tiers_instance, epsilon=0.1, lca_seed=42, chaos_seed=7,
            rates=(0.0, 0.1), queries=10, batches=1, params=fast_params,
            retry=RetryPolicy(max_retries=3, seed=7),
        )
        assert opened and all(id(svc) in closed for svc in opened)
        assert new_children(before) == []
        assert segments.leaked() == []
        pool_threads = [
            t
            for t in set(threading.enumerate()) - threads_before
            if t.name.startswith("ThreadPoolExecutor")
        ]
        assert pool_threads == []
