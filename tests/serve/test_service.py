"""KnapsackService: batching, caching, parallel sharding, accounting."""

import dataclasses
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.access import beside as beside_module
from repro.access.oracle import QueryOracle
from repro.access.seeds import SeedChain
from repro.access.weighted_sampler import WeightedSampler
from repro.core.lca_kp import LCAKP
from repro.core.simplified_instance import SimplifiedInstance
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.knapsack import generators
from repro.lca.base import LocalComputationAlgorithm
from repro.serve import KnapsackService, PipelineCache, derive_worker_nonce
from repro.serve import service as service_module
from repro.serve.cache import instance_fingerprint


@pytest.fixture()
def service(tiers_instance, fast_params):
    return KnapsackService(
        tiers_instance, fast_params.epsilon, seed=3, params=fast_params
    )


class TestSingleAnswers:
    def test_answer_fields(self, service, tiers_instance):
        ans = service.answer(4, nonce=9)
        assert ans.index == 4
        assert isinstance(ans.include, bool)
        assert ans.item.profit == tiers_instance.profit(4)
        assert ans.run.nonce == 9

    def test_repeat_nonce_hits_cache(self, service):
        service.answer(0, nonce=9)
        spent_before = service.samples_used
        service.answer(1, nonce=9)
        # A hit spends no weighted samples, only the point query.
        assert service.samples_used == spent_before
        assert service.cache.hits == 1

    def test_fresh_nonce_misses(self, service):
        service.answer(0)
        service.answer(0)
        assert service.cache.hits == 0
        assert service.cache.misses == 2

    def test_satisfies_lca_protocol(self, service):
        assert isinstance(service, LocalComputationAlgorithm)


class TestSerialBatch:
    def test_one_pipeline_per_batch(self, service):
        report = service.answer_batch(range(10), nonce=5)
        assert report.mode == "serial"
        assert report.pipelines_run == 1
        assert len(report.answers) == 10
        assert report.queries_spent == 10

    def test_cached_batch_spends_no_samples(self, service):
        service.answer_batch(range(10), nonce=5)
        report = service.answer_batch(range(10, 20), nonce=5)
        assert report.cache_hits == 1
        assert report.pipelines_run == 0
        assert report.samples_spent == 0

    def test_empty_batch_rejected(self, service):
        with pytest.raises(ReproError):
            service.answer_batch([])

    def test_answer_many_protocol_face(self, service):
        out = service.answer_many([0, 1, 2], nonce=5)
        assert out == [a.include for a in service.answer_batch([0, 1, 2], nonce=5).answers]

    def test_report_throughput_fields(self, service):
        report = service.answer_batch(range(10), nonce=5)
        assert report.wall_clock_s > 0
        assert report.queries_per_sec > 0
        d = report.to_dict()
        assert d["queries"] == 10
        assert d["mode"] == "serial"


class TestParallelBatch:
    def test_preserves_request_order(self, service):
        indices = list(range(30))
        report = service.answer_batch(indices, nonce=5, workers=3)
        assert report.mode == "thread"
        assert report.workers == 3
        assert [a.index for a in report.answers] == indices

    def test_one_pipeline_per_shard(self, service):
        report = service.answer_batch(range(30), nonce=5, workers=3)
        assert report.pipelines_run == 3

    def test_shard_nonces_are_derived(self, service):
        report = service.answer_batch(range(30), nonce=5, workers=3)
        expected = {derive_worker_nonce(service.seed, 5, w) for w in range(3)}
        assert {a.run.nonce for a in report.answers} == expected

    def test_shard_accounting_rolls_up(self, service):
        before = service.samples_used
        report = service.answer_batch(range(30), nonce=5, workers=3)
        assert report.samples_spent > 0
        assert service.samples_used == before + report.samples_spent

    def test_repeat_parallel_batch_hits_cache(self, service):
        service.answer_batch(range(30), nonce=5, workers=3)
        report = service.answer_batch(range(30), nonce=5, workers=3)
        assert report.cache_hits == 3
        assert report.samples_spent == 0

    def test_worker_nonces_deterministic(self, service):
        a = derive_worker_nonce(service.seed, 5, 0)
        b = derive_worker_nonce(service.seed, 5, 0)
        assert a == b
        assert a != derive_worker_nonce(service.seed, 5, 1)
        assert a != derive_worker_nonce(service.seed, 6, 0)


class TestProcessExecutor:
    def test_process_batch_matches_thread_batch(self, tiers_instance, fast_params):
        kwargs = dict(seed=3, params=fast_params)
        thread_svc = KnapsackService(
            tiers_instance, fast_params.epsilon, executor="thread", **kwargs
        )
        process_svc = KnapsackService(
            tiers_instance, fast_params.epsilon, executor="process", **kwargs
        )
        t = thread_svc.answer_batch(range(20), nonce=5, workers=2)
        p = process_svc.answer_batch(range(20), nonce=5, workers=2)
        assert [a.include for a in t.answers] == [a.include for a in p.answers]
        assert p.mode == "process"
        # The child's bill crossed the process boundary.
        assert p.samples_spent > 0
        assert process_svc.samples_used == p.samples_spent

    @staticmethod
    def make(instance, params, executor="process", **kw):
        return KnapsackService(
            instance, params.epsilon, seed=3, params=params, executor=executor, **kw
        )

    def test_repeat_batch_is_answered_from_the_parent_cache(
        self, tiers_instance, fast_params
    ):
        with self.make(tiers_instance, fast_params) as svc:
            first = svc.answer_batch(range(20), nonce=5, workers=2)
            again = svc.answer_batch(range(20), nonce=5, workers=2)
        assert (first.cache_misses, first.pipelines_run) == (2, 2)
        assert first.samples_spent > 0
        assert (again.cache_hits, again.cache_misses) == (2, 0)
        assert again.pipelines_run == 0
        assert again.samples_spent == 0
        assert again.answers == first.answers

    def test_mixed_batch_dispatches_only_its_misses(
        self, tiers_instance, fast_params
    ):
        # Shard nonces depend on (seed, nonce, shard) only, so a 3-way
        # batch after a 2-way one finds shards 0 and 1 cached.
        reference = self.make(tiers_instance, fast_params, executor="thread")
        want = reference.answer_batch(range(30), nonce=5, workers=3)
        with self.make(tiers_instance, fast_params) as svc:
            svc.answer_batch(range(20), nonce=5, workers=2)
            report = svc.answer_batch(range(30), nonce=5, workers=3)
            assert len(svc.worker_setup_s) == 1
        assert (report.cache_hits, report.cache_misses) == (2, 1)
        assert report.pipelines_run == 1
        assert report.answers == want.answers

    def test_cacheless_service_dispatches_every_shard(
        self, tiers_instance, fast_params
    ):
        with self.make(tiers_instance, fast_params, cache=False) as svc:
            for _ in range(2):
                report = svc.answer_batch(range(20), nonce=5, workers=2)
                assert report.cache_hits == 0
                assert report.pipelines_run == 2
                assert report.samples_spent > 0

    @pytest.mark.parametrize("first", ["thread", "process"])
    def test_thread_and_process_services_share_one_cache(
        self, tiers_instance, fast_params, first
    ):
        shared = PipelineCache(capacity=8)
        second = "process" if first == "thread" else "thread"
        with self.make(
            tiers_instance, fast_params, executor=first, cache=shared
        ) as a, self.make(
            tiers_instance, fast_params, executor=second, cache=shared
        ) as b:
            cold = a.answer_batch(range(20), nonce=5, workers=2)
            warm = b.answer_batch(range(20), nonce=5, workers=2)
        assert warm.answers == cold.answers
        assert (warm.cache_hits, warm.pipelines_run, warm.samples_spent) == (2, 0, 0)

    def test_shipped_pipeline_matches_the_in_process_run(
        self, tiers_instance, fast_params
    ):
        local = self.make(tiers_instance, fast_params, executor="thread")
        with self.make(tiers_instance, fast_params) as svc:
            svc.answer_batch(range(20), nonce=5, workers=2)
            for k in range(2):
                shard_nonce = derive_worker_nonce(svc.seed, 5, k)
                shipped = svc.cache.get(svc.cache_key(shard_nonce))
                computed, hit = local.pipeline_for(shard_nonce)
                assert shipped is not None and not hit
                assert shipped.signature_hash() == computed.signature_hash()
                assert shipped == computed

    @pytest.mark.parametrize(
        "plan, batches",
        [
            pytest.param(None, 1, id="cold"),
            pytest.param(None, 2, id="warm"),
            # Shard 1 runs its pipeline, then a probe fails while it
            # answers: it degrades to greedy and must not be cached.
            pytest.param(
                FaultPlan(seed=5, probe_failure_rate=0.1), 1, id="degraded"
            ),
        ],
    )
    def test_executors_answer_bill_and_cache_alike(
        self, tiers_instance, fast_params, plan, batches
    ):
        def serve(executor):
            with self.make(
                tiers_instance, fast_params, executor=executor,
                fault_plan=plan, strict=False,
            ) as svc:
                reports = [
                    svc.answer_batch(range(40), nonce=5, workers=2)
                    for _ in range(batches)
                ]
                cached = [
                    k for k in range(2)
                    if svc.cache_key(derive_worker_nonce(svc.seed, 5, k))
                    in svc.cache
                ]
                return reports, svc.cache.stats(), cached

        def fields(report):
            doc = report.to_dict()
            for timing in ("mode", "wall_clock_s", "queries_per_sec"):
                del doc[timing]
            return doc

        thread, process = serve("thread"), serve("process")
        assert [r.answers for r in thread[0]] == [r.answers for r in process[0]]
        assert [fields(r) for r in thread[0]] == [fields(r) for r in process[0]]
        assert thread[1:] == process[1:]
        if plan is not None:
            assert thread[0][0].degraded == 20  # exactly one shard degraded
            assert thread[2] == [0]

    def test_unknown_executor_rejected(self, tiers_instance, fast_params):
        with pytest.raises(ReproError):
            KnapsackService(
                tiers_instance, fast_params.epsilon, executor="fiber"
            )


class TestSharedCache:
    def test_two_services_share_one_cache(self, tiers_instance, fast_params):
        shared = PipelineCache(capacity=8)
        a = KnapsackService(
            tiers_instance, fast_params.epsilon, seed=3, params=fast_params, cache=shared
        )
        b = KnapsackService(
            tiers_instance, fast_params.epsilon, seed=3, params=fast_params, cache=shared
        )
        a.answer(0, nonce=9)
        before = b.samples_used
        b.answer(1, nonce=9)  # b reuses a's pipeline
        assert b.samples_used == before
        assert shared.hits == 1

    def test_cache_disabled(self, tiers_instance, fast_params):
        svc = KnapsackService(
            tiers_instance, fast_params.epsilon, seed=3, params=fast_params, cache=False
        )
        assert svc.cache is None
        svc.answer(0, nonce=9)
        before = svc.samples_used
        svc.answer(1, nonce=9)
        assert svc.samples_used > before  # pipeline re-ran

    def test_stats_shape(self, service):
        service.answer(0, nonce=9)
        stats = service.stats()
        assert stats["samples_used"] > 0
        assert stats["queries_used"] == 1
        assert stats["cache"]["misses"] == 1


class TestOneSummaryPerPipeline:
    """A warm answer reuses its pipeline's ``RunSummary`` instead of
    re-hashing I~: one ``signature()`` per distinct pipeline, however
    many answers it serves."""

    def test_warm_answers_hash_each_pipeline_once(
        self, tiers_instance, fast_params, monkeypatch
    ):
        hashed: list[int] = []
        original = SimplifiedInstance.signature

        def counting(simplified):
            hashed.append(id(simplified))
            return original(simplified)

        monkeypatch.setattr(SimplifiedInstance, "signature", counting)
        svc = KnapsackService(
            tiers_instance, fast_params.epsilon, seed=3, params=fast_params,
            executor="thread",
        )
        indices = list(range(0, 60, 7))
        answers = []
        for _ in range(50):
            answers += svc.answer_batch(indices, nonce=9).answers
        answers += [svc.answer(i, nonce=9) for i in indices]
        for _ in range(3):
            answers += svc.answer_batch(indices, nonce=9, workers=2).answers
        nonces = [9] + [derive_worker_nonce(SeedChain(3), 9, k) for k in range(2)]
        pipelines = {n: svc.pipeline_for(n)[0] for n in nonces}
        assert len({id(p) for p in pipelines.values()}) == 3
        assert sorted(hashed) == sorted(id(p.simplified) for p in pipelines.values())

        # Every answer carries exactly what an unmemoized copy recomputes.
        fresh = {n: dataclasses.replace(p).summary() for n, p in pipelines.items()}
        assert len(answers) == (50 + 1 + 3) * len(indices)
        for ans in answers:
            assert ans.run == fresh[ans.run.nonce]
            assert ans.run is pipelines[ans.run.nonce].summary()

        pipeline = pipelines[9]
        # The memo is invisible to ==, repr and pickles.
        untouched = dataclasses.replace(pipeline)
        assert pipeline == untouched and repr(pipeline) == repr(untouched)
        assert pipeline == svc.lca.run_pipeline(nonce=9)
        assert pickle.dumps(pipeline) == pickle.dumps(untouched)
        clone = pickle.loads(pickle.dumps(pipeline))
        assert clone == pipeline and clone.summary() == pipeline.summary()

        # So is the rule's sorted large-index memo, which the batches
        # above filled: a pipeline that has served answers ships to a
        # process shard as the same bytes as a fresh one.
        assert "_sorted_large" in pipeline.converted.__dict__
        assert pipeline.rule is pipeline.converted
        _assert_same_rule(pipeline.rule, dataclasses.replace(pipeline.converted))

        # A replaced pipeline gets its own summary, not the stale one.
        tie_service = KnapsackService(
            tiers_instance, fast_params.epsilon, seed=3, params=fast_params,
            tie_breaking=True,
        )
        tied, _ = tie_service.pipeline_for(9)
        assert tied.tie_rule is not None and tied.summary().tie_breaking
        for _ in range(3):
            tie_service.answer_batch(indices, nonce=9)
            tie_service.answer_batch(indices[:1], nonce=9)
        assert "_sorted_large" in tied.converted.__dict__
        _assert_same_rule(
            tied.rule,
            dataclasses.replace(
                tied.tie_rule, base=dataclasses.replace(tied.converted)
            ),
        )
        untied = dataclasses.replace(tied, tie_rule=None)
        assert untied.summary() == dataclasses.replace(untied).summary()
        assert not untied.summary().tie_breaking
        assert tied.summary().signature_hash != untied.summary().signature_hash


def _assert_same_rule(rule, untouched) -> None:
    """``rule`` compares, prints and pickles like ``untouched``."""
    assert rule == untouched and repr(rule) == repr(untouched)
    assert pickle.dumps(rule) == pickle.dumps(untouched)
    assert pickle.loads(pickle.dumps(rule)) == untouched


class TestWarmPathCounts:
    def test_warm_batches_derive_no_seed_digest(
        self, tiers_instance, fast_params, monkeypatch
    ):
        """The cache key's seed digest is derived once per service, not
        once per lookup."""
        svc = KnapsackService(
            tiers_instance, fast_params.epsilon, seed=3, params=fast_params
        )
        svc.answer_batch([0], nonce=9)
        digests = []
        original = SeedChain.digest

        def counting(chain):
            digests.append(chain.path)
            return original(chain)

        monkeypatch.setattr(SeedChain, "digest", counting)
        for k in range(1000):
            report = svc.answer_batch([k % tiers_instance.n], nonce=9)
            assert report.cache_hits == 1 and report.stale_served == 0
        assert digests == []
        assert svc.cache.hits == 1000 and svc.cache.misses == 1


class TestSetupAndColdDrawsBeside:
    """The service's two uses of the helper thread: the fingerprint is
    hashed beside the alias build, and calibrated (uncapped) cold draw
    blocks settle in two halves.  Neither may change a key or an
    answer."""

    def test_fingerprint_beside_the_build_keys_the_cache(self, monkeypatch):
        monkeypatch.setattr(beside_module, "_cpus", lambda: 2)
        hashed_on = []

        def recording(instance):
            hashed_on.append(threading.get_ident())
            return instance_fingerprint(instance)

        monkeypatch.setattr(service_module, "instance_fingerprint", recording)
        instance = generators.uniform(beside_module.SPLIT_MIN_ROWS + 1, seed=5)
        with KnapsackService(instance, 0.1, seed=3) as svc:
            key = svc.cache_key(9)
        assert len(hashed_on) == 1 and hashed_on[0] != threading.get_ident()
        assert key.instance_fingerprint == instance_fingerprint(instance)

    def test_concurrent_cold_callers_get_serial_answers(self):
        """Four callers run cold batches at once: each batch's 240,000
        draw block may split (one caller at a time holds the helper) or
        settle inline, and every answer equals a serial LCAKP.answer."""
        instance = generators.planted_lsg(20_000, seed=3, epsilon=0.1)
        indices = [0, 7, 19_999]
        nonces = [501, 502, 503, 504, 505, 506, 507, 508]
        with KnapsackService(instance, 0.1, seed=11, cache=False) as svc:
            lca = LCAKP(
                WeightedSampler(instance), QueryOracle(instance), 0.1, 11,
                params=svc.params,
            )
            expected = {
                nonce: [
                    (a.index, a.include, a.item)
                    for a in (lca.answer(i, nonce=nonce) for i in indices)
                ]
                for nonce in nonces
            }

            def call(nonce):
                report = svc.answer_batch(indices, nonce=nonce)
                return nonce, [(a.index, a.include, a.item) for a in report.answers]

            with ThreadPoolExecutor(max_workers=4) as callers:
                results = list(callers.map(call, nonces, timeout=300))
        assert dict(results) == expected
