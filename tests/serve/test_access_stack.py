"""One access stack per service: shards share the service's alias table.

Thm 4.5 makes a query's cost independent of n, so a warm batch must do
no O(n) work.  The service builds its alias table once, at construction;
every thread shard wraps it in a fresh-accounting sampler, and the
shared-memory tier copies it instead of building its own.  These tests
count :meth:`AliasTable._build` calls after construction (expected: none)
and pin answers and probe bills to an inline reference that builds
everything from scratch, shard by shard, on every executor: a warm
process batch is answered in the parent off the shared cache, so it
bills exactly what a warm thread batch bills.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.access.oracle import QueryOracle
from repro.access.seeds import SeedChain
from repro.access.weighted_sampler import AliasTable, WeightedSampler
from repro.core.lca_kp import LCAKP
from repro.faults import FaultPlan, RetryPolicy
from repro.knapsack import generators
from repro.serve import KnapsackService, derive_worker_nonce

N = 20_000
SEED = 42
NONCE = 17
WORKERS = 2
INSTANCE = generators.uniform(N, seed=5)
INDICES = list(range(3, N, 997))

STACKS = {
    "plain": {},
    "zero-rate-faults-retry": {
        "fault_plan": FaultPlan(seed=9),
        "retry_policy": RetryPolicy(max_retries=2),
    },
}

EXECUTORS = {
    "thread": {"executor": "thread"},
    "process": {"executor": "process"},
    "process-shared": {"executor": "process", "shared_instance": True},
}

#: Every (stack, executor) pair; thread cases keep the bare stack id.
CASES = [
    pytest.param(
        stack, executor, id=stack if executor == "thread" else f"{stack}-{executor}"
    )
    for stack in sorted(STACKS)
    for executor in EXECUTORS
]


@pytest.fixture()
def alias_builds(monkeypatch):
    """Sizes of every alias table built from here on (in this process)."""
    builds: list[int] = []
    original = AliasTable._build

    def counting(scaled):
        builds.append(scaled.size)
        return original(scaled)

    monkeypatch.setattr(AliasTable, "_build", staticmethod(counting))
    return builds


def _reference(params, nonce):
    """Per-shard answers and bills from stacks built from scratch."""
    answers, cold, warm = [], [0, 0, 0], [0, 0, 0]
    for k in range(WORKERS):
        sampler, oracle = WeightedSampler(INSTANCE), QueryOracle(INSTANCE)
        lca = LCAKP(sampler, oracle, params.epsilon, SEED, params=params)
        pipeline = lca.run_pipeline(
            nonce=derive_worker_nonce(SeedChain(SEED), nonce, k)
        )
        before = (sampler.cost_counter, oracle.cost_counter, sampler.blocks_used)
        shard_answers = lca.answers_from(pipeline, INDICES[k::WORKERS])
        after = (sampler.cost_counter, oracle.cost_counter, sampler.blocks_used)
        answers.append([(a.index, a.include) for a in shard_answers])
        for j in range(3):
            cold[j] += after[j]
            warm[j] += after[j] - before[j]
    ordered = [None] * len(INDICES)
    for k, shard in enumerate(answers):
        for j, ans in enumerate(shard):
            ordered[k + j * WORKERS] = ans
    return ordered, tuple(cold), tuple(warm)


def _bill(svc, report, blocks_before):
    return (
        report.samples_spent, report.queries_spent, svc.blocks_used - blocks_before
    )


@pytest.mark.parametrize("stack, executor", CASES)
def test_thread_batches_build_no_alias_table(stack, executor, fast_params, alias_builds):
    with KnapsackService(
        INSTANCE, fast_params.epsilon, seed=SEED, params=fast_params,
        **EXECUTORS[executor], **STACKS[stack],
    ) as svc:
        assert alias_builds == [N]  # the service's one build
        expected, cold_bill, warm_bill = _reference(fast_params, NONCE)
        del alias_builds[:]  # the reference's own builds
        blocks = svc.blocks_used
        report = svc.answer_batch(INDICES, nonce=NONCE, workers=WORKERS)
        assert report.cache_misses == WORKERS
        assert [(a.index, a.include) for a in report.answers] == expected
        assert _bill(svc, report, blocks) == cold_bill
        for _ in range(3):
            blocks = svc.blocks_used
            report = svc.answer_batch(INDICES, nonce=NONCE, workers=WORKERS)
            assert report.cache_hits == WORKERS
            assert [(a.index, a.include) for a in report.answers] == expected
            assert _bill(svc, report, blocks) == warm_bill
    assert alias_builds == []
    assert report.probe_retries == 0 and report.degraded == 0


def test_concurrent_callers_get_reference_answers(fast_params, alias_builds):
    """Four callers on one service (the LoadHarness shape), shards of
    different batches drawing from the one table at the same time."""
    svc = KnapsackService(
        INSTANCE, fast_params.epsilon, seed=SEED, params=fast_params,
        executor="thread", cache_capacity=8,
    )
    nonces = [100 + (r % 4) for r in range(12)]
    expected = {nonce: _reference(fast_params, nonce)[0] for nonce in set(nonces)}
    del alias_builds[:]

    def call(nonce):
        report = svc.answer_batch(INDICES, nonce=nonce, workers=WORKERS)
        return nonce, [(a.index, a.include) for a in report.answers]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the eight shard threads finely
    try:
        with ThreadPoolExecutor(max_workers=4) as callers:
            futures = [callers.submit(call, nonce) for nonce in nonces]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == len(nonces)
    for nonce, got in results:
        assert got == expected[nonce]
    assert alias_builds == []


@pytest.mark.slow
def test_shared_service_reuses_its_table_across_close(
    fast_params, alias_builds, segments
):
    with KnapsackService(
        INSTANCE, fast_params.epsilon, seed=SEED, params=fast_params,
        cache=False, executor="process", shared_instance=True,
    ) as svc:
        del alias_builds[:]
        first = svc.answer_batch(INDICES, nonce=NONCE, workers=WORKERS)
        svc.close()
        assert svc.shm_stats()["store"] is None
        again = svc.answer_batch(INDICES, nonce=NONCE, workers=WORKERS)
        assert svc.shm_stats()["store"] is not None
        assert [a.include for a in again.answers] == [
            a.include for a in first.answers
        ]
        assert again.samples_spent == first.samples_spent
    # Both segments were filled from the service's table, not rebuilt.
    assert alias_builds == []
    assert segments.leaked() == []
