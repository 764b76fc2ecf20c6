"""Serving-layer throughput measurement (shared by CLI and bench).

One workload, four execution regimes over identical queries:

* ``per_query`` — the pre-serving baseline: a fresh
  :meth:`~repro.core.LCAKP.answer` per query, each paying a full
  pipeline (the Theorem 4.1 per-query cost, with no amortization);
* ``serial_uncached`` — batched through a cache-less
  :class:`~repro.serve.KnapsackService`: the batch amortizes one
  pipeline over its queries, but every batch re-runs it;
* ``serial_cached`` — same batches, same pinned nonce, cache enabled:
  the first batch runs the pipeline, the rest hit the LRU;
* ``parallel`` — one big batch sharded across a thread pool under
  derived per-shard nonces (the fleet regime: more pipelines, less
  wall-clock per pipeline).

Because a pipeline is a deterministic function of
``(instance, seed, nonce, params)``, all four regimes answer every
query identically — the table measures pure serving overhead, not
accuracy trade-offs (the invariance property test in
``tests/serve/test_invariance.py`` pins this).
"""

from __future__ import annotations

import time

from ..access.oracle import QueryOracle
from ..access.weighted_sampler import WeightedSampler
from ..core.lca_kp import LCAKP
from ..obs.diff import RERUN_EXEMPT
from .service import KnapsackService

__all__ = [
    "serve_throughput_rows",
    "bench_serve_document",
    "cold_pipeline_rows",
    "cold_sweep_rows",
    "bench_cold_document",
    "shm_scale_rows",
    "bench_shm_document",
]

#: Why a shared-memory row outside the context's ``rerun_sizes`` is not
#: rerun by ``repro obs-diff``.
SHM_SCALE_EXEMPT = (
    "machine-scale row: n is past the context's rerun_sizes, which a fresh "
    "rerun runs alone"
)


def _row(mode, queries, pipelines, samples, wall):
    return {
        "mode": mode,
        "queries": queries,
        "pipelines_run": pipelines,
        "samples": samples,
        "wall_clock_s": round(wall, 6),
        "qps": round(queries / wall, 2) if wall > 0 else float("inf"),
    }


def serve_throughput_rows(
    instance,
    *,
    epsilon: float = 0.1,
    seed: int = 7,
    queries: int = 1000,
    batch: int = 100,
    workers: int = 4,
    baseline_queries: int = 20,
) -> list[dict]:
    """Measure queries/sec under the four regimes; returns table rows.

    The same index stream (round-robin over the instance) is served in
    every regime; ``per_query`` runs only ``baseline_queries`` of it
    (each costs a full pipeline) and is reported per-query.  The last
    row of the result carries the headline ratios.
    """
    n = instance.n
    idx = [i % n for i in range(queries)]
    batches = [idx[k : k + batch] for k in range(0, queries, batch)]

    # Regime 1: per-query LCAKP.answer, a pipeline per call.
    sampler = WeightedSampler(instance)
    lca = LCAKP(sampler, QueryOracle(instance), epsilon, seed)
    t0 = time.perf_counter()
    for q in range(baseline_queries):
        lca.answer(idx[q], nonce=1_000 + q)
    base_wall = time.perf_counter() - t0
    rows = [
        _row("per_query", baseline_queries, baseline_queries,
             sampler.cost_counter, base_wall)
    ]
    base_qps = rows[0]["qps"]

    # Regime 2: batched, uncached — every batch re-runs the pipeline
    # even though the nonce is pinned (there is no cache to notice).
    with KnapsackService(instance, epsilon, seed, cache=False) as svc_u:
        t0 = time.perf_counter()
        for b in batches:
            svc_u.answer_batch(b, nonce=3_000)
        wall = time.perf_counter() - t0
    rows.append(
        _row("serial_uncached", queries, len(batches), svc_u.samples_used, wall)
    )

    # Regime 3: identical workload, cache enabled — one miss, then hits.
    with KnapsackService(instance, epsilon, seed, cache_capacity=8) as svc_c:
        t0 = time.perf_counter()
        hits = 0
        for b in batches:
            hits += svc_c.answer_batch(b, nonce=3_000).cache_hits
        wall = time.perf_counter() - t0
    rows.append(
        _row("serial_cached", queries, len(batches) - hits, svc_c.samples_used, wall)
    )
    rows[-1]["cache_hits"] = hits

    # Regime 4: one big batch sharded across a thread pool.
    with KnapsackService(instance, epsilon, seed, cache=False) as svc_p:
        t0 = time.perf_counter()
        report = svc_p.answer_batch(idx, nonce=5_000, workers=workers)
        wall = time.perf_counter() - t0
    rows.append(
        _row(f"parallel_x{report.workers}", queries, report.pipelines_run,
             report.samples_spent, wall)
    )

    for row in rows:
        row["speedup_vs_per_query"] = (
            round(row["qps"] / base_qps, 2) if base_qps > 0 else float("inf")
        )
    return rows


def cold_pipeline_rows(
    instance,
    *,
    epsilon: float = 0.1,
    seed: int = 7,
    queries: int = 5,
    params=None,
    probe_stride: int = 7,
) -> list[dict]:
    """Measure cold-pipeline latency: columnar block path vs object path.

    Runs ``queries`` cold pipelines per path (fresh LCA each path, cache
    concept not involved — every run is a full Algorithm 2 execution)
    under identical nonces, then reports per-path wall clock, samples and
    blocks.  Before timing is trusted, every nonce is *verified*: the
    two paths must produce equal signatures, equal ``samples_used``, and
    equal answers on a probe index set — the bench refuses to report a
    speedup for a path pair that is not bit-identical.

    The final row carries the headline ``speedup`` (object wall / block
    wall).
    """
    from ..core._object_path import run_pipeline_object

    nonces = [10_000 + q for q in range(queries)]
    probes = list(range(0, instance.n, max(1, probe_stride)))[:64]

    def fresh():
        sampler = WeightedSampler(instance)
        lca = LCAKP(
            sampler, QueryOracle(instance), epsilon, seed, params=params
        )
        return sampler, lca

    # Verification pass (untimed): bit-identity per nonce.
    s_b, lca_b = fresh()
    s_o, lca_o = fresh()
    for nonce in nonces:
        block_res = lca_b.run_pipeline(nonce=nonce)
        object_res = run_pipeline_object(lca_o, nonce=nonce)
        if block_res.signature() != object_res.signature():
            raise AssertionError(f"path divergence at nonce {nonce}: signature")
        if block_res.samples_used != object_res.samples_used:
            raise AssertionError(f"path divergence at nonce {nonce}: samples")
        a_b = lca_b.answers_from(block_res, probes)
        a_o = lca_o.answers_from(object_res, probes)
        if [(a.index, a.include, a.item) for a in a_b] != [
            (a.index, a.include, a.item) for a in a_o
        ]:
            raise AssertionError(f"path divergence at nonce {nonce}: answers")
    if s_b.cost_counter != s_o.cost_counter:
        raise AssertionError("path divergence: total sample cost")

    rows = []
    # Timed passes: same nonces, fresh accounting per path.
    s_o, lca_o = fresh()
    t0 = time.perf_counter()
    for nonce in nonces:
        run_pipeline_object(lca_o, nonce=nonce)
    object_wall = time.perf_counter() - t0
    rows.append(
        {
            "mode": "object_path",
            "queries": queries,
            "samples": s_o.cost_counter,
            "blocks": s_o.blocks_used,
            "wall_clock_s": round(object_wall, 6),
            "latency_ms": round(1000.0 * object_wall / queries, 3),
        }
    )

    s_b, lca_b = fresh()
    t0 = time.perf_counter()
    for nonce in nonces:
        lca_b.run_pipeline(nonce=nonce)
    block_wall = time.perf_counter() - t0
    rows.append(
        {
            "mode": "block_path",
            "queries": queries,
            "samples": s_b.cost_counter,
            "blocks": s_b.blocks_used,
            "wall_clock_s": round(block_wall, 6),
            "latency_ms": round(1000.0 * block_wall / queries, 3),
        }
    )
    if s_b.cost_counter != s_o.cost_counter:
        raise AssertionError("timed passes disagree on total sample cost")
    rows[-1]["speedup"] = (
        round(object_wall / block_wall, 2) if block_wall > 0 else float("inf")
    )
    rows[-1]["verified_bit_identical"] = True
    return rows


def cold_sweep_rows(
    sizes,
    *,
    family: str = "planted_lsg",
    instance_seed: int = 0,
    epsilon: float = 0.1,
    seed: int = 7,
    queries: int = 2,
    params=None,
) -> list[dict]:
    """Cold-pipeline latency across an n-axis sweep of instance sizes.

    Runs :func:`cold_pipeline_rows` (including its bit-identity
    verification) once per size with reduced repeats — the point of the
    sweep is the *scaling shape* of the two paths, not tight per-point
    variance — and tags every row with the instance size and family, so
    the rows compose into one ``bench-result/v1`` document next to the
    single-n laptop rows.
    """
    from ..knapsack.generators import generate

    rows: list[dict] = []
    for n in sizes:
        inst = generate(family, int(n), seed=instance_seed)
        for row in cold_pipeline_rows(
            inst, epsilon=epsilon, seed=seed, queries=queries, params=params
        ):
            row["n"] = int(n)
            row["family"] = family
            rows.append(row)
    return rows


def shm_scale_rows(
    sizes,
    *,
    family: str = "planted_lsg",
    instance_seed: int = 0,
    epsilon: float = 0.1,
    seed: int = 7,
    queries: int = 32,
    workers: int = 2,
    pickled_max_n: int = 10_000_000,
    params=None,
) -> list[dict]:
    """n-axis sweep of the process-shard instance tiers, to 10^7–10^8.

    Per size, three rows:

    * ``store_create`` — one-time cost of laying the instance (plus
      derived columns) into shared memory, with the segment size;
    * ``process_pickled`` — the legacy path: the whole instance pickled
      into every worker (skipped above ``pickled_max_n``, where the
      copies stop being worth measuring);
    * ``process_shm`` — handle-shipping path: workers attach zero-copy.

    Both serving rows carry the per-worker RSS/private-memory and
    access-setup columns (from the winning shards' shipped telemetry):
    the tier's claim is that ``worker_private_mb`` and
    ``shard_setup_s`` stay bounded as n grows — per-query resident
    overhead is block-sized, not instance-sized — while the pickled
    path grows linearly on both.  When both serving rows ran, the shm
    row's answers are compared against the pickled row's and the result
    recorded in ``bit_identical`` (a mismatch raises — this bench
    refuses to advertise a tier that changes answers).
    """
    from ..core.parameters import LCAParameters
    from ..knapsack.generators import generate
    from ..knapsack.shm import SharedInstanceStore, process_memory
    from .service import KnapsackService

    if params is None:
        # Cap the per-run sample sizes so the sweep measures the tier
        # (setup + residency), not ever-growing estimator work.
        params = LCAParameters.calibrated(epsilon, max_nrq=4000, max_m_large=4000)

    def mb(kb):
        return round(kb / 1024.0, 2) if kb is not None else None

    def serve_row(mode, inst, n, shared):
        idx = [i % inst.n for i in range(queries)]
        with KnapsackService(
            inst,
            epsilon,
            seed,
            params=params,
            cache=False,
            executor="process",
            shared_instance=shared,
        ) as svc:
            t0 = time.perf_counter()
            report = svc.answer_batch(idx, nonce=9_000, workers=workers)
            wall = time.perf_counter() - t0
        memories = svc.worker_memory
        setups = svc.worker_setup_s
        row = _row(mode, queries, report.pipelines_run, report.samples_spent, wall)
        row.update(
            n=int(n),
            family=family,
            rss_parent_mb=mb(process_memory()["rss_kb"]),
            worker_rss_mb=mb(max((m.get("rss_kb") or 0) for m in memories))
            if memories
            else None,
            worker_private_mb=mb(max((m.get("private_kb") or 0) for m in memories))
            if memories and all(m.get("private_kb") is not None for m in memories)
            else None,
            shard_setup_s=round(max(setups), 6) if setups else None,
        )
        answers = [(a.index, a.include) for a in report.answers]
        return row, answers

    rows: list[dict] = []
    for n in sizes:
        n = int(n)
        inst = generate(family, n, seed=instance_seed)

        t0 = time.perf_counter()
        store = SharedInstanceStore.create(inst)
        create_wall = time.perf_counter() - t0
        store_mb = round(store.handle.nbytes / 1024.0 / 1024.0, 2)
        store.close()
        row = _row("store_create", 0, 0, 0, create_wall)
        row.update(n=n, family=family, store_mb=store_mb)
        rows.append(row)

        pickled_answers = None
        if n <= pickled_max_n:
            row, pickled_answers = serve_row("process_pickled", inst, n, False)
            rows.append(row)

        row, shm_answers = serve_row("process_shm", inst, n, True)
        if pickled_answers is not None:
            if shm_answers != pickled_answers:
                raise AssertionError(
                    f"shared-memory path diverged from pickled path at n={n}"
                )
            row["bit_identical"] = True
        rows.append(row)
    return rows


def bench_shm_document(
    rows: list[dict], *, name: str = "shm_scale", **context
) -> dict:
    """Wrap shared-memory sweep rows as a ``bench-result/v1`` document.

    ``context`` works as in :func:`bench_cold_document`, with
    ``bench="shm"`` — committed baselines carry ``rerun_sizes`` so
    ``repro obs-diff`` can rerun the small rows on any machine.  Rows at
    other sizes (the 10^7–10^8 machine-scale measurements) declare why
    a rerun skips them, so the diff reports them as unmatched rather
    than unchecked.
    """
    sizes = context.get("rerun_sizes")
    if sizes is not None:
        rows = [
            row if row.get("n") in sizes else {**row, RERUN_EXEMPT: SHM_SCALE_EXEMPT}
            for row in rows
        ]
    return _bench_result(
        rows,
        name=name,
        title="Shared-memory instance tier: zero-copy process sharding across n",
        bench="shm",
        context=context,
    )


def bench_cold_document(
    rows: list[dict], *, name: str = "cold_pipeline", **context
) -> dict:
    """Wrap cold-path rows as a ``bench-result/v1`` document.

    ``context`` keys (family, n or sizes, epsilon, seeds, ...) are
    embedded under ``"context"`` with ``bench="cold"``, which is what
    lets ``repro obs-diff --fresh`` reconstruct the rerun configuration
    from the committed baseline itself.
    """
    return _bench_result(
        rows,
        name=name,
        title="Cold-pipeline latency: columnar block path vs per-object path",
        bench="cold",
        context=context,
    )


def bench_serve_document(
    rows: list[dict], *, name: str = "serve_throughput", **context
) -> dict:
    """Wrap throughput rows as a ``bench-result/v1`` document.

    ``context`` works as in :func:`bench_cold_document`, with
    ``bench="serve"``.
    """
    return _bench_result(
        rows,
        name=name,
        title="Serving-layer throughput: cached vs uncached, serial vs parallel",
        bench="serve",
        context=context,
    )


def _bench_result(rows, *, name: str, title: str, bench: str, context: dict) -> dict:
    """Shared ``bench-result/v1`` assembly via :class:`BenchDocument`."""
    from ..obs.context import RunContext
    from ..obs.schema import BenchDocument

    bench = context.pop("bench", bench)
    return BenchDocument.build(
        "bench-result",
        name=name,
        title=title,
        rows=rows,
        context=RunContext(bench=bench, config=context),
        wall_clock_s=sum(r["wall_clock_s"] for r in rows),
        total_queries=sum(r["queries"] for r in rows),
        total_samples=sum(r["samples"] for r in rows),
    ).body
