"""Benchmark of the LCA-KP serving stack (``repro.serve.KnapsackService``).

    python3 perfbench/run.py --workload point_warm --seed 1 --seconds 25 --trace 0

Drives one in-process ``KnapsackService`` from a seeded open-loop
generator, then a closed loop, checks the answers against an inline
reference and prints every metric by name with its unit.  ``--trace 1``
instead runs one untraced and two traced open-loop passes over the same
request stream and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every answer is right and every exact count repeats,
1 otherwise, 2 when the repository sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import driver  # noqa: E402
import spans as spanlib  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
#: Caller threads.  One leaves the second core of a 2-core host to the
#: shards and to the host itself: with a caller per core, whatever else
#: runs on the machine stalls a caller, and p50 and throughput moved by
#: 20% between runs.  It also keeps process-pool forks safe, since no
#: other caller can hold a lock (the metrics registry's, say) at the
#: moment of the fork.
CALLERS = 1
#: Share of ``--seconds`` the untraced open loop gets; the closed loop gets the rest.
OPEN_SHARE = 0.7
#: Open/closed slices an untraced run alternates, so both sample the whole run.
ROUNDS = 8
#: Untimed closed-loop load between set-up and the timed passes.
WARM_S = 1.5
#: point_cold requests re-derived by the reference; each costs a full pipeline run.
COLD_CHECKS = 16
OUT_DIR = ROOT / ".bench_out"

#: Gated end-to-end metrics.  throughput_qps, p99_ms, error_frac and
#: samples_per_query are printed by every run but not gated: the last two
#: are 0 on some workloads, and over ten seeds on a 2-core host p99 spread
#: 25-50% and point_warm's closed-loop throughput 37% (quartile distance
#: over median), more than the largest bound a gate may have.
END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "rss_mb": "MB",
}

PER_LAYER = {
    "serve.answer_batch.self_ms": "ms",
    "serve.cache_key.ms": "ms",
    "serve.pools_per_request": "count",
    "serve.pool_shutdown_ms": "ms",
    "serve.worker_setup_ms": "ms",
    "serve.shard_retries": "count",
    "serve.degraded": "count",
    "serve.samples_per_query": "count",
    "cache.lookups": "count",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "cache.get_ms": "ms",
    "cache.put_ms": "ms",
    "cache.fingerprint_ms": "ms",
    "core.run_pipeline.calls": "count",
    "core.run_pipeline.ms": "ms",
    "core.simplify.ms": "ms",
    "core.convert_greedy.ms": "ms",
    "core.answers_from.us_per_answer": "us",
    "reproducible.quantiles.ms": "ms",
    "access.alias_builds_per_request": "count",
    "access.alias_build_ms": "ms",
    "access.sample_block.ms": "ms",
    "access.sample_block.draws": "count",
    "access.query_block.us_per_item": "us",
    "shm.store_create_s": "s",
    "shm.store_mb": "MB",
    "shm.worker_private_mb": "MB",
    "driver.queue_wait_p99_ms": "ms",
    "driver.lateness_p99_ms": "ms",
    "trace.overhead_frac": "ratio",
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_pids() -> list[int]:
    """Live and unreaped children of this process, read from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat[stat.rfind(")") + 2:].split()[1]) == me:
            pids.append(int(entry.name))
    return pids


def stop_children() -> None:
    """End every process the run started and wait for each.

    Pools are joined by the service itself; what is left is the
    multiprocessing resource tracker, which the shared-memory store
    starts and which would otherwise outlive the run by a moment.  Any
    other straggler is terminated first, so none still holds the
    tracker's pipe when the tracker is told to stop.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    for pid in child_pids():
        if pid == tracker._pid:
            continue
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ChildProcessError, ProcessLookupError):
            pass
    tracker._stop()


def _first_field(path: str, key: str) -> str:
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` ("unknown" outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def median(values, scale: float = 1.0) -> float | None:
    """Median times ``scale``; ``None`` for an idle layer (printed as n/a)."""
    return float(np.median(values)) * scale if len(values) else None


@dataclass
class Pass:
    """One open-loop pass over the seeded request stream."""

    result: driver.OpenLoopResult
    spans: list
    lookups: int
    hits: int
    evictions: int
    samples: int
    worker_setup_s: list
    worker_private_kb: list


def merge(parts: list[Pass]) -> Pass:
    """Concatenate the slices of one pass, in request order."""
    if len(parts) == 1:
        return parts[0]
    cat = lambda field: np.concatenate([getattr(p.result, field) for p in parts])
    result = driver.OpenLoopResult(
        cat("due"), cat("ready"), cat("start"), cat("end"),
        [o for p in parts for o in p.result.outcomes],
    )
    return Pass(
        result,
        [s for p in parts for s in p.spans],
        sum(p.lookups for p in parts),
        sum(p.hits for p in parts),
        sum(p.evictions for p in parts),
        sum(p.samples for p in parts),
        [x for p in parts for x in p.worker_setup_s],
        [x for p in parts for x in p.worker_private_kb],
    )


def tally(outcomes, batch: int) -> tuple[int, int, int, int]:
    """``(answered items, failed items, degraded, shard retries)``."""
    answered = failed = degraded = retries = 0
    for out in outcomes:
        if isinstance(out, Exception) or out is None:
            failed += batch
            continue
        answered += len(out[1])
        degraded += out[2]
        retries += out[3]
    return answered, failed, degraded, retries


class ServiceRun:
    """One service under one workload, and the passes driven against it."""

    def __init__(self, wl, inputs, instance, params, callers, tracer) -> None:
        self.wl = wl
        self.inputs = inputs
        self.instance = instance
        self.params = params
        self.callers = callers
        self.tracer = tracer
        self.svc = None
        self._worker_setup_s: list = []
        self._worker_private_kb: list = []

    def _warm(self) -> None:
        idx, _ = self.inputs.open_requests.get(0)
        nonce = self.inputs.pinned_nonce if self.wl.pinned else self.inputs.warm_nonce
        self.svc.answer_batch(idx, nonce=nonce, workers=self.wl.workers)

    def setup(self, repeats: int) -> list[float]:
        """Seconds from instance arrays in hand to the answered warm-up
        request, once per fresh service; the last service is kept."""
        from repro.serve.service import KnapsackService

        times = []
        for _ in range(repeats):
            self.close()
            t0 = time.perf_counter()
            self.svc = KnapsackService(
                self.instance,
                workloads.EPSILON,
                seed=self.inputs.lca_seed,
                params=self.params,
                executor=self.wl.executor,
                shared_instance=self.wl.shared,
            )
            self._warm()
            times.append(time.perf_counter() - t0)
        return times

    def close(self) -> None:
        if self.svc is not None:
            self.svc.close()
            self.svc = None

    def _call(self, requests, traced: bool):
        svc, workers = self.svc, self.wl.workers

        def call(k):
            idx, nonce = requests.get(k % len(requests))
            return svc.answer_batch(idx, nonce=nonce, workers=workers)

        if not traced:
            return call
        tracer = self.tracer
        return lambda k: tracer.request(k, lambda: call(k))

    def _digest(self, report) -> tuple:
        if self.wl.executor == "process":
            self._worker_setup_s.extend(self.svc.worker_setup_s)
            self._worker_private_kb.extend(
                m.get("private_kb") or 0 for m in self.svc.worker_memory
            )
        return (
            tuple(a.index for a in report.answers),
            tuple(a.include for a in report.answers),
            report.degraded,
            report.shard_retries,
        )

    def _open_slice(self, traced: bool, lo: int, hi: int, t_lo: float) -> Pass:
        """Open-loop requests ``lo..hi-1``, due ``t_lo`` seconds earlier
        than in the full schedule; the cache is cleared and re-warmed first."""
        svc, base = self.svc, self._call(self.inputs.open_requests, traced)
        svc.cache.clear()
        self._warm()
        self._worker_setup_s, self._worker_private_kb = [], []
        before, samples = svc.cache.stats(), svc.samples_used
        with self.tracer.installed() if traced else nullcontext():
            result = driver.open_loop(
                lambda j: base(lo + j), self._digest, self.inputs.due[lo:hi] - t_lo,
                self.callers,
            )
        after = svc.cache.stats()
        return Pass(
            result,
            self.tracer.take() if traced else [],
            (after["hits"] + after["misses"]) - (before["hits"] + before["misses"]),
            after["hits"] - before["hits"],
            after["evictions"] - before["evictions"],
            svc.samples_used - samples,
            self._worker_setup_s,
            self._worker_private_kb,
        )

    def measure(self, traced: bool, open_s: float, rounds: int = 1, closed_s: float = 0.0):
        """One pass over the open-loop schedule, cut into ``rounds`` slices
        with a closed-loop slice of ``closed_s / rounds`` seconds after
        each, so both loops sample the host over the whole run.  Returns
        the open slices and ``(seconds, outcomes)`` per closed slice."""
        due = self.inputs.due
        times = np.linspace(0.0, open_s, rounds + 1)
        edges = [0, *np.searchsorted(due, times[1:-1]).tolist(), len(due)]
        parts, closed, first = [], [], 0
        for r in range(rounds):
            parts.append(self._open_slice(traced, edges[r], edges[r + 1], times[r]))
            if closed_s > 0:
                base = self._call(self.inputs.closed_requests, False)
                res = driver.closed_loop(
                    lambda j, first=first: base(first + j), self._digest,
                    closed_s / rounds, self.callers,
                )
                closed.append((
                    res.elapsed_s, {first + j: out for j, out in res.outcomes.items()}
                ))
                first += len(res.outcomes)
        return parts, closed

    def warm_load(self, seconds: float) -> None:
        """Untimed back-to-back load replaying the open-loop stream, so the
        allocator, page cache and pools settle before timing."""
        base = self._call(self.inputs.open_requests, False)
        driver.closed_loop(base, self._digest, seconds, self.callers)

    def wrong_answers(self, checked: list, seed: int) -> int:
        """Item answers that differ from the inline reference.

        ``checked`` holds ``(requests, {request number: outcome})`` pairs.
        Pinned-nonce workloads check every answer against one reference
        pipeline per shard nonce; point_cold re-derives a seeded subset of
        its first pass, one full pipeline per request.
        """
        from repro.access.oracle import QueryOracle
        from repro.access.weighted_sampler import WeightedSampler
        from repro.core.lca_kp import LCAKP
        from repro.serve.service import derive_worker_nonce

        wl, svc = self.wl, self.svc
        ref = LCAKP(
            WeightedSampler(self.instance),
            QueryOracle(self.instance),
            workloads.EPSILON,
            self.inputs.lca_seed,
            params=svc.params,
        )
        wrong = 0
        asked, got, shard = [], [], []
        if not wl.pinned:
            requests, outcomes = checked[0]
            done = sorted(k for k, o in outcomes.items() if isinstance(o, tuple))
            rng = workloads._rng(seed, wl.name, "checks")
            picks = rng.choice(done, size=min(COLD_CHECKS, len(done)), replace=False)
            checked = [(requests, {int(k): outcomes[int(k)]}) for k in picks]
        for requests, outcomes in checked:
            for k, out in outcomes.items():
                if not isinstance(out, tuple):
                    continue
                idx = requests.indices[k % len(requests)]
                if out[0] != tuple(idx.tolist()):
                    wrong += len(idx)
                    continue
                if not wl.pinned:
                    nonce = int(requests.nonces[k % len(requests)])
                    expect = workloads.reference_includes(
                        ref, {0: nonce}, idx, np.zeros(len(idx), dtype=np.int64)
                    )
                    wrong += int(np.count_nonzero(expect != np.array(out[1])))
                    continue
                asked.append(idx)
                got.append(out[1])
                shard.append([workloads.shard_of(j, wl.workers) for j in range(len(idx))])
        if asked:
            base = self.inputs.pinned_nonce
            if wl.workers and wl.workers > 1:
                nonces = {
                    k: derive_worker_nonce(svc.seed, base, k) for k in range(wl.workers)
                }
            else:
                nonces = {0: base}
            expect = workloads.reference_includes(
                ref, nonces, np.concatenate(asked), np.concatenate(shard)
            )
            wrong += int(np.count_nonzero(expect != np.concatenate(got)))
        return wrong


def latencies(p: Pass) -> np.ndarray:
    """Due-to-answered seconds; a failed request misses every limit (inf)."""
    lat = p.result.latency.copy()
    for k, out in enumerate(p.result.outcomes):
        if not isinstance(out, tuple):
            lat[k] = math.inf
    return lat


def pctl(values, q: float, scale: float = 1e3) -> float | None:
    return float(np.percentile(values, q)) * scale if len(values) else None


def layer_metrics(run: ServiceRun, setup_spans, untraced: Pass, t1: Pass, t2: Pass):
    """Per-layer metrics from the first traced pass (driver ones from the
    untraced pass), the exact counts of both traced passes, and the span
    analysis of the first."""
    wl = run.wl
    an = spanlib.analyse(t1.spans)
    setup_an = spanlib.analyse(setup_spans)
    calls = an.calls
    empty = spanlib.CallStats()

    def st(name):
        return calls.get(name, empty)

    def busy_p50(name, scale=1e3, source=None):
        return median((source or calls).get(name, empty).busy, scale)

    def per_unit(name, scale):
        s = st(name)
        return sum(s.busy) / s.size * scale if s.size else None

    requests = len(t1.result.due)
    answered, _, degraded, retries = tally(t1.result.outcomes, wl.batch)
    alias_all = st("access.alias_build").busy + setup_an.calls.get("access.alias_build", empty).busy
    store = run.svc.stats().get("shm") or {}
    traced_lat = np.concatenate([latencies(t1), latencies(t2)])
    metrics = {
        "serve.answer_batch.self_ms": median(st("serve.answer_batch").self_s, 1e3),
        "serve.cache_key.ms": busy_p50("serve.cache_key"),
        "serve.pools_per_request": st("serve.pool_create").calls / requests,
        "serve.pool_shutdown_ms": busy_p50("serve.pool_shutdown"),
        "serve.worker_setup_ms": median(t1.worker_setup_s, 1e3),
        "serve.shard_retries": retries,
        "serve.degraded": degraded,
        "serve.samples_per_query": t1.samples / answered if answered else None,
        "cache.lookups": t1.lookups,
        "cache.hit_ratio": t1.hits / t1.lookups if t1.lookups else None,
        "cache.evictions": t1.evictions,
        "cache.get_ms": busy_p50("cache.get"),
        "cache.put_ms": busy_p50("cache.put"),
        "cache.fingerprint_ms": busy_p50("cache.fingerprint", source=setup_an.calls),
        "core.run_pipeline.calls": st("core.run_pipeline").calls,
        "core.run_pipeline.ms": busy_p50("core.run_pipeline"),
        "core.simplify.ms": busy_p50("core.simplify"),
        "core.convert_greedy.ms": busy_p50("core.convert_greedy"),
        "core.answers_from.us_per_answer": per_unit("core.answers_from", 1e6),
        "reproducible.quantiles.ms": busy_p50("reproducible.quantiles"),
        "access.alias_builds_per_request": st("access.alias_build").calls / requests,
        "access.alias_build_ms": median(alias_all, 1e3),
        "access.sample_block.ms": busy_p50("access.sample_block"),
        "access.sample_block.draws": st("access.sample_block").size,
        "access.query_block.us_per_item": per_unit("access.query_block", 1e6),
        "shm.store_create_s": busy_p50("shm.store_create", 1.0, source=setup_an.calls),
        "shm.store_mb": store["store"]["nbytes"] / 2**20 if store.get("store") else None,
        "shm.worker_private_mb": median(t1.worker_private_kb, 1 / 1024),
        "driver.queue_wait_p99_ms": pctl(untraced.result.queue_wait, 99),
        "driver.lateness_p99_ms": pctl(untraced.result.lateness, 99),
        "trace.overhead_frac": pctl(traced_lat, 50, 1.0) / pctl(latencies(untraced), 50, 1.0) - 1.0,
    }

    def exact(p: Pass, spans_of: spanlib.Analysis | None) -> dict:
        out = {"samples": p.samples, "cache.lookups": p.lookups}
        if spans_of is not None:
            out["core.run_pipeline.calls"] = spans_of.calls.get("core.run_pipeline", empty).calls
            out["access.alias_builds"] = spans_of.calls.get("access.alias_build", empty).calls
        return out

    counts = [exact(untraced, None), exact(t1, an), exact(t2, spanlib.analyse(t2.spans))]
    mismatches = [
        f"{key}: {counts[1][key]} vs {other[key]}"
        for other in (counts[0], counts[2])
        for key in other
        if other[key] != counts[1][key]
    ]
    return metrics, an, mismatches


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    def number(v):
        # An idle layer reports 0; a latency percentile over failed requests is inf.
        return 0.0 if v is None else float(v) if math.isfinite(v) else 1e12

    payload = {
        name: {"value": number(v), "unit": units[name]} for name, v in metrics.items()
    }
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": payload,
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="LCA-KP service benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help=f"n={workloads.TINY_N} and two set-ups, for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core.parameters import LCAParameters
    from repro.knapsack.generators import generate

    wl = workloads.WORKLOADS[args.workload]
    n = workloads.TINY_N if args.tiny else wl.n
    callers = CALLERS
    traced = args.trace == 1
    open_s = args.seconds / 3 if traced else args.seconds * OPEN_SHARE
    closed_s = 0.0 if traced else args.seconds - open_s
    inputs = workloads.make_inputs(
        wl, args.seed, open_s, int(4 * wl.rate * closed_s) + 256, n
    )
    instance = generate(wl.family, n, seed=inputs.instance_seed)
    params = (
        LCAParameters.calibrated(workloads.EPSILON, max_nrq=4000, max_m_large=4000)
        if wl.capped
        else None
    )
    context = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "n": n, "family": wl.family, "batch": wl.batch,
        "offered_rps": wl.rate, "open_requests": len(inputs.due), "callers": callers,
        "nproc": nproc(), "cpu": _first_field("/proc/cpuinfo", "model name"),
        "memory": _first_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": git_commit(),
    }
    tracer = spanlib.Tracer() if traced else None
    run = ServiceRun(wl, inputs, instance, params, callers, tracer)
    try:
        with tracer.installed() if traced else nullcontext():
            setup_times = run.setup(2 if args.tiny else SETUP_REPEATS)
        setup_spans = tracer.take() if traced else []
        run.warm_load(0.2 if args.tiny else WARM_S)
        if traced:
            passes = [run.measure(t, open_s)[0][0] for t in (False, True, True)]
            closed = []
        else:
            slices, closed = run.measure(False, open_s, ROUNDS, closed_s)
            passes = [merge(slices)]
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checked = [(inputs.open_requests, dict(enumerate(p.result.outcomes))) for p in passes]
        checked += [(inputs.closed_requests, outcomes) for _, outcomes in closed]
        wrong = run.wrong_answers(checked, args.seed)
        if traced:
            metrics, analysis, mismatches = layer_metrics(run, setup_spans, *passes)
    finally:
        run.close()

    attempted = failed = 0
    for p in passes:
        answered, bad, degraded, _ = tally(p.result.outcomes, wl.batch)
        attempted += answered + bad
        failed += bad + degraded
    rates = []
    for elapsed, outcomes in closed:
        answered, bad, degraded, _ = tally(outcomes.values(), wl.batch)
        rates.append(answered / elapsed)
        attempted += answered + bad
        failed += bad + degraded
    failed += wrong
    first = passes[0]
    open_answered = tally(first.result.outcomes, wl.batch)[0]
    lat = latencies(first)
    print(f"workload {wl.name}: {wl.why}")
    print("context " + json.dumps(context))
    print(f"wrong answers       {wrong}")
    print(f"error_frac          {failed / attempted:.6g} ratio ({failed} of {attempted} item-queries)")
    print(f"samples_per_query   {first.samples / max(1, open_answered):.6g} count")
    print(f"driver.lateness_p99_ms   {pctl(first.result.lateness, 99):.4f} ms")
    print(f"driver.queue_wait_p99_ms {pctl(first.result.queue_wait, 99):.4f} ms")
    if traced:
        failed += len(mismatches) + analysis.violations
        for line in mismatches:
            print(f"exact-count mismatch: {line}")
        print(
            f"span arithmetic: {analysis.requests} requests, {analysis.violations} "
            f"violations, max residual {analysis.max_residual_s:.3g} s, "
            f"parallel overlap {analysis.parallel_s:.4g} s"
        )
        print(f"cache.hit_ratio base: {passes[1].lookups} lookups")
        print(f"{'call':28} {'calls':>8} {'p50_ms':>10} {'total_ms':>10} {'self_ms':>10} {'failed':>6}")
        for name, s in sorted(analysis.calls.items()):
            print(
                f"{name:28} {s.calls:8d} {median(s.busy, 1e3):10.4f} "
                f"{sum(s.busy) * 1e3:10.2f} {sum(s.self_s) * 1e3:10.2f} {s.failures:6d}"
            )
        for name, unit in PER_LAYER.items():
            value = metrics[name]
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{name:34} {shown} {unit}")
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json"
        out.write_text(json.dumps({
            "context": context,
            "fields": ["id", "parent", "name", "start", "end", "request", "thread", "failed", "size"],
            "setup": setup_spans,
            "traced_pass": passes[1].spans,
        }))
        print(f"spans written to {out.relative_to(ROOT)}")
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": median(setup_times),
            "p50_ms": median([pctl(latencies(p), 50) for p in slices if len(p.result.due)]),
            "rss_mb": rss_mb,
        }
        notes = {
            "setup_s": f"median of {len(setup_times)} set-ups",
            "p50_ms": f"median over {len(slices)} open-loop slices of {len(lat)} requests",
            "rss_mb": "peak",
        }
        for name, unit in END_TO_END.items():
            print(f"{name:19} {metrics[name]:.6g} {unit}  ({notes[name]})")
        print(
            f"throughput_qps      {median(rates):.6g} item-queries/s  (median of "
            f"{len(rates)} closed-loop slices, {callers} caller, printed only)"
        )
        print(f"p99_ms              {pctl(lat, 99):.6g} ms  ({len(lat)} requests, printed only)")
        units = END_TO_END
    correct = failed == 0
    emit(correct, attempted, failed, metrics, units)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
