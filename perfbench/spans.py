"""In-memory spans around the repo's public callables, installed from outside.

:meth:`Tracer.installed` replaces each traced callable where its caller
looks it up (a class attribute, or a name in ``repro.serve.service``)
and restores the originals on exit, so untraced passes run the
unmodified program.  Each call keeps one span in memory:
``(id, parent, name, start, end, request, thread, failed, size)``.
Thread-pool shards inherit the submitting thread's request and span, so
their spans nest under the ``answer_batch`` that fanned them out.
Forked process-pool workers inherit the patches but record nothing.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

ID, PARENT, NAME, START, END, REQ, THREAD, FAILED, SIZE = range(9)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()
        self._request_span = self.wrap("driver.request", lambda fn: fn())

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.req = None
        return local

    def wrap(self, name: str, fn, size=None):
        """``fn`` recording one span per call; ``size(args)`` counts its work."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            local = tracer._state()
            stack = local.stack
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            failed = True
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((
                    sid, parent, name, t0, t1, local.req, threading.get_ident(),
                    failed, size(args) if size is not None else 0,
                ))

        return traced

    def request(self, req: int, fn):
        """Run ``fn()`` as the root span of request ``req``."""
        local = self._state()
        local.req = req
        try:
            return self._request_span(fn)
        finally:
            local.req = None

    def adopting(self, fn):
        """``fn`` run under the calling thread's current request and span."""
        local = self._state()
        req = local.req
        stack = local.stack[-1:]

        def run(*args, **kwargs):
            state = self._state()
            saved = state.req, state.stack
            state.req, state.stack = req, list(stack)
            try:
                return fn(*args, **kwargs)
            finally:
                state.req, state.stack = saved

        return run

    def take(self) -> list[tuple]:
        spans, self.spans = self.spans, []
        return spans

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, replace in _targets(self):
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, replace(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _traced_pool(tracer: Tracer, base, thread: bool):
    class TracedPool(base):
        __init__ = tracer.wrap("serve.pool_create", base.__init__)
        shutdown = tracer.wrap("serve.pool_shutdown", base.shutdown)
        if thread:
            def submit(self, fn, /, *args, **kwargs):
                return base.submit(self, tracer.adopting(fn), *args, **kwargs)
        else:
            submit = tracer.wrap("serve.shard_submit", base.submit)

    TracedPool.__name__ = base.__name__
    return TracedPool


def _targets(tracer: Tracer):
    """``(owner, attribute, replace(original) -> traced)`` per traced call."""
    from repro.access.oracle import QueryOracle
    from repro.access.weighted_sampler import AliasTable, WeightedSampler
    from repro.core import lca_kp
    from repro.knapsack.shm import SharedInstanceStore
    from repro.reproducible.rquantile import ReproducibleQuantileEstimator
    from repro.serve import service
    from repro.serve.cache import PipelineCache

    def call(name, size=None):
        return lambda fn: tracer.wrap(name, fn, size)

    def classmethod_call(name):
        return lambda raw: classmethod(tracer.wrap(name, raw.__func__))

    return [
        (service.KnapsackService, "answer_batch", call("serve.answer_batch")),
        (service.KnapsackService, "cache_key", call("serve.cache_key")),
        (service, "ThreadPoolExecutor", lambda b: _traced_pool(tracer, b, True)),
        (service, "ProcessPoolExecutor", lambda b: _traced_pool(tracer, b, False)),
        (service, "wait", call("serve.shard_wait")),
        (service, "instance_fingerprint", call("cache.fingerprint")),
        (PipelineCache, "get", call("cache.get")),
        (PipelineCache, "put", call("cache.put")),
        (lca_kp.LCAKP, "run_pipeline", call("core.run_pipeline")),
        (lca_kp, "build_simplified_instance", call("core.simplify")),
        (lca_kp, "convert_greedy", call("core.convert_greedy")),
        (lca_kp.LCAKP, "answers_from", call("core.answers_from", lambda a: len(a[2]))),
        (ReproducibleQuantileEstimator, "quantiles", call("reproducible.quantiles")),
        (AliasTable, "__init__", call("access.alias_build")),
        (WeightedSampler, "sample_block", call("access.sample_block", lambda a: int(a[1]))),
        (QueryOracle, "query_block", call("access.query_block", lambda a: len(a[1]))),
        (SharedInstanceStore, "create", classmethod_call("shm.store_create")),
    ]


@dataclass
class CallStats:
    calls: int = 0
    failures: int = 0
    size: int = 0
    busy: list = field(default_factory=list)
    self_s: list = field(default_factory=list)


def _union(intervals) -> float:
    total = 0.0
    lo = hi = None
    for a, b in sorted(intervals):
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        total += hi - lo
    return total


@dataclass
class Analysis:
    calls: dict  # span name -> CallStats
    requests: int  # driver.request roots checked
    violations: int  # roots whose tree does not tile its duration
    max_residual_s: float
    parallel_s: float  # time counted twice because thread shards overlap


def analyse(spans: list[tuple]) -> Analysis:
    """Per-call stats, self times and the span arithmetic check.

    A span's self time is its duration minus the union of its children's
    intervals, clipped to the span.  Over one request's tree the self
    times then sum to the root's duration plus the overlap of parallel
    siblings.  A child that sticks out of its parent breaks that sum and
    counts as a violation.
    """
    kids = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            kids[s[PARENT]].append(s)
    own: dict[int, float] = {}
    overlap: dict[int, float] = {}
    calls: dict[str, CallStats] = defaultdict(CallStats)
    for s in spans:
        clipped = [
            (max(c[START], s[START]), min(c[END], s[END])) for c in kids.get(s[ID], ())
        ]
        clipped = [(a, b) for a, b in clipped if b > a]
        covered = _union(clipped)
        own[s[ID]] = (s[END] - s[START]) - covered
        overlap[s[ID]] = sum(b - a for a, b in clipped) - covered
        st = calls[s[NAME]]
        st.calls += 1
        st.failures += int(s[FAILED])
        st.size += s[SIZE]
        st.busy.append(s[END] - s[START])
        st.self_s.append(own[s[ID]])
    requests = violations = 0
    worst = parallel = 0.0
    for root in spans:
        if root[NAME] != "driver.request":
            continue
        requests += 1
        tree, todo = [], [root]
        while todo:
            s = todo.pop()
            tree.append(s)
            todo.extend(kids.get(s[ID], ()))
        extra = sum(overlap[s[ID]] for s in tree)
        residual = abs(sum(own[s[ID]] for s in tree) - extra - (root[END] - root[START]))
        parallel += extra
        worst = max(worst, residual)
        violations += int(residual > 1e-9 * len(tree))
    return Analysis(dict(calls), requests, violations, worst, parallel)
