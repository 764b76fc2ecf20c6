"""`KnapsackService`: the high-throughput LCA-KP query engine.

The LCA model promises that any number of stateless runs over one
``(instance, seed)`` pair describe a single solution C.  The serving
layer exploits the contrapositive: since a run is a *deterministic*
function of ``(instance, seed, nonce, params)``, distinct queries that
agree on that tuple may legally share one run — the answers are
identical either way, only the sample bill changes.  The engine stacks
three such amortizations, none of which touches the output law:

* **memoization** — pipeline results live in a seed/nonce-keyed LRU
  (:class:`~repro.serve.cache.PipelineCache`); a cache hit answers a
  query with one point query and zero weighted samples;
* **vectorization** — batches are answered through
  :meth:`~repro.core.LCAKP.answers_from`, which applies the decision
  rule as one numpy pass over the batch's index/profit/weight arrays;
* **parallelism** — large batches are sharded across a
  ``concurrent.futures`` thread or process pool; shard ``w`` of a batch
  with base nonce ``b`` runs under the *derived* nonce
  ``derive_worker_nonce(seed, b, w)``, so the shards are exactly N
  independent LCA runs sharing the read-only seed r (what a suite
  ``fleet`` cell audits), and every shard's answers can be replayed
  serially from its recorded nonce.

On top of the amortizations sits the **resilience layer** (see
``docs/robustness.md``): the service can treat oracle access as an
unreliable resource (:class:`~repro.faults.FaultPlan` wraps its access
objects in fault injectors), recover transient probe failures with a
budget-honest :class:`~repro.faults.RetryPolicy`, requeue
process-pool shards whose workers die or stall, and — when ``strict=False`` —
answer through the reason-coded degradation ladder
(:class:`~repro.serve.degraded.DegradedAnswer`) instead of raising when
the budget runs dry or faults persist past retry.

From the caller's perspective each non-degraded answer is still a
stateless Definition 2.2 run — see ``docs/serving.md`` for why the
cache does not constitute forbidden cross-run state.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from ..access.beside import beside
from ..access.oracle import QueryOracle
from ..access.seeds import SeedChain, fresh_nonce
from ..access.weighted_sampler import WeightedSampler
from ..core.lca_kp import LCAKP, LCAAnswer, PipelineResult
from ..core.parameters import LCAParameters
from ..errors import (
    DeadlineExceededError,
    FaultInjectionError,
    QueryBudgetExceededError,
    ReproError,
    ShardFailureError,
    WatchdogTimeoutError,
)
from ..faults.audit import ProbeAuditor
from ..faults.injectors import FaultyAccess
from ..faults.plan import FaultPlan
from ..faults.retry import RetryingAccess, RetryPolicy
from ..knapsack.instance import KnapsackInstance
from ..knapsack.shm import (
    SharedInstanceHandle,
    SharedInstanceStore,
    attach_cached,
    process_memory,
)
from ..obs import runtime as _obs
from ..obs.trace import span_from_payload, span_to_payload
from .cache import CacheKey, PipelineCache, instance_fingerprint
from .degraded import DegradedAnswer, GreedyFallback, degraded_answers

__all__ = ["BatchReport", "KnapsackService", "derive_worker_nonce"]

#: Failures the degradation ladder absorbs; anything else is a bug and
#: propagates regardless of strictness.
_DEGRADABLE = (QueryBudgetExceededError, FaultInjectionError)


def derive_worker_nonce(seed: SeedChain, base_nonce: int, worker: int) -> int:
    """Deterministic fresh-randomness nonce for one parallel shard.

    Derived through the seed chain so that (a) every worker draws
    independent samples (distinct label paths), (b) the derivation is
    reproducible from ``(seed, base_nonce, worker)`` alone — a parallel
    batch can be replayed shard by shard with plain serial
    :meth:`~repro.core.LCAKP.answer` calls.
    """
    node = seed.child("__serve__").child(int(base_nonce)).child(int(worker))
    return int.from_bytes(node.digest()[:8], "big")


@dataclass(frozen=True)
class _StackSpec:
    """Everything but the instance that shapes one access stack (picklable:
    process shards build theirs from the same spec as the parent)."""

    epsilon: float
    seed: SeedChain
    params: LCAParameters | None
    tie_breaking: bool
    large_item_mode: str
    plan: FaultPlan | None
    policy: RetryPolicy | None
    audit_bounds: tuple[float, float] | None


def _access_stack(instance, sampler, spec: _StackSpec, labels: tuple, audit=None):
    """Wrap one raw sampler and a fresh oracle into ``(sampler, oracle,
    lca)``: fault injectors keyed by ``labels``, then retries carrying
    ``audit``.  Everything built here is O(1) in n; the sampler's alias
    table is shared read-only."""
    oracle = QueryOracle(instance)
    plan, policy = spec.plan, spec.policy
    timeout = policy.probe_timeout_s if policy is not None else None
    if plan is not None:
        sampler = FaultyAccess(
            sampler, plan.stream(*labels, "sampler"), timeout_s=timeout
        )
        oracle = FaultyAccess(
            oracle, plan.stream(*labels, "oracle"), timeout_s=timeout
        )
    if policy is not None:
        sampler = RetryingAccess(sampler, policy, audit=audit)
        oracle = RetryingAccess(oracle, policy, audit=audit)
    lca = LCAKP(
        sampler,
        oracle,
        spec.epsilon,
        spec.seed,
        params=spec.params,
        tie_breaking=spec.tie_breaking,
        large_item_mode=spec.large_item_mode,
    )
    return sampler, oracle, lca


def _both(sampler, oracle, name: str):
    """``name`` summed over an access pair (0 where neither layer has it)."""
    return getattr(sampler, name, 0) + getattr(oracle, name, 0)


def _bill(sampler, oracle) -> tuple:
    """``(samples, queries, blocks, retries, hedges, hedge_latency_saved_s)``
    of one access pair (retry fields are zero without a retry policy)."""
    return (
        sampler.cost_counter,
        oracle.cost_counter,
        getattr(sampler, "blocks_used", 0),
        *(
            _both(sampler, oracle, name)
            for name in ("retries_used", "hedges_used", "hedge_latency_saved_s")
        ),
    )


#: The bill of a shard that never reached a worker's access stack.
_NO_BILL = (0, 0, 0, 0, 0, 0.0)


class _ShardOutcome(NamedTuple):
    """One shard's answers and :func:`_bill`, whichever executor served
    it (picklable: process workers ship theirs home).  ``pipeline`` is
    the run the parent may cache: set only when the shard ran it and
    answered without degrading."""

    answers: list
    bill: tuple
    degraded: int = 0
    hit: bool = False
    pipeline: PipelineResult | None = None


def _layer(access, kind):
    """The ``kind`` layer of a wrapped access object (``None`` if absent)."""
    while access is not None and not isinstance(access, kind):
        access = getattr(access, "inner", None)
    return access


def _answer_shard(
    instance, sampler, spec: _StackSpec, shard, nonce: int, strict: bool, *,
    attempt: int = 0, audit=None, pipeline=None, degrade=None,
) -> tuple:
    """Answer one shard on either side of the process boundary; returns
    ``(outcome, span)``.

    Wraps the raw ``sampler`` in the shard's own access stack (its own
    bill, fault coins keyed ``("shard", nonce, attempt)``), answers from
    ``pipeline`` — a cache hit the parent looked up — or from a run of
    its own, and bills the stack.  A degradable failure raises under
    ``strict``; otherwise ``degrade(shard, exc)`` answers the shard (the
    parent's ladder), or the greedy rung where there is no ``degrade``
    (a pool worker holds no cache).  ``span`` is the shard's
    ``serve.shard`` span (``None`` when untraced).
    """
    sampler, oracle, lca = _access_stack(
        instance, sampler, spec, ("shard", nonce, attempt), audit=audit
    )
    hit = pipeline is not None
    degraded = 0
    with _obs.span("serve.shard") as span:
        try:
            if not hit:
                pipeline = lca.run_pipeline(nonce=nonce)
            answers = lca.answers_from(pipeline, shard)
        except _DEGRADABLE as exc:
            if strict:
                raise
            # A pool worker holds no cache: its ladder starts at greedy.
            answers = (degrade or GreedyFallback(instance).degrade)(shard, exc)
            degraded = len(shard)
    fresh = None if hit or degraded else pipeline
    return _ShardOutcome(answers, _bill(sampler, oracle), degraded, hit, fresh), span


def _serve_chunk(payload) -> tuple:
    """Process-pool entry: answer one shard the parent's cache missed in
    a long-lived pool worker; returns ``(outcome, obs)``.

    The worker keeps no serving state between chunks (no pipeline or
    sampler outlives the chunk that built it): it rebuilds the access
    objects from the payload and answers through :func:`_answer_shard`,
    exactly as a parent-side shard does.  ``outcome.pipeline`` travels
    home only when the payload asks for it (the service has a cache).
    ``obs`` is the chunk's full observability state — its registry
    (mergeable histogram buckets, not quantile summaries), its finished
    ``serve.shard`` span tree (when the parent propagated a trace
    context), its flight-recorder events and drop count, and its
    timeline ticks — so the parent can fold the shard's telemetry in
    exactly, not just its cost totals.

    The worker resets the global runtime first: a forked worker inherits
    the parent's counter values, open span stack and recorded events,
    and a worker that served earlier chunks still holds theirs; either
    would double-count if shipped home.  Which telemetry the chunk
    records is decided by the payload, never by what the worker
    inherited at fork time: the tracer is on exactly when a trace
    context arrives, and a timeline sampler is built from the shipped
    config exactly when the parent has one active.

    Under a plan with ``shard_kill_rate`` the child may deterministically
    kill itself *before* doing any work (``os._exit`` => the parent sees
    ``BrokenProcessPool`` — real worker death, not an exception), which
    is how the requeue path is exercised end to end.

    The payload is ``(instance, spec, nonce, indices, attempt, strict,
    trace_ctx, timeline, ship_pipeline)``.  Slot 0 is either the pickled
    instance (O(n) per shard) or a :class:`SharedInstanceHandle` (the
    worker attaches zero-copy views once, through the per-process attach
    cache, and re-wraps the segment's prebuilt alias table — O(1) per
    shard in n).  The attach — including its digest verification, which
    happens *before* any access object exists, so no query is ever
    billed against a wrong segment — runs before
    ``reset_worker_runtime`` so the worker's shipped-home registry is
    identical between the two paths; the parent-facing setup/memory
    measurements travel in dedicated ``obs`` keys instead.
    """
    (
        instance, spec, nonce, indices, attempt, strict, trace_ctx, timeline,
        ship_pipeline,
    ) = payload
    plan = spec.plan
    if plan is not None and plan.shard_kill(nonce, attempt):
        os._exit(17)
    if plan is not None:
        # A stalled shard is alive but not progressing: it sleeps through
        # its deadline and the parent's watchdog requeues it.
        stall = plan.shard_stall(nonce, attempt)
        if stall > 0.0:
            time.sleep(stall)
    shared_store = None
    setup_start = time.perf_counter()
    if isinstance(instance, SharedInstanceHandle):
        shared_store = attach_cached(instance)
        instance = shared_store.instance
    _obs.reset_worker_runtime(timeline)
    if trace_ctx is not None:
        _obs.TRACER.enable()
        _obs.TRACER.adopt(*trace_ctx)
    audit = ProbeAuditor(*spec.audit_bounds) if spec.audit_bounds else None
    if shared_store is not None:
        sampler = shared_store.sampler()
    else:
        sampler = WeightedSampler(instance)
    setup_s = time.perf_counter() - setup_start
    outcome, _ = _answer_shard(
        instance, sampler, spec, indices, nonce, strict,
        attempt=attempt, audit=audit,
    )
    root = _obs.TRACER.last_root() if trace_ctx is not None else None
    obs_state = {
        "registry": _obs.REGISTRY.state(),
        "trace": span_to_payload(root) if root is not None else None,
        "events": [e.to_dict() for e in _obs.RECORDER.events()],
        "dropped_events": _obs.RECORDER.dropped,
        # Shard-local timeline ticks (None unless the payload shipped
        # the parent's active sampler config).
        "timeline": _obs.timeline_state(),
        # Parent-facing scale telemetry (not part of the merged registry,
        # so thread-vs-process registry parity is unaffected).
        "setup_s": setup_s,
        "memory": process_memory(),
        "shared": shared_store is not None,
    }
    return outcome if ship_pipeline else outcome._replace(pipeline=None), obs_state


@dataclass(frozen=True)
class BatchReport:
    """Outcome and bill of one served batch.

    ``degraded`` counts answers served off the degradation ladder
    (always 0 under ``strict=True``); ``stale_served`` counts the subset
    of those the cache rung answered off a pipeline at least one batch
    stale; ``shard_retries`` counts process-pool shard requeues after
    a worker died or stalled; ``probe_retries`` counts budget-charged re-probes the retry policy
    performed on the batch's behalf.
    """

    answers: tuple[LCAAnswer, ...]
    mode: str  # "serial", "thread", "process" or "shed"
    workers: int
    cache_hits: int
    cache_misses: int
    pipelines_run: int
    samples_spent: int
    queries_spent: int
    wall_clock_s: float
    degraded: int = 0
    probe_retries: int = 0
    shard_retries: int = 0
    stale_served: int = 0

    @property
    def queries_per_sec(self) -> float:
        """Answered queries per wall-clock second (0.0 on a zero-time run)."""
        if self.wall_clock_s <= 0.0:
            return 0.0
        return len(self.answers) / self.wall_clock_s

    @property
    def availability(self) -> float:
        """Fraction of the batch answered non-degraded."""
        if not self.answers:
            return 0.0
        return 1.0 - self.degraded / len(self.answers)

    def to_dict(self) -> dict:
        """JSON-ready summary (answers are counted, not dumped)."""
        return {
            "queries": len(self.answers),
            "mode": self.mode,
            "workers": self.workers,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "pipelines_run": self.pipelines_run,
            "samples_spent": self.samples_spent,
            "queries_spent": self.queries_spent,
            "wall_clock_s": self.wall_clock_s,
            "queries_per_sec": self.queries_per_sec,
            "degraded": self.degraded,
            "availability": self.availability,
            "probe_retries": self.probe_retries,
            "shard_retries": self.shard_retries,
            "stale_served": self.stale_served,
        }


class KnapsackService:
    """Cache-accelerated, batch-capable front end to one LCA-KP config.

    Parameters
    ----------
    instance, epsilon, seed, params, tie_breaking, large_item_mode:
        Forwarded to the underlying :class:`~repro.core.LCAKP`.
    cache:
        ``None`` (default) builds a private
        :class:`~repro.serve.cache.PipelineCache` of ``cache_capacity``
        entries; pass an existing cache to share it between services
        (keys embed the instance fingerprint, so sharing is safe); pass
        ``False`` to disable memoization entirely.
    cache_capacity:
        Size of the private cache when ``cache`` is ``None``.
    executor:
        ``"thread"`` (default) or ``"process"`` — how parallel batches
        run.  Either way every shard is answered by one function, and
        the parent looks every shard's nonce up in the cache before any
        shard is answered, then caches each pipeline whose shard
        answered without degrading: the executors answer, bill and cache
        a batch alike.  Thread shards, hits included, run on the thread
        pool.  A process batch answers its hits in the parent and sends
        only misses to a worker, which ships its pipeline home along
        with its answers.  Either way the shards run on one
        long-lived pool per service, built on the first sharded batch
        that needs it and shut down by :meth:`close`; a service that has
        dispatched shards holds live workers until it is closed (or used
        as a context manager).
    fault_plan:
        Optional :class:`~repro.faults.FaultPlan`; wraps every access
        object (the service's own and each shard's) in deterministic
        fault injectors.  ``None`` (default) injects nothing.
    retry_policy:
        Optional :class:`~repro.faults.RetryPolicy`; retries transient
        probe faults, re-charging the budget per re-probe.
    strict:
        ``True`` (default) preserves the historical raise-on-failure
        behavior exactly.  ``False`` absorbs budget exhaustion and
        unrecovered faults into reason-coded
        :class:`~repro.serve.degraded.DegradedAnswer` objects instead of
        raising.  Overridable per call.
    max_shard_retries:
        Times a process-pool shard is requeued after worker death before
        the batch gives up on it (raise under strict, degrade otherwise).
    max_staleness:
        Bound (in served batches) on how stale a memoized pipeline the
        degradation ladder's cache rung may answer from; ``None``
        (default) keeps the historical any-age behavior.  An entry older
        than this falls through to the greedy rung.
    probe_audit:
        When true, every delivered probe response passes a
        :class:`~repro.faults.ProbeAuditor` plausibility check (bounds
        taken from the parameters' efficiency domain); an implausible
        delivery raises a retryable
        :class:`~repro.errors.CorruptProbeError` instead of being
        trusted.  Requires ``retry_policy`` — detection without recovery
        would just turn corruption into an outage.
    shared_instance:
        When truthy, process-pool shards receive an O(1)
        :class:`~repro.knapsack.shm.SharedInstanceHandle` instead of the
        pickled instance and attach zero-copy views of one shared
        segment (columns plus a prebuilt alias table), making per-shard
        setup independent of n.  ``True`` creates the segment at
        construction (process executor only: thread shards share the
        parent's memory and never need one), copying in the service's
        own alias table rather than building a second one; pass an
        existing
        :class:`~repro.knapsack.shm.SharedInstanceStore` to share one
        segment between services (the caller keeps unlink ownership).
        Answers, probe bills and per-phase obs totals are bit-identical
        to the pickled path.  Call :meth:`close` (or use the service as
        a context manager) to unlink the service's own segment.
    shard_deadline_s:
        Optional stuck-shard watchdog deadline (seconds) on process-pool
        shard futures, measured from submission.  A shard that neither
        finishes nor dies within the deadline is abandoned as a
        :class:`~repro.errors.WatchdogTimeoutError` and requeued through
        the existing worker-death path; the wedged pool's workers are
        terminated and the pool replaced, so their shared-memory
        attachments release (the parent keeps unlink ownership — no
        segment leaks).
    """

    def __init__(
        self,
        instance,
        epsilon: float,
        seed: int | SeedChain = 0,
        *,
        params: LCAParameters | None = None,
        tie_breaking: bool = False,
        large_item_mode: str = "coupon",
        cache: PipelineCache | bool | None = None,
        cache_capacity: int = 64,
        executor: str = "thread",
        fault_plan: FaultPlan | None = None,
        retry_policy: RetryPolicy | None = None,
        strict: bool = True,
        max_shard_retries: int = 2,
        max_staleness: int | None = None,
        probe_audit: bool = False,
        shared_instance: bool | SharedInstanceStore = False,
        shard_deadline_s: float | None = None,
    ) -> None:
        if executor not in ("thread", "process"):
            raise ReproError(f"executor must be 'thread' or 'process', got {executor!r}")
        if shard_deadline_s is not None and shard_deadline_s <= 0:
            raise ReproError(
                f"shard_deadline_s must be > 0, got {shard_deadline_s}"
            )
        if shared_instance and not isinstance(instance, KnapsackInstance):
            raise ReproError(
                "shared_instance requires an explicit KnapsackInstance "
                "(implicit instances have no columns to share)"
            )
        if max_shard_retries < 0:
            raise ReproError(f"max_shard_retries must be >= 0, got {max_shard_retries}")
        if max_staleness is not None and max_staleness < 0:
            raise ReproError(f"max_staleness must be >= 0, got {max_staleness}")
        if probe_audit and retry_policy is None:
            raise ReproError(
                "probe_audit requires a retry_policy: a detected corruption "
                "is recovered by re-probing, not by raising"
            )
        self._instance = instance
        if isinstance(shared_instance, SharedInstanceStore):
            self._store: SharedInstanceStore | None = shared_instance
            self._shared = True
            self._owns_store = False
        else:
            self._store = None
            self._shared = bool(shared_instance)
            self._owns_store = True
        self._worker_setup_s: list[float] = []
        self._worker_memory: list[dict] = []
        # kind ("thread" or "process") -> (pool, size):
        # one long-lived pool per kind, built on first use, grown to the
        # largest shard count seen, replaced only when it breaks.  The
        # lock lets concurrent callers share one pool (and one segment).
        self._pools: dict[str, tuple] = {}
        self._lock = threading.Lock()
        self._executor_kind = executor
        self._strict = bool(strict)
        self._max_shard_retries = int(max_shard_retries)
        self._shard_deadline_s = (
            None if shard_deadline_s is None else float(shard_deadline_s)
        )
        self._deadline_shed = 0
        self._watchdog_timeouts = 0
        self._max_staleness = None if max_staleness is None else int(max_staleness)
        audit_bounds: tuple[float, float] | None = None
        if probe_audit:
            dom = params.domain if params is not None else None
            audit_bounds = (
                (float(dom.lo), float(dom.hi)) if dom is not None else (1e-12, 1e12)
            )
        self._audit = ProbeAuditor(*audit_bounds) if audit_bounds else None
        # The one O(n) access build of the service: every stack below —
        # its own, each thread shard's, and the shared-memory segment —
        # draws from this alias table, read-only.  The cache fingerprint
        # hashes the columns beside it (both release the GIL).
        raw_sampler, fingerprint = beside(
            lambda: WeightedSampler(instance),
            lambda: instance_fingerprint(instance),
            instance.n,
        )
        self._table = raw_sampler.table
        spec = _StackSpec(
            epsilon=float(epsilon),
            seed=seed if isinstance(seed, SeedChain) else SeedChain(seed),
            params=params,
            tie_breaking=bool(tie_breaking),
            large_item_mode=large_item_mode,
            plan=fault_plan,
            policy=retry_policy,
            audit_bounds=audit_bounds,
        )
        self._sampler, self._oracle, self._lca = _access_stack(
            instance, raw_sampler, spec, ("serve",), audit=self._audit
        )
        # Shards reuse the resolved parameters instead of re-calibrating.
        self._spec = replace(spec, params=self._lca.params)
        if self._shared and executor == "process":
            self._ensure_store()
        self._faulty_sampler = _layer(self._sampler, FaultyAccess)
        self._faulty_oracle = _layer(self._oracle, FaultyAccess)
        if cache is False:
            self._cache: PipelineCache | None = None
        elif cache is None or cache is True:
            self._cache = PipelineCache(capacity=cache_capacity)
        else:
            self._cache = cache
        # The nonce-free part of every cache key, derived once: a lookup
        # only attaches its nonce (see cache_key).
        self._config_key = CacheKey.derive(
            fingerprint=fingerprint,
            seed=self._spec.seed,
            nonce=0,
            params=self._lca.params,
            tie_breaking=self._spec.tie_breaking,
            large_item_mode=self._spec.large_item_mode,
        )
        self._fallback: GreedyFallback | None = None
        self._extra_samples = 0  # spent by parallel shards, not self._sampler
        self._extra_queries = 0
        self._extra_blocks = 0
        self._extra_retries = 0
        self._extra_hedges = 0
        self._extra_hedge_saved_s = 0.0
        self._degraded_total = 0
        self._requests = _obs.REGISTRY.counter("serve.requests")
        self._batch_size = _obs.REGISTRY.histogram("serve.batch_size")
        self._batch_latency = _obs.REGISTRY.histogram("serve.batch_latency_s")

    # ------------------------------------------------------------------
    # Configuration and accounting faces
    # ------------------------------------------------------------------
    @property
    def epsilon(self) -> float:
        """The accuracy parameter."""
        return self._spec.epsilon

    @property
    def seed(self) -> SeedChain:
        """The shared random string r."""
        return self._spec.seed

    @property
    def instance(self):
        """The knapsack instance (or access-only stand-in) served."""
        return self._instance

    @property
    def params(self) -> LCAParameters:
        """The static LCA parameters in force."""
        return self._lca.params

    @property
    def cache(self) -> PipelineCache | None:
        """The pipeline cache (``None`` when memoization is disabled)."""
        return self._cache

    @property
    def lca(self) -> LCAKP:
        """The underlying algorithm (for audits and fleet harnesses)."""
        return self._lca

    @property
    def fault_plan(self) -> FaultPlan | None:
        """The fault plan in force (``None`` when injection is off)."""
        return self._spec.plan

    @property
    def retry_policy(self) -> RetryPolicy | None:
        """The retry policy in force (``None`` when retries are off)."""
        return self._spec.policy

    @property
    def strict(self) -> bool:
        """Default failure posture: raise (True) or degrade (False)."""
        return self._strict

    @property
    def audit(self) -> ProbeAuditor | None:
        """The probe auditor (``None`` unless ``probe_audit=True``)."""
        return self._audit

    @property
    def max_staleness(self) -> int | None:
        """Staleness bound on the degradation ladder's cache rung."""
        return self._max_staleness

    @property
    def samples_used(self) -> int:
        """Weighted samples spent by this service, including shards."""
        return self._sampler.cost_counter + self._extra_samples

    @property
    def blocks_used(self) -> int:
        """Columnar sample blocks charged by this service, including shards.

        The cold (cache-miss) path draws samples in blocks — see
        :meth:`~repro.access.WeightedSampler.sample_block` — so this
        counts pipeline-phase batches, not draws.  Shard block counts
        (thread and process alike) are folded back in through the shard
        payloads, so the total is exact fleet-wide."""
        return getattr(self._sampler, "blocks_used", 0) + self._extra_blocks

    @property
    def queries_used(self) -> int:
        """Point queries spent by this service, including shards."""
        return self._oracle.cost_counter + self._extra_queries

    @property
    def cost_counter(self) -> int:
        """Uniform CostMeter face: samples plus queries, cumulative."""
        return self.samples_used + self.queries_used

    @property
    def retries_used(self) -> int:
        """Budget-charged re-probes performed, including shards."""
        return self._extra_retries + _both(self._sampler, self._oracle, "retries_used")

    @property
    def probe_hedges_used(self) -> int:
        """Backup probes fired by a hedging retry policy, including shards."""
        return self._extra_hedges + _both(self._sampler, self._oracle, "hedges_used")

    @property
    def hedge_latency_saved_s(self) -> float:
        """Virtual tail latency cut by hedged backups beating slow
        primaries, including shards."""
        return self._extra_hedge_saved_s + _both(
            self._sampler, self._oracle, "hedge_latency_saved_s"
        )

    @property
    def degraded_total(self) -> int:
        """Answers served off the degradation ladder so far."""
        return self._degraded_total

    @property
    def faults_injected(self) -> dict[str, int]:
        """Faults injected into this service's own access objects.

        (Shard subprocess injections are visible in their returned
        bills and the chaos report, not here.)"""
        out = {"probe_failures": 0, "timeouts": 0, "corruptions": 0}
        for injector in (self._faulty_sampler, self._faulty_oracle):
            if injector is None:
                continue
            out["probe_failures"] += injector.probe_failures
            out["timeouts"] += injector.timeouts
            out["corruptions"] += injector.corruptions
        if self._audit is not None:
            out["corruptions_detected"] = self._audit.violations
        return out

    # ------------------------------------------------------------------
    # Pipeline acquisition
    # ------------------------------------------------------------------
    def cache_key(self, nonce: int) -> CacheKey:
        """The full cache key this service derives for ``nonce``."""
        return self._config_key.with_nonce(nonce)

    def pipeline_for(self, nonce: int | None = None) -> tuple[PipelineResult, bool]:
        """Return ``(pipeline, was_cached)`` for ``nonce``.

        ``nonce=None`` draws OS entropy (a guaranteed miss, cached for
        any later caller that learns the nonce from the result).
        """
        resolved = int(nonce) if nonce is not None else fresh_nonce()
        key = self.cache_key(resolved)
        if self._cache is not None:
            cached = self._cache.get(key)
            if cached is not None:
                return cached, True
        pipeline = self._lca.run_pipeline(nonce=resolved)
        if self._cache is not None:
            self._cache.put(key, pipeline)
        return pipeline, False

    # ------------------------------------------------------------------
    # Degradation ladder
    # ------------------------------------------------------------------
    def _resolve_strict(self, strict: bool | None) -> bool:
        return self._strict if strict is None else bool(strict)

    def _note_degraded(self, n: int) -> None:
        self._degraded_total += n
        _obs.record_degraded(n)

    def _raw_attributes(self, idx: list[int]) -> tuple[np.ndarray, np.ndarray]:
        """Item attributes read straight off the instance (outside the
        fault domain — degradation must not itself be degradable)."""
        if isinstance(self._instance, KnapsackInstance):
            arr = np.asarray(idx, dtype=np.int64)
            return self._instance.profits[arr], self._instance.weights[arr]
        profits = np.array([self._instance.profit(int(i)) for i in idx], dtype=float)
        weights = np.array([self._instance.weight(int(i)) for i in idx], dtype=float)
        return profits, weights

    def _degrade(self, idx: list[int], exc: BaseException) -> list[DegradedAnswer]:
        """Serve ``idx`` off the degradation ladder (pure: no counters).

        Rung 1 — a memoized pipeline for this exact configuration (same
        fingerprint/seed/params, any nonce) still encodes a valid
        solution; apply its rule, but only if it is at most
        ``max_staleness`` batches off the warm path (the answer carries
        its staleness age).  Rung 2 — the once-computed greedy fallback
        mask.  Rung 3 (implicit instances) — the trivial empty solution.
        """
        found = (
            self._cache.find_config(self._config_key, max_age=self._max_staleness)
            if self._cache is not None
            else None
        )
        if found is None:
            if self._fallback is None:
                self._fallback = GreedyFallback(self._instance)
            return self._fallback.degrade(idx, exc)
        pipeline, staleness = found
        profits, weights = self._raw_attributes(idx)
        include = pipeline.rule.decide_many(
            profits, weights, np.asarray(idx, dtype=np.int64)
        )
        return degraded_answers(
            idx, exc, [bool(b) for b in include], "cache", staleness
        )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def answer(
        self, index: int, *, nonce: int | None = None, strict: bool | None = None
    ) -> LCAAnswer | DegradedAnswer:
        """Answer one query (memoized pipeline, vectorized rule).

        Under ``strict=False`` (argument or service default) a budget-
        or fault-doomed query returns a reason-coded
        :class:`~repro.serve.degraded.DegradedAnswer` instead of raising.
        """
        with _obs.span("serve.answer"):
            self._requests.inc()
            try:
                pipeline, _ = self.pipeline_for(nonce)
                return self._lca.answers_from(pipeline, [index])[0]
            except _DEGRADABLE as exc:
                if self._resolve_strict(strict):
                    raise
                self._note_degraded(1)
                return self._degrade([index], exc)[0]

    def answer_many(
        self, indices, *, nonce: int | None = None, strict: bool | None = None
    ) -> list[bool]:
        """Protocol face: boolean batch answers via :meth:`answer_batch`."""
        return [
            a.include
            for a in self.answer_batch(indices, nonce=nonce, strict=strict).answers
        ]

    def answer_batch(
        self,
        indices,
        *,
        nonce: int | None = None,
        workers: int | None = None,
        strict: bool | None = None,
        deadline_s: float | None = None,
        clock=None,
    ) -> BatchReport:
        """Answer a batch, optionally sharded across a worker pool.

        ``workers`` <= 1 (default) serves the whole batch from one
        pipeline run (or cache hit).  ``workers`` > 1 splits the batch
        into contiguous shards, each served under its own derived nonce
        by an independent LCA copy — the parallel execution path.
        Process-pool shards whose workers die or stall are requeued;
        queries that cannot be answered the honest way are degraded
        rather than aborted unless ``strict``.

        ``deadline_s`` is the overload governor's admission gate: an
        absolute deadline on ``clock``'s timeline (``time.monotonic``
        when ``clock`` is ``None``).  A batch whose deadline has already
        passed at dispatch is *shed* — no probe is charged, no pipeline
        runs — raising :class:`~repro.errors.DeadlineExceededError`
        under strict and returning a ``mode="shed"`` report of
        reason-coded answers otherwise.
        """
        idx = [int(i) for i in indices]
        if not idx:
            raise ReproError("answer_batch needs at least one index")
        resolved_strict = self._resolve_strict(strict)
        w = 1 if workers is None else int(workers)
        if deadline_s is not None:
            now = float(clock() if clock is not None else time.monotonic())
            if now >= float(deadline_s):
                return self._shed_batch(
                    idx, float(deadline_s), now, resolved_strict
                )
        if self._cache is not None:
            self._cache.advance_batch()
        start = time.perf_counter()
        with _obs.span("serve.batch"):
            if w <= 1 or len(idx) < 2:
                report = self._batch_serial(idx, nonce, start, resolved_strict)
            else:
                report = self._batch_parallel(
                    idx, nonce, min(w, len(idx)), start, resolved_strict
                )
        self._requests.inc(len(idx))
        self._batch_size.observe(len(idx))
        self._batch_latency.observe(report.wall_clock_s)
        return report

    def _shed_batch(
        self, idx: list[int], deadline_s: float, now: float, strict: bool
    ) -> BatchReport:
        """Refuse an already-doomed batch at the admission gate.

        Nothing runs and nothing is billed — serving an answer nobody is
        waiting for only starves the queue behind it.  The shed is
        honestly accounted: ``overload.deadline_shed`` counts queries,
        the flight recorder keeps the event, and every answer is a
        reason-coded :class:`DegradedAnswer` (``source="shed"``) that can
        never be mistaken for a Theorem 4.1 answer.
        """
        if strict:
            raise DeadlineExceededError(deadline_s, now)
        self._deadline_shed += len(idx)
        _obs.REGISTRY.counter("overload.deadline_shed").inc(len(idx))
        _obs.record_event(
            "overload.deadline_shed",
            queries=len(idx),
            deadline_s=deadline_s,
            now_s=now,
        )
        self._note_degraded(len(idx))
        detail = f"deadline {deadline_s:.6g}s passed at dispatch (now {now:.6g}s)"
        answers = tuple(
            DegradedAnswer(
                index=int(i),
                include=False,
                reason_code="deadline-exceeded",
                source="shed",
                detail=detail,
            )
            for i in idx
        )
        self._requests.inc(len(idx))
        self._batch_size.observe(len(idx))
        return BatchReport(
            answers=answers,
            mode="shed",
            workers=0,
            cache_hits=0,
            cache_misses=0,
            pipelines_run=0,
            samples_spent=0,
            queries_spent=0,
            wall_clock_s=0.0,
            degraded=len(idx),
        )

    @staticmethod
    def _count_stale(answers) -> int:
        """Answers the cache rung served at least one batch stale."""
        return sum(
            1
            for a in answers
            if getattr(a, "staleness", None) not in (None, 0)
        )

    def _batch_serial(
        self, idx: list[int], nonce: int | None, start: float, strict: bool
    ) -> BatchReport:
        samples_before = self.samples_used
        queries_before = self.queries_used
        retries_before = self.retries_used
        degraded = 0
        try:
            pipeline, hit = self.pipeline_for(nonce)
            answers: list = self._lca.answers_from(pipeline, idx)
        except _DEGRADABLE as exc:
            if strict:
                raise
            hit = False
            answers = self._degrade(idx, exc)
            degraded = len(idx)
            self._note_degraded(degraded)
        return BatchReport(
            answers=tuple(answers),
            mode="serial",
            workers=1,
            cache_hits=1 if hit else 0,
            cache_misses=0 if hit else 1,
            pipelines_run=0 if hit or degraded else 1,
            samples_spent=self.samples_used - samples_before,
            queries_spent=self.queries_used - queries_before,
            wall_clock_s=time.perf_counter() - start,
            degraded=degraded,
            probe_retries=self.retries_used - retries_before,
            # Only the degradation ladder serves stale answers.
            stale_served=self._count_stale(answers) if degraded else 0,
        )

    def _batch_parallel(
        self, idx: list[int], nonce: int | None, w: int, start: float, strict: bool
    ) -> BatchReport:
        base = int(nonce) if nonce is not None else fresh_nonce()
        shards = [idx[k::w] for k in range(w)]
        nonces = [derive_worker_nonce(self._spec.seed, base, k) for k in range(w)]
        # The parent owns the cache: every shard is looked up before any
        # is answered, and only runs answered without degrading are put.
        keys = [self.cache_key(n) for n in nonces] if self._cache is not None else []
        cached = [self._cache.get(key) for key in keys] or [None] * w
        run = self._run_process if self._executor_kind == "process" else self._run_threads
        outcomes, shard_retries = run(shards, nonces, cached, w, strict)
        ordered: list = [None] * len(idx)
        for k, outcome in enumerate(outcomes):
            ordered[k::w] = outcome.answers  # back into request order
            if keys and outcome.pipeline is not None:
                self._cache.put(keys[k], outcome.pipeline)
        samples, queries, blocks, retries, hedges, saved_s = (
            sum(column) for column in zip(*(o.bill for o in outcomes))
        )
        hits = sum(o.hit for o in outcomes)
        degraded = sum(o.degraded for o in outcomes)
        self._extra_samples += samples
        self._extra_queries += queries
        self._extra_blocks += blocks
        self._extra_retries += retries
        self._extra_hedges += hedges
        self._extra_hedge_saved_s += saved_s
        if degraded:
            self._note_degraded(degraded)
        return BatchReport(
            answers=tuple(ordered),
            mode=self._executor_kind,
            workers=w,
            cache_hits=hits,
            cache_misses=w - hits,
            # A shard ran a pipeline when it missed and did not degrade.
            pipelines_run=sum(1 for o in outcomes if not o.hit and not o.degraded),
            samples_spent=samples,
            queries_spent=queries,
            wall_clock_s=time.perf_counter() - start,
            degraded=degraded,
            probe_retries=retries,
            shard_retries=shard_retries,
            stale_served=self._count_stale(ordered) if degraded else 0,
        )

    def _serve_shard(self, shard, shard_nonce: int, strict: bool, pipeline) -> tuple:
        """Answer one shard in this process through :func:`_answer_shard`:
        a fresh stack over the service's alias table, fault coins keyed
        like a first attempt, and the parent's degradation ladder."""
        return _answer_shard(
            self._instance, WeightedSampler(self._instance, table=self._table),
            self._spec, shard, shard_nonce, strict,
            audit=self._audit, pipeline=pipeline, degrade=self._degrade,
        )

    def _run_threads(self, shards, nonces, cached, w, strict) -> tuple:
        """Answer every shard, hit or miss, on the thread pool; returns
        ``(outcomes, 0)`` (thread shards are never requeued)."""
        # The batch span's identity, captured once on the calling thread;
        # each shard adopts a slot-keyed child id so its pool-thread-local
        # subtree slots deterministically into the parent tree.
        parent_trace, parent_span = _obs.TRACER.current_ids()

        def serve_shard(shard, shard_nonce, pipeline, slot):
            if parent_trace is not None:
                _obs.TRACER.adopt(parent_trace, f"{parent_span}.s{slot}")
            return self._serve_shard(shard, shard_nonce, strict, pipeline)

        pool = self._pool("thread", w)
        results = list(pool.map(serve_shard, shards, nonces, cached, range(w)))
        parent = _obs.TRACER.current()
        if parent is not None:
            for _, span in results:  # slot order => deterministic child order
                if span is not None:
                    _obs.TRACER.graft(parent, span)
        return [outcome for outcome, _ in results], 0

    # ------------------------------------------------------------------
    # Worker pools
    # ------------------------------------------------------------------
    def _pool(self, kind: str, w: int):
        """The service's live ``kind`` pool, with room for ``w`` shards.

        ``kind`` is ``"thread"`` or ``"process"``.  The pool is built on
        first use and lives until :meth:`close`; concurrent callers
        share it.  A broken or wedged process pool is retired by the
        round that saw it fail (:meth:`_drop_pool`); here a pool is only
        replaced when it is too small — it grows to the largest ``w``
        seen, and the outgrown pool drains its in-flight work before it
        shuts down.
        """
        with self._lock:
            pool, size = self._pools.get(kind, (None, 0))
            if pool is not None and size >= w:
                return pool
            factory = ThreadPoolExecutor if kind == "thread" else ProcessPoolExecutor
            size = max(size, w)
            fresh = factory(max_workers=size)
            self._pools[kind] = (fresh, size)
        if pool is not None:
            pool.shutdown(wait=True)
        return fresh

    def _drop_pool(self, pool, *, terminate: bool = False) -> None:
        """Retire a broken or wedged process ``pool``; the next round
        builds a fresh one.  ``terminate`` is the watchdog's escalation:
        a wedged worker would make ``shutdown(wait=True)`` hang for the
        stall's full duration, so cancel what never started and
        terminate what wedged instead of joining it."""
        with self._lock:
            if self._pools.get("process", (None, 0))[0] is pool:
                del self._pools["process"]
        if not terminate:
            pool.shutdown(wait=True)
            return
        procs = list((getattr(pool, "_processes", None) or {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join(5.0)

    def _ensure_store(self) -> SharedInstanceStore:
        """The shared segment: created at construction, and re-created
        lazily by the first process batch after :meth:`close`."""
        with self._lock:
            if self._store is None or self._store.closed:
                self._store = SharedInstanceStore.create(
                    self._instance, table=self._table
                )
                self._owns_store = True
            return self._store

    def _chunk_payload(self, instance, shard, shard_nonce, attempt, strict, slot):
        # Trace context crosses the process boundary as plain ids: the
        # child adopts (trace_id, "<batch-span>.s<slot>") so its subtree
        # slots into the parent tree at a deterministic position.
        trace_id, span_id = _obs.TRACER.current_ids()
        trace_ctx = None if trace_id is None else (trace_id, f"{span_id}.s{slot}")
        return (
            instance, self._spec, shard_nonce, shard, attempt, strict,
            trace_ctx, _obs.timeline_config(), self._cache is not None,
        )

    def _merge_worker_obs(self, obs: dict | None) -> None:
        """Fold one shard's shipped observability state into the parent
        runtime: registry (exact bucket-wise histogram merge), trace
        subtree (grafted under the current batch span), flight events
        (re-stamped into the parent's total order, with the worker's
        ring drops added to the parent's) and timeline ticks.

        Only the attempt that answered a shard is merged, matching how
        a failed attempt's cost bill never reaches the budget.
        """
        if not obs:
            return
        registry = obs.get("registry")
        if registry:
            _obs.REGISTRY.merge_state(registry)
        trace = obs.get("trace")
        if trace is not None:
            parent = _obs.TRACER.current()
            if parent is not None:
                _obs.TRACER.graft(parent, span_from_payload(trace))
        _obs.RECORDER.ingest(
            obs.get("events") or [], dropped=obs.get("dropped_events", 0)
        )
        timeline = obs.get("timeline")
        if timeline and _obs.TIMELINE is not None:
            _obs.TIMELINE.merge_state(timeline)

    def _run_process(self, shards, nonces, cached, w, strict) -> tuple:
        """Answer cache hits here; submit the misses to the service's
        process pool with requeue-on-death.  Returns ``(outcomes,
        shard_retries)``.

        A hit (``cached[k]``, looked up by the caller) is answered in the
        parent by :meth:`_serve_shard`: no IPC, no wait, no pipeline run.
        Only misses reach a worker, and the attempt that answers a miss
        ships its pipeline home in its outcome.  Requeued and killed
        attempts never reach the caller, just as a failed attempt's bill
        never reaches the budget.

        Each round submits one attempt per pending shard to the
        long-lived pool (:meth:`_pool`), then waits once for the whole
        round and sorts every attempt into done, failed or stuck.  A
        dead worker breaks its whole pool, so a round that saw one
        retires that pool and the requeue round runs in its replacement;
        a failed shard is resubmitted with an incremented attempt index
        (its fault coins are attempt-keyed, so a requeue is a genuinely
        new roll, not a replay of its killer).

        Under ``shard_deadline_s`` the round's single wait is the
        stuck-shard watchdog, so every shard's deadline runs from its
        submission: an attempt that neither finishes nor dies in time is
        abandoned (``WatchdogTimeoutError``) and rides the same requeue
        path as a dead worker.  A round that fired the watchdog
        terminates its pool's workers instead of joining them and the
        pool is replaced — a stall can never hold the batch hostage, and
        the parent (which owns any shared-memory segment) still unlinks
        on close: no segment leaks.
        """
        n_shards = len(shards)
        outcomes: list = [None] * n_shards
        misses: list[int] = []
        for k, pipeline in enumerate(cached):
            if pipeline is None:
                misses.append(k)
            else:
                outcomes[k], _ = self._serve_shard(
                    shards[k], nonces[k], strict, pipeline
                )
        results: dict[int, tuple | None] = {}
        submissions = [0] * n_shards
        last_error: dict[int, Exception] = {}
        shard_retries = 0
        todo = list(misses)
        while todo:
            pool = self._pool("process", w)
            # Shared mode ships the O(1) handle; workers attach zero-copy.
            instance = self._ensure_store().handle if self._shared else self._instance
            futures: dict[int, Future] = {}
            for k in todo:
                payload = self._chunk_payload(
                    instance, shards[k], nonces[k], submissions[k], strict, k
                )
                try:
                    futures[k] = pool.submit(_serve_chunk, payload)
                except RuntimeError as exc:
                    # The pool broke before this submit (a worker died)
                    # or another caller's watchdog retired it: it takes
                    # no more work, so the shard fails like one whose
                    # worker died.
                    futures[k] = Future()
                    futures[k].set_exception(exc)
                submissions[k] += 1
            _done, stuck = wait(futures.values(), timeout=self._shard_deadline_s)
            broken = False
            failed: list[int] = []
            for k, fut in futures.items():
                if fut in stuck:
                    err = WatchdogTimeoutError(k, float(self._shard_deadline_s))
                    self._watchdog_timeouts += 1
                    _obs.REGISTRY.counter("overload.watchdog_timeouts").inc()
                    _obs.record_event(
                        "overload.watchdog",
                        shard=k,
                        nonce=nonces[k],
                        deadline_s=self._shard_deadline_s,
                    )
                else:
                    try:
                        results[k] = fut.result()
                        continue
                    except Exception as exc:  # worker death, cancellation, ...
                        err = exc
                    broken = broken or isinstance(err, BrokenExecutor)
                last_error[k] = err
                failed.append(k)
            if stuck or broken:
                self._drop_pool(pool, terminate=bool(stuck))
            todo = []
            for k in failed:
                if submissions[k] > self._max_shard_retries:
                    if strict:
                        raise ShardFailureError(
                            k, submissions[k], last_error[k]
                        ) from last_error[k]
                    _obs.record_event(
                        "shard.failed",
                        shard=k,
                        nonce=nonces[k],
                        attempts=submissions[k],
                    )
                    results[k] = None
                else:
                    shard_retries += 1
                    _obs.record_shard_retries(1)
                    _obs.record_event(
                        "shard.requeue",
                        shard=k,
                        nonce=nonces[k],
                        attempt=submissions[k],
                    )
                    todo.append(k)
        setup_s: list[float] = []
        memory: list[dict] = []
        for k in misses:
            res = results[k]
            if res is None:
                # Dead past requeue: degrade the shard in the parent.
                failure = ShardFailureError(k, submissions[k], last_error[k])
                answers = self._degrade(shards[k], failure)
                outcomes[k] = _ShardOutcome(answers, _NO_BILL, len(answers))
                continue
            outcomes[k], obs_state = res
            self._merge_worker_obs(obs_state)
            setup_s.append(float(obs_state["setup_s"]))
            memory.append(obs_state["memory"])
        if misses:
            # Worker telemetry describes the last batch that dispatched:
            # an all-hit batch leaves it as it was.
            self._worker_setup_s, self._worker_memory = setup_s, memory
        return outcomes, shard_retries

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-ready service counters (cache + cost + resilience)."""
        return {
            "samples_used": self.samples_used,
            "queries_used": self.queries_used,
            "blocks_used": self.blocks_used,
            "cost_counter": self.cost_counter,
            "retries_used": self.retries_used,
            "probe_hedges": self.probe_hedges_used,
            "degraded_total": self.degraded_total,
            "faults_injected": self.faults_injected,
            "overload": {
                "deadline_shed": self._deadline_shed,
                "watchdog_timeouts": self._watchdog_timeouts,
            },
            "cache": self._cache.stats() if self._cache is not None else None,
            "shm": self.shm_stats(),
        }

    @property
    def worker_setup_s(self) -> list[float]:
        """Per-shard access-setup seconds of the most recent batch that
        dispatched a worker (an all-hit batch dispatches none).

        Covers segment attach and sampler wrap (shared mode) or sampler
        construction over the unpickled instance (pickled mode) — the
        per-shard cost the shared tier makes O(1).  A pool worker maps
        the segment on its first chunk only; later chunks hit its attach
        cache and pay just the O(1) sampler wrap."""
        return list(self._worker_setup_s)

    @property
    def worker_memory(self) -> list[dict]:
        """Per-shard :func:`~repro.knapsack.shm.process_memory`
        snapshots of the most recent batch that dispatched a worker."""
        return list(self._worker_memory)

    def shm_stats(self) -> dict | None:
        """Shared-memory tier accounting, or ``None`` when not in use.

        ``worker_setup_s``/``worker_memory`` reflect the dispatched
        shards of the most recent batch that had any: with the tier on,
        setup is O(1) in n and per-worker *private* memory stays bounded
        by block-size working state, not by the instance (shared pages
        are excluded from ``private_kb``).
        """
        if not self._shared:
            return None
        out: dict = {
            "store": self._store.stats()
            if self._store is not None and not self._store.closed
            else None,
            "owns_store": self._owns_store,
        }
        if self._worker_setup_s:
            out["worker_setup_s"] = list(self._worker_setup_s)
            out["worker_memory"] = list(self._worker_memory)
        return out

    def close(self) -> None:
        """Shut down the worker pools and release the shared-memory
        segment, if this service owns one.

        Idempotent.  Every pool worker is joined, so no child process
        outlives the call; a caller-owned :class:`SharedInstanceStore`
        is left alone.  The service stays usable: its in-process alias
        table is untouched, and the next sharded batch builds fresh pools
        (and a process batch a fresh segment) lazily.
        """
        with self._lock:
            pools, self._pools = self._pools, {}
        for pool, _size in pools.values():
            pool.shutdown(wait=True, cancel_futures=True)
        if self._store is not None and self._owns_store:
            self._store.close()
        if self._owns_store:
            self._store = None

    def __enter__(self) -> "KnapsackService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
