"""The open-loop load harness: offered load in, latency curves out.

:class:`LoadHarness` drives a :class:`~repro.serve.KnapsackService`
with a seeded arrival schedule at a fixed offered rate and records
where each query's time went.  Two clock regimes share one code shape:

* **wall** — an asyncio front-end: an arrival coroutine paces the
  schedule with ``asyncio.sleep`` and pushes into a *bounded*
  ``asyncio.Queue`` (full queue => the query is shed and counted, the
  open-loop discipline — arrivals never block on the service); worker
  coroutines drain the queue in microbatches of up to ``batch_max`` and
  dispatch into :meth:`~repro.serve.KnapsackService.answer_batch` on a
  thread pool, so slow service calls never stall the event loop or the
  arrival schedule.
* **virtual** — the identical queue discipline replayed as a
  discrete-event simulation against a seeded
  :class:`~repro.load.clock.ServiceModel`: no sleeping, no threads,
  every timestamp a pure function of the seeds.  Used by CI for
  byte-identical smoke documents and by the knee-detector tests.

A sweep over rates produces ``bench-load/v1`` rows plus a
:func:`~repro.load.knee.detect_knee` verdict;
:func:`bench_load_document` wraps them with the run's ``context`` block
so ``repro obs-diff --fresh`` can reconstruct the run from the document
alone.
"""

from __future__ import annotations

import asyncio
import heapq
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from functools import partial

from ..access.seeds import SeedChain
from ..errors import ReproError
from ..obs import runtime as _obs
from ..obs.timeline import TimelineSampler
from ..serve.degraded import DegradedAnswer
from ..serve.overload import BrownoutConfig, BrownoutController
from .arrivals import ARRIVAL_KINDS, ArrivalProcess
from .clock import ServiceModel, VirtualClock
from .knee import detect_knee
from .recorder import LatencyRecorder

__all__ = ["BENCH_LOAD_SCHEMA", "LoadHarness", "bench_load_document"]

BENCH_LOAD_SCHEMA = "bench-load/v1"

#: Virtual service-time multiplier per brownout rung.  Rung 1 answers
#: off the memoized cache (one point query, no pipeline); rungs 2-3
#: apply a precomputed greedy mask — the shed rung still drains its
#: backlog at greedy cost while refusing new admissions.
_RUNG_FACTORS = (1.0, 0.25, 0.1, 0.1)


class LoadHarness:
    """Open-loop load generator over one ``KnapsackService``.

    Parameters
    ----------
    service:
        The service under test.  Wall mode calls its real batch path;
        virtual mode only reads its configuration (``seed``, instance
        size) and simulates service time with ``service_model``.
    seed:
        Root seed for the arrival schedules (defaults to the service's
        own seed chain; the arrival streams live under the reserved
        ``"__load__"`` subtree either way, so sharing is safe).
    arrival:
        Interarrival law — see :data:`~repro.load.arrivals.ARRIVAL_KINDS`.
    workers:
        Concurrent dispatch slots (queue servers).
    queue_cap:
        Bounded-queue depth; an arrival finding it full is shed and
        counted (``dropped``), never blocked on.
    batch_max:
        Largest microbatch one worker pulls per dispatch.
    clock:
        ``"wall"`` or ``"virtual"``.
    service_model:
        Virtual-clock service-time law (default :class:`ServiceModel`).
    warm:
        Wall mode: run one untimed query first so the measured rows see
        the warm (cached) path, not a one-off cold pipeline.
    deadline_s:
        Optional per-query deadline (seconds after arrival).  A query
        whose deadline has already passed when a worker would dispatch
        it is *shed* at dispatch — counted in ``dropped`` and in the
        row's ``deadline_shed`` — instead of being served to nobody.
        Queue order means the head always has the longest wait, so a
        batch's members never outlive a head that was admitted.
    brownout:
        Optional :class:`~repro.serve.overload.BrownoutConfig`: a fresh
        :class:`~repro.serve.overload.BrownoutController` per rate
        observes ``(queue fraction, head-of-queue wait)`` at every
        dispatch and steps the degradation ladder.  Rungs >= 1 serve at
        the rung's (cheaper) service time and are recorded degraded;
        rung 3 sheds new arrivals at admission while the backlog drains
        at greedy cost.  Virtual clock only — the controller is part of
        the byte-deterministic simulation.
    service_workers:
        Wall mode: shard each dispatched microbatch across this many
        service workers (``answer_batch(..., workers=...)``).  0 (the
        default) keeps the historical serial dispatch.  This is what
        lets the shared-memory process tier carry open-loop load: each
        dispatch fans out across pool workers attaching one segment.
    timeline:
        Record a ``timeline/v1`` trajectory per rate.  Virtual clock:
        ticks sit on the deterministic ``timeline_tick_s`` grid inside
        the simulation, so the timeline replays byte-identically with
        the row it rides on.  Wall clock: an asyncio sampler coroutine
        ticks every ``timeline_tick_s`` wall seconds, and the sampler is
        activated process-globally for the run so forked service shards
        capture and ship their local ticks home (winners only).  Off by
        default — and when off, rows carry no timeline key at all, so
        existing documents stay bit-identical.
    timeline_tick_s:
        Tick grid / sampling interval; defaults per clock (0.05 virtual,
        0.25 wall).
    timeline_capacity:
        Per-rate ring bound (oldest ticks evicted, counted).
    """

    def __init__(
        self,
        service,
        *,
        seed: int | SeedChain | None = None,
        arrival: str = "poisson",
        workers: int = 2,
        queue_cap: int = 256,
        batch_max: int = 16,
        clock: str = "wall",
        service_model: ServiceModel | None = None,
        warm: bool = True,
        deadline_s: float | None = None,
        brownout: BrownoutConfig | None = None,
        service_workers: int = 0,
        timeline: bool = False,
        timeline_tick_s: float | None = None,
        timeline_capacity: int = 512,
    ) -> None:
        if arrival not in ARRIVAL_KINDS:
            raise ReproError(
                f"arrival must be one of {ARRIVAL_KINDS}, got {arrival!r}"
            )
        if clock not in ("wall", "virtual"):
            raise ReproError(f"clock must be 'wall' or 'virtual', got {clock!r}")
        if workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        if queue_cap < 1:
            raise ReproError(f"queue_cap must be >= 1, got {queue_cap}")
        if batch_max < 1:
            raise ReproError(f"batch_max must be >= 1, got {batch_max}")
        if deadline_s is not None and deadline_s <= 0:
            raise ReproError(f"deadline_s must be > 0, got {deadline_s}")
        if brownout is not None and clock != "virtual":
            raise ReproError(
                "brownout requires clock='virtual': the controller is part "
                "of the deterministic simulation, not a wall-clock heuristic"
            )
        if service_workers < 0:
            raise ReproError(
                f"service_workers must be >= 0, got {service_workers}"
            )
        if timeline_tick_s is not None and timeline_tick_s <= 0:
            raise ReproError(f"timeline_tick_s must be > 0, got {timeline_tick_s}")
        if timeline_capacity < 1:
            raise ReproError(
                f"timeline_capacity must be >= 1, got {timeline_capacity}"
            )
        self._timeline = bool(timeline)
        self._timeline_tick_s = (
            None if timeline_tick_s is None else float(timeline_tick_s)
        )
        self._timeline_capacity = int(timeline_capacity)
        self._deadline_s = None if deadline_s is None else float(deadline_s)
        self._brownout = brownout
        self._service_workers = int(service_workers)
        self._service = service
        if seed is None:
            seed = service.seed
        self._seed = seed if isinstance(seed, SeedChain) else SeedChain(int(seed))
        self._arrival = arrival
        self._workers = int(workers)
        self._queue_cap = int(queue_cap)
        self._batch_max = int(batch_max)
        self._clock = clock
        self._model = service_model or ServiceModel()
        self._warm = bool(warm)
        # A remote EndpointClient presents `n` directly instead of a
        # full instance object; both faces drive the same harness.
        inst = getattr(service, "instance", None)
        self._n_items = int(inst.n if inst is not None else service.n)

    # ------------------------------------------------------------------
    def run_rate(self, rate: float, queries: int, *, nonce: int = 0) -> dict:
        """Drive ``queries`` arrivals at offered ``rate`` q/s; return one
        ``bench-load/v1`` row."""
        if queries < 1:
            raise ReproError(f"queries must be >= 1, got {queries}")
        process = ArrivalProcess(
            self._seed, rate=rate, kind=self._arrival, nonce=nonce
        )
        times, indices = process.stream(queries, self._n_items)
        recorder = LatencyRecorder()
        controller = (
            BrownoutController(self._brownout) if self._brownout is not None else None
        )
        sampler = None
        previous_timeline = None
        if self._timeline:
            # One fresh ring per rate: each row carries its own
            # trajectory.  Activated globally for the run so process
            # shards receive its config and ship local ticks home.
            sampler = TimelineSampler(
                clock=self._clock,
                tick_s=self._timeline_tick_s,
                capacity=self._timeline_capacity,
                registry=_obs.REGISTRY,
            )
            previous_timeline = _obs.activate_timeline(sampler)
        try:
            if self._clock == "virtual":
                shed = self._run_virtual(
                    rate, times, indices, nonce, recorder, controller, sampler
                )
            else:
                if self._warm:
                    # Untimed cache prefill: the rows measure the warm path.
                    # Warm through the same dispatch shape the timed run
                    # uses — sharded batches pay a one-time cold cost
                    # (pool spin-up, segment attach, the pipelines of the
                    # shards' derived nonces) that a point query never
                    # touches.
                    if self._service_workers > 1:
                        self._service.answer_batch(
                            [int(i) for i in indices[: self._service_workers]],
                            nonce=nonce,
                            workers=self._service_workers,
                        )
                    else:
                        self._service.answer(int(indices[0]), nonce=nonce)
                shed = asyncio.run(
                    self._run_wall(times, indices, nonce, recorder, sampler)
                )
        finally:
            if self._timeline:
                _obs.activate_timeline(previous_timeline)
        _obs.REGISTRY.counter("load.offered").inc(recorder.offered)
        _obs.REGISTRY.counter("load.completed").inc(recorder.completed)
        if recorder.dropped:
            _obs.REGISTRY.counter("load.dropped").inc(recorder.dropped)
            _obs.record_event(
                "load.queue_full", rate=float(rate), dropped=recorder.dropped
            )
        if shed["deadline"]:
            _obs.REGISTRY.counter("overload.deadline_shed").inc(shed["deadline"])
            _obs.record_event(
                "overload.deadline_shed",
                rate=float(rate),
                queries=shed["deadline"],
                deadline_s=self._deadline_s,
            )
        if shed["brownout"]:
            _obs.REGISTRY.counter("overload.brownout_shed").inc(shed["brownout"])
            _obs.record_event(
                "overload.brownout_shed", rate=float(rate), queries=shed["brownout"]
            )
        row = recorder.row(rate=rate)
        row.update(
            mode="load",
            clock=self._clock,
            arrival=self._arrival,
            workers=self._workers,
            queue_cap=self._queue_cap,
            batch_max=self._batch_max,
        )
        if self._deadline_s is not None or self._brownout is not None:
            # Overload-governor accounting rides only on governed rows so
            # plain bench-load/v1 documents stay byte-identical.
            row.update(
                deadline_s=self._deadline_s,
                brownout=self._brownout is not None,
                deadline_shed=shed["deadline"],
                brownout_shed=shed["brownout"],
                brownout_max_level=(
                    controller.max_level_seen if controller is not None else 0
                ),
                brownout_transitions=(
                    controller.transitions if controller is not None else 0
                ),
            )
        if sampler is not None:
            # Opt-in only: sampler-off rows carry no timeline key, so
            # pre-existing documents stay bit-identical.
            row["timeline"] = sampler.fragment()
        return row

    def sweep(
        self, rates, queries: int, *, nonce: int = 0, knee_kwargs: dict | None = None
    ) -> tuple[list[dict], dict]:
        """Run one row per offered rate; return ``(rows, knee_verdict)``."""
        rows = [self.run_rate(float(r), queries, nonce=nonce) for r in rates]
        knee = detect_knee(rows, **(knee_kwargs or {}))
        return rows, knee

    # ------------------------------------------------------------------
    # Wall clock: asyncio bounded queue + worker pool
    # ------------------------------------------------------------------
    async def _run_wall(self, times, indices, nonce, recorder, sampler=None) -> dict:
        loop = asyncio.get_running_loop()
        queue: asyncio.Queue = asyncio.Queue(maxsize=self._queue_cap)
        answer_batch = self._service.answer_batch
        deadline = self._deadline_s
        shed = {"deadline": 0, "brownout": 0}
        # Governor state the sampler coroutine reads between dispatches.
        inflight = [0]
        head_wait = [0.0]
        stop = asyncio.Event()

        async def sample() -> None:
            t0 = loop.time()
            while True:
                try:
                    await asyncio.wait_for(stop.wait(), timeout=sampler.tick_s)
                except asyncio.TimeoutError:
                    pass
                sampler.tick(
                    loop.time() - t0,
                    queue_depth=queue.qsize(),
                    queue_wait_s=head_wait[0],
                    inflight=inflight[0],
                    offered=recorder.offered,
                    completed=recorder.completed,
                    dropped=recorder.dropped,
                    degraded=recorder.degraded,
                )
                if stop.is_set():
                    return

        async def arrive() -> None:
            t0 = loop.time()
            for t, idx in zip(times, indices):
                delay = t0 + float(t) - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                recorder.offer()
                try:
                    queue.put_nowait((loop.time(), int(idx)))
                except asyncio.QueueFull:
                    recorder.drop()
            for _ in range(self._workers):
                await queue.put(None)

        async def work(pool: ThreadPoolExecutor) -> None:
            while True:
                item = await queue.get()
                if item is None:
                    return
                batch = [item]
                while len(batch) < self._batch_max:
                    try:
                        nxt = queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if nxt is None:
                        # Another worker's sentinel: hand it back.
                        queue.put_nowait(None)
                        break
                    batch.append(nxt)
                start = loop.time()
                if deadline is not None:
                    # Admission gate: already-doomed queries are shed at
                    # dispatch, not served to nobody.
                    kept = [b for b in batch if start - b[0] < deadline]
                    doomed = len(batch) - len(kept)
                    if doomed:
                        shed["deadline"] += doomed
                        for _ in range(doomed):
                            recorder.drop()
                    batch = kept
                    if not batch:
                        continue
                dispatch = partial(answer_batch, [b[1] for b in batch], nonce=nonce)
                if self._service_workers > 1:
                    dispatch = partial(dispatch, workers=self._service_workers)
                head_wait[0] = start - batch[0][0]
                inflight[0] += 1
                try:
                    report = await loop.run_in_executor(pool, dispatch)
                finally:
                    inflight[0] -= 1
                finish = loop.time()
                for (arrival, _), answer in zip(batch, report.answers):
                    recorder.record(
                        arrival,
                        start,
                        finish,
                        degraded=isinstance(answer, DegradedAnswer)
                        or bool(getattr(answer, "degraded", False)),
                    )

        with ThreadPoolExecutor(max_workers=self._workers) as pool:
            sampler_task = (
                asyncio.ensure_future(sample()) if sampler is not None else None
            )
            try:
                await asyncio.gather(
                    arrive(), *(work(pool) for _ in range(self._workers))
                )
            finally:
                stop.set()
                if sampler_task is not None:
                    await sampler_task
        return shed

    # ------------------------------------------------------------------
    # Virtual clock: discrete-event simulation, byte-deterministic
    # ------------------------------------------------------------------
    def _run_virtual(
        self, rate, times, indices, nonce, recorder, controller=None, sampler=None
    ) -> dict:
        model = self._model
        jitter_rng = (
            self._seed.child("__load__")
            .child("service")
            .child(f"{float(rate):.9g}")
            .child(int(nonce))
            .rng()
            if model.jitter
            else None
        )
        clock = VirtualClock()
        # (free_time, slot): min-heap of when each worker next idles.
        servers = [(0.0, w) for w in range(self._workers)]
        heapq.heapify(servers)
        pending: deque[tuple[float, int]] = deque()
        deadline = self._deadline_s
        shed = {"deadline": 0, "brownout": 0}
        tick_s = sampler.tick_s if sampler is not None else 0.0
        next_grid = [0]

        def governor_tick(now: float) -> None:
            """Emit every grid tick tau = k * tick_s with tau <= now.

            Grid times are a pure function of ``tick_s`` and the seeded
            schedule, and the sampled state is read from the same
            deterministic simulation structures the dispatcher uses — so
            the timeline replays byte-identically with its row.  Each
            grid point is emitted exactly once, in order.
            """
            if sampler is None:
                return
            while True:
                tau = round(next_grid[0] * tick_s, 9)
                if tau > now + 1e-12:
                    return
                wait = 0.0
                depth = 0
                if pending:
                    head = pending[0][0]
                    if head <= tau:
                        wait = tau - head
                    depth = sum(1 for a, _ in pending if a <= tau)
                sampler.tick(
                    tau,
                    queue_depth=depth,
                    queue_wait_s=wait,
                    inflight=sum(1 for free, _ in servers if free > tau),
                    brownout_level=(
                        controller.level if controller is not None else 0
                    ),
                    offered=recorder.offered,
                    completed=recorder.completed,
                    dropped=recorder.dropped,
                    degraded=recorder.degraded,
                )
                next_grid[0] += 1

        def drain(limit: float) -> None:
            """Let workers consume the queue up to virtual time ``limit``."""
            while pending:
                free, slot = servers[0]
                start = max(free, pending[0][0])
                governor_tick(min(start, limit))
                if start >= limit:
                    return
                if deadline is not None and start - pending[0][0] >= deadline:
                    # Admission gate: the head is already doomed at its
                    # dispatch instant — shed it without occupying the
                    # worker.  FIFO order means the head always has the
                    # longest wait, so admitted batch members never
                    # outlive an admitted head.
                    pending.popleft()
                    recorder.drop()
                    shed["deadline"] += 1
                    continue
                heapq.heappop(servers)
                clock.advance_to(start)
                # The brownout controller sees exactly what a real
                # dispatcher would: occupancy and head-of-queue wait.
                level = 0
                if controller is not None:
                    level = controller.observe(
                        len(pending) / self._queue_cap, start - pending[0][0]
                    )
                batch = [pending.popleft()]
                # A real worker only sees what had arrived by dispatch.
                while (
                    len(batch) < self._batch_max
                    and pending
                    and pending[0][0] <= start
                ):
                    batch.append(pending.popleft())
                finish = start + model.batch_time(len(batch), jitter_rng) * (
                    _RUNG_FACTORS[min(level, len(_RUNG_FACTORS) - 1)]
                )
                for arrival, _idx in batch:
                    recorder.record(arrival, start, finish, degraded=level >= 1)
                heapq.heappush(servers, (finish, slot))

        for t, idx in zip(times, indices):
            t = float(t)
            recorder.offer()
            drain(t)
            governor_tick(t)
            if controller is not None and controller.level >= 3:
                # Shed rung: refuse new admissions while the backlog
                # drains (the controller keeps observing dispatches, so
                # relief steps it back down deterministically).
                recorder.drop()
                shed["brownout"] += 1
                continue
            if len(pending) >= self._queue_cap:
                recorder.drop()
            else:
                pending.append((t, int(idx)))
        drain(float("inf"))
        # Trailing ticks cover the drain-down to the last worker idle,
        # then one closing tick past it so the timeline always ends
        # with the drained end-of-run ledgers (the wall sampler's final
        # flush-on-stop gives the same guarantee).
        if sampler is not None and servers:
            governor_tick(max(free for free, _ in servers))
            governor_tick(round(next_grid[0] * tick_s, 9))
        return shed


def bench_load_document(
    rows: list[dict],
    *,
    knee: dict | None = None,
    name: str = "load_latency",
    title: str = "Open-loop load: latency and availability vs offered rate",
    **context,
) -> dict:
    """Wrap load rows (and a knee verdict) as ``bench-load/v1``.

    ``context`` records the configuration needed to reproduce the run
    (family, n, epsilon, seeds, rates, clock, ...); ``repro obs-diff
    --fresh`` reruns a baseline from exactly this block.  ``knee``
    defaults to detecting over ``rows`` directly — pass an explicit
    verdict when the document mixes a rate sweep with fixed-rate rows.
    """
    from ..obs.context import RunContext
    from ..obs.schema import BenchDocument

    if knee is None:
        knee = detect_knee(rows)
    bench = context.pop("bench", "load")
    return BenchDocument.build(
        "bench-load",
        name=name,
        title=title,
        rows=rows,
        knee=knee,
        context=RunContext(bench=bench, config=context),
        total_queries=sum(int(r.get("queries", 0)) for r in rows),
        total_completed=sum(int(r.get("completed", 0)) for r in rows),
    ).body
