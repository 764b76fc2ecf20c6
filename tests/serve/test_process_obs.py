"""Cross-process observability: process-sharded batches must report the
same telemetry as thread-sharded ones.

Before trace-context propagation, a process-pool batch's spans and
registry increments died with the worker processes, so ``repro metrics``
and ``repro trace`` under-reported sharded runs.  These tests pin the
fix: identical seeds => identical counters, and ONE merged trace whose
per-phase totals match the thread run bit-for-bit.
"""

import pytest

from repro.obs import runtime as rt
from repro.obs.trace import phase_counts
from repro.serve import KnapsackService

INDICES = list(range(0, 60, 3))
NONCE = 31


def run_traced(instance, params, executor, shared=False, batches=1):
    """``batches`` sharded batches under one nonce and a fresh
    tracer/registry/recorder; more than one turns the cache on, so every
    batch after the first is warm."""
    rt.REGISTRY.reset()
    rt.TRACER.reset_worker()
    rt.RECORDER.clear()
    svc = KnapsackService(
        instance, 0.1, seed=42, params=params, cache=batches > 1,
        executor=executor, shared_instance=shared,
    )
    rt.TRACER.enable()
    try:
        with rt.span("repro.trace") as root:
            for _ in range(batches):
                report = svc.answer_batch(INDICES, nonce=NONCE, workers=2)
    finally:
        rt.TRACER.disable()
        svc.close()
    counters = dict(rt.REGISTRY.state()["counters"])
    return svc, report, root, counters


@pytest.mark.slow
class TestProcessObsParity:
    def test_registry_counters_match_thread_run(self, tiers_instance, fast_params):
        *_, thread_counters = run_traced(tiers_instance, fast_params, "thread")
        *_, process_counters = run_traced(tiers_instance, fast_params, "process")
        assert process_counters == thread_counters
        # The under-report bug: these were 0 for process runs.
        assert process_counters["sampler.samples"] > 0
        assert process_counters["oracle.queries"] > 0

    def test_unified_trace_partition_invariant(self, tiers_instance, fast_params):
        svc, _, root, _ = run_traced(tiers_instance, fast_params, "process")
        assert sum(phase_counts(root, "queries").values()) == svc.queries_used
        assert sum(phase_counts(root, "samples").values()) == svc.samples_used
        assert sum(phase_counts(root, "sample_blocks").values()) == svc.blocks_used

    def test_per_phase_totals_match_thread_run_bit_for_bit(
        self, tiers_instance, fast_params
    ):
        *_, root_t, _ = [*run_traced(tiers_instance, fast_params, "thread")]
        *_, root_p, _ = [*run_traced(tiers_instance, fast_params, "process")]
        for key in ("queries", "samples", "sample_blocks"):
            assert phase_counts(root_p, key) == phase_counts(root_t, key)

    def test_warm_batches_match_thread_run(self, tiers_instance, fast_params):
        """Process-batch cache hits are answered in the parent; their
        spans, counters and bill must match warm thread shards."""
        runs = {
            executor: run_traced(tiers_instance, fast_params, executor, batches=3)
            for executor in ("thread", "process")
        }
        _, report_t, root_t, counters_t = runs["thread"]
        svc_p, report_p, root_p, counters_p = runs["process"]
        assert report_p.cache_hits == 2 and report_p.samples_spent == 0
        assert report_p.answers == report_t.answers
        assert counters_p == counters_t
        for key in ("queries", "samples", "sample_blocks"):
            assert phase_counts(root_p, key) == phase_counts(root_t, key)
        assert sum(phase_counts(root_p, "queries").values()) == svc_p.queries_used
        assert sum(phase_counts(root_p, "samples").values()) == svc_p.samples_used

    def test_merged_tree_has_one_trace_and_unique_span_ids(
        self, tiers_instance, fast_params
    ):
        _, _, root, _ = run_traced(tiers_instance, fast_params, "process")
        spans = [s for s, _ in root.walk()]
        assert {s.trace_id for s in spans} == {root.trace_id}
        ids = [s.span_id for s in spans]
        assert len(ids) == len(set(ids))
        # Shard roots slot in under namespaced ids, e.g. "0.0.s1".
        assert any(".s" in s.span_id for s in spans)

    def test_shared_tier_counters_and_answers_match_thread_run(
        self, tiers_instance, fast_params
    ):
        """The zero-copy payload changes transport, not telemetry."""
        _, report_t, _, thread_counters = run_traced(
            tiers_instance, fast_params, "thread"
        )
        _, report_s, _, shm_counters = run_traced(
            tiers_instance, fast_params, "process", shared=True
        )
        # Registry reset keeps registered names at 0, so a thread run that
        # follows any shm test still snapshots shm.* keys; compare cores.
        def core(counters):
            return {k: v for k, v in counters.items() if not k.startswith("shm.")}

        assert core(shm_counters) == core(thread_counters)
        assert [(a.index, a.include) for a in report_s.answers] == [
            (a.index, a.include) for a in report_t.answers
        ]
        # The run's own lifecycle bookkeeping balanced (segment retired).
        assert shm_counters["shm.segments_created"] == 1
        assert shm_counters["shm.segments_unlinked"] == 1

    def test_shared_tier_per_phase_totals_match_thread_bit_for_bit(
        self, tiers_instance, fast_params
    ):
        *_, root_t, _ = [*run_traced(tiers_instance, fast_params, "thread")]
        *_, root_s, _ = [
            *run_traced(tiers_instance, fast_params, "process", shared=True)
        ]
        for key in ("queries", "samples", "sample_blocks"):
            assert phase_counts(root_s, key) == phase_counts(root_t, key)

    def test_worker_events_ship_home(self, tiers_instance, fast_params):
        from repro.faults import FaultPlan, RetryPolicy

        rt.REGISTRY.reset()
        rt.TRACER.reset_worker()
        rt.RECORDER.clear()
        svc = KnapsackService(
            tiers_instance,
            0.1,
            seed=42,
            params=fast_params,
            cache=False,
            executor="process",
            fault_plan=FaultPlan(seed=5, probe_failure_rate=0.3),
            retry_policy=RetryPolicy(max_retries=4, seed=5),
            strict=False,
        )
        svc.answer_batch(INDICES, nonce=NONCE, workers=2)
        kinds = {e.kind for e in rt.RECORDER.events()}
        # Faults fired inside worker processes appear in the parent log.
        assert "fault.probe_failure" in kinds

    def test_tracer_disabled_process_run_still_answers(
        self, tiers_instance, fast_params
    ):
        rt.REGISTRY.reset()
        rt.TRACER.reset_worker()
        rt.RECORDER.clear()
        svc = KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params,
            cache=False, executor="process",
        )
        report = svc.answer_batch(INDICES, nonce=NONCE, workers=2)
        assert len(report.answers) == len(INDICES)
        # Counters still merge even without a trace context.
        assert rt.REGISTRY.state()["counters"]["sampler.samples"] > 0


@pytest.mark.slow
class TestWorkerRecorderIsolation:
    """A forked worker inherits the parent's flight recorder, spill file
    included; it must neither write to that file nor hide its drops."""

    def faulty_batch(self, instance, params, executor):
        from repro.faults import FaultPlan, RetryPolicy

        with KnapsackService(
            instance, 0.1, seed=42, params=params, cache=False,
            executor=executor,
            fault_plan=FaultPlan(seed=5, probe_failure_rate=0.3),
            retry_policy=RetryPolicy(max_retries=4, seed=5),
            strict=False,
        ) as svc:
            svc.answer_batch(INDICES, nonce=NONCE, workers=2)

    def test_parent_spill_survives_and_worker_drops_are_counted(
        self, tiers_instance, fast_params, tmp_path, monkeypatch
    ):
        from repro.obs.events import FlightRecorder

        # Reference: thread shards record straight into the parent, so
        # every event the batch fires is either retained or dropped.  A
        # one-event ring makes any shard that fires twice drop one.
        monkeypatch.setattr(rt, "RECORDER", FlightRecorder(capacity=1))
        self.faulty_batch(tiers_instance, fast_params, "thread")
        fired = rt.RECORDER.dropped + len(rt.RECORDER.events())

        spill = tmp_path / "spill.jsonl"
        recorder = FlightRecorder(capacity=1, spill_path=spill)
        monkeypatch.setattr(rt, "RECORDER", recorder)
        for nonce in range(10):
            recorder.record("cache.evicted", nonce=nonce)
        parent_lines = spill.read_text().splitlines()
        assert len(parent_lines) == 9
        self.faulty_batch(tiers_instance, fast_params, "process")

        text = spill.read_text()
        assert "\0" not in text
        assert text.splitlines()[:9] == parent_lines
        assert recorder.spilled == len(text.splitlines())
        assert fired > 2  # so at least one of the two shards dropped
        assert recorder.dropped + len(recorder.events()) == 10 + fired


def timeline_after(svc, *, warm: bool) -> dict:
    """Merged timeline state of one batch served under a freshly
    activated sampler; ``warm`` first serves a batch with none active,
    so the service's pool workers fork before the timeline exists."""
    from repro.obs.timeline import TimelineSampler

    if warm:
        svc.answer_batch(INDICES, nonce=NONCE + 1, workers=2)
    sampler = TimelineSampler(clock="virtual", tick_s=0.1, registry=rt.REGISTRY)
    previous = rt.activate_timeline(sampler)
    try:
        svc.answer_batch(INDICES, nonce=NONCE, workers=2)
    finally:
        rt.activate_timeline(previous)
    return sampler.state()


@pytest.mark.slow
class TestTimelineConfigTravelsWithTheChunk:
    """Long-lived pool workers follow the parent's *current* timeline,
    not the one they inherited when they forked."""

    def service(self, instance, params):
        return KnapsackService(
            instance, 0.1, seed=42, params=params, cache=False, executor="process"
        )

    def test_timeline_activated_after_first_batch_matches_fresh_service(
        self, tiers_instance, fast_params
    ):
        with self.service(tiers_instance, fast_params) as fresh:
            want = timeline_after(fresh, warm=False)
        with self.service(tiers_instance, fast_params) as used:
            got = timeline_after(used, warm=True)
        assert want["ticks"]  # the shards shipped their ticks home
        assert got == want

    def test_deactivated_timeline_ships_no_ticks(
        self, tiers_instance, fast_params, monkeypatch
    ):
        shipped = []
        merge = KnapsackService._merge_worker_obs

        def spy(self, obs, **kw):
            shipped.append((obs or {}).get("timeline"))
            return merge(self, obs, **kw)

        monkeypatch.setattr(KnapsackService, "_merge_worker_obs", spy)
        with self.service(tiers_instance, fast_params) as svc:
            timeline_after(svc, warm=False)  # workers fork under a timeline
            assert shipped and all(t is not None for t in shipped)
            shipped.clear()
            svc.answer_batch(INDICES, nonce=NONCE, workers=2)
        assert shipped == [None, None]
