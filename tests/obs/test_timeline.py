"""Tests for the deterministic timeline sampler (``timeline/v1``).

The sampler's contract has three legs:

* **ring honesty** — a full ring evicts oldest-first and counts every
  eviction in ``dropped_ticks``; nothing is silently truncated;
* **byte determinism** — a virtual-clock timeline is a pure function
  of the seeds, so two identical sweeps serialize byte-for-byte equal;
* **shard parity** — K shard-local timelines merged through
  ``merge_state`` equal the timeline one process observing all K
  streams would have recorded, tick for tick (the Hypothesis property
  below).
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import SchemaError, validate, validate_timeline
from repro.obs.timeline import TimelineSampler, merge_timeline_states
from repro.errors import ReproError


class TestSamplerBasics:
    def test_tick_records_governor_state(self):
        s = TimelineSampler(clock="virtual", tick_s=0.1)
        sample = s.tick(
            0.1,
            queue_depth=3,
            queue_wait_s=0.0123,
            inflight=2,
            brownout_level=1,
            offered=10,
            completed=7,
            dropped=1,
            degraded=2,
        )
        assert sample["tick"] == 0
        assert sample["t"] == 0.1
        assert sample["queue_wait_ms"] == 12.3
        assert sample["brownout_level"] == 1
        assert s.count == 1 and s.dropped == 0

    def test_counter_deltas_and_gauges(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        reg.gauge("g.size").set(2.0)
        s = TimelineSampler(clock="wall", tick_s=0.1, registry=reg)
        # Baseline is taken at construction: no spurious first delta.
        first = s.tick(0.0)
        assert first["counters"] == {}
        reg.counter("c").inc(3)
        second = s.tick(0.1)
        assert second["counters"] == {"c": 3}
        assert second["gauges"] == {"g.size": 2.0}
        # Idle registry => empty delta again.
        assert s.tick(0.2)["counters"] == {}

    def test_ring_eviction_counts_dropped(self):
        s = TimelineSampler(clock="virtual", tick_s=0.1, capacity=3)
        for i in range(5):
            s.tick(i * 0.1)
        assert s.count == 3
        assert s.dropped == 2
        # Oldest evicted: the ring keeps the most recent window.
        assert [x["tick"] for x in s.samples()] == [2, 3, 4]
        frag = s.fragment()
        assert frag["dropped_ticks"] == 2 and frag["count"] == 3

    def test_fresh_is_empty_with_same_grid(self):
        s = TimelineSampler(clock="virtual", tick_s=0.02, capacity=7)
        s.tick(0.0)
        f = s.fresh()
        assert f.count == 0 and f.dropped == 0
        assert (f.clock, f.tick_s, f.capacity) == ("virtual", 0.02, 7)

    def test_summary_staircase(self):
        s = TimelineSampler(clock="virtual", tick_s=0.1)
        for level in (0, 0, 1, 2, 1, 0):
            s.tick(s.count * 0.1, brownout_level=level, queue_depth=level * 4)
        summary = s.summary()
        assert summary["ticks"] == 6
        assert summary["max_brownout_level"] == 2
        assert summary["max_queue_depth"] == 8
        assert summary["time_at_level"] == {
            "0": 0.5,
            "1": round(2 / 6, 6),
            "2": round(1 / 6, 6),
        }

    def test_bad_config_rejected(self):
        with pytest.raises(ReproError, match="clock"):
            TimelineSampler(clock="sundial")
        with pytest.raises(ReproError, match="tick_s"):
            TimelineSampler(tick_s=0.0)
        with pytest.raises(ReproError, match="capacity"):
            TimelineSampler(capacity=0)


class TestFragmentValidation:
    def _sampler(self):
        s = TimelineSampler(clock="virtual", tick_s=0.05)
        for i in range(4):
            s.tick(
                i * 0.05,
                queue_depth=i,
                brownout_level=min(i, 1),
                offered=i * 2,
                completed=i,
            )
        return s

    def test_fragment_validates(self):
        validate_timeline(self._sampler().fragment())

    def test_document_validates_via_dispatch(self):
        doc = self._sampler().document(run="t").body
        assert doc["schema"] == "timeline/v1"
        assert doc["context"]["bench"] == "timeline"
        validate("timeline", doc)

    def test_doctored_summary_rejected(self):
        frag = self._sampler().fragment()
        frag["summary"]["max_brownout_level"] = 9
        with pytest.raises(SchemaError, match="the ticks say"):
            validate_timeline(frag)

    def test_non_monotone_ledger_rejected(self):
        frag = self._sampler().fragment()
        frag["ticks"][-1]["offered"] = 0
        with pytest.raises(SchemaError, match="cumulative"):
            validate_timeline(frag)

    def test_non_monotone_tick_index_rejected(self):
        frag = self._sampler().fragment()
        frag["ticks"][1]["tick"] = 0
        with pytest.raises(SchemaError, match="must exceed"):
            validate_timeline(frag)

    def test_negative_counter_delta_rejected(self):
        frag = self._sampler().fragment()
        frag["ticks"][0]["counters"] = {"c": -1}
        with pytest.raises(SchemaError, match="non-negative"):
            validate_timeline(frag)


class TestVirtualByteIdentity:
    """A virtual-clock timeline replays byte-identically (the CI ``cmp``
    contract), and sampler-off documents never carry timeline keys."""

    CFG = {
        "rates": (300.0, 600.0),
        "queries": 80,
        "n": 300,
        "cap": 2000,
        "clock": "virtual",
        "timeline": True,
        "timeline_tick_s": 0.05,
    }

    def test_load_sweep_timelines_replay_byte_identically(self):
        from repro.load.sweep import run_load_sweep

        docs = [json.dumps(run_load_sweep(dict(self.CFG))[2], sort_keys=True)
                for _ in range(2)]
        assert docs[0] == docs[1]
        doc = json.loads(docs[0])
        for row in doc["rows"]:
            frag = row["timeline"]
            validate_timeline(frag)
            assert frag["clock"] == "virtual"
            assert frag["count"] > 0

    def test_sampler_off_rows_carry_no_timeline(self):
        from repro.load.sweep import run_load_sweep

        cfg = {k: v for k, v in self.CFG.items()
               if k not in ("timeline", "timeline_tick_s")}
        _, _, doc = run_load_sweep(cfg)
        assert all("timeline" not in row for row in doc["rows"])
        assert "timeline" not in doc["context"]
        assert "timeline_tick_s" not in doc["context"]


def _tick_plans():
    """Per-shard, per-tick observations: (counter deltas, governor ints)."""
    counter_names = st.sampled_from(["a", "b", "serve.x"])
    deltas = st.dictionaries(counter_names, st.integers(0, 5), max_size=3)
    governor = st.fixed_dictionaries(
        {
            "queue_depth": st.integers(0, 9),
            "inflight": st.integers(0, 4),
            "brownout_level": st.integers(0, 3),
            "wait_s": st.floats(0, 0.5, allow_nan=False, width=32),
            "completed": st.integers(0, 6),
        }
    )
    return st.tuples(deltas, governor)


class TestShardMergeParity:
    @settings(max_examples=40, deadline=None)
    @given(
        plans=st.lists(  # shards
            st.lists(_tick_plans(), min_size=1, max_size=6),  # ticks
            min_size=1,
            max_size=3,
        )
    )
    def test_merged_shards_equal_single_process_timeline(self, plans):
        """K shard timelines merged == one process observing all K streams."""
        ticks = max(len(p) for p in plans)
        tick_s = 0.05

        # Shard side: each shard has its own registry and fresh sampler.
        states = []
        for plan in plans:
            reg = MetricsRegistry()
            shard = TimelineSampler(clock="virtual", tick_s=tick_s, registry=reg)
            completed = 0
            for i, (deltas, gov) in enumerate(plan):
                for name, d in deltas.items():
                    reg.counter(name).inc(d)
                completed += gov["completed"]
                shard.tick(
                    i * tick_s,
                    queue_depth=gov["queue_depth"],
                    queue_wait_s=gov["wait_s"],
                    inflight=gov["inflight"],
                    brownout_level=gov["brownout_level"],
                    completed=completed,
                )
            states.append(shard.state())
        merged = merge_timeline_states(states, tick_s=tick_s)

        # Single-process side: one registry sees the summed increments,
        # one sampler sees the combined governor state.
        reg = MetricsRegistry()
        single = TimelineSampler(clock="virtual", tick_s=tick_s, registry=reg)
        completed_per_shard = [0] * len(plans)
        for i in range(ticks):
            live = [
                (s, plan[i]) for s, plan in enumerate(plans) if i < len(plan)
            ]
            for _, (deltas, _) in live:
                for name, d in deltas.items():
                    reg.counter(name).inc(d)
            for s, (_, gov) in live:
                completed_per_shard[s] += gov["completed"]
            single.tick(
                i * tick_s,
                queue_depth=sum(gov["queue_depth"] for _, (_, gov) in live),
                queue_wait_s=max(gov["wait_s"] for _, (_, gov) in live),
                inflight=sum(gov["inflight"] for _, (_, gov) in live),
                brownout_level=max(
                    gov["brownout_level"] for _, (_, gov) in live
                ),
                completed=sum(
                    completed_per_shard[s] for s, (_, gov) in live
                ),
            )

        assert merged.samples() == single.samples()
        assert merged.summary() == single.summary()


@pytest.mark.slow
class TestShardRideAlong:
    def test_process_shards_fold_into_parent_sampler(
        self, tiers_instance, fast_params
    ):
        """An active parent sampler collects shard-local captures through
        the obs_state path (winners only, like counters and spans)."""
        from repro.obs import runtime as rt
        from repro.serve import KnapsackService

        rt.REGISTRY.reset()
        rt.TRACER.reset_worker()
        rt.RECORDER.clear()
        sampler = TimelineSampler(clock="wall", tick_s=0.25, registry=rt.REGISTRY)
        previous = rt.activate_timeline(sampler)
        try:
            svc = KnapsackService(
                tiers_instance, 0.1, seed=42, params=fast_params,
                cache=False, executor="process",
            )
            svc.answer_batch(list(range(0, 60, 3)), nonce=31, workers=2)
            svc.close()
        finally:
            rt.activate_timeline(previous) if previous is not None \
                else rt.deactivate_timeline()
        assert sampler.count >= 1
        merged_counters: dict[str, int] = {}
        for tick in sampler.samples():
            for name, delta in tick["counters"].items():
                merged_counters[name] = merged_counters.get(name, 0) + delta
        assert merged_counters.get("sampler.samples", 0) > 0

    def test_inactive_parent_ships_no_timeline(
        self, tiers_instance, fast_params
    ):
        from repro.obs import runtime as rt
        from repro.serve import KnapsackService

        rt.REGISTRY.reset()
        rt.TRACER.reset_worker()
        rt.RECORDER.clear()
        rt.deactivate_timeline()
        svc = KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params,
            cache=False, executor="process",
        )
        report = svc.answer_batch(list(range(0, 30, 3)), nonce=31, workers=2)
        svc.close()
        assert len(report.answers) == 10
        assert rt.TIMELINE is None
