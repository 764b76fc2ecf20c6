"""Tests for the perf-regression sentinel (``bench-diff/v1``).

The differ must be noise-aware (relative threshold AND absolute floor
for timings), strict about determinism (any exact-count mismatch is a
drift), and hardware-honest (``relative_only`` compares dimensionless
metrics only).
"""

import pytest

from repro.obs.diff import BENCH_DIFF_SCHEMA, diff_documents
from repro.obs.schema import validate_bench_diff


def bench_doc(rows, name="cold_pipeline"):
    return {"schema": "bench-result/v1", "name": name, "rows": rows}


def row(mode="block_path", **overrides):
    base = {
        "mode": mode,
        "queries": 2,
        "samples": 1000,
        "blocks": 4,
        "wall_clock_s": 1.0,
        "latency_ms": 500.0,
        "speedup": 10.0,
    }
    base.update(overrides)
    return base


class TestDiffDocuments:
    def test_self_compare_is_ok(self):
        doc = bench_doc([row()])
        out = diff_documents(doc, doc)
        assert out["schema"] == BENCH_DIFF_SCHEMA
        assert out["ok"] is True
        assert out["regressions"] == out["drifts"] == 0
        validate_bench_diff(out)

    def test_doctored_timing_regresses(self):
        base = bench_doc([row()])
        cand = bench_doc([row(wall_clock_s=4.0, latency_ms=2000.0)])
        out = diff_documents(base, cand)
        assert out["ok"] is False
        assert out["regressions"] == 2
        statuses = {
            (f["metric"], f["status"]) for f in out["findings"]
        }
        assert ("wall_clock_s", "regression") in statuses
        assert ("latency_ms", "regression") in statuses
        validate_bench_diff(out)

    def test_sub_floor_jitter_never_regresses(self):
        # 10x relative excursion but far below the absolute floor.
        base = bench_doc([row(wall_clock_s=0.0001, latency_ms=0.1)])
        cand = bench_doc([row(wall_clock_s=0.001, latency_ms=1.0)])
        out = diff_documents(base, cand, abs_floor_s=0.05)
        assert out["ok"] is True

    def test_count_mismatch_is_drift_not_regression(self):
        base = bench_doc([row()])
        cand = bench_doc([row(samples=1001)])
        out = diff_documents(base, cand)
        assert out["ok"] is False
        assert out["drifts"] == 1 and out["regressions"] == 0
        (drift,) = [f for f in out["findings"] if f["status"] == "drift"]
        assert drift["metric"] == "samples"

    def test_faster_candidate_is_improvement_not_failure(self):
        base = bench_doc([row(wall_clock_s=4.0, latency_ms=2000.0)])
        cand = bench_doc([row()])
        out = diff_documents(base, cand)
        assert out["ok"] is True
        assert out["improvements"] >= 1

    def test_rate_metric_drop_regresses(self):
        base = bench_doc([row(speedup=10.0)])
        cand = bench_doc([row(speedup=2.0)])
        out = diff_documents(base, cand)
        assert out["ok"] is False
        assert any(
            f["metric"] == "speedup" and f["status"] == "regression"
            for f in out["findings"]
        )

    def test_relative_only_ignores_absolute_timings(self):
        # 100x slower wall clock but identical speedup: cross-hardware OK.
        base = bench_doc([row()])
        cand = bench_doc([row(wall_clock_s=100.0, latency_ms=50000.0, samples=9)])
        out = diff_documents(base, cand, relative_only=True)
        assert out["ok"] is True
        assert {f["metric"] for f in out["findings"]} <= {
            "speedup",
            "speedup_vs_per_query",
        }

    def test_relative_only_still_catches_speedup_regression(self):
        base = bench_doc([row(speedup=10.0)])
        cand = bench_doc([row(speedup=1.1)])
        out = diff_documents(base, cand, relative_only=True)
        assert out["ok"] is False

    def test_unmatched_rows_are_reported_not_compared(self):
        base = bench_doc([row(mode="object_path"), row(mode="block_path")])
        cand = bench_doc([row(mode="block_path"), row(mode="parallel_x4")])
        out = diff_documents(base, cand)
        assert out["rows_compared"] == 1
        assert any("object_path" in m for m in out["rows_missing"])
        assert any("(candidate only)" in m for m in out["rows_missing"])

    def test_rows_keyed_by_mode_n_family(self):
        base = bench_doc([row(n=1000, family="uniform")])
        cand = bench_doc([row(n=2000, family="uniform")])
        out = diff_documents(base, cand)
        assert out["rows_compared"] == 0

    def test_rows_without_mode_are_labelled_by_their_key_alone(self):
        # chaos-report rows carry a fault rate but no mode.
        doc = {
            "schema": "chaos-report/v1",
            "name": "chaos_sweep",
            "rows": [
                {"probe_failure_rate": 0.0, "availability": 1.0},
                {"probe_failure_rate": 0.05, "availability": 1.0},
            ],
        }
        out = diff_documents(doc, doc)
        assert {f["row"] for f in out["findings"]} == {"rate=0", "rate=0.05"}

    def test_threshold_must_exceed_one(self):
        doc = bench_doc([row()])
        with pytest.raises(ValueError):
            diff_documents(doc, doc, threshold=1.0)

    def test_ok_consistent_with_counts(self):
        base = bench_doc([row()])
        cand = bench_doc([row(wall_clock_s=9.0, samples=7)])
        out = diff_documents(base, cand)
        assert out["ok"] == (out["regressions"] == 0 and out["drifts"] == 0)
        validate_bench_diff(out)


def timeline_fragment(*, ticks=4, max_level=1, max_depth=3, time_at_level=None):
    return {
        "schema": "timeline/v1",
        "clock": "virtual",
        "tick_s": 0.05,
        "capacity": 512,
        "count": ticks,
        "dropped_ticks": 0,
        "ticks": [],  # the sentinel reads the summary, not raw ticks
        "summary": {
            "ticks": ticks,
            "max_brownout_level": max_level,
            "max_queue_depth": max_depth,
            "max_inflight": 1,
            "time_at_level": time_at_level or {"0": 0.75, "1": 0.25},
        },
    }


class TestTimelineSentinels:
    """Timeline-derived metrics: trajectory counts are exact (drift on
    any mismatch), time-at-level fractions follow rate-family rules and
    survive ``relative_only``."""

    def test_identical_timelines_are_ok(self):
        doc = bench_doc([row(timeline=timeline_fragment())])
        out = diff_documents(doc, doc)
        assert out["ok"] is True
        assert any(f["metric"] == "timeline_ticks" for f in out["findings"])
        validate_bench_diff(out)

    def test_trajectory_change_is_drift(self):
        base = bench_doc([row(timeline=timeline_fragment(max_level=1))])
        cand = bench_doc([row(timeline=timeline_fragment(max_level=2))])
        out = diff_documents(base, cand)
        assert out["ok"] is False
        (drift,) = [f for f in out["findings"] if f["status"] == "drift"]
        assert drift["metric"] == "timeline_max_brownout_level"

    def test_relative_only_skips_exact_trajectory_counts(self):
        base = bench_doc([row(timeline=timeline_fragment(ticks=4))])
        cand = bench_doc([row(timeline=timeline_fragment(ticks=9))])
        out = diff_documents(base, cand, relative_only=True)
        assert not any(
            f["metric"] == "timeline_ticks" for f in out["findings"]
        )

    def test_time_at_level_collapse_regresses_even_relative_only(self):
        # Brownout engagement collapsing 5x is a behavior change the
        # cross-hardware diff must still see.
        base = bench_doc(
            [row(timeline=timeline_fragment(
                time_at_level={"0": 0.5, "1": 0.5}))]
        )
        cand = bench_doc(
            [row(timeline=timeline_fragment(
                time_at_level={"0": 0.95, "1": 0.05}))]
        )
        out = diff_documents(base, cand, relative_only=True)
        assert any(
            f["metric"] == "timeline_time_at_level_1_ratio"
            and f["status"] == "regression"
            for f in out["findings"]
        )

    def test_rows_without_timelines_are_unaffected(self):
        out = diff_documents(bench_doc([row()]), bench_doc([row()]))
        assert not any(
            f["metric"].startswith("timeline") for f in out["findings"]
        )


class TestGaugeFamilies:
    """Gauges are no longer invisible to the sentinel: deterministic
    state gauges (.size/.level/.depth/.state/.inflight) drift on any
    mismatch; measurement gauges threshold in either direction."""

    def test_doctored_exact_gauge_trips_sentinel(self):
        base = bench_doc([row(gauges={"serve.cache.size": 64.0})])
        cand = bench_doc([row(gauges={"serve.cache.size": 65.0})])
        out = diff_documents(base, cand)
        assert out["ok"] is False
        (drift,) = [f for f in out["findings"] if f["status"] == "drift"]
        assert drift["metric"] == "gauge:serve.cache.size"
        assert "deterministic gauge" in drift["note"]
        validate_bench_diff(out)

    def test_measurement_gauge_within_threshold_is_ok(self):
        base = bench_doc([row(gauges={"pool.temp_c": 50.0})])
        cand = bench_doc([row(gauges={"pool.temp_c": 60.0})])
        assert diff_documents(base, cand)["ok"] is True

    def test_measurement_gauge_excursion_is_drift_both_directions(self):
        for doctored in (500.0, 5.0):
            base = bench_doc([row(gauges={"pool.temp_c": 50.0})])
            cand = bench_doc([row(gauges={"pool.temp_c": doctored})])
            out = diff_documents(base, cand)
            assert out["ok"] is False
            (drift,) = [f for f in out["findings"] if f["status"] == "drift"]
            assert drift["metric"] == "gauge:pool.temp_c"
            assert "gauge moved" in drift["note"]

    def test_relative_only_skips_exact_gauges(self):
        base = bench_doc([row(gauges={"serve.cache.size": 64.0})])
        cand = bench_doc([row(gauges={"serve.cache.size": 65.0})])
        out = diff_documents(base, cand, relative_only=True)
        assert out["ok"] is True

    def test_document_level_gauges_compared(self):
        # metrics-snapshot/v2 documents carry gauges at the top level.
        base = {"schema": "metrics-snapshot/v2", "name": "m", "rows": [],
                "gauges": {"serve.queue.depth": 0.0}}
        cand = {"schema": "metrics-snapshot/v2", "name": "m", "rows": [],
                "gauges": {"serve.queue.depth": 7.0}}
        out = diff_documents(base, cand)
        assert out["ok"] is False
        (drift,) = [f for f in out["findings"] if f["status"] == "drift"]
        assert drift["row"] == "gauges"
