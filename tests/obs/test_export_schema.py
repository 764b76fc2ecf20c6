"""Tests for the exporters and the schema validators."""

import copy
import json
import pathlib
import re

import numpy as np
import pytest

from repro.obs.export import (
    append_jsonl,
    jsonable,
    read_json,
    render_span_tree,
    snapshot_document,
    trace_document,
    write_json,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import (
    SchemaError,
    validate,
    validate_bench_observability,
    validate_bench_result,
    validate_metrics_snapshot,
    validate_trace,
)
from repro.obs.trace import Tracer


def _sample_trace():
    t = Tracer()
    t.enable()
    with t.span("root") as root:
        with t.span("phase.a"):
            t.add("queries", 2)
            t.add("samples", 10)
        with t.span("phase.b"):
            t.add("samples", 5)
    return root


class TestJsonable:
    def test_numpy_scalars_and_arrays(self):
        out = jsonable({"a": np.int64(3), "b": np.array([1.5, 2.5]), "c": (1, 2)})
        assert out == {"a": 3, "b": [1.5, 2.5], "c": [1, 2]}
        json.dumps(out)  # actually serializable

    def test_nonfinite_floats_become_strings(self):
        out = jsonable({"inf": float("inf"), "nan": float("nan")})
        json.dumps(out)
        assert out["inf"] == "inf"

    def test_bools_survive(self):
        assert jsonable({"t": True, "n": None}) == {"t": True, "n": None}


class TestWriters:
    def test_write_and_read_json(self, tmp_path):
        p = write_json(tmp_path / "sub" / "doc.json", {"x": np.float64(1.5)})
        assert read_json(p) == {"x": 1.5}

    @pytest.mark.parametrize(
        "text, message", [("{not json", "Expecting"), ("[1]", "not a JSON object")]
    )
    def test_read_json_names_a_file_that_holds_no_object(self, text, message, tmp_path):
        p = tmp_path / "doc.json"
        p.write_text(text)
        with pytest.raises(ValueError, match=message) as exc:
            read_json(p)
        assert str(exc.value).startswith(f"{p}: ")

    def test_append_jsonl(self, tmp_path):
        p = tmp_path / "log.jsonl"
        append_jsonl(p, {"i": 1})
        append_jsonl(p, {"i": 2})
        lines = [json.loads(line) for line in p.read_text().splitlines()]
        assert lines == [{"i": 1}, {"i": 2}]


class TestTraceDocument:
    def test_valid_and_partition_invariant(self):
        doc = trace_document(_sample_trace(), family="uniform", n=100)
        validate_trace(doc)
        assert doc["totals"]["queries"]["total"] == 2
        assert doc["totals"]["samples"]["by_phase"] == {"phase.a": 10, "phase.b": 5}
        assert doc["context"]["n"] == 100

    def test_validator_catches_broken_partition(self):
        doc = trace_document(_sample_trace())
        doc["totals"]["queries"]["total"] = 99
        with pytest.raises(SchemaError, match="per-phase counts sum"):
            validate_trace(doc)

    def test_validator_catches_missing_keys(self):
        with pytest.raises(SchemaError) as err:
            validate_trace({"schema": "trace/v2"})
        assert "missing key" in str(err.value)

    def test_render_span_tree(self):
        text = render_span_tree(_sample_trace())
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert any("phase.a" in line and "queries=2" in line for line in lines)
        assert any("samples=10" in line for line in lines)


class TestSnapshotDocument:
    def test_valid_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.histogram("h").observe(1.0)
        doc = snapshot_document(reg, run="t")
        validate_metrics_snapshot(doc)
        assert doc["context"] == {"bench": "metrics", "run": "t"}

    def test_bad_counter_type_rejected(self):
        doc = {
            "schema": "metrics-snapshot/v2",
            "counters": {"c": -1},
            "gauges": {},
            "histograms": {},
        }
        with pytest.raises(SchemaError, match="non-negative"):
            validate_metrics_snapshot(doc)


class TestBenchSchemas:
    def test_bench_result_roundtrip(self):
        doc = {
            "schema": "bench-result/v1",
            "name": "E0",
            "title": "t",
            "rows": [{"a": 1}],
            "wall_clock_s": 0.5,
            "total_queries": 3,
            "total_samples": 10,
        }
        validate_bench_result(doc)
        doc.pop("wall_clock_s")
        with pytest.raises(SchemaError):
            validate_bench_result(doc)

    def test_bench_observability_roundtrip(self):
        doc = {
            "schema": "bench-observability/v1",
            "experiments": {
                "E0": {
                    "title": "t",
                    "wall_clock_s": 0.5,
                    "total_queries": 3,
                    "total_samples": 10,
                    "sample_batch_histogram": {"count": 1, "sum": 10.0},
                }
            },
        }
        validate_bench_observability(doc)
        doc["experiments"]["E0"].pop("total_samples")
        with pytest.raises(SchemaError):
            validate_bench_observability(doc)

    @pytest.mark.parametrize(
        "total_samples, histogram, message",
        [
            # E11's old entry: another run's cumulative histogram.
            (0, {"count": 10, "sum": 1451700.0}, "count is 10"),
            (1451700, {"count": 10, "sum": 1451699.0}, "sum is 1451699.0"),
            (10, {"count": 0, "sum": 0.0}, "count is 0"),
        ],
    )
    def test_bench_observability_histogram_must_match_its_run(
        self, total_samples, histogram, message
    ):
        entry = {
            "title": "t",
            "wall_clock_s": 0.5,
            "total_queries": 3,
            "total_samples": total_samples,
            "sample_batch_histogram": histogram,
        }
        doc = {"schema": "bench-observability/v1", "experiments": {"E0": entry}}
        with pytest.raises(SchemaError, match=message):
            validate_bench_observability(doc)

    def test_dispatch(self):
        with pytest.raises(ValueError, match="unknown schema kind"):
            validate("nope", {})


class TestEmittedArtifacts:
    """The artifacts this repo commits must validate against their own
    schemas (the same check the CI smoke job performs)."""

    def test_bench_results_json(self):
        import pathlib

        results = pathlib.Path(__file__).parent.parent.parent / "benchmarks" / "results"
        docs = sorted(results.glob("*.json"))
        for p in docs:
            validate_bench_result(json.loads(p.read_text()))

    def test_bench_observability_json(self):
        import pathlib

        summary = (
            pathlib.Path(__file__).parent.parent.parent / "BENCH_observability.json"
        )
        if summary.exists():
            validate_bench_observability(json.loads(summary.read_text()))


# ---------------------------------------------------------------------------
# The doctored-document table: one mutation per validator rule.  Each case
# starts from a valid base document, breaks exactly one rule, and requires
# a SchemaError with some problem naming the mutated field path.  The path
# is matched as a token (``rows[0]`` matches ``rows[0].queries`` but not
# ``rows[0]x``); the wording is free to change.
# ---------------------------------------------------------------------------

_ROOT = pathlib.Path(__file__).parent.parent.parent
NAN, INF = float("nan"), float("inf")


def _tick(i, *, depth, level, offered, completed):
    return {
        "tick": i,
        "t": i * 0.05,
        "counters": {"c": 1},
        "gauges": {"g": 0.5},
        "queue_depth": depth,
        "inflight": 1,
        "brownout_level": level,
        "offered": offered,
        "completed": completed,
        "dropped": 0,
        "degraded": 0,
        "queue_wait_ms": 0.0,
    }


_BASES = {
    "bench-load": lambda: json.loads((_ROOT / "BENCH_load.json").read_text()),
    "bench-overload": lambda: json.loads(
        (_ROOT / "BENCH_overload.json").read_text()
    ),
    "chaos": lambda: {
        "schema": "chaos-report/v1",
        "name": "chaos",
        "seed": 7,
        "lca_seed": 42,
        "n": 2000,
        "epsilon": 0.1,
        "queries_per_batch": 40,
        "batches": 3,
        "fault_free_equivalence": True,
        "availability_target": 0.99,
        "retry": {
            "max_retries": 3,
            "backoff_base_s": 0.0,
            "backoff_factor": 2.0,
            "jitter": 0.0,
        },
        "rows": [
            {"probe_failure_rate": 0.0, "answers": 120, "degraded": 0,
             "batch_aborts": 0, "probe_retries": 0,
             "probe_failures_injected": 0, "availability": 1.0,
             "meets_target": True},
            {"probe_failure_rate": 0.5, "answers": 120, "degraded": 12,
             "batch_aborts": 0, "probe_retries": 30,
             "probe_failures_injected": 40, "availability": 0.9,
             "meets_target": False},
        ],
        "all_meet_target": False,
    },
    "events": lambda: {
        "schema": "events/v1",
        "capacity": 8,
        "dropped": 0,
        "count": 2,
        "events": [
            {"seq": 1, "kind": "probe.retry", "trace_id": None,
             "span_id": None, "attrs": {"attempt": 1}},
            {"seq": 2, "kind": "shard.degraded", "trace_id": "t1",
             "span_id": "s1", "attrs": {}},
        ],
        "context": {"seed": 7},
    },
    "suite-report": lambda: {
        "schema": "suite-report/v1",
        "name": "s",
        "title": "t",
        "deterministic": True,
        "cells": [
            {"id": "a", "kind": "approx", "expect": "pass", "outcome": "pass",
             "metrics": {}, "checks": [{"name": "ratio", "ok": True}]},
            {"id": "b", "kind": "load", "expect": "budget_failure",
             "outcome": "expected_failure", "metrics": {},
             "checks": [{"name": "p99", "ok": True}]},
            {"id": "c", "kind": "fleet", "expect": "pass", "outcome": "fail",
             "metrics": {}, "checks": [{"name": "lemma49_agreement",
                                        "ok": False}]},
        ],
        "rows": [{"mode": "suite:a"}, {"mode": "suite:b"}, {"mode": "suite:c"}],
        "summary": {"cells": 3, "passed": 1, "failed": 1,
                    "expected_failures": 1, "errors": 0},
        "ok": False,
        "context": {"bench": "suite", "suite": {}},
    },
    "bench-diff": lambda: {
        "schema": "bench-diff/v1",
        "baseline": {},
        "candidate": {},
        "threshold": 1.5,
        "abs_floor_s": 0.001,
        "relative_only": False,
        "rows_compared": 2,
        "rows_missing": ["r3", "r4 (candidate only)"],
        "rows_exempt": {"r3": "wall clock"},
        "rows_unchecked": [],
        "findings": [
            {"row": "r1", "metric": "p50", "status": "ok"},
            {"row": "r2", "metric": "p99", "status": "improvement"},
        ],
        "regressions": 0,
        "improvements": 1,
        "drifts": 0,
        "ok": True,
    },
    "timeline": lambda: {
        "schema": "timeline/v1",
        "name": "tl",
        "context": {"bench": "timeline"},
        "clock": "virtual",
        "tick_s": 0.05,
        "capacity": 16,
        "dropped_ticks": 0,
        "count": 2,
        "ticks": [
            _tick(0, depth=1, level=0, offered=2, completed=1),
            _tick(1, depth=3, level=1, offered=4, completed=2),
        ],
        "summary": {"ticks": 2, "max_brownout_level": 1, "max_queue_depth": 3,
                    "max_inflight": 1, "time_at_level": {"0": 0.5, "1": 0.5}},
    },
    "trace": lambda: trace_document(_sample_trace()),
    "metrics": lambda: {
        "schema": "metrics-snapshot/v2",
        "counters": {"c": 2},
        "gauges": {"g": 0.5},
        "histograms": {"h": {"count": 1, "sum": 1.0, "min": 1.0, "max": 1.0,
                             "mean": 1.0, "p50": 1.0, "p90": 1.0, "p99": 1.0}},
        "context": {"bench": "metrics"},
    },
    "bench-result": lambda: {
        "schema": "bench-result/v1",
        "name": "E0",
        "title": "t",
        "rows": [{"a": 1, "rerun_exempt": "machine-scale row"}],
        "wall_clock_s": 0.5,
        "total_queries": 3,
        "total_samples": 10,
    },
    "bench-observability": lambda: {
        "schema": "bench-observability/v1",
        "experiments": {
            "E0": {
                "title": "t",
                "wall_clock_s": 0.5,
                "total_queries": 3,
                "total_samples": 10,
                "sample_batch_histogram": {"count": 1, "sum": 10.0},
                "sampler_overhead": {
                    "rate": 100.0,
                    "baseline_p50_latency_ms": 2.0,
                    "sampled_p50_latency_ms": 2.04,
                    "overhead_frac": 0.02,
                    "budget_frac": 0.05,
                    "within_budget": True,
                },
            }
        },
    },
}


def _at(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


def put(value, *keys):
    """Mutation: set ``doc[k0][k1]...[kn] = value``."""
    def mutate(doc):
        _at(doc, keys[:-1])[keys[-1]] = value
    return mutate


def drop(*keys):
    """Mutation: delete ``doc[k0][k1]...[kn]``."""
    def mutate(doc):
        del _at(doc, keys[:-1])[keys[-1]]
    return mutate


def both(*mutations):
    def mutate(doc):
        for m in mutations:
            m(doc)
    return mutate


def flip(*keys):
    """Mutation: negate a boolean verdict."""
    def mutate(doc):
        _at(doc, keys[:-1])[keys[-1]] = not _at(doc, keys)
    return mutate


_OVERLOAD_EMPTY_ROW5 = both(
    *(put(0, "rows", 5, k) for k in ("queries", "completed", "dropped", "degraded")),
    put(0.5, "rows", 5, "availability"),
    put(1.0, "rows", 5, "full_quality"),
)

#: (kind, mutation, field path the problem list must name)
DOCTORED = [
    # -- bench-load: envelope, rows, ledger, quantiles, knee, context, totals
    ("bench-load", put("bench-load/v0", "schema"), "schema"),
    ("bench-load", put(3, "name"), "name"),
    ("bench-load", drop("title"), "title"),
    ("bench-load", put({}, "rows"), "rows"),
    ("bench-load", put(5, "rows", 0), "rows[0]"),
    ("bench-load", put("200", "rows", 0, "queries"), "rows[0].queries"),
    ("bench-load", put(-1, "rows", 0, "degraded"), "rows[0].degraded"),
    ("bench-load", put(1, "rows", 0, "dropped"), "rows[0]"),
    ("bench-load", put(-1.0, "rows", 0, "offered_qps"), "rows[0].offered_qps"),
    ("bench-load", drop("rows", 0, "achieved_qps"), "rows[0].achieved_qps"),
    ("bench-load", put("1.0", "rows", 0, "availability"), "rows[0].availability"),
    ("bench-load", put(0.5, "rows", 0, "availability"), "rows[0].availability"),
    ("bench-load", put("sundial", "rows", 0, "clock"), "rows[0].clock"),
    ("bench-load", put(5, "rows", 0, "arrival"), "rows[0].arrival"),
    ("bench-load", drop("rows", 0, "p99_latency_ms"), "rows[0].p99_latency_ms"),
    ("bench-load", put(-1.0, "rows", 0, "p50_queueing_ms"),
     "rows[0].p50_queueing_ms"),
    ("bench-load", put(1.0, "rows", 0, "p95_latency_ms"), "rows[0].p95_latency_ms"),
    ("bench-load", both(*(put(3.0, "rows", 0, f"{q}_queueing_ms")
                          for q in ("p50", "p95", "p99"))), "rows[0]"),
    ("bench-load", put({"schema": "timeline/v1"}, "rows", 0, "timeline"),
     "rows[0].timeline"),
    ("bench-load", put([], "knee"), "knee"),
    ("bench-load", put("yes", "knee", "detected"), "knee.detected"),
    ("bench-load", put(None, "knee", "rates"), "knee.rates"),
    ("bench-load", put(0, "knee", "knee_rate"), "knee.knee_rate"),
    ("bench-load", put("vibes", "knee", "reason"), "knee.reason"),
    ("bench-load", drop("knee", "index"), "knee.index"),
    ("bench-load", put(False, "knee", "detected"), "knee.knee_rate"),
    ("bench-load", drop("context"), "context"),
    ("bench-load", put("overload", "context", "bench"), "context.bench"),
    ("bench-load", put(1, "total_queries"), "total_queries"),
    ("bench-load", drop("total_completed"), "total_completed"),
    # -- bench-overload: the shared sweep rules, then its own
    ("bench-overload", put("bench-overload/v0", "schema"), "schema"),
    ("bench-overload", drop("name"), "name"),
    ("bench-overload", put(None, "rows"), "rows"),
    ("bench-overload", put(-3, "rows", 1, "completed"), "rows[1].completed"),
    ("bench-overload", put(5, "rows", 1, "dropped"), "rows[1]"),
    ("bench-overload", put(0.5, "rows", 0, "availability"), "rows[0].availability"),
    ("bench-overload", put("sundial", "rows", 0, "clock"), "rows[0].clock"),
    ("bench-overload", put(1.0, "rows", 2, "p99_latency_ms"),
     "rows[2].p99_latency_ms"),
    ("bench-overload", put(-1.0, "rows", 0, "p50_queueing_ms"),
     "rows[0].p50_queueing_ms"),
    ("bench-overload", put({"schema": "timeline/v1"}, "rows", 4, "timeline"),
     "rows[4].timeline"),
    ("bench-overload", put("sometimes", "knee", "detected"), "knee.detected"),
    ("bench-overload", put(-1.0, "knee", "knee_rate"), "knee.knee_rate"),
    ("bench-overload", put("vibes", "knee", "reason"), "knee.reason"),
    ("bench-overload", put("load", "context", "bench"), "context.bench"),
    ("bench-overload", put(0, "total_completed"), "total_completed"),
    ("bench-overload", put("turbo", "rows", 0, "mode"), "rows[0].mode"),
    ("bench-overload", put(0.1, "rows", 4, "availability"), "rows[4].availability"),
    ("bench-overload", put(0.9, "rows", 7, "availability"), "rows[7].availability"),
    ("bench-overload", drop("rows", 4, "full_quality"), "rows[4].full_quality"),
    ("bench-overload", put(0.5, "rows", 7, "full_quality"), "rows[7].full_quality"),
    ("bench-overload", _OVERLOAD_EMPTY_ROW5, "rows[5].full_quality"),
    ("bench-overload", put(-1, "rows", 5, "deadline_shed"), "rows[5].deadline_shed"),
    ("bench-overload", drop("rows", 5, "brownout_shed"), "rows[5].brownout_shed"),
    ("bench-overload", put("on", "rows", 5, "brownout"), "rows[5].brownout"),
    ("bench-overload", put(True, "rows", 4, "brownout"), "rows[4]"),
    ("bench-overload", put(None, "comparison"), "comparison"),
    ("bench-overload", put(0, "comparison", "rate"), "comparison.rate"),
    ("bench-overload", drop("comparison", "floor"), "comparison.floor"),
    ("bench-overload", put("yes", "comparison", "floor_met"),
     "comparison.floor_met"),
    ("bench-overload", flip("comparison", "floor_met"), "comparison.floor_met"),
    ("bench-overload", flip("comparison", "off_below_on"),
     "comparison.off_below_on"),
    # -- chaos
    ("chaos", put("chaos-report/v0", "schema"), "schema"),
    ("chaos", put(1.0, "wall_clock_s"), "wall_clock_s"),
    ("chaos", drop("name"), "name"),
    ("chaos", put("7", "seed"), "seed"),
    ("chaos", drop("lca_seed"), "lca_seed"),
    ("chaos", put(2000.0, "n"), "n"),
    ("chaos", put("0.1", "epsilon"), "epsilon"),
    ("chaos", drop("queries_per_batch"), "queries_per_batch"),
    ("chaos", put(None, "batches"), "batches"),
    ("chaos", put(1, "fault_free_equivalence"), "fault_free_equivalence"),
    ("chaos", drop("availability_target"), "availability_target"),
    ("chaos", put([], "retry"), "retry"),
    ("chaos", drop("retry", "jitter"), "retry.jitter"),
    ("chaos", put({}, "rows"), "rows"),
    ("chaos", put("row", "rows", 0), "rows[0]"),
    ("chaos", put(-1, "rows", 0, "batch_aborts"), "rows[0].batch_aborts"),
    ("chaos", drop("rows", 1, "probe_failures_injected"),
     "rows[1].probe_failures_injected"),
    ("chaos", put("0.5", "rows", 1, "probe_failure_rate"),
     "rows[1].probe_failure_rate"),
    ("chaos", put(0.123456, "rows", 0, "availability"), "rows[0].availability"),
    ("chaos", drop("rows", 0, "availability"), "rows[0].availability"),
    ("chaos", put("yes", "rows", 0, "meets_target"), "rows[0].meets_target"),
    ("chaos", flip("rows", 1, "meets_target"), "rows[1].meets_target"),
    ("chaos", put(1, "rows", 0, "batch_aborts"), "rows[0].meets_target"),
    ("chaos", flip("all_meet_target"), "all_meet_target"),
    ("chaos", drop("all_meet_target"), "all_meet_target"),
    # -- events
    ("events", put("events/v0", "schema"), "schema"),
    ("events", put(3, "timestamp"), "timestamp"),
    ("events", put(0, "capacity"), "capacity"),
    ("events", put(-1, "dropped"), "dropped"),
    ("events", put(3, "count"), "count"),
    ("events", drop("count"), "count"),
    ("events", put({}, "events"), "events"),
    ("events", put(None, "events", 0), "events[0]"),
    ("events", drop("events", 0, "kind"), "events[0].kind"),
    ("events", put(1, "events", 1, "seq"), "events[1].seq"),
    ("events", put(0, "events", 0, "seq"), "events[0].seq"),
    ("events", put("2", "events", 1, "seq"), "events[1].seq"),
    ("events", put([], "events", 0, "attrs"), "events[0].attrs"),
    ("events", put(1.0, "events", 0, "attrs", "wall_clock_s"), "events[0].attrs"),
    ("events", put(5, "events", 1, "trace_id"), "events[1].trace_id"),
    ("events", put(5, "events", 1, "span_id"), "events[1].span_id"),
    ("events", drop("context"), "context"),
    # -- suite-report
    ("suite-report", put("suite-report/v0", "schema"), "schema"),
    ("suite-report", put(1, "name"), "name"),
    ("suite-report", drop("title"), "title"),
    ("suite-report", put("yes", "deterministic"), "deterministic"),
    ("suite-report", put(1.0, "wall_clock_s"), "wall_clock_s"),
    ("suite-report", put(1.0, "rows", 0, "time_s"), "rows[0]"),
    ("suite-report", put({}, "cells"), "cells"),
    ("suite-report", put(7, "cells", 0), "cells[0]"),
    ("suite-report", drop("cells", 0, "id"), "cells[0].id"),
    ("suite-report", put("a", "cells", 1, "id"), "cells[1].id"),
    ("suite-report", put("astrology", "cells", 0, "kind"), "cells[0].kind"),
    ("suite-report", put("maybe", "cells", 0, "expect"), "cells[0].expect"),
    ("suite-report", put("meh", "cells", 0, "outcome"), "cells[0].outcome"),
    ("suite-report", put([], "cells", 0, "metrics"), "cells[0].metrics"),
    ("suite-report", put({}, "cells", 0, "checks"), "cells[0].checks"),
    ("suite-report", put(1, "cells", 0, "checks", 0), "cells[0].checks[0]"),
    ("suite-report", drop("cells", 0, "checks", 0, "name"),
     "cells[0].checks[0].name"),
    ("suite-report", put("true", "cells", 0, "checks", 0, "ok"),
     "cells[0].checks[0].ok"),
    ("suite-report", put("fail", "cells", 0, "outcome"), "cells[0].outcome"),
    ("suite-report", put("pass", "cells", 1, "outcome"), "cells[1].outcome"),
    ("suite-report", put("pass", "cells", 2, "outcome"), "cells[2].outcome"),
    ("suite-report", put({}, "rows"), "rows"),
    ("suite-report", put(3, "rows", 0), "rows[0]"),
    ("suite-report", drop("rows", 0, "mode"), "rows[0].mode"),
    ("suite-report", put("cell:a", "rows", 0, "mode"), "rows[0].mode"),
    ("suite-report", put("suite:zzz", "rows", 0, "mode"), "rows[0].mode"),
    ("suite-report", put([], "summary"), "summary"),
    ("suite-report", put(4, "summary", "cells"), "summary.cells"),
    ("suite-report", put(2, "summary", "passed"), "summary.passed"),
    ("suite-report", drop("summary", "errors"), "summary.errors"),
    ("suite-report", put(True, "ok"), "ok"),
    ("suite-report", drop("ok"), "ok"),
    ("suite-report", drop("context"), "context"),
    ("suite-report", put("load", "context", "bench"), "context.bench"),
    # -- bench-diff
    ("bench-diff", put("bench-diff/v0", "schema"), "schema"),
    ("bench-diff", put([], "baseline"), "baseline"),
    ("bench-diff", drop("candidate"), "candidate"),
    ("bench-diff", put(1.0, "threshold"), "threshold"),
    ("bench-diff", put("1.5", "threshold"), "threshold"),
    ("bench-diff", drop("abs_floor_s"), "abs_floor_s"),
    ("bench-diff", put("no", "relative_only"), "relative_only"),
    ("bench-diff", put(2.0, "rows_compared"), "rows_compared"),
    ("bench-diff", put({}, "rows_missing"), "rows_missing"),
    ("bench-diff", put({}, "findings"), "findings"),
    ("bench-diff", put(0, "findings", 0), "findings[0]"),
    ("bench-diff", drop("findings", 0, "row"), "findings[0].row"),
    ("bench-diff", put(5, "findings", 0, "metric"), "findings[0].metric"),
    ("bench-diff", put("meh", "findings", 0, "status"), "findings[0].status"),
    ("bench-diff", put("regression", "findings", 0, "status"), "regressions"),
    ("bench-diff", put(2, "improvements"), "improvements"),
    ("bench-diff", put(1, "drifts"), "drifts"),
    ("bench-diff", put("no", "ok"), "ok"),
    ("bench-diff", put(False, "ok"), "ok"),
    # -- timeline
    ("timeline", put("timeline/v0", "schema"), "schema"),
    ("timeline", put(5, "name"), "name"),
    ("timeline", put(5, "title"), "title"),
    ("timeline", put("load", "context", "bench"), "context.bench"),
    ("timeline", put("sundial", "clock"), "clock"),
    ("timeline", put(0.0, "tick_s"), "tick_s"),
    ("timeline", put(0, "capacity"), "capacity"),
    ("timeline", put(-1, "dropped_ticks"), "dropped_ticks"),
    ("timeline", put(5, "count"), "count"),
    ("timeline", put({}, "ticks"), "ticks"),
    ("timeline", put(None, "ticks", 0), "ticks[0]"),
    ("timeline", put(0, "ticks", 1, "tick"), "ticks[1].tick"),
    ("timeline", put(-1.0, "ticks", 1, "t"), "ticks[1].t"),
    ("timeline", put({"c": -1}, "ticks", 0, "counters"), "ticks[0].counters['c']"),
    ("timeline", put({"g": "high"}, "ticks", 0, "gauges"), "ticks[0].gauges['g']"),
    ("timeline", put(-1, "ticks", 0, "inflight"), "ticks[0].inflight"),
    ("timeline", drop("ticks", 0, "degraded"), "ticks[0].degraded"),
    ("timeline", put(-0.5, "ticks", 0, "queue_wait_ms"), "ticks[0].queue_wait_ms"),
    ("timeline", put(0, "ticks", 1, "completed"), "ticks[1].completed"),
    ("timeline", put([], "summary"), "summary"),
    ("timeline", put(3, "summary", "ticks"), "summary.ticks"),
    ("timeline", put(9, "summary", "max_brownout_level"),
     "summary.max_brownout_level"),
    ("timeline", put(2, "summary", "max_queue_depth"), "summary.max_queue_depth"),
    ("timeline", put(0, "summary", "max_inflight"), "summary.max_inflight"),
    ("timeline", put([], "summary", "time_at_level"), "summary.time_at_level"),
    ("timeline", put({"0": 1.0}, "summary", "time_at_level"),
     "summary.time_at_level"),
    ("timeline", put(0.25, "summary", "time_at_level", "1"),
     "summary.time_at_level['1']"),
    # -- trace, metrics, bench-result, bench-observability
    ("trace", put("trace/v1", "schema"), "schema"),
    ("trace", put("trace", "context"), "context"),
    ("trace", drop("root", "span_id"), "root.span_id"),
    ("trace", put({"q": -1}, "root", "counts"), "root.counts['q']"),
    ("trace", put(None, "root", "children", 0), "root.children[0]"),
    ("trace", put(99, "totals", "queries", "total"), "totals['queries']"),
    ("trace", put({"phase.a": "2"}, "totals", "queries", "by_phase"),
     "totals['queries'].by_phase['phase.a']"),
    ("metrics", put("metrics-snapshot/v1", "schema"), "schema"),
    ("metrics", put("trace", "context", "bench"), "context.bench"),
    ("metrics", put({"c": -1}, "counters"), "counters['c']"),
    ("metrics", put({"g": "x"}, "gauges"), "gauges['g']"),
    ("metrics", put(1.0, "histograms", "h", "count"), "histograms['h'].count"),
    ("metrics", drop("histograms", "h", "p99"), "histograms['h'].p99"),
    ("bench-result", put("bench-result/v0", "schema"), "schema"),
    ("bench-result", put([1], "rows"), "rows[0]"),
    ("bench-result", drop("wall_clock_s"), "wall_clock_s"),
    ("bench-result", put(1.5, "total_samples"), "total_samples"),
    ("bench-observability", put([], "experiments"), "experiments"),
    ("bench-observability", drop("experiments", "E0", "title"),
     "experiments['E0'].title"),
    ("bench-observability", put(11.0, "experiments", "E0",
                                "sample_batch_histogram", "sum"),
     "experiments['E0'].sample_batch_histogram.sum"),
    ("bench-observability", put(0, "experiments", "E0",
                                "sample_batch_histogram", "count"),
     "experiments['E0'].sample_batch_histogram.count"),
    ("bench-observability", put(0.5, "experiments", "E0", "sampler_overhead",
                                "overhead_frac"),
     "experiments['E0'].sampler_overhead.overhead_frac"),
    ("bench-observability", flip("experiments", "E0", "sampler_overhead",
                                 "within_budget"),
     "experiments['E0'].sampler_overhead.within_budget"),
    # -- a required number must be finite: NaN fails every comparison, so
    #    without the type rule it slipped past each arithmetic check
    ("bench-load", put(NAN, "rows", 0, "availability"), "rows[0].availability"),
    ("bench-load", put(NAN, "rows", 0, "p99_latency_ms"), "rows[0].p99_latency_ms"),
    ("bench-load", put(INF, "rows", 0, "achieved_qps"), "rows[0].achieved_qps"),
    ("bench-load", put(NAN, "knee", "knee_rate"), "knee.knee_rate"),
    ("bench-overload", put(NAN, "comparison", "availability_on"),
     "comparison.availability_on"),
    ("bench-overload", put(NAN, "rows", 7, "full_quality"), "rows[7].full_quality"),
    ("bench-overload", put(-INF, "rows", 3, "p50_queueing_ms"),
     "rows[3].p50_queueing_ms"),
    ("chaos", put(NAN, "epsilon"), "epsilon"),
    ("chaos", put(NAN, "rows", 0, "availability"), "rows[0].availability"),
    ("bench-diff", put(NAN, "threshold"), "threshold"),
    ("timeline", put(INF, "ticks", 1, "t"), "ticks[1].t"),
    ("metrics", put({"g": NAN}, "gauges"), "gauges['g']"),
    ("bench-result", put(NAN, "wall_clock_s"), "wall_clock_s"),
    ("bench-observability", put(NAN, "experiments", "E0", "sampler_overhead",
                                "budget_frac"),
     "experiments['E0'].sampler_overhead.budget_frac"),
    ("trace", put(NAN, "root", "duration_s"), "root.duration_s"),
    # -- an int is never a bool (bool subclasses int, so True == 1 passed)
    ("bench-load", put(True, "knee", "index"), "knee.index"),
    ("bench-overload", put(True, "knee", "index"), "knee.index"),
    ("events", both(drop("events", 1), put(True, "count")), "count"),
    ("timeline", put(True, "ticks", 0, "inflight"), "ticks[0].inflight"),
    ("chaos", put(True, "rows", 1, "batch_aborts"), "rows[1].batch_aborts"),
    ("metrics", put({"c": True}, "counters"), "counters['c']"),
    ("suite-report", put(True, "summary", "passed"), "summary.passed"),
    ("bench-diff", put(True, "improvements"), "improvements"),
    # -- bench-overload now runs every shared sweep rule bench-load runs
    ("bench-overload", drop("knee", "index"), "knee.index"),
    ("bench-overload", put(False, "knee", "detected"), "knee.knee_rate"),
    ("bench-overload", both(*(put(40.0, "rows", 2, f"{q}_queueing_ms")
                              for q in ("p50", "p95", "p99"))),
     "rows[2].p50_latency_ms"),
    ("bench-overload", drop("rows", 0, "arrival"), "rows[0].arrival"),
    ("bench-overload", put(-1.0, "rows", 0, "achieved_qps"),
     "rows[0].achieved_qps"),
    # -- the sweep messages name the exact field
    ("bench-load", put(1, "rows", 0, "dropped"), "rows[0].queries"),
    ("bench-load", both(*(put(3.0, "rows", 0, f"{q}_queueing_ms")
                          for q in ("p50", "p95", "p99"))),
     "rows[0].p50_latency_ms"),
    ("bench-overload", put(True, "rows", 4, "brownout"), "rows[4].brownout"),
    # -- a row may say why it cannot be rerun; bench-diff names the baseline
    #    rows it could neither match nor excuse
    ("bench-load", put("", "rows", 0, "rerun_exempt"), "rows[0].rerun_exempt"),
    ("bench-diff", drop("rows_unchecked"), "rows_unchecked"),
    ("bench-diff", put(["r9"], "rows_unchecked"), "rows_unchecked"),
    ("bench-diff", put(["r3"], "rows_unchecked"), "ok"),
    ("bench-diff", put([], "rows_exempt"), "rows_exempt"),
    ("bench-diff", put(5, "rows_exempt", "r3"), "rows_exempt['r3']"),
    ("bench-diff", put({"r9": "wall clock"}, "rows_exempt"), "rows_exempt"),
    ("bench-result", put(5, "rows", 0, "rerun_exempt"), "rows[0].rerun_exempt"),
    ("bench-result", put(" ", "rows", 0, "rerun_exempt"), "rows[0].rerun_exempt"),
    # -- a theorem cell carries the table that ``repro report`` renders
    ("suite-report", put("theorem", "cells", 0, "kind"), "cells[0].metrics.title"),
    ("suite-report", both(put("theorem", "cells", 0, "kind"),
                          put({"title": "t", "columns": ["x"], "rows": [{}]},
                              "cells", 0, "metrics")),
     "cells[0].metrics.rows[0]"),
]


def _names(problem: str, path: str) -> bool:
    return re.search(rf"(?<![\w.\]]){re.escape(path)}(?![\w\[])", problem) is not None


class TestDoctoredDocuments:
    @pytest.mark.parametrize("kind", sorted(_BASES))
    def test_base_documents_validate(self, kind):
        validate(kind, _BASES[kind]())

    @pytest.mark.parametrize(
        "kind, mutate, path",
        DOCTORED,
        ids=[f"{kind}:{path}:{i}" for i, (kind, _, path) in enumerate(DOCTORED)],
    )
    def test_doctored_document_is_rejected(self, kind, mutate, path):
        doc = copy.deepcopy(_BASES[kind]())
        mutate(doc)
        with pytest.raises(SchemaError) as err:
            validate(kind, doc)
        assert any(_names(p, path) for p in err.value.problems), (
            f"no problem names {path!r}: {err.value.problems}"
        )
