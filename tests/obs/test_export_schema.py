"""Tests for the exporters and the schema validators."""

import json

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
