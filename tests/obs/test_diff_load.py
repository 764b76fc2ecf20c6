"""Load rows through the perf-regression sentinel.

``bench-load/v1`` rows join the diff machinery with three twists: rows
key on ``(mode, n, family, rate, clock)`` (the extra coordinates stay
``None`` for classic rows, preserving old keys), tail latencies get the
millisecond-scaled absolute floor, and ``availability`` survives
``relative_only`` because it is dimensionless.
"""

import json
import pathlib

from repro.obs.diff import RERUN_EXEMPT, diff_documents
from repro.obs.schema import validate_bench_diff

_ROOT = pathlib.Path(__file__).resolve().parents[2]


def load_doc(rows, name="load_latency"):
    return {"schema": "bench-load/v1", "name": name, "rows": rows}


def load_row(rate=100.0, **overrides):
    base = {
        "mode": "load",
        "clock": "virtual",
        "rate": rate,
        "n": 2000,
        "family": "uniform",
        "queries": 200,
        "completed": 200,
        "dropped": 0,
        "degraded": 0,
        "offered_qps": rate,
        "achieved_qps": rate,
        "availability": 1.0,
        "p50_queueing_ms": 0.2,
        "p95_queueing_ms": 0.9,
        "p99_queueing_ms": 1.5,
        "p50_latency_ms": 2.7,
        "p95_latency_ms": 3.4,
        "p99_latency_ms": 4.0,
    }
    base.update(overrides)
    return base


class TestLoadRowKeys:
    def test_rows_keyed_by_rate_and_clock(self):
        base = load_doc([load_row(rate=100.0), load_row(rate=200.0)])
        cand = load_doc([load_row(rate=100.0), load_row(rate=400.0)])
        out = diff_documents(base, cand)
        assert out["rows_compared"] == 1
        assert any("rate=200" in m for m in out["rows_missing"])
        assert any("rate=400" in m and "(candidate only)" in m
                   for m in out["rows_missing"])

    def test_wall_and_virtual_rows_never_cross_compare(self):
        base = load_doc([load_row(clock="virtual")])
        cand = load_doc([load_row(clock="wall")])
        assert diff_documents(base, cand)["rows_compared"] == 0

    def test_classic_rows_keep_their_keys(self):
        # A pre-load document has no rate/clock keys; self-compare must
        # still match every row (backward compatibility of the key).
        classic = {
            "schema": "bench-result/v1",
            "name": "cold_pipeline",
            "rows": [
                {"mode": "block_path", "wall_clock_s": 1.0, "samples": 10},
                {"mode": "object_path", "wall_clock_s": 2.0, "samples": 10},
            ],
        }
        out = diff_documents(classic, classic)
        assert out["rows_compared"] == 2 and out["ok"]


class TestLoadMetrics:
    def test_doctored_tail_latency_regresses(self):
        base = load_doc([load_row()])
        cand = load_doc([load_row(p99_latency_ms=16.0, p95_latency_ms=13.6)])
        out = diff_documents(base, cand)
        assert out["ok"] is False
        bad = {f["metric"] for f in out["findings"] if f["status"] == "regression"}
        assert bad == {"p95_latency_ms", "p99_latency_ms"}
        validate_bench_diff(out)

    def test_tail_jitter_below_ms_floor_is_ok(self):
        # 4x relative excursion, but 0.2ms -> 0.8ms is under a 2ms floor.
        base = load_doc([load_row(p99_latency_ms=0.2)])
        cand = load_doc([load_row(p99_latency_ms=0.8)])
        out = diff_documents(base, cand, abs_floor_s=0.002)
        assert out["ok"] is True

    def test_achieved_qps_drop_regresses(self):
        base = load_doc([load_row(achieved_qps=100.0)])
        cand = load_doc([load_row(achieved_qps=40.0)])
        out = diff_documents(base, cand)
        assert any(
            f["metric"] == "achieved_qps" and f["status"] == "regression"
            for f in out["findings"]
        )

    def test_availability_cliff_survives_relative_only(self):
        base = load_doc([load_row(availability=1.0)])
        cand = load_doc([load_row(availability=0.4)])
        out = diff_documents(base, cand, relative_only=True)
        assert out["ok"] is False
        assert any(
            f["metric"] == "availability" and f["status"] == "regression"
            for f in out["findings"]
        )

    def test_deterministic_virtual_counts_drift_on_mismatch(self):
        base = load_doc([load_row(queries=200)])
        cand = load_doc([load_row(queries=199)])
        out = diff_documents(base, cand)
        assert out["drifts"] == 1 and out["ok"] is False

    def test_self_compare_full_strictness_is_ok(self):
        doc = load_doc([load_row(rate=r) for r in (50.0, 100.0, 200.0)])
        out = diff_documents(doc, doc, relative_only=False)
        assert out["ok"] and out["rows_compared"] == 3
        validate_bench_diff(out)


class TestCommittedDeclarations:
    def test_every_load_row_a_rerun_skips_says_why(self):
        # The context rerun is the virtual sweep alone: the committed
        # wall rows must carry their reason, or the gate fails.
        doc = json.loads((_ROOT / "BENCH_load.json").read_text())
        virtual = dict(doc, rows=[r for r in doc["rows"] if r["clock"] == "virtual"])
        out = diff_documents(doc, virtual)
        assert out["rows_unchecked"] == []
        assert len(out["rows_exempt"]) == 4 and out["ok"] is True
        validate_bench_diff(out)

    def test_shm_rows_outside_the_rerun_sizes_declare_it(self):
        from repro.serve.bench import bench_shm_document

        rows = [
            {"mode": "process_shm", "n": n, "queries": 32, "samples": 10,
             "wall_clock_s": 0.1}
            for n in (20_000, 10_000_000)
        ]
        doc = bench_shm_document(rows, rerun_sizes=[20_000])
        assert [RERUN_EXEMPT in r for r in doc["rows"]] == [False, True]
        rerun = bench_shm_document(rows[:1], rerun_sizes=[20_000])
        assert diff_documents(doc, rerun)["ok"] is True
        committed = json.loads((_ROOT / "BENCH_shm.json").read_text())
        sizes = committed["context"]["rerun_sizes"]
        small = dict(committed, rows=[r for r in committed["rows"] if r["n"] in sizes])
        assert diff_documents(committed, small, relative_only=True)["ok"] is True
