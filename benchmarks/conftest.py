"""Shared plumbing for the benchmark suite.

Each bench runs one DESIGN.md experiment (E1-E11) exactly once under
pytest-benchmark (the experiments are statistical sweeps, not
microbenchmarks — wall-clock is reported for orientation, the payload
is the printed table).  Tables are written to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can quote them
verbatim without relying on captured stdout; :func:`emit_json`
additionally writes a machine-readable ``bench-result/v1`` document to
``benchmarks/results/<name>.json`` and rolls the run's telemetry
(wall-clock, oracle queries, weighted samples, batch-size histogram)
into the top-level ``BENCH_observability.json`` summary
(``bench-observability/v1``) — the perf trajectory the ROADMAP's
scaling PRs measure themselves against.
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

from repro.analysis.tables import format_row_dicts
from repro.obs.export import jsonable, write_json
from repro.obs.runtime import REGISTRY

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
SUMMARY_PATH = pathlib.Path(__file__).parent.parent / "BENCH_observability.json"

#: Telemetry captured by the most recent :func:`run_once` call.
_LAST_RUN: dict = {
    "wall_clock_s": 0.0,
    "total_queries": 0,
    "total_samples": 0,
    "sample_batch_histogram": {"count": 0, "sum": 0.0},
}


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark fixture.

    Also records the run's wall-clock and the oracle-query / weighted-
    sample / batch-size-histogram deltas from the global metrics
    registry, so a following :func:`emit_json` can attach honest
    resource telemetry to the experiment's output.
    """
    batches = REGISTRY.histogram("sampler.batch_size")
    batches_before = batches.state()
    queries_before = REGISTRY.counter("oracle.queries").value
    samples_before = REGISTRY.counter("sampler.samples").value
    start = time.perf_counter()
    result = benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
    _LAST_RUN.update(
        wall_clock_s=time.perf_counter() - start,
        total_queries=REGISTRY.counter("oracle.queries").value - queries_before,
        total_samples=REGISTRY.counter("sampler.samples").value - samples_before,
        sample_batch_histogram=batches.since(batches_before).snapshot(),
    )
    return result


def emit(name: str, rows, title: str) -> str:
    """Render, print and persist an experiment table."""
    table = format_row_dicts(rows, title=title)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(table + "\n")
    print("\n" + table)
    return table


def emit_json(name: str, rows, title: str, extra_entry: dict | None = None) -> str:
    """Like :func:`emit`, plus machine-readable telemetry.

    Writes ``results/<name>.json`` (``bench-result/v1``) and merges this
    experiment's entry into the top-level ``BENCH_observability.json``
    (``bench-observability/v1``).  Resource numbers, the batch-size
    histogram included, come from the last :func:`run_once` call: they
    cover that run only, so its histogram's ``sum`` equals its
    ``total_samples`` (which ``validate_bench_observability`` enforces).
    ``extra_entry`` adds extra keys to the summary entry (e.g. the
    ``sampler_overhead`` verdict block, whose arithmetic the validator
    also enforces).
    """
    table = emit(name, rows, title)
    document = {
        "schema": "bench-result/v1",
        "name": name,
        "title": title,
        "rows": jsonable(list(rows)),
        "wall_clock_s": _LAST_RUN["wall_clock_s"],
        "total_queries": _LAST_RUN["total_queries"],
        "total_samples": _LAST_RUN["total_samples"],
    }
    write_json(RESULTS_DIR / f"{name}.json", document)

    if SUMMARY_PATH.exists():
        try:
            summary = json.loads(SUMMARY_PATH.read_text())
        except json.JSONDecodeError:
            summary = {}
    else:
        summary = {}
    if summary.get("schema") != "bench-observability/v1":
        summary = {"schema": "bench-observability/v1", "experiments": {}}
    summary["experiments"][name] = {
        "title": title,
        "wall_clock_s": _LAST_RUN["wall_clock_s"],
        "total_queries": _LAST_RUN["total_queries"],
        "total_samples": _LAST_RUN["total_samples"],
        "sample_batch_histogram": _LAST_RUN["sample_batch_histogram"],
    }
    if extra_entry:
        summary["experiments"][name].update(jsonable(extra_entry))
    write_json(SUMMARY_PATH, summary)
    return table


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    """Where the rendered tables land."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
