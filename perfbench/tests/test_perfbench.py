"""The benchmark's own tests: driver timing, reproducibility, answer check.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import driver  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_stalled_caller_shows_up_as_queue_wait():
    stall = 0.3

    def call(k):
        if k == 0:
            time.sleep(stall)
        return k

    due = np.arange(20) * 0.01
    res = driver.open_loop(call, lambda r: r, due, callers=1)
    # Requests due during the stall wait for the one caller, and that
    # wait is part of their latency because it is timed from the due time.
    assert res.queue_wait[1] >= stall - 0.02
    assert res.latency[1] >= stall - 0.02
    assert np.all(res.latency >= res.lateness)
    assert np.all(res.lateness >= res.queue_wait)
    assert res.outcomes == list(range(20))


def test_caller_holding_the_interpreter_shows_up_as_lateness():
    data = [random.random() for _ in range(400_000)]
    held = []

    def call(k):
        if k == 0:
            t0 = time.perf_counter()
            sorted(data)  # holds the interpreter lock throughout
            held.append(time.perf_counter() - t0)
        return k

    due = np.array([0.0, 0.01])
    res = driver.open_loop(call, lambda r: r, due, callers=2)
    # The second caller was free but could not run: the stall is lateness.
    assert res.lateness[1] >= 0.5 * (held[0] - 0.01)
    assert res.lateness[1] - res.queue_wait[1] >= 0.5 * (held[0] - 0.01)


def test_failed_request_is_an_outcome():
    def call(k):
        raise RuntimeError("boom")

    res = driver.open_loop(call, lambda r: r, np.zeros(3), callers=1)
    assert all(isinstance(o, RuntimeError) for o in res.outcomes)
    assert run.tally(res.outcomes, 16) == (0, 48, 0, 0)


def test_same_seed_reproduces_the_request_stream():
    wl = workloads.WORKLOADS["point_cold"]
    a = workloads.make_inputs(wl, 7, 2.0, 50, 1000)
    b = workloads.make_inputs(wl, 7, 2.0, 50, 1000)
    c = workloads.make_inputs(wl, 8, 2.0, 50, 1000)
    assert (a.instance_seed, a.lca_seed, a.pinned_nonce) == (b.instance_seed, b.lca_seed, b.pinned_nonce)
    assert np.array_equal(a.due, b.due)
    assert np.array_equal(a.open_requests.indices, b.open_requests.indices)
    assert np.array_equal(a.open_requests.nonces, b.open_requests.nonces)
    assert np.array_equal(a.closed_requests.nonces, b.closed_requests.nonces)
    assert not np.array_equal(a.open_requests.nonces[:10], c.open_requests.nonces[:10])
    assert np.all(np.diff(a.due) > 0) and a.due[-1] < 2.0


def test_span_arithmetic_flags_a_child_outside_its_parent():
    nested = [
        (1, None, "driver.request", 0.0, 10.0, 0, 1, False, 0),
        (2, 1, "serve.answer_batch", 1.0, 9.0, 0, 1, False, 0),
        (3, 2, "cache.get", 2.0, 3.0, 0, 1, False, 0),
        (4, 2, "core.answers_from", 4.0, 8.0, 0, 2, False, 0),
        (5, 2, "core.answers_from", 5.0, 7.0, 0, 3, False, 0),  # parallel shard
    ]
    good = spans.analyse(nested)
    assert good.violations == 0 and good.requests == 1
    assert good.calls["serve.answer_batch"].self_s == [8.0 - 1.0 - 4.0]
    assert good.parallel_s == pytest.approx(2.0)
    bad = spans.analyse(nested[:4] + [(5, 2, "cache.put", 8.5, 9.5, 0, 1, False, 0)])
    assert bad.violations == 1 and bad.max_residual_s == pytest.approx(0.5)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_configuration_finishes_in_seconds(name, capsys):
    t0 = time.perf_counter()
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "1", "--tiny"])
    result = _result(capsys)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert time.perf_counter() - t0 < 60


def test_traced_run_reports_every_layer_metric(capsys):
    code = run.main(
        ["--workload", "fanout_thread", "--seed", "3", "--seconds", "1.5", "--trace", "1", "--tiny"]
    )
    out = capsys.readouterr().out
    result = json.loads(out.strip().splitlines()[-1])
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # Every fan-out shard rebuilds the alias table; every shard pipeline is a hit.
    assert metrics["access.alias_builds_per_request"] == 2
    assert metrics["cache.hit_ratio"] == 1.0
    assert metrics["core.run_pipeline.calls"] == 0
    assert "span arithmetic" in out and " 0 violations" in out
    assert "exact-count mismatch" not in out


def test_doctored_reference_fails_the_run(monkeypatch, capsys):
    honest = workloads.reference_includes

    def doctored(*args):
        expect = honest(*args)
        expect[0] = not expect[0]
        return expect

    monkeypatch.setattr(workloads, "reference_includes", doctored)
    code = run.main(["--workload", "point_warm", "--seed", "3", "--seconds", "0.5", "--tiny"])
    result = _result(capsys)
    assert code == 1
    assert not result["correct"] and result["failed"] >= 1


def _session_members(sid: int) -> list[int]:
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat[stat.rfind(")") + 2:].split()[3]) == sid:
            members.append(int(entry.name))
    return members


def test_no_process_outlives_a_process_shard_run():
    # The shared-memory store starts the multiprocessing resource tracker;
    # the run must stop it, and every pool worker, before it exits.
    proc = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "fanout_shm",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--tiny"],
        cwd=BENCH.parent, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    # The run's session id is its own pid, so a survivor is found by it.
    assert _session_members(proc.pid) == []


def test_without_the_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point_warm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
