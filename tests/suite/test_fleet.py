"""Fleet cells end to end: independent runs over one seed, graded
against Lemma 4.9, under thread shards and under a process-pool kill
ladder, and rerun byte-identically from the report's own context."""

import json

import pytest

from repro.cli import main
from repro.obs.schema import validate_suite_report
from repro.suite import ScenarioCell, SuiteConfig, run_suite

THREAD = ScenarioCell(
    id="fleet-thread", kind="fleet", family="efficiency_tiers", n=300,
    queries=20, runs=4, executor="thread", workers=2,
)
PROCESS = ScenarioCell(
    id="fleet-process-kill", kind="fleet", family="efficiency_tiers", n=300,
    queries=20, runs=4, executor="process", workers=2, rates=(0.0, 0.33),
)


@pytest.fixture(scope="module")
def result():
    return run_suite(SuiteConfig(name="fleet", cells=(THREAD, PROCESS)))


def by_name(checks):
    return {c["name"]: c for c in checks}


class TestFleetCells:
    def test_both_layouts_pass(self, result):
        assert {r.cell.id: r.outcome for r in result.results} == {
            "fleet-thread": "pass",
            "fleet-process-kill": "pass",
        }

    def test_thread_cell_grades_agreement_without_a_crash_rung(self, result):
        thread = result.results[0]
        checks = by_name(thread.checks)
        assert set(checks) == {
            "lemma49_agreement", "crash_transparent", "probe_budget",
            "availability",
        }
        m = thread.metrics
        assert m["rates"] == [0.0]
        assert m["probes"] == 20 and m["runs"] == 4
        assert m["pairwise_agreement"] >= 1 - THREAD.epsilon
        assert m["unanimity"] <= m["pairwise_agreement"]
        # Two shards per run, no cache: one pipeline per shard per run.
        assert m["pipelines_run"] == 4 * 2

    def test_kill_rung_fires_and_answers_do_not_move(self, result):
        process = result.results[1]
        checks = by_name(process.checks)
        assert checks["crashes_fired"]["ok"]
        assert process.metrics["kills"] >= 1
        assert process.metrics["crash_transparent"] is True
        assert process.metrics["rates"] == [0.0, 0.33]

    def test_split_items_are_the_non_unanimous_probes(self, result):
        for r in result.results:
            m = r.metrics
            assert len(m["split_items"]) == round((1 - m["unanimity"]) * m["probes"])

    def test_report_carries_fleet_sentinel_rows(self, result):
        doc = result.document()
        validate_suite_report(doc)
        row = doc["rows"][0]
        assert row["mode"] == "suite:fleet-thread"
        for key in ("pairwise_agreement", "unanimity", "availability"):
            assert key in row


def test_report_reruns_byte_identically_from_its_context(tmp_path, capsys):
    matrix = tmp_path / "matrix.json"
    SuiteConfig(name="fleet", cells=(THREAD, PROCESS)).write(matrix)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["suite", str(matrix), "--out", str(first)]) == 0
    assert main(["suite", str(first), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    doc = json.loads(first.read_text())
    assert doc["deterministic"] is True
    assert [c["kind"] for c in doc["cells"]] == ["fleet", "fleet"]
