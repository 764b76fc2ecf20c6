"""Theorem cells: the paper's experiments as graded suite cells.

The teeth tests read each table's rows from the committed
``BENCH_theorems.json`` (no experiment runs): every check passes on
them, and every check flips to ``ok=False`` when a single value of a
single row is pushed past its bound.
"""

import json
import math
import pathlib

import pytest

from repro.analysis.experiments import EXPERIMENTS
from repro.suite import ScenarioCell, SuiteConfig, SuiteRunner

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def committed() -> dict:
    doc = json.loads((ROOT / "BENCH_theorems.json").read_text())
    return {cell["id"]: cell for cell in doc["cells"]}


def _pushes(value) -> list:
    """Values one field can be pushed to: a flag negated, a number moved
    far down or up, finitely and to infinity."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, (int, float)):
        return [value - 10**9, value + 10**9, -math.inf, math.inf]
    return []


@pytest.mark.parametrize("table", sorted(EXPERIMENTS))
def test_every_check_passes_and_has_teeth(table, committed):
    grade = EXPERIMENTS[table].checks
    rows = committed[table]["metrics"]["rows"]
    records = grade(rows)
    assert [c["ok"] for c in records] == [True] * len(records)
    assert records == committed[table]["checks"]
    flipped = set()
    for i, row in enumerate(rows):
        for key, value in row.items():
            for pushed in _pushes(value):
                doctored = list(rows)
                doctored[i] = {**row, key: pushed}
                try:
                    results = grade(doctored)
                except (KeyError, OverflowError):
                    # A pushed size or key names no row, or ceil(inf):
                    # no verdict, so no flip.
                    continue
                flipped |= {c["name"] for c in results if not c["ok"]}
    assert flipped == {c["name"] for c in records}


def test_registry_and_committed_matrix_agree(committed):
    matrix = SuiteConfig.from_file(ROOT / "benchmarks" / "suites" / "theorems.json")
    assert [c.id for c in matrix.cells] == list(EXPERIMENTS)
    assert all(c.kind == "theorem" and c.experiment == c.id for c in matrix.cells)
    assert list(committed) == list(EXPERIMENTS)
    assert all(cell["outcome"] == "pass" for cell in committed.values())
    assert sum(len(cell["checks"]) for cell in committed.values()) == 56


def test_theorem_cell_runs_its_experiment_deterministically():
    config = SuiteConfig(
        name="t",
        cells=(
            ScenarioCell(
                id="solvers", kind="theorem", experiment="E11_solvers",
                args={"n": 12, "seed": 17},
            ),
        ),
    )
    doc = SuiteRunner(config).run().document()
    (cell,) = doc["cells"]
    assert cell["outcome"] == "pass"
    assert cell["experiment"] == "E11_solvers"
    assert cell["args"] == {"n": 12, "seed": 17}
    metrics = cell["metrics"]
    assert metrics["title"] == EXPERIMENTS["E11_solvers"].title
    assert metrics["columns"] == ["solver", "value", "ratio_to_opt", "items", "exact"]
    assert len(metrics["rows"]) == 6
    assert doc["rows"] == [
        {"mode": "suite:solvers", "outcome": "pass", "queries": 0, "samples": 0}
    ]
    assert SuiteRunner(SuiteConfig.from_dict(doc["context"]["suite"])).run().document() == doc
