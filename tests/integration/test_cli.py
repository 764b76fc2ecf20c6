"""Tests for the command-line interface."""

import json
import pathlib

import pytest

from repro.analysis.tables import format_row_dicts
from repro.cli import main


class TestCLI:
    def test_families(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        assert "planted_lsg" in out
        assert "uniform" in out

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "OR" in out
        assert "Theorem 3.2" in out

    def test_solve_small(self, capsys):
        assert main(["solve", "--family", "uniform", "--n", "40", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "exact" in out
        assert "half_approximation" in out

    def test_solve_large_skips_exact(self, capsys):
        assert main(["solve", "--family", "uniform", "--n", "500"]) == 0
        out = capsys.readouterr().out
        assert "exact" not in out

    def test_lca_queries(self, capsys):
        rc = main(
            [
                "lca",
                "--family",
                "efficiency_tiers",
                "--n",
                "400",
                "--epsilon",
                "0.2",
                "0",
                "5",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "in solution" in out

    def test_lca_out_of_range_item(self, capsys):
        rc = main(["lca", "--family", "uniform", "--n", "50", "99"])
        assert rc == 2

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])


@pytest.mark.parametrize(
    "argv",
    [
        ["loadgen", "--rates", "50,abc"],
        ["loadgen", "--rates", ""],
        ["overload", "--rates", "100,x"],
        ["chaos", "--rates", ""],
        ["bench-cold", "--sweep", "1000,x"],
        ["bench-shm", "--sizes", ","],
        ["bench-shm", "--rerun-sizes", "20000,y"],
    ],
)
def test_bad_comma_list_is_a_usage_error(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "out.json")])
    assert exc.value.code == 2
    assert "expected" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["loadgen", "--rates=-5,10"], "arrival rate must be > 0, got -5.0"),
        (["loadgen", "--rates", "nan"], "arrival rate must be > 0, got nan"),
        (["chaos", "--rates", "1.5"], "probe_failure_rate must lie in [0, 1], got 1.5"),
    ],
)
def test_rejected_value_is_a_usage_error(argv, message, tmp_path, capsys):
    assert main([*argv, "--out", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err == f"repro: error: {message}\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("verb", ["suite", "obs-diff", "report"])
@pytest.mark.parametrize(
    "document", [None, "{not json", "[]"], ids=["missing", "not_json", "not_an_object"]
)
def test_an_unreadable_document_is_a_usage_error(verb, document, tmp_path, capsys):
    path = tmp_path / "doc.json"
    if document is not None:
        path.write_text(document)
    assert main([verb, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"{verb}: ") and "Traceback" not in err


def test_obs_diff_with_an_unreadable_candidate_is_a_usage_error(tmp_path, capsys):
    root = pathlib.Path(__file__).resolve().parents[2]
    missing = tmp_path / "missing.json"
    assert main(["obs-diff", str(root / "BENCH_load.json"), str(missing)]) == 2
    assert capsys.readouterr().err.startswith("obs-diff: ")


class TestLcaTieBreakingFlag:
    def test_tie_breaking_flag_accepted(self, capsys):
        rc = main(
            [
                "lca",
                "--family",
                "subset_sum",
                "--n",
                "400",
                "--epsilon",
                "0.2",
                "--tie-breaking",
                "0",
                "3",
            ]
        )
        assert rc == 0
        assert "in solution" in capsys.readouterr().out


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "repro" in proc.stdout


class TestReportCommand:
    ROOT = pathlib.Path(__file__).resolve().parents[2]

    @staticmethod
    def table(cell) -> str:
        metrics = cell["metrics"]
        rows = [{c: row[c] for c in metrics["columns"]} for row in metrics["rows"]]
        return format_row_dicts(rows, title=metrics["title"]) + "\n"

    def test_renders_every_committed_table(self, tmp_path, capsys):
        doc = json.loads((self.ROOT / "BENCH_theorems.json").read_text())
        assert main(["report", str(self.ROOT / "BENCH_theorems.json"),
                     "--out", str(tmp_path)]) == 0
        for cell in doc["cells"]:
            rendered = (tmp_path / f"{cell['id']}.txt").read_text()
            assert rendered == self.table(cell)
            committed = self.ROOT / "benchmarks" / "results" / f"{cell['id']}.txt"
            assert rendered == committed.read_text()

    def test_prints_to_stdout_without_out(self, tmp_path, capsys):
        from repro.suite import ScenarioCell, SuiteConfig, SuiteRunner

        cell = ScenarioCell(
            id="solvers", kind="theorem", experiment="E11_solvers",
            args={"n": 10, "seed": 17},
        )
        doc = SuiteRunner(SuiteConfig(name="t", cells=(cell,))).run().document()
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path)]) == 0
        assert capsys.readouterr().out == self.table(doc["cells"][0])

    @pytest.mark.parametrize("cell_id", ["../escaped", "sub/table", ".hidden"])
    def test_a_cell_id_that_is_not_a_file_name_writes_nothing(
        self, cell_id, tmp_path, capsys
    ):
        # Cell ids come from the document; a doctored one must not reach
        # outside the output directory.
        doc = json.loads((self.ROOT / "BENCH_theorems.json").read_text())
        doc["cells"][-1]["id"] = cell_id
        doc["rows"][-1]["mode"] = f"suite:{cell_id}"
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out" / "tables"
        assert main(["report", str(path), "--out", str(out)]) == 2
        assert "not plain file names" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["report.json"]

    def test_a_report_without_theorem_cells_is_a_usage_error(self, tmp_path, capsys):
        from repro.suite import ScenarioCell, SuiteConfig, SuiteRunner

        cell = ScenarioCell(
            id="adv", kind="adversarial", theorem="3.2", expect="budget_failure",
            n=20, trials=10,
        )
        path = tmp_path / "report.json"
        doc = SuiteRunner(SuiteConfig(name="t", cells=(cell,))).run().document()
        path.write_text(json.dumps(doc))
        assert main(["report", str(path)]) == 2
        assert "no theorem table" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["missing.json", "BENCH_load.json"])
    def test_an_unreadable_or_invalid_document_is_a_usage_error(self, name, capsys):
        assert main(["report", str(self.ROOT / name)]) == 2
        assert capsys.readouterr().err.startswith("report: ")

    @pytest.mark.parametrize(
        "argv", [["experiment", "thm32"], ["report", "--scale", "full"]]
    )
    def test_retired_runners_are_unknown(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
