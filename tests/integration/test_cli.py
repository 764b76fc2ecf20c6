"""Tests for the command-line interface."""

import pytest

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


class TestExperimentCommand:
    def test_experiment_with_json(self, capsys, tmp_path, monkeypatch):
        # Patch in a tiny experiment so the CLI path stays fast.
        from repro import cli

        monkeypatch.setitem(
            cli.EXPERIMENTS, "lemma42", lambda: [{"delta": 0.2, "ok": True}]
        )
        out_path = tmp_path / "rows.json"
        assert main(["experiment", "lemma42", "--json", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "delta" in out
        import json

        rows = json.loads(out_path.read_text())
        assert rows == [{"delta": 0.2, "ok": True}]


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

    def test_report_command_with_stub(self, capsys, monkeypatch, tmp_path):
        from repro.analysis import report as report_mod
        from repro import cli

        monkeypatch.setattr(
            report_mod,
            "REPORT_SECTIONS",
            [("Stub", lambda **kw: [{"v": 1}], {"smoke": {}, "full": {}})],
        )
        out_file = tmp_path / "r.md"
        assert main(["report", "--scale", "smoke", "--out", str(out_file)]) == 0
        assert "## Stub" in out_file.read_text()
