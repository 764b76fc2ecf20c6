"""The scenario vocabulary: cell validation and config round trips."""

import json

import pytest

from repro.errors import ReproError
from repro.suite import ScenarioCell, SuiteConfig


class TestScenarioCell:
    def test_minimal_cell_gets_small_fast_defaults(self):
        cell = ScenarioCell(id="c", kind="approx")
        assert cell.family == "uniform"
        assert cell.n == 300
        assert cell.oracle == "ideal"
        assert cell.deterministic  # clock "none" is not wall clock

    @pytest.mark.parametrize(
        "field,value",
        [
            ("kind", "bench"),
            ("expect", "maybe"),
            ("oracle", "flaky"),
            ("executor", "gpu"),
            ("clock", "cpu"),
        ],
    )
    def test_enum_axes_are_validated(self, field, value):
        with pytest.raises(ReproError, match="must be one of"):
            ScenarioCell(**{"id": "c", "kind": "approx", field: value})

    def test_empty_id_rejected(self):
        with pytest.raises(ReproError, match="non-empty id"):
            ScenarioCell(id="", kind="approx")

    def test_adversarial_requires_a_theorem(self):
        with pytest.raises(ReproError, match="theorem"):
            ScenarioCell(id="c", kind="adversarial", expect="budget_failure")

    def test_adversarial_must_expect_budget_failure(self):
        # A cell that beats an impossibility bound is a suite failure,
        # never a pass — the vocabulary forbids expressing the opposite.
        with pytest.raises(ReproError, match="budget_failure"):
            ScenarioCell(id="c", kind="adversarial", theorem="3.2", expect="pass")

    def test_load_cells_need_rates(self):
        with pytest.raises(ReproError, match="rates"):
            ScenarioCell(id="c", kind="load")

    @pytest.mark.parametrize(
        "over,match",
        [
            ({"rates": (0.0, 0.33)}, "executor='process'"),
            ({"rates": (0.33,), "executor": "thread"}, "executor='process'"),
            ({"rates": (1.5,), "executor": "process"}, r"\[0, 1\]"),
            ({"rates": (-0.1,), "executor": "process"}, r"\[0, 1\]"),
            ({"runs": 1}, "runs >= 2"),
            ({"queries": 0}, "queries <= n"),
            ({"queries": 301}, "queries <= n"),
        ],
    )
    def test_fleet_cells_are_validated(self, over, match):
        with pytest.raises(ReproError, match=match):
            ScenarioCell(**{"id": "c", "kind": "fleet", **over})

    def test_fleet_kill_ladder_on_process_shards_is_accepted(self):
        cell = ScenarioCell(
            id="c", kind="fleet", executor="process", rates=(0.0, 0.33)
        )
        assert ScenarioCell.from_dict(cell.to_dict()) == cell

    def test_hedged_oracle_gets_a_default_hedge_and_retries(self):
        cell = ScenarioCell(id="c", kind="approx", oracle="faulty_hedged")
        assert cell.hedge_after_s == 0.002
        assert cell.retries == 3

    def test_wall_clock_cells_are_not_deterministic(self):
        cell = ScenarioCell(id="c", kind="load", clock="wall", rates=(10.0,))
        assert not cell.deterministic

    def test_theorem_cell_needs_a_registered_experiment(self):
        with pytest.raises(ReproError, match="experiment in"):
            ScenarioCell(id="c", kind="theorem", experiment="E99_unknown")
        with pytest.raises(ReproError, match="experiment in"):
            ScenarioCell(id="c", kind="theorem")

    def test_theorem_cell_rejects_an_argument_its_function_lacks(self):
        with pytest.raises(ReproError, match=r"no argument\(s\) \['trails'\]"):
            ScenarioCell(
                id="c", kind="theorem", experiment="E1_thm32",
                args={"ns": [64], "trials": 10, "trails": 10},
            )

    def test_theorem_cell_needs_every_required_argument(self):
        with pytest.raises(ReproError, match=r"needs argument\(s\) \['trials'\]"):
            ScenarioCell(
                id="c", kind="theorem", experiment="E1_thm32", args={"ns": [64]}
            )

    @pytest.mark.parametrize(
        "stray",
        [{"trials": 100}, {"checks": {"min_ratio": 0.9}}, {"expect": "budget_failure"}],
    )
    def test_theorem_cell_rejects_a_field_it_would_drop(self, stray):
        # A typo'd axis must not silently become the default: trials
        # belongs in args, and a theorem cell reads no checks or expect.
        with pytest.raises(ReproError, match="theorem cells read only"):
            ScenarioCell.from_dict(
                {"id": "c", "kind": "theorem", "experiment": "E1_thm32",
                 "args": {"ns": [64], "trials": 10}, **stray}
            )

    def test_only_theorem_cells_take_an_experiment(self):
        with pytest.raises(ReproError, match="only theorem cells"):
            ScenarioCell(id="c", kind="approx", experiment="E1_thm32")

    def test_theorem_cell_round_trips_with_only_its_fields(self):
        cell = ScenarioCell.from_dict(
            {"id": "c", "kind": "theorem", "experiment": "E1_thm32",
             "args": {"ns": [64], "trials": 10}}
        )
        out = cell.to_dict()
        assert sorted(out) == ["args", "experiment", "id", "kind"]
        assert ScenarioCell.from_dict(out) == cell
        assert "experiment" not in ScenarioCell(id="c", kind="approx").to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        # A typo'd axis must not silently become the default.
        with pytest.raises(ReproError, match="unknown key"):
            ScenarioCell.from_dict({"id": "c", "kind": "approx", "famly": "uniform"})

    def test_round_trip_is_lossless(self):
        cell = ScenarioCell(
            id="c", kind="load", rates=(50, 100), checks={"min_availability": 0.8}
        )
        again = ScenarioCell.from_dict(cell.to_dict())
        assert again == cell
        json.dumps(cell.to_dict())  # JSON-ready as returned


class TestSuiteConfig:
    def two_cells(self):
        return (
            ScenarioCell(id="a", kind="approx"),
            ScenarioCell(id="b", kind="approx", family="planted_lsg"),
        )

    def test_duplicate_ids_rejected(self):
        cell = ScenarioCell(id="a", kind="approx")
        with pytest.raises(ReproError, match="duplicate"):
            SuiteConfig(name="s", cells=(cell, cell))

    def test_empty_suite_rejected(self):
        with pytest.raises(ReproError, match="no cells"):
            SuiteConfig(name="s", cells=())

    def test_round_trip_through_dict(self):
        config = SuiteConfig(name="s", seed=3, cells=self.two_cells())
        again = SuiteConfig.from_dict(config.to_dict())
        assert again == config

    def test_from_file_reads_a_matrix(self, tmp_path):
        config = SuiteConfig(name="s", cells=self.two_cells())
        path = config.write(tmp_path / "matrix.json")
        assert SuiteConfig.from_file(path) == config

    def test_from_file_reads_the_matrix_inside_a_report(self, tmp_path):
        # Report in, same config out: the rerun contract's foundation.
        config = SuiteConfig(name="s", cells=self.two_cells())
        report = {
            "schema": "suite-report/v1",
            "context": {"bench": "suite", "suite": config.to_dict()},
        }
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert SuiteConfig.from_file(path) == config

    def test_report_without_embedded_suite_is_an_error(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"schema": "suite-report/v1", "context": {}}))
        with pytest.raises(ReproError, match="context.suite"):
            SuiteConfig.from_file(path)

    @pytest.mark.parametrize(
        "text, message", [("{not json", "Expecting"), ("[]", "not a JSON object")]
    )
    def test_a_file_that_is_no_json_object_is_an_error(self, text, message, tmp_path):
        path = tmp_path / "matrix.json"
        path.write_text(text)
        with pytest.raises(ReproError, match=message):
            SuiteConfig.from_file(path)

    def test_select_by_pattern_and_ids(self):
        config = SuiteConfig(name="s", cells=self.two_cells())
        assert [c.id for c in config.select(pattern="a").cells] == ["a"]
        assert [c.id for c in config.select(ids=["b"]).cells] == ["b"]
        with pytest.raises(ReproError, match="no cell matches"):
            config.select(pattern="zzz")

    def test_committed_matrices_parse(self):
        import pathlib

        suites = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "suites"
        for name in ("default", "smoke", "theorems"):
            config = SuiteConfig.from_file(suites / f"{name}.json")
            assert len(config.cells) >= 3
