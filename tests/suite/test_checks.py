"""The per-cell acceptance checks, exercised on hand-built inputs."""

from repro.lowerbounds.query_complexity import StrategyEvaluation
from repro.suite import (
    ScenarioCell,
    adversarial_checks,
    approx_checks,
    fleet_checks,
)
from repro.suite.checks import check, load_checks, success_criterion


def by_name(checks):
    return {c["name"]: c for c in checks}


class TestCheckRecord:
    def test_floats_are_rounded_for_byte_stability(self):
        rec = check("x", True, 1 / 3, 2 / 3)
        assert rec["observed"] == round(1 / 3, 9)
        assert rec["threshold"] == round(2 / 3, 9)
        assert "detail" not in rec

    def test_detail_is_optional(self):
        assert check("x", False, 1, 2, "why")["detail"] == "why"


class TestApproxChecks:
    def metrics(self, **over):
        base = {
            "opt_ref": 10.0,
            "value_min": 6.0,
            "ratio": 0.6,
            "feasible": True,
            "availability": 1.0,
            "samples_per_pipeline": 100.0,
            "probe_budget": 200,
        }
        base.update(over)
        return base

    def test_all_green_on_a_healthy_cell(self):
        cell = ScenarioCell(id="c", kind="approx")
        out = by_name(approx_checks(cell, self.metrics()))
        assert all(c["ok"] for c in out.values())
        # Theorem 4.1: worst value 6.0 vs 10/2 - 6*0.1 = 4.4.
        assert out["thm41_bound"]["threshold"] == 4.4

    def test_thm41_violation_is_flagged(self):
        cell = ScenarioCell(id="c", kind="approx")
        out = by_name(approx_checks(cell, self.metrics(value_min=4.0, ratio=0.4)))
        assert not out["thm41_bound"]["ok"]

    def test_min_ratio_override_is_the_doctoring_knob(self):
        cell = ScenarioCell(id="c", kind="approx", checks={"min_ratio": 0.99})
        out = by_name(approx_checks(cell, self.metrics()))
        assert not out["min_ratio"]["ok"]
        assert out["min_ratio"]["threshold"] == 0.99

    def test_probe_budget_checked_only_under_the_ideal_oracle(self):
        ideal = ScenarioCell(id="c", kind="approx")
        faulty = ScenarioCell(id="c", kind="approx", oracle="faulty")
        metrics = self.metrics(samples_per_pipeline=500.0)  # over budget
        assert not by_name(approx_checks(ideal, metrics))["probe_budget"]["ok"]
        assert "probe_budget" not in by_name(approx_checks(faulty, metrics))

    def test_faulty_cells_get_a_lower_availability_floor(self):
        faulty = ScenarioCell(id="c", kind="approx", oracle="faulty", fault_rate=0.1)
        out = by_name(approx_checks(faulty, self.metrics(availability=0.95)))
        assert out["availability"]["ok"]  # 0.95 >= 0.9 default floor
        ideal = ScenarioCell(id="c", kind="approx")
        out = by_name(approx_checks(ideal, self.metrics(availability=0.95)))
        assert not out["availability"]["ok"]  # ideal floor is 1.0


class TestFleetChecks:
    def metrics(self, **over):
        base = {
            "rates": [0.0, 0.33],
            "pairwise_agreement": 0.99,
            "unanimity": 0.9,
            "crash_transparent": True,
            "kills": 3,
            "availability": 1.0,
            "samples_per_pipeline": 100.0,
            "probe_budget": 200,
        }
        base.update(over)
        return base

    def cell(self, **over):
        return ScenarioCell(
            **{"id": "c", "kind": "fleet", "executor": "process",
               "rates": (0.0, 0.33), **over}
        )

    def test_all_green_on_a_healthy_fleet(self):
        out = by_name(fleet_checks(self.cell(), self.metrics()))
        assert all(c["ok"] for c in out.values())
        assert set(out) == {
            "lemma49_agreement", "crash_transparent", "crashes_fired",
            "probe_budget", "availability",
        }
        # Lemma 4.9: agreement 0.99 vs 1 - epsilon = 0.9.
        assert out["lemma49_agreement"]["threshold"] == 0.9

    def test_agreement_below_one_minus_epsilon_fails(self):
        # Split items alone do not fail a fleet: unanimity 0.5 with
        # pairwise agreement above 1 - epsilon is the paper's promise.
        ok = by_name(fleet_checks(self.cell(), self.metrics(unanimity=0.5)))
        assert ok["lemma49_agreement"]["ok"]
        low = by_name(
            fleet_checks(self.cell(), self.metrics(pairwise_agreement=0.89))
        )
        assert not low["lemma49_agreement"]["ok"]

    def test_a_crash_table_that_differs_fails(self):
        out = by_name(
            fleet_checks(self.cell(), self.metrics(crash_transparent=False))
        )
        assert not out["crash_transparent"]["ok"]

    def test_a_positive_rate_with_no_kills_fails(self):
        out = by_name(fleet_checks(self.cell(), self.metrics(kills=0)))
        assert not out["crashes_fired"]["ok"]

    def test_rate_zero_ladder_has_no_crash_rung(self):
        cell = ScenarioCell(id="c", kind="fleet")
        out = by_name(fleet_checks(cell, self.metrics(rates=[0.0], kills=0)))
        assert "crashes_fired" not in out
        assert all(c["ok"] for c in out.values())

    def test_probe_budget_only_under_the_ideal_oracle(self):
        faulty = self.cell(oracle="faulty", fault_rate=0.05)
        out = by_name(
            fleet_checks(faulty, self.metrics(samples_per_pipeline=500.0))
        )
        assert "probe_budget" not in out
        assert not by_name(
            fleet_checks(self.cell(), self.metrics(samples_per_pipeline=500.0))
        )["probe_budget"]["ok"]


class TestLoadChecks:
    def rows(self):
        return [
            {"offered_qps": 50.0, "availability": 1.0, "p99_latency_ms": 3.0},
            {"offered_qps": 200.0, "availability": 0.9, "p99_latency_ms": 9.0},
        ]

    def test_healthy_sweep_passes(self):
        cell = ScenarioCell(id="c", kind="load", rates=(50, 200))
        out = by_name(load_checks(cell, self.rows(), {"detected": False}))
        assert all(c["ok"] for c in out.values())
        assert "knee_in_sweep" not in out

    def test_detected_knee_must_lie_inside_the_sweep(self):
        cell = ScenarioCell(id="c", kind="load", rates=(50, 200))
        inside = {"detected": True, "knee_rate": 120.0}
        outside = {"detected": True, "knee_rate": 500.0}
        assert by_name(load_checks(cell, self.rows(), inside))["knee_in_sweep"]["ok"]
        assert not by_name(load_checks(cell, self.rows(), outside))["knee_in_sweep"]["ok"]

    def test_inverted_tail_is_flagged(self):
        rows = self.rows()
        rows[-1]["p99_latency_ms"] = 1.0  # faster at 4x the load: nonsense
        cell = ScenarioCell(id="c", kind="load", rates=(50, 200))
        assert not by_name(load_checks(cell, rows, {"detected": False}))["tail_orders"]["ok"]


class TestAdversarialChecks:
    def cell(self, theorem="3.2"):
        return ScenarioCell(
            id="c", kind="adversarial", theorem=theorem, expect="budget_failure"
        )

    def test_success_criteria_match_the_paper(self):
        assert success_criterion("3.2") == 2.0 / 3.0
        assert success_criterion("3.3") == 2.0 / 3.0
        assert success_criterion("3.4") == 0.8

    def test_starved_strategy_reads_as_expected_failure(self):
        ev = StrategyEvaluation(budget=25, trials=400, successes=40, theoretical=0.1)
        out = by_name(adversarial_checks(self.cell(), ev))
        assert all(c["ok"] for c in out.values())

    def test_beating_the_bound_is_a_hard_failure(self):
        # Wilson lower bound of 390/400 sits far above 2/3: the suite
        # must read this as "impossibility bound beaten", not success.
        ev = StrategyEvaluation(budget=25, trials=400, successes=390)
        out = by_name(adversarial_checks(self.cell(), ev))
        assert not out["below_threshold"]["ok"]
        assert not out["bound_respected"]["ok"]

    def test_theory_consistency_checked_when_closed_form_known(self):
        ev = StrategyEvaluation(budget=25, trials=400, successes=40, theoretical=0.9)
        out = by_name(adversarial_checks(self.cell(), ev))
        assert not out["consistent_with_theory"]["ok"]
        no_theory = StrategyEvaluation(budget=25, trials=400, successes=40)
        assert "consistent_with_theory" not in by_name(
            adversarial_checks(self.cell(), no_theory)
        )
