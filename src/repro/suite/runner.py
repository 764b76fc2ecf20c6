"""The suite runner: matrix in, one ``suite-report/v1`` document out.

:class:`SuiteRunner` executes every :class:`~repro.suite.cells.ScenarioCell`
of a :class:`~repro.suite.cells.SuiteConfig` through the subsystem the
cell names — the core pipeline for approximation cells, independent
service runs for fleet cells, the open-loop
:class:`~repro.load.LoadHarness` for load cells,
:func:`~repro.faults.chaos_sweep` for chaos cells, and the
Section 3 closed-form strategies for adversarial cells — then grades
each run with :mod:`repro.suite.checks` and folds the verdicts into one
report.

Outcome arithmetic (pinned by the schema validator): a cell that
raises is an ``error``; otherwise all checks passing yields ``pass``
(or ``expected_failure`` when the cell expects ``budget_failure`` —
the lower-bound families *supposed* to fail within budget), and any
check failing yields ``fail``.  The report is ``ok`` iff no cell
failed or errored.

Everything is seeded: cell randomness derives from
``(suite seed, crc32(cell id))``, so adding or reordering cells never
shifts another cell's stream, and a report rerun from its own embedded
config is byte-identical (all cells deterministic => the document is
written sorted-keys, the contract CI ``cmp``'s).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import ReproError
from ..obs.context import RunContext
from .cells import ScenarioCell, SuiteConfig
from .checks import (
    adversarial_checks,
    approx_checks,
    chaos_checks,
    fleet_checks,
    load_checks,
    overload_checks,
)

__all__ = ["SUITE_SCHEMA", "CellResult", "SuiteResult", "SuiteRunner", "run_suite"]

SUITE_SCHEMA = "suite-report/v1"

#: Metric keys each cell kind contributes to its obs-diff sentinel row.
_ROW_METRICS = {
    "approx": ("ratio", "availability", "samples_per_pipeline"),
    "load": ("availability", "achieved_qps", "p99_latency_ms"),
    "chaos": ("availability", "probe_retries"),
    "adversarial": ("success_rate",),
    "overload": (
        "availability_on",
        "availability_off",
        "full_quality_on",
        "full_quality_off",
        "overload_rate",
    ),
    "fleet": ("pairwise_agreement", "unanimity", "availability"),
}


@dataclass
class CellResult:
    """One cell's verdict: outcome, measured metrics, check records."""

    cell: ScenarioCell
    outcome: str
    metrics: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    error: str | None = None

    @property
    def ok(self) -> bool:
        """True unless the cell failed or errored (expected failures
        of adversarial cells count as correct outcomes)."""
        return self.outcome in ("pass", "expected_failure")

    def to_cell_dict(self) -> dict:
        out = {
            "id": self.cell.id,
            "kind": self.cell.kind,
            "family": self.cell.family,
            "n": self.cell.n,
            "epsilon": self.cell.epsilon,
            "oracle": self.cell.oracle,
            "executor": self.cell.executor,
            "clock": self.cell.clock,
            "expect": self.cell.expect,
            "outcome": self.outcome,
            "metrics": self.metrics,
            "checks": self.checks,
        }
        if self.cell.theorem is not None:
            out["theorem"] = self.cell.theorem
        if self.error is not None:
            out["error"] = self.error
        return out

    def to_row(self) -> dict:
        """The obs-diff sentinel row: ``mode="suite:<id>"`` plus the
        kind's comparable metrics, keyed like every other bench row."""
        row = {
            "mode": f"suite:{self.cell.id}",
            "n": self.cell.n,
            "family": self.cell.family,
            "outcome": self.outcome,
        }
        for key in _ROW_METRICS.get(self.cell.kind, ()):
            if key in self.metrics:
                row[key] = self.metrics[key]
        return row


@dataclass
class SuiteResult:
    """All cell results plus the config that produced them."""

    config: SuiteConfig
    results: list[CellResult]

    @property
    def summary(self) -> dict:
        counts = {"passed": 0, "failed": 0, "expected_failures": 0, "errors": 0}
        for r in self.results:
            counts[
                {
                    "pass": "passed",
                    "fail": "failed",
                    "expected_failure": "expected_failures",
                    "error": "errors",
                }[r.outcome]
            ] += 1
        return {"cells": len(self.results), **counts}

    @property
    def ok(self) -> bool:
        s = self.summary
        return s["failed"] == 0 and s["errors"] == 0

    def document(self) -> dict:
        """The validated ``suite-report/v1`` body."""
        from ..obs.schema import BenchDocument

        deterministic = all(r.cell.deterministic for r in self.results)
        doc = BenchDocument.build(
            "suite-report",
            name=self.config.name,
            title=self.config.title,
            rows=[r.to_row() for r in self.results],
            context=RunContext(
                bench="suite", config={"suite": self.config.to_dict()}
            ),
            deterministic=deterministic,
            cells=[r.to_cell_dict() for r in self.results],
            summary=self.summary,
            ok=self.ok,
        )
        # The byte-discipline flag doubles as a document field: readers
        # of the report need to know whether a rerun owes them identical
        # bytes without reconstructing the cell matrix.
        doc.body["deterministic"] = deterministic
        return doc.validate().body


class SuiteRunner:
    """Execute one :class:`SuiteConfig` cell by cell."""

    def __init__(self, config: SuiteConfig) -> None:
        self._config = config

    # ------------------------------------------------------------------
    def run(self, *, progress=None) -> SuiteResult:
        """Run every cell; a raising cell becomes an ``error`` result
        rather than aborting the suite.  ``progress`` (if given) is
        called with each finished :class:`CellResult`."""
        results = []
        for cell in self._config.cells:
            try:
                metrics, checks = self._run_cell(cell)
            except Exception as exc:  # noqa: BLE001 - suite boundary
                result = CellResult(
                    cell=cell,
                    outcome="error",
                    error=f"{type(exc).__name__}: {exc}",
                )
            else:
                all_ok = all(c["ok"] for c in checks)
                outcome = (
                    ("expected_failure" if cell.expect == "budget_failure" else "pass")
                    if all_ok
                    else "fail"
                )
                result = CellResult(
                    cell=cell, outcome=outcome, metrics=metrics, checks=checks
                )
            results.append(result)
            if progress is not None:
                progress(result)
        return SuiteResult(config=self._config, results=results)

    # ------------------------------------------------------------------
    def _cell_rng(self, cell: ScenarioCell) -> np.random.Generator:
        """Per-cell randomness: a stable function of (suite seed, cell
        id) — adding cells never perturbs existing cells' streams."""
        return np.random.default_rng(
            [int(self._config.seed), zlib.crc32(cell.id.encode())]
        )

    def _run_cell(self, cell: ScenarioCell) -> tuple[dict, list]:
        if cell.kind == "approx":
            return self._run_approx(cell)
        if cell.kind == "load":
            return self._run_load(cell)
        if cell.kind == "chaos":
            return self._run_chaos(cell)
        if cell.kind == "adversarial":
            return self._run_adversarial(cell)
        if cell.kind == "overload":
            return self._run_overload(cell)
        if cell.kind == "fleet":
            return self._run_fleet(cell)
        raise ReproError(f"cell {cell.id!r}: unknown kind {cell.kind!r}")

    # ------------------------------------------------------------------
    def _instance(self, cell: ScenarioCell):
        from ..analysis.experiments import default_families
        from ..knapsack.generators import generate

        kwargs = default_families(cell.epsilon).get(cell.family, {})
        return generate(cell.family, cell.n, seed=cell.instance_seed, **kwargs)

    def _params(self, cell: ScenarioCell):
        from ..core.parameters import LCAParameters

        params = LCAParameters.capped(cell.epsilon, cell.cap)
        return params or LCAParameters.calibrated(cell.epsilon)

    def _service(self, cell: ScenarioCell, inst, params, *, kill_rate: float = 0.0):
        """The cell's service: probe faults from its oracle model, shard
        kills at ``kill_rate`` (fleet cells' crash ladder)."""
        from ..faults import FaultPlan, RetryPolicy
        from ..serve import KnapsackService

        faulty = cell.oracle in ("faulty", "faulty_hedged")
        plan = None
        policy = None
        if faulty or kill_rate > 0.0:
            plan = FaultPlan(
                seed=int(self._config.seed) + zlib.crc32(cell.id.encode()) % 2**16,
                probe_failure_rate=cell.fault_rate if faulty else 0.0,
                corruption_rate=cell.corruption_rate if faulty else 0.0,
                latency_spike_rate=cell.latency_spike_rate if faulty else 0.0,
                shard_kill_rate=kill_rate,
            )
        if faulty:
            policy = RetryPolicy(
                max_retries=cell.retries,
                seed=cell.lca_seed,
                hedge_after_s=(
                    cell.hedge_after_s if cell.oracle == "faulty_hedged" else None
                ),
            )
        return KnapsackService(
            inst,
            cell.epsilon,
            seed=cell.lca_seed,
            params=params,
            cache=False,
            executor="thread" if cell.executor == "inline" else cell.executor,
            fault_plan=plan,
            retry_policy=policy,
            strict=not faulty,
        )

    def _run_approx(self, cell: ScenarioCell) -> tuple[dict, list]:
        """Serve every index of the instance, ``runs`` times, and grade
        the worst run's solution value against Theorem 4.1."""
        from ..analysis.experiments import reference_optimum

        inst = self._instance(cell)
        params = self._params(cell)
        opt, opt_exact = reference_optimum(inst)
        indices = list(range(inst.n))
        workers = None if cell.executor == "inline" else cell.workers
        values, degraded, answered, feasible, pipelines = [], 0, 0, True, 0
        with self._service(cell, inst, params) as service:
            for r in range(cell.runs):
                report = service.answer_batch(
                    indices, nonce=1_000 + r, workers=workers
                )
                chosen = [
                    a.index
                    for a in report.answers
                    if a.include and not getattr(a, "degraded", False)
                ]
                values.append(float(inst.profit_of(chosen)))
                feasible &= bool(inst.weight_of(chosen) <= inst.capacity + 1e-9)
                degraded += int(report.degraded)
                answered += len(report.answers)
                pipelines += int(report.pipelines_run)
        pipelines = max(1, pipelines)
        metrics = {
            "opt_ref": round(float(opt), 9),
            "opt_exact": bool(opt_exact),
            "value_min": round(min(values), 9),
            "ratio": round(min(values) / opt, 9) if opt > 0 else 1.0,
            "feasible": feasible,
            "availability": round(1.0 - degraded / answered, 9) if answered else 0.0,
            "samples_per_pipeline": round(service.samples_used / pipelines, 3),
            "probe_budget": int(params.expected_query_cost()),
            "pipelines_run": int(pipelines),
            "probe_retries": int(service.retries_used),
        }
        if cell.oracle == "faulty_hedged":
            metrics["probe_hedges"] = int(service.probe_hedges_used)
        return metrics, approx_checks(cell, metrics)

    def _run_fleet(self, cell: ScenarioCell) -> tuple[dict, list]:
        """Ask one probe set of ``runs`` independent runs, each under its
        own nonce and in its own order, at every shard-kill rate; grade
        the rate-0 table against Lemma 4.9 and every other rate's table
        against it bit for bit."""
        from ..access.seeds import SeedChain
        from ..lca.consistency import audit_consistency
        from ..serve.service import derive_worker_nonce

        inst = self._instance(cell)
        params = self._params(cell)
        rng = self._cell_rng(cell)
        probes = [int(i) for i in rng.choice(inst.n, size=cell.queries, replace=False)]
        orders = [rng.permutation(cell.queries) for _ in range(cell.runs)]
        nonces = [1_000 + r for r in range(cell.runs)]
        workers = None if cell.executor == "inline" else cell.workers
        rates = sorted({0.0, *cell.rates})
        tables, answered, degraded, pipelines, samples = [], 0, 0, 0, 0
        for rate in rates:
            table = []
            with self._service(cell, inst, params, kill_rate=rate) as service:
                for order, nonce in zip(orders, nonces):
                    report = service.answer_batch(
                        [probes[k] for k in order], nonce=nonce, workers=workers
                    )
                    include = {a.index: bool(a.include) for a in report.answers}
                    table.append([include[p] for p in probes])
                    answered += len(report.answers)
                    degraded += int(report.degraded)
                    pipelines += int(report.pipelines_run)
            samples += service.samples_used
            tables.append(table)
        audit = audit_consistency(lambda r: tables[0][r], probes, runs=cell.runs)
        # First-attempt kills at the top rate (the last service built),
        # read off the plan's stateless coins: retry counts depend on
        # pool timing and stay out of the report.
        kills = 0
        if service.fault_plan is not None and workers is not None and workers > 1:
            seed = SeedChain(cell.lca_seed)
            kills = sum(
                service.fault_plan.shard_kill(derive_worker_nonce(seed, nonce, k), 0)
                for nonce in nonces
                for k in range(min(workers, cell.queries))
            )
        metrics = {
            "probes": len(probes),
            "runs": int(cell.runs),
            "rates": rates,
            "pairwise_agreement": round(audit.pairwise_agreement, 9),
            "unanimity": round(audit.unanimity, 9),
            "split_items": list(audit.disagreeing_items),
            "crash_transparent": all(t == tables[0] for t in tables),
            "kills": int(kills),
            "availability": round(1.0 - degraded / answered, 9),
            "samples_per_pipeline": round(samples / max(1, pipelines), 3),
            "probe_budget": int(params.expected_query_cost()),
            "pipelines_run": int(pipelines),
        }
        return metrics, fleet_checks(cell, metrics)

    def _run_load(self, cell: ScenarioCell) -> tuple[dict, list]:
        from ..load.sweep import run_load_sweep

        rows, knee, _doc = run_load_sweep(
            {
                "family": cell.family,
                "n": cell.n,
                "seed": cell.instance_seed,
                "epsilon": cell.epsilon,
                "lca_seed": cell.lca_seed,
                "rates": list(cell.rates),
                "queries": cell.queries,
                "workers": cell.workers,
                "clock": "virtual" if cell.clock in ("none", "virtual") else "wall",
                "fault_rate": cell.fault_rate,
                "retries": cell.retries,
                "cap": cell.cap,
                "shared_instance": cell.shared_instance,
                "service_workers": cell.service_workers,
            }
        )
        lowest, highest = rows[0], rows[-1]
        metrics = {
            "rates": [float(r["offered_qps"]) for r in rows],
            "availability": float(lowest["availability"]),
            "achieved_qps": float(highest["achieved_qps"]),
            "p99_latency_ms": float(highest["p99_latency_ms"]),
            "knee_detected": bool(knee.get("detected")),
            "knee_rate": float(knee["knee_rate"]) if knee.get("detected") else None,
            "dropped": sum(int(r["dropped"]) for r in rows),
        }
        return metrics, load_checks(cell, rows, knee)

    def _run_overload(self, cell: ScenarioCell) -> tuple[dict, list]:
        """Grade the overload governor past the knee.

        Pass cells pin the availability floor with brownout on;
        ``budget_failure`` cells pin a Section 3 theorem — past the knee
        the full-quality fraction must fail for both variants."""
        from ..load.overload_sweep import run_overload_sweep

        rows, knee, doc = run_overload_sweep(
            {
                "family": cell.family,
                "n": cell.n,
                "seed": cell.instance_seed,
                "epsilon": cell.epsilon,
                "lca_seed": cell.lca_seed,
                "rates": list(cell.rates),
                "queries": cell.queries,
                "workers": cell.workers,
                "cap": cell.cap,
                "deadline_s": cell.deadline_s,
                "overload_factor": cell.overload_factor,
                "availability_floor": float(
                    cell.checks.get("min_availability", 0.9)
                ),
            }
        )
        comparison = doc["comparison"]
        metrics = {
            "rates": [float(r) for r in cell.rates],
            "knee_detected": bool(knee.get("detected")),
            "knee_rate": float(knee["knee_rate"]) if knee.get("detected") else None,
            "overload_rate": float(comparison["rate"]),
            "availability_on": float(comparison["availability_on"]),
            "availability_off": float(comparison["availability_off"]),
            "full_quality_on": float(comparison["full_quality_on"]),
            "full_quality_off": float(comparison["full_quality_off"]),
            "deadline_shed": sum(int(r.get("deadline_shed", 0)) for r in rows),
            "brownout_shed": sum(int(r.get("brownout_shed", 0)) for r in rows),
        }
        return metrics, overload_checks(cell, comparison, knee)

    def _run_chaos(self, cell: ScenarioCell) -> tuple[dict, list]:
        from ..faults import RetryPolicy, chaos_sweep

        inst = self._instance(cell)
        chaos_seed = int(self._config.seed) + 7
        rates = list(cell.rates) if cell.rates else [0.0, cell.fault_rate or 0.1]
        doc = chaos_sweep(
            inst,
            epsilon=cell.epsilon,
            lca_seed=cell.lca_seed,
            chaos_seed=chaos_seed,
            rates=tuple(float(r) for r in rates),
            queries=cell.queries,
            batches=cell.batches,
            availability_target=float(cell.checks.get("min_availability", 0.9)),
            params=self._params(cell),
            retry=RetryPolicy(
                max_retries=cell.retries or 3,
                seed=chaos_seed,
                hedge_after_s=(
                    cell.hedge_after_s if cell.oracle == "faulty_hedged" else None
                ),
            ),
            corruption_rate=cell.corruption_rate,
            latency_spike_rate=cell.latency_spike_rate,
        )
        rows = doc["rows"]
        metrics = {
            "rates": [float(r["probe_failure_rate"]) for r in rows],
            "availability": min(float(r["availability"]) for r in rows),
            "probe_retries": sum(int(r["probe_retries"]) for r in rows),
            "fault_free_equivalence": bool(doc["fault_free_equivalence"]),
        }
        if any("probe_hedges" in r for r in rows):
            metrics["probe_hedges"] = sum(int(r.get("probe_hedges", 0)) for r in rows)
        return metrics, chaos_checks(cell, doc)

    def _run_adversarial(self, cell: ScenarioCell) -> tuple[dict, list]:
        """Run the theorem's closed-form-optimal strategy at the cell's
        starved budget; the *correct* outcome is failure within budget."""
        from ..lowerbounds.query_complexity import (
            sweep_maximal_budgets,
            sweep_or_budgets,
        )

        rng = self._cell_rng(cell)
        if cell.theorem in ("3.2", "3.3"):
            # Theorem 3.3 rides the same hard OR distribution — the
            # reduction's point is that approximation quality cannot
            # help, so the success curve is alpha-independent.
            m = cell.n - 1
            budget = int(round(cell.budget_fraction * m))
            ev = sweep_or_budgets(m, [budget], rng, trials=cell.trials)[0]
        else:  # "3.4"
            budget = int(round(cell.budget_fraction * cell.n))
            ev = sweep_maximal_budgets(cell.n, [budget], rng, trials=cell.trials)[0]
        lo, hi = ev.confidence_interval()
        metrics = {
            "theorem": cell.theorem,
            "budget": int(ev.budget),
            "budget_fraction": float(cell.budget_fraction),
            "trials": int(ev.trials),
            "success_rate": round(ev.success_rate, 9),
            "success_theory": round(float(ev.theoretical), 9)
            if ev.theoretical is not None
            else None,
            "ci_lo": round(float(lo), 9),
            "ci_hi": round(float(hi), 9),
        }
        if cell.theorem == "3.3":
            metrics["alpha"] = float(cell.alpha)
        return metrics, adversarial_checks(cell, ev)


def run_suite(config: SuiteConfig, *, progress=None) -> SuiteResult:
    """Convenience: ``SuiteRunner(config).run()``."""
    return SuiteRunner(config).run(progress=progress)
