"""Per-cell acceptance checks: paper guarantees as pass/fail records.

Every check is a plain dict — ``{"name", "ok", "observed",
"threshold", "detail"}`` — so a ``suite-report/v1`` document carries
the exact arithmetic behind each verdict, not just a boolean.  The
thresholds come from the paper where the paper supplies one:

* ``thm41_bound`` — the served value must meet Theorem 4.1's
  ``p(C) >= OPT/2 - 6*epsilon`` (the additive slack matters because
  profits are normalized to [0, 1]);
* ``probe_budget`` — samples per pipeline must respect Theorem 4.5 /
  Lemma 4.10's ``|R| + |Q|`` bound
  (:meth:`~repro.core.parameters.LCAParameters.expected_query_cost`);
* ``below_threshold`` / ``bound_respected`` — an adversarial cell's
  empirical success must sit below the theorem's success criterion
  (2/3 for Theorems 3.2/3.3, 4/5 for Theorem 3.4), and its Wilson
  lower confidence bound must not *exceed* the criterion — the latter
  flipping to ``ok=False`` is the suite saying "an impossibility bound
  was beaten", which no amount of ``expect`` can excuse;
* ``lemma49_agreement`` — a fleet cell's runs must agree pairwise on
  at least a ``1 - epsilon`` fraction of the probes (Lemma 4.9).

Cell-level overrides ride in ``cell.checks``: ``min_ratio`` (the CI
doctoring knob), ``probe_margin``, ``min_availability``.
"""

from __future__ import annotations

__all__ = [
    "check",
    "approx_checks",
    "load_checks",
    "chaos_checks",
    "adversarial_checks",
    "overload_checks",
    "fleet_checks",
    "success_criterion",
]


def check(name: str, ok: bool, observed, threshold, detail: str = "") -> dict:
    """One check record (floats rounded so reports stay byte-stable)."""
    rec = {
        "name": name,
        "ok": bool(ok),
        "observed": round(float(observed), 9)
        if isinstance(observed, float)
        else observed,
        "threshold": round(float(threshold), 9)
        if isinstance(threshold, float)
        else threshold,
    }
    if detail:
        rec["detail"] = detail
    return rec


def _min_availability(cell) -> float:
    default = 1.0 if cell.oracle == "ideal" else 0.9
    return float(cell.checks.get("min_availability", default))


def approx_checks(cell, metrics: dict) -> list[dict]:
    """Theorem 4.1 value, feasibility, Theorem 4.5 probes, availability."""
    opt = float(metrics["opt_ref"])
    worst = float(metrics["value_min"])
    bound = 0.5 * opt - 6.0 * cell.epsilon
    out = [
        check(
            "feasible",
            bool(metrics["feasible"]),
            bool(metrics["feasible"]),
            True,
            "every run's solution weight must fit the capacity",
        ),
        check(
            "thm41_bound",
            worst >= bound - 1e-9,
            worst,
            bound,
            "worst-run p(C) vs OPT/2 - 6*epsilon (Theorem 4.1)",
        ),
        check(
            "min_ratio",
            float(metrics["ratio"]) >= float(cell.checks.get("min_ratio", 0.0)),
            float(metrics["ratio"]),
            float(cell.checks.get("min_ratio", 0.0)),
            "worst-run p(C)/OPT vs the cell's configured floor",
        ),
    ]
    return out + _probes_and_availability(cell, metrics)


def _probes_and_availability(cell, metrics: dict) -> list[dict]:
    """The Theorem 4.5 probe bill (ideal oracle only) and availability."""
    out = []
    if cell.oracle == "ideal":
        margin = float(cell.checks.get("probe_margin", 1.0))
        budget = float(metrics["probe_budget"]) * margin
        out.append(
            check(
                "probe_budget",
                float(metrics["samples_per_pipeline"]) <= budget + 1e-9,
                float(metrics["samples_per_pipeline"]),
                budget,
                "samples per pipeline vs |R| + |Q| (Theorem 4.5 / Lemma 4.10)",
            )
        )
    out.append(
        check(
            "availability",
            float(metrics["availability"]) >= _min_availability(cell) - 1e-9,
            float(metrics["availability"]),
            _min_availability(cell),
            "fraction of answers served non-degraded",
        )
    )
    return out


def fleet_checks(cell, metrics: dict) -> list[dict]:
    """Lemma 4.9 agreement between runs, crash transparency, and the
    approx cells' probe and availability rules."""
    floor = 1.0 - float(cell.epsilon)
    agreement = float(metrics["pairwise_agreement"])
    out = [
        check(
            "lemma49_agreement",
            agreement >= floor - 1e-9,
            agreement,
            floor,
            "mean pairwise run agreement on the probes vs 1 - epsilon "
            "(Lemma 4.9)",
        ),
        check(
            "crash_transparent",
            bool(metrics["crash_transparent"]),
            bool(metrics["crash_transparent"]),
            True,
            "every kill rate's answer table equals the rate-0 table "
            "at the same shard layout",
        ),
    ]
    if max(metrics["rates"]) > 0.0:
        out.append(
            check(
                "crashes_fired",
                int(metrics["kills"]) >= 1,
                int(metrics["kills"]),
                1,
                "the top kill rate must kill at least one first-attempt "
                "shard (else the crash rung proves nothing)",
            )
        )
    return out + _probes_and_availability(cell, metrics)


def load_checks(cell, rows: list[dict], knee: dict) -> list[dict]:
    """Availability at the lowest rate, knee sanity, queueing shape."""
    lowest, highest = rows[0], rows[-1]
    floor = _min_availability(cell)
    out = [
        check(
            "availability_at_low_rate",
            float(lowest["availability"]) >= floor - 1e-9,
            float(lowest["availability"]),
            floor,
            f"availability at the lowest offered rate "
            f"({lowest['offered_qps']:g} q/s)",
        ),
        check(
            "tail_orders",
            float(highest["p99_latency_ms"]) >= float(lowest["p99_latency_ms"]) - 1e-6,
            float(highest["p99_latency_ms"]),
            float(lowest["p99_latency_ms"]),
            "open-loop queueing: p99 at the top rate >= p99 at the bottom",
        ),
    ]
    if knee.get("detected"):
        out.append(
            check(
                "knee_in_sweep",
                float(rows[0]["offered_qps"])
                <= float(knee["knee_rate"])
                <= float(rows[-1]["offered_qps"]),
                float(knee["knee_rate"]),
                float(rows[-1]["offered_qps"]),
                "a detected saturation knee must lie inside the swept rates",
            )
        )
    return out


def chaos_checks(cell, doc: dict) -> list[dict]:
    """Transparency at rate 0, availability under faults, no aborts."""
    rows = doc["rows"]
    worst = min(float(r["availability"]) for r in rows)
    floor = _min_availability(cell)
    return [
        check(
            "fault_free_equivalence",
            bool(doc["fault_free_equivalence"]),
            bool(doc["fault_free_equivalence"]),
            True,
            "a null fault plan must be observationally transparent",
        ),
        check(
            "availability",
            worst >= floor - 1e-9,
            worst,
            floor,
            "worst availability across the fault-rate ladder",
        ),
        check(
            "no_batch_aborts",
            all(int(r["batch_aborts"]) == 0 for r in rows),
            sum(int(r["batch_aborts"]) for r in rows),
            0,
            "degradation must absorb faults; batches never abort",
        ),
    ]


def success_criterion(theorem: str) -> float:
    """The paper's success criterion for one lower-bound theorem."""
    return 0.8 if theorem == "3.4" else 2.0 / 3.0


def adversarial_checks(cell, ev) -> list[dict]:
    """The impossibility verdict for one budget-starved cell.

    ``ev`` is a
    :class:`~repro.lowerbounds.query_complexity.StrategyEvaluation`.
    ``below_threshold`` failing means the cell was *not* starved enough
    (a matrix bug); ``bound_respected`` failing means the empirical
    success is statistically above the theorem's ceiling — the bound
    was beaten, which must surface as a hard failure.
    """
    criterion = success_criterion(cell.theorem)
    lo, hi = ev.confidence_interval()
    out = [
        check(
            "below_threshold",
            ev.success_rate < criterion,
            float(ev.success_rate),
            criterion,
            f"Theorem {cell.theorem}: empirical success at budget "
            f"{ev.budget} must sit below the success criterion",
        ),
        check(
            "bound_respected",
            lo <= criterion + 1e-9,
            float(lo),
            criterion,
            "Wilson lower confidence bound must not exceed the "
            "criterion (it doing so would beat the impossibility bound)",
        ),
    ]
    if ev.theoretical is not None:
        out.append(
            check(
                "consistent_with_theory",
                ev.consistent_with_theory(),
                float(ev.theoretical),
                float(ev.success_rate),
                "closed-form success must lie in the 99% Wilson interval",
            )
        )
    return out


def overload_checks(cell, comparison: dict, knee: dict) -> list[dict]:
    """The governed-overload verdict at ``overload_factor`` x the knee.

    Pass cells grade the governor's promise: with brownout on, goodput
    availability stays above the floor past the knee, and switching
    brownout off must cost availability (otherwise the ladder bought
    nothing).  ``budget_failure`` cells pin the Section 3 impossibility
    results at system scale: past the knee the **full-quality** fraction
    must sit below the theorem's success criterion for *both* variants —
    brownout is allowed to buy goodput, never to beat the bound.
    """
    out = [
        check(
            "knee_detected",
            bool(knee.get("detected")),
            bool(knee.get("detected")),
            True,
            "the comparison rate must be anchored at a detected "
            "saturation knee, not the sweep's top rate",
        )
    ]
    if cell.expect == "budget_failure":
        criterion = success_criterion(cell.theorem)
        out.append(
            check(
                "full_quality_must_fail",
                float(comparison["full_quality_off"]) < criterion,
                float(comparison["full_quality_off"]),
                criterion,
                f"Theorem {cell.theorem}: past the knee, the ungoverned "
                f"full-quality fraction must sit below the success criterion",
            )
        )
        out.append(
            check(
                "bound_respected",
                float(comparison["full_quality_on"]) < criterion,
                float(comparison["full_quality_on"]),
                criterion,
                "brownout must not beat the impossibility bound: its "
                "full-quality fraction stays below the criterion too",
            )
        )
        return out
    # Goodput floor: overload cells default to 0.9 regardless of oracle
    # model (past the knee even an ideal oracle degrades by design).
    floor = float(cell.checks.get("min_availability", 0.9))
    out.append(
        check(
            "availability_floor",
            float(comparison["availability_on"]) >= floor - 1e-9,
            float(comparison["availability_on"]),
            floor,
            f"goodput availability with brownout on at "
            f"{float(comparison['rate']):g} q/s (past the knee)",
        )
    )
    out.append(
        check(
            "brownout_off_sheds",
            float(comparison["availability_off"])
            < float(comparison["availability_on"]),
            float(comparison["availability_off"]),
            float(comparison["availability_on"]),
            "switching brownout off past the knee must cost availability",
        )
    )
    return out
