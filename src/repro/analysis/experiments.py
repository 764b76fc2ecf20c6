"""The paper's experiments (E1-E15 in DESIGN.md), registered once.

Each ``exp_*`` function runs one experiment and returns a list of row
dicts.  :data:`EXPERIMENTS` registers every committed table by its id
(``E1_thm32`` ... ``E15_footnote3``) with its title and its checks: the
claim's inequalities, each a ``suite.checks.check`` record, graded on
the rows alone.  ``repro suite benchmarks/suites/theorems.json`` runs
them as ``theorem`` cells at the committed sizes, and ``repro report``
renders the tables that EXPERIMENTS.md quotes.

Everything is deterministic given the ``seed`` arguments.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..access.oracle import QueryOracle
from ..access.seeds import SeedChain
from ..access.weighted_sampler import WeightedSampler
from ..core.lca_kp import LCAKP
from ..core.mapping_greedy import mapping_greedy
from ..core.parameters import LCAParameters, coupon_collector_samples
from ..iky.value_approx import IKYValueApproximator
from ..knapsack import generators
from ..knapsack.instance import KnapsackInstance
from ..knapsack.solvers import (
    branch_and_bound,
    fptas,
    fractional_upper_bound,
    half_approximation,
    meet_in_middle,
    prefix_greedy,
    solve_exact,
)
from ..lowerbounds.approx_reduction import ApproxReduction, verify_reduction_semantics
from ..lowerbounds.decision_tree import (
    best_strategy_value,
    enumerate_all_strategies_or,
    optimal_or_success_exact,
)
from ..lowerbounds.maximal_hard import budget_for_error
from ..lowerbounds.or_reduction import queries_needed_for_success
from ..lowerbounds.query_complexity import sweep_maximal_budgets, sweep_or_budgets
from ..reproducible.domains import EfficiencyDomain
from ..reproducible.heavy_hitters import heavy_hitters_sample_complexity
from ..reproducible.rquantile import ReproducibleQuantileEstimator
from ..suite.checks import check

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "exp_thm32_or_lower_bound",
    "exp_thm32_exact_verification",
    "exp_thm33_approx_lower_bound",
    "exp_thm34_maximal_lower_bound",
    "exp_thm41_approximation",
    "exp_thm41_consistency",
    "exp_thm41_query_scaling",
    "exp_thm41_epsilon_scaling",
    "exp_lemma42_coupon",
    "exp_rquantile_reproducibility",
    "exp_iky_value",
    "exp_footnote3_query_scaling",
    "exp_naive_vs_reproducible",
    "exp_ablation_domain_bits",
    "exp_solver_agreement",
    "exp_tie_breaking",
    "exp_large_set_agreement",
    "default_families",
    "reference_optimum",
]

#: Families used by the Theorem 4.1 experiments, with their kwargs.
def default_families(epsilon: float) -> dict[str, dict]:
    """The workload suite for the positive-result benches."""
    return {
        "planted_lsg": {"epsilon": epsilon},
        "efficiency_tiers": {"tiers": 10},
        "uniform": {},
        "weakly_correlated": {},
        "strongly_correlated": {},
        "greedy_adversarial": {},
    }


def reference_optimum(instance: KnapsackInstance) -> tuple[float, bool]:
    """(OPT or an upper bound on it, is_exact).

    Exact branch-and-bound when it finishes quickly; otherwise the
    fractional upper bound (which only makes measured ratios look
    *worse*, never better — the conservative direction).
    """
    if instance.n <= 400:
        try:
            return branch_and_bound(instance, node_limit=2_000_000).value, True
        except Exception:  # noqa: BLE001 - fall through to the bound
            pass
    return fractional_upper_bound(instance), False


def _each(name: str, rows, ok: Callable[[dict], bool], detail: str) -> dict:
    """One check that ``ok(row)`` holds on every row; it observes the
    number of rows where it fails, which must be 0."""
    failing = sum(1 for row in rows if not ok(row))
    return check(name, failing == 0, failing, 0, detail)


def _ascending(name: str, values: list, detail: str) -> dict:
    """One check that ``values`` never decrease; it observes the number
    of adjacent pairs that do, which must be 0."""
    descents = sum(1 for a, b in zip(values, values[1:]) if b < a)
    return check(name, descents == 0, descents, 0, detail)


# ----------------------------------------------------------------------
# E1 / E2 / E3 — the impossibility results
# ----------------------------------------------------------------------
def exp_thm32_or_lower_bound(
    *,
    ns,
    trials: int,
    budget_fractions=(0.0, 0.1, 1 / 3, 0.5, 0.9),
    seed: int = 0,
) -> list[dict]:
    """E1: optimal success vs. query budget on the Figure 1 reduction.

    The "success needed" column marks the paper's 2/3 criterion; the
    crossing budget grows linearly with n.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for n in ns:
        m = n - 1  # OR input length for an n-item instance
        budgets = [int(round(f * m)) for f in budget_fractions]
        for ev in sweep_or_budgets(m, budgets, rng, trials=trials):
            lo, hi = ev.confidence_interval()
            rows.append(
                {
                    "n": n,
                    "budget": ev.budget,
                    "budget/n": ev.budget / n,
                    "success_emp": ev.success_rate,
                    "success_theory": ev.theoretical,
                    "ci_lo": lo,
                    "ci_hi": hi,
                    "meets_2/3": ev.success_rate >= 2 / 3,
                }
            )
    return rows


def _thm32_checks(rows: list[dict]) -> list[dict]:
    gap = max(abs(r["success_emp"] - r["success_theory"]) for r in rows)
    growth = queries_needed_for_success(rows[-1]["n"] - 1) / queries_needed_for_success(
        rows[0]["n"] - 1
    )
    return [
        check("matches_closed_form", gap < 0.05, gap, 0.05,
              "largest |empirical - closed-form| success over the sweep"),
        _each("two_thirds_needs_linear_budget", rows,
              lambda r: not r["meets_2/3"]
              or r["budget"] >= queries_needed_for_success(r["n"] - 1) - 2,
              "every row meeting 2/3 success spends >= (n-1)/3 - 2 queries"),
        check("threshold_linear_in_n", growth > 50, growth, 50,
              "2/3-success budget at the sweep's last n over its first"),
    ]


def exp_thm32_exact_verification(*, cases) -> list[dict]:
    """E1b: the E1 closed form certified two independent exact ways.

    A Bayes DP over knowledge states (any m) and an exhaustive
    enumeration of ALL deterministic decision trees (small m) must both
    equal ``1/2 + q/(2m)`` — Yao's principle, executed.
    """
    rows = []
    for m, q in cases:
        best, count = enumerate_all_strategies_or(m, q)
        rows.append(
            {
                "m": m,
                "q": q,
                "strategies_enumerated": count,
                "best_over_all_trees": float(best),
                "closed_form": float(best_strategy_value(m, q)),
                "dp_value": float(optimal_or_success_exact(m, q)),
            }
        )
    return rows


def _thm32_exact_checks(rows: list[dict]) -> list[dict]:
    return [
        _each("trees_match_closed_form_and_dp", rows,
              lambda r: r["best_over_all_trees"] == r["closed_form"] == r["dp_value"],
              "best decision tree == closed form == Bayes DP, per (m, q)"),
    ]


def exp_thm33_approx_lower_bound(
    *,
    alphas,
    m: int,
    trials: int,
    seed: int = 0,
) -> list[dict]:
    """E2: the alpha-approximation reduction, for a grid of alphas.

    The semantic check certifies {s_n} is alpha-approximate iff
    OR(x)=0; the optimal-strategy curve is the *same* for every alpha
    (the reduction's point: approximation quality does not help).
    """
    if m < 10:
        # Below 10 the m/10 budget merges with 0 and the sublinear check
        # would grade the m/3 budget instead.
        raise ValueError(f"E2 needs m >= 10 for four distinct budgets, got {m}")
    rng = np.random.default_rng(seed)
    rows = []
    budgets = [0, m // 10, m // 3, (2 * m) // 3]
    for alpha in alphas:
        semantics_ok = verify_reduction_semantics(alpha, m, rng, trials=100)
        red = ApproxReduction(alpha)
        for ev in sweep_or_budgets(m, budgets, rng, trials=trials):
            rows.append(
                {
                    "alpha": alpha,
                    "beta": red.beta,
                    "semantics_ok": semantics_ok,
                    "budget": ev.budget,
                    "success_emp": ev.success_rate,
                    "success_theory": ev.theoretical,
                }
            )
    return rows


def _thm33_checks(rows: list[dict]) -> list[dict]:
    by_budget = defaultdict(set)
    for row in rows:
        by_budget[row["budget"]].add(round(row["success_theory"], 12))
    spread = max(len(values) for values in by_budget.values())
    # The sweep's budgets are 0, m/10, m/3 and 2m/3 (distinct for m >= 10):
    # the second is m/10.
    sublinear = sorted(by_budget)[1]
    return [
        _each("reduction_semantics", rows, lambda r: r["semantics_ok"],
              "{s_n} is alpha-approximate iff OR(x) = 0, for every alpha"),
        check("curve_alpha_independent", spread == 1, spread, 1,
              "most distinct closed-form success values at one budget across alphas"),
        _each("sublinear_budget_fails", rows,
              lambda r: r["budget"] > sublinear or r["success_emp"] < 0.62,
              "success stays below 0.62 at every budget <= m/10"),
    ]


def exp_thm34_maximal_lower_bound(
    *,
    ns,
    trials: int,
    budget_fractions=(0.0, 1 / 11, 0.25, 0.5, 0.6, 0.95),
    seed: int = 0,
) -> list[dict]:
    """E3: maximal-feasibility hard distribution, error vs. budget.

    The theorem's regime: any algorithm with budget < n/11 has error
    > 1/5.  The canonical strategy's closed-form error is
    ``(1 - q/(n-1)) / 2``; both empirical and theory columns show the
    error staying far above 1/5 until the budget is a constant fraction
    of n (0.6 n for this strategy).
    """
    rng = np.random.default_rng(seed)
    rows = []
    for n in ns:
        budgets = [int(round(f * n)) for f in budget_fractions]
        for ev in sweep_maximal_budgets(n, budgets, rng, trials=trials):
            rows.append(
                {
                    "n": n,
                    "budget": ev.budget,
                    "budget/n": ev.budget / n,
                    "error_emp": 1.0 - ev.success_rate,
                    "error_theory": 1.0 - (ev.theoretical or 0.0),
                    "below_1/5": (1.0 - ev.success_rate) <= 0.2,
                }
            )
    return rows


def _thm34_checks(rows: list[dict]) -> list[dict]:
    gap = max(abs(r["error_emp"] - r["error_theory"]) for r in rows)
    growth = budget_for_error(rows[-1]["n"]) / budget_for_error(rows[0]["n"])
    return [
        check("matches_closed_form", gap < 0.06, gap, 0.06,
              "largest |empirical - closed-form| error over the sweep"),
        _each("starved_error_above_1/5", rows,
              lambda r: r["budget"] > r["n"] / 11 or r["error_emp"] > 0.2,
              "error > 1/5 at every budget <= n/11 (Theorem 3.4)"),
        check("error_budget_linear_in_n", growth > 10, growth, 10,
              "error-1/5 budget at the sweep's last n over its first"),
    ]


# ----------------------------------------------------------------------
# E4 / E5 / E6 — the positive result
# ----------------------------------------------------------------------
def exp_thm41_approximation(
    *,
    n: int,
    epsilon: float,
    runs: int,
    seed: int = 7,
    params: LCAParameters | None = None,
) -> list[dict]:
    """E4: p(C) vs. the (1/2, 6 eps) bound, per workload family."""
    params = params or LCAParameters.calibrated(epsilon)
    rows = []
    for family, kwargs in default_families(epsilon).items():
        inst = generators.generate(family, n, seed=seed, **kwargs)
        opt, exact = reference_optimum(inst)
        half = half_approximation(inst)
        lca = LCAKP(WeightedSampler(inst), QueryOracle(inst), epsilon, seed=42, params=params)
        values, feasible = [], True
        for r in range(runs):
            pipe = lca.run_pipeline(nonce=1000 + r)
            solution = mapping_greedy(inst, pipe.converted)
            values.append(inst.profit_of(solution))
            feasible &= inst.weight_of(solution) <= inst.capacity + 1e-9
        worst = min(values)
        rows.append(
            {
                "family": family,
                "opt_ref": opt,
                "opt_exact": exact,
                "p(C)_min": worst,
                "ratio": worst / opt if opt > 0 else 1.0,
                "bound_half_minus_6eps": 0.5 * opt - 6 * epsilon,
                "meets_bound": worst >= 0.5 * opt - 6 * epsilon - 1e-9,
                "classic_half_value": half.value,
                "feasible": feasible,
            }
        )
    return rows


def _thm41_approximation_checks(rows: list[dict]) -> list[dict]:
    by = {r["family"]: r for r in rows}
    designed = min(by[f]["ratio"] for f in ("planted_lsg", "efficiency_tiers", "uniform"))
    return [
        _each("feasible", rows, lambda r: r["feasible"],
              "every family's solution C fits the capacity"),
        _each("thm41_bound", rows, lambda r: r["meets_bound"],
              "p(C) >= OPT/2 - 6 eps on every family (Theorem 4.1)"),
        check("designed_families_beat_half", designed >= 0.5, designed, 0.5,
              "worst p(C)/OPT over planted_lsg, efficiency_tiers and uniform"),
    ]


def exp_thm41_consistency(
    *,
    n: int,
    epsilon: float,
    runs: int,
    probes: int,
    seed: int = 7,
    params: LCAParameters | None = None,
) -> list[dict]:
    """E5: cross-run answer agreement per family (Lemma 4.9's claim)."""
    params = params or LCAParameters.calibrated(epsilon)
    rng = np.random.default_rng(0)
    rows = []
    for family, kwargs in default_families(epsilon).items():
        inst = generators.generate(family, n, seed=seed, **kwargs)
        lca = LCAKP(WeightedSampler(inst), QueryOracle(inst), epsilon, seed=42, params=params)
        probe_items = rng.choice(inst.n, size=min(probes, inst.n), replace=False)
        pipes = [lca.run_pipeline(nonce=2000 + r) for r in range(runs)]
        table = np.array(
            [
                [
                    pipe.converted.decide(inst.profit(int(i)), inst.weight(int(i)), int(i))
                    for i in probe_items
                ]
                for pipe in pipes
            ]
        )
        unanimity = float(np.mean(np.all(table == table[0], axis=0)))
        pair = []
        for a in range(runs):
            for b in range(a + 1, runs):
                pair.append(float(np.mean(table[a] == table[b])))
        identical_pipelines = sum(
            1 for pipe in pipes if pipe.signature() == pipes[0].signature()
        )
        rows.append(
            {
                "family": family,
                "runs": runs,
                "probe_items": len(probe_items),
                "unanimity": unanimity,
                "pairwise_agreement": float(np.mean(pair)),
                "identical_pipelines": identical_pipelines,
                "target_1_minus_eps": 1 - epsilon,
            }
        )
    return rows


def _thm41_consistency_checks(rows: list[dict]) -> list[dict]:
    by = {r["family"]: r for r in rows}
    return [
        _each("lemma49_agreement", rows,
              lambda r: r["pairwise_agreement"] >= r["target_1_minus_eps"] - 0.02,
              "pairwise agreement >= 1 - eps - 0.02 on every family (Lemma 4.9)"),
        *(
            check(f"{family}_unanimous", by[family]["unanimity"] >= 0.95,
                  by[family]["unanimity"], 0.95, "share of probes all runs agree on")
            for family in ("planted_lsg", "efficiency_tiers")
        ),
    ]


def exp_thm41_query_scaling(
    *,
    ns,
    epsilon: float,
    seed: int = 7,
    params: LCAParameters | None = None,
) -> list[dict]:
    """E6: per-query cost vs. n — LCA-KP flat, full-read baseline linear.

    This is the Lemma 4.10 claim in measurable form: the LCA's sample
    count per query depends on eps (and log* n through the domain), not
    on n.
    """
    params = params or LCAParameters.calibrated(epsilon)
    rows = []
    for n in ns:
        inst = generators.planted_lsg(n, seed=seed, epsilon=epsilon)
        sampler = WeightedSampler(inst)
        oracle = QueryOracle(inst)
        lca = LCAKP(sampler, oracle, epsilon, seed=42, params=params)
        before = sampler.samples_used
        lca.answer(0, nonce=1)
        lca_cost = (sampler.samples_used - before) + 1  # + the point query
        rows.append(
            {
                "n": n,
                "lca_cost_per_query": lca_cost,
                "full_read_cost_per_query": n,
                "ratio": lca_cost / n,
                "sublinear": lca_cost < n,
            }
        )
    return rows


def _thm41_query_scaling_checks(rows: list[dict]) -> list[dict]:
    costs = [r["lca_cost_per_query"] for r in rows]
    collapse = rows[0]["ratio"] / rows[-1]["ratio"]
    sublinear = bool(rows[-1]["sublinear"])
    return [
        check("cost_flat_in_n", max(costs) <= 1.3 * min(costs), max(costs) / min(costs),
              1.3, "largest over smallest per-query cost across the n sweep"),
        check("cost_ratio_collapse", collapse > 100, collapse, 100,
              "LCA/full-read cost ratio at the smallest n over the largest"),
        check("sublinear_at_largest_n", sublinear, sublinear, True,
              "the LCA pays fewer than n samples per query at the largest n"),
    ]


def exp_thm41_epsilon_scaling(
    *,
    epsilons,
    n: int,
    seed: int = 7,
) -> list[dict]:
    """E14: per-query cost vs. epsilon — the poly(1/eps) axis of Lemma 4.10.

    Fixes n and sweeps epsilon, measuring the samples one query actually
    draws under default calibrated sizing.  Three regimes are visible:
    the coupon-collector term ``m ~ eps^-2 log eps^-1`` (uncapped), the
    capped ``n_rq``, and the ``a ~ n_rq / (1 - p_L)`` efficiency sample
    whose 1/eps factor appears through the line-4 mass bound.  The
    uncapped calibrated formula and the verbatim Theorem 4.5 bound are
    reported alongside for contrast — three orders of sizing, one
    structure.
    """
    from ..reproducible.rmedian import (
        practical_sample_complexity,
        theoretical_sample_complexity,
    )

    rows = []
    inst = generators.planted_lsg(n, seed=seed, epsilon=min(0.1, min(epsilons)))
    for epsilon in sorted(epsilons, reverse=True):
        params = LCAParameters.calibrated(epsilon)
        sampler = WeightedSampler(inst)
        lca = LCAKP(sampler, QueryOracle(inst), epsilon, seed=42, params=params)
        before = sampler.samples_used
        lca.answer(0, nonce=1)
        measured = sampler.samples_used - before
        uncapped = practical_sample_complexity(
            params.tau, params.rho, params.domain.bits, beta=params.beta, max_samples=10**12
        )
        rows.append(
            {
                "epsilon": epsilon,
                "m_large": params.m_large,
                "n_rq_capped": params.n_rq,
                "measured_cost_per_query": measured,
                "cost_vs_n": measured / n,
                "uncapped_calibrated_nrq": uncapped,
                "thm45_theoretical_nrq": theoretical_sample_complexity(
                    params.tau, params.rho, params.domain.bits, beta=params.beta
                ),
            }
        )
    return rows


def _thm41_epsilon_scaling_checks(rows: list[dict]) -> list[dict]:
    costs = [r["measured_cost_per_query"] for r in rows]
    m_larges = [r["m_large"] for r in rows]
    return [
        _ascending("cost_grows_as_epsilon_shrinks", costs,
                   "times the measured cost falls from one epsilon to the next smaller"),
        _ascending("coupon_term_grows", m_larges,
                   "times m_large falls from one epsilon to the next smaller"),
        check("coupon_term_superlinear", m_larges[2] > 30 * m_larges[0], m_larges[2],
              30 * m_larges[0], "m_large at the third epsilon vs 30x the first"),
        _each("capped_below_uncapped", rows,
              lambda r: r["n_rq_capped"] <= r["uncapped_calibrated_nrq"],
              "capped n_rq <= the uncapped calibrated formula"),
        _each("uncapped_below_thm45", rows,
              lambda r: r["uncapped_calibrated_nrq"] <= r["thm45_theoretical_nrq"],
              "uncapped calibrated n_rq <= the Theorem 4.5 bound"),
    ]


# ----------------------------------------------------------------------
# E7 / E8 / E9 — the building blocks
# ----------------------------------------------------------------------
def exp_lemma42_coupon(
    *,
    deltas,
    n: int,
    trials: int,
    seed: int = 3,
) -> list[dict]:
    """E8: the Lemma 4.2 coupon-collector guarantee, measured.

    For each delta: build an instance with several items of profit
    >= delta, draw the lemma's sample count, and check all of them were
    seen.  The lemma promises success >= 5/6.
    """
    rows = []
    rng = np.random.default_rng(seed)
    for delta in deltas:
        # An instance with ~1/(2 delta) heavy items of profit ~delta each
        # plus light filler: the hardest shape for collection.
        k = max(1, int(0.5 / delta))
        heavy = np.full(k, delta)
        light = rng.uniform(0.5, 1.0, size=n - k)
        light *= max(1e-9, 1.0 - heavy.sum()) / light.sum()
        profits = np.concatenate([heavy, light])
        weights = rng.uniform(0.01, 1.0, size=n)
        inst = KnapsackInstance(profits, weights, capacity=float(weights.max()), normalize=True)
        target = set(range(k))
        m = coupon_collector_samples(delta, failure=1 / 6)
        successes = 0
        for t in range(trials):
            ws = WeightedSampler(inst)
            block = ws.sample_block(m, np.random.default_rng(seed * 1000 + t))
            got = set(block.indices.tolist())
            successes += int(target <= got)
        rows.append(
            {
                "delta": delta,
                "heavy_items": k,
                "samples_m": m,
                "success_rate": successes / trials,
                "guarantee": 5 / 6,
                "meets_guarantee": successes / trials >= 5 / 6,
            }
        )
    return rows


def _lemma42_checks(rows: list[dict]) -> list[dict]:
    return [
        _each("lemma42_guarantee", rows, lambda r: r["meets_guarantee"],
              "success >= 5/6 at the lemma's sample count, per delta"),
        _ascending("samples_grow_as_delta_shrinks", [r["samples_m"] for r in rows],
                   "times the lemma's m falls from one delta to the next smaller"),
    ]


def exp_rquantile_reproducibility(
    *,
    sample_sizes,
    runs: int,
    seed: int = 5,
    methods=("direct", "dyadic"),
) -> list[dict]:
    """E7: rQuantile agreement rate vs. sample size, shape and engine.

    Two regimes by design: atomic distributions (few distinct values)
    agree at tiny sample sizes; continuous ones need far more — the
    practical face of the log*|X| sample-complexity phenomenon.  The
    two independently-constructed engines (randomized-lattice grid
    descent vs. randomized-comparison dyadic descent) are run side by
    side as a cross-check.
    """
    dom = EfficiencyDomain(bits=12)
    atoms = np.array([0.05, 0.2, 0.7, 1.1, 2.5, 8.0])
    probs = np.array([0.1, 0.2, 0.25, 0.2, 0.15, 0.1])
    shapes = {
        "atomic": lambda g, m: g.choice(atoms, p=probs, size=m),
        "lognormal": lambda g, m: g.lognormal(0.0, 1.0, size=m),
        "uniform": lambda g, m: g.uniform(0.1, 10.0, size=m),
    }
    rows = []
    for method in methods:
        est = ReproducibleQuantileEstimator(
            domain=dom, tau=0.02, rho=0.05, beta=0.025, method=method
        )
        for shape_name, draw in shapes.items():
            for m in sample_sizes:
                node = SeedChain(seed).child(method).child(shape_name).child(m)
                outputs = [
                    est.quantile(
                        draw(np.random.default_rng(seed * 100 + r), m), 0.5, node
                    )
                    for r in range(runs)
                ]
                agree = 0
                total = 0
                for a in range(runs):
                    for b in range(a + 1, runs):
                        total += 1
                        agree += int(outputs[a] == outputs[b])
                # Accuracy: achieved quantile position of the modal
                # output, compared in *encoded* space — the output is a
                # grid cell's canonical value, which may sit a hair
                # below the data atom it represents, so raw <=
                # comparisons would misgrade atoms.
                check = draw(np.random.default_rng(999), 200_000)
                mode = max(set(outputs), key=outputs.count)
                achieved = float(
                    np.mean(dom.encode_many(check) <= dom.encode(float(mode)))
                )
                rows.append(
                    {
                        "engine": method,
                        "distribution": shape_name,
                        "samples": m,
                        "agreement": agree / total,
                        "achieved_quantile": achieved,
                        "target": 0.5,
                        "within_tau": abs(achieved - 0.5) <= 3 * est.tau,
                    }
                )
    return rows


def _rquantile_checks(rows: list[dict]) -> list[dict]:
    by = {(r["engine"], r["distribution"], r["samples"]): r["agreement"] for r in rows}
    engines = sorted({r["engine"] for r in rows})
    fewest, most = min(r["samples"] for r in rows), max(r["samples"] for r in rows)
    atomic = [min(by[(e, "atomic", m)] for e in engines) for m in (fewest, most)]
    pairs = [
        (by[(e, d, most)], by[(e, d, fewest)])
        for e in engines
        for d in ("lognormal", "uniform")
    ]
    return [
        check("atomic_agrees_at_fewest_samples", atomic[0] == 1.0, atomic[0], 1.0,
              "worst engine's agreement on atomic data at the fewest samples"),
        check("atomic_agrees_at_most_samples", atomic[1] == 1.0, atomic[1], 1.0,
              "worst engine's agreement on atomic data at the most samples"),
        check("continuous_agreement_improves", all(a >= b - 0.1 for a, b in pairs),
              min(a - b for a, b in pairs), -0.1,
              "worst agreement change from the fewest to the most samples, "
              "continuous shapes"),
        _each("modal_output_within_tau", rows, lambda r: r["within_tau"],
              "the modal output is a 3 tau-approximate median, every row"),
    ]


def exp_iky_value(
    *,
    n: int,
    epsilons,
    runs: int,
    seed: int = 7,
) -> list[dict]:
    """E9: the IKY value estimate vs. the true optimum (Lemma 4.4)."""
    rows = []
    for epsilon in epsilons:
        # The workload's planted partition uses a fixed shape epsilon
        # (valid for n >= ~150); the *algorithm's* epsilon is swept.
        inst = generators.planted_lsg(n, seed=seed, epsilon=0.1)
        opt, exact = reference_optimum(inst)
        approx = IKYValueApproximator(WeightedSampler(inst), epsilon, seed=42)
        for r in range(runs):
            est = approx.estimate(nonce=3000 + r)
            rows.append(
                {
                    "epsilon": epsilon,
                    "run": r,
                    "estimate": est.value,
                    "opt_ref": opt,
                    "opt_exact": exact,
                    "error": est.value - opt,
                    "within_6eps": abs(est.value - opt) <= 6 * epsilon + 1e-9,
                    "tilde_solved_exactly": est.exact,
                }
            )
    return rows


def _iky_checks(rows: list[dict]) -> list[dict]:
    return [
        _each("lemma44_within_6eps", rows, lambda r: r["within_6eps"],
              "|estimate - OPT| <= 6 eps on every run (Lemma 4.4)"),
        _each("reference_optimum_exact", rows, lambda r: r["opt_exact"],
              "the reference OPT is exact at this instance size"),
    ]


def exp_footnote3_query_scaling(
    *,
    query_counts,
    trials: int,
    n: int = 800,
    epsilon: float = 0.1,
    seed: int = 7,
    params: LCAParameters | None = None,
) -> list[dict]:
    """E15: all-queries-consistent probability vs. query count.

    The paper's footnote 3: to answer q queries all-correctly w.h.p.,
    the per-query failure probability must be set to O(1/q) (union
    bound).  We measure the union bound in action: each of q queries is
    answered by an *independent* stateless run; success means every
    answer matches the reference solution.  The success rate decays
    geometrically in q at fixed per-answer agreement — the measured
    counterpart of why delta must shrink with q.
    """
    params = params or LCAParameters.calibrated(
        epsilon,
        domain=EfficiencyDomain(bits=12),
        max_nrq=4_000,
        max_m_large=4_000,
    )
    inst = generators.planted_lsg(n, seed=seed, epsilon=epsilon)
    lca = LCAKP(WeightedSampler(inst), QueryOracle(inst), epsilon, seed=42, params=params)
    reference = lca.run_pipeline(nonce=1)

    def ref_answer(i: int) -> bool:
        return reference.rule.decide(inst.profit(i), inst.weight(i), i)

    rng = np.random.default_rng(0)
    # Per-answer agreement, measured once on a large probe set.
    probe = rng.choice(inst.n, size=min(200, inst.n), replace=False)
    pipes = [lca.run_pipeline(nonce=100 + r) for r in range(4)]
    per_answer = float(
        np.mean(
            [
                pipe.rule.decide(inst.profit(int(i)), inst.weight(int(i)), int(i))
                == ref_answer(int(i))
                for pipe in pipes
                for i in probe
            ]
        )
    )

    rows = []
    nonce = 1000
    for q in query_counts:
        successes = 0
        for _ in range(trials):
            ok = True
            items = rng.integers(0, inst.n, size=q)
            for i in items:
                nonce += 1
                pipe = lca.run_pipeline(nonce=nonce)
                if pipe.rule.decide(
                    inst.profit(int(i)), inst.weight(int(i)), int(i)
                ) != ref_answer(int(i)):
                    ok = False
                    break
            successes += int(ok)
        rows.append(
            {
                "q_queries": q,
                "all_consistent_rate": successes / trials,
                "per_answer_agreement": per_answer,
                "geometric_prediction": per_answer**q,
            }
        )
    return rows


def _footnote3_checks(rows: list[dict]) -> list[dict]:
    first, last = rows[0]["all_consistent_rate"], rows[-1]["all_consistent_rate"]
    gap = max(abs(r["all_consistent_rate"] - r["geometric_prediction"]) for r in rows)
    per_answer = rows[0]["per_answer_agreement"]
    return [
        check("decays_in_q", first >= last, last, first,
              "all-consistent rate at the largest q vs at the smallest"),
        check("drops_by_largest_q", last < first - 0.3, last, first - 0.3,
              "all-consistent rate at the largest q vs 0.3 below the smallest q's"),
        check("tracks_geometric_prediction", gap <= 0.25, gap, 0.25,
              "largest |measured - (per-answer agreement)^q| over q"),
        check("per_answer_agreement_high", per_answer > 0.9, per_answer, 0.9,
              "per-answer agreement: the decay is the union bound alone"),
    ]


# ----------------------------------------------------------------------
# E10 — ablations: what the reproducible machinery buys
# ----------------------------------------------------------------------
def exp_naive_vs_reproducible(*, runs: int, m: int) -> list[dict]:
    """E10a: exact-agreement rate of a single median estimate.

    Three estimators x two distribution shapes:

    * ``naive`` — the plain empirical median.  Trivially reproducible on
      atomic data (the median IS an atom) and *never* exactly equal
      across runs on continuous data;
    * ``naive_snapped`` — empirical median snapped to the fixed grid:
      the "naive attempts at rounding" the paper dismisses.  Decent on
      benign data, but its failure probability is pinned to wherever
      the fixed cell boundaries happen to sit — no parameter drives it
      to zero;
    * ``reproducible`` — rQuantile, whose disagreement probability is
      controlled by (tau, rho, samples) by design.

    This is the Section 1.1 discussion made quantitative: "this random
    sampling will lead to inconsistent answers."
    """
    dom = EfficiencyDomain(bits=12)
    est = ReproducibleQuantileEstimator(domain=dom, tau=0.02, rho=0.05, beta=0.025)
    seed = SeedChain(99).child("ablation")
    atoms = np.array([0.05, 0.2, 0.7, 1.1, 2.5, 8.0])
    probs = np.array([0.1, 0.2, 0.25, 0.2, 0.15, 0.1])
    shapes = {
        "atomic": lambda g: g.choice(atoms, p=probs, size=m),
        "lognormal": lambda g: g.lognormal(0.0, 1.0, size=m),
    }
    rows = []
    for shape, draw in shapes.items():
        for name in ("naive", "naive_snapped", "reproducible"):
            outputs = []
            for r in range(runs):
                sample = draw(np.random.default_rng(500 + r))
                if name == "naive":
                    outputs.append(float(np.quantile(sample, 0.5)))
                elif name == "naive_snapped":
                    outputs.append(
                        dom.decode(dom.encode(float(np.quantile(sample, 0.5))))
                    )
                else:
                    outputs.append(est.quantile(sample, 0.5, seed.child(shape)))
            agree = sum(
                outputs[i] == outputs[j]
                for i in range(runs)
                for j in range(i + 1, runs)
            ) / (runs * (runs - 1) / 2)
            rows.append(
                {
                    "distribution": shape,
                    "estimator": name,
                    "samples": m,
                    "exact_agreement": agree,
                }
            )
    return rows


def _naive_quantile_checks(rows: list[dict]) -> list[dict]:
    by = {(r["distribution"], r["estimator"]): r["exact_agreement"] for r in rows}
    snapped, naive = by[("lognormal", "naive_snapped")], by[("lognormal", "naive")]
    return [
        check("atomic_naive_agrees", by[("atomic", "naive")] == 1.0,
              by[("atomic", "naive")], 1.0, "atomic data: the empirical median is an atom"),
        check("atomic_reproducible_agrees", by[("atomic", "reproducible")] == 1.0,
              by[("atomic", "reproducible")], 1.0, "atomic data: rQuantile agrees"),
        check("lognormal_naive_never_agrees", naive == 0.0, naive, 0.0,
              "continuous data: the empirical median never repeats (Section 1.1)"),
        check("lognormal_reproducible_agrees", by[("lognormal", "reproducible")] >= 0.4,
              by[("lognormal", "reproducible")], 0.4,
              "continuous data: rQuantile recovers substantial agreement"),
        check("snapping_no_worse_than_naive", snapped >= naive, snapped, naive,
              "continuous data: grid-snapped vs plain empirical median"),
    ]


def exp_ablation_domain_bits(
    *,
    bits_grid,
    n: int = 1500,
    epsilon: float = 0.05,
    runs: int = 6,
    seed: int = 7,
) -> list[dict]:
    """E10: domain resolution vs. consistency vs. solution quality.

    Demonstrates the paper's central tension: consistency of exact
    outputs degrades as the efficiency domain grows (the log*|X| cost),
    while too-coarse domains merge genuinely distinct efficiencies and
    degrade the solution (catastrophically on near-degenerate
    families).  This ablation justifies the calibrated default
    (12 bits).
    """
    rows = []
    rng = np.random.default_rng(0)
    for family in ("planted_lsg", "weakly_correlated"):
        kwargs = {"epsilon": epsilon} if family == "planted_lsg" else {}
        inst = generators.generate(family, n, seed=seed, **kwargs)
        ub = fractional_upper_bound(inst)
        probe_items = rng.choice(inst.n, size=40, replace=False)
        for bits in bits_grid:
            params = LCAParameters.calibrated(epsilon, domain=EfficiencyDomain(bits=bits))
            lca = LCAKP(WeightedSampler(inst), QueryOracle(inst), epsilon, seed=42, params=params)
            pipes = [lca.run_pipeline(nonce=4000 + r) for r in range(runs)]
            table = np.array(
                [
                    [
                        p.converted.decide(inst.profit(int(i)), inst.weight(int(i)), int(i))
                        for i in probe_items
                    ]
                    for p in pipes
                ]
            )
            unanimity = float(np.mean(np.all(table == table[0], axis=0)))
            solution = mapping_greedy(inst, pipes[0].converted)
            value = inst.profit_of(solution)
            feasible = inst.weight_of(solution) <= inst.capacity + 1e-9
            rows.append(
                {
                    "family": family,
                    "domain_bits": bits,
                    "grid_step_pct": (10 ** (24 / (2**bits)) - 1) * 100,
                    "unanimity": unanimity,
                    "ratio": value / ub,
                    # Feasibility can BREAK at coarse resolutions on
                    # near-degenerate families: collapsed thresholds mean
                    # the estimated sequence is no longer an EPS, voiding
                    # Lemma 4.7's premise — a genuine finding of this
                    # ablation (see EXPERIMENTS.md).
                    "feasible": feasible,
                }
            )
    return rows


def _domain_bits_checks(rows: list[dict]) -> list[dict]:
    planted = {r["domain_bits"]: r for r in rows if r["family"] == "planted_lsg"}
    weakly = {r["domain_bits"]: r for r in rows if r["family"] == "weakly_correlated"}
    coarse, fine = planted[min(planted)]["unanimity"], planted[max(planted)]["unanimity"]
    weakly_ok = bool(weakly[12]["feasible"] and weakly[16]["feasible"])
    return [
        check("coarse_grid_no_less_unanimous", coarse >= fine - 0.05, coarse, fine - 0.05,
              "planted_lsg unanimity at the coarsest grid vs 0.05 below the finest's"),
        _each("planted_quality_and_feasibility",
              [r for r in rows if r["family"] == "planted_lsg"],
              lambda r: r["ratio"] > 0.5 and r["feasible"],
              "planted_lsg: ratio > 0.5 and feasible at every resolution"),
        check("weakly_feasible_at_12_and_16_bits", weakly_ok, weakly_ok, True,
              "weakly_correlated: feasible at the default 12 bits and at 16"),
    ]


# ----------------------------------------------------------------------
# E11 — the classical solvers the analysis leans on
# ----------------------------------------------------------------------
def exp_solver_agreement(*, n: int, seed: int) -> list[dict]:
    """E11: every solver's value on one uniform instance small enough
    for the exact solvers."""
    inst = generators.uniform(n, seed=seed)
    opt = solve_exact(inst).value
    rows = []
    for name, fn in (
        ("prefix_greedy", prefix_greedy),
        ("half_approximation", half_approximation),
        ("fptas(0.1)", lambda i: fptas(i, 0.1)),
        ("branch_and_bound", branch_and_bound),
        ("meet_in_middle", meet_in_middle),
    ):
        res = fn(inst)
        rows.append(
            {
                "solver": name,
                "value": res.value,
                "ratio_to_opt": res.value / opt,
                "items": len(res.indices),
                "exact": res.exact,
            }
        )
    bound = fractional_upper_bound(inst)
    rows.append(
        {
            "solver": "fractional_bound",
            "value": bound,
            "ratio_to_opt": bound / opt,
            "items": -1,
            "exact": False,
        }
    )
    return rows


def _solver_checks(rows: list[dict]) -> list[dict]:
    by = {r["solver"]: r for r in rows}
    exact, mim = by["branch_and_bound"]["value"], by["meet_in_middle"]["value"]
    tolerance = max(1e-6 * abs(mim), 1e-12)
    half = by["half_approximation"]["ratio_to_opt"]
    bound = by["fractional_bound"]["ratio_to_opt"]
    return [
        check("exact_solvers_agree", abs(exact - mim) <= tolerance, abs(exact - mim),
              tolerance, "branch-and-bound vs meet-in-the-middle value (relative 1e-6)"),
        check("half_approximation_ratio", half >= 0.5, half, 0.5,
              "the 1/2-approximation's value over OPT"),
        check("fractional_bound_dominates", bound >= 1.0, bound, 1.0,
              "the fractional relaxation's value over OPT"),
    ]


# ----------------------------------------------------------------------
# E12 / E13 — beyond the paper: an extension and a negative ablation
# ----------------------------------------------------------------------
def exp_tie_breaking(*, runs: int, n: int, epsilon: float) -> list[dict]:
    """E12: stochastic tie-breaking (``core.tie_breaking``, not in the
    paper) on efficiency-degenerate families.

    The base threshold rule cannot split an efficiency atom, so on
    subset-sum-like instances it returns the large-item-only solution;
    the extension's shared-seed coins include a budgeted fraction of the
    cut band.  Rows give the value recovered, the empirical feasibility
    rate of both rules, and the value on non-degenerate families, where
    the extension should change nothing.
    """
    params = LCAParameters.calibrated(epsilon, max_nrq=30_000, max_m_large=30_000)
    rows = []
    for family, kwargs in (
        ("subset_sum", {}),
        ("weakly_correlated", {"spread": 0.02}),  # near-degenerate
        ("planted_lsg", {"epsilon": epsilon}),
        ("efficiency_tiers", {"tiers": 8}),
    ):
        inst = generators.generate(family, n, seed=11, **kwargs)
        ub = fractional_upper_bound(inst)
        results = {}
        for mode in (False, True):
            lca = LCAKP(
                WeightedSampler(inst),
                QueryOracle(inst),
                epsilon,
                seed=5,
                params=params,
                tie_breaking=mode,
            )
            values, feasible = [], 0
            for r in range(runs):
                solution = mapping_greedy(inst, lca.run_pipeline(nonce=500 + r).rule)
                values.append(inst.profit_of(solution))
                feasible += inst.weight_of(solution) <= inst.capacity + 1e-9
            results[mode] = (float(np.mean(values)), feasible / runs)
        rows.append(
            {
                "family": family,
                "opt_upper": ub,
                "base_value": results[False][0],
                "ext_value": results[True][0],
                "base_feasible_rate": results[False][1],
                "ext_feasible_rate": results[True][1],
                "recovery": results[True][0] - results[False][0],
            }
        )
    return rows


def _tie_breaking_checks(rows: list[dict]) -> list[dict]:
    degenerate = next(r for r in rows if r["family"] == "subset_sum")
    return [
        check("degenerate_base_value_near_zero", degenerate["base_value"] < 0.05,
              degenerate["base_value"], 0.05, "subset_sum: the base rule's value"),
        check("degenerate_value_recovered", degenerate["ext_value"] > 0.2,
              degenerate["ext_value"], 0.2, "subset_sum: the extension's value"),
        _each("base_always_feasible", rows, lambda r: r["base_feasible_rate"] == 1.0,
              "the base rule is feasible on every run"),
        _each("extension_always_feasible", rows, lambda r: r["ext_feasible_rate"] == 1.0,
              "the extension is feasible on every run (stochastic guarantee, measured)"),
        _each("extension_never_regresses", rows,
              lambda r: r["ext_value"] >= r["base_value"] - 1e-9,
              "the extension only adds items: its value >= the base value"),
    ]


def exp_large_set_agreement(*, runs: int, n: int, epsilon: float) -> list[dict]:
    """E13: coupon-collector vs. heavy-hitters large-item detection.

    Algorithm 2 keeps every sampled item with profit > eps^2 (coupon
    mode); its only failure is never sampling a large item, which is
    astronomically rare once m >> 1/eps^2.  A reproducible heavy-hitters
    cutoff (``reproducible.heavy_hitters``) must instead resolve
    frequencies to within ~eps^2/4, which needs far more samples, so at
    calibrated budgets its output set flips run to run.  Detection by
    presence is exponentially easier than detection by frequency — why
    the paper routes identity through coupon collection and keeps the
    reproducibility machinery for the quantiles.
    """
    inst = generators.borderline_large(n, seed=13, epsilon=epsilon, n_borderline=8)
    params = LCAParameters.calibrated(
        epsilon,
        domain=EfficiencyDomain(bits=12),
        max_nrq=20_000,
        max_m_large=20_000,
    )
    rows = []
    for mode in ("coupon", "heavy_hitters"):
        lca = LCAKP(
            WeightedSampler(inst),
            QueryOracle(inst),
            epsilon,
            seed=5,
            params=params,
            large_item_mode=mode,
        )
        sets = [frozenset(lca.run_pipeline(nonce=700 + r).large_items) for r in range(runs)]
        pairs = [(i, j) for i in range(runs) for j in range(i + 1, runs)]
        agreement = sum(sets[i] == sets[j] for i, j in pairs) / len(pairs)
        sizes = sorted(len(s) for s in sets)
        rows.append(
            {
                "mode": mode,
                "samples_m": params.m_large,
                "exact_large_set_agreement": agreement,
                "distinct_sets": len(set(sets)),
                "set_size_min": sizes[0],
                "set_size_max": sizes[-1],
                "hh_samples_needed": heavy_hitters_sample_complexity(
                    epsilon * epsilon, 0.1
                )
                if mode == "heavy_hitters"
                else None,
            }
        )
    return rows


def _heavy_hitters_checks(rows: list[dict]) -> list[dict]:
    by = {r["mode"]: r for r in rows}
    coupon, hh = by["coupon"], by["heavy_hitters"]
    agreement = "exact_large_set_agreement"
    return [
        check("coupon_agreement_perfect", coupon[agreement] == 1.0, coupon[agreement],
              1.0, "coupon mode: runs' large-item sets agree exactly"),
        check("coupon_one_large_set", coupon["distinct_sets"] == 1,
              coupon["distinct_sets"], 1, "coupon mode: distinct large-item sets"),
        check("heavy_hitters_agree_less", hh[agreement] < coupon[agreement],
              hh[agreement], coupon[agreement],
              "heavy-hitters agreement vs coupon agreement at the same budget"),
        check("heavy_hitters_need_100x_samples",
              hh["hh_samples_needed"] > 100 * hh["samples_m"], hh["hh_samples_needed"],
              100 * hh["samples_m"], "heavy-hitters' sample need vs 100x the budget"),
    ]


# ----------------------------------------------------------------------
# The registry: one entry per committed table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Experiment:
    """One committed table: the function that makes its rows, its
    title, and the checks that grade the rows."""

    run: Callable[..., list[dict]]
    title: str
    checks: Callable[[list[dict]], list[dict]]


#: Every table EXPERIMENTS.md quotes, by id.  Their sizes live in
#: ``benchmarks/suites/theorems.json``, one ``theorem`` cell per entry.
EXPERIMENTS: dict[str, Experiment] = {
    "E1_thm32": Experiment(
        exp_thm32_or_lower_bound,
        "E1 (Theorem 3.2): optimal success vs. query budget on the OR reduction",
        _thm32_checks,
    ),
    "E1b_thm32_exact": Experiment(
        exp_thm32_exact_verification,
        "E1b (Theorem 3.2): exhaustive decision-tree verification",
        _thm32_exact_checks,
    ),
    "E2_thm33": Experiment(
        exp_thm33_approx_lower_bound,
        "E2 (Theorem 3.3): the reduction for a grid of alphas",
        _thm33_checks,
    ),
    "E3_thm34": Experiment(
        exp_thm34_maximal_lower_bound,
        "E3 (Theorem 3.4): maximal-feasibility error vs. probe budget",
        _thm34_checks,
    ),
    "E4_thm41_approx": Experiment(
        exp_thm41_approximation,
        "E4 (Theorem 4.1): solution value vs. the (1/2, 6 eps) bound, eps=0.05",
        _thm41_approximation_checks,
    ),
    "E5_thm41_consistency": Experiment(
        exp_thm41_consistency,
        "E5 (Theorem 4.1): cross-run answer agreement, eps=0.05, 6 runs",
        _thm41_consistency_checks,
    ),
    "E6_thm41_scaling": Experiment(
        exp_thm41_query_scaling,
        "E6 (Lemma 4.10): per-query cost, LCA-KP vs. full-read baseline",
        _thm41_query_scaling_checks,
    ),
    "E7_rquantile": Experiment(
        exp_rquantile_reproducibility,
        "E7 (Theorem 4.5): rQuantile agreement rate and accuracy, per engine",
        _rquantile_checks,
    ),
    "E8_lemma42": Experiment(
        exp_lemma42_coupon,
        "E8 (Lemma 4.2): collect-all-heavy-items success at the lemma's m",
        _lemma42_checks,
    ),
    "E9_iky_value": Experiment(
        exp_iky_value,
        "E9 (Lemma 4.4): IKY value estimate vs. exact OPT",
        _iky_checks,
    ),
    "E10a_naive_quantile": Experiment(
        exp_naive_vs_reproducible,
        "E10a: naive empirical quantile vs. rQuantile — exact cross-run agreement",
        _naive_quantile_checks,
    ),
    "E10b_domain_bits": Experiment(
        exp_ablation_domain_bits,
        "E10b: domain resolution vs. consistency vs. solution quality",
        _domain_bits_checks,
    ),
    "E11_solvers": Experiment(
        exp_solver_agreement,
        "E11: solver agreement on uniform n=26",
        _solver_checks,
    ),
    "E12_tie_breaking": Experiment(
        exp_tie_breaking,
        "E12 (extension): stochastic tie-breaking on degenerate families",
        _tie_breaking_checks,
    ),
    "E13_heavy_hitters": Experiment(
        exp_large_set_agreement,
        "E13 (ablation): large-item set agreement — the paper's coupon rule wins",
        _heavy_hitters_checks,
    ),
    "E14_epsilon_scaling": Experiment(
        exp_thm41_epsilon_scaling,
        "E14 (Lemma 4.10): per-query cost vs. epsilon, three sizing tiers",
        _thm41_epsilon_scaling_checks,
    ),
    "E15_footnote3": Experiment(
        exp_footnote3_query_scaling,
        "E15 (footnote 3): all-queries-consistent rate vs. query count",
        _footnote3_checks,
    ),
}
