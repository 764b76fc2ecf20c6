"""Seeded chaos sweeps: measure availability under injected faults.

A chaos sweep serves one fixed, seeded query workload through a
:class:`~repro.serve.KnapsackService` at a ladder of probe-failure
rates and reports, per rate: degraded answers, probe retries, injected
faults, and **availability** (fraction of answers served non-degraded).
It also runs the rate-0 control: a service wrapped in a null fault plan
must answer *bit-identically* to an unwrapped service — the decorators
are proven observationally transparent on every sweep.

The emitted ``chaos-report/v1`` document is **deterministic by
construction**: all randomness comes from the chaos seed and the LCA
seed, backoff is virtual, and no wall-clock field exists — running the
same sweep twice must produce byte-identical JSON (the CI chaos-smoke
job diffs two runs).
"""

from __future__ import annotations

import numpy as np

from ..core.parameters import LCAParameters
from ..errors import ReproError
from ..knapsack.generators import generate
from ..obs.context import CHAOS_DEFAULTS, RunContext
from .plan import FaultPlan
from .retry import RetryPolicy

__all__ = [
    "CHAOS_DEFAULTS", "CHAOS_SCHEMA", "chaos_sweep", "chaos_document", "run_chaos",
]

CHAOS_SCHEMA = "chaos-report/v1"


def _answers_key(answers) -> list[tuple]:
    """Bit-comparable projection of a batch's answers."""
    return [
        (a.index, a.include, getattr(a, "reason", ""),
         getattr(getattr(a, "item", None), "profit", None),
         getattr(getattr(a, "item", None), "weight", None))
        for a in answers
    ]


def chaos_sweep(
    instance,
    *,
    epsilon: float,
    lca_seed: int = CHAOS_DEFAULTS["lca_seed"],
    chaos_seed: int = CHAOS_DEFAULTS["chaos_seed"],
    rates: tuple[float, ...] = CHAOS_DEFAULTS["rates"],
    queries: int = CHAOS_DEFAULTS["queries"],
    batches: int = CHAOS_DEFAULTS["batches"],
    availability_target: float = CHAOS_DEFAULTS["availability_target"],
    params=None,
    retry: RetryPolicy | None = None,
    corruption_rate: float = CHAOS_DEFAULTS["corruption_rate"],
    latency_spike_rate: float = CHAOS_DEFAULTS["latency_spike_rate"],
    audit: bool = CHAOS_DEFAULTS["audit"],
    context=None,
) -> dict:
    """Run the sweep; returns a ``chaos-report/v1`` document (pure data).

    Each rate serves ``batches`` serial batches of ``queries`` fixed
    indices under pinned nonces through a fresh non-strict service wired
    with :class:`~repro.faults.FaultPlan` + ``retry``.  Batches must
    never abort: an escaping exception is counted (and fails the
    sweep) rather than crashing it.  ``audit=True`` additionally runs
    every sweep service with the probe plausibility audit, so injected
    corruptions that push an efficiency out of the domain's range are
    detected and retried; rows then carry ``corruptions_detected``.
    """
    from ..serve.service import KnapsackService  # local: serve imports faults

    if queries < 1 or batches < 1:
        raise ReproError("chaos sweep needs queries >= 1 and batches >= 1")
    if not rates:
        raise ReproError("chaos sweep needs at least one fault rate")
    retry = retry or RetryPolicy(
        max_retries=CHAOS_DEFAULTS["retries"], seed=int(chaos_seed)
    )
    idx_rng = np.random.default_rng(int(chaos_seed))
    indices = [int(i) for i in idx_rng.integers(instance.n, size=queries)]
    nonces = [200_000 + b for b in range(batches)]

    def serve_all(service) -> tuple[list, int]:
        all_answers = []
        aborts = 0
        for nonce in nonces:
            try:
                report = service.answer_batch(indices, nonce=nonce)
            except Exception:
                aborts += 1
                continue
            all_answers.extend(report.answers)
        return all_answers, aborts

    # Fault-free control (no plan at all), then the rate-0 transparency
    # check: a null-plan service must be bit-identical to the control.
    with KnapsackService(
        instance, epsilon, seed=lca_seed, params=params, cache=False
    ) as control:
        control_answers, _ = serve_all(control)
    with KnapsackService(
        instance, epsilon, seed=lca_seed, params=params, cache=False,
        fault_plan=FaultPlan(seed=int(chaos_seed)), retry_policy=retry, strict=False,
        probe_audit=audit,
    ) as null_svc:
        null_answers, _ = serve_all(null_svc)
    fault_free_equivalence = _answers_key(control_answers) == _answers_key(null_answers)

    rows = []
    for rate in rates:
        plan = FaultPlan(
            seed=int(chaos_seed),
            probe_failure_rate=float(rate),
            corruption_rate=float(corruption_rate),
            latency_spike_rate=float(latency_spike_rate),
        )
        with KnapsackService(
            instance, epsilon, seed=lca_seed, params=params, cache=False,
            fault_plan=plan, retry_policy=retry, strict=False,
            probe_audit=audit,
        ) as service:
            answers, aborts = serve_all(service)
        degraded = sum(1 for a in answers if getattr(a, "degraded", False))
        total = len(answers)
        availability = 1.0 - (degraded / total) if total else 0.0
        row = {
            "probe_failure_rate": float(rate),
            "corruption_rate": float(corruption_rate),
            "latency_spike_rate": float(latency_spike_rate),
            "answers": total,
            "degraded": degraded,
            "batch_aborts": aborts,
            "probe_retries": service.retries_used,
            "probe_failures_injected": service.faults_injected.get(
                "probe_failures", 0
            ),
            "corruptions_injected": service.faults_injected.get("corruptions", 0),
            "availability": round(availability, 6),
            "meets_target": bool(availability >= availability_target and aborts == 0),
        }
        if retry.hedge_after_s is not None:
            row["probe_hedges"] = int(getattr(service, "probe_hedges_used", 0))
            row["hedge_latency_saved_s"] = round(
                float(getattr(service, "hedge_latency_saved_s", 0.0)), 9
            )
        if audit:
            row["corruptions_detected"] = service.faults_injected.get(
                "corruptions_detected", 0
            )
        rows.append(row)

    return chaos_document(
        rows,
        chaos_seed=int(chaos_seed),
        lca_seed=int(lca_seed),
        n=int(instance.n),
        epsilon=float(epsilon),
        queries=queries,
        batches=batches,
        availability_target=float(availability_target),
        retry=retry,
        fault_free_equivalence=fault_free_equivalence,
        context=context,
    )


def run_chaos(cfg: dict) -> dict:
    """Run one chaos sweep from a plain config dict.

    Unknown keys are ignored and missing keys fall back to
    :data:`CHAOS_DEFAULTS`.  The report's ``context`` block holds the
    known keys exactly as given, so ``repro chaos`` and the rerun of its
    report (:meth:`~repro.obs.context.RunContext.rerun`) produce the
    same bytes.
    """
    given = {k: v for k, v in cfg.items() if k in CHAOS_DEFAULTS}
    cfg = {**CHAOS_DEFAULTS, **given}
    epsilon = float(cfg["epsilon"])
    chaos_seed = int(cfg["chaos_seed"])
    inst = generate(cfg["family"], int(cfg["n"]), seed=int(cfg["instance_seed"]))
    return chaos_sweep(
        inst,
        epsilon=epsilon,
        lca_seed=int(cfg["lca_seed"]),
        chaos_seed=chaos_seed,
        rates=tuple(float(r) for r in cfg["rates"]),
        queries=int(cfg["queries"]),
        batches=int(cfg["batches"]),
        availability_target=float(cfg["availability_target"]),
        params=LCAParameters.capped(epsilon, int(cfg["cap"])),
        retry=RetryPolicy(max_retries=int(cfg["retries"]), seed=chaos_seed),
        corruption_rate=float(cfg["corruption_rate"]),
        latency_spike_rate=float(cfg["latency_spike_rate"]),
        audit=bool(cfg["audit"]),
        context=RunContext(bench="chaos", config=given),
    )


def chaos_document(
    rows: list[dict],
    *,
    chaos_seed: int,
    lca_seed: int,
    n: int,
    epsilon: float,
    queries: int,
    batches: int,
    availability_target: float,
    retry: RetryPolicy,
    fault_free_equivalence: bool,
    context=None,
) -> dict:
    """Assemble the deterministic ``chaos-report/v1`` document.

    ``context`` (a :class:`~repro.obs.context.RunContext` or plain
    mapping) makes the report self-rerunnable like every other bench
    document; passing ``None`` keeps the historical context-free shape,
    so old byte baselines stay reproducible.
    """
    from ..obs.schema import BenchDocument

    fields = {
        "seed": chaos_seed,
        "lca_seed": lca_seed,
        "n": n,
        "epsilon": epsilon,
        "queries_per_batch": queries,
        "batches": batches,
        "availability_target": availability_target,
        "retry": {
            "max_retries": retry.max_retries,
            "backoff_base_s": retry.backoff_base_s,
            "backoff_factor": retry.backoff_factor,
            "jitter": retry.jitter,
            "hedge_after_s": retry.hedge_after_s,
        },
        "fault_free_equivalence": bool(fault_free_equivalence),
        "all_meet_target": bool(all(r["meets_target"] for r in rows)),
    }
    return BenchDocument.build(
        "chaos",
        name="chaos_sweep",
        title="Availability under injected probe faults (seeded, deterministic)",
        rows=rows,
        context=context,
        deterministic=True,
        **fields,
    ).body
