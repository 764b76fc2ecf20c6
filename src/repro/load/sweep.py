"""One open-loop load sweep from a plain config dict.

The config vocabulary (:data:`~repro.obs.context.LOAD_DEFAULTS`) *is*
the ``context`` block a ``bench-load/v1`` document stores, so a
committed document fully describes its own rerun.  Three callers share
it — ``repro loadgen``, the ``obs-diff --fresh`` rerun path (via
:meth:`~repro.obs.context.RunContext.rerun`), and the suite runner's
load cells.
"""

from __future__ import annotations

from ..core.parameters import LCAParameters
from ..faults import FaultPlan, RetryPolicy
from ..knapsack.generators import generate
from ..obs.context import LOAD_DEFAULTS
from ..serve import KnapsackService
from .clock import ServiceModel
from .harness import LoadHarness, bench_load_document

__all__ = ["LOAD_DEFAULTS", "run_load_sweep"]


def run_load_sweep(cfg: dict) -> tuple[list[dict], dict, dict]:
    """Run one open-loop load sweep from a plain config dict.

    Unknown keys are ignored and missing keys fall back to
    :data:`LOAD_DEFAULTS`, which is what keeps pre-``RunContext``
    documents rerunnable.  Returns ``(rows, knee, document)``.
    """
    # Timeline knobs ride *outside* LOAD_DEFAULTS on purpose: they are
    # read from the raw config before the known-keys filter, and they
    # re-enter the document context only when enabled — so sampler-off
    # documents stay bit-identical to pre-timeline output.
    timeline = bool(cfg.get("timeline", False))
    timeline_tick_s = cfg.get("timeline_tick_s")
    cfg = {**LOAD_DEFAULTS, **{k: v for k, v in cfg.items() if k in LOAD_DEFAULTS}}
    inst = generate(cfg["family"], int(cfg["n"]), seed=int(cfg["seed"]))
    params = LCAParameters.capped(float(cfg["epsilon"]), int(cfg["cap"]))
    plan = None
    policy = None
    if float(cfg["fault_rate"]) > 0.0:
        plan = FaultPlan(
            seed=int(cfg["lca_seed"]), probe_failure_rate=float(cfg["fault_rate"])
        )
        if int(cfg["retries"]) > 0:
            policy = RetryPolicy(
                max_retries=int(cfg["retries"]), seed=int(cfg["lca_seed"])
            )
    shared = bool(cfg["shared_instance"])
    service = KnapsackService(
        inst,
        float(cfg["epsilon"]),
        seed=int(cfg["lca_seed"]),
        params=params,
        fault_plan=plan,
        retry_policy=policy,
        strict=plan is None,
        executor="process" if shared else "thread",
        shared_instance=shared,
    )
    harness = LoadHarness(
        service,
        arrival=cfg["arrival"],
        workers=int(cfg["workers"]),
        queue_cap=int(cfg["queue_cap"]),
        batch_max=int(cfg["batch_max"]),
        clock=cfg["clock"],
        service_model=ServiceModel(
            base_s=float(cfg["base_s"]),
            per_query_s=float(cfg["per_query_s"]),
            jitter=float(cfg["jitter"]),
        ),
        service_workers=int(cfg["service_workers"]),
        timeline=timeline,
        timeline_tick_s=(
            None if timeline_tick_s is None else float(timeline_tick_s)
        ),
    )
    rates = [float(r) for r in cfg["rates"]]
    try:
        rows, knee = harness.sweep(
            rates, int(cfg["queries"]), nonce=int(cfg["nonce"])
        )
    finally:
        service.close()
    for row in rows:
        row["n"] = inst.n
        row["family"] = cfg["family"]
        if shared:
            row["shared_instance"] = True
    context = {**cfg, "rates": rates, "n": inst.n}
    if timeline:
        context["timeline"] = True
        if timeline_tick_s is not None:
            context["timeline_tick_s"] = float(timeline_tick_s)
    doc = bench_load_document(rows, knee=knee, **context)
    return rows, knee, doc
