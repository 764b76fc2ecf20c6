"""One open-loop load sweep from a plain config dict.

The config vocabulary (:data:`~repro.obs.context.LOAD_DEFAULTS`) *is*
the ``context`` block a ``bench-load/v1`` document stores, so a
committed document fully describes its own rerun.  Three callers share
it — ``repro loadgen``, the ``obs-diff --fresh`` rerun path (via
:meth:`~repro.obs.context.RunContext.rerun`), and the suite runner's
load cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.parameters import LCAParameters
from ..faults import FaultPlan, RetryPolicy
from ..knapsack.generators import generate
from ..obs.context import LOAD_DEFAULTS
from ..serve import KnapsackService
from .clock import ServiceModel
from .harness import LoadHarness, bench_load_document

__all__ = ["LOAD_DEFAULTS", "SweepConfig", "run_load_sweep"]


@dataclass(frozen=True)
class SweepConfig:
    """A raw sweep config resolved against its defaults table.

    The timeline knobs ride *outside* the table on purpose: they are
    read from the raw config before the known-keys filter, and they
    re-enter the document context only when enabled — so sampler-off
    documents stay bit-identical to pre-timeline output.  The load and
    overload sweeps both resolve their config here.
    """

    cfg: dict
    timeline: bool
    timeline_tick_s: float | None

    @classmethod
    def resolve(cls, raw: dict, defaults: dict) -> "SweepConfig":
        """Known keys of ``raw`` over ``defaults``; unknown keys dropped."""
        tick = raw.get("timeline_tick_s")
        return cls(
            cfg={**defaults, **{k: v for k, v in raw.items() if k in defaults}},
            timeline=bool(raw.get("timeline", False)),
            timeline_tick_s=None if tick is None else float(tick),
        )

    def harness_kwargs(self) -> dict:
        """The timeline keywords of :class:`LoadHarness`."""
        return {"timeline": self.timeline, "timeline_tick_s": self.timeline_tick_s}

    def finish(self, rows: list[dict], n: int, rates: list[float]) -> dict:
        """Stamp every row with the instance's ``n`` and family, and
        return the document context this config reruns from."""
        for row in rows:
            row["n"] = n
            row["family"] = self.cfg["family"]
        context = {**self.cfg, "rates": rates, "n": n}
        if self.timeline:
            context["timeline"] = True
            if self.timeline_tick_s is not None:
                context["timeline_tick_s"] = self.timeline_tick_s
        return context


def run_load_sweep(cfg: dict) -> tuple[list[dict], dict, dict]:
    """Run one open-loop load sweep from a plain config dict.

    Unknown keys are ignored and missing keys fall back to
    :data:`LOAD_DEFAULTS`, which is what keeps pre-``RunContext``
    documents rerunnable.  Returns ``(rows, knee, document)``.
    """
    sweep = SweepConfig.resolve(cfg, LOAD_DEFAULTS)
    cfg = sweep.cfg
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
        **sweep.harness_kwargs(),
    )
    rates = [float(r) for r in cfg["rates"]]
    try:
        rows, knee = harness.sweep(
            rates, int(cfg["queries"]), nonce=int(cfg["nonce"])
        )
    finally:
        service.close()
    context = sweep.finish(rows, inst.n, rates)
    if shared:
        for row in rows:
            row["shared_instance"] = True
    doc = bench_load_document(rows, knee=knee, **context)
    return rows, knee, doc
