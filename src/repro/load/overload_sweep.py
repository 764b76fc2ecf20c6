"""One overload-governor sweep from a plain config dict.

The sweep grades the overload governor end to end, in two phases that
share one seeded virtual-clock simulation:

1. **Calibrate** — a plain open-loop sweep (no deadline, no brownout)
   over ``rates`` finds the saturation knee with
   :func:`~repro.load.knee.detect_knee`.  These rows carry
   ``mode="overload-base"``.
2. **Compare** — at the knee rate and at ``overload_factor`` times it,
   the governed harness runs twice: brownout **off** (deadline
   admission only, ``mode="overload-off"``) and brownout **on**
   (deadline admission plus the hysteresis controller,
   ``mode="overload-on"``).

Past the knee the Section 3 impossibility results apply at system
scale: full-quality service *cannot* keep up, so the comparison block
records two different quantities and never conflates them:

* ``availability`` (here) — *goodput*: completed / offered, degraded
  answers included.  This is what brownout buys: reason-coded partial
  quality instead of silence.
* ``full_quality`` — (completed − degraded) / offered: the fraction
  answered at honest Theorem 4.1 quality.  Past the knee this **must**
  fall below the theorem's success criterion for both variants —
  brownout must not "beat" the bound, it only degrades visibly.

Every timestamp is a pure function of the seeds, so a committed
``bench-overload/v1`` document replays byte-identically from its own
``context`` block (``repro obs-diff --fresh``; the CI
``overload-smoke`` contract).
"""

from __future__ import annotations

from ..core.parameters import LCAParameters
from ..knapsack.generators import generate
from ..obs.context import OVERLOAD_DEFAULTS
from ..serve import KnapsackService
from ..serve.overload import BrownoutConfig
from .clock import ServiceModel
from .harness import LoadHarness
from .sweep import SweepConfig

__all__ = ["BENCH_OVERLOAD_SCHEMA", "OVERLOAD_DEFAULTS", "run_overload_sweep"]

BENCH_OVERLOAD_SCHEMA = "bench-overload/v1"


def _goodput(row: dict) -> dict:
    """Re-derive the overload row's headline metrics.

    The recorder's native ``availability`` excludes degraded answers —
    the right ledger for a load row, the wrong one for a brownout
    comparison, where a reason-coded degraded answer *is* the product.
    Overload rows therefore report ``availability`` = goodput
    (completed / offered) and keep the honest-quality fraction in
    ``full_quality``; ``full_quality <= availability`` always.
    """
    offered = int(row.get("queries", 0)) or 1
    completed = int(row.get("completed", 0))
    degraded = int(row.get("degraded", 0))
    row["full_quality"] = round((completed - degraded) / offered, 6)
    row["availability"] = round(completed / offered, 6)
    return row


def run_overload_sweep(cfg: dict) -> tuple[list[dict], dict, dict]:
    """Run one overload-governor sweep from a plain config dict.

    Unknown keys are ignored and missing keys fall back to
    :data:`OVERLOAD_DEFAULTS`.  Returns ``(rows, knee, document)``;
    the document's ``comparison`` block is the governed verdict at
    ``overload_factor`` times the detected knee.
    """
    sweep = SweepConfig.resolve(cfg, OVERLOAD_DEFAULTS)
    cfg = sweep.cfg
    inst = generate(cfg["family"], int(cfg["n"]), seed=int(cfg["seed"]))
    params = LCAParameters.capped(float(cfg["epsilon"]), int(cfg["cap"]))
    model = ServiceModel(
        base_s=float(cfg["base_s"]),
        per_query_s=float(cfg["per_query_s"]),
        jitter=float(cfg["jitter"]),
    )

    def harness(**overload_kwargs) -> LoadHarness:
        return LoadHarness(
            service,
            arrival=cfg["arrival"],
            workers=int(cfg["workers"]),
            queue_cap=int(cfg["queue_cap"]),
            batch_max=int(cfg["batch_max"]),
            clock=cfg["clock"],
            service_model=model,
            **sweep.harness_kwargs(),
            **overload_kwargs,
        )

    queries = int(cfg["queries"])
    nonce = int(cfg["nonce"])
    rates = [float(r) for r in cfg["rates"]]

    deadline = float(cfg["deadline_s"])
    brownout = BrownoutConfig(
        high_fraction=float(cfg["high_fraction"]),
        low_fraction=float(cfg["low_fraction"]),
        wait_target_s=float(cfg["wait_target_s"]),
        patience=int(cfg["patience"]),
    )
    compare_rows: list[dict] = []
    at_overload: dict[str, dict] = {}
    with KnapsackService(
        inst, float(cfg["epsilon"]), seed=int(cfg["lca_seed"]), params=params
    ) as service:
        # Phase 1 — calibrate: plain rows locate the knee.
        base_rows, knee = harness().sweep(rates, queries, nonce=nonce)
        for row in base_rows:
            row["mode"] = "overload-base"
        knee_rate = float(knee.get("knee_rate") or max(rates))
        overload_rate = round(knee_rate * float(cfg["overload_factor"]), 6)

        # Phase 2 — compare: governed runs at and past the knee.
        off = harness(deadline_s=deadline)
        on = harness(deadline_s=deadline, brownout=brownout)
        for rate in (knee_rate, overload_rate):
            for mode, h in (("overload-off", off), ("overload-on", on)):
                row = _goodput(h.run_rate(rate, queries, nonce=nonce))
                row["mode"] = mode
                compare_rows.append(row)
                if rate == overload_rate:
                    at_overload[mode] = row
    rows = base_rows + compare_rows
    context = sweep.finish(rows, inst.n, rates)

    floor = float(cfg["availability_floor"])
    row_on = at_overload["overload-on"]
    row_off = at_overload["overload-off"]
    comparison = {
        "rate": overload_rate,
        "availability_on": row_on["availability"],
        "availability_off": row_off["availability"],
        "full_quality_on": row_on["full_quality"],
        "full_quality_off": row_off["full_quality"],
        "floor": floor,
        "floor_met": bool(row_on["availability"] >= floor),
        "off_below_on": bool(row_off["availability"] < row_on["availability"]),
    }
    from ..obs.context import RunContext
    from ..obs.schema import BenchDocument

    doc = BenchDocument.build(
        "bench-overload",
        name="overload_governor",
        title="Overload governor: availability and quality around the knee",
        rows=rows,
        knee=knee,
        comparison=comparison,
        context=RunContext(bench="overload", config=context),
        total_queries=sum(int(r.get("queries", 0)) for r in rows),
        total_completed=sum(int(r.get("completed", 0)) for r in rows),
    ).body
    return rows, knee, doc
