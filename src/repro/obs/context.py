"""First-class run contexts: the self-rerun convention as an API.

Every bench document this repo emits carries a ``context`` block whose
``bench`` key names the workload kind and whose remaining keys are the
full rerun configuration — a committed baseline describes its own
reproduction.  That convention grew up as private plumbing inside the
CLI; :class:`RunContext` promotes it to a shared dataclass:

* ``embed()`` — the JSON ``context`` block to put in a document;
* ``from_document()`` — reconstruct from any document that carries a
  context block (old documents missing keys stay readable: absent
  config keys fall back to each runner's defaults);
* ``rerun()`` — produce a fresh document from the context alone, which
  is what ``repro obs-diff --fresh`` and ``repro suite <report>`` run.

``rerun`` looks the kind up in one table of runners; each imports
lazily (load/serve/suite import the obs layer, not the other way
round), so this module stays dependency-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["CHAOS_DEFAULTS", "LOAD_DEFAULTS", "OVERLOAD_DEFAULTS", "RunContext"]

# The exactly-rerunnable kinds' default configurations.  A document's
# context block overrides any subset, and the CLI's flags default to the
# same tables, so each default is written once.  They live here, not
# next to their runners, so that building the CLI parser does not
# import the serving stack.

#: Full default configuration of a load sweep; a baseline document's
#: ``context`` block overrides any subset of these.
LOAD_DEFAULTS = {
    "family": "uniform",
    "n": 2000,
    "seed": 0,
    "epsilon": 0.1,
    "lca_seed": 42,
    "rates": (50.0, 100.0, 200.0, 400.0, 800.0),
    "queries": 200,
    "arrival": "poisson",
    "workers": 2,
    "queue_cap": 256,
    "batch_max": 16,
    "clock": "virtual",
    "nonce": 0,
    "base_s": 0.002,
    "per_query_s": 0.0005,
    "jitter": 0.0,
    "fault_rate": 0.0,
    "retries": 0,
    "cap": 4_000,
    # Shared-memory instance tier (ROADMAP item: pin the n=10^7 shared
    # tier under open-loop load).  ``shared_instance`` switches the
    # service to process shards attaching one zero-copy segment;
    # ``service_workers`` > 1 shards each dispatched batch across that
    # pool (0 keeps the historical serial dispatch).
    "shared_instance": False,
    "service_workers": 0,
}

#: Full default configuration of an overload sweep; a baseline
#: document's ``context`` block overrides any subset of these.  A
#: single slow server (``workers=1, batch_max=1``) pins the virtual
#: capacity at ``1 / (base_s + per_query_s)`` = 400 q/s, so the default
#: rates straddle the knee and ``overload_factor`` times the knee is
#: genuinely past capacity.
OVERLOAD_DEFAULTS = {
    "family": "uniform",
    "n": 2000,
    "seed": 0,
    "epsilon": 0.1,
    "lca_seed": 42,
    "rates": (100.0, 200.0, 400.0, 800.0),
    "queries": 300,
    "arrival": "poisson",
    "workers": 1,
    "queue_cap": 256,
    "batch_max": 1,
    "clock": "virtual",
    "nonce": 0,
    "base_s": 0.002,
    "per_query_s": 0.0005,
    "jitter": 0.0,
    "cap": 4_000,
    # Governor knobs.
    "deadline_s": 0.05,
    "high_fraction": 0.5,
    "low_fraction": 0.125,
    "wait_target_s": 0.025,
    "patience": 3,
    "overload_factor": 2.0,
    "availability_floor": 0.9,
}

#: Full default configuration of a chaos sweep; a report's ``context``
#: block overrides any subset of these.
CHAOS_DEFAULTS = {
    "family": "uniform",
    "n": 2000,
    "instance_seed": 0,
    "epsilon": 0.1,
    "chaos_seed": 7,
    "lca_seed": 42,
    "rates": (0.0, 0.05, 0.1),
    "queries": 40,
    "batches": 3,
    "availability_target": 0.99,
    "retries": 3,
    "cap": 4_000,
    "corruption_rate": 0.0,
    "latency_spike_rate": 0.0,
    "audit": False,
}


@dataclass(frozen=True)
class RunContext:
    """One run's kind (``bench``) plus its full configuration."""

    bench: str
    config: Mapping[str, Any] = field(default_factory=dict)

    @classmethod
    def from_document(
        cls, doc: Mapping[str, Any], *, default_bench: str = "cold"
    ) -> "RunContext":
        """Reconstruct from a document's ``context`` block.

        Pre-``RunContext`` documents (or hand-written ones) may miss the
        ``bench`` key or the whole block; they reconstruct against
        ``default_bench`` with whatever keys are present.
        """
        ctx = dict(doc.get("context") or {})
        bench = ctx.pop("bench", None) or default_bench
        return cls(bench=str(bench), config=ctx)

    def embed(self, **extra: Any) -> dict:
        """The JSON ``context`` block: ``bench`` plus the flat config."""
        out = {"bench": self.bench}
        out.update(self.config)
        out.update(extra)
        return out

    @property
    def deterministic(self) -> bool:
        """True iff a rerun of this context must be byte-identical.

        Virtual-clock load sweeps, chaos sweeps, and suite runs are
        seeded end to end; cold/serve benches measure wall clock on
        whatever hardware runs them.
        """
        if self.bench in ("load", "overload"):
            return str(self.config.get("clock", "virtual")) == "virtual"
        return self.bench in ("chaos", "suite")

    def rerun(self) -> dict:
        """Produce a fresh document from this context alone.

        ``load``/``overload``/``chaos``/``suite`` contexts carry their
        full configuration, so the rerun is the kind's own runner (and,
        when :attr:`deterministic`, byte-identical).  ``cold``/``serve``/
        ``shm`` contexts describe wall-clock benches: the rerun is a
        deliberately tiny run keeping the baseline's family/epsilon/seed,
        meant for relative-metric comparison only.
        """
        runner = _RUNNERS.get(self.bench)
        if runner is None:
            raise ValueError(
                f"no rerun recipe for bench kind {self.bench!r}; "
                f"known: {RERUNNABLE_BENCHES}"
            )
        return runner(dict(self.config))


# The runners import lazily: load/serve/suite import the obs layer, not
# the other way round.


def _rerun_load(cfg: dict) -> dict:
    from ..load.sweep import run_load_sweep

    return run_load_sweep(cfg)[2]


def _rerun_overload(cfg: dict) -> dict:
    from ..load.overload_sweep import run_overload_sweep

    return run_overload_sweep(cfg)[2]


def _rerun_chaos(cfg: dict) -> dict:
    from ..faults.chaos import run_chaos

    return run_chaos(cfg)


def _rerun_suite(cfg: dict) -> dict:
    from ..suite import SuiteConfig, SuiteRunner

    return SuiteRunner(SuiteConfig.from_dict(cfg.get("suite") or cfg)).run().document()


def _rerun_cold(cfg: dict) -> dict:
    from ..knapsack.generators import generate
    from ..serve.bench import bench_cold_document, cold_pipeline_rows

    inst = generate(
        str(cfg.get("family", "planted_lsg")), 2000, seed=int(cfg.get("seed", 0))
    )
    rows = cold_pipeline_rows(
        inst,
        epsilon=float(cfg.get("epsilon", 0.1)),
        seed=int(cfg.get("lca_seed", 7)),
        queries=2,
    )
    return bench_cold_document(rows)


def _rerun_shm(cfg: dict) -> dict:
    from ..serve.bench import bench_shm_document, shm_scale_rows

    sizes = [int(s) for s in cfg.get("rerun_sizes", (20_000,))]
    rows = shm_scale_rows(
        sizes,
        family=str(cfg.get("family", "planted_lsg")),
        instance_seed=int(cfg.get("instance_seed", 0)),
        epsilon=float(cfg.get("epsilon", 0.1)),
        seed=int(cfg.get("lca_seed", 7)),
        queries=int(cfg.get("queries", 32)),
        workers=int(cfg.get("workers", 2)),
    )
    return bench_shm_document(rows, **{**cfg, "rerun_sizes": sizes})


def _rerun_serve(cfg: dict) -> dict:
    from ..knapsack.generators import generate
    from ..serve.bench import bench_serve_document, serve_throughput_rows

    inst = generate(
        str(cfg.get("family", "uniform")), 2000, seed=int(cfg.get("seed", 0))
    )
    rows = serve_throughput_rows(
        inst,
        epsilon=float(cfg.get("epsilon", 0.1)),
        seed=int(cfg.get("lca_seed", 7)),
        queries=100,
        batch=50,
        workers=2,
        baseline_queries=5,
    )
    return bench_serve_document(rows)


_RUNNERS = {
    "cold": _rerun_cold,
    "serve": _rerun_serve,
    "load": _rerun_load,
    "overload": _rerun_overload,
    "chaos": _rerun_chaos,
    "suite": _rerun_suite,
    "shm": _rerun_shm,
}

#: Context kinds with a registered rerun recipe.
RERUNNABLE_BENCHES = tuple(_RUNNERS)
