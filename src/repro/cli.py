"""Command-line interface: ``python -m repro`` / ``repro-lca``.

Subcommands
-----------
``solve``       solve a generated instance with the reference solvers;
``lca``         answer membership queries with LCA-KP;
``trace``       run one LCA query (or a sharded batch) under the tracer,
                print its span tree and verify the phase partition;
                ``--chrome`` also exports Chrome trace-event JSON
                (load it in Perfetto / chrome://tracing);
``metrics``     run a small workload, dump the metrics registry as JSON;
                ``--prom`` also writes the Prometheus text exposition;
``top``         live terminal view of a running endpoint: poll
                ``{"op": "metrics"}``/``{"op": "timeline"}`` on a
                ``loadgen --listen`` server (``--connect HOST:PORT``)
                or a self-spawned one, render counters and
                queue/brownout sparklines, refreshing in place;
``flightrec``   replay a seeded faulty workload, print the flight-recorder
                timeline, write a deterministic events/v1 document;
``obs-diff``    compare two bench documents (or a fresh quick run,
                reconstructed from the baseline's own ``context`` block,
                against a committed one) and flag perf regressions and
                baseline rows left unchecked;
``serve``       serve a query batch through the KnapsackService engine;
``loadgen``     drive the service with seeded open-loop load across an
                offered-rate sweep, report tail latency and the
                saturation knee, write a bench-load/v1 document;
``overload``    grade the overload governor: calibrate the knee, then
                compare brownout on/off past it (deadline admission,
                degradation ladder), write a bench-overload/v1 document
                (non-zero exit when the governed availability floor is
                missed or brownout buys nothing);
``suite``       run a declarative scenario matrix (or rerun a previous
                report from its embedded config), write a
                suite-report/v1 document; ``benchmarks/suites/
                theorems.json`` runs the paper's experiments E1-E15;
``bench``       measure serving throughput, write BENCH_serve.json;
``bench-cold``  measure cold-pipeline latency (columnar vs object path),
                write BENCH_cold.json; ``--sweep`` adds an n-axis sweep;
``bench-shm``   measure process-shard scaling with the shared-memory
                instance tier (pickled vs zero-copy payloads, worker RSS,
                spin-up time), write BENCH_shm.json;
``shm-stats``   dump shared-memory tier lifecycle counters and scan for
                orphaned segments (non-zero exit when any are found);
``chaos``       run a seeded fault-injection sweep, assert availability,
                write a deterministic chaos-report/v1 document;
``report``      render the theorem cells of a suite report as the
                tables EXPERIMENTS.md quotes (runs nothing);
``demo``        the Figure 1 reduction, walked end to end;
``families``    list the workload generator families.

The flags several verbs share (the LCA tuple, the probe cap, the output
path, the timeline pair) are declared once in :data:`_SHARED`; each verb
sets its own defaults, and ``loadgen``/``overload``/``chaos`` take
theirs from the run kinds' tables in :mod:`repro.obs.context`.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .access.oracle import QueryOracle
from .access.weighted_sampler import WeightedSampler
from .analysis.tables import format_row_dicts, format_table
from .core.lca_kp import LCAKP
from .core.parameters import LCAParameters
from .errors import ReproError
from .knapsack import FAMILIES, generate
from .knapsack.solvers import (
    fractional_upper_bound,
    half_approximation,
    prefix_greedy,
    solve_exact,
)
from .lowerbounds.or_reduction import BitOracle, ORReduction
from .obs.context import CHAOS_DEFAULTS, LOAD_DEFAULTS, OVERLOAD_DEFAULTS

def _number_list(kind):
    """An argparse ``type=`` for a comma-separated list of numbers.

    Blank entries are skipped; a non-number or an empty list is a usage
    error (exit 2), not a traceback or a zero-row document.
    """

    def parse(text: str) -> list:
        try:
            values = [kind(s) for s in text.split(",") if s.strip()]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated numbers, got {text!r}"
            ) from None
        if not values:
            raise argparse.ArgumentTypeError("expected at least one number")
        return values

    return parse


_FLOATS = _number_list(float)
_INTS = _number_list(int)


def _flag(*flags: str, **kwargs):
    return flags, kwargs


#: The flags several verbs share, by name: the LCA tuple (instance
#: family, size and seed; epsilon; the shared random string r), the
#: probe cap, the output path and the timeline pair.  Defaults are each
#: verb's own (``set_defaults``), so none is written here.
_SHARED = {
    "family": [_flag("--family", choices=sorted(FAMILIES))],
    "n": [_flag("--n", type=int, help="instance size")],
    "seed": [_flag("--seed", type=int, help="instance seed")],
    "chaos_seed": [
        _flag("--instance-seed", type=int, help="instance seed"),
        _flag(
            "--seed", dest="chaos_seed", type=int,
            help="chaos seed: drives the workload, the fault coins and the retry jitter",
        ),
    ],
    "epsilon": [_flag("--epsilon", type=float)],
    "lca_seed": [_flag("--lca-seed", type=int, help="the shared random string r")],
    "cap": [
        _flag(
            "--cap", type=int,
            help="cap m_large / n_rq for speed (0 keeps the full calibrated sizes)",
        )
    ],
    "out": [_flag("--out", metavar="PATH", help="where to write the output document")],
    "timeline": [
        _flag(
            "--timeline", action="store_true",
            help="sample a timeline/v1 trajectory per rate (deterministic "
            "tick grid on the virtual clock; live wall sampler otherwise)",
        ),
        _flag(
            "--timeline-tick-s", type=float, metavar="S",
            help="timeline tick spacing (default 0.05 virtual, 0.25 wall)",
        ),
    ],
}


def _verb(sub, name: str, help: str, *shared: str) -> argparse.ArgumentParser:
    """Add subcommand ``name`` with the :data:`_SHARED` flags it takes."""
    parser = sub.add_parser(name, help=help)
    for key in shared:
        for flags, kwargs in _SHARED[key]:
            parser.add_argument(*flags, **kwargs)
    return parser


def _defaults_from(parser: argparse.ArgumentParser, table: dict, **extra) -> None:
    """Default each of ``parser``'s flags that ``table`` names to the
    table's value, then apply the verb's ``extra`` defaults."""
    declared = {a.dest for a in parser._actions}
    parser.set_defaults(
        **{**{k: v for k, v in table.items() if k in declared}, **extra}
    )


_INSTANCE = ("family", "n", "seed", "epsilon", "lca_seed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lca",
        description="Local Computation Algorithms for Knapsack (PODC 2025 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _verb(sub, "solve", "solve a generated instance", "family", "n", "seed")
    p.set_defaults(family="uniform", n=100, seed=0)

    p = _verb(sub, "lca", "answer LCA queries on a generated instance", *_INSTANCE)
    p.add_argument(
        "--tie-breaking",
        action="store_true",
        help="enable the stochastic tie-breaking extension (see core/tie_breaking.py)",
    )
    p.add_argument("items", type=int, nargs="+", help="item indices to query")
    p.set_defaults(family="planted_lsg", n=2000, seed=0, epsilon=0.05, lca_seed=42)

    p = _verb(
        sub, "trace", "run one LCA query under the tracer and print its span tree",
        *_INSTANCE,
    )
    p.add_argument("--query", type=int, default=0, help="item index to query")
    p.add_argument(
        "--nonce", type=int, default=1, help="fresh-randomness nonce (fixed for replayability)"
    )
    p.add_argument(
        "--json", metavar="PATH", default=None, help="also write the trace/v2 document to PATH"
    )
    p.add_argument(
        "--chrome", metavar="PATH", default=None,
        help="also export the span tree as Chrome trace-event JSON "
        "(open in Perfetto or chrome://tracing)",
    )
    p.add_argument(
        "--batch", type=int, default=None, metavar="N",
        help="trace a whole N-query service batch instead of one LCA query",
    )
    p.add_argument(
        "--workers", type=int, default=2,
        help="shard the traced batch across this many workers (with --batch)",
    )
    p.add_argument(
        "--executor", default="thread", choices=("thread", "process"),
        help="worker pool kind for the traced batch (with --batch)",
    )
    p.set_defaults(family="planted_lsg", n=100_000, seed=0, epsilon=0.05, lca_seed=42)

    p = _verb(
        sub, "metrics",
        "run a small LCA workload and dump the metrics registry snapshot as JSON",
        *_INSTANCE, "out",
    )
    p.add_argument("--queries", type=int, default=8, help="how many LCA queries to run")
    p.add_argument(
        "--prom", metavar="PATH", default=None,
        help="also write the registry as Prometheus text exposition "
        "('-' for stdout)",
    )
    p.set_defaults(family="planted_lsg", n=20_000, seed=0, epsilon=0.05, lca_seed=42)

    p = _verb(
        sub, "serve", "serve a query batch through the KnapsackService engine", *_INSTANCE
    )
    p.add_argument("--queries", type=int, default=200, help="batch size to serve")
    p.add_argument(
        "--batches", type=int, default=4, help="how many identical batches (shows cache hits)"
    )
    p.add_argument(
        "--workers", type=int, default=1, help="shard batches across this many workers"
    )
    p.add_argument("--executor", default="thread", choices=("thread", "process"))
    p.add_argument(
        "--nonce", type=int, default=None, help="pin the fresh-randomness nonce (enables cache hits)"
    )
    p.set_defaults(family="planted_lsg", n=5000, seed=0, epsilon=0.1, lca_seed=42)

    p = _verb(
        sub, "loadgen",
        "open-loop load sweep over the service: tail latency, "
        "availability, saturation knee; writes bench-load/v1",
        *_INSTANCE, "cap", "timeline", "out",
    )
    p.add_argument(
        "--rates", type=_FLOATS,
        help="comma-separated offered rates (queries/sec) to sweep",
    )
    p.add_argument("--queries", type=int, help="arrivals offered per rate")
    p.add_argument("--workers", type=int, help="dispatch slots")
    p.add_argument(
        "--queue-cap", type=int,
        help="bounded-queue depth (arrivals finding it full are shed)",
    )
    p.add_argument(
        "--batch-max", type=int,
        help="largest microbatch one worker pulls per dispatch",
    )
    p.add_argument(
        "--arrival", choices=("poisson", "uniform", "constant"),
        help="interarrival law",
    )
    p.add_argument(
        "--clock", choices=("wall", "virtual"),
        help="wall = honest asyncio measurement; virtual = deterministic "
        "discrete-event simulation (byte-identical documents)",
    )
    p.add_argument(
        "--nonce", type=int,
        help="arrival-schedule nonce (distinguishes replays of one config)",
    )
    p.add_argument(
        "--base-s", type=float,
        help="virtual clock: per-batch fixed service time",
    )
    p.add_argument(
        "--per-query-s", type=float,
        help="virtual clock: per-query service time",
    )
    p.add_argument(
        "--jitter", type=float,
        help="virtual clock: seeded multiplicative service-time jitter in [0,1)",
    )
    p.add_argument(
        "--fault-rate", type=float,
        help="wall clock only: probe-failure rate injected under the run",
    )
    p.add_argument(
        "--retries", type=int,
        help="retry budget per probe when --fault-rate is set",
    )
    p.add_argument(
        "--shared-instance", action="store_true",
        help="serve from the zero-copy shared-memory instance tier "
        "(process executor; the n=10^7 tier of BENCH_load.json)",
    )
    p.add_argument(
        "--service-workers", type=int,
        help="wall clock only: shard each dispatched batch across this "
        "many service workers (0 = the service's own default)",
    )
    p.add_argument(
        "--listen", action="store_true",
        help="instead of sweeping, expose the service as a newline-"
        "delimited-JSON endpoint (see repro.load.endpoint)",
    )
    p.add_argument("--host", default="127.0.0.1", help="bind address for --listen")
    p.add_argument("--port", type=int, default=0, help="bind port for --listen (0 = ephemeral)")
    p.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="drive a remote --listen endpoint instead of an in-process "
        "service (implies --clock wall; rows are tagged transport=socket)",
    )
    _defaults_from(p, LOAD_DEFAULTS, out="BENCH_load.json")

    p = _verb(
        sub, "overload",
        "grade the overload governor around the saturation knee "
        "(brownout on vs off); writes bench-overload/v1",
        *_INSTANCE, "cap", "timeline", "out",
    )
    p.add_argument(
        "--rates", type=_FLOATS,
        help="comma-separated offered rates (queries/sec) for the "
        "calibration sweep that locates the knee",
    )
    p.add_argument("--queries", type=int, help="arrivals offered per rate")
    p.add_argument(
        "--workers", type=int,
        help="dispatch slots (1 pins the virtual capacity at "
        "1/(base_s + per_query_s) q/s)",
    )
    p.add_argument("--queue-cap", type=int)
    p.add_argument("--batch-max", type=int)
    p.add_argument(
        "--nonce", type=int,
        help="arrival-schedule nonce (distinguishes replays of one config)",
    )
    p.add_argument(
        "--deadline-s", type=float,
        help="per-query deadline; arrivals past it are shed at dispatch",
    )
    p.add_argument(
        "--overload-factor", type=float,
        help="the comparison runs at this multiple of the detected knee",
    )
    p.add_argument(
        "--availability-floor", type=float,
        help="governed goodput availability the brownout variant must "
        "hold past the knee (exit 1 when missed)",
    )
    _defaults_from(p, OVERLOAD_DEFAULTS, out="BENCH_overload.json")

    p = _verb(
        sub, "top",
        "live terminal view of a serving endpoint: poll metrics "
        "and timeline ops, render counters and queue/brownout "
        "sparklines (like top(1) for the knapsack service)",
        *_INSTANCE, "cap",
    )
    p.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="poll a running 'loadgen --listen' endpoint (default: "
        "spawn an in-process endpoint and drive it with light traffic)",
    )
    p.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between polls / screen refreshes",
    )
    p.add_argument(
        "--iterations", type=int, default=0, metavar="N",
        help="stop after N refreshes (0 = run until Ctrl-C)",
    )
    p.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen (for logs "
        "and tests)",
    )
    # The spawned endpoint is the one ``loadgen --listen`` serves.
    _defaults_from(p, LOAD_DEFAULTS)

    p = _verb(
        sub, "suite",
        "run a declarative scenario matrix and write suite-report/v1 "
        "(pass a matrix file, or a previous report to rerun it "
        "byte-identically from its embedded config)",
        "out",
    )
    p.add_argument(
        "matrix",
        help="path to a suite matrix JSON (benchmarks/suites/*.json) or a "
        "suite-report/v1 document to rerun",
    )
    p.add_argument(
        "--filter", default=None, metavar="SUBSTR",
        help="run only cells whose id contains this substring",
    )
    p.add_argument(
        "--cell", action="append", default=None, metavar="ID",
        help="run only this cell id (repeatable)",
    )
    p.set_defaults(out="suite_report.json")

    p = _verb(
        sub, "bench", "measure serving throughput and write BENCH_serve.json",
        *_INSTANCE, "out",
    )
    p.add_argument("--queries", type=int, default=1000)
    p.add_argument("--batch", type=int, default=100)
    p.add_argument("--workers", type=int, default=4)
    p.add_argument(
        "--baseline-queries", type=int, default=20,
        help="queries for the per-query baseline (each runs a full pipeline)",
    )
    p.set_defaults(
        family="uniform", n=5000, seed=0, epsilon=0.1, lca_seed=7, out="BENCH_serve.json"
    )

    p = _verb(
        sub, "bench-cold",
        "measure cold-pipeline latency (columnar block path vs object path) "
        "and write BENCH_cold.json",
        *_INSTANCE, "out",
    )
    p.add_argument(
        "--queries", type=int, default=5, help="cold pipeline runs per path"
    )
    p.add_argument(
        "--sweep", metavar="NS", type=_INTS, default=None,
        help="comma-separated instance sizes for an n-axis sweep "
        "(e.g. 10000,100000,1000000); overrides --n",
    )
    p.set_defaults(
        family="planted_lsg", n=20_000, seed=0, epsilon=0.1, lca_seed=7,
        out="BENCH_cold.json",
    )

    p = _verb(
        sub, "bench-shm",
        "sweep the shared-memory instance tier across n (pickled vs "
        "zero-copy process shards, RSS + spin-up columns) and write "
        "BENCH_shm.json",
        "family", "seed", "epsilon", "lca_seed", "out",
    )
    p.add_argument(
        "--sizes", type=_INTS,
        help="comma-separated instance sizes (e.g. 20000,10000000,100000000)",
    )
    p.add_argument("--queries", type=int, default=32, help="queries per serving row")
    p.add_argument("--workers", type=int, default=2)
    p.add_argument(
        "--pickled-max-n", type=int, default=10_000_000,
        help="largest n still measured through the legacy pickled path",
    )
    p.add_argument(
        "--rerun-sizes", type=_INTS, default=None,
        help="sizes the committed baseline advertises for obs-diff reruns "
        "(default: the sizes <= 100000 from --sizes)",
    )
    p.set_defaults(
        family="planted_lsg", sizes=[20_000], seed=0, epsilon=0.1, lca_seed=7,
        out="BENCH_shm.json",
    )

    p = sub.add_parser(
        "shm-stats",
        help="print shared-memory tier accounting (owned segments, orphan "
        "scan, counters, process memory)",
    )
    p.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write the stats object as JSON",
    )

    p = _verb(
        sub, "chaos", "run a seeded fault-injection sweep and write chaos-report/v1",
        "family", "n", "chaos_seed", "epsilon", "lca_seed", "cap", "out",
    )
    p.add_argument("--queries", type=int, help="queries per batch")
    p.add_argument("--batches", type=int, help="batches per fault rate")
    p.add_argument(
        "--rates", type=_FLOATS,
        help="comma-separated probe-failure rates to sweep",
    )
    p.add_argument(
        "--target", dest="availability_target", type=float,
        help="required non-degraded availability at every rate",
    )
    p.add_argument("--retries", type=int, help="retry budget per probe")
    _defaults_from(p, CHAOS_DEFAULTS, out="chaos_report.json")

    p = _verb(
        sub, "flightrec",
        "replay a seeded faulty workload and print the flight-recorder timeline",
        "family", "n", "chaos_seed", "epsilon", "lca_seed", "cap", "out",
    )
    p.add_argument("--queries", type=int, help="queries per batch")
    p.add_argument("--batches", type=int)
    p.add_argument(
        "--rate", type=float, default=0.15, help="injected probe-failure rate"
    )
    p.add_argument(
        "--corruption-rate", type=float, help="injected corruption rate"
    )
    p.add_argument("--retries", type=int, help="retry budget per probe")
    p.add_argument(
        "--audit", action="store_true",
        help="enable the probe plausibility audit (detects injected corruptions)",
    )
    p.add_argument(
        "--spill", metavar="PATH", default=None,
        help="append ring-evicted events to this JSONL file (long runs keep "
        "a complete timeline on disk while memory stays bounded)",
    )
    # A flight recording replays a (shorter) chaos workload.
    _defaults_from(p, CHAOS_DEFAULTS, queries=20, batches=2)

    p = _verb(
        sub, "obs-diff",
        "compare two bench-result/v1 documents and flag perf regressions",
        "out",
    )
    p.add_argument("baseline", help="baseline bench-result/v1 JSON path")
    p.add_argument(
        "candidate", nargs="?", default=None,
        help="candidate document (default: run a fresh quick bench and "
        "compare relative metrics only)",
    )
    p.add_argument(
        "--fresh", default=None,
        choices=("cold", "serve", "load", "overload", "chaos", "suite"),
        help="which quick bench to run when no candidate is given "
        "(default: inferred from the baseline's own context block; "
        "deterministic baselines — virtual-clock load, chaos, suite — "
        "are rerun exactly from their context)",
    )
    p.add_argument(
        "--threshold", type=float, default=1.75,
        help="relative noise allowance (a timing must exceed baseline x this to regress)",
    )
    p.add_argument(
        "--abs-floor-s", type=float, default=0.002,
        help="absolute excursion floor in seconds (sub-floor jitter never regresses)",
    )

    p = sub.add_parser(
        "report",
        help="render each theorem cell of a suite-report/v1 document as its "
        "table (runs nothing)",
    )
    p.add_argument("document", help="a suite-report/v1 document with theorem cells")
    p.add_argument(
        "--out", metavar="DIR", default=None,
        help="write each table to DIR/<cell id>.txt (default: print them)",
    )

    sub.add_parser("demo", help="walk the Figure 1 reduction end to end")
    sub.add_parser("families", help="list instance generator families")
    return parser


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = generate(args.family, args.n, seed=args.seed)
    rows = []
    greedy = prefix_greedy(inst)
    half = half_approximation(inst)
    rows.append(["prefix_greedy", greedy.value, greedy.weight, len(greedy)])
    rows.append(["half_approximation", half.value, half.weight, len(half)])
    rows.append(["fractional_bound", fractional_upper_bound(inst), float("nan"), -1])
    if inst.n <= 400:
        exact = solve_exact(inst)
        rows.append(["exact", exact.value, exact.weight, len(exact)])
    print(f"instance: family={args.family} n={inst.n} K={inst.capacity:.4g}")
    print(format_table(["solver", "value", "weight", "|S|"], rows))
    return 0


def _cmd_lca(args: argparse.Namespace) -> int:
    inst = generate(args.family, args.n, seed=args.seed)
    sampler = WeightedSampler(inst)
    lca = LCAKP(
        sampler,
        QueryOracle(inst),
        args.epsilon,
        seed=args.lca_seed,
        tie_breaking=getattr(args, "tie_breaking", False),
    )
    rows = []
    for item in args.items:
        if not 0 <= item < inst.n:
            print(f"item {item} out of range [0, {inst.n})", file=sys.stderr)
            return 2
        before = sampler.samples_used
        ans = lca.answer(item)
        rows.append(
            [
                item,
                "yes" if ans.include else "no",
                ans.reason,
                sampler.samples_used - before,
            ]
        )
    print(
        f"LCA-KP: family={args.family} n={inst.n} eps={args.epsilon} "
        f"seed={args.lca_seed} (answers are consistent across reruns with the same seed)"
    )
    print(format_table(["item", "in solution", "reason", "samples"], rows))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import runtime as obs_runtime
    from .obs.export import render_span_tree

    if args.batch is not None:
        return _trace_batch(args)

    inst = generate(args.family, args.n, seed=args.seed)
    sampler = WeightedSampler(inst)
    oracle = QueryOracle(inst)
    lca = LCAKP(sampler, oracle, args.epsilon, seed=args.lca_seed)
    if not 0 <= args.query < inst.n:
        print(f"query index {args.query} out of range [0, {inst.n})", file=sys.stderr)
        return 2
    tracer = obs_runtime.TRACER
    was_enabled = tracer.enabled
    tracer.enable()
    try:
        with tracer.span("repro.trace") as root:
            answer = lca.answer(args.query, nonce=args.nonce)
    finally:
        if not was_enabled:
            tracer.disable()

    print(
        f"trace: family={args.family} n={inst.n} eps={args.epsilon} "
        f"seed={args.lca_seed} query={args.query} -> "
        f"{'in' if answer.include else 'out'} ({answer.reason})"
    )
    print()
    print(render_span_tree(root))
    print()
    used = (oracle.queries_used, sampler.samples_used, sampler.blocks_used)
    return _check_partition(
        root, args, inst.n, used, ("blocks",),
        query=args.query, include=answer.include, reason=answer.reason,
    )


def _trace_batch(args: argparse.Namespace) -> int:
    """Trace one sharded service batch as a single unified span tree.

    Thread shards are grafted by the pool driver; process shards come
    home serialized inside the chunk payloads and are grafted on merge —
    either way the partition invariant below must hold on one tree.
    """
    from .obs import runtime as obs_runtime
    from .obs.export import render_span_tree
    from .serve import KnapsackService

    if args.batch < 1:
        print("--batch must be >= 1", file=sys.stderr)
        return 2
    inst = generate(args.family, args.n, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    indices = [int(i) for i in rng.integers(inst.n, size=args.batch)]
    tracer = obs_runtime.TRACER
    was_enabled = tracer.enabled
    tracer.enable()
    try:
        with KnapsackService(
            inst, args.epsilon, seed=args.lca_seed, cache=False,
            executor=args.executor,
        ) as service, tracer.span("repro.trace") as root:
            report = service.answer_batch(
                indices,
                nonce=args.nonce,
                workers=args.workers if args.workers > 1 else None,
            )
    finally:
        if not was_enabled:
            tracer.disable()

    print(
        f"trace: family={args.family} n={inst.n} eps={args.epsilon} "
        f"seed={args.lca_seed} batch={len(indices)} workers={report.workers} "
        f"executor={args.executor} mode={report.mode}"
    )
    print()
    print(render_span_tree(root))
    print()
    used = (service.queries_used, service.samples_used, service.blocks_used)
    return _check_partition(
        root, args, inst.n, used, ("queries", "samples"),
        batch=len(indices), workers=report.workers, executor=args.executor,
        mode=report.mode,
    )


def _check_partition(
    root, args, n: int, used: tuple[int, int, int], shown: tuple[str, ...], **fields
) -> int:
    """Check that the span tree under ``root`` attributes every oracle
    query, weighted sample and sample block (``used``: the meters'
    totals) to exactly one phase, print the per-phase breakdown of the
    ``shown`` meters, and export the trace when ``--json``/``--chrome``
    ask.  Returns the exit code: 0 iff every attribution is exact.
    """
    from .obs.export import chrome_trace_document, trace_document, write_json
    from .obs.trace import phase_counts

    exact = True
    by_phase = {}
    for (key, short, label), total in zip(
        (
            ("queries", "queries", "oracle queries"),
            ("samples", "samples", "weighted samples"),
            ("sample_blocks", "blocks", "sample blocks"),
        ),
        used,
    ):
        by_phase[short] = phase_counts(root, key)
        attributed = sum(by_phase[short].values())
        exact = exact and attributed == total
        print(f"{label}: {total} total, {attributed} span-attributed "
              f"({'exact' if attributed == total else 'MISMATCH'})")
    for short in shown:
        if by_phase[short]:
            per_phase = ", ".join(
                f"{phase}={count}" for phase, count in sorted(by_phase[short].items())
            )
            print(f"  {short} by phase: {per_phase}")
    if args.json:
        doc = trace_document(
            root,
            family=args.family,
            n=n,
            epsilon=args.epsilon,
            lca_seed=args.lca_seed,
            **fields,
            oracle_queries=used[0],
            sampler_samples=used[1],
        )
        write_json(args.json, doc)
        print(f"\nwrote trace/v2 document to {args.json}")
    if args.chrome:
        write_json(args.chrome, chrome_trace_document(root))
        print(
            f"wrote Chrome trace-event JSON to {args.chrome} "
            "(open in Perfetto or chrome://tracing)"
        )
    return 0 if exact else 1


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from .obs.export import jsonable, snapshot_document
    from .obs.runtime import REGISTRY

    inst = generate(args.family, args.n, seed=args.seed)
    sampler = WeightedSampler(inst)
    oracle = QueryOracle(inst)
    lca = LCAKP(sampler, oracle, args.epsilon, seed=args.lca_seed)
    latency = REGISTRY.histogram("cli.answer_latency_s")
    import time as _time

    rng = np.random.default_rng(args.seed)
    for i in range(args.queries):
        t0 = _time.perf_counter()
        lca.answer(int(rng.integers(inst.n)), nonce=i + 1)
        latency.observe(_time.perf_counter() - t0)
    doc = snapshot_document(
        REGISTRY,
        family=args.family,
        n=inst.n,
        epsilon=args.epsilon,
        queries=args.queries,
    )
    text = json.dumps(jsonable(doc), indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote metrics-snapshot/v2 to {args.out}")
    else:
        print(text)
    if args.prom:
        from .obs.export import render_prometheus

        exposition = render_prometheus(REGISTRY)
        if args.prom == "-":
            print(exposition, end="")
        else:
            with open(args.prom, "w") as fh:
                fh.write(exposition)
            print(f"wrote Prometheus exposition to {args.prom}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import KnapsackService

    inst = generate(args.family, args.n, seed=args.seed)
    rng = np.random.default_rng(args.seed)
    indices = [int(i) for i in rng.integers(inst.n, size=args.queries)]
    rows = []
    with KnapsackService(
        inst,
        args.epsilon,
        seed=args.lca_seed,
        executor=args.executor,
    ) as service:
        for b in range(args.batches):
            report = service.answer_batch(
                indices,
                nonce=args.nonce,
                workers=args.workers if args.workers > 1 else None,
            )
            rows.append(
                [
                    b,
                    report.mode,
                    report.workers,
                    len(report.answers),
                    report.cache_hits,
                    report.pipelines_run,
                    report.samples_spent,
                    f"{report.queries_per_sec:,.0f}",
                ]
            )
    print(
        f"serve: family={args.family} n={inst.n} eps={args.epsilon} "
        f"seed={args.lca_seed} nonce={args.nonce} "
        f"({'pinned: repeat batches hit the cache' if args.nonce is not None else 'fresh per batch: no hits expected'})"
    )
    print(
        format_table(
            ["batch", "mode", "workers", "queries", "hits", "pipelines", "samples", "q/s"],
            rows,
        )
    )
    stats = service.stats()
    cache = stats["cache"]
    if cache is not None:
        print(
            f"cache: {cache['hits']} hits / {cache['misses']} misses "
            f"(rate {cache['hit_rate']:.2f}), {cache['size']}/{cache['capacity']} entries"
        )
    print(f"totals: {stats['samples_used']} samples, {stats['queries_used']} point queries")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .obs.export import write_json
    from .serve.bench import bench_serve_document, serve_throughput_rows

    inst = generate(args.family, args.n, seed=args.seed)
    rows = serve_throughput_rows(
        inst,
        epsilon=args.epsilon,
        seed=args.lca_seed,
        queries=args.queries,
        batch=args.batch,
        workers=args.workers,
        baseline_queries=args.baseline_queries,
    )
    print(format_row_dicts(rows, title="serving-layer throughput"))
    doc = bench_serve_document(
        rows,
        family=args.family,
        n=args.n,
        seed=args.seed,
        epsilon=args.epsilon,
        lca_seed=args.lca_seed,
        queries=args.queries,
        batch=args.batch,
        workers=args.workers,
    )
    write_json(args.out, doc)
    print(f"\nwrote bench-result/v1 document to {args.out}")
    return 0


def _cmd_bench_cold(args: argparse.Namespace) -> int:
    from .obs.export import write_json
    from .serve.bench import bench_cold_document, cold_pipeline_rows, cold_sweep_rows

    if args.sweep:
        rows = cold_sweep_rows(
            args.sweep,
            family=args.family,
            instance_seed=args.seed,
            epsilon=args.epsilon,
            seed=args.lca_seed,
            queries=args.queries,
        )
        title = "cold-pipeline latency, n-axis sweep"
    else:
        inst = generate(args.family, args.n, seed=args.seed)
        rows = cold_pipeline_rows(
            inst,
            epsilon=args.epsilon,
            seed=args.lca_seed,
            queries=args.queries,
        )
        title = "cold-pipeline latency (verified bit-identical)"
    print(format_row_dicts(rows, title=title))
    doc = bench_cold_document(
        rows,
        family=args.family,
        n=args.n,
        seed=args.seed,
        epsilon=args.epsilon,
        lca_seed=args.lca_seed,
        queries=args.queries,
        sweep=args.sweep,
    )
    write_json(args.out, doc)
    print(f"\nwrote bench-result/v1 document to {args.out}")
    return 0


def _cmd_bench_shm(args: argparse.Namespace) -> int:
    from .obs.export import write_json
    from .serve.bench import bench_shm_document, shm_scale_rows

    sizes = args.sizes
    rerun_sizes = (
        args.rerun_sizes or [s for s in sizes if s <= 100_000] or sizes[:1]
    )
    rows = shm_scale_rows(
        sizes,
        family=args.family,
        instance_seed=args.seed,
        epsilon=args.epsilon,
        seed=args.lca_seed,
        queries=args.queries,
        workers=args.workers,
        pickled_max_n=args.pickled_max_n,
    )
    print(format_row_dicts(rows, title="shared-memory instance tier, n-axis sweep"))
    doc = bench_shm_document(
        rows,
        family=args.family,
        instance_seed=args.seed,
        epsilon=args.epsilon,
        lca_seed=args.lca_seed,
        queries=args.queries,
        workers=args.workers,
        rerun_sizes=rerun_sizes,
    )
    write_json(args.out, doc)
    print(f"\nwrote bench-result/v1 document to {args.out}")
    return 0


def _cmd_shm_stats(args: argparse.Namespace) -> int:
    import json

    from .knapsack.shm import shm_stats
    from .obs.export import write_json

    stats = shm_stats()
    print(json.dumps(stats, indent=2, sort_keys=True))
    if args.json:
        write_json(args.json, stats)
        print(f"\nwrote shm stats to {args.json}")
    leaked = stats["orphans"]
    if leaked:
        print(f"\nWARNING: {len(leaked)} orphaned segment(s): {leaked}")
        return 1
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from .faults.chaos import run_chaos
    from .obs.schema import BenchDocument

    doc = run_chaos(vars(args))
    # Sorted keys + no timing fields: the same seed must produce the
    # same bytes (the CI chaos-smoke job diffs two runs).
    BenchDocument("chaos", doc, deterministic=True).write(args.out)
    rows = [
        [
            r["probe_failure_rate"],
            r["answers"],
            r["degraded"],
            r["batch_aborts"],
            r["probe_retries"],
            f"{r['availability']:.4f}",
            "yes" if r["meets_target"] else "NO",
        ]
        for r in doc["rows"]
    ]
    print(
        f"chaos: family={args.family} n={doc['n']} eps={args.epsilon} "
        f"chaos_seed={args.chaos_seed} lca_seed={args.lca_seed} "
        f"(deterministic: same seeds => byte-identical report)"
    )
    print(
        format_table(
            ["fail rate", "answers", "degraded", "aborts", "retries",
             "availability", "meets target"],
            rows,
        )
    )
    print(
        "fault-free equivalence: "
        + ("PASS" if doc["fault_free_equivalence"] else "FAIL")
    )
    print(f"wrote chaos-report/v1 to {args.out}")
    return 0 if (doc["all_meet_target"] and doc["fault_free_equivalence"]) else 1


def _cmd_flightrec(args: argparse.Namespace) -> int:
    from .faults import FaultPlan, RetryPolicy
    from .obs import runtime as obs_runtime
    from .obs.events import events_document, render_timeline
    from .obs.schema import BenchDocument
    from .serve import KnapsackService

    inst = generate(args.family, args.n, seed=args.instance_seed)
    plan = FaultPlan(
        seed=args.chaos_seed,
        probe_failure_rate=args.rate,
        corruption_rate=args.corruption_rate,
    )
    # Fresh recorder: the timeline (and the events/v1 bytes) must be a
    # pure function of the seeds, not of whatever ran before in this
    # process.  The spill (if any) is configured before the clear, which
    # truncates it — so the file too is a pure function of the seeds.
    if args.spill:
        obs_runtime.RECORDER.set_spill(args.spill)
    obs_runtime.RECORDER.clear()
    rng = np.random.default_rng(args.chaos_seed)
    indices = [int(i) for i in rng.integers(inst.n, size=args.queries)]
    degraded = 0
    with KnapsackService(
        inst,
        args.epsilon,
        seed=args.lca_seed,
        params=LCAParameters.capped(args.epsilon, args.cap),
        cache=False,
        fault_plan=plan,
        retry_policy=RetryPolicy(max_retries=args.retries, seed=args.chaos_seed),
        strict=False,
        probe_audit=args.audit,
    ) as service:
        for b in range(args.batches):
            report = service.answer_batch(indices, nonce=200_000 + b)
            degraded += report.degraded
    doc = events_document(
        obs_runtime.RECORDER,
        family=args.family,
        n=inst.n,
        epsilon=args.epsilon,
        chaos_seed=args.chaos_seed,
        lca_seed=args.lca_seed,
        queries=args.queries,
        batches=args.batches,
        probe_failure_rate=args.rate,
        corruption_rate=args.corruption_rate,
        audit=bool(args.audit),
    )
    print(render_timeline(doc))
    print(
        f"\nserved {args.batches * args.queries} answers "
        f"({degraded} degraded), {service.retries_used} probe retries"
    )
    if args.out:
        # Sorted keys + no timing fields: same seeds => same bytes (the
        # CI chaos-smoke job diffs two runs).
        BenchDocument("events", doc, deterministic=True).write(args.out)
        print(f"wrote events/v1 to {args.out}")
    if args.spill:
        print(
            f"spilled {obs_runtime.RECORDER.spilled} ring-evicted events "
            f"to {args.spill}"
        )
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .load.sweep import run_load_sweep
    from .obs.schema import BenchDocument

    if args.listen:
        return _loadgen_listen(args)
    if args.connect:
        return _loadgen_connect(args)
    if args.fault_rate > 0.0 and args.clock == "virtual":
        print(
            "note: --fault-rate only bites under --clock wall "
            "(the virtual clock simulates service time, not the service)",
            file=sys.stderr,
        )
    rows, knee, doc = run_load_sweep(vars(args))
    shown = [
        {
            k: r[k]
            for k in (
                "offered_qps", "achieved_qps", "completed", "dropped",
                "degraded", "availability", "p50_latency_ms",
                "p99_queueing_ms", "p99_latency_ms",
            )
        }
        for r in rows
    ]
    print(
        f"loadgen: family={args.family} n={args.n} eps={args.epsilon} "
        f"clock={args.clock} arrival={args.arrival} workers={args.workers} "
        f"queue_cap={args.queue_cap} batch_max={args.batch_max}"
        + (" (deterministic: same seeds => byte-identical document)"
           if args.clock == "virtual" else "")
    )
    print(format_row_dicts(shown, title="open-loop load sweep"))
    if knee["detected"]:
        print(
            f"saturation knee: ~{knee['knee_rate']:g} q/s "
            f"(reason: {knee['reason']}, first saturated sweep index "
            f"{knee['index']})"
        )
    else:
        print("saturation knee: not reached inside the swept rates")
    # Virtual clock: sorted keys, so same seeds => same bytes (the CI
    # load-smoke job diffs two runs).
    BenchDocument(
        "bench-load", doc, deterministic=args.clock == "virtual"
    ).write(args.out)
    print(f"wrote bench-load/v1 document to {args.out}")
    return 0


def _cmd_overload(args: argparse.Namespace) -> int:
    from .load.overload_sweep import run_overload_sweep
    from .obs.schema import BenchDocument

    rows, knee, doc = run_overload_sweep(vars(args))
    keys = (
        "mode", "offered_qps", "completed", "dropped", "degraded",
        "deadline_shed", "brownout_shed", "availability", "full_quality",
        "p99_latency_ms",
    )
    shown = [{k: r.get(k, "") for k in keys} for r in rows]
    print(
        f"overload: family={args.family} n={args.n} eps={args.epsilon} "
        f"deadline={args.deadline_s:g}s factor={args.overload_factor:g} "
        f"(deterministic: same seeds => byte-identical document)"
    )
    print(format_row_dicts(shown, title="overload governor sweep"))
    comp = doc["comparison"]
    if knee.get("detected"):
        print(f"saturation knee: ~{knee['knee_rate']:g} q/s (reason: {knee['reason']})")
    else:
        print("saturation knee: not reached inside the swept rates")
    print(
        f"at {comp['rate']:g} q/s: availability on={comp['availability_on']:g} "
        f"off={comp['availability_off']:g} "
        f"(floor {comp['floor']:g} {'met' if comp['floor_met'] else 'MISSED'}); "
        f"full quality on={comp['full_quality_on']:g} "
        f"off={comp['full_quality_off']:g}"
    )
    # Sorted keys + virtual timestamps: same seeds => same bytes (the
    # CI overload-smoke job cmp's two runs).
    BenchDocument("bench-overload", doc, deterministic=True).write(args.out)
    print(f"wrote bench-overload/v1 document to {args.out}")
    if not comp["floor_met"]:
        print(
            f"FAIL: governed availability {comp['availability_on']:g} is "
            f"below the floor {comp['floor']:g}",
            file=sys.stderr,
        )
        return 1
    if not comp["off_below_on"]:
        print(
            "FAIL: brownout bought nothing (availability off >= on); the "
            "comparison rate is not past the knee",
            file=sys.stderr,
        )
        return 1
    return 0


def _endpoint_service(args: argparse.Namespace):
    """The capped, 8-entry-cache service an NDJSON endpoint serves."""
    from .serve import KnapsackService

    return KnapsackService(
        generate(args.family, args.n, seed=args.seed), args.epsilon,
        seed=args.lca_seed, params=LCAParameters.capped(args.epsilon, args.cap),
        cache_capacity=8,
    )


def _loadgen_listen(args: argparse.Namespace) -> int:
    import asyncio

    from .load.endpoint import serve_endpoint

    async def run(service) -> None:
        server = await serve_endpoint(
            service,
            host=args.host,
            port=args.port,
            nonce=args.nonce,
            timeline=args.timeline,
            timeline_tick_s=args.timeline_tick_s,
        )
        host, port = server.sockets[0].getsockname()[:2]
        print(f"loadgen endpoint listening on {host}:{port} (Ctrl-C to stop)", flush=True)
        print('protocol: one JSON object per line, e.g. {"op": "answer", "index": 0}', flush=True)
        if args.timeline:
            print(
                "live timeline sampler on: poll it with "
                '{"op": "timeline"} or `repro top --connect`',
                flush=True,
            )
        async with server:
            await server.serve_forever()

    with _endpoint_service(args) as service:
        try:
            asyncio.run(run(service))
        except KeyboardInterrupt:
            print("\nendpoint stopped")
    return 0


def _loadgen_connect(args: argparse.Namespace) -> int:
    """Drive a remote ``--listen`` endpoint through the load harness.

    Wall clock only: the whole point of the socket face is that the
    measured latency includes a real process boundary and wire, which a
    virtual clock cannot simulate.  The rows are tagged
    ``transport="socket"`` so they never silently diff against
    in-process rows.
    """
    from .load import EndpointClient, LoadHarness
    from .obs.export import write_json

    address = _connect_address(args.connect)
    if address is None:
        return 2
    host, port = address
    if args.clock != "wall":
        print(
            "note: --connect implies --clock wall (a remote endpoint "
            "cannot be virtually clocked)",
            file=sys.stderr,
        )
    rates = list(args.rates)
    with EndpointClient(host, port) as client:
        harness = LoadHarness(
            client,
            seed=args.seed,
            arrival=args.arrival,
            workers=args.workers,
            queue_cap=args.queue_cap,
            batch_max=args.batch_max,
            clock="wall",
        )
        rows, knee = harness.sweep(rates, args.queries, nonce=args.nonce)
    for row in rows:
        row["n"] = client.n
        row["family"] = args.family
        row["transport"] = "socket"
    from .load import bench_load_document

    doc = bench_load_document(
        rows,
        knee=knee,
        name="load_latency_socket",
        title="Open-loop load over the NDJSON endpoint (wall clock)",
        bench="load",
        clock="wall",
        rates=rates,
        queries=args.queries,
        n=client.n,
        epsilon=client.epsilon,
        endpoint=f"{host}:{port}",
    )
    shown = [
        {
            k: r[k]
            for k in (
                "offered_qps", "achieved_qps", "completed", "dropped",
                "degraded", "availability", "p50_latency_ms", "p99_latency_ms",
            )
        }
        for r in rows
    ]
    print(
        f"loadgen --connect {host}:{port}: n={client.n} "
        f"epsilon={client.epsilon} (remote instance)"
    )
    print(format_row_dicts(shown, title="open-loop load sweep (socket)"))
    write_json(args.out, doc)
    print(f"wrote bench-load/v1 document to {args.out}")
    return 0


def _connect_address(text: str) -> tuple[str, int] | None:
    """``(host, port)`` from a ``--connect HOST:PORT`` value, or ``None``
    (after a usage message) when the value is malformed."""
    host, _, port = text.rpartition(":")
    if host and port.isdigit():
        return host, int(port)
    print(f"--connect needs HOST:PORT, got {text!r}", file=sys.stderr)
    return None


_SPARK_GLYPHS = "▁▂▃▄▅▆▇█"


def _sparkline(values, width: int = 40) -> str:
    """Render the most recent ``width`` values as a unicode sparkline."""
    vals = [max(0.0, float(v)) for v in values][-width:]
    if not vals:
        return ""
    hi = max(vals)
    if hi <= 0:
        return _SPARK_GLYPHS[0] * len(vals)
    top = len(_SPARK_GLYPHS) - 1
    return "".join(_SPARK_GLYPHS[min(top, round(v / hi * top))] for v in vals)


def _cmd_top(args: argparse.Namespace) -> int:
    """Live terminal view of a serving endpoint (``repro top``).

    Polls the NDJSON ``metrics`` and ``timeline`` ops on an interval
    and redraws: headline counters with per-interval rates, latency
    summaries, and queue-depth / brownout-level sparklines from the
    endpoint's live timeline (or from its own poll history when the
    endpoint runs without a sampler).
    """
    import threading
    import time as _time

    from .load.endpoint import EndpointClient

    if args.interval <= 0:
        print("--interval must be > 0", file=sys.stderr)
        return 2
    spawned = service = None
    if args.connect:
        address = _connect_address(args.connect)
        if address is None:
            return 2
        host, port = address
        endpoint_label = f"{host}:{port}"
    else:
        # Self-spawned endpoint: serve in a daemon thread, drive it with
        # light traffic from the poll loop so there is motion to watch.
        import asyncio

        from .load.endpoint import serve_endpoint

        service = _endpoint_service(args)
        bound: dict = {}
        ready = threading.Event()

        def _serve() -> None:
            async def run() -> None:
                server = await serve_endpoint(
                    service,
                    host="127.0.0.1",
                    port=0,
                    timeline=True,
                    timeline_tick_s=args.interval,
                )
                bound["addr"] = server.sockets[0].getsockname()[:2]
                ready.set()
                async with server:
                    await server.serve_forever()

            try:
                asyncio.run(run())
            except Exception:  # noqa: BLE001 - daemon teardown
                ready.set()

        spawned = threading.Thread(target=_serve, daemon=True)
        spawned.start()
        if not ready.wait(timeout=30) or "addr" not in bound:
            print("spawned endpoint failed to start", file=sys.stderr)
            service.close()
            return 1
        host, port = bound["addr"][0], int(bound["addr"][1])
        endpoint_label = f"{host}:{port} (spawned)"

    depth_history: list[float] = []
    level_history: list[float] = []
    rate_history: list[float] = []
    prev_counters: dict[str, float] = {}
    iteration = 0
    client = EndpointClient(host, port)
    try:
        while True:
            iteration += 1
            if spawned is not None:
                # Light self-drive: a few real answers per refresh.
                for k in range(3):
                    client.answer((iteration * 3 + k) % client.n, nonce=iteration)
            snap = client.metrics()
            fragment = client.timeline()
            counters = dict(snap.get("counters", {}))
            requests = float(counters.get("endpoint.requests", 0))
            prev_requests = float(prev_counters.get("endpoint.requests", requests))
            rate_history.append((requests - prev_requests) / args.interval)
            ticks = (fragment or {}).get("ticks", [])
            if ticks:
                last = ticks[-1]
                depth_history.append(float(last.get("queue_depth", 0)))
                level_history.append(float(last.get("brownout_level", 0)))
            lines = [
                f"repro top — {endpoint_label}  interval={args.interval:g}s  "
                f"frame {iteration}" + (f"/{args.iterations}" if args.iterations else ""),
                "",
                f"  requests/s  {_sparkline(rate_history)}  "
                f"{rate_history[-1]:.1f} now, {requests:.0f} total",
            ]
            if depth_history:
                summary = (fragment or {}).get("summary", {})
                lines.append(
                    f"  queue depth {_sparkline(depth_history)}  "
                    f"{depth_history[-1]:.0f} now, "
                    f"{summary.get('max_queue_depth', 0)} max"
                )
                lines.append(
                    f"  brownout    {_sparkline(level_history)}  "
                    f"level {level_history[-1]:.0f} now, "
                    f"{summary.get('max_brownout_level', 0)} max"
                )
            else:
                lines.append("  (endpoint has no live timeline sampler; "
                             "start it with --timeline for queue/brownout rows)")
            lines.append("")
            top_counters = sorted(
                counters.items(), key=lambda kv: (-kv[1], kv[0])
            )[:10]
            for name, value in top_counters:
                delta = value - prev_counters.get(name, 0)
                lines.append(f"  {name:32s} {value:>12g}  (+{delta:g})")
            hists = snap.get("histograms", {})
            for name in sorted(hists)[:4]:
                h = hists[name]
                lines.append(
                    f"  {name:32s} p50={h.get('p50', 0):.4g} "
                    f"p99={h.get('p99', 0):.4g} n={h.get('count', 0):g}"
                )
            frame = "\n".join(lines)
            if args.no_clear:
                print(frame + "\n")
            else:
                print("\x1b[2J\x1b[H" + frame, flush=True)
            prev_counters = counters
            if args.iterations and iteration >= args.iterations:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        print("\nstopped")
        return 0
    finally:
        client.close()
        if service is not None:
            service.close()


def _cmd_obs_diff(args: argparse.Namespace) -> int:
    from .obs.context import RunContext
    from .obs.diff import diff_documents
    from .obs.export import read_json, write_json

    try:
        baseline = read_json(args.baseline)
        if args.candidate is not None:
            candidate = read_json(args.candidate)
    except (OSError, ValueError) as exc:  # unreadable, not JSON, or not an object
        print(f"obs-diff: {exc}", file=sys.stderr)
        return 2
    relative_only = False
    if args.candidate is not None:
        cand_label = args.candidate
    else:
        # Candidate-less run: the baseline's own context block is the
        # rerun recipe (see RunContext) — a committed document can be
        # re-checked without knowing how it was produced.
        ctx = RunContext.from_document(baseline, default_bench=args.fresh or "cold")
        if args.fresh:
            ctx = RunContext(bench=args.fresh, config=ctx.config)
        candidate = ctx.rerun()
        source = "from baseline context" if baseline.get("context") else "defaults"
        cand_label = f"fresh {ctx.bench} run ({source})"
        # A deterministic rerun (virtual-clock load, chaos, suite) owes
        # the baseline identical numbers, so the full comparison (tails,
        # counts, knee inputs) is fair game; every other fresh run
        # happens on unknown hardware => relative metrics only.
        relative_only = not ctx.deterministic
    doc = diff_documents(
        baseline,
        candidate,
        threshold=args.threshold,
        abs_floor_s=args.abs_floor_s,
        relative_only=relative_only,
    )
    print(
        f"obs-diff: {args.baseline} vs {cand_label} "
        f"(threshold {args.threshold}x, floor {args.abs_floor_s}s"
        + (", relative metrics only)" if relative_only else ")")
    )
    rows = [
        [
            f["row"],
            f["metric"],
            f["status"] if f["status"] == "ok" else f["status"].upper(),
            f"{f['baseline']:.6g}",
            f"{f['candidate']:.6g}",
            f["note"],
        ]
        for f in doc["findings"]
    ]
    if rows:
        print(format_table(
            ["row", "metric", "status", "baseline", "candidate", "note"], rows
        ))
    for missing in doc["rows_missing"]:
        if missing in doc["rows_exempt"]:
            note = f" (not rerun: {doc['rows_exempt'][missing]})"
        elif missing in doc["rows_unchecked"]:
            note = " UNCHECKED (no candidate row, and no rerun_exempt reason)"
        else:
            note = ""
        print(f"unmatched row: {missing}{note}")
    print(
        f"{doc['rows_compared']} rows compared, {len(doc['rows_missing'])} "
        f"unmatched: {len(doc['rows_unchecked'])} unchecked, "
        f"{doc['regressions']} regressions, {doc['drifts']} drifts, "
        f"{doc['improvements']} improvements -> "
        + ("OK" if doc["ok"] else "FAIL")
    )
    if args.out:
        write_json(args.out, doc)
        print(f"wrote bench-diff/v1 to {args.out}")
    return 0 if doc["ok"] else 1


def _cmd_suite(args: argparse.Namespace) -> int:
    from .obs.schema import BenchDocument
    from .suite import SuiteConfig, SuiteRunner

    try:
        config = SuiteConfig.from_file(args.matrix)
        if args.filter or args.cell:
            config = config.select(pattern=args.filter, ids=args.cell)
    except (ReproError, OSError) as exc:  # invalid, not JSON, or unreadable
        print(f"suite: {exc}", file=sys.stderr)
        return 2
    print(
        f"suite {config.name!r}: {len(config.cells)} cell(s), "
        f"seed {config.seed}"
    )

    def progress(result) -> None:
        marker = {
            "pass": "ok", "expected_failure": "ok (expected failure)",
            "fail": "FAIL", "error": "ERROR",
        }[result.outcome]
        extra = f" [{result.error}]" if result.error else ""
        print(f"  {result.cell.id:32s} {result.cell.kind:12s} {marker}{extra}")

    result = SuiteRunner(config).run(progress=progress)
    doc = result.document()
    BenchDocument(
        kind="suite-report", body=doc, deterministic=bool(doc["deterministic"])
    ).write(args.out)
    shown = [
        {
            "id": c["id"],
            "kind": c["kind"],
            "family": c.get("family", "-"),
            "n": c.get("n", "-"),
            "outcome": c["outcome"],
            "checks": f"{sum(1 for ch in c['checks'] if ch['ok'])}"
            f"/{len(c['checks'])}",
        }
        for c in doc["cells"]
    ]
    print(format_row_dicts(shown, title=f"suite {config.name}"))
    failed = [
        (c["id"], ch)
        for c in doc["cells"]
        for ch in c["checks"]
        if not ch["ok"]
    ]
    for cell_id, ch in failed:
        print(
            f"failed check: {cell_id}.{ch['name']}: observed "
            f"{ch['observed']} vs threshold {ch['threshold']} "
            f"({ch.get('detail', '')})"
        )
    s = doc["summary"]
    print(
        f"{s['cells']} cells: {s['passed']} passed, "
        f"{s['expected_failures']} expected failures, {s['failed']} failed, "
        f"{s['errors']} errors -> " + ("OK" if doc["ok"] else "FAIL")
    )
    print(f"wrote suite-report/v1 to {args.out}")
    return 0 if doc["ok"] else 1


def _cmd_report(args: argparse.Namespace) -> int:
    import pathlib

    from .obs.export import read_json
    from .obs.schema import validate_suite_report

    try:
        doc = read_json(args.document)
        validate_suite_report(doc)
    except (OSError, ValueError) as exc:  # unreadable, not JSON, or invalid
        print(f"report: {exc}", file=sys.stderr)
        return 2
    cells = [
        c for c in doc["cells"] if c["kind"] == "theorem" and c["outcome"] != "error"
    ]
    if not cells:
        print(f"report: {args.document} holds no theorem table", file=sys.stderr)
        return 2
    if args.out is not None:
        # Cell ids come from the document and name the files written.
        unsafe = [
            c["id"] for c in cells
            if "/" in c["id"] or "\\" in c["id"] or c["id"].startswith(".")
        ]
        if unsafe:
            print(f"report: cell id(s) {unsafe} are not plain file names",
                  file=sys.stderr)
            return 2
    for k, cell in enumerate(cells):
        metrics = cell["metrics"]
        rows = [{c: row[c] for c in metrics["columns"]} for row in metrics["rows"]]
        table = format_row_dicts(rows, title=metrics["title"]) + "\n"
        if args.out is None:
            sys.stdout.write(("\n" if k else "") + table)
        else:
            target = pathlib.Path(args.out) / f"{cell['id']}.txt"
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(table)
            print(f"wrote {target}")
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    rng = np.random.default_rng(0)
    m = 15
    x = np.zeros(m, dtype=np.int8)
    x[int(rng.integers(m))] = 1
    print("Figure 1 demo: OR input x =", "".join(map(str, x.tolist())))
    oracle = BitOracle(x)
    red = ORReduction(oracle)
    inst_oracle = red.oracle()
    print(f"simulated Knapsack instance: n={red.n}, K=1, all weights 1")
    special = inst_oracle.query(red.special_index)
    print(f"item s_n = {special} (no bit-query charged)")
    for i in (0, 3, 7):
        item = inst_oracle.query(i)
        print(f"item s_{i} = {item}  (one bit-query; total so far: {oracle.queries_used})")
    print(
        "s_n in the optimal solution? ",
        red.special_in_unique_optimum(),
        f"   (OR(x) = {oracle.true_or()}; the two are complementary)",
    )
    print(
        "=> answering that single LCA query computes OR(x), so the LCA's\n"
        "   query budget is lower-bounded by R(OR) = Omega(n)  [Theorem 3.2]"
    )
    return 0


def _cmd_families(_args: argparse.Namespace) -> int:
    for name in sorted(FAMILIES):
        doc = (FAMILIES[name].__doc__ or "").strip().splitlines()[0]
        print(f"{name:24s} {doc}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "lca": _cmd_lca,
        "trace": _cmd_trace,
        "metrics": _cmd_metrics,
        "flightrec": _cmd_flightrec,
        "obs-diff": _cmd_obs_diff,
        "suite": _cmd_suite,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "overload": _cmd_overload,
        "top": _cmd_top,
        "bench": _cmd_bench,
        "bench-cold": _cmd_bench_cold,
        "bench-shm": _cmd_bench_shm,
        "shm-stats": _cmd_shm_stats,
        "chaos": _cmd_chaos,
        "report": _cmd_report,
        "demo": _cmd_demo,
        "families": _cmd_families,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        # A value the parser accepted but the library rejects (a negative
        # arrival rate, a fault rate above 1) is a usage error too.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
