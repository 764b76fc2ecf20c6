"""The CLI's flag schema, pinned verb by verb.

Every verb keeps its option strings, defaults and choices: a flag the
schema adds, drops or renames, or a default or choice that moves, fails
here.  Comma-list defaults are compared as the tuple of numbers they
parse to, so a default written as ``"50,100"`` and one written as
``(50.0, 100.0)`` pin the same value.
"""

from __future__ import annotations

import argparse

from repro.cli import _build_parser
from repro.knapsack import FAMILIES

FAMILY_CHOICES = tuple(sorted(FAMILIES))
COMMA_LISTS = {"rates", "sizes", "rerun_sizes", "sweep"}

#: verb -> option strings (or positional dest) -> (default, choices).
PINNED = {
    "solve": {
        "--family": ("uniform", FAMILY_CHOICES),
        "--n": (100, None),
        "--seed": (0, None),
    },
    "lca": {
        "--family": ("planted_lsg", FAMILY_CHOICES),
        "--n": (2000, None),
        "--seed": (0, None),
        "--epsilon": (0.05, None),
        "--lca-seed": (42, None),
        "--tie-breaking": (False, None),
        "items": (None, None),
    },
    "trace": {
        "--family": ("planted_lsg", FAMILY_CHOICES),
        "--n": (100000, None),
        "--seed": (0, None),
        "--epsilon": (0.05, None),
        "--lca-seed": (42, None),
        "--query": (0, None),
        "--nonce": (1, None),
        "--json": (None, None),
        "--chrome": (None, None),
        "--batch": (None, None),
        "--workers": (2, None),
        "--executor": ("thread", ("thread", "process")),
    },
    "metrics": {
        "--family": ("planted_lsg", FAMILY_CHOICES),
        "--n": (20000, None),
        "--seed": (0, None),
        "--epsilon": (0.05, None),
        "--lca-seed": (42, None),
        "--queries": (8, None),
        "--out": (None, None),
        "--prom": (None, None),
    },
    "serve": {
        "--family": ("planted_lsg", FAMILY_CHOICES),
        "--n": (5000, None),
        "--seed": (0, None),
        "--epsilon": (0.1, None),
        "--lca-seed": (42, None),
        "--queries": (200, None),
        "--batches": (4, None),
        "--workers": (1, None),
        "--executor": ("thread", ("thread", "process")),
        "--nonce": (None, None),
    },
    "loadgen": {
        "--family": ("uniform", FAMILY_CHOICES),
        "--n": (2000, None),
        "--seed": (0, None),
        "--epsilon": (0.1, None),
        "--lca-seed": (42, None),
        "--rates": ((50.0, 100.0, 200.0, 400.0, 800.0), None),
        "--queries": (200, None),
        "--workers": (2, None),
        "--queue-cap": (256, None),
        "--batch-max": (16, None),
        "--arrival": ("poisson", ("poisson", "uniform", "constant")),
        "--clock": ("virtual", ("wall", "virtual")),
        "--nonce": (0, None),
        "--base-s": (0.002, None),
        "--per-query-s": (0.0005, None),
        "--jitter": (0.0, None),
        "--fault-rate": (0.0, None),
        "--retries": (0, None),
        "--cap": (4000, None),
        "--shared-instance": (False, None),
        "--service-workers": (0, None),
        "--timeline": (False, None),
        "--timeline-tick-s": (None, None),
        "--out": ("BENCH_load.json", None),
        "--listen": (False, None),
        "--host": ("127.0.0.1", None),
        "--port": (0, None),
        "--connect": (None, None),
    },
    "overload": {
        "--family": ("uniform", FAMILY_CHOICES),
        "--n": (2000, None),
        "--seed": (0, None),
        "--epsilon": (0.1, None),
        "--lca-seed": (42, None),
        "--rates": ((100.0, 200.0, 400.0, 800.0), None),
        "--queries": (300, None),
        "--workers": (1, None),
        "--queue-cap": (256, None),
        "--batch-max": (1, None),
        "--nonce": (0, None),
        "--cap": (4000, None),
        "--deadline-s": (0.05, None),
        "--overload-factor": (2.0, None),
        "--availability-floor": (0.9, None),
        "--timeline": (False, None),
        "--timeline-tick-s": (None, None),
        "--out": ("BENCH_overload.json", None),
    },
    "top": {
        "--connect": (None, None),
        "--interval": (1.0, None),
        "--iterations": (0, None),
        "--no-clear": (False, None),
        "--family": ("uniform", FAMILY_CHOICES),
        "--n": (2000, None),
        "--seed": (0, None),
        "--epsilon": (0.1, None),
        "--lca-seed": (42, None),
        "--cap": (4000, None),
    },
    "suite": {
        "matrix": (None, None),
        "--filter": (None, None),
        "--cell": (None, None),
        "--out": ("suite_report.json", None),
    },
    "bench": {
        "--family": ("uniform", FAMILY_CHOICES),
        "--n": (5000, None),
        "--seed": (0, None),
        "--epsilon": (0.1, None),
        "--lca-seed": (7, None),
        "--queries": (1000, None),
        "--batch": (100, None),
        "--workers": (4, None),
        "--baseline-queries": (20, None),
        "--out": ("BENCH_serve.json", None),
    },
    "bench-cold": {
        "--family": ("planted_lsg", FAMILY_CHOICES),
        "--n": (20000, None),
        "--seed": (0, None),
        "--epsilon": (0.1, None),
        "--lca-seed": (7, None),
        "--queries": (5, None),
        "--out": ("BENCH_cold.json", None),
        "--sweep": (None, None),
    },
    "bench-shm": {
        "--family": ("planted_lsg", FAMILY_CHOICES),
        "--sizes": ((20000.0,), None),
        "--seed": (0, None),
        "--epsilon": (0.1, None),
        "--lca-seed": (7, None),
        "--queries": (32, None),
        "--workers": (2, None),
        "--pickled-max-n": (10000000, None),
        "--rerun-sizes": (None, None),
        "--out": ("BENCH_shm.json", None),
    },
    "shm-stats": {
        "--json": (None, None),
    },
    "chaos": {
        "--family": ("uniform", FAMILY_CHOICES),
        "--n": (2000, None),
        "--instance-seed": (0, None),
        "--seed": (7, None),
        "--epsilon": (0.1, None),
        "--lca-seed": (42, None),
        "--queries": (40, None),
        "--batches": (3, None),
        "--rates": ((0.0, 0.05, 0.1), None),
        "--target": (0.99, None),
        "--retries": (3, None),
        "--cap": (4000, None),
        "--out": ("chaos_report.json", None),
    },
    "flightrec": {
        "--family": ("uniform", FAMILY_CHOICES),
        "--n": (2000, None),
        "--instance-seed": (0, None),
        "--seed": (7, None),
        "--epsilon": (0.1, None),
        "--lca-seed": (42, None),
        "--queries": (20, None),
        "--batches": (2, None),
        "--rate": (0.15, None),
        "--corruption-rate": (0.0, None),
        "--retries": (3, None),
        "--audit": (False, None),
        "--cap": (4000, None),
        "--out": (None, None),
        "--spill": (None, None),
    },
    "obs-diff": {
        "baseline": (None, None),
        "candidate": (None, None),
        "--fresh": (None, ("cold", "serve", "load", "overload", "chaos", "suite")),
        "--threshold": (1.75, None),
        "--abs-floor-s": (0.002, None),
        "--out": (None, None),
    },
    "report": {
        "document": (None, None),
        "--out": (None, None),
    },
    "demo": {
    },
    "families": {
    },
}


def _default(action: argparse.Action):
    value = action.default
    if action.dest in COMMA_LISTS and value is not None:
        items = value.split(",") if isinstance(value, str) else value
        value = tuple(float(x) for x in items)
    return value


def _schema() -> dict:
    parser = _build_parser()
    verbs = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    return {
        verb: {
            " ".join(a.option_strings) or a.dest: (
                _default(a),
                None if a.choices is None else tuple(a.choices),
            )
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for verb, sub in verbs.items()
    }


def test_every_verb_keeps_its_flags_defaults_and_choices():
    schema = _schema()
    assert sorted(schema) == sorted(PINNED)
    for verb, flags in PINNED.items():
        # repr, not ==: a default that turns 0 -> False or 4000 -> 4000.0
        # is a change too.
        got = {flag: repr(value) for flag, value in schema[verb].items()}
        assert got == {flag: repr(value) for flag, value in flags.items()}, verb


def test_pinned_schema_size():
    assert len(PINNED) == 19
    assert sum(len(flags) for flags in PINNED.values()) == 165
