"""Declarative scenario matrices over the whole pipeline.

One suite = one committed JSON matrix (``benchmarks/suites/*.json``)
of :class:`ScenarioCell`\\ s — generator family × n × epsilon × oracle
model × executor × clock × fault plan — run by :class:`SuiteRunner`
into a single validated ``suite-report/v1`` document.  Positive cells
pin the Theorem 4.1/4.5 guarantees; adversarial cells built on the
Theorem 3.2–3.4 lower-bound families are *expected* to fail within
their query budget, and a cell that statistically beats an
impossibility bound fails the whole suite.

The report embeds its entire configuration under ``context.suite``, so
``repro suite REPORT.json`` reruns it byte-identically from the report
alone — the same self-rerun convention every other bench document in
this repo follows (see :class:`repro.obs.context.RunContext`).
"""

from .cells import (
    CELL_EXPECTS,
    CELL_KINDS,
    CLOCKS,
    EXECUTORS,
    ORACLE_MODELS,
    THEOREMS,
    ScenarioCell,
    SuiteConfig,
)
from .checks import (
    adversarial_checks,
    approx_checks,
    chaos_checks,
    fleet_checks,
    load_checks,
)
from .runner import SUITE_SCHEMA, CellResult, SuiteResult, SuiteRunner, run_suite

__all__ = [
    "CELL_EXPECTS",
    "CELL_KINDS",
    "CLOCKS",
    "EXECUTORS",
    "ORACLE_MODELS",
    "SUITE_SCHEMA",
    "THEOREMS",
    "CellResult",
    "ScenarioCell",
    "SuiteConfig",
    "SuiteResult",
    "SuiteRunner",
    "adversarial_checks",
    "approx_checks",
    "chaos_checks",
    "fleet_checks",
    "load_checks",
    "run_suite",
]
