"""The declarative scenario vocabulary: cells and suite configs.

A :class:`ScenarioCell` is one point of the scenario matrix — generator
family × instance size × epsilon × oracle model × executor × clock ×
fault plan — plus what the runner should *expect* of it.  Positive
cells (``expect="pass"``) exercise the Theorem 4.1/4.5 guarantees and,
as ``fleet`` cells, the Definition 2.3/2.4 promise that independent
runs sharing only input and seed answer by one solution;
adversarial cells built on the Section 3 lower-bound families
(``expect="budget_failure"``) are supposed to fail within their query
budget, and the suite treats that failure as the correct outcome — a
cell that *beats* an impossibility bound is a hard suite failure.

A :class:`SuiteConfig` is the whole matrix: a name, a root seed, and a
tuple of cells.  Both round-trip losslessly through ``to_dict`` /
``from_dict`` — that round trip is what lets a ``suite-report/v1``
document embed its entire configuration in its ``context`` block and
rerun byte-identically from the report alone (``repro suite
REPORT.json``).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Mapping

from ..errors import ReproError

__all__ = [
    "CELL_KINDS",
    "CELL_EXPECTS",
    "ORACLE_MODELS",
    "EXECUTORS",
    "CLOCKS",
    "THEOREMS",
    "ScenarioCell",
    "SuiteConfig",
]

CELL_KINDS = ("approx", "load", "chaos", "adversarial", "overload", "fleet")
CELL_EXPECTS = ("pass", "budget_failure")
ORACLE_MODELS = ("ideal", "faulty", "faulty_hedged")
EXECUTORS = ("inline", "thread", "process")
CLOCKS = ("none", "virtual", "wall")
THEOREMS = ("3.2", "3.3", "3.4")


@dataclass(frozen=True)
class ScenarioCell:
    """One scenario: what to run, how to run it, what to expect.

    Only ``id`` and ``kind`` are required; every other field has a
    small-and-fast default so committed matrices stay readable — a cell
    states exactly the axes it varies.  ``checks`` holds per-cell
    acceptance-threshold overrides (``min_ratio``, ``probe_margin``,
    ``min_availability``); see :mod:`repro.suite.checks` for defaults.
    """

    id: str
    kind: str
    family: str = "uniform"
    n: int = 300
    epsilon: float = 0.1
    instance_seed: int = 0
    lca_seed: int = 42
    oracle: str = "ideal"
    executor: str = "inline"
    clock: str = "none"
    workers: int = 2
    cap: int = 2_000
    queries: int = 60
    runs: int = 2
    batches: int = 2
    rates: tuple[float, ...] = ()
    fault_rate: float = 0.0
    corruption_rate: float = 0.0
    latency_spike_rate: float = 0.0
    retries: int = 0
    hedge_after_s: float | None = None
    theorem: str | None = None
    alpha: float = 0.5
    budget_fraction: float = 0.1
    trials: int = 400
    # Load axis: shared-memory instance tier (process shards attach one
    # zero-copy segment; service_workers > 1 shards each dispatch).
    shared_instance: bool = False
    service_workers: int = 0
    # Overload axis: deadline admission + brownout comparison.
    deadline_s: float = 0.05
    overload_factor: float = 2.0
    expect: str = "pass"
    checks: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise ReproError("a scenario cell needs a non-empty id")
        if self.kind not in CELL_KINDS:
            raise ReproError(
                f"cell {self.id!r}: kind must be one of {CELL_KINDS}, "
                f"got {self.kind!r}"
            )
        if self.expect not in CELL_EXPECTS:
            raise ReproError(
                f"cell {self.id!r}: expect must be one of {CELL_EXPECTS}, "
                f"got {self.expect!r}"
            )
        if self.oracle not in ORACLE_MODELS:
            raise ReproError(
                f"cell {self.id!r}: oracle must be one of {ORACLE_MODELS}, "
                f"got {self.oracle!r}"
            )
        if self.executor not in EXECUTORS:
            raise ReproError(
                f"cell {self.id!r}: executor must be one of {EXECUTORS}, "
                f"got {self.executor!r}"
            )
        if self.clock not in CLOCKS:
            raise ReproError(
                f"cell {self.id!r}: clock must be one of {CLOCKS}, "
                f"got {self.clock!r}"
            )
        if self.kind == "adversarial":
            if self.theorem not in THEOREMS:
                raise ReproError(
                    f"cell {self.id!r}: adversarial cells need theorem in "
                    f"{THEOREMS}, got {self.theorem!r}"
                )
            if self.expect != "budget_failure":
                raise ReproError(
                    f"cell {self.id!r}: adversarial cells must expect "
                    f"'budget_failure' (a cell that beats an impossibility "
                    f"bound is a suite failure, not a pass)"
                )
            if not 0.0 <= self.budget_fraction <= 1.0:
                raise ReproError(
                    f"cell {self.id!r}: budget_fraction must lie in [0, 1], "
                    f"got {self.budget_fraction}"
                )
            if self.trials < 1:
                raise ReproError(
                    f"cell {self.id!r}: trials must be >= 1, got {self.trials}"
                )
        if self.kind in ("load", "overload") and not self.rates:
            raise ReproError(f"cell {self.id!r}: {self.kind} cells need rates")
        if self.kind == "overload":
            if self.clock != "virtual":
                raise ReproError(
                    f"cell {self.id!r}: overload cells need clock='virtual' "
                    f"(the governed sweep is a deterministic simulation)"
                )
            if self.deadline_s <= 0:
                raise ReproError(
                    f"cell {self.id!r}: deadline_s must be > 0, "
                    f"got {self.deadline_s}"
                )
            if self.overload_factor <= 1.0:
                raise ReproError(
                    f"cell {self.id!r}: overload_factor must be > 1 "
                    f"(the comparison must sit past the knee), "
                    f"got {self.overload_factor}"
                )
            if self.expect == "budget_failure" and self.theorem not in THEOREMS:
                raise ReproError(
                    f"cell {self.id!r}: a budget_failure overload cell pins "
                    f"an impossibility bound and needs theorem in {THEOREMS}, "
                    f"got {self.theorem!r}"
                )
        if self.kind == "fleet":
            if self.runs < 2:
                raise ReproError(
                    f"cell {self.id!r}: fleet cells need runs >= 2 "
                    f"(agreement is measured between runs), got {self.runs}"
                )
            if not 1 <= self.queries <= self.n:
                raise ReproError(
                    f"cell {self.id!r}: fleet cells need 1 <= queries <= n "
                    f"distinct probes, got {self.queries}"
                )
            for rate in self.rates:
                if not 0.0 <= rate <= 1.0:
                    raise ReproError(
                        f"cell {self.id!r}: shard-kill rates must lie in "
                        f"[0, 1], got {rate}"
                    )
                if rate > 0.0 and self.executor != "process":
                    raise ReproError(
                        f"cell {self.id!r}: shard kills only happen in "
                        f"process pools; kill rate {rate} needs "
                        f"executor='process', got {self.executor!r}"
                    )
        if self.service_workers < 0:
            raise ReproError(
                f"cell {self.id!r}: service_workers must be >= 0, "
                f"got {self.service_workers}"
            )
        if self.n < 2:
            raise ReproError(f"cell {self.id!r}: n must be >= 2, got {self.n}")
        if self.oracle == "faulty_hedged" and self.hedge_after_s is None:
            object.__setattr__(self, "hedge_after_s", 0.002)
        if self.oracle in ("faulty", "faulty_hedged") and self.retries == 0:
            object.__setattr__(self, "retries", 3)

    @property
    def deterministic(self) -> bool:
        """True unless the cell measures the honest wall clock."""
        return self.clock != "wall"

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioCell":
        """Build from a matrix-file entry; unknown keys are an error
        (a typo'd axis must not silently become the default)."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ReproError(
                f"cell {data.get('id', '?')!r}: unknown key(s) {unknown}; "
                f"known: {sorted(known)}"
            )
        payload = dict(data)
        if "rates" in payload:
            payload["rates"] = tuple(float(r) for r in payload["rates"])
        if "checks" in payload:
            payload["checks"] = dict(payload["checks"])
        return cls(**payload)

    def to_dict(self) -> dict:
        """The full normalized cell (every field, JSON-ready)."""
        out = asdict(self)
        out["rates"] = [float(r) for r in self.rates]
        out["checks"] = dict(self.checks)
        return out


@dataclass(frozen=True)
class SuiteConfig:
    """One scenario matrix: name, root seed, and its cells."""

    name: str
    cells: tuple[ScenarioCell, ...]
    seed: int = 0
    title: str = "Scenario-matrix suite over the LCA knapsack pipeline"

    def __post_init__(self) -> None:
        if not self.cells:
            raise ReproError(f"suite {self.name!r} has no cells")
        seen: set[str] = set()
        for cell in self.cells:
            if cell.id in seen:
                raise ReproError(
                    f"suite {self.name!r}: duplicate cell id {cell.id!r}"
                )
            seen.add(cell.id)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SuiteConfig":
        cells = data.get("cells")
        if not isinstance(cells, (list, tuple)):
            raise ReproError("suite config needs a 'cells' list")
        return cls(
            name=str(data.get("name", "suite")),
            seed=int(data.get("seed", 0)),
            title=str(
                data.get(
                    "title", "Scenario-matrix suite over the LCA knapsack pipeline"
                )
            ),
            cells=tuple(
                c if isinstance(c, ScenarioCell) else ScenarioCell.from_dict(c)
                for c in cells
            ),
        )

    @classmethod
    def from_file(cls, path) -> "SuiteConfig":
        """Load a matrix file, or the matrix embedded in a
        ``suite-report/v1`` document (report in, same report out)."""
        with open(path) as fh:
            data = json.load(fh)
        if data.get("schema") == "suite-report/v1":
            embedded = (data.get("context") or {}).get("suite")
            if not embedded:
                raise ReproError(
                    f"{path}: suite-report carries no context.suite block"
                )
            return cls.from_dict(embedded)
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "title": self.title,
            "cells": [c.to_dict() for c in self.cells],
        }

    def select(
        self, *, pattern: str | None = None, ids: list[str] | None = None
    ) -> "SuiteConfig":
        """The sub-matrix matching a substring ``pattern`` and/or an
        explicit ``ids`` list (both None => everything)."""
        chosen = [
            c
            for c in self.cells
            if (pattern is None or pattern in c.id)
            and (ids is None or c.id in ids)
        ]
        if not chosen:
            raise ReproError(
                f"suite {self.name!r}: no cell matches "
                f"pattern={pattern!r} ids={ids!r}"
            )
        return SuiteConfig(
            name=self.name, seed=self.seed, title=self.title, cells=tuple(chosen)
        )

    def write(self, path) -> pathlib.Path:
        target = pathlib.Path(path)
        target.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return target
