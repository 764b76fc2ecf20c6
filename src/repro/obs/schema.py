"""Validators for the observability JSON schemas, plus the one
bench-document build→validate→write API every emitter shares.

The documented schemas (see ``docs/observability.md``) are small enough
that a dependency-free structural check beats pulling in jsonschema.
Every validator is written over one small set of shared rules:

* :func:`_require` / :func:`_check_value` — a field is present and
  typed: a number must be finite and an int is never a ``bool``;
  optionally it must be non-negative or one of a set of choices;
* :func:`_agrees` — a field equals what its inputs say, reported as
  ``X is A, but <source> B``; :func:`_count_of` is its ``count ==
  len(list)`` form;
* :func:`_monotone` — a sequence never falls (or strictly rises);
* :func:`_no_timing_keys` — a deterministic document carries no
  wall-clock field; :func:`_pin_context` — ``context.bench`` names the
  document's kind.

``bench-load`` and ``bench-overload`` go through one sweep check
(:func:`_check_sweep`); overload adds only its own mode, goodput ledger
and ``comparison`` rules.  Each validator collects every problem and
raises :class:`SchemaError` listing all of them at once.

:class:`BenchDocument` is the single code path for *producing* those
documents: the four historical builders (cold/serve bench, load sweep,
chaos report) and the suite runner all assemble through
``BenchDocument.build(...)``, validate in place, and write with one of
exactly two byte disciplines — deterministic (sorted keys, trailing
newline; CI diffs two runs byte-for-byte) or pretty (insertion order,
for wall-clock documents where bytes cannot be pinned anyway).

Usable as a module CLI — this is what the CI smoke job runs::

    python -m repro.obs.schema --kind trace trace.json
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
from collections import Counter
from dataclasses import dataclass, field

from ..suite.cells import CELL_EXPECTS, CELL_KINDS

__all__ = [
    "SchemaError",
    "BenchDocument",
    "validate_trace",
    "validate_metrics_snapshot",
    "validate_timeline",
    "validate_bench_result",
    "validate_bench_load",
    "validate_bench_overload",
    "validate_bench_observability",
    "validate_chaos_report",
    "validate_events",
    "validate_bench_diff",
    "validate_suite_report",
    "validate",
    "main",
]


class SchemaError(ValueError):
    """A document failed validation; ``problems`` lists every issue."""

    def __init__(self, kind: str, problems: list[str]) -> None:
        self.kind = kind
        self.problems = problems
        super().__init__(
            f"invalid {kind} document ({len(problems)} problem(s)):\n  "
            + "\n  ".join(problems)
        )


#: Validator kind -> the schema tag its documents carry.
SCHEMA_TAGS = {
    "bench-result": "bench-result/v1",
    "bench-load": "bench-load/v1",
    "bench-overload": "bench-overload/v1",
    "chaos": "chaos-report/v1",
    "events": "events/v1",
    "suite-report": "suite-report/v1",
    "trace": "trace/v2",
    "metrics": "metrics-snapshot/v2",
    "timeline": "timeline/v1",
}


@dataclass
class BenchDocument:
    """One bench document: build → validate → write, one code path.

    ``kind`` is a validator key (see :data:`SCHEMA_TAGS`); ``body`` is
    the JSON-ready document.  ``deterministic`` selects the byte
    discipline :meth:`write` uses: sorted keys plus a trailing newline
    (so two runs of the same seeds are byte-identical — the contract CI
    ``cmp``'s), versus the pretty insertion-order dump used for
    wall-clock documents.
    """

    kind: str
    body: dict
    deterministic: bool = False
    problems: list = field(default_factory=list, repr=False)

    @classmethod
    def build(
        cls,
        kind: str,
        *,
        name: str | None = None,
        title: str | None = None,
        rows: list | None = None,
        context=None,
        deterministic: bool = False,
        **fields,
    ) -> "BenchDocument":
        """Assemble a document of ``kind``.

        ``context`` may be a :class:`~repro.obs.context.RunContext`
        (embedded via its ``embed()``) or a plain mapping; extra
        ``fields`` land at the top level in the order given.  The body
        is passed through :func:`~repro.obs.export.jsonable`, so numpy
        scalars and dataclasses are safe to hand in.
        """
        from .export import jsonable

        if kind not in SCHEMA_TAGS:
            raise ValueError(
                f"unknown document kind {kind!r}; known: {sorted(SCHEMA_TAGS)}"
            )
        body: dict = {"schema": SCHEMA_TAGS[kind]}
        if name is not None:
            body["name"] = name
        if title is not None:
            body["title"] = title
        if rows is not None:
            body["rows"] = rows
        body.update(fields)
        if context is not None:
            body["context"] = (
                context.embed() if hasattr(context, "embed") else dict(context)
            )
        return cls(kind=kind, body=jsonable(body), deterministic=deterministic)

    def validate(self) -> "BenchDocument":
        """Validate the body against its schema; raises :class:`SchemaError`."""
        validate(self.kind, self.body)
        return self

    def text(self) -> str:
        """The exact bytes :meth:`write` would produce (as ``str``)."""
        if self.deterministic:
            return json.dumps(self.body, indent=2, sort_keys=True) + "\n"
        return json.dumps(self.body, indent=2, sort_keys=False) + "\n"

    def write(self, path) -> pathlib.Path:
        """Write the document to ``path``; returns the path written."""
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.text())
        return target


# -- the shared rules --------------------------------------------------------

_NUM = (int, float)
_TOL = 1e-9
_TIMING_KEYS = ("wall_clock", "timestamp", "time_s")


def _check_value(value, types, problems: list[str], label: str, *,
                 nonneg: bool = False, choices=None) -> bool:
    """The typed field check: ``value`` is one of ``types`` — a number
    must be finite and an int is never a ``bool`` — and, when asked,
    non-negative and one of ``choices``.  Records a problem and returns
    False on the first rule broken."""
    types = types if isinstance(types, tuple) else (types,)
    if not isinstance(value, types) or (
        isinstance(value, bool) and bool not in types
    ):
        names = "/".join(t.__name__ for t in types)
        problems.append(f"{label} must be {names}, got {type(value).__name__}")
    elif isinstance(value, float) and not math.isfinite(value):
        problems.append(f"{label} must be a finite number, got {value}")
    elif nonneg and value < 0:
        problems.append(f"{label} must be non-negative, got {value}")
    elif choices is not None and value not in choices:
        problems.append(f"{label} must be one of {choices}, got {value!r}")
    else:
        return True
    return False


def _is(value, types) -> bool:
    """True iff ``value`` passes the typed field check for ``types``."""
    return _check_value(value, types, [], "")


def _require(doc: dict, key: str, types, problems: list[str],
             where: str = "", **rules) -> bool:
    """``doc[key]`` is present and passes :func:`_check_value`."""
    if key not in doc:
        problems.append(f"missing key {where}{key}")
        return False
    return _check_value(doc[key], types, problems, f"{where}{key}", **rules)


def _check_values(mapping: dict, types, problems: list[str], label: str,
                  **rules) -> None:
    """Every value of ``mapping`` passes :func:`_check_value`."""
    for key, value in mapping.items():
        _check_value(value, types, problems, f"{label}[{key!r}]", **rules)


def _agrees(doc: dict, key: str, types, expected, source: str,
            problems: list[str], where: str = "", tol: float = 0.0) -> bool:
    """``doc[key]`` is typed and equals ``expected`` — what ``source``
    says — within ``tol``.  ``expected=None`` means the inputs were
    themselves invalid (already reported): only the type is checked."""
    if not _require(doc, key, types, problems, where) or expected is None:
        return False
    got = doc[key]
    if got == expected if not tol else abs(got - expected) <= tol:
        return True
    problems.append(f"{where}{key} is {got!r}, but {source} {expected!r}")
    return False


def _count_of(doc: dict, key: str, items, of: str, problems: list[str],
              where: str = "") -> None:
    """``doc[key]`` is an int equal to ``len(items)`` (a list named ``of``)."""
    count = len(items) if isinstance(items, list) else None
    _agrees(doc, key, int, count, f"{of} holds", problems, where)


def _monotone(problems: list[str], pairs, why: str, *,
              strict: bool = False) -> None:
    """The numeric values of ``(label, value)`` pairs never fall (with
    ``strict``, each exceeds the last); non-numbers are skipped — their
    type check reports them."""
    prev = None
    for label, value in pairs:
        if not _is(value, _NUM):
            continue
        if prev is not None and (
            value <= prev[1] if strict else value < prev[1] - _TOL
        ):
            relation = "must exceed" if strict else "below"
            problems.append(
                f"{label} is {value}, {relation} {prev[0]} = {prev[1]} — {why}"
            )
        prev = (label, value)


def _no_timing_keys(scope: dict, problems: list[str], where: str = "") -> None:
    """A deterministic document carries no wall-clock field."""
    for key in scope:
        if any(banned in key for banned in _TIMING_KEYS):
            problems.append(
                f"deterministic document must not carry timing key {where}{key}"
            )


def _pin_context(doc: dict, bench: str | None, problems: list[str], *,
                 required: bool = True) -> None:
    """``context`` is an object whose ``bench`` is ``bench`` (unpinned when
    None); optional for bare in-process snapshots (``required=False``)."""
    if not required and "context" not in doc:
        return
    if _require(doc, "context", dict, problems) and bench is not None \
            and doc["context"].get("bench") != bench:
        problems.append(
            f"context.bench must be {bench!r}, got {doc['context'].get('bench')!r}"
        )


def _objects(doc: dict, key: str, problems: list[str], where: str = "",
             container: type = list):
    """Yield ``(label_prefix, item)`` for each object in ``doc[key]`` (a
    list, or a mapping with ``container=dict``); a missing container or a
    non-object item is a problem."""
    if not _require(doc, key, container, problems, where):
        return
    items = doc[key].items() if container is dict else enumerate(doc[key])
    for index, item in items:
        label = f"{where}{key}[{index!r}]"
        if isinstance(item, dict):
            yield label + ".", item
        else:
            problems.append(f"{label} must be an object")


def _problems(doc: dict, tag: str) -> list[str]:
    """A fresh problem list, holding the schema-tag mismatch if any."""
    if doc.get("schema") == tag:
        return []
    return [f"schema must be {tag!r}, got {doc.get('schema')!r}"]


def _verdict(tag: str, doc: dict, problems: list[str]) -> dict:
    if problems:
        raise SchemaError(tag, problems)
    return doc


def _check_envelope(doc: dict, bench: str, problems: list[str]) -> None:
    """The optional BenchDocument envelope (``name``/``title``/``context``)
    the v2 observability documents carry: type-checked — and pinned to
    ``context.bench`` — when present."""
    for key in ("name", "title"):
        if key in doc:
            _require(doc, key, str, problems)
    _pin_context(doc, bench, problems, required=False)


# -- per-kind validators -----------------------------------------------------


def _check_span(node: object, problems: list[str], where: str) -> None:
    if not isinstance(node, dict):
        problems.append(f"{where} must be an object")
        return
    _require(node, "name", str, problems, where + ".")
    _require(node, "span_id", str, problems, where + ".")
    _require(node, "duration_s", _NUM, problems, where + ".")
    if _require(node, "counts", dict, problems, where + "."):
        _check_values(node["counts"], int, problems, f"{where}.counts", nonneg=True)
    if _require(node, "children", list, problems, where + "."):
        for i, child in enumerate(node["children"]):
            _check_span(child, problems, f"{where}.children[{i}]")


def validate_trace(doc: dict) -> dict:
    """Validate a ``trace/v2`` document, including the partition
    invariant: for every counted key, the per-phase counts sum to the
    recorded total."""
    problems = _problems(doc, "trace/v2")
    _check_envelope(doc, "trace", problems)
    if _require(doc, "root", dict, problems):
        _check_span(doc["root"], problems, "root")
    for where, entry in _objects(doc, "totals", problems, container=dict):
        phase_sum = None
        if _require(entry, "by_phase", dict, problems, where):
            by_phase = entry["by_phase"]
            _check_values(by_phase, int, problems, f"{where}by_phase", nonneg=True)
            phase_sum = sum(v for v in by_phase.values() if _is(v, int))
        _agrees(entry, "total", int, phase_sum, "the per-phase counts sum to",
                problems, where)
    return _verdict("trace/v2", doc, problems)


def validate_metrics_snapshot(doc: dict) -> dict:
    """Validate a ``metrics-snapshot/v2`` document."""
    problems = _problems(doc, "metrics-snapshot/v2")
    _check_envelope(doc, "metrics", problems)
    if _require(doc, "counters", dict, problems):
        _check_values(doc["counters"], int, problems, "counters", nonneg=True)
    if _require(doc, "gauges", dict, problems):
        _check_values(doc["gauges"], _NUM, problems, "gauges")
    for where, hist in _objects(doc, "histograms", problems, container=dict):
        _require(hist, "count", int, problems, where)
        if hist.get("count"):
            for stat in ("sum", "min", "max", "mean", "p50", "p90", "p99"):
                _require(hist, stat, _NUM, problems, where)
    return _verdict("metrics-snapshot/v2", doc, problems)


_CLOCKS = ("wall", "virtual")
_TIMELINE_LEDGERS = ("offered", "completed", "dropped", "degraded")
_TIMELINE_TICK_INTS = ("queue_depth", "inflight", "brownout_level") + _TIMELINE_LEDGERS


def validate_timeline(doc: dict) -> dict:
    """Validate a ``timeline/v1`` document (or row-embedded fragment).

    Beyond shape, checks the trajectory arithmetic the diff sentinel
    relies on: ``count`` must equal the retained ticks, tick indices
    and times must be strictly/weakly monotone, counter deltas must be
    non-negative ints, the cumulative ledgers must be monotone, and the
    ``summary`` block (max level, time-at-level fractions) must follow
    from the ticks it summarizes.
    """
    problems = _problems(doc, "timeline/v1")
    _check_envelope(doc, "timeline", problems)
    _require(doc, "clock", str, problems, choices=_CLOCKS)
    if _require(doc, "tick_s", _NUM, problems) and doc["tick_s"] <= 0:
        problems.append(f"tick_s must be > 0, got {doc['tick_s']}")
    if _require(doc, "capacity", int, problems) and doc["capacity"] < 1:
        problems.append(f"capacity must be >= 1, got {doc['capacity']}")
    _require(doc, "dropped_ticks", int, problems, nonneg=True)
    ticks = doc.get("ticks")
    _count_of(doc, "count", ticks, "ticks", problems)
    entries = list(_objects(doc, "ticks", problems))
    for where, entry in entries:
        _require(entry, "tick", int, problems, where)
        _require(entry, "t", _NUM, problems, where)
        if _require(entry, "counters", dict, problems, where):
            _check_values(entry["counters"], int, problems, f"{where}counters",
                          nonneg=True)
        if _require(entry, "gauges", dict, problems, where):
            _check_values(entry["gauges"], _NUM, problems, f"{where}gauges")
        for key in _TIMELINE_TICK_INTS:
            _require(entry, key, int, problems, where, nonneg=True)
        _require(entry, "queue_wait_ms", _NUM, problems, where, nonneg=True)

    def column(key):
        return [(f"{where}{key}", entry.get(key)) for where, entry in entries]

    _monotone(problems, column("tick"), "tick indices must rise", strict=True)
    _monotone(problems, column("t"), "times must be monotone")
    for key in _TIMELINE_LEDGERS:
        _monotone(problems, column(key), "ledgers are cumulative")
    if _require(doc, "summary", dict, problems) and isinstance(ticks, list):
        summary = doc["summary"]
        _count_of(summary, "ticks", ticks, "ticks", problems, "summary.")
        for key in ("brownout_level", "queue_depth", "inflight"):
            peak = max([0] + [v for _, v in column(key) if _is(v, int)])
            _agrees(summary, f"max_{key}", int, peak, "the ticks say", problems,
                    "summary.")
        levels = Counter(v for _, v in column("brownout_level")
                         if _is(v, int) and v >= 0)
        if _require(summary, "time_at_level", dict, problems, "summary."):
            tal = summary["time_at_level"]
            expected_tal = {
                str(level): round(n / len(ticks), 6)
                for level, n in sorted(levels.items())
            }
            if set(tal) != set(expected_tal):
                problems.append(
                    f"summary.time_at_level covers levels {sorted(tal)}, "
                    f"but the ticks hold {sorted(expected_tal)}"
                )
            else:
                for level, frac in expected_tal.items():
                    label = f"summary.time_at_level[{level!r}]"
                    if _check_value(tal[level], _NUM, problems, label) \
                            and abs(tal[level] - frac) > _TOL:
                        problems.append(
                            f"{label} is {tal[level]}, but the ticks say {frac}"
                        )
    return _verdict("timeline/v1", doc, problems)


def validate_bench_result(doc: dict) -> dict:
    """Validate a ``bench-result/v1`` document (one experiment)."""
    problems = _problems(doc, "bench-result/v1")
    for key in ("name", "title"):
        _require(doc, key, str, problems)
    list(_objects(doc, "rows", problems))
    _require(doc, "wall_clock_s", _NUM, problems)
    _require(doc, "total_queries", int, problems)
    _require(doc, "total_samples", int, problems)
    return _verdict("bench-result/v1", doc, problems)


_QUANTILES = ("p50", "p95", "p99")
_KNEE_REASONS = ("throughput", "latency")
_SWEEP_COUNTS = ("queries", "completed", "dropped", "degraded")


def _check_sweep(doc: dict, bench: str, problems: list[str],
                 check_row=None) -> None:
    """The rules ``bench-load`` and ``bench-overload`` share.

    Per row: non-negative counts with ``completed + dropped <= queries``,
    ``availability`` equal to its ledger, the clock, monotone p50 <= p95
    <= p99 quantiles, queueing <= end-to-end per quantile (the partition
    invariant's quantile shadow), and any embedded timeline.  Then the
    knee verdict, ``context.bench`` and the totals over the rows.

    A row's ledgers are ``load = (completed - degraded) / queries`` and
    ``goodput = completed / queries``.  ``check_row(row, where, problems,
    ledgers)`` adds a kind's own row rules and returns the ledger the
    row's ``availability`` follows; without it, the load ledger.
    """
    for key in ("name", "title"):
        _require(doc, key, str, problems)
    for where, row in _objects(doc, "rows", problems):
        ledgers = {}
        if all([_require(row, k, int, problems, where, nonneg=True)
                for k in _SWEEP_COUNTS]):
            queries, completed, dropped, degraded = (row[k] for k in _SWEEP_COUNTS)
            if completed + dropped > queries:
                problems.append(
                    f"{where}queries is {queries}, below completed + dropped "
                    f"= {completed + dropped}"
                )
            if queries > 0:
                ledgers = {
                    "load": round((completed - degraded) / queries, 6),
                    "goodput": round(completed / queries, 6),
                }
        ledger = check_row(row, where, problems, ledgers) if check_row else "load"
        _agrees(row, "availability", _NUM, ledgers.get(ledger),
                f"the {ledger} ledger says", problems, where, _TOL)
        for key in ("offered_qps", "achieved_qps"):
            _require(row, key, _NUM, problems, where, nonneg=True)
        _require(row, "clock", str, problems, where, choices=_CLOCKS)
        _require(row, "arrival", str, problems, where)
        for phase in ("queueing", "latency"):
            keys = [f"{q}_{phase}_ms" for q in _QUANTILES]
            for key in keys:
                _require(row, key, _NUM, problems, where, nonneg=True)
            _monotone(problems, [(f"{where}{k}", row.get(k)) for k in keys],
                      "quantiles must be monotone")
        for q in _QUANTILES:
            _monotone(problems, [(f"{where}{q}_{phase}_ms",
                                  row.get(f"{q}_{phase}_ms"))
                                 for phase in ("queueing", "latency")],
                      "end-to-end latency includes its queueing")
        if "timeline" in row:
            try:
                validate_timeline(row["timeline"])
            except SchemaError as exc:
                problems.extend(f"{where}timeline: {p}" for p in exc.problems)
    if _require(doc, "knee", dict, problems):
        knee = doc["knee"]
        _require(knee, "rates", list, problems, "knee.")
        if _require(knee, "detected", bool, problems, "knee.") and knee["detected"]:
            if _require(knee, "knee_rate", _NUM, problems, "knee.") \
                    and knee["knee_rate"] <= 0:
                problems.append("knee.knee_rate must be > 0 when detected")
            _require(knee, "reason", str, problems, "knee.", choices=_KNEE_REASONS)
            _require(knee, "index", int, problems, "knee.")
        elif knee.get("detected") is False and knee.get("knee_rate") is not None:
            problems.append("knee.knee_rate must be null when no knee was detected")
    _pin_context(doc, bench, problems)
    rows = doc.get("rows")
    for key in ("total_queries", "total_completed"):
        count = key.removeprefix("total_")
        total = (
            sum(r[count] for r in rows if isinstance(r, dict) and _is(r.get(count), int))
            if isinstance(rows, list) else None
        )
        _agrees(doc, key, int, total, "the rows sum to", problems)


def validate_bench_load(doc: dict) -> dict:
    """Validate a ``bench-load/v1`` document (open-loop load sweep):
    the shared sweep rules of :func:`_check_sweep`, each row on the load
    ledger ``availability = (completed - degraded) / queries``."""
    problems = _problems(doc, "bench-load/v1")
    _check_sweep(doc, "load", problems)
    return _verdict("bench-load/v1", doc, problems)


_OVERLOAD_MODES = ("overload-base", "overload-off", "overload-on")


def _overload_row(row: dict, where: str, problems: list[str], ledgers: dict) -> str:
    """Overload's own row rules; returns the ledger ``availability`` follows."""
    _require(row, "mode", str, problems, where, choices=_OVERLOAD_MODES)
    if row.get("mode") not in ("overload-off", "overload-on"):
        return "load"
    _agrees(row, "full_quality", _NUM, ledgers.get("load"), "the load ledger says",
            problems, where, _TOL)
    _monotone(problems, [(f"{where}{k}", row.get(k))
                         for k in ("full_quality", "availability")],
              "brownout may buy goodput, never full quality")
    for key in ("deadline_shed", "brownout_shed"):
        _require(row, key, int, problems, where, nonneg=True)
    _require(row, "brownout", bool, problems, where)
    if row["mode"] == "overload-off" and row.get("brownout") is True:
        problems.append(f"{where}brownout is True, but mode 'overload-off' "
                        f"must not run brownout")
    return "goodput"


def validate_bench_overload(doc: dict) -> dict:
    """Validate a ``bench-overload/v1`` document (overload governor).

    The shared sweep rules of :func:`_check_sweep`, with two ledgers:
    calibration rows (``mode="overload-base"``) follow the load ledger;
    governed rows follow the goodput ledger (``availability = completed
    / queries``) and carry ``full_quality = (completed - degraded) /
    queries`` with ``full_quality <= availability`` — brownout may buy
    goodput, never full quality.  The ``comparison`` block's verdicts
    must follow from its own numbers (``floor_met``/``off_below_on``).
    """
    problems = _problems(doc, "bench-overload/v1")
    _check_sweep(doc, "overload", problems, _overload_row)
    if _require(doc, "comparison", dict, problems):
        comp, where = doc["comparison"], "comparison."
        if _require(comp, "rate", _NUM, problems, where) and comp["rate"] <= 0:
            problems.append("comparison.rate must be > 0")
        nums_ok = all([_require(comp, key, _NUM, problems, where) for key in (
            "availability_on", "availability_off",
            "full_quality_on", "full_quality_off", "floor",
        )])
        _agrees(comp, "floor_met", bool,
                comp["availability_on"] >= comp["floor"] if nums_ok else None,
                "the availability/floor arithmetic says", problems, where)
        _agrees(comp, "off_below_on", bool,
                comp["availability_off"] < comp["availability_on"] if nums_ok else None,
                "the availability arithmetic says", problems, where)
    return _verdict("bench-overload/v1", doc, problems)


def validate_bench_observability(doc: dict) -> dict:
    """Validate the top-level ``bench-observability/v1`` summary.

    Each entry's ``sample_batch_histogram`` must be its own run's: its
    ``sum`` equals the entry's ``total_samples`` (every charged batch
    bumps both), and its ``count`` is 0 exactly when no sample was
    drawn.  A process-cumulative histogram fails this.

    An experiment entry may carry a ``sampler_overhead`` block (the
    timeline sampler's cost on the fixed-rate wall row).  Its verdict
    arithmetic is enforced: ``overhead_frac`` must follow from the two
    recorded latencies and ``within_budget`` must follow from
    ``overhead_frac <= budget_frac`` — a doctored overhead row fails
    validation, which is the CI tripwire.
    """
    problems = _problems(doc, "bench-observability/v1")
    for where, entry in _objects(doc, "experiments", problems, container=dict):
        _require(entry, "title", str, problems, where)
        _require(entry, "wall_clock_s", _NUM, problems, where)
        _require(entry, "total_queries", int, problems, where)
        if all([_require(entry, "total_samples", int, problems, where),
                _require(entry, "sample_batch_histogram", dict, problems, where)]):
            hist, total = entry["sample_batch_histogram"], entry["total_samples"]
            hw = f"{where}sample_batch_histogram."
            if _require(hist, "count", int, problems, hw) \
                    and (hist["count"] == 0) != (total == 0):
                problems.append(
                    f"{hw}count is {hist['count']} but total_samples is "
                    f"{total}: the histogram is not this run's"
                )
            _agrees(hist, "sum", _NUM, total, "total_samples is", problems, hw,
                    1e-9 * max(1, total))
        if "sampler_overhead" not in entry \
                or not _require(entry, "sampler_overhead", dict, problems, where):
            continue
        block, bw = entry["sampler_overhead"], f"{where}sampler_overhead."
        nums_ok = all([_require(block, key, _NUM, problems, bw) for key in (
            "rate", "baseline_p50_latency_ms", "sampled_p50_latency_ms",
            "overhead_frac", "budget_frac",
        )])
        if nums_ok and block["baseline_p50_latency_ms"] > 0:
            expected = round(
                block["sampled_p50_latency_ms"] / block["baseline_p50_latency_ms"]
                - 1.0,
                6,
            )
            _agrees(block, "overhead_frac", _NUM, expected,
                    "the recorded latencies say", problems, bw, 1e-6)
        _agrees(block, "within_budget", bool,
                block["overhead_frac"] <= block["budget_frac"] if nums_ok else None,
                "the overhead/budget arithmetic says", problems, bw)
    return _verdict("bench-observability/v1", doc, problems)


_CHAOS_ROW_COUNTS = (
    "answers", "degraded", "batch_aborts", "probe_retries",
    "probe_failures_injected",
)


def validate_chaos_report(doc: dict) -> dict:
    """Validate a ``chaos-report/v1`` document.

    Beyond shape, checks the internal consistency the chaos CLI relies
    on: per-row availability must equal ``1 - degraded/answers`` (to the
    report's rounding), ``meets_target`` must match the target and the
    abort count, and ``all_meet_target`` must be the conjunction of the
    rows.  A report must also be deterministic, so timing fields are
    *forbidden*: any key containing ``wall_clock``, ``timestamp`` or
    ``time_s`` fails validation.
    """
    problems = _problems(doc, "chaos-report/v1")
    _no_timing_keys(doc, problems)
    _require(doc, "name", str, problems)
    for key in ("seed", "lca_seed", "n", "queries_per_batch", "batches"):
        _require(doc, key, int, problems)
    _require(doc, "epsilon", _NUM, problems)
    _require(doc, "fault_free_equivalence", bool, problems)
    target_ok = _require(doc, "availability_target", _NUM, problems)
    if _require(doc, "retry", dict, problems):
        for key in ("max_retries", "backoff_base_s", "backoff_factor", "jitter"):
            _require(doc["retry"], key, _NUM, problems, "retry.")
    for where, row in _objects(doc, "rows", problems):
        for key in _CHAOS_ROW_COUNTS:
            _require(row, key, int, problems, where, nonneg=True)
        _require(row, "probe_failure_rate", _NUM, problems, where)
        served = _is(row.get("answers"), int) and row["answers"] > 0 \
            and _is(row.get("degraded"), int)
        _agrees(row, "availability", _NUM,
                round(1.0 - row["degraded"] / row["answers"], 6) if served else None,
                "1 - degraded/answers says", problems, where, _TOL)
        verdict_ok = target_ok and _is(row.get("batch_aborts"), int) \
            and _is(row.get("availability"), _NUM)
        _agrees(row, "meets_target", bool,
                row["availability"] >= doc["availability_target"]
                and row["batch_aborts"] == 0 if verdict_ok else None,
                "the target/abort arithmetic says", problems, where)
    rows = doc.get("rows")
    verdicts = [r.get("meets_target") for r in rows if isinstance(r, dict)] \
        if isinstance(rows, list) else [None]
    _agrees(doc, "all_meet_target", bool,
            all(verdicts) if all(isinstance(v, bool) for v in verdicts) else None,
            "the rows' conjunction is", problems)
    return _verdict("chaos-report/v1", doc, problems)


def validate_events(doc: dict) -> dict:
    """Validate an ``events/v1`` flight-recorder document.

    Like ``chaos-report/v1``, an events document must be deterministic:
    any timing key (``wall_clock``/``timestamp``/``time_s``) is
    forbidden — ordering is the strictly increasing ``seq`` field.
    """
    problems = _problems(doc, "events/v1")
    _no_timing_keys(doc, problems)
    if _require(doc, "capacity", int, problems) and doc["capacity"] < 1:
        problems.append(f"capacity must be >= 1, got {doc['capacity']}")
    _require(doc, "dropped", int, problems, nonneg=True)
    _count_of(doc, "count", doc.get("events"), "events", problems)
    entries = list(_objects(doc, "events", problems))
    for where, entry in entries:
        _require(entry, "kind", str, problems, where)
        _require(entry, "seq", int, problems, where)
        if _require(entry, "attrs", dict, problems, where):
            _no_timing_keys(entry["attrs"], problems, f"{where}attrs.")
        for key in ("trace_id", "span_id"):
            if key in entry:
                _check_value(entry[key], (str, type(None)), problems, where + key)
    _monotone(problems,
              [("the initial seq", 0)]
              + [(f"{where}seq", entry.get("seq")) for where, entry in entries],
              "seq must rise", strict=True)
    _pin_context(doc, None, problems)
    return _verdict("events/v1", doc, problems)


_DIFF_COUNTS = {"regressions": "regression", "improvements": "improvement",
                "drifts": "drift"}


def validate_bench_diff(doc: dict) -> dict:
    """Validate a ``bench-diff/v1`` document, including its summary
    arithmetic: the regression/improvement/drift counts must equal the
    findings they summarize, and ``ok`` must mean exactly "no
    regressions and no drifts"."""
    problems = _problems(doc, "bench-diff/v1")
    _require(doc, "baseline", dict, problems)
    _require(doc, "candidate", dict, problems)
    if _require(doc, "threshold", _NUM, problems) and doc["threshold"] <= 1.0:
        problems.append(f"threshold must be > 1.0, got {doc['threshold']}")
    _require(doc, "abs_floor_s", _NUM, problems)
    _require(doc, "relative_only", bool, problems)
    _require(doc, "rows_compared", int, problems)
    _require(doc, "rows_missing", list, problems)
    statuses = Counter()
    for where, entry in _objects(doc, "findings", problems):
        _require(entry, "row", str, problems, where)
        _require(entry, "metric", str, problems, where)
        if _require(entry, "status", str, problems, where,
                    choices=("ok", *_DIFF_COUNTS.values())):
            statuses[entry["status"]] += 1
    for key, status in _DIFF_COUNTS.items():
        _agrees(doc, key, int, statuses[status], "the findings hold", problems)
    _agrees(doc, "ok", bool, not (statuses["regression"] or statuses["drift"]),
            "the findings say", problems)
    return _verdict("bench-diff/v1", doc, problems)


_CELL_OUTCOMES = ("pass", "fail", "expected_failure", "error")
_SUMMARY_COUNTS = {"passed": "pass", "failed": "fail",
                   "expected_failures": "expected_failure", "errors": "error"}


def validate_suite_report(doc: dict) -> dict:
    """Validate a ``suite-report/v1`` document (scenario-matrix run).

    Beyond shape, checks the outcome arithmetic the suite runner relies
    on: a cell's ``outcome`` must follow from its checks and its
    ``expect`` (all checks ok → ``pass``, or ``expected_failure`` for
    ``budget_failure`` cells), the ``summary`` counters must match the
    cells, and ``ok`` must mean exactly "no failures and no errors".
    When ``deterministic`` is true, timing keys
    (``wall_clock``/``timestamp``/``time_s``) are forbidden at the top
    level and in the sentinel rows — a deterministic report must be a
    pure function of its seeds.
    """
    problems = _problems(doc, "suite-report/v1")
    for key in ("name", "title"):
        _require(doc, key, str, problems)
    deterministic = _require(doc, "deterministic", bool, problems) \
        and doc["deterministic"]
    if deterministic:
        _no_timing_keys(doc, problems)
    outcomes = Counter()
    seen_ids: set[str] = set()
    for where, cell in _objects(doc, "cells", problems):
        if _require(cell, "id", str, problems, where):
            if cell["id"] in seen_ids:
                problems.append(f"{where}id {cell['id']!r} is duplicated")
            seen_ids.add(cell["id"])
        _require(cell, "kind", str, problems, where, choices=CELL_KINDS)
        expect_ok = _require(cell, "expect", str, problems, where,
                             choices=CELL_EXPECTS)
        outcome_ok = _require(cell, "outcome", str, problems, where,
                              choices=_CELL_OUTCOMES)
        _require(cell, "metrics", dict, problems, where)
        oks = []
        for cw, check in _objects(cell, "checks", problems, where):
            _require(check, "name", str, problems, cw)
            oks.append(check["ok"] if _require(check, "ok", bool, problems, cw)
                       else None)
        checks_known = isinstance(cell.get("checks"), list) \
            and len(oks) == len(cell["checks"]) and None not in oks
        if outcome_ok:
            outcomes[cell["outcome"]] += 1
        if outcome_ok and expect_ok and checks_known and cell["outcome"] != "error":
            expected = (
                ("expected_failure" if cell["expect"] == "budget_failure" else "pass")
                if all(oks) else "fail"
            )
            _agrees(cell, "outcome", str, expected,
                    "the checks/expect arithmetic says", problems, where)
    for where, row in _objects(doc, "rows", problems):
        if deterministic:
            _no_timing_keys(row, problems, where)
        if not _require(row, "mode", str, problems, where):
            continue
        if not row["mode"].startswith("suite:"):
            problems.append(
                f"{where}mode must start with 'suite:', got {row['mode']!r}"
            )
        elif seen_ids and row["mode"].removeprefix("suite:") not in seen_ids:
            problems.append(f"{where}mode {row['mode']!r} names no cell in the report")
    cells_known = isinstance(doc.get("cells"), list)
    if _require(doc, "summary", dict, problems):
        summary = doc["summary"]
        _count_of(summary, "cells", doc.get("cells"), "the report", problems,
                  "summary.")
        for key, outcome in _SUMMARY_COUNTS.items():
            _agrees(summary, key, int, outcomes[outcome] if cells_known else None,
                    "the cells hold", problems, "summary.")
    _agrees(doc, "ok", bool,
            not (outcomes["fail"] or outcomes["error"]) if cells_known else None,
            "the cell outcomes say", problems)
    _pin_context(doc, "suite", problems)
    return _verdict("suite-report/v1", doc, problems)


_VALIDATORS = {
    "trace": validate_trace,
    "chaos": validate_chaos_report,
    "metrics": validate_metrics_snapshot,
    "timeline": validate_timeline,
    "bench-result": validate_bench_result,
    "bench-load": validate_bench_load,
    "bench-overload": validate_bench_overload,
    "bench-observability": validate_bench_observability,
    "events": validate_events,
    "bench-diff": validate_bench_diff,
    "suite-report": validate_suite_report,
}


def validate(kind: str, doc: dict) -> dict:
    """Dispatch to the validator for ``kind`` (see ``--kind`` choices)."""
    if kind not in _VALIDATORS:
        raise ValueError(f"unknown schema kind {kind!r}; known: {sorted(_VALIDATORS)}")
    return _VALIDATORS[kind](doc)


def main(argv: list[str] | None = None) -> int:
    """CLI: validate JSON files against one of the documented schemas."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.schema",
        description="validate observability JSON documents",
    )
    parser.add_argument("--kind", required=True, choices=sorted(_VALIDATORS))
    parser.add_argument("paths", nargs="+", help="JSON files to validate")
    args = parser.parse_args(argv)
    status = 0
    for path in args.paths:
        try:
            validate(args.kind, json.loads(pathlib.Path(path).read_text()))
        except (OSError, json.JSONDecodeError, SchemaError) as exc:
            print(f"{path}: FAIL\n{exc}", file=sys.stderr)
            status = 1
        else:
            print(f"{path}: ok ({args.kind})")
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
