"""Hand-rolled validators for the observability JSON schemas, plus the
one bench-document build→validate→write API every emitter shares.

The documented schemas (see ``docs/observability.md``) are small enough
that a dependency-free structural check beats pulling in jsonschema:
each validator walks the document, collects every problem, and raises
:class:`SchemaError` listing all of them at once.

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
import pathlib
import sys
from dataclasses import dataclass, field

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


def _require(doc: dict, key: str, types, problems: list[str], where: str = "") -> bool:
    label = f"{where}{key}"
    if key not in doc:
        problems.append(f"missing key {label!r}")
        return False
    if not isinstance(doc[key], types):
        tnames = (
            "/".join(t.__name__ for t in types)
            if isinstance(types, tuple)
            else types.__name__
        )
        problems.append(f"{label!r} must be {tnames}, got {type(doc[key]).__name__}")
        return False
    return True


_NUM = (int, float)

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


def _check_span(node: object, problems: list[str], where: str) -> None:
    if not isinstance(node, dict):
        problems.append(f"{where} must be an object")
        return
    _require(node, "name", str, problems, where + ".")
    _require(node, "span_id", str, problems, where + ".")
    _require(node, "duration_s", _NUM, problems, where + ".")
    if _require(node, "counts", dict, problems, where + "."):
        for key, value in node["counts"].items():
            if not isinstance(value, int) or value < 0:
                problems.append(
                    f"{where}.counts[{key!r}] must be a non-negative int"
                )
    if _require(node, "children", list, problems, where + "."):
        for i, child in enumerate(node["children"]):
            _check_span(child, problems, f"{where}.children[{i}]")


def _check_envelope(doc: dict, bench: str, problems: list[str]) -> None:
    """The BenchDocument envelope (``name``/``title``/``context``) the
    v2 observability documents carry.  Optional for bare in-process
    snapshots; type-checked — and pinned to ``context.bench`` — when
    present."""
    if "name" in doc:
        _require(doc, "name", str, problems)
    if "title" in doc:
        _require(doc, "title", str, problems)
    if "context" in doc and _require(doc, "context", dict, problems):
        if doc["context"].get("bench") != bench:
            problems.append(
                f"context.bench must be {bench!r}, got "
                f"{doc['context'].get('bench')!r}"
            )


def validate_trace(doc: dict) -> dict:
    """Validate a ``trace/v2`` document, including the partition
    invariant: for every counted key, the per-phase counts sum to the
    recorded total."""
    problems: list[str] = []
    if doc.get("schema") != "trace/v2":
        problems.append(f"schema must be 'trace/v2', got {doc.get('schema')!r}")
    _check_envelope(doc, "trace", problems)
    if _require(doc, "root", dict, problems):
        _check_span(doc["root"], problems, "root")
    if _require(doc, "totals", dict, problems):
        for key, entry in doc["totals"].items():
            where = f"totals[{key!r}]"
            if not isinstance(entry, dict):
                problems.append(f"{where} must be an object")
                continue
            ok_total = _require(entry, "total", int, problems, where + ".")
            ok_phase = _require(entry, "by_phase", dict, problems, where + ".")
            if ok_total and ok_phase:
                phase_sum = sum(entry["by_phase"].values())
                if phase_sum != entry["total"]:
                    problems.append(
                        f"{where}: per-phase counts sum to {phase_sum}, "
                        f"but total is {entry['total']}"
                    )
    if problems:
        raise SchemaError("trace/v2", problems)
    return doc


def validate_metrics_snapshot(doc: dict) -> dict:
    """Validate a ``metrics-snapshot/v2`` document."""
    problems: list[str] = []
    if doc.get("schema") != "metrics-snapshot/v2":
        problems.append(
            f"schema must be 'metrics-snapshot/v2', got {doc.get('schema')!r}"
        )
    _check_envelope(doc, "metrics", problems)
    if _require(doc, "counters", dict, problems):
        for name, value in doc["counters"].items():
            if not isinstance(value, int) or value < 0:
                problems.append(f"counters[{name!r}] must be a non-negative int")
    if _require(doc, "gauges", dict, problems):
        for name, value in doc["gauges"].items():
            if not isinstance(value, _NUM):
                problems.append(f"gauges[{name!r}] must be numeric")
    if _require(doc, "histograms", dict, problems):
        for name, hist in doc["histograms"].items():
            if not isinstance(hist, dict):
                problems.append(f"histograms[{name!r}] must be an object")
                continue
            _require(hist, "count", int, problems, f"histograms[{name!r}].")
            if hist.get("count"):
                for stat in ("sum", "min", "max", "mean", "p50", "p90", "p99"):
                    _require(hist, stat, _NUM, problems, f"histograms[{name!r}].")
    if problems:
        raise SchemaError("metrics-snapshot/v2", problems)
    return doc


_TIMELINE_CLOCKS = ("wall", "virtual")
_TIMELINE_TICK_INTS = (
    "queue_depth", "inflight", "brownout_level",
    "offered", "completed", "dropped", "degraded",
)
_BREAKER_STATES = (None, "closed", "half_open", "open")


def validate_timeline(doc: dict) -> dict:
    """Validate a ``timeline/v1`` document (or row-embedded fragment).

    Beyond shape, checks the trajectory arithmetic the diff sentinel
    relies on: ``count`` must equal the retained ticks, tick indices
    and times must be strictly/weakly monotone, counter deltas must be
    non-negative ints, the cumulative ledgers must be monotone, and the
    ``summary`` block (max level, time-at-level fractions) must follow
    from the ticks it summarizes.
    """
    problems: list[str] = []
    if doc.get("schema") != "timeline/v1":
        problems.append(f"schema must be 'timeline/v1', got {doc.get('schema')!r}")
    _check_envelope(doc, "timeline", problems)
    clock_ok = _require(doc, "clock", str, problems)
    if clock_ok and doc["clock"] not in _TIMELINE_CLOCKS:
        problems.append(
            f"clock must be one of {_TIMELINE_CLOCKS}, got {doc['clock']!r}"
        )
    if _require(doc, "tick_s", _NUM, problems) and doc["tick_s"] <= 0:
        problems.append("tick_s must be > 0")
    if _require(doc, "capacity", int, problems) and doc["capacity"] < 1:
        problems.append("capacity must be >= 1")
    if _require(doc, "dropped_ticks", int, problems) and doc["dropped_ticks"] < 0:
        problems.append("dropped_ticks must be non-negative")
    count_ok = _require(doc, "count", int, problems)
    ticks_ok = _require(doc, "ticks", list, problems)
    levels_seen: dict[int, int] = {}
    max_depth = max_inflight = 0
    if ticks_ok:
        if count_ok and doc["count"] != len(doc["ticks"]):
            problems.append(
                f"count is {doc['count']} but ticks holds {len(doc['ticks'])}"
            )
        last_tick = None
        last_t = None
        last_ledger: dict[str, int] = {}
        for i, entry in enumerate(doc["ticks"]):
            where = f"ticks[{i}]"
            if not isinstance(entry, dict):
                problems.append(f"{where} must be an object")
                continue
            if _require(entry, "tick", int, problems, where + "."):
                if last_tick is not None and entry["tick"] <= last_tick:
                    problems.append(
                        f"{where}.tick is {entry['tick']}, must exceed the "
                        f"previous tick {last_tick}"
                    )
                last_tick = entry["tick"]
            if _require(entry, "t", _NUM, problems, where + "."):
                if last_t is not None and entry["t"] < last_t - 1e-9:
                    problems.append(
                        f"{where}.t is {entry['t']}, below the previous "
                        f"tick's t {last_t} — times must be monotone"
                    )
                last_t = entry["t"]
            if _require(entry, "counters", dict, problems, where + "."):
                for name, delta in entry["counters"].items():
                    if not isinstance(delta, int) or delta < 0:
                        problems.append(
                            f"{where}.counters[{name!r}] must be a "
                            f"non-negative int (counters are monotone)"
                        )
            if _require(entry, "gauges", dict, problems, where + "."):
                for name, value in entry["gauges"].items():
                    if not isinstance(value, _NUM):
                        problems.append(f"{where}.gauges[{name!r}] must be numeric")
            for key in _TIMELINE_TICK_INTS:
                if _require(entry, key, int, problems, where + ".") \
                        and entry[key] < 0:
                    problems.append(f"{where}.{key} must be non-negative")
            if _require(entry, "queue_wait_ms", _NUM, problems, where + ".") \
                    and entry["queue_wait_ms"] < 0:
                problems.append(f"{where}.queue_wait_ms must be non-negative")
            if entry.get("breaker_state") not in _BREAKER_STATES:
                problems.append(
                    f"{where}.breaker_state must be one of {_BREAKER_STATES}, "
                    f"got {entry.get('breaker_state')!r}"
                )
            for key in ("offered", "completed", "dropped", "degraded"):
                value = entry.get(key)
                if isinstance(value, int):
                    prev = last_ledger.get(key)
                    if prev is not None and value < prev:
                        problems.append(
                            f"{where}.{key} is {value}, below the previous "
                            f"tick's {prev} — ledgers are cumulative"
                        )
                    last_ledger[key] = value
            level = entry.get("brownout_level")
            if isinstance(level, int) and level >= 0:
                levels_seen[level] = levels_seen.get(level, 0) + 1
            if isinstance(entry.get("queue_depth"), int):
                max_depth = max(max_depth, entry["queue_depth"])
            if isinstance(entry.get("inflight"), int):
                max_inflight = max(max_inflight, entry["inflight"])
    if _require(doc, "summary", dict, problems) and ticks_ok:
        summary = doc["summary"]
        checks = [
            ("ticks", len(doc["ticks"])),
            ("max_brownout_level", max(levels_seen) if levels_seen else 0),
            ("max_queue_depth", max_depth),
            ("max_inflight", max_inflight),
        ]
        for key, expected in checks:
            if _require(summary, key, int, problems, "summary.") \
                    and summary[key] != expected:
                problems.append(
                    f"summary.{key} is {summary[key]}, but the ticks say "
                    f"{expected}"
                )
        if _require(summary, "time_at_level", dict, problems, "summary."):
            total = len(doc["ticks"])
            expected_tal = {
                str(level): round(n / total, 6)
                for level, n in sorted(levels_seen.items())
            } if total else {}
            tal = summary["time_at_level"]
            if set(tal) != set(expected_tal):
                problems.append(
                    f"summary.time_at_level covers levels {sorted(tal)}, "
                    f"but the ticks hold {sorted(expected_tal)}"
                )
            else:
                for level, frac in expected_tal.items():
                    got = tal[level]
                    if not isinstance(got, _NUM) or abs(got - frac) > 1e-9:
                        problems.append(
                            f"summary.time_at_level[{level!r}] is {got}, but "
                            f"the ticks say {frac}"
                        )
    if problems:
        raise SchemaError("timeline/v1", problems)
    return doc


def validate_bench_result(doc: dict) -> dict:
    """Validate a ``bench-result/v1`` document (one experiment)."""
    problems: list[str] = []
    if doc.get("schema") != "bench-result/v1":
        problems.append(f"schema must be 'bench-result/v1', got {doc.get('schema')!r}")
    _require(doc, "name", str, problems)
    _require(doc, "title", str, problems)
    if _require(doc, "rows", list, problems):
        for i, row in enumerate(doc["rows"]):
            if not isinstance(row, dict):
                problems.append(f"rows[{i}] must be an object")
    _require(doc, "wall_clock_s", _NUM, problems)
    _require(doc, "total_queries", int, problems)
    _require(doc, "total_samples", int, problems)
    if problems:
        raise SchemaError("bench-result/v1", problems)
    return doc


_LOAD_CLOCKS = ("wall", "virtual")
_LOAD_QUANTILES = ("p50", "p95", "p99")
_KNEE_REASONS = ("throughput", "latency")


def validate_bench_load(doc: dict) -> dict:
    """Validate a ``bench-load/v1`` document (open-loop load sweep).

    Beyond shape, checks the arithmetic the load sentinel relies on:
    per-row ``completed + dropped <= queries``, ``availability`` must
    equal ``(completed - degraded) / queries`` to the row's rounding,
    quantiles must be monotone (p50 <= p95 <= p99, and queueing must
    not exceed end-to-end — the partition invariant's quantile shadow),
    the knee verdict must be internally consistent, and the totals must
    sum over the rows.
    """
    problems: list[str] = []
    if doc.get("schema") != "bench-load/v1":
        problems.append(f"schema must be 'bench-load/v1', got {doc.get('schema')!r}")
    _require(doc, "name", str, problems)
    _require(doc, "title", str, problems)
    rows_ok = _require(doc, "rows", list, problems)
    if rows_ok:
        for i, row in enumerate(doc["rows"]):
            where = f"rows[{i}]"
            if not isinstance(row, dict):
                problems.append(f"{where} must be an object")
                continue
            counts_ok = True
            for key in ("queries", "completed", "dropped", "degraded"):
                if _require(row, key, int, problems, where + "."):
                    if row[key] < 0:
                        problems.append(f"{where}.{key} must be non-negative")
                        counts_ok = False
                else:
                    counts_ok = False
            if counts_ok and row["completed"] + row["dropped"] > row["queries"]:
                problems.append(
                    f"{where}: completed + dropped = "
                    f"{row['completed'] + row['dropped']} exceeds "
                    f"queries = {row['queries']}"
                )
            for key in ("offered_qps", "achieved_qps"):
                if _require(row, key, _NUM, problems, where + ".") and row[key] < 0:
                    problems.append(f"{where}.{key} must be non-negative")
            avail_ok = _require(row, "availability", _NUM, problems, where + ".")
            if avail_ok and counts_ok and row["queries"] > 0:
                expected = round(
                    (row["completed"] - row["degraded"]) / row["queries"], 6
                )
                if abs(row["availability"] - expected) > 1e-9:
                    problems.append(
                        f"{where}.availability is {row['availability']}, but "
                        f"(completed - degraded) / queries = {expected}"
                    )
            if _require(row, "clock", str, problems, where + ".") \
                    and row["clock"] not in _LOAD_CLOCKS:
                problems.append(
                    f"{where}.clock must be one of {_LOAD_CLOCKS}, "
                    f"got {row['clock']!r}"
                )
            _require(row, "arrival", str, problems, where + ".")
            for phase in ("queueing", "latency"):
                prev = None
                for q in _LOAD_QUANTILES:
                    key = f"{q}_{phase}_ms"
                    if not _require(row, key, _NUM, problems, where + "."):
                        prev = None
                        continue
                    if row[key] < 0:
                        problems.append(f"{where}.{key} must be non-negative")
                    if prev is not None and row[key] < prev - 1e-9:
                        problems.append(
                            f"{where}.{key} is {row[key]}, below the lower "
                            f"quantile {prev} — quantiles must be monotone"
                        )
                    prev = row[key]
            for q in _LOAD_QUANTILES:
                lo, hi = row.get(f"{q}_queueing_ms"), row.get(f"{q}_latency_ms")
                if isinstance(lo, _NUM) and isinstance(hi, _NUM) \
                        and hi < lo - 1e-9:
                    problems.append(
                        f"{where}: {q} end-to-end latency {hi} is below its "
                        f"queueing component {lo}"
                    )
            if "timeline" in row:
                try:
                    validate_timeline(row["timeline"])
                except SchemaError as exc:
                    problems.extend(f"{where}.timeline: {p}" for p in exc.problems)
    if _require(doc, "knee", dict, problems):
        knee = doc["knee"]
        detected_ok = _require(knee, "detected", bool, problems, "knee.")
        _require(knee, "rates", list, problems, "knee.")
        if detected_ok and knee["detected"]:
            if _require(knee, "knee_rate", _NUM, problems, "knee.") \
                    and knee["knee_rate"] <= 0:
                problems.append("knee.knee_rate must be > 0 when detected")
            if _require(knee, "reason", str, problems, "knee.") \
                    and knee["reason"] not in _KNEE_REASONS:
                problems.append(
                    f"knee.reason must be one of {_KNEE_REASONS}, "
                    f"got {knee['reason']!r}"
                )
            _require(knee, "index", int, problems, "knee.")
        elif detected_ok:
            if knee.get("knee_rate") is not None:
                problems.append(
                    "knee.knee_rate must be null when no knee was detected"
                )
    if _require(doc, "context", dict, problems):
        if doc["context"].get("bench") != "load":
            problems.append(
                f"context.bench must be 'load', got {doc['context'].get('bench')!r}"
            )
    if rows_ok:
        rows = [r for r in doc["rows"] if isinstance(r, dict)]
        for key in ("total_queries", "total_completed"):
            field = key.removeprefix("total_")
            expected = sum(
                r[field] for r in rows if isinstance(r.get(field), int)
            )
            if _require(doc, key, int, problems) and doc[key] != expected:
                problems.append(
                    f"{key} is {doc[key]}, but the rows sum to {expected}"
                )
    if problems:
        raise SchemaError("bench-load/v1", problems)
    return doc


_OVERLOAD_MODES = ("overload-base", "overload-off", "overload-on")


def validate_bench_overload(doc: dict) -> dict:
    """Validate a ``bench-overload/v1`` document (overload governor).

    Beyond shape, checks the two-ledger arithmetic the overload sentinel
    relies on: calibration rows (``mode="overload-base"``) carry the
    load ledger (``availability = (completed - degraded) / queries``);
    governed rows carry the goodput ledger (``availability = completed
    / queries``) plus ``full_quality = (completed - degraded) /
    queries`` with ``full_quality <= availability`` — brownout may buy
    goodput, never full quality.  The ``comparison`` block's verdicts
    must follow from its own numbers (``floor_met``/``off_below_on``),
    quantiles must be monotone, and the totals must sum over the rows.
    """
    problems: list[str] = []
    if doc.get("schema") != "bench-overload/v1":
        problems.append(
            f"schema must be 'bench-overload/v1', got {doc.get('schema')!r}"
        )
    _require(doc, "name", str, problems)
    _require(doc, "title", str, problems)
    rows_ok = _require(doc, "rows", list, problems)
    if rows_ok:
        for i, row in enumerate(doc["rows"]):
            where = f"rows[{i}]"
            if not isinstance(row, dict):
                problems.append(f"{where} must be an object")
                continue
            mode_ok = _require(row, "mode", str, problems, where + ".")
            if mode_ok and row["mode"] not in _OVERLOAD_MODES:
                problems.append(
                    f"{where}.mode must be one of {_OVERLOAD_MODES}, "
                    f"got {row['mode']!r}"
                )
            counts_ok = True
            for key in ("queries", "completed", "dropped", "degraded"):
                if _require(row, key, int, problems, where + "."):
                    if row[key] < 0:
                        problems.append(f"{where}.{key} must be non-negative")
                        counts_ok = False
                else:
                    counts_ok = False
            if counts_ok and row["completed"] + row["dropped"] > row["queries"]:
                problems.append(
                    f"{where}: completed + dropped = "
                    f"{row['completed'] + row['dropped']} exceeds "
                    f"queries = {row['queries']}"
                )
            governed = mode_ok and row["mode"] in ("overload-off", "overload-on")
            avail_ok = _require(row, "availability", _NUM, problems, where + ".")
            if avail_ok and counts_ok and row["queries"] > 0:
                if governed:
                    expected = round(row["completed"] / row["queries"], 6)
                else:
                    expected = round(
                        (row["completed"] - row["degraded"]) / row["queries"], 6
                    )
                if abs(row["availability"] - expected) > 1e-9:
                    problems.append(
                        f"{where}.availability is {row['availability']}, but "
                        f"the {'goodput' if governed else 'load'} ledger "
                        f"says {expected}"
                    )
            if governed:
                fq_ok = _require(row, "full_quality", _NUM, problems, where + ".")
                if fq_ok and counts_ok and row["queries"] > 0:
                    expected = round(
                        (row["completed"] - row["degraded"]) / row["queries"], 6
                    )
                    if abs(row["full_quality"] - expected) > 1e-9:
                        problems.append(
                            f"{where}.full_quality is {row['full_quality']}, "
                            f"but (completed - degraded) / queries = {expected}"
                        )
                if fq_ok and avail_ok \
                        and row["full_quality"] > row["availability"] + 1e-9:
                    problems.append(
                        f"{where}.full_quality {row['full_quality']} exceeds "
                        f"availability {row['availability']}"
                    )
                for key in ("deadline_shed", "brownout_shed"):
                    if _require(row, key, int, problems, where + ".") \
                            and row[key] < 0:
                        problems.append(f"{where}.{key} must be non-negative")
                _require(row, "brownout", bool, problems, where + ".")
                if mode_ok and row["mode"] == "overload-off" \
                        and row.get("brownout") is True:
                    problems.append(
                        f"{where}: mode 'overload-off' must not run brownout"
                    )
            if _require(row, "clock", str, problems, where + ".") \
                    and row["clock"] not in _LOAD_CLOCKS:
                problems.append(
                    f"{where}.clock must be one of {_LOAD_CLOCKS}, "
                    f"got {row['clock']!r}"
                )
            for phase in ("queueing", "latency"):
                prev = None
                for q in _LOAD_QUANTILES:
                    key = f"{q}_{phase}_ms"
                    if not _require(row, key, _NUM, problems, where + "."):
                        prev = None
                        continue
                    if row[key] < 0:
                        problems.append(f"{where}.{key} must be non-negative")
                    if prev is not None and row[key] < prev - 1e-9:
                        problems.append(
                            f"{where}.{key} is {row[key]}, below the lower "
                            f"quantile {prev} — quantiles must be monotone"
                        )
                    prev = row[key]
            if "timeline" in row:
                try:
                    validate_timeline(row["timeline"])
                except SchemaError as exc:
                    problems.extend(f"{where}.timeline: {p}" for p in exc.problems)
    if _require(doc, "knee", dict, problems):
        knee = doc["knee"]
        detected_ok = _require(knee, "detected", bool, problems, "knee.")
        _require(knee, "rates", list, problems, "knee.")
        if detected_ok and knee["detected"]:
            if _require(knee, "knee_rate", _NUM, problems, "knee.") \
                    and knee["knee_rate"] <= 0:
                problems.append("knee.knee_rate must be > 0 when detected")
            if _require(knee, "reason", str, problems, "knee.") \
                    and knee["reason"] not in _KNEE_REASONS:
                problems.append(
                    f"knee.reason must be one of {_KNEE_REASONS}, "
                    f"got {knee['reason']!r}"
                )
    if _require(doc, "comparison", dict, problems):
        cmp_block = doc["comparison"]
        if _require(cmp_block, "rate", _NUM, problems, "comparison.") \
                and cmp_block["rate"] <= 0:
            problems.append("comparison.rate must be > 0")
        nums_ok = True
        for key in ("availability_on", "availability_off",
                    "full_quality_on", "full_quality_off", "floor"):
            nums_ok = _require(
                cmp_block, key, _NUM, problems, "comparison."
            ) and nums_ok
        floor_ok = _require(cmp_block, "floor_met", bool, problems, "comparison.")
        below_ok = _require(cmp_block, "off_below_on", bool, problems, "comparison.")
        if nums_ok and floor_ok:
            expected = bool(cmp_block["availability_on"] >= cmp_block["floor"])
            if cmp_block["floor_met"] != expected:
                problems.append(
                    f"comparison.floor_met is {cmp_block['floor_met']}, but "
                    f"the availability/floor arithmetic says {expected}"
                )
        if nums_ok and below_ok:
            expected = bool(
                cmp_block["availability_off"] < cmp_block["availability_on"]
            )
            if cmp_block["off_below_on"] != expected:
                problems.append(
                    f"comparison.off_below_on is {cmp_block['off_below_on']}, "
                    f"but the availability arithmetic says {expected}"
                )
    if _require(doc, "context", dict, problems):
        if doc["context"].get("bench") != "overload":
            problems.append(
                f"context.bench must be 'overload', got "
                f"{doc['context'].get('bench')!r}"
            )
    if rows_ok:
        rows = [r for r in doc["rows"] if isinstance(r, dict)]
        for key in ("total_queries", "total_completed"):
            field = key.removeprefix("total_")
            expected = sum(
                r[field] for r in rows if isinstance(r.get(field), int)
            )
            if _require(doc, key, int, problems) and doc[key] != expected:
                problems.append(
                    f"{key} is {doc[key]}, but the rows sum to {expected}"
                )
    if problems:
        raise SchemaError("bench-overload/v1", problems)
    return doc


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
    problems: list[str] = []
    if doc.get("schema") != "bench-observability/v1":
        problems.append(
            f"schema must be 'bench-observability/v1', got {doc.get('schema')!r}"
        )
    if _require(doc, "experiments", dict, problems):
        for name, entry in doc["experiments"].items():
            where = f"experiments[{name!r}]"
            if not isinstance(entry, dict):
                problems.append(f"{where} must be an object")
                continue
            _require(entry, "title", str, problems, where + ".")
            _require(entry, "wall_clock_s", _NUM, problems, where + ".")
            _require(entry, "total_queries", int, problems, where + ".")
            samples_ok = _require(entry, "total_samples", int, problems, where + ".")
            hist_ok = _require(
                entry, "sample_batch_histogram", dict, problems, where + "."
            )
            hw = where + ".sample_batch_histogram"
            if samples_ok and hist_ok:
                hist, total = entry["sample_batch_histogram"], entry["total_samples"]
                if _require(hist, "count", int, problems, hw + ".") and (
                    (hist["count"] == 0) != (total == 0)
                ):
                    problems.append(
                        f"{hw}.count is {hist['count']} but total_samples is "
                        f"{total}: the histogram is not this run's"
                    )
                if _require(hist, "sum", _NUM, problems, hw + ".") and (
                    abs(hist["sum"] - total) > 1e-9 * max(1, total)
                ):
                    problems.append(
                        f"{hw}.sum is {hist['sum']} but total_samples is {total}"
                    )
            if "sampler_overhead" not in entry:
                continue
            block = entry["sampler_overhead"]
            bw = where + ".sampler_overhead"
            if not isinstance(block, dict):
                problems.append(f"{bw} must be an object")
                continue
            nums_ok = True
            for key in ("rate", "baseline_p50_latency_ms",
                        "sampled_p50_latency_ms", "overhead_frac",
                        "budget_frac"):
                nums_ok = _require(block, key, _NUM, problems, bw + ".") and nums_ok
            budget_ok = _require(block, "within_budget", bool, problems, bw + ".")
            if nums_ok and block["baseline_p50_latency_ms"] > 0:
                expected = round(
                    block["sampled_p50_latency_ms"]
                    / block["baseline_p50_latency_ms"]
                    - 1.0,
                    6,
                )
                if abs(block["overhead_frac"] - expected) > 1e-6:
                    problems.append(
                        f"{bw}.overhead_frac is {block['overhead_frac']}, but "
                        f"the recorded latencies say {expected}"
                    )
            if nums_ok and budget_ok:
                expected_verdict = bool(
                    block["overhead_frac"] <= block["budget_frac"]
                )
                if block["within_budget"] != expected_verdict:
                    problems.append(
                        f"{bw}.within_budget is {block['within_budget']}, but "
                        f"the overhead/budget arithmetic says {expected_verdict}"
                    )
    if problems:
        raise SchemaError("bench-observability/v1", problems)
    return doc


def validate_chaos_report(doc: dict) -> dict:
    """Validate a ``chaos-report/v1`` document.

    Beyond shape, checks the internal consistency the chaos CLI relies
    on: per-row availability must equal ``1 - degraded/answers`` (to the
    report's rounding), ``meets_target`` must match the target and the
    abort count, and ``all_meet_target`` must be the conjunction of the
    rows.  A report must also be deterministic, so timing fields are
    *forbidden*: any key containing ``wall_clock`` or ``timestamp``
    fails validation.
    """
    problems: list[str] = []
    if doc.get("schema") != "chaos-report/v1":
        problems.append(f"schema must be 'chaos-report/v1', got {doc.get('schema')!r}")
    for banned in ("wall_clock", "timestamp", "time_s"):
        for key in doc:
            if banned in key:
                problems.append(
                    f"deterministic report must not carry timing key {key!r}"
                )
    _require(doc, "name", str, problems)
    _require(doc, "seed", int, problems)
    _require(doc, "lca_seed", int, problems)
    _require(doc, "n", int, problems)
    _require(doc, "epsilon", _NUM, problems)
    _require(doc, "queries_per_batch", int, problems)
    _require(doc, "batches", int, problems)
    _require(doc, "fault_free_equivalence", bool, problems)
    target_ok = _require(doc, "availability_target", _NUM, problems)
    if _require(doc, "retry", dict, problems):
        for key in ("max_retries", "backoff_base_s", "backoff_factor", "jitter"):
            _require(doc["retry"], key, _NUM, problems, "retry.")
    rows_ok = _require(doc, "rows", list, problems)
    if rows_ok:
        for i, row in enumerate(doc["rows"]):
            where = f"rows[{i}]"
            if not isinstance(row, dict):
                problems.append(f"{where} must be an object")
                continue
            for key in ("answers", "degraded", "batch_aborts", "probe_retries",
                        "probe_failures_injected"):
                if _require(row, key, int, problems, where + ".") and row[key] < 0:
                    problems.append(f"{where}.{key} must be non-negative")
            _require(row, "probe_failure_rate", _NUM, problems, where + ".")
            avail_ok = _require(row, "availability", _NUM, problems, where + ".")
            meets_ok = _require(row, "meets_target", bool, problems, where + ".")
            if avail_ok and isinstance(row.get("answers"), int) and row["answers"] > 0 \
                    and isinstance(row.get("degraded"), int):
                expected = round(1.0 - row["degraded"] / row["answers"], 6)
                if abs(row["availability"] - expected) > 1e-9:
                    problems.append(
                        f"{where}.availability is {row['availability']}, "
                        f"but 1 - degraded/answers = {expected}"
                    )
            if avail_ok and meets_ok and target_ok \
                    and isinstance(row.get("batch_aborts"), int):
                expected_meets = bool(
                    row["availability"] >= doc["availability_target"]
                    and row["batch_aborts"] == 0
                )
                if row["meets_target"] != expected_meets:
                    problems.append(
                        f"{where}.meets_target is {row['meets_target']}, "
                        f"but target/abort arithmetic says {expected_meets}"
                    )
    if _require(doc, "all_meet_target", bool, problems) and rows_ok:
        rows = [r for r in doc["rows"] if isinstance(r, dict)]
        if all(isinstance(r.get("meets_target"), bool) for r in rows):
            conjunction = all(r["meets_target"] for r in rows)
            if doc["all_meet_target"] != conjunction:
                problems.append(
                    f"all_meet_target is {doc['all_meet_target']}, but the "
                    f"rows' conjunction is {conjunction}"
                )
    if problems:
        raise SchemaError("chaos-report/v1", problems)
    return doc


def validate_events(doc: dict) -> dict:
    """Validate an ``events/v1`` flight-recorder document.

    Like ``chaos-report/v1``, an events document must be deterministic:
    any timing key (``wall_clock``/``timestamp``/``time_s``) is
    forbidden — ordering is the strictly increasing ``seq`` field.
    """
    problems: list[str] = []
    if doc.get("schema") != "events/v1":
        problems.append(f"schema must be 'events/v1', got {doc.get('schema')!r}")
    for banned in ("wall_clock", "timestamp", "time_s"):
        for key in doc:
            if banned in key:
                problems.append(
                    f"deterministic events document must not carry timing key {key!r}"
                )
    if _require(doc, "capacity", int, problems) and doc["capacity"] < 1:
        problems.append("capacity must be >= 1")
    if _require(doc, "dropped", int, problems) and doc["dropped"] < 0:
        problems.append("dropped must be non-negative")
    count_ok = _require(doc, "count", int, problems)
    if _require(doc, "events", list, problems):
        if count_ok and doc["count"] != len(doc["events"]):
            problems.append(
                f"count is {doc['count']} but events holds {len(doc['events'])}"
            )
        last_seq = 0
        for i, entry in enumerate(doc["events"]):
            where = f"events[{i}]"
            if not isinstance(entry, dict):
                problems.append(f"{where} must be an object")
                continue
            _require(entry, "kind", str, problems, where + ".")
            if _require(entry, "seq", int, problems, where + "."):
                if entry["seq"] <= last_seq:
                    problems.append(
                        f"{where}.seq is {entry['seq']}, must exceed "
                        f"the previous seq {last_seq}"
                    )
                last_seq = entry["seq"]
            if _require(entry, "attrs", dict, problems, where + "."):
                for banned in ("wall_clock", "timestamp", "time_s"):
                    for key in entry["attrs"]:
                        if banned in key:
                            problems.append(
                                f"{where}.attrs must not carry timing key {key!r}"
                            )
            for ctx_key in ("trace_id", "span_id"):
                if ctx_key in entry and entry[ctx_key] is not None \
                        and not isinstance(entry[ctx_key], str):
                    problems.append(f"{where}.{ctx_key} must be a string or null")
    _require(doc, "context", dict, problems)
    if problems:
        raise SchemaError("events/v1", problems)
    return doc


def validate_bench_diff(doc: dict) -> dict:
    """Validate a ``bench-diff/v1`` document, including its summary
    arithmetic: the regression/improvement/drift counts must equal the
    findings they summarize, and ``ok`` must mean exactly "no
    regressions and no drifts"."""
    problems: list[str] = []
    if doc.get("schema") != "bench-diff/v1":
        problems.append(f"schema must be 'bench-diff/v1', got {doc.get('schema')!r}")
    _require(doc, "baseline", dict, problems)
    _require(doc, "candidate", dict, problems)
    if _require(doc, "threshold", _NUM, problems) and doc["threshold"] <= 1.0:
        problems.append("threshold must be > 1.0")
    _require(doc, "abs_floor_s", _NUM, problems)
    _require(doc, "relative_only", bool, problems)
    _require(doc, "rows_compared", int, problems)
    _require(doc, "rows_missing", list, problems)
    statuses = {"ok": 0, "regression": 0, "improvement": 0, "drift": 0}
    if _require(doc, "findings", list, problems):
        for i, entry in enumerate(doc["findings"]):
            where = f"findings[{i}]"
            if not isinstance(entry, dict):
                problems.append(f"{where} must be an object")
                continue
            _require(entry, "row", str, problems, where + ".")
            _require(entry, "metric", str, problems, where + ".")
            if _require(entry, "status", str, problems, where + "."):
                if entry["status"] not in statuses:
                    problems.append(
                        f"{where}.status must be one of {sorted(statuses)}, "
                        f"got {entry['status']!r}"
                    )
                else:
                    statuses[entry["status"]] += 1
    for key, expected in (
        ("regressions", statuses["regression"]),
        ("improvements", statuses["improvement"]),
        ("drifts", statuses["drift"]),
    ):
        if _require(doc, key, int, problems) and doc[key] != expected:
            problems.append(
                f"{key} is {doc[key]}, but the findings hold {expected}"
            )
    if _require(doc, "ok", bool, problems):
        expected_ok = statuses["regression"] == 0 and statuses["drift"] == 0
        if doc["ok"] != expected_ok:
            problems.append(
                f"ok is {doc['ok']}, but the findings say {expected_ok}"
            )
    if problems:
        raise SchemaError("bench-diff/v1", problems)
    return doc


_CELL_KINDS = ("approx", "load", "chaos", "adversarial", "overload")
_CELL_OUTCOMES = ("pass", "fail", "expected_failure", "error")
_CELL_EXPECTS = ("pass", "budget_failure")


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
    problems: list[str] = []
    if doc.get("schema") != "suite-report/v1":
        problems.append(f"schema must be 'suite-report/v1', got {doc.get('schema')!r}")
    _require(doc, "name", str, problems)
    _require(doc, "title", str, problems)
    det_ok = _require(doc, "deterministic", bool, problems)
    if det_ok and doc["deterministic"]:
        scopes: list[tuple[str, dict]] = [("", doc)]
        if isinstance(doc.get("rows"), list):
            scopes += [
                (f"rows[{i}].", r)
                for i, r in enumerate(doc["rows"])
                if isinstance(r, dict)
            ]
        for where, scope in scopes:
            for banned in ("wall_clock", "timestamp", "time_s"):
                for key in scope:
                    if banned in key:
                        problems.append(
                            f"deterministic report must not carry timing key "
                            f"{where}{key!r}"
                        )
    counts = {"passed": 0, "failed": 0, "expected_failures": 0, "errors": 0}
    seen_ids: set[str] = set()
    if _require(doc, "cells", list, problems):
        for i, cell in enumerate(doc["cells"]):
            where = f"cells[{i}]"
            if not isinstance(cell, dict):
                problems.append(f"{where} must be an object")
                continue
            if _require(cell, "id", str, problems, where + "."):
                if cell["id"] in seen_ids:
                    problems.append(f"{where}.id {cell['id']!r} is duplicated")
                seen_ids.add(cell["id"])
            if _require(cell, "kind", str, problems, where + ".") \
                    and cell["kind"] not in _CELL_KINDS:
                problems.append(
                    f"{where}.kind must be one of {_CELL_KINDS}, got {cell['kind']!r}"
                )
            expect_ok = _require(cell, "expect", str, problems, where + ".")
            if expect_ok and cell["expect"] not in _CELL_EXPECTS:
                problems.append(
                    f"{where}.expect must be one of {_CELL_EXPECTS}, "
                    f"got {cell['expect']!r}"
                )
            outcome_ok = _require(cell, "outcome", str, problems, where + ".")
            if outcome_ok and cell["outcome"] not in _CELL_OUTCOMES:
                problems.append(
                    f"{where}.outcome must be one of {_CELL_OUTCOMES}, "
                    f"got {cell['outcome']!r}"
                )
            _require(cell, "metrics", dict, problems, where + ".")
            checks_ok = _require(cell, "checks", list, problems, where + ".")
            all_checks_ok = None
            if checks_ok:
                all_checks_ok = True
                for j, check in enumerate(cell["checks"]):
                    cw = f"{where}.checks[{j}]"
                    if not isinstance(check, dict):
                        problems.append(f"{cw} must be an object")
                        all_checks_ok = None
                        continue
                    _require(check, "name", str, problems, cw + ".")
                    if _require(check, "ok", bool, problems, cw + "."):
                        all_checks_ok = all_checks_ok and check["ok"]
                    else:
                        all_checks_ok = None
            if (
                outcome_ok
                and expect_ok
                and cell["outcome"] != "error"
                and all_checks_ok is not None
                and cell["outcome"] in _CELL_OUTCOMES
                and cell["expect"] in _CELL_EXPECTS
            ):
                expected_outcome = (
                    ("expected_failure" if cell["expect"] == "budget_failure"
                     else "pass")
                    if all_checks_ok
                    else "fail"
                )
                if cell["outcome"] != expected_outcome:
                    problems.append(
                        f"{where}.outcome is {cell['outcome']!r}, but the "
                        f"checks/expect arithmetic says {expected_outcome!r}"
                    )
            if outcome_ok and cell["outcome"] in _CELL_OUTCOMES:
                counts[
                    {
                        "pass": "passed",
                        "fail": "failed",
                        "expected_failure": "expected_failures",
                        "error": "errors",
                    }[cell["outcome"]]
                ] += 1
    if _require(doc, "rows", list, problems):
        for i, row in enumerate(doc["rows"]):
            where = f"rows[{i}]"
            if not isinstance(row, dict):
                problems.append(f"{where} must be an object")
                continue
            mode_ok = _require(row, "mode", str, problems, where + ".")
            if mode_ok and not row["mode"].startswith("suite:"):
                problems.append(
                    f"{where}.mode must start with 'suite:', got {row['mode']!r}"
                )
            if mode_ok and seen_ids and row["mode"].startswith("suite:") \
                    and row["mode"][len("suite:"):] not in seen_ids:
                problems.append(
                    f"{where}.mode {row['mode']!r} names no cell in the report"
                )
    if _require(doc, "summary", dict, problems):
        summary = doc["summary"]
        if _require(summary, "cells", int, problems, "summary.") \
                and isinstance(doc.get("cells"), list) \
                and summary["cells"] != len(doc["cells"]):
            problems.append(
                f"summary.cells is {summary['cells']}, but the report "
                f"holds {len(doc['cells'])} cells"
            )
        for key, expected in counts.items():
            if _require(summary, key, int, problems, "summary.") \
                    and isinstance(doc.get("cells"), list) \
                    and summary[key] != expected:
                problems.append(
                    f"summary.{key} is {summary[key]}, but the cells "
                    f"hold {expected}"
                )
    if _require(doc, "ok", bool, problems) and isinstance(doc.get("cells"), list):
        expected_ok = counts["failed"] == 0 and counts["errors"] == 0
        if doc["ok"] != expected_ok:
            problems.append(
                f"ok is {doc['ok']}, but the cell outcomes say {expected_ok}"
            )
    if _require(doc, "context", dict, problems):
        if doc["context"].get("bench") != "suite":
            problems.append(
                f"context.bench must be 'suite', got "
                f"{doc['context'].get('bench')!r}"
            )
    if problems:
        raise SchemaError("suite-report/v1", problems)
    return doc


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
