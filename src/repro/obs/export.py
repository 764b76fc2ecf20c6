"""Machine-readable exporters: JSON documents, JSONL streams, the
Prometheus text exposition, the Chrome trace-event export, and the
human-readable span-tree rendering behind ``repro trace``.

Everything written here carries a ``schema`` tag (``trace/v2``,
``metrics-snapshot/v2``, ``timeline/v1``, ``bench-result/v1``,
``bench-observability/v1``) so downstream tooling — and the validators
in :mod:`repro.obs.schema` — can tell documents apart without guessing.
The trace and snapshot builders assemble through
:class:`~repro.obs.schema.BenchDocument` with a
:class:`~repro.obs.context.RunContext` block, the same envelope every
bench document uses.  Numpy scalars are coerced to plain Python numbers
on the way out, so experiment rows can be dumped as-is.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
from typing import Any

from .metrics import MetricsRegistry
from .trace import Span, phase_counts

__all__ = [
    "jsonable",
    "write_json",
    "append_jsonl",
    "read_json",
    "snapshot_document",
    "trace_document",
    "chrome_trace_document",
    "render_prometheus",
    "render_span_tree",
]


def jsonable(obj: Any) -> Any:
    """Recursively coerce ``obj`` into plain JSON-ready Python values.

    Handles numpy scalars/arrays (via their ``item``/``tolist`` duck
    type), sets/tuples (to lists), and non-finite floats (to strings,
    since JSON has no ``inf``/``nan``).
    """
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):  # numpy scalar
        return jsonable(obj.item())
    if hasattr(obj, "tolist"):  # numpy array
        return jsonable(obj.tolist())
    return str(obj)


def write_json(path: str | pathlib.Path, document: dict) -> pathlib.Path:
    """Write one JSON document (pretty-printed, trailing newline)."""
    p = pathlib.Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(jsonable(document), indent=2, sort_keys=False) + "\n")
    return p


def append_jsonl(path: str | pathlib.Path, record: dict) -> pathlib.Path:
    """Append one compact JSON record to a JSONL stream."""
    p = pathlib.Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("a") as fh:
        fh.write(json.dumps(jsonable(record), separators=(",", ":")) + "\n")
    return p


def read_json(path: str | pathlib.Path) -> dict:
    """Load one JSON document.

    Raises ``OSError`` when the file cannot be read and ``ValueError``,
    naming the file, when it is not JSON or its top level is not an
    object.
    """
    p = pathlib.Path(path)
    try:
        doc = json.loads(p.read_text())
    except ValueError as exc:
        raise ValueError(f"{p}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{p}: the top level is not a JSON object")
    return doc


# ----------------------------------------------------------------------
# Document builders
# ----------------------------------------------------------------------
def snapshot_document(
    registry: MetricsRegistry,
    *,
    name: str = "metrics_snapshot",
    title: str = "Metrics registry snapshot",
    **context: Any,
) -> dict:
    """The ``metrics-snapshot/v2`` document for a registry.

    Free-form ``context`` keys (instance family, n, ...) land in the
    standard ``RunContext`` block under ``bench="metrics"``.
    """
    from .context import RunContext
    from .schema import BenchDocument

    snap = registry.snapshot()
    return BenchDocument.build(
        "metrics",
        name=name,
        title=title,
        counters=snap["counters"],
        gauges=snap["gauges"],
        histograms=snap["histograms"],
        context=RunContext(bench="metrics", config=context),
    ).body


def trace_document(
    root: Span,
    *,
    name: str = "trace",
    title: str = "Span trace: per-phase resource attribution",
    **context: Any,
) -> dict:
    """The ``trace/v2`` document for one finished trace tree.

    ``totals`` holds the inclusive event totals and the per-phase
    (exclusive) breakdowns for every counted key — the machine-readable
    form of the partition property ``sum(per-phase) == total``.
    """
    from .context import RunContext
    from .schema import BenchDocument

    keys: set[str] = set()
    for span, _depth in root.walk():
        keys.update(span.counts)
    return BenchDocument.build(
        "trace",
        name=name,
        title=title,
        trace_id=root.trace_id,
        root=root.to_dict(),
        totals={
            key: {
                "total": root.total_count(key),
                "by_phase": phase_counts(root, key),
            }
            for key in sorted(keys)
        },
        context=RunContext(bench="trace", config=context),
    ).body


def chrome_trace_document(root: Span) -> dict:
    """One trace tree as Chrome trace-event JSON (Perfetto-loadable).

    Every span becomes one complete (``ph="X"``) event with its *real*
    duration in microseconds.  Absolute placement is synthesized — the
    first child starts at its parent's start and each sibling starts
    where the previous one ended — because deserialized shard subtrees
    carry frozen durations only; their perf-counter timestamps belong
    to another process and mean nothing here.  Layout is therefore
    sequential, durations and nesting are exact.
    """
    events: list[dict] = []

    def emit(span: Span, start_us: float) -> None:
        events.append(
            {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": round(start_us, 3),
                "dur": round(span.duration * 1e6, 3),
                "pid": 0,
                "tid": 0,
                "args": {
                    "span_id": span.span_id,
                    **{k: span.counts[k] for k in sorted(span.counts)},
                },
            }
        )
        cursor = start_us
        for child in span.children:
            emit(child, cursor)
            cursor += child.duration * 1e6

    emit(root, 0.0)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": root.trace_id},
    }


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
_PROM_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(name: str, prefix: str) -> str:
    return f"{prefix}_{_PROM_SANITIZE.sub('_', name)}"


def _prom_value(value: float) -> str:
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(registry, *, prefix: str = "repro") -> str:
    """The registry in Prometheus text exposition format (v0.0.4).

    Counters get the ``_total`` suffix, gauges render as-is, and each
    streaming histogram renders as a *summary* (its stored state is
    quantile estimates plus exact sum/count, which is exactly a
    summary's shape).  Accepts a :class:`MetricsRegistry` or an
    already-taken snapshot dict.
    """
    snap = registry.snapshot() if hasattr(registry, "snapshot") else registry
    lines: list[str] = []
    for name, value in sorted(snap.get("counters", {}).items()):
        metric = _prom_name(name, prefix) + "_total"
        lines.append(f"# HELP {metric} Counter {name}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(int(value))}")
    for name, value in sorted(snap.get("gauges", {}).items()):
        metric = _prom_name(name, prefix)
        lines.append(f"# HELP {metric} Gauge {name}")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_value(value)}")
    for name, hist in sorted(snap.get("histograms", {}).items()):
        metric = _prom_name(name, prefix)
        lines.append(f"# HELP {metric} Histogram {name}")
        lines.append(f"# TYPE {metric} summary")
        for stat, quantile in (("p50", "0.5"), ("p90", "0.9"), ("p99", "0.99")):
            if stat in hist:
                lines.append(
                    f'{metric}{{quantile="{quantile}"}} {_prom_value(hist[stat])}'
                )
        lines.append(f"{metric}_sum {_prom_value(hist.get('sum', 0.0))}")
        lines.append(f"{metric}_count {_prom_value(int(hist.get('count', 0)))}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Human-readable rendering
# ----------------------------------------------------------------------
def render_span_tree(
    root: Span,
    *,
    keys: tuple[str, ...] = ("queries", "samples", "sample_blocks"),
) -> str:
    """Pretty-print a trace tree, one span per line.

    Each line shows the span's wall-clock and, for each counted key,
    ``own`` events (attributed to that span exclusively) and ``tot``
    events (its whole subtree) when they differ.
    """
    lines: list[str] = []
    for span, depth in root.walk():
        parts = [f"{'  ' * depth}{span.name}", f"{span.duration * 1e3:9.3f} ms"]
        for key in keys:
            own, tot = span.own_count(key), span.total_count(key)
            if tot == 0:
                continue
            if own == tot:
                parts.append(f"{key}={own}")
            else:
                parts.append(f"{key}={own} (subtree {tot})")
        lines.append("  ".join(parts))
    return "\n".join(lines)
