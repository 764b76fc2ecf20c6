"""Span-based tracing with thread-local context and a no-op fast path.

A :class:`Span` covers one algorithmic phase (``"eps.estimate"``,
``"oracle.reveal"``, ...).  Spans nest: entering a span while another is
active makes it a child, so one LCA query yields a tree whose leaves
are exactly the phases where resources were spent.  Instrumented code
attributes resource events to the *innermost* active span via
:meth:`Tracer.add`, which is what makes per-phase counts partition the
totals: every charged oracle query lands in exactly one span, so the
per-phase counts sum to ``QueryOracle.queries_used`` (the property the
``repro trace`` CLI and the hypothesis tests check).

The tracer is **disabled by default**.  Disabled, ``span()`` returns a
shared singleton whose ``__enter__``/``__exit__`` do nothing and
``add()`` returns after one attribute check — hot paths pay a few
nanoseconds, not a tree allocation.  Context is thread-local, so thread
shards of one batch can trace concurrently without cross-talk.

**Trace context crosses execution boundaries.**  Every span carries a
``trace_id`` plus a hierarchical, deterministic ``span_id`` (the root is
``"0"``, its k-th child ``"0.k"``, and so on).  A worker — a pool
thread or a forked subprocess — *adopts* the parent's context via
:meth:`Tracer.adopt`, so its local root span slots into the parent tree
at a predetermined id; the finished subtree is serialized with
:func:`span_to_payload`, shipped home (a payload is plain dict/list
data, so it pickles across processes), rebuilt with
:func:`span_from_payload`, and grafted under the parent span with
:meth:`Tracer.graft`.  Because attribution stays exclusive throughout,
the phase-partition invariant holds over the *merged* tree exactly as
it does over a single-process one.
"""

from __future__ import annotations

import threading
import time
from collections import deque

__all__ = [
    "Span",
    "Tracer",
    "phase_counts",
    "span_from_payload",
    "span_to_payload",
]

# v2: trace documents ride the BenchDocument/RunContext envelope (name,
# title, context.bench="trace"); node shape is unchanged from v1.
TRACE_SCHEMA = "trace/v2"


class Span:
    """One timed, counted node of a trace tree."""

    __slots__ = (
        "name",
        "start",
        "end",
        "children",
        "counts",
        "trace_id",
        "span_id",
        "_frozen_duration",
    )

    def __init__(
        self, name: str, *, trace_id: str = "", span_id: str = "0"
    ) -> None:
        self.name = name
        self.start = time.perf_counter()
        self.end: float | None = None
        self.children: list[Span] = []
        self.counts: dict[str, int] = {}
        self.trace_id = trace_id
        self.span_id = span_id
        # Set on deserialized spans, whose start/end perf-counter values
        # belong to another process and mean nothing here.
        self._frozen_duration: float | None = None

    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Wall-clock seconds (to now, if the span is still open)."""
        if self._frozen_duration is not None:
            return self._frozen_duration
        return (self.end if self.end is not None else time.perf_counter()) - self.start

    def own_count(self, key: str) -> int:
        """Events attributed to this span itself (exclusive of children)."""
        return self.counts.get(key, 0)

    def total_count(self, key: str) -> int:
        """Events in this span's whole subtree (inclusive)."""
        return self.own_count(key) + sum(c.total_count(key) for c in self.children)

    def walk(self):
        """Yield ``(span, depth)`` in pre-order."""
        stack: list[tuple[Span, int]] = [(self, 0)]
        while stack:
            span, depth = stack.pop()
            yield span, depth
            for child in reversed(span.children):
                stack.append((child, depth + 1))

    def to_dict(self) -> dict:
        """JSON-ready form of the subtree (a ``trace/v2`` node)."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "duration_s": self.duration,
            "counts": dict(self.counts),
            "children": [c.to_dict() for c in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Span({self.name!r}, children={len(self.children)}, counts={self.counts})"


def span_to_payload(root: Span) -> dict:
    """Serialize a finished span tree for shipment across a process
    boundary (plain dicts/lists — picklable and JSON-ready)."""
    return {"trace_id": root.trace_id, "root": root.to_dict()}


def _span_from_node(node: dict, trace_id: str) -> Span:
    span = Span(
        str(node["name"]),
        trace_id=trace_id,
        span_id=str(node.get("span_id", "0")),
    )
    span.end = span.start
    span._frozen_duration = float(node.get("duration_s", 0.0))
    span.counts = {str(k): int(v) for k, v in node.get("counts", {}).items()}
    span.children = [_span_from_node(c, trace_id) for c in node.get("children", ())]
    return span


def span_from_payload(payload: dict) -> Span:
    """Rebuild a :func:`span_to_payload` tree (durations frozen as
    recorded in the originating process)."""
    return _span_from_node(payload["root"], str(payload.get("trace_id", "")))


def phase_counts(root: Span, key: str) -> dict[str, int]:
    """Exclusive per-phase totals for ``key`` over a trace tree.

    Spans with the same name pool their counts; phases that saw no
    events are omitted.  Because attribution is exclusive, the returned
    values sum to ``root.total_count(key)`` exactly.
    """
    out: dict[str, int] = {}
    for span, _depth in root.walk():
        n = span.own_count(key)
        if n:
            out[span.name] = out.get(span.name, 0) + n
    return out


class _NullSpan:
    """Shared do-nothing context manager for the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _ActiveSpan:
    """Context manager that pushes/pops one live :class:`Span`."""

    __slots__ = ("_tracer", "_name", "_span")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._span: Span | None = None

    def __enter__(self) -> Span:
        self._span = self._tracer._push(self._name)
        return self._span

    def __exit__(self, *exc_info) -> bool:
        if self._span is not None:
            self._tracer._pop(self._span)
        return False


class Tracer:
    """Thread-local span stack plus a bounded log of finished roots.

    Use the module-global instance in :mod:`repro.obs.runtime` unless a
    component wants private traces.  Typical use::

        tracer.enable()
        with tracer.span("repro.trace") as root:
            lca.answer(7)
        queries_by_phase = phase_counts(root, "queries")
    """

    def __init__(self, *, keep_roots: int = 64) -> None:
        self._local = threading.local()
        self._enabled = False
        self._lock = threading.Lock()
        self._finished: deque[Span] = deque(maxlen=keep_roots)
        self._trace_seq = 0

    # ------------------------------------------------------------------
    @property
    def enabled(self) -> bool:
        """Whether spans are being recorded."""
        return self._enabled

    def enable(self) -> None:
        """Start recording spans."""
        self._enabled = True

    def disable(self) -> None:
        """Stop recording; open spans keep collecting until they exit."""
        self._enabled = False

    # ------------------------------------------------------------------
    def span(self, name: str) -> "_ActiveSpan | _NullSpan":
        """Context manager for one phase; no-op when disabled.

        ``with tracer.span(...) as s:`` binds the live :class:`Span`
        (or ``None`` when disabled) so callers can harvest the finished
        tree without reaching into the tracer.
        """
        if not self._enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, name)

    def add(self, key: str, n: int = 1) -> None:
        """Attribute ``n`` events to the innermost active span.

        Silently drops the events when disabled or no span is open —
        registry counters (always on) still see them.
        """
        if not self._enabled:
            return
        stack = getattr(self._local, "stack", None)
        if stack:
            top = stack[-1]
            top.counts[key] = top.counts.get(key, 0) + n

    def current(self) -> Span | None:
        """The innermost open span on this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def current_ids(self) -> tuple[str | None, str | None]:
        """``(trace_id, span_id)`` of the innermost open span on this
        thread, or ``(None, None)`` when no span is open."""
        span = self.current()
        if span is None:
            return (None, None)
        return (span.trace_id, span.span_id)

    def adopt(self, trace_id: str, span_id: str) -> None:
        """Adopt a remote trace context on this thread (one-shot).

        The *next* root span opened here continues trace ``trace_id``
        with the predetermined id ``span_id`` instead of starting a
        fresh trace — how a shard (pool thread or subprocess) slots its
        subtree into the parent's tree at a known position.
        """
        self._local.adopt = (str(trace_id), str(span_id))

    # ------------------------------------------------------------------
    def _push(self, name: str) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            parent = stack[-1]
            span = Span(
                name,
                trace_id=parent.trace_id,
                span_id=f"{parent.span_id}.{len(parent.children)}",
            )
            parent.children.append(span)
        else:
            adopted = getattr(self._local, "adopt", None)
            if adopted is not None:
                trace_id, span_id = adopted
                self._local.adopt = None
            else:
                with self._lock:
                    self._trace_seq += 1
                    trace_id, span_id = f"t{self._trace_seq}", "0"
            span = Span(name, trace_id=trace_id, span_id=span_id)
        stack.append(span)
        return span

    def _pop(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # unwound out of order (exception paths)
            while stack and stack[-1] is not span:
                stack.pop()
            stack.pop()
        if not stack:
            with self._lock:
                self._finished.append(span)

    # ------------------------------------------------------------------
    def finished_roots(self) -> list[Span]:
        """Completed root spans, oldest first (bounded ring)."""
        with self._lock:
            return list(self._finished)

    def last_root(self) -> Span | None:
        """Most recently completed root span, if any."""
        with self._lock:
            return self._finished[-1] if self._finished else None

    def clear(self) -> None:
        """Drop all finished roots (open spans are unaffected)."""
        with self._lock:
            self._finished.clear()

    # ------------------------------------------------------------------
    def graft(self, parent: Span, child: Span) -> None:
        """Attach a finished shard subtree under ``parent``.

        ``child`` is typically a rebuilt :func:`span_from_payload` tree
        (or a root finished on a pool thread) whose adopted ``span_id``
        already places it in the parent's id space.  Removes the child
        from the finished-roots ring if it landed there, so the grafted
        tree is reported exactly once.
        """
        parent.children.append(child)
        with self._lock:
            try:
                self._finished.remove(child)
            except ValueError:
                pass

    def reset_worker(self) -> None:
        """Reinitialize for a forked worker process.

        A fork copies the parent's thread-local span stack, finished
        ring, and — worst of all — possibly a *held* lock.  Workers call
        this (via ``reset_worker_runtime``) before doing any traced
        work, so their spans never alias the parent's.
        """
        self._local = threading.local()
        self._enabled = False
        self._lock = threading.Lock()
        self._finished = deque(maxlen=self._finished.maxlen)
        self._trace_seq = 0
