"""Flight recorder: a bounded, structured event log for rare moments.

Metrics answer "how many"; traces answer "where did the time/probes
go"; the flight recorder answers "**what happened, in what order**" —
faults fired, probes retried, shards requeued, answers
degraded, cache entries hit or evicted.  Events are rare (they mark
exceptional control flow, not per-probe work), so a bounded ring with a
drop counter is the right shape: the recorder can never grow without
bound under a fault storm, and it is honest about what it shed.

Every event is stamped with the active ``(trace_id, span_id)`` at
record time, so a chaos run's timeline can be joined against its trace
tree — the ``repro flightrec`` CLI renders exactly that.  Events carry
**no wall-clock timestamps**: ordering is the monotonically increasing
``seq``, which keeps the exported ``events/v1`` document byte-identical
across reruns of a seeded scenario (the same determinism contract as
``chaos-report/v1``).

Worker processes run their own recorder (reset at chunk start);
finished events ship home inside the chunk payload and are folded into
the parent's recorder via :meth:`FlightRecorder.ingest`, which
re-stamps ``seq`` so the merged log has one total order and adds the
worker's drop count to the parent's.  A worker never writes to a spill
file: the parent owns its spill, and the events reach it by ``ingest``.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from .export import jsonable

__all__ = [
    "EVENTS_SCHEMA",
    "Event",
    "FlightRecorder",
    "events_document",
    "render_timeline",
]

EVENTS_SCHEMA = "events/v1"


@dataclass(frozen=True)
class Event:
    """One recorded moment: a kind, a trace position, and attributes."""

    seq: int
    kind: str
    trace_id: str | None = None
    span_id: str | None = None
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready form (schema ``events/v1`` entry)."""
        return {
            "seq": self.seq,
            "kind": self.kind,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "attrs": jsonable(dict(self.attrs)),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Event":
        """Rebuild an event from :meth:`to_dict` output."""
        return cls(
            seq=int(data["seq"]),
            kind=str(data["kind"]),
            trace_id=data.get("trace_id"),
            span_id=data.get("span_id"),
            attrs=dict(data.get("attrs", {})),
        )


class FlightRecorder:
    """Bounded ring of :class:`Event` with an honest drop counter.

    ``capacity`` bounds memory under fault storms; once full, the
    oldest events fall off and ``dropped`` counts them.  ``seq`` is
    assigned under the lock, so events from concurrent shard threads
    interleave into one total order.

    With a **spill** configured (:meth:`set_spill` or the ``spill_path``
    constructor argument), each event evicted from the ring is appended
    to a JSONL file before it is forgotten — long chaos runs keep a
    complete timeline on disk while memory stays bounded.  ``dropped``
    keeps counting ring evictions regardless (it reports what the
    *in-memory* view shed); ``spilled`` counts how many of those made it
    to disk.  The spill file is truncated when (re)configured and on
    :meth:`clear`, so a cleared recorder still replays a seeded scenario
    byte-identically, spill file included.
    """

    def __init__(self, capacity: int = 1024, *, spill_path=None) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        self._capacity = capacity
        self._lock = threading.Lock()
        self._ring: deque[Event] = deque(maxlen=capacity)
        self._seq = 0
        self._dropped = 0
        self._spilled = 0
        self._spill_path: str | None = None
        self._spill_fh = None
        if spill_path is not None:
            self.set_spill(spill_path)

    # ------------------------------------------------------------------
    def set_spill(self, path) -> None:
        """(Re)configure the eviction spill file; ``None`` disables.

        The file is opened truncated: a spill is a per-run artifact,
        and a stale tail from a previous run would corrupt the
        deterministic-replay contract."""
        with self._lock:
            if self._spill_fh is not None:
                self._spill_fh.close()
                self._spill_fh = None
            self._spill_path = None
            self._spilled = 0
            if path is not None:
                self._spill_path = str(path)
                self._spill_fh = open(self._spill_path, "w", encoding="utf-8")

    def _evict_locked(self) -> None:
        """Ring is full: count (and optionally spill) the oldest event.

        Caller holds the lock; the subsequent ``append`` performs the
        actual eviction via the deque's ``maxlen``."""
        self._dropped += 1
        if self._spill_fh is not None:
            victim = self._ring[0]
            self._spill_fh.write(
                json.dumps(victim.to_dict(), sort_keys=True) + "\n"
            )
            self._spill_fh.flush()
            self._spilled += 1

    # ------------------------------------------------------------------
    def record(
        self,
        kind: str,
        *,
        trace_id: str | None = None,
        span_id: str | None = None,
        **attrs,
    ) -> Event:
        """Append one event and return it."""
        with self._lock:
            self._seq += 1
            event = Event(
                seq=self._seq,
                kind=kind,
                trace_id=trace_id,
                span_id=span_id,
                attrs=attrs,
            )
            if len(self._ring) == self._capacity:
                self._evict_locked()
            self._ring.append(event)
            return event

    def ingest(self, events: Iterable[Event | dict], *, dropped: int = 0) -> int:
        """Fold another recorder's finished events into this one.

        Each event is re-stamped with this recorder's next ``seq`` (the
        source's relative order is preserved), so the merged log has one
        total order.  ``dropped`` is the source recorder's own drop
        count: events it shed never arrive here, so they are added to
        this recorder's ``dropped`` to keep it honest fleet-wide.
        Returns the number of events ingested.
        """
        n = 0
        with self._lock:
            self._dropped += int(dropped)
            for item in events:
                event = Event.from_dict(item) if isinstance(item, dict) else item
                self._seq += 1
                restamped = Event(
                    seq=self._seq,
                    kind=event.kind,
                    trace_id=event.trace_id,
                    span_id=event.span_id,
                    attrs=dict(event.attrs),
                )
                if len(self._ring) == self._capacity:
                    self._evict_locked()
                self._ring.append(restamped)
                n += 1
        return n

    # ------------------------------------------------------------------
    def events(self) -> list[Event]:
        """All retained events, oldest first."""
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        """Forget everything, including ``seq``, the drop counter, and
        the spill file's contents — a cleared recorder replays a seeded
        scenario identically, spill included."""
        with self._lock:
            self._ring.clear()
            self._seq = 0
            self._dropped = 0
            self._spilled = 0
            if self._spill_fh is not None:
                self._spill_fh.close()
                self._spill_fh = open(self._spill_path, "w", encoding="utf-8")

    @property
    def capacity(self) -> int:
        """Maximum retained events."""
        return self._capacity

    @property
    def dropped(self) -> int:
        """Events shed because the ring was full."""
        with self._lock:
            return self._dropped

    @property
    def spilled(self) -> int:
        """Evicted events appended to the spill file."""
        with self._lock:
            return self._spilled

    @property
    def spill_path(self) -> str | None:
        """The configured spill file (``None`` when spilling is off)."""
        with self._lock:
            return self._spill_path

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


def events_document(recorder: FlightRecorder, **context) -> dict:
    """The recorder's ``events/v1`` document.

    ``context`` keys (seed, rates, scenario labels, ...) are embedded so
    a timeline is self-describing; like ``chaos-report/v1``, the
    document carries no timing fields and is byte-identical across
    reruns of the same seeded scenario.
    """
    events = recorder.events()
    return {
        "schema": EVENTS_SCHEMA,
        "capacity": recorder.capacity,
        "dropped": recorder.dropped,
        "count": len(events),
        "events": [e.to_dict() for e in events],
        "context": jsonable(context),
    }


def render_timeline(document: dict) -> str:
    """Human-readable causal timeline of an ``events/v1`` document."""
    lines: list[str] = []
    context = document.get("context") or {}
    if context:
        ctx = ", ".join(f"{k}={context[k]}" for k in sorted(context))
        lines.append(f"context: {ctx}")
    dropped = document.get("dropped", 0)
    lines.append(
        f"{document.get('count', 0)} events "
        f"(capacity {document.get('capacity', '?')}, dropped {dropped})"
    )
    for entry in document.get("events", ()):
        where = ""
        if entry.get("trace_id"):
            where = f" [{entry['trace_id']}/{entry.get('span_id') or '?'}]"
        attrs = entry.get("attrs") or {}
        detail = " ".join(f"{k}={attrs[k]}" for k in sorted(attrs))
        lines.append(
            f"  #{entry['seq']:<4} {entry['kind']:<26}{where}"
            + (f" {detail}" if detail else "")
        )
    return "\n".join(lines)
