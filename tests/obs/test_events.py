"""Tests for the flight recorder and the ``events/v1`` document.

The recorder's contract: bounded memory with an honest drop counter,
one total seq order even when events arrive via :meth:`ingest`, and a
document that carries no wall-clock fields — a seeded scenario replays
to byte-identical JSON.
"""

import json

import pytest

from repro.obs.events import (
    EVENTS_SCHEMA,
    Event,
    FlightRecorder,
    events_document,
    render_timeline,
)
from repro.obs.schema import validate_events


class TestFlightRecorder:
    def test_record_assigns_increasing_seq(self):
        rec = FlightRecorder()
        a = rec.record("fault.probe_failure", probe="oracle.query")
        b = rec.record("retry.recovered", probe="oracle.query", retries=1)
        assert (a.seq, b.seq) == (1, 2)
        assert [e.kind for e in rec.events()] == [
            "fault.probe_failure",
            "retry.recovered",
        ]

    def test_capacity_bound_and_drop_counter(self):
        rec = FlightRecorder(capacity=3)
        for i in range(5):
            rec.record("fault.probe_failure", i=i)
        assert len(rec) == 3
        assert rec.dropped == 2
        # Oldest events fell off; seq keeps counting.
        assert [e.seq for e in rec.events()] == [3, 4, 5]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_ingest_restamps_but_preserves_relative_order(self):
        child = FlightRecorder()
        child.record("fault.timeout", probe="sampler.sample")
        child.record("retry.exhausted", probe="sampler.sample")
        parent = FlightRecorder()
        parent.record("shard.requeue", shard=0)
        n = parent.ingest([e.to_dict() for e in child.events()])
        assert n == 2
        merged = parent.events()
        assert [e.seq for e in merged] == [1, 2, 3]
        assert [e.kind for e in merged] == [
            "shard.requeue",
            "fault.timeout",
            "retry.exhausted",
        ]

    def test_ingest_accepts_event_objects(self):
        parent = FlightRecorder()
        parent.ingest([Event(seq=99, kind="cache.evicted", attrs={"nonce": 7})])
        (event,) = parent.events()
        assert event.seq == 1  # re-stamped
        assert event.attrs == {"nonce": 7}

    def test_clear_resets_seq_and_dropped(self):
        rec = FlightRecorder(capacity=1)
        rec.record("fault.corruption")
        rec.record("fault.corruption")
        assert rec.dropped == 1
        rec.clear()
        assert (len(rec), rec.dropped) == (0, 0)
        assert rec.record("fault.corruption").seq == 1

    def test_trace_ids_are_stamped(self):
        rec = FlightRecorder()
        e = rec.record("serve.degraded", trace_id="t1", span_id="0.2", reason="x")
        assert (e.trace_id, e.span_id) == ("t1", "0.2")
        assert e.to_dict()["trace_id"] == "t1"


class TestEventsDocument:
    def _doc(self):
        rec = FlightRecorder(capacity=16)
        rec.record("fault.probe_failure", probe="oracle.query")
        rec.record("retry.recovered", probe="oracle.query", retries=2)
        return events_document(rec, chaos_seed=7, rate=0.1)

    def test_document_validates(self):
        doc = self._doc()
        assert doc["schema"] == EVENTS_SCHEMA
        validate_events(doc)  # raises SchemaError on breakage

    def test_document_round_trips_through_json(self):
        doc = self._doc()
        again = json.loads(json.dumps(doc, sort_keys=True))
        validate_events(again)
        assert again["count"] == 2

    def test_no_wall_clock_fields_anywhere(self):
        text = json.dumps(self._doc())
        for forbidden in ("wall_clock", "timestamp", "time_s"):
            assert forbidden not in text

    def test_event_round_trip(self):
        e = Event(seq=3, kind="shard.requeue", trace_id="t2", attrs={"shard": 1})
        assert Event.from_dict(e.to_dict()) == e

    def test_render_timeline_mentions_every_event(self):
        doc = self._doc()
        text = render_timeline(doc)
        assert "2 events" in text
        assert "fault.probe_failure" in text
        assert "retry.recovered" in text
        assert "chaos_seed=7" in text
