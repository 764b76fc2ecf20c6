"""Tests for mergeable metric state (cross-process registry folding).

Log-bucket histograms are mergeable exactly: shipping a worker's bucket
state home and folding it must agree with observing every value in one
registry (buckets are deterministic functions of the value, so merge =
bucket-wise addition, no approximation beyond the bucketing itself).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import Histogram, MetricsRegistry


class TestHistogramMerge:
    def test_merge_equals_single_histogram(self):
        values_a = [0.001, 0.01, 0.5, 2.0, 2.0]
        values_b = [0.0, -3.0, 7.5, 0.01]
        one = Histogram("h")
        for v in values_a + values_b:
            one.observe(v)
        left = Histogram("h")
        for v in values_a:
            left.observe(v)
        right = Histogram("h")
        for v in values_b:
            right.observe(v)
        left.merge_state(right.state())
        merged, single = left.state(), one.state()
        # float sums differ by addition order; everything else is exact
        assert merged["sum"] == pytest.approx(single["sum"])
        merged.pop("sum"), single.pop("sum")
        assert merged == single

    def test_state_round_trips_empty(self):
        h = Histogram("h")
        target = Histogram("h")
        target.merge_state(h.state())
        assert target.state() == h.state()
        assert target.state()["min"] is None  # +/-inf encoded as None

    def test_count_sum_min_max_fold(self):
        a = Histogram("h")
        a.observe(1.0)
        a.observe(4.0)
        b = Histogram("h")
        b.observe(0.25)
        a.merge_state(b.state())
        s = a.state()
        assert s["count"] == 3
        assert s["sum"] == pytest.approx(5.25)
        assert s["min"] == pytest.approx(0.25)
        assert s["max"] == pytest.approx(4.0)

    def test_bucket_resolution_mismatch_rejected(self):
        a = Histogram("h", buckets_per_decade=10)
        b = Histogram("h", buckets_per_decade=20)
        b.observe(1.0)
        with pytest.raises(ValueError):
            a.merge_state(b.state())

    def test_quantiles_survive_merge(self):
        one = Histogram("h")
        left = Histogram("h")
        right = Histogram("h")
        for i in range(100):
            v = 0.001 * (i + 1)
            one.observe(v)
            (left if i % 2 else right).observe(v)
        left.merge_state(right.state())
        assert left.quantile(0.5) == one.quantile(0.5)
        assert left.quantile(0.99) == one.quantile(0.99)


class TestHistogramSince:
    """``since`` is the inverse of ``merge_state``: the histogram of
    one run's observations out of a process-cumulative one."""

    @settings(max_examples=60, deadline=None)
    @given(
        before=st.lists(st.floats(-1e3, 1e6, allow_nan=False), max_size=30),
        window=st.lists(st.floats(-1e3, 1e6, allow_nan=False), max_size=30),
    )
    def test_window_is_exact_up_to_bucket_resolution(self, before, window):
        cumulative = Histogram("h")
        cumulative.observe_many(before)
        state = cumulative.state()
        cumulative.observe_many(window)
        delta = cumulative.since(state)
        alone = Histogram("h")
        alone.observe_many(window)
        got, want = delta.state(), alone.state()
        scale = 1.0 + sum(map(abs, before + window))
        assert got["sum"] == pytest.approx(want["sum"], abs=1e-9 * scale)
        for key in ("buckets", "zero", "neg", "count"):
            assert got[key] == want[key]
        if window:
            # Bounds never cut off an observation of the window (bucket
            # edges are exact up to log10's rounding).
            slack = 1e-12 * max(abs(want["min"]), abs(want["max"]))
            assert got["min"] <= want["min"] + slack
            assert got["max"] >= want["max"] - slack
            assert got["min"] >= cumulative.min and got["max"] <= cumulative.max
        else:
            assert delta.snapshot() == {"count": 0, "sum": 0.0}

    def test_new_extremes_are_exact(self):
        h = Histogram("h")
        h.observe_many([5.0, 50.0])
        state = h.state()
        h.observe_many([1.0, 100.0])
        delta = h.since(state)
        assert (delta.count, delta.sum, delta.min, delta.max) == (2, 101.0, 1.0, 100.0)

    def test_resolution_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets_per_decade=10).since(Histogram("h").state())


class TestRegistryMerge:
    def test_counters_add(self):
        parent = MetricsRegistry()
        parent.counter("oracle.queries").inc(5)
        worker = MetricsRegistry()
        worker.counter("oracle.queries").inc(3)
        worker.counter("sampler.samples").inc(100)
        parent.merge_state(worker.state())
        snap = parent.state()
        assert snap["counters"]["oracle.queries"] == 8
        assert snap["counters"]["sampler.samples"] == 100

    def test_gauges_skipped_by_default(self):
        parent = MetricsRegistry()
        parent.gauge("serve.cache.size").set(4)
        worker = MetricsRegistry()
        worker.gauge("serve.cache.size").set(9)
        parent.merge_state(worker.state())
        assert parent.state()["gauges"]["serve.cache.size"] == 4
        parent.merge_state(worker.state(), include_gauges=True)
        assert parent.state()["gauges"]["serve.cache.size"] == 9

    def test_histograms_merge_through_registry(self):
        parent = MetricsRegistry()
        parent.histogram("lat").observe(1.0)
        worker = MetricsRegistry()
        worker.histogram("lat").observe(2.0)
        worker.histogram("lat").observe(3.0)
        parent.merge_state(worker.state())
        assert parent.histogram("lat").state()["count"] == 3

    def test_merge_into_empty_registry_recreates_metrics(self):
        worker = MetricsRegistry()
        worker.counter("faults.injected").inc(2)
        worker.histogram("lat").observe(0.5)
        parent = MetricsRegistry()
        parent.merge_state(worker.state())
        assert parent.state()["counters"]["faults.injected"] == 2
        assert parent.histogram("lat").state()["count"] == 1

    def test_merge_is_associative_on_counters(self):
        a, b, c = MetricsRegistry(), MetricsRegistry(), MetricsRegistry()
        a.counter("x").inc(1)
        b.counter("x").inc(2)
        c.counter("x").inc(4)
        left = MetricsRegistry()
        left.merge_state(a.state())
        left.merge_state(b.state())
        left.merge_state(c.state())
        bc = MetricsRegistry()
        bc.merge_state(b.state())
        bc.merge_state(c.state())
        right = MetricsRegistry()
        right.merge_state(a.state())
        right.merge_state(bc.state())
        assert left.state()["counters"] == right.state()["counters"] == {"x": 7}
