"""Tests for the degradation ladder's staleness bound.

The cache rung may answer off a memoized pipeline from an earlier run —
but ``max_staleness`` bounds how many batches off the warm path that
pipeline may be.  Within the bound the answer carries its age; past it
the ladder falls through to greedy, so a degraded verdict is never
served off an arbitrarily stale cache.
"""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.faults import FaultPlan, RetryPolicy
from repro.serve import KnapsackService, PipelineCache
from repro.serve.cache import CacheKey
from repro.serve.degraded import DegradedAnswer

IDX = list(range(0, 20, 2))


def make_key(nonce=0, fingerprint="f", seed="s"):
    return CacheKey(
        instance_fingerprint=fingerprint,
        seed_digest=seed,
        nonce=nonce,
        params_key=(0.1,),
        tie_breaking=True,
        large_item_mode="exact",
    )


class TestStalenessClock:
    def test_tick_advances_per_batch(self):
        cache = PipelineCache(capacity=4)
        assert cache.tick == 0
        assert cache.advance_batch() == 1
        assert cache.advance_batch() == 2
        assert cache.tick == 2

    def test_find_config_reports_age(self):
        cache = PipelineCache(capacity=4)
        sentinel = object()
        cache.put(make_key(nonce=1), sentinel)  # stamped at tick 0
        cache.advance_batch()
        cache.advance_batch()
        found = cache.find_config(make_key(nonce=99))
        assert found == (sentinel, 2)

    def test_find_config_skips_entries_past_max_age(self):
        cache = PipelineCache(capacity=4)
        cache.put(make_key(nonce=1), object())
        cache.advance_batch()
        cache.advance_batch()
        assert cache.find_config(make_key(nonce=99), max_age=1) is None
        assert cache.find_config(make_key(nonce=99), max_age=2) is not None

    def test_find_config_prefers_freshest_match(self):
        cache = PipelineCache(capacity=4)
        old, fresh = object(), object()
        cache.put(make_key(nonce=1), old)
        cache.advance_batch()
        cache.put(make_key(nonce=2), fresh)
        found = cache.find_config(make_key(nonce=99))
        assert found == (fresh, 0)

    def test_warm_get_restamps_entry(self):
        cache = PipelineCache(capacity=4)
        key = make_key(nonce=1)
        cache.put(key, object())
        cache.advance_batch()
        cache.get(key)  # warm hit refreshes the stamp
        cache.advance_batch()
        _, age = cache.find_config(make_key(nonce=99))
        assert age == 1  # one batch since the warm hit, not two since put


class _FullScanCache:
    """Reference bookkeeping: an LRU plus a separate stamp dict, and a
    ``find_config`` that scans every entry for the least age."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = OrderedDict()
        self.stamps = {}
        self.tick = 0

    def get(self, key):
        if key not in self.entries:
            return None
        self.entries.move_to_end(key)
        self.stamps[key] = self.tick
        return self.entries[key]

    def put(self, key, value):
        if key in self.entries:
            self.entries.move_to_end(key)
        self.entries[key] = value
        while len(self.entries) > self.capacity:
            evicted, _ = self.entries.popitem(last=False)
            del self.stamps[evicted]
        self.stamps[key] = self.tick

    def clear(self):
        self.entries.clear()
        self.stamps.clear()

    def find_config(self, template, max_age=None):
        best = None
        for key in reversed(self.entries):
            if key.instance_fingerprint != template.instance_fingerprint:
                continue
            age = self.tick - self.stamps[key]
            if max_age is not None and age > max_age:
                continue
            if best is None or age < best[1]:
                best = (self.entries[key], age)
        return best


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("get"), st.sampled_from("ab"), st.integers(0, 3)),
        st.tuples(st.just("put"), st.sampled_from("ab"), st.integers(0, 3)),
        st.tuples(st.just("advance")),
        st.tuples(st.just("clear")),
    ),
    max_size=40,
)


class TestFindConfigMatchesFullScan:
    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(1, 4), ops=_OPS)
    def test_mru_first_match_equals_least_age_scan(self, capacity, ops):
        cache, ref = PipelineCache(capacity=capacity), _FullScanCache(capacity)
        for step, (op, *args) in enumerate(ops):
            if op == "get":
                key = make_key(nonce=args[1], fingerprint=args[0])
                assert cache.get(key) == ref.get(key)
            elif op == "put":
                key = make_key(nonce=args[1], fingerprint=args[0])
                cache.put(key, step)
                ref.put(key, step)
            elif op == "advance":
                cache.advance_batch()
                ref.tick += 1
            else:
                cache.clear()
                ref.clear()
            for fingerprint in "ab":
                template = make_key(nonce=99, fingerprint=fingerprint)
                for max_age in (None, 0, 1, 2):
                    assert cache.find_config(
                        template, max_age=max_age
                    ) == ref.find_config(template, max_age=max_age)


class TestMaxStalenessValidation:
    def test_negative_bound_rejected(self, tiers_instance, fast_params):
        with pytest.raises(ReproError):
            KnapsackService(
                tiers_instance, 0.1, seed=42, params=fast_params,
                cache=False, max_staleness=-1,
            )

    def test_bound_exposed_as_property(self, tiers_instance, fast_params):
        svc = KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params,
            cache=False, max_staleness=3,
        )
        assert svc.max_staleness == 3


class TestDegradedAnswerStaleness:
    def test_round_trip_with_staleness(self):
        a = DegradedAnswer(
            index=3, include=True, reason_code="probe-failure",
            source="cache", staleness=2,
        )
        doc = a.to_dict()
        assert doc["staleness"] == 2
        assert DegradedAnswer.from_dict(doc) == a

    def test_staleness_key_omitted_when_none(self):
        a = DegradedAnswer(
            index=3, include=False, reason_code="probe-failure", source="greedy",
        )
        doc = a.to_dict()
        assert "staleness" not in doc
        assert DegradedAnswer.from_dict(doc).staleness is None


class TestStalenessLadder:
    """End-to-end: a faulty service degrades onto a shared warm cache
    until the bound expires, then falls through to greedy."""

    def _services(self, tiers_instance, fast_params):
        cache = PipelineCache(capacity=8)
        clean = KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params, cache=cache,
        )
        faulty = KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params, cache=cache,
            fault_plan=FaultPlan(seed=5, probe_failure_rate=1.0),
            retry_policy=RetryPolicy(max_retries=1, seed=5),
            strict=False, max_staleness=1,
        )
        return cache, clean, faulty

    def test_fresh_cache_rung_carries_its_age(self, tiers_instance, fast_params):
        _, clean, faulty = self._services(tiers_instance, fast_params)
        clean.answer_batch(IDX, nonce=7)  # warm: entry stamped at tick 1
        report = faulty.answer_batch(IDX, nonce=8)  # tick 2: age 1 <= bound
        assert report.degraded == len(IDX)
        assert {a.source for a in report.answers} == {"cache"}
        assert {a.staleness for a in report.answers} == {1}
        assert report.stale_served == len(IDX)

    def test_expired_entry_falls_through_to_greedy(
        self, tiers_instance, fast_params
    ):
        _, clean, faulty = self._services(tiers_instance, fast_params)
        clean.answer_batch(IDX, nonce=7)
        faulty.answer_batch(IDX, nonce=8)  # age 1: still on the cache rung
        report = faulty.answer_batch(IDX, nonce=9)  # age 2 > bound
        assert report.degraded == len(IDX)
        assert {a.source for a in report.answers} == {"greedy"}
        assert {a.staleness for a in report.answers} == {None}
        assert report.stale_served == 0

    def test_unbounded_service_keeps_any_age_behavior(
        self, tiers_instance, fast_params
    ):
        cache = PipelineCache(capacity=8)
        clean = KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params, cache=cache,
        )
        faulty = KnapsackService(
            tiers_instance, 0.1, seed=42, params=fast_params, cache=cache,
            fault_plan=FaultPlan(seed=5, probe_failure_rate=1.0),
            retry_policy=RetryPolicy(max_retries=1, seed=5),
            strict=False,  # max_staleness=None: historical behavior
        )
        clean.answer_batch(IDX, nonce=7)
        for _ in range(3):
            cache.advance_batch()  # age the entry well past any bound
        report = faulty.answer_batch(IDX, nonce=8)
        assert {a.source for a in report.answers} == {"cache"}
        assert report.stale_served == len(IDX)
        assert {a.staleness for a in report.answers} == {cache.tick - 1}
