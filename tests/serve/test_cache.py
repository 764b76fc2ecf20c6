"""PipelineCache: LRU mechanics, key derivation, collision resistance."""

import dataclasses
import pickle

import pytest

from repro.access.seeds import SeedChain
from repro.core.parameters import LCAParameters
from repro.errors import ReproError
from repro.knapsack import generators
from repro.serve import CacheKey, PipelineCache, instance_fingerprint


def _key(i: int) -> CacheKey:
    # Distinct nonces make distinct keys; everything else held fixed.
    return CacheKey.derive(
        fingerprint="f" * 32,
        seed=SeedChain(1),
        nonce=i,
        params=LCAParameters.calibrated(0.1),
        tie_breaking=False,
        large_item_mode="coupon",
    )


class TestLRU:
    def test_capacity_validated(self):
        with pytest.raises(ReproError):
            PipelineCache(capacity=0)

    def test_miss_then_hit(self):
        cache = PipelineCache(capacity=4)
        assert cache.get(_key(0)) is None
        cache.put(_key(0), "pipeline-0")
        assert cache.get(_key(0)) == "pipeline-0"
        assert cache.hits == 1
        assert cache.misses == 1

    def test_eviction_drops_least_recently_used(self):
        cache = PipelineCache(capacity=2)
        cache.put(_key(0), "p0")
        cache.put(_key(1), "p1")
        cache.get(_key(0))  # 0 is now most recently used
        cache.put(_key(2), "p2")  # evicts 1, not 0
        assert cache.evictions == 1
        assert _key(0) in cache
        assert _key(1) not in cache
        assert _key(2) in cache

    def test_eviction_counter_over_churn(self):
        cache = PipelineCache(capacity=3)
        for i in range(10):
            cache.put(_key(i), f"p{i}")
        assert len(cache) == 3
        assert cache.evictions == 7

    def test_put_refreshes_existing_key(self):
        cache = PipelineCache(capacity=2)
        cache.put(_key(0), "p0")
        cache.put(_key(1), "p1")
        cache.put(_key(0), "p0-new")  # refresh, no eviction
        cache.put(_key(2), "p2")  # evicts 1 (0 was refreshed)
        assert cache.get(_key(0)) == "p0-new"
        assert _key(1) not in cache

    def test_clear_keeps_counters(self):
        cache = PipelineCache(capacity=2)
        cache.put(_key(0), "p0")
        cache.get(_key(0))
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_stats_shape(self):
        cache = PipelineCache(capacity=2)
        cache.get(_key(0))
        cache.put(_key(0), "p0")
        cache.get(_key(0))
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1
        assert stats["hit_rate"] == 0.5


class TestCacheKeyCollisions:
    """Any field a pipeline depends on must separate cache keys."""

    def test_distinct_nonces_distinct_keys(self):
        assert _key(1) != _key(2)

    def test_distinct_seeds_distinct_keys(self):
        base = _key(1)
        other = dataclasses.replace(base, seed_digest=SeedChain(2).digest().hex())
        assert base != other

    def test_distinct_params_distinct_keys(self):
        k1 = _key(1)
        k2 = CacheKey.derive(
            fingerprint="f" * 32,
            seed=SeedChain(1),
            nonce=1,
            params=LCAParameters.calibrated(0.2),  # different epsilon
            tie_breaking=False,
            large_item_mode="coupon",
        )
        assert k1 != k2

    def test_tie_breaking_and_mode_separate_keys(self):
        k1 = _key(1)
        assert dataclasses.replace(k1, tie_breaking=True) != k1
        assert dataclasses.replace(k1, large_item_mode="bernoulli") != k1

    def test_distinct_instances_distinct_fingerprints(self):
        a = generators.uniform(50, seed=1)
        b = generators.uniform(50, seed=2)
        assert instance_fingerprint(a) != instance_fingerprint(b)

    def test_same_instance_content_same_fingerprint(self):
        a = generators.uniform(50, seed=1)
        b = generators.uniform(50, seed=1)
        assert instance_fingerprint(a) == instance_fingerprint(b)

    def test_shared_cache_no_cross_instance_pollution(self):
        """One cache backing two services never leaks across instances."""
        cache = PipelineCache(capacity=8)
        a = generators.uniform(50, seed=1)
        b = generators.uniform(50, seed=2)
        ka = dataclasses.replace(_key(1), instance_fingerprint=instance_fingerprint(a))
        kb = dataclasses.replace(_key(1), instance_fingerprint=instance_fingerprint(b))
        cache.put(ka, "pipeline-for-a")
        assert cache.get(kb) is None
        assert cache.get(ka) == "pipeline-for-a"


class _CountingHash:
    """A ``params_key`` field that counts how often it is hashed."""

    def __init__(self) -> None:
        self.hashes = 0

    def __hash__(self) -> int:
        self.hashes += 1
        return 7


class TestWarmHitHashing:
    def test_warm_hit_hashes_the_key_fields_at_most_once(self):
        probe = _CountingHash()
        key = CacheKey("f", "s", 1, (probe,), False, "coupon")
        cache = PipelineCache(capacity=4)
        cache.put(key, "pipeline")
        for _ in range(3):
            probe.hashes = 0
            # A service keys every lookup with a fresh with_nonce copy.
            assert cache.get(key.with_nonce(1)) == "pipeline"
            assert probe.hashes <= 1

    def test_pickled_key_recomputes_its_hash(self):
        key = _key(3)
        hash(key)
        clone = pickle.loads(pickle.dumps(key))
        assert "_hash" not in clone.__dict__
        assert clone == key and hash(clone) == hash(key)
