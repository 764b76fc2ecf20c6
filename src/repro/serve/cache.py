"""Seed/nonce-keyed LRU cache for pipeline results.

The legality of caching is the whole point of the LCA model: a
:class:`~repro.core.lca_kp.PipelineResult` is a deterministic function
of ``(instance, seed r, fresh-sample nonce, parameters)`` — nothing
else.  Two queries that agree on that tuple would have re-derived the
*same* result from scratch (that is Definition 2.5's reproducibility),
so handing the second query the first one's result changes no answer,
only the bill.  The cache key below is exactly that tuple, hashed
piecewise:

* ``instance_fingerprint`` — SHA-256 over (n, capacity, profit bytes,
  weight bytes), so two services over different instances can share one
  cache without cross-talk;
* ``seed_digest`` — the :class:`~repro.access.SeedChain` node digest
  (the shared random string r);
* ``nonce`` — the per-run fresh-randomness nonce;
* ``params_key`` — every field of
  :class:`~repro.core.parameters.LCAParameters` that influences the
  pipeline, plus the tie-breaking flag and the large-item mode.

Hit/miss/eviction counts feed both per-instance attributes and the
global :mod:`repro.obs` registry (``serve.cache.hits`` / ``.misses`` /
``.evictions`` and the ``serve.cache.size`` gauge), so cache behaviour
shows up in ``repro metrics`` next to the oracle counters.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..access.seeds import SeedChain
from ..core.lca_kp import PipelineResult
from ..core.parameters import LCAParameters
from ..errors import ReproError
from ..obs import runtime as _obs

__all__ = ["CacheKey", "PipelineCache", "instance_fingerprint"]


def instance_fingerprint(instance) -> str:
    """SHA-256 fingerprint of an explicit instance's full contents.

    Computed once per service (O(n), amortized over every query it will
    ever serve).  Implicit instances without materialized arrays fall
    back to identity fingerprinting — correct (no false sharing), just
    never shared between two wrapper objects for the same function.
    """
    profits = getattr(instance, "profits", None)
    weights = getattr(instance, "weights", None)
    h = hashlib.sha256()
    h.update(f"{instance.n}:{float(instance.capacity)!r}:".encode())
    if profits is not None and weights is not None:
        h.update(np.ascontiguousarray(np.asarray(profits, dtype=float)).tobytes())
        h.update(np.ascontiguousarray(np.asarray(weights, dtype=float)).tobytes())
    else:
        h.update(f"implicit:{id(instance)}".encode())
    return h.hexdigest()[:32]


@dataclass(frozen=True)
class CacheKey:
    """Everything a pipeline run is a deterministic function of."""

    instance_fingerprint: str
    seed_digest: str
    nonce: int
    params_key: tuple
    tie_breaking: bool
    large_item_mode: str

    @classmethod
    def derive(
        cls,
        *,
        fingerprint: str,
        seed: SeedChain,
        nonce: int,
        params: LCAParameters,
        tie_breaking: bool,
        large_item_mode: str,
    ) -> "CacheKey":
        """Build the key from live configuration objects."""
        dom = params.domain
        return cls(
            instance_fingerprint=fingerprint,
            seed_digest=seed.digest().hex(),
            nonce=int(nonce),
            params_key=(
                params.epsilon,
                params.tau,
                params.rho,
                params.beta,
                params.m_large,
                params.n_rq,
                params.fidelity,
                dom.bits,
                dom.lo,
                dom.hi,
            ),
            tie_breaking=bool(tie_breaking),
            large_item_mode=str(large_item_mode),
        )

    def with_nonce(self, nonce: int) -> "CacheKey":
        """This key's configuration under another nonce.

        Everything but the nonce is fixed per service, so a service
        derives its key once (hashing the seed and reading the
        parameters) and keys every lookup by attaching the nonce.
        """
        return CacheKey(
            self.instance_fingerprint,
            self.seed_digest,
            int(nonce),
            self.params_key,
            self.tie_breaking,
            self.large_item_mode,
        )

    def __hash__(self) -> int:
        # Memoized: a warm hit looks its key up twice (``get``, then
        # ``move_to_end``) but hashes the six fields once.
        if "_hash" not in self.__dict__:
            run = (self.instance_fingerprint, self.seed_digest, self.nonce)
            config = (self.params_key, self.tie_breaking, self.large_item_mode)
            object.__setattr__(self, "_hash", hash(run + config))
        return self.__dict__["_hash"]

    def __getstate__(self) -> dict:
        # String hashes are salted per process: never pickle the memo.
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}


class PipelineCache:
    """Thread-safe LRU of :class:`CacheKey` -> ``PipelineResult``.

    One cache may back many services (that is why the key carries the
    instance fingerprint and the full parameter tuple).  All counters
    are cumulative over the cache's lifetime; the registry counters are
    process-cumulative across caches.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ReproError(f"cache capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        # key -> [result, stamp].  Staleness clock: advance_batch() ticks
        # once per served batch; each entry is stamped with the tick it
        # was last computed or served warm, so "age" = batches since this
        # pipeline was known good.  The degradation ladder's cache rung
        # bounds that age.  Both stamping operations also move the entry
        # to the MRU end, so LRU order is stamp order.
        self._entries: OrderedDict[CacheKey, list] = OrderedDict()
        self._lock = threading.Lock()
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._m_hits = _obs.REGISTRY.counter("serve.cache.hits")
        self._m_misses = _obs.REGISTRY.counter("serve.cache.misses")
        self._m_evictions = _obs.REGISTRY.counter("serve.cache.evictions")
        self._m_size = _obs.REGISTRY.gauge("serve.cache.size")

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum number of cached pipeline results."""
        return self._capacity

    @property
    def tick(self) -> int:
        """Current batch tick of the staleness clock."""
        with self._lock:
            return self._tick

    def advance_batch(self) -> int:
        """Advance the staleness clock by one served batch."""
        with self._lock:
            self._tick += 1
            return self._tick

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: CacheKey) -> PipelineResult | None:
        """Look up a pipeline; counts a hit or a miss either way."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                entry[1] = self._tick
                self.hits += 1
                self._m_hits.inc()
                return entry[0]
            self.misses += 1
            self._m_misses.inc()
            return None

    def find_config(
        self, template: CacheKey, *, max_age: int | None = None
    ) -> tuple[PipelineResult, int] | None:
        """Freshest entry matching ``template`` on everything but the
        nonce, returned with its staleness age in batches.

        This is the degradation ladder's first rung (see
        ``docs/robustness.md``): when the honest path cannot run, *any*
        memoized pipeline for the same (instance, seed, params)
        configuration still encodes a valid Theorem 4.1 solution — it
        just belongs to a different run.  ``max_age`` bounds how old that
        run may be: an entry more than ``max_age`` batch ticks off the
        warm pipeline is skipped, so a degraded verdict can never be
        served off an arbitrarily stale cache.  Not a query-path lookup,
        so it counts neither a hit nor a miss.
        """
        with self._lock:
            # LRU order is stamp order, so the first match from the MRU
            # end is the freshest; if it is too old, every other is too.
            for key, (result, stamp) in reversed(self._entries.items()):
                if (
                    key.instance_fingerprint == template.instance_fingerprint
                    and key.seed_digest == template.seed_digest
                    and key.params_key == template.params_key
                    and key.tie_breaking == template.tie_breaking
                    and key.large_item_mode == template.large_item_mode
                ):
                    age = self._tick - stamp
                    if max_age is not None and age > max_age:
                        return None
                    return result, age
            return None

    def put(self, key: CacheKey, result: PipelineResult) -> None:
        """Insert (or refresh) an entry, evicting the LRU tail if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = [result, self._tick]
            while len(self._entries) > self._capacity:
                evicted, _ = self._entries.popitem(last=False)
                self.evictions += 1
                self._m_evictions.inc()
                _obs.record_event("cache.evicted", nonce=evicted.nonce)
            self._m_size.set(len(self._entries))

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()
            self._m_size.set(0)

    def stats(self) -> dict:
        """JSON-ready hit/miss/eviction/occupancy summary."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "capacity": self._capacity,
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "hit_rate": self.hits / total if total else 0.0,
            }
