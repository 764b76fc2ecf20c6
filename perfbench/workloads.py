"""Workload definitions, seeded input generation and the answer reference.

Every input a run feeds the service -- the instance, the index streams,
the per-request nonces and the Poisson arrival schedule -- is a pure
function of the workload seed.  The service only ever sees those inputs.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

EPSILON = 0.1


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one service configuration."""

    name: str
    family: str
    n: int
    capped: bool  # capped BENCH_load parameters instead of the calibrated defaults
    pinned: bool  # one nonce for every request (cache hits) or one per request
    batch: int  # item-queries per request
    workers: int | None  # answer_batch(workers=...); None serves serially
    executor: str
    shared: bool
    rate: float  # offered open-loop requests/s, about a third of one caller's capacity
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "point_warm", "uniform", 10**6, True, True, 1, None, "thread", False,
            rate=600.0,
            why="pinned nonce, one item per request: every request is a cache hit "
            "(the n-independent warm query)",
        ),
        Workload(
            "point_cold", "planted_lsg", 10**6, False, False, 1, None, "thread", False,
            rate=10.0,
            why="a fresh nonce per request: every request is a cache miss that runs "
            "the full Algorithm 2 pipeline",
        ),
        Workload(
            "fanout_thread", "uniform", 10**5, True, True, 16, 2, "thread", False,
            rate=15.0,
            why="16-item requests over 2 thread shards on a warm cache: per-shard "
            "access stack and thread pools",
        ),
        Workload(
            "fanout_shm", "uniform", 10**6, True, True, 16, 2, "process", True,
            rate=12.0,
            why="16-item requests over 2 process shards attached to the shared "
            "store: shm and process IPC",
        ),
    )
}

#: Tiny sizes for the benchmark's own tests (same code paths, small n).
TINY_N = 20_000


def _rng(seed: int, name: str, stream: str) -> np.random.Generator:
    tag = zlib.crc32(f"{name}/{stream}".encode())
    return np.random.default_rng([int(seed), tag])


@dataclass(frozen=True)
class Requests:
    """A request stream: index rows plus one nonce per request."""

    indices: np.ndarray  # shape (count, batch), int64
    nonces: np.ndarray  # shape (count,), int64

    def __len__(self) -> int:
        return len(self.nonces)

    def get(self, k: int) -> tuple[list[int], int]:
        return self.indices[k].tolist(), int(self.nonces[k])


@dataclass(frozen=True)
class Inputs:
    """Everything a run derives from its seed."""

    instance_seed: int
    lca_seed: int
    warm_nonce: int
    pinned_nonce: int
    due: np.ndarray  # open-loop due offsets in seconds, sorted
    open_requests: Requests
    closed_requests: Requests


def _requests(rng, wl: Workload, n: int, count: int, pinned_nonce: int) -> Requests:
    indices = rng.integers(0, n, size=(count, wl.batch), dtype=np.int64)
    if wl.pinned:
        nonces = np.full(count, pinned_nonce, dtype=np.int64)
    else:
        nonces = rng.integers(1, 2**62, size=count, dtype=np.int64)
    return Requests(indices, nonces)


def poisson_schedule(rng, rate: float, seconds: float) -> np.ndarray:
    """Due offsets of a Poisson arrival process on ``[0, seconds)``."""
    out: list[np.ndarray] = []
    t = 0.0
    chunk = max(16, int(rate * seconds * 1.2) + 16)
    while t < seconds:
        gaps = rng.exponential(1.0 / rate, size=chunk)
        times = t + np.cumsum(gaps)
        out.append(times)
        t = float(times[-1])
    due = np.concatenate(out)
    return due[due < seconds]


def make_inputs(wl: Workload, seed: int, open_s: float, closed_cap: int, n: int) -> Inputs:
    """Seeded inputs: one open-loop pass of ``open_s`` seconds and a
    closed-loop stream of ``closed_cap`` requests (cycled if exhausted)."""
    cfg = _rng(seed, wl.name, "config")
    instance_seed, lca_seed = (int(x) for x in cfg.integers(0, 2**31, size=2))
    warm_nonce, pinned_nonce = (int(x) for x in cfg.integers(1, 2**62, size=2))
    due = poisson_schedule(_rng(seed, wl.name, "arrivals"), wl.rate, open_s)
    open_requests = _requests(_rng(seed, wl.name, "open"), wl, n, len(due), pinned_nonce)
    closed_requests = _requests(
        _rng(seed, wl.name, "closed"), wl, n, max(1, closed_cap), pinned_nonce
    )
    return Inputs(
        instance_seed, lca_seed, warm_nonce, pinned_nonce, due, open_requests, closed_requests
    )


def shard_of(position: int, workers: int | None) -> int:
    """Shard that serves the item at ``position`` of a request
    (``answer_batch`` splits a batch as ``idx[k::w]``)."""
    return 0 if not workers or workers <= 1 else position % workers


def reference_includes(lca, nonces_by_shard: dict[int, int], indices: np.ndarray,
                       shards: np.ndarray) -> np.ndarray:
    """Inline reference: ``answers_from(run_pipeline(nonce), indices)`` per
    shard nonce, scattered back to the positions that shard served."""
    out = np.zeros(indices.size, dtype=bool)
    for shard, nonce in nonces_by_shard.items():
        mask = shards == shard
        if not mask.any():
            continue
        pipeline = lca.run_pipeline(nonce=nonce)
        answers = lca.answers_from(pipeline, indices[mask].tolist())
        out[mask] = [a.include for a in answers]
    return out
