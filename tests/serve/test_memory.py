"""A warm service keeps no per-query state.

The LCA is stateless (Definitions 2.3-2.4): once a pipeline is cached,
answering another query must not leave anything behind.  The service's
oracle keeps a counter, not a transcript, so tens of thousands of warm
answers grow the heap by a small fixed amount, not by one entry per
query.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.knapsack import generators
from repro.serve import KnapsackService

N = 100_000
NONCE = 7
BATCHES = 50
BATCH_SIZE = 1_000
POINTS = 5_000
#: Net heap growth allowed over the whole warm loop.  A per-query log
#: of 55k answers alone takes several MB.
LIMIT_BYTES = 1 << 20


@pytest.mark.slow
def test_warm_answers_do_not_grow_the_heap(fast_params):
    instance = generators.uniform(N, seed=3)
    rng = np.random.default_rng(0)
    batches = [rng.integers(0, N, BATCH_SIZE) for _ in range(BATCHES)]
    points = [int(i) for i in rng.integers(0, N, POINTS)]
    with KnapsackService(instance, 0.1, seed=42, params=fast_params) as svc:
        # Warm-up: runs and caches the pipeline, and builds whatever
        # each serving path allocates once.
        svc.answer_batch(batches[0], nonce=NONCE)
        svc.answer(points[0], nonce=NONCE)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for batch in batches:
                svc.answer_batch(batch, nonce=NONCE)
            for i in points:
                svc.answer(i, nonce=NONCE)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert svc.cache.stats()["misses"] == 1
    answers = BATCHES * BATCH_SIZE + POINTS
    assert grown < LIMIT_BYTES, f"{answers} warm answers grew the heap by {grown} B"
