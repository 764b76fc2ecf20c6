"""A warm service keeps no per-query state, and set-up keeps only its table.

The LCA is stateless (Definitions 2.3-2.4): once a pipeline is cached,
answering another query must not leave anything behind.  The service's
oracle keeps a counter, not a transcript, so tens of thousands of warm
answers grow the heap by a small fixed amount, not by one entry per
query.  Building the service is its one O(n) cost, and what stays
resident after it is the 16-byte-per-item alias table.
"""

import gc
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import repro
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


#: Builds one service over ``generate("uniform", n)`` and prints how many
#: bytes of resident memory the construction left behind.
_RSS_SCRIPT = """
import sys
from repro.core.parameters import LCAParameters
from repro.knapsack.generators import generate
from repro.serve import KnapsackService

def rss_bytes():
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024

instance = generate("uniform", int(sys.argv[1]), seed=0)
params = LCAParameters.calibrated(0.1, max_nrq=4000, max_m_large=4000)
before = rss_bytes()
with KnapsackService(instance, 0.1, seed=0, params=params):
    print(rss_bytes() - before)
"""


@pytest.mark.slow
@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="reads VmRSS from /proc"
)
def test_service_setup_retains_only_the_alias_table():
    """The build's temporaries are returned, not left resident below the
    table: set-up grows RSS by the table plus at most 8 MB.  A build
    that allocates ``alias`` after its temporaries keeps about 20 MB
    more resident at this size."""
    n = 10**6
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_SCRIPT, str(n)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    grown = int(proc.stdout.split()[-1])
    assert grown <= 16 * n + 8_000_000, f"set-up kept {grown / 1e6:.1f} MB resident"
