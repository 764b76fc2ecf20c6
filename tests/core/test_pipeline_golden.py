"""Golden pipeline outputs: fixed nonces over four families.

``data/pipeline_golden.json`` holds, per (family, tie-breaking, nonce),
the run's ``signature_hash``, ``samples_used`` and
``small_sample_size``.  It was written by the pipeline before the
per-item code memo existed, so the test pins the memoized cold path to
the arithmetic it replaced.  Each (family, tie-breaking) pair runs its
nonces in sequence on one sampler: the first run fills the memo from
empty, later runs read it part filled.

Regenerate (only when an intended change moves the answers) with::

    PYTHONPATH=src python -m tests.core.test_pipeline_golden
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.access.oracle import QueryOracle
from repro.access.weighted_sampler import WeightedSampler
from repro.core.lca_kp import LCAKP
from repro.core.parameters import LCAParameters
from repro.knapsack import generators

GOLDEN = Path(__file__).parent / "data" / "pipeline_golden.json"
EPSILON = 0.1
PARAMS = LCAParameters.calibrated(EPSILON, max_nrq=6000, max_m_large=3000)
SEED = 2025
NONCES = (0, 1, 7, 123456789)
FAMILIES = {
    "planted_lsg": lambda: generators.planted_lsg(4000, seed=3, epsilon=EPSILON),
    "efficiency_tiers": lambda: generators.efficiency_tiers(4000, seed=3, tiers=5),
    "subset_sum": lambda: generators.subset_sum(4000, seed=3),
    "zero_weight_padding": lambda: generators.zero_weight_padding(4000, seed=3, n_heavy=40),
}


def golden_rows() -> list[dict]:
    rows = []
    for family, make in FAMILIES.items():
        instance = make()
        for tie_breaking in (False, True):
            lca = LCAKP(
                WeightedSampler(instance),
                QueryOracle(instance),
                EPSILON,
                SEED,
                params=PARAMS,
                tie_breaking=tie_breaking,
            )
            for nonce in NONCES:
                run = lca.run_pipeline(nonce=nonce).summary()
                rows.append(
                    {
                        "family": family,
                        "tie_breaking": tie_breaking,
                        "nonce": nonce,
                        "signature_hash": run.signature_hash,
                        "samples_used": run.samples_used,
                        "small_sample_size": run.small_sample_size,
                    }
                )
    return rows


def test_pipeline_matches_golden():
    expected = json.loads(GOLDEN.read_text())["rows"]
    assert golden_rows() == expected


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"rows": golden_rows()}, indent=1) + "\n")
