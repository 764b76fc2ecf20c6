"""Shared fixtures for the test suite.

The LCA's production parameter sizing draws hundreds of thousands of
samples per query; tests use ``fast_params`` (same structure, capped
sample sizes) so the whole suite runs in seconds while still exercising
every code path.  Tests that specifically validate the *statistical*
guarantees (consistency rates, approximation bounds) scale sizes up
locally and are marked ``slow``-ish via their module.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.access.oracle import QueryOracle
from repro.access.seeds import SeedChain
from repro.access.weighted_sampler import WeightedSampler
from repro.core.parameters import LCAParameters
from repro.knapsack import generators
from repro.reproducible.domains import EfficiencyDomain

EPSILON = 0.1


@pytest.fixture(scope="session")
def epsilon() -> float:
    """Accuracy parameter used by most LCA tests."""
    return EPSILON


@pytest.fixture(scope="session")
def fast_params() -> LCAParameters:
    """Laptop-instant parameters (structure intact, sizes capped)."""
    return LCAParameters.calibrated(
        EPSILON,
        domain=EfficiencyDomain(bits=12),
        max_nrq=4_000,
        max_m_large=4_000,
    )


@pytest.fixture(scope="session")
def planted_instance():
    """A planted-partition instance sized for fast tests."""
    return generators.planted_lsg(600, seed=11, epsilon=EPSILON)


@pytest.fixture(scope="session")
def tiers_instance():
    """An efficiency-tier instance (atomic efficiencies: best case)."""
    return generators.efficiency_tiers(600, seed=11, tiers=6)


@pytest.fixture(scope="session")
def uniform_instance():
    """A plain uniform instance."""
    return generators.uniform(200, seed=11)


@pytest.fixture()
def seed_chain() -> SeedChain:
    """A fresh root seed chain."""
    return SeedChain(12345)


@pytest.fixture()
def rng() -> np.random.Generator:
    """Deterministic numpy generator for test-local randomness."""
    return np.random.default_rng(987)


def make_lca(instance, params, *, seed: int = 42):
    """Helper used across LCA tests: wire sampler + oracle + LCA-KP."""
    from repro.core.lca_kp import LCAKP

    sampler = WeightedSampler(instance)
    oracle = QueryOracle(instance)
    return LCAKP(sampler, oracle, params.epsilon, seed, params=params), sampler, oracle


class SegmentLedger:
    """Shared-memory segments one test created, for leak checks that do
    not see other processes' live segments on the same host."""

    def __init__(self) -> None:
        self.names: list[str] = []

    def leaked(self) -> list[str]:
        """This test's segments still visible on the host."""
        from repro.knapsack.shm import orphaned_system_segments

        return [
            found
            for found in orphaned_system_segments()
            if any(found.startswith(name) for name in self.names)
        ]


@pytest.fixture()
def segments(monkeypatch) -> SegmentLedger:
    """Record every :meth:`SharedInstanceStore.create` of this test."""
    from repro.knapsack.shm import SharedInstanceStore

    ledger = SegmentLedger()
    create = SharedInstanceStore.create.__func__

    def recording(cls, *args, **kwargs):
        store = create(cls, *args, **kwargs)
        ledger.names.append(store.handle.name)
        return store

    monkeypatch.setattr(SharedInstanceStore, "create", classmethod(recording))
    return ledger
