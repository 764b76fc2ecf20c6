"""The accounting invariant behind ``repro trace``: every charged
oracle query and weighted sample lands in exactly one span, so per-phase
span counters sum to the oracles' own counts — exactly, not
approximately."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.access.oracle import QueryOracle
from repro.access.weighted_sampler import WeightedSampler
from repro.core.lca_kp import LCAKP
from repro.core.parameters import LCAParameters
from repro.knapsack import generators
from repro.obs.runtime import TRACER
from repro.obs.trace import phase_counts
from repro.reproducible.domains import EfficiencyDomain

#: Span names documented in docs/observability.md; attribution must not
#: invent phases outside this vocabulary.
KNOWN_PHASES = {
    "test.root",
    "lca.answer",
    "lca.pipeline",
    "sample.large",
    "eps.estimate",
    "simplify.build",
    "convert.greedy",
    "tie.breaking",
    "oracle.reveal",
}


@pytest.fixture(autouse=True)
def _tracer_lifecycle():
    TRACER.clear()
    TRACER.enable()
    yield
    TRACER.disable()
    TRACER.clear()


def _fast_params(epsilon: float) -> LCAParameters:
    return LCAParameters.calibrated(
        epsilon,
        domain=EfficiencyDomain(bits=10),
        max_nrq=1_500,
        max_m_large=1_500,
    )


@settings(max_examples=12, deadline=None)
@given(
    family=st.sampled_from(["efficiency_tiers", "uniform", "planted_lsg"]),
    instance_seed=st.integers(min_value=0, max_value=10_000),
    nonce=st.integers(min_value=1, max_value=2**32),
    query=st.integers(min_value=0, max_value=199),
    tie_breaking=st.booleans(),
)
def test_span_counts_partition_oracle_accounting(
    family, instance_seed, nonce, query, tie_breaking
):
    epsilon = 0.1
    kwargs = {"epsilon": epsilon} if family == "planted_lsg" else {}
    instance = generators.generate(family, 200, seed=instance_seed, **kwargs)
    sampler = WeightedSampler(instance)
    oracle = QueryOracle(instance)
    lca = LCAKP(
        sampler,
        oracle,
        epsilon,
        seed=7,
        params=_fast_params(epsilon),
        tie_breaking=tie_breaking,
    )
    with TRACER.span("test.root") as root:
        lca.answer(query, nonce=nonce)

    queries_by_phase = phase_counts(root, "queries")
    samples_by_phase = phase_counts(root, "samples")
    assert sum(queries_by_phase.values()) == oracle.queries_used
    assert sum(samples_by_phase.values()) == sampler.samples_used
    assert oracle.queries_used >= 1  # at least the point reveal
    assert set(queries_by_phase) | set(samples_by_phase) <= KNOWN_PHASES


def test_batch_answers_share_one_pipeline(tiers_instance, fast_params, epsilon):
    sampler = WeightedSampler(tiers_instance)
    oracle = QueryOracle(tiers_instance)
    lca = LCAKP(sampler, oracle, epsilon, seed=7, params=fast_params)
    with TRACER.span("test.root") as root:
        lca.answer_many([0, 1, 2, 3], nonce=5)
    queries_by_phase = phase_counts(root, "queries")
    assert queries_by_phase["oracle.reveal"] == 4 == oracle.queries_used
    # One pipeline run, not four.
    assert sum(1 for s, _ in root.walk() if s.name == "lca.pipeline") == 1
    assert sum(phase_counts(root, "samples").values()) == sampler.samples_used
