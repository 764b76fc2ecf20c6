"""Tests for the exception hierarchy.

Beyond subclass relationships, this module pins down two contracts:
every public ``ReproError`` subclass is raised by at least one *real*
trigger path in the library, and the fault family's ``reason_code``
strings survive a JSON round trip (degraded answers and chaos reports
serialize them).
"""

import json

import pytest

from repro.errors import (
    ConsistencyViolation,
    DomainError,
    ExperimentError,
    FaultInjectionError,
    InfeasibleSolutionError,
    InvalidInstanceError,
    NormalizationError,
    OracleError,
    ProbeFailureError,
    ProbeTimeoutError,
    QueryBudgetExceededError,
    ReproducibilityError,
    ReproError,
    RetriesExhaustedError,
    ShardFailureError,
    SolverError,
)


class TestHierarchy:
    def test_everything_is_a_repro_error(self):
        for exc_type in (
            InvalidInstanceError,
            NormalizationError,
            OracleError,
            SolverError,
            InfeasibleSolutionError,
            ReproducibilityError,
            DomainError,
            ExperimentError,
            FaultInjectionError,
            ProbeFailureError,
            ProbeTimeoutError,
            RetriesExhaustedError,
            ShardFailureError,
        ):
            assert issubclass(exc_type, ReproError)

    def test_specializations(self):
        assert issubclass(NormalizationError, InvalidInstanceError)
        assert issubclass(InfeasibleSolutionError, SolverError)
        assert issubclass(DomainError, ReproducibilityError)
        for fault in (
            ProbeFailureError,
            ProbeTimeoutError,
            RetriesExhaustedError,
            ShardFailureError,
        ):
            assert issubclass(fault, FaultInjectionError)

    def test_catching_the_base_catches_all(self):
        with pytest.raises(ReproError):
            raise DomainError("x")

    def test_catching_fault_injection_catches_the_family(self):
        with pytest.raises(FaultInjectionError):
            raise RetriesExhaustedError(
                probe="oracle", attempts=3, last_error=ProbeFailureError(probe="oracle")
            )


class TestStructuredErrors:
    def test_budget_error_carries_fields(self):
        err = QueryBudgetExceededError(budget=10, attempted=11)
        assert err.budget == 10
        assert err.attempted == 11
        assert "10" in str(err)

    def test_consistency_violation_carries_fields(self):
        err = ConsistencyViolation(query=7, answers=(True, False))
        assert err.query == 7
        assert err.answers == (True, False)
        assert "7" in str(err)

    def test_probe_failure_carries_fields(self):
        err = ProbeFailureError(probe="oracle.query_block", attempt=2)
        assert err.probe == "oracle.query_block"
        assert err.attempt == 2

    def test_timeout_carries_fields(self):
        err = ProbeTimeoutError(probe="sampler", latency_s=0.5, timeout_s=0.1)
        assert err.latency_s == 0.5
        assert err.timeout_s == 0.1

    def test_retries_exhausted_chains_the_last_error(self):
        last = ProbeFailureError(probe="oracle")
        err = RetriesExhaustedError(probe="oracle", attempts=4, last_error=last)
        assert err.attempts == 4
        assert err.last_error is last

    def test_shard_failure_carries_fields(self):
        err = ShardFailureError(shard=3, attempts=2, last_error=None)
        assert err.shard == 3
        assert err.attempts == 2


class TestReasonCodes:
    def test_reason_codes_are_distinct_and_json_safe(self):
        codes = {
            exc_type.reason_code
            for exc_type in (
                FaultInjectionError,
                ProbeFailureError,
                ProbeTimeoutError,
                RetriesExhaustedError,
                ShardFailureError,
            )
        }
        assert len(codes) == 5  # no two classes share a code
        assert json.loads(json.dumps(sorted(codes))) == sorted(codes)

    def test_reason_codes_are_registered_for_degradation(self):
        from repro.serve import DEGRADED_REASON_CODES

        for exc_type in (
            ProbeFailureError,
            ProbeTimeoutError,
            RetriesExhaustedError,
            ShardFailureError,
            FaultInjectionError,
        ):
            assert exc_type.reason_code in DEGRADED_REASON_CODES


class TestTriggerPaths:
    """Every public subclass is reachable from a real library call."""

    def test_invalid_instance(self):
        from repro.knapsack.instance import KnapsackInstance

        with pytest.raises(InvalidInstanceError):
            KnapsackInstance([1.0, 2.0], [0.1], 0.5, normalize=False)

    def test_normalization(self):
        from repro.knapsack.instance import KnapsackInstance

        with pytest.raises(NormalizationError):
            KnapsackInstance([0.0, 0.0], [0.1, 0.1], 0.5)

    def test_oracle(self):
        from repro.access.oracle import QueryOracle
        from repro.knapsack.instance import KnapsackInstance

        inst = KnapsackInstance([1.0], [0.1], 0.5, normalize=False)
        with pytest.raises(OracleError):
            QueryOracle(inst, budget=-1)

    def test_budget_exceeded(self):
        from repro.access.oracle import QueryOracle
        from repro.knapsack.instance import KnapsackInstance

        inst = KnapsackInstance([1.0], [0.1], 0.5, normalize=False)
        oracle = QueryOracle(inst, budget=0)
        with pytest.raises(QueryBudgetExceededError):
            oracle.query(0)

    def test_solver(self):
        from repro.access.oracle import QueryOracle
        from repro.knapsack.instance import KnapsackInstance
        from repro.lca.full_read import FullReadLCA

        inst = KnapsackInstance([1.0], [0.1], 0.5, normalize=False)
        with pytest.raises(SolverError):
            FullReadLCA(QueryOracle(inst), mode="bogus")

    def test_infeasible_solution(self):
        from repro.knapsack.instance import KnapsackInstance
        from repro.knapsack.verify import check_feasible

        inst = KnapsackInstance([1.0, 1.0], [0.4, 0.4], 0.5, normalize=False)
        with pytest.raises(InfeasibleSolutionError):
            check_feasible(inst, [0, 1], strict=True)

    def test_reproducibility(self):
        from repro.reproducible.heavy_hitters import reproducible_heavy_hitters

        with pytest.raises(ReproducibilityError):
            reproducible_heavy_hitters([], 0.5, seed=1)

    def test_domain(self):
        from repro.reproducible.domains import EfficiencyDomain

        with pytest.raises(DomainError):
            EfficiencyDomain(bits=0)

    def test_experiment(self):
        from repro.analysis.calibration import calibrate
        from repro.knapsack.generators import generate

        inst = generate("uniform", 20, seed=0)
        with pytest.raises(ExperimentError):
            calibrate(inst, 0.1, runs=1)

    def test_probe_failure_and_friends(self):
        # The fault family's trigger paths live in tests/faults/ and
        # tests/serve/; here we assert the raises are wired at all.
        from repro.access.oracle import QueryOracle
        from repro.faults import FaultPlan, FaultyAccess, RetryingAccess, RetryPolicy
        from repro.knapsack.instance import KnapsackInstance

        inst = KnapsackInstance([1.0, 2.0], [0.1, 0.1], 0.5, normalize=False)
        doomed = FaultPlan(seed=0, probe_failure_rate=1.0)
        with pytest.raises(ProbeFailureError):
            FaultyAccess(QueryOracle(inst), doomed.stream("x")).query(0)
        slow = FaultPlan(seed=0, latency_spike_rate=1.0, latency_spike_s=1.0)
        with pytest.raises(ProbeTimeoutError):
            FaultyAccess(
                QueryOracle(inst), slow.stream("x"), timeout_s=0.1
            ).query(0)
        with pytest.raises(RetriesExhaustedError):
            RetryingAccess(
                FaultyAccess(QueryOracle(inst), doomed.stream("y")),
                RetryPolicy(max_retries=1, seed=0),
            ).query(0)

    def test_base_repro_error(self):
        from repro.faults import RetryPolicy

        with pytest.raises(ReproError):
            RetryPolicy(max_retries=-1)
