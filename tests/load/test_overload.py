"""Overload governor: brownout hysteresis, governed sweeps.

The brownout controller is a pure function of its observation sequence
(no wall clock, no RNG), so the tests assert exact trajectories; the
sweep tests assert byte-identical replay, the CI ``overload-smoke``
contract.  The hypothesis test pins the monotonicity claim from
``repro.serve.overload``: a pointwise more-pressured observation
sequence never yields a lower degradation level.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.load import LoadHarness, ServiceModel, run_overload_sweep
from repro.obs.schema import validate_bench_overload
from repro.serve import KnapsackService
from repro.serve.overload import BROWNOUT_LEVELS, BrownoutConfig, BrownoutController


class TestBrownoutController:
    def test_steps_up_after_patience_pressure_observations(self):
        ctl = BrownoutController(BrownoutConfig(patience=2))
        assert ctl.observe(0.9, 0.0) == 0  # hot=1
        assert ctl.observe(0.9, 0.0) == 1  # hot=2 -> step
        assert ctl.rung == BROWNOUT_LEVELS[1] == "cache"
        assert ctl.observe(0.9, 0.0) == 1
        assert ctl.observe(0.9, 0.0) == 2
        assert ctl.transitions == 2 and ctl.max_level_seen == 2

    def test_wait_alone_counts_as_pressure(self):
        ctl = BrownoutController(BrownoutConfig(patience=1, wait_target_s=0.01))
        assert ctl.observe(0.0, 0.02) == 1  # shallow queue, slow head

    def test_neutral_resets_both_counters(self):
        cfg = BrownoutConfig(patience=2, low_fraction=0.1, high_fraction=0.5)
        ctl = BrownoutController(cfg)
        for _ in range(10):
            ctl.observe(0.9, 0.0)   # pressure
            ctl.observe(0.3, 0.0)   # neutral: between low and high
        assert ctl.level == 0 and ctl.transitions == 0

    def test_relief_steps_back_down(self):
        ctl = BrownoutController(BrownoutConfig(patience=1))
        ctl.observe(1.0, 1.0)
        assert ctl.level == 1
        ctl.observe(0.0, 0.0)
        assert ctl.level == 0
        assert ctl.transitions == 2 and ctl.max_level_seen == 1

    def test_max_level_caps_the_ladder(self):
        ctl = BrownoutController(BrownoutConfig(patience=1, max_level=2))
        for _ in range(20):
            ctl.observe(1.0, 1.0)
        assert ctl.level == 2

    def test_bad_config_rejected(self):
        with pytest.raises(ReproError):
            BrownoutConfig(high_fraction=0.2, low_fraction=0.3)
        with pytest.raises(ReproError):
            BrownoutConfig(patience=0)
        with pytest.raises(ReproError):
            BrownoutConfig(max_level=4)

    @settings(max_examples=200, deadline=None)
    @given(
        obs=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=0.1),
            ),
            min_size=1,
            max_size=60,
        ),
        bumps=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=0.1),
            ),
            min_size=60,
            max_size=60,
        ),
    )
    def test_monotone_under_pointwise_dominance(self, obs, bumps):
        """A pointwise more-pressured sequence never degrades *less*."""
        cfg = BrownoutConfig(patience=2)
        calm, hot = BrownoutController(cfg), BrownoutController(cfg)
        for (qf, wait), (dq, dw) in zip(obs, bumps):
            lo = calm.observe(qf, wait)
            hi = hot.observe(min(qf + dq, 1.0), wait + dw)
            assert hi >= lo


@pytest.fixture(scope="module")
def service(uniform_instance, fast_params):
    return KnapsackService(
        uniform_instance, 0.1, 42, params=fast_params, cache_capacity=8
    )


def governed_harness(service, **kw):
    kw.setdefault("clock", "virtual")
    kw.setdefault("seed", 7)
    kw.setdefault("workers", 1)
    kw.setdefault("batch_max", 1)
    kw.setdefault("service_model", ServiceModel(base_s=0.002, per_query_s=0.0005))
    return LoadHarness(service, **kw)


class TestGovernedHarness:
    OVERLOADED = 800.0  # 2x the 1-worker modelled capacity of 400 q/s

    def test_plain_rows_carry_no_governor_keys(self, service):
        row = governed_harness(service).run_rate(100.0, 40)
        assert "deadline_shed" not in row and "brownout" not in row

    def test_deadline_sheds_doomed_work_at_dispatch(self, service):
        row = governed_harness(service, deadline_s=0.05).run_rate(
            self.OVERLOADED, 120
        )
        assert row["deadline_shed"] > 0
        assert row["dropped"] >= row["deadline_shed"]
        assert row["completed"] + row["dropped"] == row["queries"]
        # Every served query met its deadline: latency < deadline + one
        # batch service time.
        assert row["p99_latency_ms"] <= (0.05 + 0.0025) * 1000 + 1e-6

    def test_brownout_buys_goodput_over_deadline_alone(self, service):
        off = governed_harness(service, deadline_s=0.05).run_rate(
            self.OVERLOADED, 120
        )
        on = governed_harness(
            service, deadline_s=0.05, brownout=BrownoutConfig()
        ).run_rate(self.OVERLOADED, 120)
        assert on["completed"] > off["completed"]
        assert on["degraded"] > 0  # the extra completions are reason-coded
        assert on["brownout_max_level"] >= 1
        assert on["brownout_transitions"] >= 1

    def test_brownout_requires_virtual_clock(self, service):
        with pytest.raises(ReproError, match="virtual"):
            LoadHarness(service, clock="wall", brownout=BrownoutConfig())

    def test_bad_governor_knobs_rejected(self, service):
        with pytest.raises(ReproError):
            LoadHarness(service, deadline_s=0.0)
        with pytest.raises(ReproError):
            LoadHarness(service, service_workers=-1)

    def test_governed_run_is_deterministic(self, service):
        kw = dict(deadline_s=0.05, brownout=BrownoutConfig())
        a = governed_harness(service, **kw).run_rate(self.OVERLOADED, 120)
        b = governed_harness(service, **kw).run_rate(self.OVERLOADED, 120)
        assert a == b


class TestOverloadSweep:
    CFG = {"n": 300, "queries": 120, "cap": 2_000}

    def test_document_validates_and_replays_byte_identically(self):
        rows_a, knee_a, doc_a = run_overload_sweep(dict(self.CFG))
        validate_bench_overload(doc_a)
        _, _, doc_b = run_overload_sweep(dict(self.CFG))
        assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)

    def test_comparison_block_verdict(self):
        _, knee, doc = run_overload_sweep(dict(self.CFG))
        comp = doc["comparison"]
        assert knee["detected"]
        assert comp["rate"] == pytest.approx(2.0 * knee["knee_rate"])
        assert comp["floor_met"] and comp["off_below_on"]
        assert comp["availability_on"] >= comp["floor"]
        assert comp["availability_off"] < comp["availability_on"]

    def test_two_ledgers_never_conflate(self):
        rows, _, _ = run_overload_sweep(dict(self.CFG))
        for row in rows:
            if row["mode"] == "overload-base":
                assert "full_quality" not in row
            else:
                assert row["full_quality"] <= row["availability"] + 1e-9

    def test_rerun_from_context_matches(self):
        from repro.obs.context import RunContext

        _, _, doc = run_overload_sweep(dict(self.CFG))
        fresh = RunContext.from_document(doc).rerun()
        assert json.dumps(fresh, sort_keys=True) == json.dumps(doc, sort_keys=True)

    def test_unknown_config_keys_ignored(self):
        _, _, doc = run_overload_sweep({**self.CFG, "no_such_knob": 1})
        assert "no_such_knob" not in doc["context"]
