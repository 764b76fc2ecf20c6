"""Overload governor: graded, deterministic responses to sustained load.

Under sustained overload the Section 3 impossibility results apply at
system scale: past the saturation knee the service *cannot* answer
every query at full quality — the only question is what it does
instead.  Binary shedding (the load harness's bounded queue) answers
"drop the excess"; this module makes the response graded and
deterministic, in the repo's seeded/virtual-clock idiom:

* **deadline admission control** — queries carry deadlines; work whose
  deadline has already passed at dispatch is shed (reason-coded, never
  billed) instead of being served to nobody;
* :class:`BrownoutController` — a hysteresis state machine over queue
  depth and recent dispatch wait that steps the existing degradation
  ladder (full → any-nonce cache → greedy → shed) *before* the queue
  overflows, trading bounded quality for availability exactly as
  Section 4 trades approximation slack for probe complexity.

The stuck-shard watchdog — the third mechanism — lives in
:mod:`repro.serve.service` (it needs the process-pool internals); the
state machine here is what ``docs/robustness.md`` documents.

The brownout controller is a pure function of its observation
sequence — no wall clock, no RNG — so a virtual-clock overload sweep
replays byte-identically (the CI ``overload-smoke`` contract).  It is
additionally *monotone*: an observation sequence that is
pointwise at least as pressured never yields a lower degradation level
(the hypothesis property test in ``tests/load/test_overload.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError
from ..obs import runtime as _obs

__all__ = ["BROWNOUT_LEVELS", "BrownoutConfig", "BrownoutController"]

#: The degradation ladder as brownout rungs, mildest first.  Level 0
#: serves the honest Theorem 4.1 path; levels 1-2 reuse the reason-coded
#: ladder (:mod:`repro.serve.degraded`); level 3 sheds new arrivals at
#: admission — the paper's "fail visibly" posture once even greedy
#: quality cannot keep up.
BROWNOUT_LEVELS = ("full", "cache", "greedy", "shed")


# ----------------------------------------------------------------------
# Brownout: hysteresis over queue depth / dispatch wait
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BrownoutConfig:
    """Thresholds of the brownout hysteresis state machine.

    Parameters
    ----------
    high_fraction, low_fraction:
        Queue-occupancy fractions: at or above ``high_fraction`` the
        observation counts as *pressure*, at or below ``low_fraction``
        (with wait under target) as *relief*; in between is neutral
        (both patience counters reset — hysteresis, not averaging).
    wait_target_s:
        Dispatch-wait budget: a dispatch whose head-of-queue query
        waited at least this long counts as pressure regardless of
        occupancy (the queue may be shallow but slow).
    patience:
        Consecutive pressure (relief) observations required before the
        level steps up (down).  One observation per admission/dispatch,
        so reaction time scales with traffic, not wall time.
    max_level:
        Highest rung the controller may reach (3 = shed).
    """

    high_fraction: float = 0.5
    low_fraction: float = 0.125
    wait_target_s: float = 0.025
    patience: int = 3
    max_level: int = 3

    def __post_init__(self) -> None:
        if not 0.0 <= self.low_fraction < self.high_fraction <= 1.0:
            raise ReproError(
                "need 0 <= low_fraction < high_fraction <= 1, got "
                f"low={self.low_fraction}, high={self.high_fraction}"
            )
        if self.wait_target_s <= 0:
            raise ReproError(
                f"wait_target_s must be > 0, got {self.wait_target_s}"
            )
        if self.patience < 1:
            raise ReproError(f"patience must be >= 1, got {self.patience}")
        if not 0 <= self.max_level < len(BROWNOUT_LEVELS):
            raise ReproError(
                f"max_level must lie in [0, {len(BROWNOUT_LEVELS) - 1}], "
                f"got {self.max_level}"
            )


class BrownoutController:
    """Deterministic hysteresis over ``(queue fraction, dispatch wait)``.

    State is ``(level, hot, cool)``: ``hot`` counts consecutive
    pressure observations, ``cool`` consecutive relief observations; a
    neutral observation resets both.  ``hot`` reaching ``patience``
    steps the level up (and resets ``hot``); ``cool`` reaching
    ``patience`` steps it down.  At the boundary levels the counters
    saturate instead of resetting, which is what makes the machine
    monotone: if sequence A is pointwise at least as pressured as
    sequence B (``queue_fraction`` and ``wait_s`` both no smaller at
    every step), then A's level never falls below B's.
    """

    __slots__ = ("_config", "_level", "_hot", "_cool", "transitions", "max_level_seen")

    def __init__(self, config: BrownoutConfig | None = None) -> None:
        self._config = config or BrownoutConfig()
        self._level = 0
        self._hot = 0
        self._cool = 0
        self.transitions = 0
        self.max_level_seen = 0

    @property
    def config(self) -> BrownoutConfig:
        """The thresholds in force."""
        return self._config

    @property
    def level(self) -> int:
        """Current degradation level (index into :data:`BROWNOUT_LEVELS`)."""
        return self._level

    @property
    def rung(self) -> str:
        """Current rung name."""
        return BROWNOUT_LEVELS[self._level]

    def observe(self, queue_fraction: float, wait_s: float) -> int:
        """Feed one observation; returns the (possibly stepped) level."""
        cfg = self._config
        pressure = (
            queue_fraction >= cfg.high_fraction or wait_s >= cfg.wait_target_s
        )
        relief = (
            queue_fraction <= cfg.low_fraction and wait_s < cfg.wait_target_s
        )
        if pressure:
            self._cool = 0
            self._hot = min(self._hot + 1, cfg.patience)
            if self._hot >= cfg.patience and self._level < cfg.max_level:
                self._level += 1
                self._hot = 0
                self.transitions += 1
                if self._level > self.max_level_seen:
                    self.max_level_seen = self._level
                _obs.record_event(
                    "overload.brownout",
                    direction="up",
                    level=self._level,
                    rung=self.rung,
                )
        elif relief:
            self._hot = 0
            self._cool = min(self._cool + 1, cfg.patience)
            if self._cool >= cfg.patience and self._level > 0:
                self._level -= 1
                self._cool = 0
                self.transitions += 1
                _obs.record_event(
                    "overload.brownout",
                    direction="down",
                    level=self._level,
                    rung=self.rung,
                )
        else:
            self._hot = 0
            self._cool = 0
        return self._level
