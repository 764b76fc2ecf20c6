"""`beside`: one side function on a short-lived helper thread.

The primitive's contract, independent of its two call sites: both
results come back, an exception from either function re-raises in the
caller only after the helper is joined, no thread outlives a call, a
call that finds the single slot taken runs inline, and a child forked
while the slot was held can still split.  ``_cpus`` is pinned to 2 so
the helper path runs on a one-CPU host too.
"""

import multiprocessing
import os
import sys
import threading
import time

import pytest

from repro.access import beside as beside_module
from repro.access.beside import SPLIT_MIN_ROWS, beside

ROWS = SPLIT_MIN_ROWS
CPUS = beside_module._cpus  # before the fixture pins it


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    monkeypatch.setattr(beside_module, "_cpus", lambda: 2)


def where():
    """The thread this runs on."""
    return threading.get_ident()


def test_side_runs_on_a_helper_at_the_threshold():
    main, side = beside(where, where, ROWS)
    assert main == threading.get_ident()
    assert side != main


@pytest.mark.parametrize("rows", [0, 1, ROWS - 1])
def test_below_the_threshold_both_run_inline(rows):
    assert beside(where, where, rows) == (threading.get_ident(),) * 2


def test_one_cpu_runs_inline(monkeypatch):
    monkeypatch.setattr(beside_module, "_cpus", lambda: 1)
    assert beside(where, where, ROWS) == (threading.get_ident(),) * 2


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity"), reason="no affinity mask here"
)
def test_cpus_counts_the_affinity_mask():
    assert CPUS() == len(os.sched_getaffinity(0))


def test_no_thread_outlives_a_call():
    before = threading.enumerate()
    assert beside(lambda: 1, lambda: 2, ROWS) == (1, 2)
    assert threading.enumerate() == before
    assert not beside_module._SLOT.locked()


def test_side_exception_re_raises_after_the_join():
    before = threading.enumerate()
    finished = threading.Event()

    def side():
        finished.wait(5)
        raise KeyError("side")

    def main():
        finished.set()
        return "main"

    with pytest.raises(KeyError, match="side"):
        beside(main, side, ROWS)
    assert threading.enumerate() == before
    assert not beside_module._SLOT.locked()


def test_main_exception_re_raises_after_the_join():
    before = threading.enumerate()
    side_done = threading.Event()

    def side():
        side_done.wait(0.05)
        side_done.set()

    def main():
        raise ValueError("main")

    with pytest.raises(ValueError, match="main"):
        beside(main, side, ROWS)
    assert side_done.is_set()
    assert threading.enumerate() == before
    assert not beside_module._SLOT.locked()


def test_main_exception_wins_over_side_exception():
    def side():
        raise KeyError("side")

    def main():
        raise ValueError("main")

    with pytest.raises(ValueError, match="main"):
        beside(main, side, ROWS)


def test_a_held_slot_makes_the_call_inline():
    """While another thread holds the slot, a second call neither waits
    for it nor starts a helper, and its results are still right."""
    held, release = threading.Event(), threading.Event()
    seen = []

    def hold():
        def main():
            held.set()
            release.wait(5)
            return "outer"

        seen.append(beside(main, lambda: "outer side", ROWS))

    outer = threading.Thread(target=hold)
    outer.start()
    try:
        assert held.wait(5)
        assert beside_module._SLOT.locked()
        me = threading.get_ident()
        assert beside(where, where, ROWS) == (me, me)
        assert beside(lambda: [1, 2], lambda: {3}, ROWS) == ([1, 2], {3})
    finally:
        release.set()
        outer.join(30)
    assert not outer.is_alive()
    assert seen == [("outer", "outer side")]
    assert not beside_module._SLOT.locked()


def test_racing_callers_share_one_helper():
    """More callers than cores, switching threads every microsecond:
    each call gets its own results back, no two helpers ever run at
    once, and none survives."""
    before = threading.enumerate()
    guard = threading.Lock()
    running = [0, 0]  # helpers running now, most ever at once
    wrong = []

    def side(value, caller):
        if threading.get_ident() == caller:  # inline: the slot was taken
            return value
        with guard:
            running[0] += 1
            running[1] = max(running)
        time.sleep(0.0001)
        with guard:
            running[0] -= 1
        return value

    def caller(k):
        me = threading.get_ident()
        for j in range(50):
            got = beside(lambda: (k, j), lambda: side((j, k), me), ROWS)
            if got != ((k, j), (j, k)):
                wrong.append(got)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(k,)) for k in range(8)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert wrong == []
    assert running == [0, 1]
    assert threading.enumerate() == before
    assert not beside_module._SLOT.locked()


def _split_in_child(queue):
    main, side = beside(where, where, ROWS)
    queue.put(main != side)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
def test_a_child_forked_while_the_slot_was_held_can_split():
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    with beside_module._SLOT:
        child = ctx.Process(target=_split_in_child, args=(queue,))
        child.start()
        try:
            assert queue.get(timeout=30) is True
        finally:
            child.join(30)
    assert child.exitcode == 0
