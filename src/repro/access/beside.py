"""Run one function beside another on a short-lived helper thread.

:func:`beside` serves the two bulk O(rows) passes whose work releases
the GIL for nearly all of its time (hashlib over a column, numpy's
gathers and compares): the instance fingerprint beside the alias-table
build, and the upper half of a large draw block's alias settle beside
its lower half.  A second core then does the side function's work while
the caller does its own.

The helper is a plain thread started and joined inside the call, so no
thread outlives it, and there is never more than one helper: the slot
is taken without blocking, and a call that finds it taken runs both
functions inline.  Neither side function may touch shared observability
state; their time lands in the caller's enclosing span.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, TypeVar

__all__ = ["SPLIT_MIN_ROWS", "beside"]

A = TypeVar("A")
B = TypeVar("B")

#: Fewest rows for which the side function runs on a helper thread.
#: Starting and joining the thread costs about 0.1 ms.  ``draw_many``
#: on a planted_lsg table at n=10^6 (2-CPU Xeon, medians of 60
#: alternating calls, inline -> split; both streams drawn in each):
#: 8,000 rows 189 -> 258 us (split won 0/60), 16,000 340 -> 368 us
#: (10/60), 32,000 641 -> 575 us (59/60), 48,000 922 -> 769 us
#: (60/60), 65,536 1.83 -> 1.50 ms (60/60), 240,000 4.16 -> 3.04 ms
#: (59/60).  The crossover lies between 2^14 and 2^15 rows and moves
#: with the host's load (a busier run put it at 2^15); 2^16 leaves a
#: margin, and keeps every capped-parameter block (at most 8,000 rows)
#: inline.
SPLIT_MIN_ROWS = 1 << 16

#: The single helper slot; re-created in a forked child (see below).
_SLOT = threading.Lock()


def _fresh_slot() -> None:
    # A child forked while a split was in flight inherits the slot held
    # by a thread that does not exist in it; give the child a free one.
    global _SLOT
    _SLOT = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_slot)


def _cpus() -> int:
    """CPUs this process may run on (its affinity mask, where known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def beside(main: Callable[[], A], side: Callable[[], B], rows: int) -> tuple[A, B]:
    """``(main(), side())``, with ``side`` on a helper thread when it pays.

    ``side`` runs on a new thread, beside ``main`` on the caller, only
    when ``rows >= SPLIT_MIN_ROWS``, the process may run on more than one
    CPU, and no other call holds the helper slot; otherwise ``main()``
    then ``side()`` run inline.  The two must not depend on each other's
    effects.  The helper is always joined before this returns or raises;
    an exception from ``main`` takes precedence over one from ``side``,
    and either re-raises in the caller.
    """
    if rows < SPLIT_MIN_ROWS or _cpus() < 2:
        return main(), side()
    slot = _SLOT
    if not slot.acquire(blocking=False):
        return main(), side()
    try:
        outcome: list = [None, None]  # side's value, side's exception

        def run() -> None:
            try:
                outcome[0] = side()
            except BaseException as exc:  # re-raised on the caller
                outcome[1] = exc

        helper = threading.Thread(target=run, name="repro-beside")
        helper.start()
        try:
            out = main()
        finally:
            helper.join()
        if outcome[1] is not None:
            raise outcome[1]
        return out, outcome[0]
    finally:
        slot.release()
