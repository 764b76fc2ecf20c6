"""Open- and closed-loop request drivers: one process, caller threads.

The open loop models independent users: request ``k`` is due at a fixed
offset from the start whatever happened to earlier requests.  Callers
take requests in due order; a caller that is free early sleeps until the
request is due, a caller that is late sends at once.  Every request is
timed from when it was *due*, so a stalled caller or a late wake-up
shows up as latency instead of being hidden.  The stamps split it:

* ``ready - due``: due until a caller was free for it (``queue_wait``);
* ``start - due``: due until it was sent (``lateness``);
* ``end - due``: due until it was answered (``latency``).

The closed loop models callers that each wait for a reply: every caller
sends its next request as soon as the previous one returns.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class OpenLoopResult:
    due: np.ndarray
    ready: np.ndarray
    start: np.ndarray
    end: np.ndarray
    outcomes: list  # digest(call(k)), or the exception call(k) raised

    @property
    def latency(self) -> np.ndarray:
        return self.end - self.due

    @property
    def queue_wait(self) -> np.ndarray:
        return self.ready - self.due

    @property
    def lateness(self) -> np.ndarray:
        return self.start - self.due


def _serve(call, digest, k, outcomes) -> float:
    """Run request ``k``; returns the end stamp, taken before digesting."""
    try:
        result = call(k)
    except Exception as exc:  # a failed request is an outcome, not a crash
        end = time.perf_counter()
        outcomes[k] = exc
        return end
    end = time.perf_counter()
    outcomes[k] = digest(result)
    return end


def open_loop(call, digest, due_offsets, callers: int) -> OpenLoopResult:
    """Send request ``k`` at ``due_offsets[k]`` seconds after the start."""
    count = len(due_offsets)
    due = np.zeros(count)
    ready = np.zeros(count)
    start = np.zeros(count)
    end = np.zeros(count)
    outcomes: list = [None] * count
    numbers = itertools.count()
    t0 = time.perf_counter() + 0.005

    def caller() -> None:
        while (k := next(numbers)) < count:
            free = time.perf_counter()
            d = t0 + float(due_offsets[k])
            if d > free:
                time.sleep(d - free)
            start[k] = time.perf_counter()
            due[k] = d
            ready[k] = max(d, free)
            end[k] = _serve(call, digest, k, outcomes)

    threads = [threading.Thread(target=caller, daemon=True) for _ in range(callers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return OpenLoopResult(due, ready, start, end, outcomes)


@dataclass
class ClosedLoopResult:
    elapsed_s: float
    outcomes: dict  # request number -> digest, or the exception it raised


def closed_loop(call, digest, seconds: float, callers: int) -> ClosedLoopResult:
    """``callers`` threads send back to back until ``seconds`` have passed;
    request numbers count up from 0 across all callers."""
    numbers = itertools.count()
    outcomes: dict = {}
    finished = [0.0] * callers
    t0 = time.perf_counter()
    stop = t0 + seconds

    def caller(slot: int) -> None:
        while time.perf_counter() < stop:
            finished[slot] = _serve(call, digest, next(numbers), outcomes)

    threads = [
        threading.Thread(target=caller, args=(i,), daemon=True) for i in range(callers)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return ClosedLoopResult(max(max(finished), stop) - t0, outcomes)
