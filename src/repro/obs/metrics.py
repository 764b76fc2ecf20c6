"""Metrics primitives: counters, gauges, and streaming histograms.

The registry is the always-on half of the observability substrate (the
tracer in :mod:`repro.obs.trace` is the opt-in half).  Everything here
is dependency-free and cheap enough to sit on the query hot path: a
counter increment is two attribute lookups and an integer add, and a
histogram observation is one ``math.log`` plus a dict update.

:class:`Histogram` estimates quantiles *without storing samples*: it
keeps counts in geometrically-spaced buckets (a fixed number of buckets
per decade), so p50/p90/p99 come back with bounded *relative* error —
about ``(b - 1) / 2`` where ``b`` is the per-bucket growth factor
(~1.8% at the default 64 buckets/decade) — regardless of how many
observations were made.  Exact ``min``/``max``/``sum``/``count`` are
tracked alongside and quantile estimates are clamped into
``[min, max]``.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

# v2: snapshots ride the BenchDocument/RunContext envelope (name,
# title, context.bench="metrics") when emitted by the CLI; the bare
# registry snapshot carries the tag plus the three metric maps.
SNAPSHOT_SCHEMA = "metrics-snapshot/v2"


class Counter:
    """A monotonically non-decreasing integer counter."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be >= 0) to the counter."""
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc({n}))")
        self._value += n

    @property
    def value(self) -> int:
        """Current count."""
        return self._value

    def reset(self) -> None:
        """Zero the counter (snapshot deltas are the usual alternative)."""
        self._value = 0


class Gauge:
    """A value that goes up and down (queue depth, last latency, ...)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self._value = float(value)

    def add(self, delta: float) -> None:
        """Shift the current level by ``delta``."""
        self._value += float(delta)

    @property
    def value(self) -> float:
        """Current level."""
        return self._value

    def reset(self) -> None:
        """Return the gauge to zero."""
        self._value = 0.0


class Histogram:
    """Streaming histogram with geometric buckets and O(1) memory per
    occupied bucket.

    Positive observations land in bucket ``floor(log10(v) * bpd)`` where
    ``bpd`` is ``buckets_per_decade``; zero and negative observations
    are counted in dedicated side-buckets (negatives keep their total
    and minimum, which is all the quantile path needs for the workloads
    here — durations and counts are non-negative).
    """

    __slots__ = (
        "name",
        "_bpd",
        "_buckets",
        "_zero",
        "_neg",
        "_count",
        "_sum",
        "_min",
        "_max",
    )

    def __init__(self, name: str, *, buckets_per_decade: int = 64) -> None:
        if buckets_per_decade < 1:
            raise ValueError("buckets_per_decade must be >= 1")
        self.name = name
        self._bpd = buckets_per_decade
        self._buckets: dict[int, int] = {}
        self._zero = 0
        self._neg = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        """Record one observation."""
        v = float(value)
        if math.isnan(v):
            raise ValueError(f"histogram {self.name!r} cannot observe NaN")
        self._count += 1
        self._sum += v
        if v < self._min:
            self._min = v
        if v > self._max:
            self._max = v
        if v > 0:
            idx = math.floor(math.log10(v) * self._bpd)
            self._buckets[idx] = self._buckets.get(idx, 0) + 1
        elif v == 0:
            self._zero += 1
        else:
            self._neg += 1

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of observations."""
        for v in values:
            self.observe(v)

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    @property
    def min(self) -> float:
        """Exact minimum observed (``inf`` when empty)."""
        return self._min

    @property
    def max(self) -> float:
        """Exact maximum observed (``-inf`` when empty)."""
        return self._max

    @property
    def mean(self) -> float:
        """Exact mean (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``).

        Walks the cumulative bucket counts and returns the geometric
        midpoint of the bucket holding rank ``q * (count - 1)``; the
        estimate is clamped to the exact observed range.  Raises on an
        empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must lie in [0, 1], got {q}")
        if self._count == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        rank = q * (self._count - 1)
        # Negative observations sort first, then zeros, then the
        # geometric buckets in index order.
        cum = self._neg
        if rank < cum:
            return self._min
        cum += self._zero
        if rank < cum:
            return 0.0 if self._min > 0 else max(self._min, 0.0)
        for idx in sorted(self._buckets):
            cum += self._buckets[idx]
            if rank < cum:
                lo = 10.0 ** (idx / self._bpd)
                hi = 10.0 ** ((idx + 1) / self._bpd)
                return min(max(math.sqrt(lo * hi), self._min), self._max)
        return self._max

    def snapshot(self) -> dict:
        """JSON-ready summary (count/sum/min/max/mean + p50/p90/p99)."""
        if self._count == 0:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }

    def reset(self) -> None:
        """Forget all observations."""
        self._buckets.clear()
        self._zero = self._neg = self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Full lossless internal state (bucket counts, not quantile
        summaries) — the mergeable form shipped across process
        boundaries.  Plain dicts/ints/floats, so it pickles and JSONs.
        """
        return {
            "bpd": self._bpd,
            "buckets": {str(k): v for k, v in self._buckets.items()},
            "zero": self._zero,
            "neg": self._neg,
            "count": self._count,
            "sum": self._sum,
            "min": None if math.isinf(self._min) else self._min,
            "max": None if math.isinf(self._max) else self._max,
        }

    def merge_state(self, state: dict) -> None:
        """Fold another histogram's :meth:`state` into this one.

        Bucket-wise addition is exact for everything the histogram
        tracks (count, sum, min, max, and every bucket count), so a
        merged histogram is indistinguishable from one that observed
        both streams directly.  Requires equal ``buckets_per_decade``.
        """
        bpd = int(state["bpd"])
        if bpd != self._bpd:
            raise ValueError(
                f"histogram {self.name!r}: cannot merge state with "
                f"buckets_per_decade={bpd} into {self._bpd}"
            )
        for key, n in state.get("buckets", {}).items():
            idx = int(key)
            self._buckets[idx] = self._buckets.get(idx, 0) + int(n)
        self._zero += int(state.get("zero", 0))
        self._neg += int(state.get("neg", 0))
        self._count += int(state.get("count", 0))
        self._sum += float(state.get("sum", 0.0))
        smin, smax = state.get("min"), state.get("max")
        if smin is not None and float(smin) < self._min:
            self._min = float(smin)
        if smax is not None and float(smax) > self._max:
            self._max = float(smax)

    def since(self, state: dict) -> "Histogram":
        """The observations made after ``state`` (an earlier
        :meth:`state` of this histogram), as a new histogram.

        The inverse of :meth:`merge_state`: count, sum and every bucket
        count are exact.  The window's min (max) is exact when it set a
        new min (max) of this histogram; otherwise it is the edge of the
        window's lowest (highest) bucket, clamped to the observed range —
        the same resolution :meth:`quantile` has.
        """
        if int(state["bpd"]) != self._bpd:
            raise ValueError(
                f"histogram {self.name!r}: state has buckets_per_decade="
                f"{state['bpd']}, not {self._bpd}"
            )
        delta = Histogram(self.name, buckets_per_decade=self._bpd)
        before = state.get("buckets", {})
        for idx, n in self._buckets.items():
            added = n - int(before.get(str(idx), 0))
            if added:
                delta._buckets[idx] = added
        delta._zero = self._zero - int(state.get("zero", 0))
        delta._neg = self._neg - int(state.get("neg", 0))
        delta._count = self._count - int(state.get("count", 0))
        delta._sum = self._sum - float(state.get("sum", 0.0))
        if delta._count == 0:
            return delta
        smin, smax = state.get("min"), state.get("max")
        if smin is None or self._min < float(smin) or delta._neg:
            delta._min = self._min
        elif delta._zero:
            delta._min = 0.0
        else:
            delta._min = max(10.0 ** (min(delta._buckets) / self._bpd), self._min)
        if smax is None or self._max > float(smax):
            delta._max = self._max
        elif delta._buckets:
            delta._max = min(10.0 ** ((max(delta._buckets) + 1) / self._bpd), self._max)
        else:
            delta._max = min(self._max, 0.0)
        return delta


class MetricsRegistry:
    """Named home for the process's counters, gauges, and histograms.

    ``counter``/``gauge``/``histogram`` are get-or-create: the first
    call with a name creates the metric, later calls return the same
    object (asking for an existing name as a *different* kind is an
    error).  ``snapshot()`` returns one JSON-ready dict for the whole
    registry — the payload behind ``repro metrics`` and the bench
    telemetry exports.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, kind: type, **kwargs):
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, kind):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {kind.__name__}"
                    )
                return existing
            metric = kind(name, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str, *, buckets_per_decade: int = 64) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get_or_create(
            name, Histogram, buckets_per_decade=buckets_per_decade
        )

    # ------------------------------------------------------------------
    def names(self) -> list[str]:
        """Sorted names of all registered metrics."""
        return sorted(self._metrics)

    def snapshot(self) -> dict:
        """One JSON-ready dict covering every registered metric."""
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = metric.snapshot()
        return {
            "schema": SNAPSHOT_SCHEMA,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def counter_values(self) -> dict[str, int]:
        """Current counter values only — the cheap per-tick read the
        timeline sampler diffs (no histogram summarization)."""
        return {
            name: m.value
            for name, m in sorted(self._metrics.items())
            if isinstance(m, Counter)
        }

    def gauge_values(self) -> dict[str, float]:
        """Current gauge levels only (see :meth:`counter_values`)."""
        return {
            name: m.value
            for name, m in sorted(self._metrics.items())
            if isinstance(m, Gauge)
        }

    def reset(self) -> None:
        """Reset every metric in place (objects keep their identity)."""
        for metric in self._metrics.values():
            metric.reset()

    # ------------------------------------------------------------------
    def state(self) -> dict:
        """Lossless, mergeable registry state (vs. :meth:`snapshot`,
        which summarizes histograms into quantile estimates)."""
        counters: dict[str, int] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for name in self.names():
            metric = self._metrics[name]
            if isinstance(metric, Counter):
                counters[name] = metric.value
            elif isinstance(metric, Gauge):
                gauges[name] = metric.value
            else:
                histograms[name] = metric.state()
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def merge_state(self, state: dict, *, include_gauges: bool = False) -> None:
        """Fold another registry's :meth:`state` into this one.

        Counters add and histograms merge bucket-wise — both are totals,
        so cross-process folding is exact.  Gauges are *levels*, not
        totals; they are skipped unless ``include_gauges`` forces a
        last-writer-wins overwrite.
        """
        for name, value in state.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, hist_state in state.get("histograms", {}).items():
            self.histogram(
                name, buckets_per_decade=int(hist_state["bpd"])
            ).merge_state(hist_state)
        if include_gauges:
            for name, value in state.get("gauges", {}).items():
                self.gauge(name).set(float(value))
