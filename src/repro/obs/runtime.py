"""Process-global observability runtime: one registry, one tracer.

Instrumented modules (:mod:`repro.access.oracle`,
:mod:`repro.access.weighted_sampler`, :mod:`repro.core.lca_kp`, ...)
import this module and call the helpers below; nothing else in the
package should hold its own global metric state.

Two cost tiers, matching the ISSUE's overhead budget:

* **always on** — the registry counters (``oracle.queries``,
  ``sampler.samples``) and the per-batch size histogram.  An event is
  an integer add; the histogram sees one observation per *batch*, not
  per sample.
* **opt-in** — span attribution via :data:`TRACER`, active only after
  ``TRACER.enable()``.  Disabled, ``span()`` returns a shared no-op
  and ``record_*`` pays a single boolean check beyond the counter add.
"""

from __future__ import annotations

from .events import FlightRecorder
from .metrics import MetricsRegistry
from .timeline import TimelineSampler
from .trace import Tracer

__all__ = [
    "REGISTRY",
    "TRACER",
    "RECORDER",
    "TIMELINE",
    "activate_timeline",
    "deactivate_timeline",
    "timeline_config",
    "timeline_state",
    "span",
    "record_oracle_queries",
    "record_samples",
    "record_sample_block",
    "record_fault",
    "record_corruption_detected",
    "record_probe_retries",
    "record_degraded",
    "record_shard_retries",
    "record_shm",
    "record_event",
    "reset_worker_runtime",
    "snapshot",
]

#: The process-global metrics registry.
REGISTRY = MetricsRegistry()

#: The process-global tracer (disabled by default).
TRACER = Tracer()

#: The process-global flight recorder (always on; events are rare).
RECORDER = FlightRecorder()

#: The process-global timeline sampler (``None`` unless activated).
#: Process shards never rely on what a worker inherited: the parent
#: ships :func:`timeline_config` with every chunk and the worker builds
#: a fresh sampler from it (or none) in :func:`reset_worker_runtime`,
#: so a long-lived worker follows timelines activated after it forked.
TIMELINE: TimelineSampler | None = None


def activate_timeline(sampler: TimelineSampler | None) -> TimelineSampler | None:
    """Install ``sampler`` as the process-global timeline (or clear it
    with ``None``).  Returns the previously active sampler so callers
    can restore it."""
    global TIMELINE
    previous = TIMELINE
    TIMELINE = sampler
    return previous


def deactivate_timeline() -> None:
    """Clear the process-global timeline sampler."""
    activate_timeline(None)


def timeline_config() -> dict | None:
    """Picklable config of the active timeline (``None`` when off): what
    a process shard needs to capture on the same clock and grid."""
    return None if TIMELINE is None else TIMELINE.config()


def timeline_state() -> dict | None:
    """Mergeable state of the active timeline, or ``None`` when off.

    Takes one final registry-only capture first so short-lived shard
    workers ship their counter deltas home even if no grid tick fired
    during their lifetime.
    """
    if TIMELINE is None:
        return None
    TIMELINE.capture()
    return TIMELINE.state()

_ORACLE_QUERIES = REGISTRY.counter("oracle.queries")
_SAMPLER_SAMPLES = REGISTRY.counter("sampler.samples")
_SAMPLE_BATCH = REGISTRY.histogram("sampler.batch_size")
_SAMPLER_BLOCKS = REGISTRY.counter("sampler.blocks")
_FAULTS_TOTAL = REGISTRY.counter("faults.injected")
_FAULT_KINDS = {
    kind: REGISTRY.counter(f"faults.{kind}")
    for kind in ("probe_failures", "timeouts", "corruptions", "latency_spikes")
}
_PROBE_RETRIES = REGISTRY.counter("serve.probe_retries")
_DEGRADED = REGISTRY.counter("serve.degraded")
_SHARD_RETRIES = REGISTRY.counter("serve.shard_retries")


def span(name: str):
    """Open a phase span on the global tracer (no-op when disabled)."""
    return TRACER.span(name)


def record_oracle_queries(n: int = 1) -> None:
    """One or more charged :class:`~repro.access.QueryOracle` queries."""
    _ORACLE_QUERIES.inc(n)
    if TRACER._enabled:
        TRACER.add("queries", n)


def record_samples(n: int = 1) -> None:
    """One charged batch of ``n`` weighted-sampler draws."""
    _SAMPLER_SAMPLES.inc(n)
    _SAMPLE_BATCH.observe(n)
    if TRACER._enabled:
        TRACER.add("samples", n)


def record_sample_block(n: int) -> None:
    """One charged *columnar block* of ``n`` weighted-sampler draws.

    Exactly one obs call per block: the ``sampler.samples`` total and
    the batch-size histogram advance identically to :func:`record_samples`
    (metrics totals are invariant to which path charged the draws), and
    the block itself is counted once — in ``sampler.blocks`` and, under
    the tracer, as a per-phase ``sample_blocks`` span count so
    ``repro trace`` attributes blocks as exactly as it attributes draws.
    """
    _SAMPLER_SAMPLES.inc(n)
    _SAMPLE_BATCH.observe(n)
    _SAMPLER_BLOCKS.inc(1)
    if TRACER._enabled:
        TRACER.add("samples", n)
        TRACER.add("sample_blocks", 1)


def record_fault(kind: str, n: int = 1) -> None:
    """One injected fault of ``kind`` (probe_failures/timeouts/...)."""
    _FAULTS_TOTAL.inc(n)
    counter = _FAULT_KINDS.get(kind)
    if counter is None:  # unknown kinds still count somewhere visible
        counter = REGISTRY.counter(f"faults.{kind}")
        _FAULT_KINDS[kind] = counter
    counter.inc(n)
    if TRACER._enabled:
        TRACER.add("faults", n)


def record_corruption_detected(n: int = 1) -> None:
    """``n`` corrupted probe deliveries caught by a plausibility audit.

    Detection is not injection: this counts in
    ``faults.corruptions_detected`` only, never in ``faults.injected``
    (the injector already counted the corruption when it fired).
    """
    REGISTRY.counter("faults.corruptions_detected").inc(n)


def record_probe_retries(n: int) -> None:
    """``n`` budget-charged re-probes performed by a retry policy."""
    _PROBE_RETRIES.inc(n)


def record_degraded(n: int = 1) -> None:
    """``n`` answers served off the degradation ladder."""
    _DEGRADED.inc(n)


def record_shard_retries(n: int = 1) -> None:
    """``n`` parallel shards requeued after worker death."""
    _SHARD_RETRIES.inc(n)


def record_probe_hedges(n: int = 1) -> None:
    """``n`` per-probe backup probes fired by a hedging retry policy."""
    REGISTRY.counter("faults.probe_hedges").inc(n)


def record_shm(kind: str, n: int = 1) -> None:
    """``n`` shared-memory tier lifecycle events of ``kind``.

    Kinds in use: ``segments_created``, ``segments_unlinked``,
    ``attaches``, ``detaches``, ``attach_hits`` (per-process attach
    cache), ``mmap_spills`` (POSIX shm unavailable, fell back to a
    memmapped file).  Leak detection is the invariant
    ``segments_created == segments_unlinked`` at rest; ``repro
    shm-stats`` and the lifecycle tests assert it.
    """
    REGISTRY.counter(f"shm.{kind}").inc(n)


def record_event(kind: str, **attrs) -> None:
    """Append one flight-recorder event, stamped with the active trace
    context (``(None, None)`` outside any span or with tracing off)."""
    trace_id, span_id = TRACER.current_ids()
    RECORDER.record(kind, trace_id=trace_id, span_id=span_id, **attrs)


def reset_worker_runtime(timeline: dict | None = None) -> None:
    """Reinitialize the global runtime for one process-shard chunk.

    A forked worker starts with the parent's counter values, open span
    stack and recorded events, and a long-lived worker still holds the
    previous chunk's; a shard must start from zero or its shipped-home
    state would double-count.  Resets the registry *in place*
    (module-level cached counter objects keep their identity), gives the
    tracer fresh, disabled thread-local state and locks, clears the
    recorder, and installs an empty sampler built from ``timeline`` (a
    :func:`timeline_config` shipped by the parent) — or none when the
    parent has no timeline active.
    """
    global TIMELINE
    REGISTRY.reset()
    TRACER.reset_worker()
    # A forked worker shares the parent's spill file descriptor; clearing
    # with it attached would truncate the parent's spill.  The worker's
    # events ship home and reach the parent's spill through ingest.
    RECORDER.set_spill(None)
    RECORDER.clear()
    TIMELINE = (
        None if timeline is None else TimelineSampler(**timeline, registry=REGISTRY)
    )


def snapshot() -> dict:
    """The global registry's bare ``metrics-snapshot/v2`` tagged
    snapshot (the CLI wraps it in the BenchDocument envelope via
    :func:`repro.obs.export.snapshot_document`)."""
    return REGISTRY.snapshot()
