"""Perf-regression sentinel: compare two ``bench-result/v1`` documents.

Benchmarks are noisy; exact counts are not.  The differ therefore
splits metrics into three families with different comparison rules:

* **timing metrics** (lower is better — ``wall_clock_s``,
  ``latency_ms``): a regression needs *both* a relative excursion past
  ``threshold`` (default 1.75x) *and* an absolute excursion past
  ``abs_floor_s`` — sub-millisecond rows jitter by multiples without
  meaning anything.
* **rate metrics** (higher is better — ``qps``, ``speedup``,
  ``speedup_vs_per_query``): symmetric rule, candidate below
  ``baseline / threshold`` regresses.
* **exact counts** (``queries``, ``samples``, ``blocks``,
  ``pipelines_run``, ``cache_hits``): the repo's determinism contract
  says these are *bit-identical* across runs of the same seed, so any
  mismatch is flagged as ``drift`` — not slower, but a reproducibility
  break, which is worse.

Load rows (``bench-load/v1``) ride the same machinery: their tail
latencies (``p50/p95/p99_queueing_ms``, ``p50/p95/p99_latency_ms``)
join the timing family (relative threshold plus the ms-scaled absolute
floor), ``achieved_qps`` joins the rate family, and ``availability``
is both a rate metric and dimensionless — a load shed or a degradation
cliff is comparable across hardware, so it survives ``relative_only``.

Rows carrying a ``timeline/v1`` fragment contribute trajectory
sentinels: ``timeline_ticks``, ``timeline_max_brownout_level``, and
``timeline_max_queue_depth`` are exact counts (a changed staircase on
the same seeds is a reproducibility drift), while the per-level
``timeline_time_at_level_{L}_ratio`` fractions are dimensionless and
ride the rate family — so a governor that suddenly spends its run two
rungs deeper trips the sentinel even across hardware.

Gauges are compared too, not ignored: names ending in
:data:`EXACT_GAUGE_SUFFIXES` (``.size``, ``.level``, ``.depth``, ...)
are deterministic state and drift on any mismatch; other gauges are
measurements and only flag past the relative ``threshold``.  Document-
level ``gauges`` maps (``metrics-snapshot/v2``) are diffed the same
way.

Rows are matched by ``(mode, n, family, rate, clock)`` — the two extra
coordinates are ``None`` for classic bench rows, so old documents keep
their keys.  A baseline row with no match in the candidate went
unchecked, and fails the diff unless the row itself declares, under
:data:`RERUN_EXEMPT`, why a rerun cannot reproduce it (a wall-clock row
beside a virtual-clock sweep, a size past the rerun's sizes).
Candidate-only rows are reported and never fail.  In ``relative_only``
mode (fresh quick run vs. a committed document recorded on other
hardware) absolute timings are meaningless, so only dimensionless
relative metrics are compared.

The output is a ``bench-diff/v1`` document; ``ok`` is False iff any
regression, drift or unchecked baseline row was found — ``repro
obs-diff`` turns that into its exit code, which is what makes this a
CI tripwire.
"""

from __future__ import annotations

__all__ = [
    "BENCH_DIFF_SCHEMA",
    "LOWER_IS_BETTER",
    "HIGHER_IS_BETTER",
    "EXACT_COUNTS",
    "RELATIVE_METRICS",
    "TIMELINE_EXACT",
    "EXACT_GAUGE_SUFFIXES",
    "RERUN_EXEMPT",
    "diff_documents",
]

BENCH_DIFF_SCHEMA = "bench-diff/v1"

#: Timing metrics: candidate bigger is worse.  ``*_ms`` metrics get the
#: absolute floor scaled to milliseconds.
LOWER_IS_BETTER = (
    "wall_clock_s",
    "latency_ms",
    "p50_queueing_ms",
    "p95_queueing_ms",
    "p99_queueing_ms",
    "p50_latency_ms",
    "p95_latency_ms",
    "p99_latency_ms",
)

#: Rate metrics: candidate smaller is worse.
HIGHER_IS_BETTER = (
    "qps",
    "speedup",
    "speedup_vs_per_query",
    "achieved_qps",
    "availability",
    "ratio",
)

#: Deterministic counts: any mismatch is a reproducibility drift.
EXACT_COUNTS = ("queries", "samples", "blocks", "pipelines_run", "cache_hits")

#: Dimensionless metrics still comparable across different hardware.
RELATIVE_METRICS = ("speedup", "speedup_vs_per_query", "availability", "ratio")

#: Timeline trajectory counts: deterministic on the virtual clock, so
#: any mismatch is a drift (skipped under ``relative_only``).
TIMELINE_EXACT = (
    "timeline_ticks",
    "timeline_max_brownout_level",
    "timeline_max_queue_depth",
)

#: Gauge name suffixes holding deterministic state rather than a
#: measurement; these drift on any mismatch instead of thresholding.
EXACT_GAUGE_SUFFIXES = (".size", ".level", ".depth", ".state", ".inflight")

#: Row field holding why a rerun cannot reproduce the row; a baseline
#: row carrying it may go unmatched without failing the diff.
RERUN_EXEMPT = "rerun_exempt"


def _timeline_metrics(row: dict) -> dict:
    """Flatten a row's ``timeline/v1`` fragment into sentinel metrics."""
    fragment = row.get("timeline")
    if not isinstance(fragment, dict):
        return {}
    summary = fragment.get("summary") or {}
    out = {
        "timeline_ticks": int(summary.get("ticks", 0)),
        "timeline_max_brownout_level": int(summary.get("max_brownout_level", 0)),
        "timeline_max_queue_depth": int(summary.get("max_queue_depth", 0)),
    }
    for level, fraction in (summary.get("time_at_level") or {}).items():
        out[f"timeline_time_at_level_{level}_ratio"] = float(fraction)
    return out


def _gauge_findings(
    label: str,
    base_gauges: dict,
    cand_gauges: dict,
    *,
    threshold: float,
    relative_only: bool,
) -> list[dict]:
    """Compare two gauge maps name-by-name.

    Exact-family gauges (state the determinism contract covers) drift
    on any mismatch; measurement gauges flag only past ``threshold`` in
    either direction — a gauge has no universal better-direction, so an
    excursion is reported as drift, not regression.
    """
    findings: list[dict] = []
    for name in sorted(set(base_gauges) & set(cand_gauges)):
        b, c = float(base_gauges[name]), float(cand_gauges[name])
        if name.endswith(EXACT_GAUGE_SUFFIXES):
            if relative_only:
                continue
            status = "ok" if b == c else "drift"
            note = "" if b == c else "deterministic gauge changed"
        elif b > 0 and (c > b * threshold or c < b / threshold):
            status, note = "drift", f"gauge moved {c / b:.2f}x"
        else:
            status, note = "ok", ""
        findings.append(
            {
                "row": label,
                "metric": f"gauge:{name}",
                "status": status,
                "baseline": b,
                "candidate": c,
                "note": note,
            }
        )
    return findings


def _row_key(row: dict) -> tuple:
    return (
        row.get("mode"),
        row.get("n"),
        row.get("family"),
        # chaos-report rows are keyed by their fault rate, not an
        # offered-load rate; fold it into the same slot so a ladder of
        # chaos rows never collapses onto one diff key.
        row.get("rate", row.get("probe_failure_rate")),
        row.get("clock"),
    )


def _key_label(key: tuple) -> str:
    mode, n, family, rate, clock = key
    parts = [] if mode is None else [str(mode)]
    if n is not None:
        parts.append(f"n={n}")
    if family is not None:
        parts.append(str(family))
    if rate is not None:
        parts.append(f"rate={rate:g}")
    if clock is not None:
        parts.append(str(clock))
    return " ".join(parts)


def _compare_row(
    key: tuple,
    base: dict,
    cand: dict,
    *,
    threshold: float,
    abs_floor_s: float,
    relative_only: bool,
) -> list[dict]:
    findings: list[dict] = []
    label = _key_label(key)

    def finding(metric: str, status: str, b, c, note: str) -> dict:
        return {
            "row": label,
            "metric": metric,
            "status": status,
            "baseline": b,
            "candidate": c,
            "note": note,
        }

    timing = () if relative_only else LOWER_IS_BETTER
    rates = RELATIVE_METRICS if relative_only else HIGHER_IS_BETTER
    counts = () if relative_only else EXACT_COUNTS

    for metric in timing:
        if metric not in base or metric not in cand:
            continue
        b, c = float(base[metric]), float(cand[metric])
        floor = abs_floor_s * (1000.0 if metric.endswith("_ms") else 1.0)
        if b > 0 and c > b * threshold and (c - b) > floor:
            findings.append(
                finding(metric, "regression", b, c, f"{c / b:.2f}x slower")
            )
        elif b > 0 and c < b / threshold and (b - c) > floor:
            findings.append(
                finding(metric, "improvement", b, c, f"{b / c:.2f}x faster")
            )
        else:
            findings.append(finding(metric, "ok", b, c, ""))

    for metric in rates:
        if metric not in base or metric not in cand:
            continue
        b, c = float(base[metric]), float(cand[metric])
        if b > 0 and c < b / threshold:
            findings.append(
                finding(metric, "regression", b, c, f"{b / c:.2f}x lower")
            )
        elif c > 0 and b > 0 and c > b * threshold:
            findings.append(
                finding(metric, "improvement", b, c, f"{c / b:.2f}x higher")
            )
        else:
            findings.append(finding(metric, "ok", b, c, ""))

    for metric in counts:
        if metric not in base or metric not in cand:
            continue
        b, c = int(base[metric]), int(cand[metric])
        if b != c:
            findings.append(
                finding(metric, "drift", b, c, "deterministic count changed")
            )
        else:
            findings.append(finding(metric, "ok", b, c, ""))

    # Timeline trajectory sentinels (rows carrying a timeline fragment).
    base_tl = _timeline_metrics(base)
    cand_tl = _timeline_metrics(cand)
    if base_tl and cand_tl:
        if not relative_only:
            for metric in TIMELINE_EXACT:
                b, c = int(base_tl[metric]), int(cand_tl[metric])
                if b != c:
                    findings.append(
                        finding(metric, "drift", b, c, "trajectory changed")
                    )
                else:
                    findings.append(finding(metric, "ok", b, c, ""))
        for metric in sorted(set(base_tl) & set(cand_tl)):
            # Dimensionless time-at-level fractions: rate-family rules,
            # comparable across hardware (survive relative_only).
            if not metric.endswith("_ratio"):
                continue
            b, c = float(base_tl[metric]), float(cand_tl[metric])
            if b > 0 and c < b / threshold:
                findings.append(
                    finding(metric, "regression", b, c, f"{b / c:.2f}x lower")
                )
            elif c > 0 and b > 0 and c > b * threshold:
                findings.append(
                    finding(metric, "improvement", b, c, f"{c / b:.2f}x higher")
                )
            else:
                findings.append(finding(metric, "ok", b, c, ""))

    # Row-level gauge maps (timeline rows and future per-row gauges).
    if isinstance(base.get("gauges"), dict) and isinstance(cand.get("gauges"), dict):
        findings.extend(
            _gauge_findings(
                label,
                base["gauges"],
                cand["gauges"],
                threshold=threshold,
                relative_only=relative_only,
            )
        )

    return findings


def diff_documents(
    baseline: dict,
    candidate: dict,
    *,
    threshold: float = 1.75,
    abs_floor_s: float = 0.002,
    relative_only: bool = False,
) -> dict:
    """Compare two ``bench-result/v1`` documents; return ``bench-diff/v1``.

    ``threshold`` is the relative noise allowance (1.75 ⇒ a timing must
    be >1.75x the baseline to regress); ``abs_floor_s`` additionally
    requires the excursion to exceed an absolute floor (scaled to ms
    for ``latency_ms``).  ``relative_only`` restricts the comparison to
    dimensionless metrics for cross-hardware diffs.
    """
    if threshold <= 1.0:
        raise ValueError(f"threshold must be > 1.0, got {threshold}")
    base_rows = {_row_key(r): r for r in baseline.get("rows", ())}
    cand_rows = {_row_key(r): r for r in candidate.get("rows", ())}

    findings: list[dict] = []
    rows_compared = 0
    rows_missing: list[str] = []
    rows_exempt: dict[str, str] = {}
    rows_unchecked: list[str] = []
    for key, base in base_rows.items():
        cand = cand_rows.get(key)
        if cand is None:
            label = _key_label(key)
            rows_missing.append(label)
            if base.get(RERUN_EXEMPT):
                rows_exempt[label] = str(base[RERUN_EXEMPT])
            else:
                rows_unchecked.append(label)
            continue
        rows_compared += 1
        findings.extend(
            _compare_row(
                key,
                base,
                cand,
                threshold=threshold,
                abs_floor_s=abs_floor_s,
                relative_only=relative_only,
            )
        )
    for key in cand_rows:
        if key not in base_rows:
            rows_missing.append(_key_label(key) + " (candidate only)")

    # Document-level gauge maps (metrics-snapshot/v2 documents).
    if isinstance(baseline.get("gauges"), dict) and isinstance(
        candidate.get("gauges"), dict
    ):
        findings.extend(
            _gauge_findings(
                "gauges",
                baseline["gauges"],
                candidate["gauges"],
                threshold=threshold,
                relative_only=relative_only,
            )
        )

    regressions = sum(1 for f in findings if f["status"] == "regression")
    improvements = sum(1 for f in findings if f["status"] == "improvement")
    drifts = sum(1 for f in findings if f["status"] == "drift")
    return {
        "schema": BENCH_DIFF_SCHEMA,
        "baseline": {"name": baseline.get("name", "")},
        "candidate": {"name": candidate.get("name", "")},
        "threshold": threshold,
        "abs_floor_s": abs_floor_s,
        "relative_only": relative_only,
        "rows_compared": rows_compared,
        "rows_missing": sorted(rows_missing),
        "rows_exempt": dict(sorted(rows_exempt.items())),
        "rows_unchecked": sorted(rows_unchecked),
        "findings": findings,
        "regressions": regressions,
        "improvements": improvements,
        "drifts": drifts,
        "ok": regressions == 0 and drifts == 0 and not rows_unchecked,
    }
