"""ASCII table rendering for benchmark output.

The paper has no tables of its own; ``repro report`` renders the
measured counterpart of each theorem (a theorem cell's rows) in a
uniform tabular format so that EXPERIMENTS.md can quote it verbatim.
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["format_table", "format_row_dicts"]


def _cell(value: Any, precision: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}g}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    *,
    title: str | None = None,
    precision: int = 4,
) -> str:
    """Render rows as a fixed-width ASCII table."""
    str_rows = [[_cell(v, precision) for v in row] for row in rows]
    widths = [
        max(len(str(h)), *(len(r[c]) for r in str_rows)) if str_rows else len(str(h))
        for c, h in enumerate(headers)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for r in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def format_row_dicts(
    rows: Sequence[dict[str, Any]],
    *,
    title: str | None = None,
    precision: int = 4,
) -> str:
    """Render a list of homogeneous dicts (keys become the header)."""
    if not rows:
        return title or "(no rows)"
    headers = list(rows[0].keys())
    return format_table(
        headers,
        [[row.get(h) for h in headers] for row in rows],
        title=title,
        precision=precision,
    )
