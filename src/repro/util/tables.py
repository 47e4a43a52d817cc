"""Plain-text table rendering for experiment output.

The benchmark harness prints the same rows/series the paper's tables and
figures report; this module renders them as aligned monospace tables (no
plotting dependency is available offline).
"""

from __future__ import annotations

import io
from typing import Mapping, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
    float_format: str = "{:.3f}",
) -> str:
    """Render rows as an aligned text table.

    Floats are formatted with ``float_format``; everything else with ``str``.
    """
    rendered: list[list[str]] = []
    for row in rows:
        rendered.append(
            [
                float_format.format(cell) if isinstance(cell, float) else str(cell)
                for cell in row
            ]
        )
    widths = [len(h) for h in headers]
    for row in rendered:
        if len(row) != len(headers):
            raise ValueError("row length does not match header length")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    out = io.StringIO()
    if title:
        out.write(title + "\n")
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    out.write(line.rstrip() + "\n")
    out.write("  ".join("-" * w for w in widths) + "\n")
    for row in rendered:
        out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")
    return out.getvalue()


def format_series(series: Mapping[str, Sequence[float]], x_name: str, x: Sequence[float]) -> str:
    """Render one or more y-series against a shared x axis as a table."""
    headers = [x_name] + list(series)
    rows = []
    for i, xv in enumerate(x):
        rows.append([xv] + [ys[i] for ys in series.values()])
    return format_table(headers, rows)


def render_heatmap(grid) -> str:
    """Render a 2D array (row-major, row 0 at the top) as aligned text."""
    lines = []
    for row in grid:
        lines.append(" ".join(f"{float(v):6.1f}" for v in row))
    return "\n".join(lines)
