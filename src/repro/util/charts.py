"""Text-mode charts for experiment output.

No plotting library is available offline, so the benches and examples
render figures as Unicode bar charts and line plots.  These are honest
renderings of the same series the paper plots -- good enough to eyeball
shapes (who wins, where curves cross) straight from the terminal.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

_BLOCKS = " ▏▎▍▌▋▊▉█"


def bar_chart(
    values: Mapping[str, float],
    width: int = 40,
    title: str | None = None,
) -> str:
    """Horizontal bar chart, one row per labelled value."""
    if not values:
        raise ValueError("bar chart needs at least one value")
    if width < 1:
        raise ValueError("width must be positive")
    maximum = max(values.values())
    if maximum < 0:
        raise ValueError("bar charts need non-negative values")
    label_width = max(len(label) for label in values)
    lines = [] if title is None else [title]
    for label, value in values.items():
        if value < 0:
            raise ValueError("bar charts need non-negative values")
        fraction = value / maximum if maximum else 0.0
        cells = fraction * width
        full = int(cells)
        remainder = cells - full
        partial = _BLOCKS[round(remainder * (len(_BLOCKS) - 1))] if full < width else ""
        bar = "█" * full + partial
        lines.append(
            f"{label.ljust(label_width)} |{bar.ljust(width)}| {value:.2f}"
        )
    return "\n".join(lines)


def line_plot(
    series: Mapping[str, Sequence[tuple[float, float]]],
    width: int = 60,
    height: int = 16,
    title: str | None = None,
) -> str:
    """Scatter/line plot of one or more (x, y) series on a text canvas.

    Each series gets a marker from ``*+ox#@``; points falling on the same
    cell keep the first series' marker.  Axes are annotated with the data
    ranges.
    """
    if not series:
        raise ValueError("line plot needs at least one series")
    if width < 8 or height < 4:
        raise ValueError("canvas too small")
    points = [p for pts in series.values() for p in pts]
    if not points:
        raise ValueError("line plot needs at least one point")
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    xspan = (xmax - xmin) or 1.0
    yspan = (ymax - ymin) or 1.0

    canvas = [[" "] * width for _ in range(height)]
    markers = "*+ox#@"
    for marker, (name, pts) in zip(markers, series.items()):
        for x, y in pts:
            if not (math.isfinite(x) and math.isfinite(y)):
                continue
            col = round((x - xmin) / xspan * (width - 1))
            row = height - 1 - round((y - ymin) / yspan * (height - 1))
            if canvas[row][col] == " ":
                canvas[row][col] = marker

    lines = [] if title is None else [title]
    lines.append(f"y: {ymin:.3g} .. {ymax:.3g}")
    for row in canvas:
        lines.append("|" + "".join(row))
    lines.append("+" + "-" * width)
    lines.append(f" x: {xmin:.3g} .. {xmax:.3g}")
    legend = "   ".join(
        f"{marker}={name}" for marker, name in zip(markers, series)
    )
    lines.append(f" {legend}")
    return "\n".join(lines)


def sparkline(values: Sequence[float]) -> str:
    """A one-line trend of a series (8-level Unicode blocks)."""
    if not values:
        raise ValueError("sparkline needs at least one value")
    levels = "▁▂▃▄▅▆▇█"
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    return "".join(
        levels[round((v - low) / span * (len(levels) - 1))] for v in values
    )
