"""Terminal line charts for the experiment harnesses.

The paper's figures are two-to-four-series line plots; these helpers
render the same shapes as ASCII so ``python -m repro experiments``
shows the figure, not just the table, with no plotting dependency.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

#: plot markers assigned to series in insertion order
MARKERS = "ox+*#@%&"
#: plot area in characters: every figure is drawn at this size
WIDTH, HEIGHT = 60, 16


def _scale(value: float, low: float, high: float, steps: int) -> int:
    if high <= low:
        return 0
    fraction = (value - low) / (high - low)
    return max(0, min(steps - 1, round(fraction * (steps - 1))))


def line_chart(
    series: Dict[str, Sequence[Tuple[float, float]]],
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render ``{name: [(x, y), ...]}`` as an ASCII chart.

    Series are drawn in insertion order with markers from
    :data:`MARKERS`; later series overwrite earlier ones on clashes.
    """
    points = [
        (x, y) for values in series.values() for x, y in values
    ]
    if not points:
        raise ValueError("nothing to plot")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    if y_low == y_high:
        y_low, y_high = y_low - 1.0, y_high + 1.0

    width, height = WIDTH, HEIGHT
    grid = [[" "] * width for _ in range(height)]
    for marker, (name, values) in zip(MARKERS, series.items()):
        for x, y in values:
            col = _scale(x, x_low, x_high, width)
            row = height - 1 - _scale(y, y_low, y_high, height)
            grid[row][col] = marker

    lines: List[str] = []
    if title:
        lines.append(title)
    label_width = max(len(f"{y_high:.0f}"), len(f"{y_low:.0f}")) + 1
    for i, row in enumerate(grid):
        if i == 0:
            label = f"{y_high:.0f}".rjust(label_width)
        elif i == height - 1:
            label = f"{y_low:.0f}".rjust(label_width)
        else:
            label = " " * label_width
        lines.append(f"{label} |{''.join(row)}")
    lines.append(" " * label_width + "_" + "_" * (width + 1))
    x_axis = f"{x_low:.0f}".ljust(width - len(f"{x_high:.0f}")) + f"{x_high:.0f}"
    lines.append(" " * (label_width + 2) + x_axis)
    if x_label:
        lines.append(" " * (label_width + 2) + x_label.center(width))
    legend = "   ".join(
        f"{marker}={name}" for marker, name in zip(MARKERS, series)
    )
    lines.append(f"{y_label + '  ' if y_label else ''}{legend}")
    return "\n".join(lines)

