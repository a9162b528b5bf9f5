"""Fixed-width ASCII tables: what the CLI, the examples and the bench
cases print."""

from __future__ import annotations

import math


def format_value(value) -> str:
    """One cell: ``None`` is ``-``, an infinite float ``OOM`` (the
    figures' out-of-memory marker), other floats with 0, 1 or 2
    decimals as their magnitude is >= 100, >= 10 or below."""
    if value is None:
        return "-"
    if isinstance(value, str):
        return value
    if isinstance(value, float) and math.isinf(value):
        return "OOM"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


def format_table(headers: list, rows: list, title: str | None = None) -> str:
    """Render a list-of-lists as a fixed-width ASCII table."""
    cells = [[format_value(c) for c in row] for row in rows]
    header_cells = [str(h) for h in headers]
    widths = [len(h) for h in header_cells]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def render_row(row):
        return " | ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))

    lines = [title] if title else []
    lines.append(render_row(header_cells))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(render_row(row) for row in cells)
    return "\n".join(lines)
