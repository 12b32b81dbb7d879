"""Plain-text table rendering shared by the evaluation harnesses."""

from __future__ import annotations

from typing import List, Sequence


def format_table(headers: Sequence[str], rows: List[Sequence],
                 title: str = "") -> str:
    """Render rows as a fixed-width ASCII table."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for k, cell in enumerate(row):
            widths[k] = max(widths[k], len(cell))
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.01:
            return f"{cell:.3g}"
        return f"{cell:.2f}"
    return str(cell)
