"""Plain-text table formatting for the reproduction harness.

Benchmarks print the same rows/series the paper's figures report;
this module renders them as aligned monospace tables.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

Cell = Union[str, int, float]


def format_cell(value: Cell, precision: int = 1) -> str:
    """Render one cell; floats get fixed precision."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    precision: int = 1,
    title: str = "",
) -> str:
    """Render an aligned monospace table with a separator under headers."""
    str_rows: List[List[str]] = [[format_cell(c, precision) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(list(headers)))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


def format_series(label: str, values: Sequence[float], limit: int = 12) -> str:
    """Render a (possibly subsampled) numeric series on one line, to 3 decimals."""
    values = list(values)
    if len(values) > limit:
        stride = max(1, len(values) // limit)
        values = values[::stride][:limit]
        suffix = f"  (every {stride}th of {len(values) * stride})"
    else:
        suffix = ""
    body = " ".join(f"{v:.3f}" for v in values)
    return f"{label}: {body}{suffix}"
