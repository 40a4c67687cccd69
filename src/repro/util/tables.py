"""Plain-text table rendering for the analysis output.

The paper's evaluation is delivered as tables and figures; the analysis
modules emit rows of cells and this renderer turns them into aligned
ASCII suitable for terminals and the ``EXPERIMENTS.md`` record.
"""

from __future__ import annotations

from typing import Sequence


def _cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.1f}"
    return str(value)


def render_table(
    headers: Sequence[object],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
    align_right: Sequence[int] = (),
) -> str:
    """Render a table with a header rule.

    ``align_right`` lists column indices to right-align (numeric columns);
    all other columns are left-aligned.
    """
    header_cells = [_cell(h) for h in headers]
    body = [[_cell(c) for c in row] for row in rows]
    for row in body:
        if len(row) != len(header_cells):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(header_cells)}: {row!r}"
            )
    widths = [len(h) for h in header_cells]
    for row in body:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    right = set(align_right)

    def fmt_row(cells: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(cells):
            if i in right:
                parts.append(cell.rjust(widths[i]))
            else:
                parts.append(cell.ljust(widths[i]))
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(header_cells))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_row(row) for row in body)
    return "\n".join(lines)


def percent(part: float, whole: float, digits: int = 1) -> str:
    """Format ``part/whole`` as a percentage string; '-' when whole is 0."""
    if whole == 0:
        return "-"
    return f"{100.0 * part / whole:.{digits}f}%"
