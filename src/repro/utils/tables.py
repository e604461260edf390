"""ASCII table rendering for experiment reports.

The experiment runners print their results in the same row/column layout
as the paper's tables; this module provides the shared formatting
machinery.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Union

__all__ = ["format_table", "format_float"]

Cell = Union[str, float, int, None]


def format_float(value: float, digits: int = 4) -> str:
    """Format a float compactly for table cells.

    Values that round to zero at ``digits`` precision but are non-zero
    are shown in scientific notation so small error rates stay visible.
    """
    if value == 0:
        return "0"
    if abs(value) < 10 ** (-digits):
        return f"{value:.1e}"
    return f"{value:.{digits}f}"


def _stringify(cell: Cell, digits: int) -> str:
    if cell is None:
        return ""
    if isinstance(cell, bool):
        return str(cell)
    if isinstance(cell, float):
        return format_float(cell, digits)
    return str(cell)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    title: Optional[str] = None,
    digits: int = 4,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned ASCII table.

    Parameters
    ----------
    headers:
        Column names.
    rows:
        Iterable of rows; each row must have ``len(headers)`` cells.
        Cells may be strings, ints, floats, or ``None`` (blank).
    title:
        Optional title printed above the table.
    digits:
        Decimal digits used when formatting float cells.

    Returns
    -------
    str
        The rendered table, ready to print.
    """
    str_rows: List[List[str]] = []
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        str_rows.append([_stringify(cell, digits) for cell in row])

    widths = [len(h) for h in headers]
    for row in str_rows:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))

    def fmt_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[j]) for j, cell in enumerate(cells))

    sep = "-+-".join("-" * w for w in widths)
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(fmt_row(list(headers)))
    lines.append(sep)
    lines.extend(fmt_row(row) for row in str_rows)
    return "\n".join(lines)
