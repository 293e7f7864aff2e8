"""Plain-text table formatting used by the analysis / benchmark reports.

The paper presents its results as figures; since this reproduction runs in a
headless environment the benches print the same series as aligned ASCII
tables and CSV, which is what EXPERIMENTS.md records.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def _fmt_cell(value: object, float_fmt: str) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, float_fmt)
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    float_fmt: str = ".3f",
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned ASCII table."""
    str_rows = [[_fmt_cell(c, float_fmt) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()

    sep = "-+-".join("-" * w for w in widths)
    out = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append(sep)
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def format_grid(
    row_labels: Sequence[object],
    col_labels: Sequence[object],
    values,
    float_fmt: str = ".1f",
    corner: str = "",
) -> str:
    """Render a 2-D grid (e.g. a heatmap's numeric values) as text.

    ``values[i][j]`` corresponds to ``row_labels[i]`` x ``col_labels[j]``.
    """
    headers = [corner] + [str(c) for c in col_labels]
    rows = []
    for i, rl in enumerate(row_labels):
        row = [str(rl)]
        for j in range(len(col_labels)):
            row.append(_fmt_cell(values[i][j], float_fmt))
        rows.append(row)
    return format_table(headers, rows, float_fmt=float_fmt)
