"""Plain-text rendering of the analysis results.

The 2014 paper presents its evaluation as figures; this reproduction runs in
a headless environment, so every figure is regenerated as (a) the underlying
numeric series and (b) an aligned text table, which the benchmarks print and
EXPERIMENTS.md records.
"""

from __future__ import annotations

from repro.analysis.heatmap import HeatmapData
from repro.utils.tables import format_grid


def render_heatmap(heatmap: HeatmapData, float_fmt: str = ".0f") -> str:
    """Text rendering of one Figure 5 heatmap (rows = dim, columns = tsize)."""
    title = (
        f"Figure 5 heatmap — system {heatmap.system}, dsize={heatmap.dsize}, "
        f"best {heatmap.quantity} (rows: dim, columns: tsize)"
    )
    grid = format_grid(
        row_labels=heatmap.dims,
        col_labels=[int(t) if float(t).is_integer() else t for t in heatmap.tsizes],
        values=heatmap.values,
        float_fmt=float_fmt,
        corner="dim\\tsize",
    )
    return f"{title}\n{grid}"

