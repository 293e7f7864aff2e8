"""Figure 5: heatmaps of the best band and halo values.

For every (tsize, dim) cell of one dsize slice, the heatmap holds the value
of ``band`` (or ``halo``) at the best-performing configuration found by the
exhaustive search.  The paper plots these as colour maps; the reproduction
returns the numeric grids and renders them as tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.exceptions import SearchError
from repro.autotuner.exhaustive import SearchResults


@dataclass
class HeatmapData:
    """One heatmap: rows are ``dim`` values, columns are ``tsize`` values."""

    system: str
    dsize: int
    quantity: str
    dims: list[int]
    tsizes: list[float]
    values: np.ndarray  # shape (len(dims), len(tsizes))

    def gpu_threshold_tsize(self, dim: int) -> float | None:
        """Smallest tsize at which the best configuration uses the GPU for ``dim``.

        Returns ``None`` when the GPU is never used for that problem size.
        """
        i = self.dims.index(dim)
        for j, tsize in enumerate(self.tsizes):
            if self.values[i, j] > 0:
                return float(tsize)
        return None


def build_heatmap(
    results: SearchResults, dsize: int, quantity: str = "band"
) -> HeatmapData:
    """Build the Figure 5 heatmap of ``quantity`` for one ``dsize`` slice."""
    if quantity not in ("band", "halo"):
        raise SearchError(f"heatmap quantity must be 'band' or 'halo', got {quantity!r}")
    instances = [p for p in results.instances() if p.dsize == dsize]
    if not instances:
        raise SearchError(f"no instances with dsize={dsize} in the search results")
    dims = sorted({p.dim for p in instances})
    tsizes = sorted({p.tsize for p in instances})
    values = np.full((len(dims), len(tsizes)), np.nan)
    for params in instances:
        best = results.best(params)
        value = best.tunables.band if quantity == "band" else best.tunables.halo
        values[dims.index(params.dim), tsizes.index(params.tsize)] = value
    if np.isnan(values).any():
        raise SearchError(
            "search results do not cover the full (dim, tsize) grid "
            f"for dsize={dsize}"
        )
    return HeatmapData(
        system=results.system,
        dsize=dsize,
        quantity=quantity,
        dims=dims,
        tsizes=[float(t) for t in tsizes],
        values=values,
    )
