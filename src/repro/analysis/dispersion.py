"""Figure 8: dispersion of the configuration space (violin plots as numbers).

A violin plot combines a box plot with a kernel density estimate.  The
reproduction computes the same ingredients — quartiles, extremes and a
Gaussian KDE evaluated on a uniform grid — and the dispersion bench prints
them for the paper's two highlighted samples (dim = 700 and dim = 2700 on
the i7-2600K).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from repro.core.exceptions import SearchError
from repro.core.params import InputParams
from repro.autotuner.exhaustive import SearchResults


@dataclass
class ViolinStats:
    """Numeric content of one violin of Figure 8."""

    dim: int
    tsize: float
    dsize: int
    n_points: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    density_x: np.ndarray
    density_y: np.ndarray

    @property
    def best_to_median_gap(self) -> float:
        """How far the best point sits below the median (the paper's focus)."""
        if self.median <= 0:
            return 0.0
        return (self.median - self.minimum) / self.median

    @property
    def flat_base(self) -> bool:
        """True when many points sit near the minimum (a "flat base" violin).

        The paper observes flat-based violins for the large / coarse-grained
        samples, where many tunable combinations achieve near-best runtime.
        """
        near_best = self.density_x <= self.minimum + 0.1 * max(self.median - self.minimum, 1e-12)
        if not np.any(near_best):
            return False
        mass_near_best = float(np.trapezoid(self.density_y[near_best], self.density_x[near_best]))
        total = float(np.trapezoid(self.density_y, self.density_x))
        return total > 0 and (mass_near_best / total) > 0.15

    def as_row(self) -> list[object]:
        """The Figure 8 table row used by the text report."""
        return [
            self.dim,
            self.tsize,
            self.dsize,
            self.n_points,
            self.minimum,
            self.q1,
            self.median,
            self.q3,
            self.maximum,
        ]


def dispersion_stats(
    results: SearchResults, params: InputParams, density_points: int = 64
) -> ViolinStats:
    """Compute the violin statistics of one instance's configuration space."""
    records = results.records_for(params)
    if len(records) < 2:
        raise SearchError(
            f"need at least two below-threshold records for {params}, "
            f"got {len(records)}"
        )
    rtimes = np.array([r.rtime for r in records])
    q1, median, q3 = np.percentile(rtimes, [25, 50, 75])
    xs = np.linspace(rtimes.min(), rtimes.max(), density_points)
    if np.ptp(rtimes) < 1e-12:
        ys = np.ones_like(xs)
    else:
        try:
            kde = stats.gaussian_kde(rtimes)
            ys = kde(xs)
        except np.linalg.LinAlgError:
            ys = np.ones_like(xs)
    return ViolinStats(
        dim=params.dim,
        tsize=params.tsize,
        dsize=params.dsize,
        n_points=len(records),
        minimum=float(rtimes.min()),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        maximum=float(rtimes.max()),
        density_x=xs,
        density_y=ys,
    )
