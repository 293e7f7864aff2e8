"""Figure 7: best exhaustive runtime vs average-case behaviour.

For every dim-tsize group the paper plots the best exhaustive runtime
("Best" / ber), the average runtime over all tunable-parameter combinations
("AVG") and the standard deviation ("S.D."), with over-threshold points
excluded from the averages.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.exceptions import SearchError
from repro.core.params import InputParams
from repro.autotuner.exhaustive import SearchResults


@dataclass(frozen=True)
class GroupStats:
    """One dim-tsize group of Figure 7."""

    dim: int
    tsize: float
    dsize: int
    best_rtime: float
    avg_rtime: float
    std_rtime: float
    n_configurations: int
    n_excluded: int

    @property
    def avg_over_best(self) -> float:
        """How much slower the average configuration is than the best one."""
        if self.best_rtime <= 0:
            return float("inf")
        return self.avg_rtime / self.best_rtime

    def as_row(self) -> list[object]:
        """The Figure 7 table row used by the text report."""
        return [
            self.dim,
            self.tsize,
            self.dsize,
            self.best_rtime,
            self.avg_rtime,
            self.std_rtime,
            self.avg_over_best,
            self.n_configurations,
            self.n_excluded,
        ]


def average_case_table(
    results: SearchResults, dsize: int | None = None
) -> list[GroupStats]:
    """Figure 7 rows, ordered by (dim, tsize)."""
    instances = results.instances()
    if dsize is not None:
        instances = [p for p in instances if p.dsize == dsize]
    if not instances:
        raise SearchError("no instances selected for the average-case table")
    rows: list[GroupStats] = []
    for params in sorted(instances, key=lambda p: (p.dim, p.tsize, p.dsize)):
        below = results.records_for(params)
        everything = results.records_for(params, include_threshold=True)
        if not below:
            # Every configuration exceeded the threshold; report the best of
            # the over-threshold points so the row is still present.
            best = results.best(params)
            rows.append(
                GroupStats(
                    dim=params.dim,
                    tsize=params.tsize,
                    dsize=params.dsize,
                    best_rtime=best.rtime,
                    avg_rtime=float("nan"),
                    std_rtime=float("nan"),
                    n_configurations=0,
                    n_excluded=len(everything),
                )
            )
            continue
        rows.append(
            GroupStats(
                dim=params.dim,
                tsize=params.tsize,
                dsize=params.dsize,
                best_rtime=results.best(params).rtime,
                avg_rtime=results.average_rtime(params),
                std_rtime=results.std_rtime(params),
                n_configurations=len(below),
                n_excluded=len(everything) - len(below),
            )
        )
    return rows
