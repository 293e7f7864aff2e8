"""Exhaustive exploration of the tuning space (Section 3.1.1 / 4.1).

Every (instance, configuration) point is evaluated with the analytic cost
model (the reproduction's stand-in for running on the testbed); runs whose
predicted runtime exceeds the 90-second threshold are recorded as such and
excluded from averages and training, exactly as in the paper.  The serial
baseline is collected separately without the threshold so speedups are
computed correctly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.exceptions import SearchError
from repro.core.parameter_space import ParameterSpace
from repro.core.params import InputParams, TunableParams
from repro.hardware.costmodel import CostModel
from repro.hardware.system import SystemSpec
from repro.autotuner.search_space import SearchSpace

#: The paper's runtime threshold for exhaustive-search points (seconds).
RUNTIME_THRESHOLD_S = 90.0


@dataclass(frozen=True)
class SearchRecord:
    """One evaluated (instance, configuration) point."""

    params: InputParams
    tunables: TunableParams
    rtime: float
    exceeded_threshold: bool = False

    def summary(self) -> dict[str, float]:
        """Flat record used to build ML datasets and CSV reports."""
        return {
            "dim": float(self.params.dim),
            "tsize": float(self.params.tsize),
            "dsize": float(self.params.dsize),
            "cpu_tile": float(self.tunables.cpu_tile),
            "band": float(self.tunables.band),
            "gpu_count": float(self.tunables.gpu_count),
            "gpu_tile": float(self.tunables.gpu_tile),
            "halo": float(self.tunables.halo),
            "rtime": float(self.rtime),
            "exceeded_threshold": float(self.exceeded_threshold),
        }


@dataclass
class SearchResults:
    """All records of one exhaustive sweep on one system."""

    system: str
    records: list[SearchRecord] = field(default_factory=list)
    serial_times: dict[InputParams, float] = field(default_factory=dict)
    threshold_s: float = RUNTIME_THRESHOLD_S

    # ------------------------------------------------------------------
    def add(self, record: SearchRecord) -> None:
        """Append one evaluated configuration point."""
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def instances(self) -> list[InputParams]:
        """Distinct instances present in the results, in sweep order."""
        seen: dict[InputParams, None] = {}
        for record in self.records:
            seen.setdefault(record.params, None)
        return list(seen)

    def records_for(self, params: InputParams, include_threshold: bool = False) -> list[SearchRecord]:
        """Records of one instance (excluding over-threshold points by default)."""
        return [
            r
            for r in self.records
            if r.params == params and (include_threshold or not r.exceeded_threshold)
        ]

    # ------------------------------------------------------------------
    # Aggregations used by the figures
    # ------------------------------------------------------------------
    def best(self, params: InputParams) -> SearchRecord:
        """The best exhaustive point ("ber" in the paper) for one instance."""
        candidates = self.records_for(params) or self.records_for(params, include_threshold=True)
        if not candidates:
            raise SearchError(f"no records for instance {params}")
        return min(candidates, key=lambda r: r.rtime)

    def best_n(self, params: InputParams, n: int) -> list[SearchRecord]:
        """The ``n`` best configurations of one instance (training-set source)."""
        candidates = sorted(self.records_for(params), key=lambda r: r.rtime)
        return candidates[: max(0, n)]

    def average_rtime(self, params: InputParams) -> float:
        """Average runtime across all below-threshold configurations."""
        rtimes = [r.rtime for r in self.records_for(params)]
        if not rtimes:
            raise SearchError(f"no below-threshold records for instance {params}")
        return float(np.mean(rtimes))

    def std_rtime(self, params: InputParams) -> float:
        """Standard deviation of runtime across below-threshold configurations."""
        rtimes = [r.rtime for r in self.records_for(params)]
        if not rtimes:
            raise SearchError(f"no below-threshold records for instance {params}")
        return float(np.std(rtimes))

    def serial_time(self, params: InputParams) -> float:
        """The serial baseline of one instance (collected without threshold)."""
        try:
            return self.serial_times[params]
        except KeyError:
            raise SearchError(f"no serial baseline recorded for instance {params}") from None


class ExhaustiveSearch:
    """Sweep the synthetic application's tuning space on one system."""

    def __init__(self, system: SystemSpec, space: ParameterSpace | None = None) -> None:
        self.system = system
        self.space = space if space is not None else ParameterSpace.paper()
        self.search_space = SearchSpace(self.space, system)
        self.cost_model = CostModel(system)
        self.threshold_s = RUNTIME_THRESHOLD_S

    # ------------------------------------------------------------------
    def evaluate(self, params: InputParams, tunables: TunableParams) -> SearchRecord:
        """Evaluate a single configuration point."""
        rtime = self.cost_model.predict(params, tunables)
        return SearchRecord(
            params=params,
            tunables=tunables.clipped(params.dim),
            rtime=rtime,
            exceeded_threshold=rtime > self.threshold_s,
        )

    def sweep_instance(self, params: InputParams) -> list[SearchRecord]:
        """Evaluate every configuration of one instance."""
        return [
            self.evaluate(params, tunables)
            for tunables in self.search_space.configurations(params)
        ]

    def sweep(self) -> SearchResults:
        """Run the full sweep (a space is never empty); also collects the serial baselines."""
        results = SearchResults(system=self.system.name, threshold_s=self.threshold_s)
        for params in self.search_space.instances():
            results.serial_times[params] = self.cost_model.baseline_serial(params)
            for record in self.sweep_instance(params):
                results.add(record)
        return results
