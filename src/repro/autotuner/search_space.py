"""The search space explored on one platform.

Couples a :class:`repro.core.parameter_space.ParameterSpace` (what the paper
sweeps, Table 3) with a :class:`repro.hardware.system.SystemSpec` (what the
platform can actually run — e.g. the i3-540 has one GPU, so the halo
dimension collapses).

Beyond the paper's five tunables the space carries an *engine* dimension —
which single-core engine (batched ``vectorized`` or scalar ``serial``) fills
the grid.  It does not interact with band / halo, so it does not multiply
the swept grid, and it is not priced: the engine a tuned plan runs on is
the first entry of :attr:`SearchSpace.engines`, the registry's preference
order.  The simulated clock ranks no live engine, tile or worker count —
those are measured (:mod:`repro.autotuner.measured`) or pinned by policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.parameter_space import ParameterSpace
from repro.core.params import InputParams, TunableParams
from repro.hardware.system import SystemSpec


@dataclass(frozen=True)
class SearchSpace:
    """Parameter space restricted to what ``system`` supports."""

    space: ParameterSpace
    system: SystemSpec

    @property
    def max_gpus(self) -> int:
        """GPUs the tuner may use on this system (the paper caps this at 2)."""
        return self.system.max_usable_gpus

    @property
    def engines(self) -> tuple[str, ...]:
        """Serial engines available to fill the grid, best first.

        ``("vectorized", "serial")`` — the registry's preference order.
        Every tuner-resolved plan fills its grid on the first entry;
        ``serial`` is the reference engine, reached only by an explicit
        policy or a measured profile.
        """
        from repro.runtime.registry import available_serial_engines

        return tuple(available_serial_engines())

    def instances(self) -> Iterator[InputParams]:
        """All (dim, tsize, dsize) instances of the space."""
        return self.space.instances()

    def configurations(self, instance: InputParams) -> list[TunableParams]:
        """Distinct tunable configurations explored for ``instance``."""
        seen: set[TunableParams] = set()
        out: list[TunableParams] = []
        for config in self.space.configurations(instance, max_gpus=self.max_gpus):
            if config not in seen:
                seen.add(config)
                out.append(config)
        return out

    def size_estimate(self) -> int:
        """Approximate number of (instance, configuration) points in the sweep."""
        total = 0
        for dim in self.space.dims:
            probe = InputParams(dim=dim, tsize=self.space.tsizes[0], dsize=self.space.dsizes[0])
            per_dim = len(self.configurations(probe))
            total += per_dim * len(self.space.tsizes) * len(self.space.dsizes)
        return total

    def describe(self) -> dict[str, object]:
        """Summary used by the Table 3 bench."""
        info = self.space.describe()
        info["system"] = self.system.name
        info["max_gpus"] = self.max_gpus
        info["engines"] = list(self.engines)
        info["size_estimate"] = self.size_estimate()
        return info
