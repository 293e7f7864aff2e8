"""Tests for the Table 3 parameter space."""

import pytest

from repro.core.exceptions import InvalidParameterError
from repro.core.parameter_space import (
    PAPER_CPU_TILES,
    PAPER_DIMS,
    PAPER_DSIZES,
    PAPER_GPU_TILES,
    PAPER_TSIZES,
    ParameterSpace,
)
from repro.core.params import InputParams


class TestPaperRanges:
    def test_table3_values(self):
        # Spot-check the published Table 3 ranges.
        assert PAPER_DIMS[0] == 500 and PAPER_DIMS[-1] == 3100
        assert 12000 in PAPER_TSIZES and 10 in PAPER_TSIZES
        assert PAPER_DSIZES == (1, 3, 5)
        assert PAPER_CPU_TILES == (1, 2, 4, 8, 10)
        assert PAPER_GPU_TILES == (1, 4, 8, 11, 16, 21, 25)

    def test_paper_space_instance_count(self):
        space = ParameterSpace.paper()
        assert space.n_instances == len(PAPER_DIMS) * len(PAPER_TSIZES) * len(PAPER_DSIZES)


class TestParameterSpace:
    def test_instances_enumeration(self):
        space = ParameterSpace.tiny()
        instances = list(space.instances())
        assert len(instances) == space.n_instances
        assert all(isinstance(p, InputParams) for p in instances)

    def test_band_values_contain_anchors(self):
        space = ParameterSpace.reduced()
        bands = space.band_values(1100)
        assert -1 in bands and 0 in bands and 1099 in bands
        assert bands == sorted(bands)
        assert all(-1 <= b <= 1099 for b in bands)

    def test_band_values_deterministic(self):
        space = ParameterSpace.reduced()
        assert space.band_values(1900) == space.band_values(1900)

    def test_band_values_irregular_spacing(self):
        # Interior values should not form a perfectly regular lattice.
        bands = [b for b in ParameterSpace.reduced().band_values(2700) if b > 0]
        gaps = {b2 - b1 for b1, b2 in zip(bands, bands[1:])}
        assert len(gaps) > 1

    def test_halo_values_for_cpu_band(self):
        assert ParameterSpace.tiny().halo_values(128, -1) == [-1]

    def test_halo_values_bounded_by_half_first_diagonal(self):
        space = ParameterSpace.reduced()
        halos = space.halo_values(1100, 100)
        max_allowed = (1100 - 100) // 2
        assert all(h <= max_allowed for h in halos)
        assert -1 in halos and 0 in halos

    def test_configurations_respect_gpu_limit(self):
        space = ParameterSpace.tiny()
        instance = InputParams(dim=64, tsize=10, dsize=1)
        cpu_only = list(space.configurations(instance, max_gpus=0))
        assert all(c.is_cpu_only for c in cpu_only)
        single = list(space.configurations(instance, max_gpus=1))
        assert all(c.gpu_count <= 1 for c in single)
        dual = list(space.configurations(instance, max_gpus=2))
        assert any(c.gpu_count == 2 for c in dual)

    def test_configurations_are_valid_for_instance(self):
        space = ParameterSpace.tiny()
        instance = InputParams(dim=64, tsize=10, dsize=1)
        for config in space.configurations(instance):
            assert config.band <= 63
            assert config.cpu_tile <= 64

    def test_describe_contents(self):
        info = ParameterSpace.reduced().describe()
        assert info["n_instances"] == ParameterSpace.reduced().n_instances
        assert "dims" in info and "gpu_tiles" in info

    def test_invalid_construction(self):
        with pytest.raises(InvalidParameterError):
            ParameterSpace(dims=())
        with pytest.raises(InvalidParameterError):
            ParameterSpace(n_band_values=0)
