"""Tests for the input/tunable parameter models (Tables 1 and 2)."""

import pytest

from repro.core.exceptions import InvalidParameterError
from repro.core.params import InputParams, TunableParams, SERIAL_BASELINE


class TestInputParams:
    def test_element_size_matches_paper_examples(self):
        # "dsize=5 means size of each element is 8+5*8=48 bytes"
        assert InputParams(dim=500, tsize=10, dsize=5).element_nbytes == 48
        assert InputParams(dim=500, tsize=10, dsize=1).element_nbytes == 16

    def test_cells_and_diagonals(self):
        p = InputParams(dim=6, tsize=1, dsize=0)
        assert p.cells == 36
        assert p.n_diagonals == 11

    def test_features_keys(self):
        feats = InputParams(dim=700, tsize=750, dsize=4).features()
        assert set(feats) == {"dim", "tsize", "dsize"}
        assert feats["tsize"] == 750.0

    @pytest.mark.parametrize(
        "kwargs",
        [dict(dim=1, tsize=1, dsize=0), dict(dim=10, tsize=0, dsize=0), dict(dim=10, tsize=1, dsize=-1)],
    )
    def test_invalid_inputs_rejected(self, kwargs):
        with pytest.raises(InvalidParameterError):
            InputParams(**kwargs)


class TestTunableParams:
    def test_defaults_are_cpu_only(self):
        t = TunableParams()
        assert t.is_cpu_only and not t.uses_gpu

    def test_encoding_no_gpu(self):
        t = TunableParams.from_encoding(cpu_tile=4, band=-1, halo=7, gpu_tile=8)
        assert t.gpu_count == 0 and t.band == -1 and t.halo == -1 and t.gpu_tile == 1

    def test_encoding_single_gpu(self):
        t = TunableParams.from_encoding(cpu_tile=2, band=10, halo=-1, gpu_tile=4)
        assert t.gpu_count == 1 and t.band == 10 and t.halo == -1

    def test_encoding_dual_gpu(self):
        t = TunableParams.from_encoding(cpu_tile=2, band=10, halo=0, gpu_tile=1)
        assert t.gpu_count == 2 and t.halo == 0

    def test_encoding_roundtrip(self):
        t = TunableParams.from_encoding(cpu_tile=8, band=33, halo=5, gpu_tile=4)
        assert TunableParams.from_encoding(t.cpu_tile, t.band, t.halo, t.gpu_tile) == t

    def test_inconsistent_combinations_rejected(self):
        with pytest.raises(InvalidParameterError):
            TunableParams(cpu_tile=1, band=5, gpu_count=0)
        with pytest.raises(InvalidParameterError):
            TunableParams(cpu_tile=1, band=-1, gpu_count=1)
        with pytest.raises(InvalidParameterError):
            TunableParams(cpu_tile=1, band=5, gpu_count=1, halo=3)
        with pytest.raises(InvalidParameterError):
            TunableParams(cpu_tile=1, band=5, gpu_count=2, halo=-1)

    def test_clipping_band_and_halo(self):
        t = TunableParams.from_encoding(cpu_tile=16, band=5000, halo=4000, gpu_tile=64)
        c = t.clipped(dim=100)
        assert c.band == 99
        assert c.cpu_tile == 16 or c.cpu_tile <= 100
        assert c.halo <= (100 - c.band) // 2 + 1
        assert c.gpu_tile <= 100

    def test_clipping_preserves_cpu_only(self):
        t = TunableParams(cpu_tile=8)
        assert t.clipped(64) == TunableParams(cpu_tile=8)

    def test_describe_mentions_mode(self):
        assert "CPU-only" in TunableParams(cpu_tile=2).describe()
        dual = TunableParams.from_encoding(1, 5, 2, 1)
        assert "halo=2" in dual.describe()

    def test_serial_baseline_constant(self):
        assert SERIAL_BASELINE.is_cpu_only and SERIAL_BASELINE.cpu_tile == 1

    def test_ordering_and_hashing(self):
        a = TunableParams(cpu_tile=1)
        b = TunableParams(cpu_tile=2)
        assert a < b
        assert len({a, b, TunableParams(cpu_tile=1)}) == 2
