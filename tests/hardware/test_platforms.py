"""Tests for the Table 4 platform presets."""

import pytest

from repro.hardware import platforms


class TestTable4Systems:
    def test_three_systems_registered(self):
        assert len(platforms.ALL_SYSTEMS) == 3
        assert {s.name for s in platforms.ALL_SYSTEMS} == {"i3-540", "i7-2600K", "i7-3820"}

    def test_i3_row(self):
        s = platforms.I3_540
        assert s.cpu.freq_mhz == 1200 and s.cpu.cores == 4 and s.cpu.mem_gb == 4
        assert s.gpu_count == 1
        assert s.gpu(0).name == "GeForce GTX 480"
        assert s.gpu(0).compute_units == 15 and s.gpu(0).freq_mhz == 1401

    def test_i7_2600k_row(self):
        s = platforms.I7_2600K
        assert s.cpu.freq_mhz == 1600 and s.cpu.cores == 8 and s.cpu.mem_gb == 8
        assert s.gpu_count == 4  # 4x GTX 590 dies
        assert s.max_usable_gpus == 2
        assert s.gpu(0).compute_units == 16 and s.gpu(0).freq_mhz == 1215

    def test_i7_3820_row(self):
        s = platforms.I7_3820
        assert s.cpu.freq_mhz == 3601 and s.cpu.cores == 8 and s.cpu.mem_gb == 16
        assert s.gpu_count == 2
        assert {g.name for g in s.gpus} == {"Tesla C2070", "Tesla C2075"}
        assert s.gpu(0).compute_units == 14 and s.gpu(0).freq_mhz == 1147

    def test_cpu_speed_ordering_matches_paper_narrative(self):
        # The i3 has the slowest cores, the i7-3820 the fastest.
        assert (
            platforms.I3_540.cpu.freq_mhz
            < platforms.I7_2600K.cpu.freq_mhz
            < platforms.I7_3820.cpu.freq_mhz
        )

    def test_lookup_by_name(self):
        assert platforms.get_system("i3-540") is platforms.I3_540
        with pytest.raises(KeyError):
            platforms.get_system("raspberry-pi")
