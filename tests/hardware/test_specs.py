"""Tests for CPU / GPU / system specifications."""

import pytest

from repro.core.exceptions import InvalidParameterError
from repro.hardware.cpu import CPUSpec
from repro.hardware.gpu import GPUSpec
from repro.hardware.system import InterconnectSpec, SystemSpec


class TestCPUSpec:
    def test_derived_quantities(self):
        cpu = CPUSpec(name="test", freq_mhz=1600, cores=8, mem_gb=8)
        assert cpu.freq_ghz == pytest.approx(1.6)
        assert cpu.workers == 8
        assert 4 <= cpu.effective_cores <= 8

    def test_no_hyperthreading_effective_cores(self):
        cpu = CPUSpec(name="t", freq_mhz=1000, cores=4, mem_gb=4, hyperthreaded=False)
        assert cpu.effective_cores == 4.0

    def test_describe(self):
        assert "8 cores" in CPUSpec(name="x", freq_mhz=1600, cores=8, mem_gb=8).describe()

    @pytest.mark.parametrize("kwargs", [
        dict(name="x", freq_mhz=0, cores=4, mem_gb=4),
        dict(name="x", freq_mhz=1000, cores=0, mem_gb=4),
        dict(name="x", freq_mhz=1000, cores=4, mem_gb=0),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParameterError):
            CPUSpec(**kwargs)


class TestGPUSpec:
    def test_parallel_width(self):
        gpu = GPUSpec(name="g", freq_mhz=1200, compute_units=15, mem_gb=1.6)
        assert gpu.parallel_width == 15 * gpu.lanes_per_cu

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            GPUSpec(name="g", freq_mhz=1200, compute_units=0, mem_gb=1)
        with pytest.raises(InvalidParameterError):
            GPUSpec(name="g", freq_mhz=1200, compute_units=4, mem_gb=1, lanes_per_cu=0)


class TestInterconnect:
    def test_transfer_time_has_latency_floor(self):
        link = InterconnectSpec(bandwidth_gbs=5.0, latency_us=20.0)
        assert link.transfer_time(0) == 0.0
        assert link.transfer_time(1) == pytest.approx(20e-6, rel=1e-3)
        big = link.transfer_time(5 * 10**9)
        assert big == pytest.approx(1.0 + 20e-6)

    def test_transfer_monotone_in_bytes(self):
        link = InterconnectSpec()
        assert link.transfer_time(10**6) < link.transfer_time(10**8)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            InterconnectSpec(bandwidth_gbs=0)
        with pytest.raises(InvalidParameterError):
            InterconnectSpec(latency_us=-1)
        with pytest.raises(InvalidParameterError):
            InterconnectSpec().transfer_time(-5)


class TestSystemSpec:
    def test_gpu_access(self):
        gpu = GPUSpec(name="g", freq_mhz=1200, compute_units=8, mem_gb=2)
        system = SystemSpec(name="s", cpu=CPUSpec("c", 1600, 4, 4), gpus=(gpu, gpu))
        assert system.gpu_count == 2 and system.max_usable_gpus == 2
        assert system.gpu(1).name == "g"
        with pytest.raises(InvalidParameterError):
            system.gpu(2)

    def test_cpu_only_system(self):
        system = SystemSpec(name="cpu-only", cpu=CPUSpec("c", 1600, 4, 4))
        assert not system.has_gpu and system.max_usable_gpus == 0

    def test_max_usable_gpus_capped_at_two(self):
        gpu = GPUSpec(name="g", freq_mhz=1200, compute_units=8, mem_gb=2)
        system = SystemSpec(name="s", cpu=CPUSpec("c", 1600, 4, 4), gpus=(gpu,) * 4)
        assert system.max_usable_gpus == 2

    def test_describe_lists_devices(self):
        gpu = GPUSpec(name="gpu-x", freq_mhz=1200, compute_units=8, mem_gb=2)
        text = SystemSpec(name="s", cpu=CPUSpec("c", 1600, 4, 4), gpus=(gpu,)).describe()
        assert "gpu-x" in text and "Interconnect" in text
