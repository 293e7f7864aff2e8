"""Tests for the calibration layer."""

import dataclasses

from repro.hardware import platforms
from repro.hardware.calibration import (
    BASE_CONSTANTS,
    constants_for_system,
)


class TestConstantsForSystem:
    def test_known_systems_have_overrides(self):
        i3 = constants_for_system(platforms.I3_540)
        i7 = constants_for_system("i7-2600K")
        tesla = constants_for_system("i7-3820")
        assert i3.gpu_iter_penalty != BASE_CONSTANTS.gpu_iter_penalty or i3.gpu_startup_s != BASE_CONSTANTS.gpu_startup_s
        assert i7.multi_gpu_launch_factor >= BASE_CONSTANTS.multi_gpu_launch_factor
        assert tesla.gpu_iter_penalty < i7.gpu_iter_penalty

    def test_unknown_system_gets_baseline(self):
        custom = dataclasses.replace(platforms.I3_540, name="lab")
        assert constants_for_system(custom) == BASE_CONSTANTS

    def test_accepts_string_or_spec(self):
        assert constants_for_system("i3-540") == constants_for_system(platforms.I3_540)
