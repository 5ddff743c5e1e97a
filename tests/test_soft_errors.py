"""Transient (soft) error injection tests."""

from __future__ import annotations

import pytest

from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry



def make_device(rate: float) -> FlashDevice:
    return FlashDevice(geometry=FlashGeometry(frames_per_block=2,
                                              num_blocks=2),
                       soft_error_rate_per_bit=rate, seed=11)


#: Page (0, 0, 0) of any geometry.
FIRST = 0


class TestSoftErrors:
    def test_zero_rate_is_clean(self):
        device = make_device(0.0)
        for _ in range(20):
            assert device.read_page(FIRST).raw_bit_errors == 0

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            make_device(-0.1)
        with pytest.raises(ValueError):
            make_device(1.5)

    def test_mean_matches_rate(self):
        rate = 2e-4
        device = make_device(rate)
        samples = [device.read_page(FIRST).raw_bit_errors
                   for _ in range(400)]
        expected = rate * device.geometry.cells_per_frame
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(expected, rel=0.25)

    def test_errors_are_transient_not_persistent(self):
        """Unlike wear-out, soft errors do not grow over time."""
        device = make_device(1e-4)
        early = sum(device.read_page(FIRST).raw_bit_errors
                    for _ in range(100))
        device.age_block(0, 1_000_000)  # no wear model: aging is inert
        late = sum(device.read_page(FIRST).raw_bit_errors
                   for _ in range(100))
        assert late == pytest.approx(early, abs=max(30, early))

    def test_ecc_absorbs_rare_soft_errors(self):
        """The controller corrects sub-t soft error bursts transparently."""
        from repro.core.controller import (ControllerConfig,
                                           ProgrammableFlashController)
        device = make_device(5e-5)  # mean ~0.8 errors per read
        controller = ProgrammableFlashController(
            device, config=ControllerConfig(initial_ecc_strength=6))
        recovered = [controller.read(FIRST).recovered
                     for _ in range(100)]
        assert sum(recovered) >= 99
