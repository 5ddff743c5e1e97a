"""Shared fixtures: small geometries and pre-wired cache stacks."""

from __future__ import annotations

import pytest

from repro.core.cache import FlashCacheConfig, FlashDiskCache
from repro.core.controller import ProgrammableFlashController
from repro.flash.device import FlashDevice
from repro.flash.geometry import FlashGeometry
from repro.flash.timing import CellMode
from repro.flash.wear import CellLifetimeModel, WearModelConfig


@pytest.fixture
def small_geometry() -> FlashGeometry:
    """8 blocks of 4 frames: tiny enough to exhaust in a unit test."""
    return FlashGeometry(frames_per_block=4, num_blocks=8)


@pytest.fixture
def device(small_geometry) -> FlashDevice:
    return FlashDevice(geometry=small_geometry, initial_mode=CellMode.MLC,
                       seed=99)


@pytest.fixture
def worn_device(small_geometry) -> FlashDevice:
    """Device with the wear model enabled."""
    return FlashDevice(
        geometry=small_geometry,
        lifetime_model=CellLifetimeModel(WearModelConfig(stdev_frac=0.05)),
        initial_mode=CellMode.MLC,
        seed=7,
    )


@pytest.fixture
def controller(device) -> ProgrammableFlashController:
    return ProgrammableFlashController(device)


@pytest.fixture
def split_cache(controller) -> FlashDiskCache:
    return FlashDiskCache(controller, FlashCacheConfig(
        split=True, hot_promotion=False))


@pytest.fixture
def unified_cache(controller) -> FlashDiskCache:
    return FlashDiskCache(controller, FlashCacheConfig(
        split=False, hot_promotion=False))


def make_cache(num_blocks: int = 8, frames_per_block: int = 4,
               **config_kwargs) -> FlashDiskCache:
    """Standalone cache factory for tests needing custom parameters."""
    geometry = FlashGeometry(frames_per_block=frames_per_block,
                             num_blocks=num_blocks)
    device = FlashDevice(geometry=geometry, initial_mode=CellMode.MLC)
    controller = ProgrammableFlashController(device)
    config_kwargs.setdefault("hot_promotion", False)
    return FlashDiskCache(controller, FlashCacheConfig(**config_kwargs))


def page_number(owner, block: int, frame: int, subpage: int = 0) -> int:
    """``(block, frame, subpage)`` as a page number of ``owner``'s
    geometry (a geometry, a device, or anything holding a ``device``)."""
    geometry = owner if isinstance(owner, FlashGeometry) else getattr(
        owner, "device", owner).geometry
    return geometry.page_number(block, frame, subpage)
