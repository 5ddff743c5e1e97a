"""Flash array geometry tests (paper section 2.1, Figure 1(a))."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.flash.geometry import FlashGeometry, PageAddress, DEFAULT_GEOMETRY
from repro.flash.timing import CellMode


class TestPaperGeometry:
    """The published device shape: 2KB+64B pages, 64-frame blocks."""

    def test_page_sizes(self):
        assert DEFAULT_GEOMETRY.page_data_bytes == 2048
        assert DEFAULT_GEOMETRY.page_spare_bytes == 64

    def test_pages_per_block_by_mode(self):
        """Blocks of 64 SLC pages or 128 MLC pages (section 2.1)."""
        assert DEFAULT_GEOMETRY.pages_per_block(CellMode.SLC) == 64
        assert DEFAULT_GEOMETRY.pages_per_block(CellMode.MLC) == 128

    def test_block_data_bytes(self):
        assert DEFAULT_GEOMETRY.block_data_bytes(CellMode.SLC) == 128 << 10
        assert DEFAULT_GEOMETRY.block_data_bytes(CellMode.MLC) == 256 << 10

    def test_cells_per_frame(self):
        assert DEFAULT_GEOMETRY.cells_per_frame == (2048 + 64) * 8

    def test_data_cells_per_page_same_bit_count_either_mode(self):
        """Either mode stores (2048+64)*8 bits per logical page."""
        assert (DEFAULT_GEOMETRY.data_cells_per_page(CellMode.SLC)
                == DEFAULT_GEOMETRY.cells_per_frame)
        assert (DEFAULT_GEOMETRY.data_cells_per_page(CellMode.MLC)
                == DEFAULT_GEOMETRY.cells_per_frame // 2)


class TestValidation:
    def test_rejects_degenerate_dimensions(self):
        with pytest.raises(ValueError):
            FlashGeometry(num_blocks=0)
        with pytest.raises(ValueError):
            FlashGeometry(page_data_bytes=0)

    def test_page_address_validation(self):
        with pytest.raises(ValueError):
            PageAddress(-1, 0)
        with pytest.raises(ValueError):
            PageAddress(0, 0, subpage=2)

    def test_validate_address_bounds(self):
        geometry = FlashGeometry(frames_per_block=4, num_blocks=2)
        geometry.validate_address(PageAddress(1, 3, 1), CellMode.MLC)
        with pytest.raises(IndexError):
            geometry.validate_address(PageAddress(2, 0), CellMode.MLC)
        with pytest.raises(IndexError):
            geometry.validate_address(PageAddress(0, 4), CellMode.MLC)
        with pytest.raises(IndexError):
            geometry.validate_address(PageAddress(0, 0, 1), CellMode.SLC)

    @given(block=st.integers(0, 10_000), frame=st.integers(0, 63),
           subpage=st.integers(0, 1))
    def test_page_number_round_trips(self, block, frame, subpage):
        geometry = FlashGeometry()
        page = geometry.page_number(block, frame, subpage)
        assert page == (block * 64 + frame) * 2 + subpage
        assert geometry.page_address(page) == (block, frame, subpage)

    def test_page_number_rejects_what_would_alias(self):
        geometry = FlashGeometry(frames_per_block=4, num_blocks=2)
        # Frame 4 of block 0 would be frame 0 of block 1.
        for block, frame, subpage in ((0, 4, 0), (0, -1, 0), (-1, 0, 0),
                                      (0, 0, 2)):
            with pytest.raises(IndexError):
                geometry.page_number(block, frame, subpage)


class TestCapacitySizing:
    @given(capacity=st.integers(min_value=1, max_value=1 << 32))
    def test_for_capacity_is_sufficient_and_tight(self, capacity):
        geometry = FlashGeometry.for_capacity(capacity, mode=CellMode.MLC)
        block_bytes = geometry.block_data_bytes(CellMode.MLC)
        assert geometry.device_data_bytes(CellMode.MLC) >= capacity
        assert (geometry.device_data_bytes(CellMode.MLC) - capacity
                < block_bytes)

    def test_slc_capacity_needs_twice_the_blocks(self):
        mlc = FlashGeometry.for_capacity(1 << 26, mode=CellMode.MLC)
        slc = FlashGeometry.for_capacity(1 << 26, mode=CellMode.SLC)
        assert slc.num_blocks == 2 * mlc.num_blocks

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            FlashGeometry.for_capacity(0)


class TestPageAddressContract:
    """Every page op builds, hashes and compares these: the tuple-backed
    type must behave exactly like the triple it wraps."""

    @given(block=st.integers(min_value=0, max_value=1 << 20),
           frame=st.integers(min_value=0, max_value=255),
           subpage=st.integers(min_value=0, max_value=1))
    def test_hash_equals_the_plain_triple_hash(self, block, frame, subpage):
        # Sets and dicts of addresses iterate in hash order, and result
        # digests follow that order.
        assert hash(PageAddress(block, frame, subpage)) \
            == hash((block, frame, subpage))

    @pytest.mark.parametrize("args", [(-1, 0), (0, -1), (0, 0, 2),
                                      (0, 0, -1), (-3, -3, 5)])
    def test_invalid_addresses_raise_value_error(self, args):
        with pytest.raises(ValueError, match="invalid page address"):
            PageAddress(*args)

    def test_repr_and_fields(self):
        address = PageAddress(7, 3, 1)
        assert repr(address) == "PageAddress(block=7, frame=3, subpage=1)"
        assert (address.block, address.frame, address.subpage) == (7, 3, 1)
        assert PageAddress(7, 3).subpage == 0
        assert repr(PageAddress(7, 3)) \
            == "PageAddress(block=7, frame=3, subpage=0)"

    def test_pickle_round_trip(self):
        # Sweep workers pickle results that carry addresses.
        address = PageAddress(12, 5, 1)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(address, protocol=protocol))
            assert copy == address
            assert type(copy) is PageAddress
            assert repr(copy) == repr(address)

    def test_equal_addresses_dedupe(self):
        pages = {PageAddress(1, 2), PageAddress(1, 2, 0), PageAddress(1, 2, 1)}
        assert pages == {PageAddress(1, 2, 0), PageAddress(1, 2, 1)}
        assert len(pages) == 2
        assert {PageAddress(4, 4): "a"}[PageAddress(4, 4, 0)] == "a"
