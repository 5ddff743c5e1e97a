"""NAND Flash array geometry: pages, frames, blocks, dual-mode capacity.

The paper's device (section 2.1, Figure 1(a), after Cho et al.) is a
dual-mode SLC/MLC NAND:

* a page holds 2048 data bytes plus 64 spare bytes for ECC;
* a *page frame* (one physical wordline's worth of cells) stores one page
  in SLC mode or two pages in MLC mode;
* a block erases as a unit and contains 64 frames — hence 64 SLC pages or
  128 MLC pages (128KB / 256KB of data).

A page is addressed by one int, its *page number*
``(block * frames_per_block + frame) * 2 + subpage``: every per-page table
is a column indexed by it.  ``subpage`` selects the upper/lower MLC page
within a frame and must be 0 for SLC frames.  :class:`PageAddress` is the
decoded ``(block, frame, subpage)`` view, for messages and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .timing import CellMode

__all__ = [
    "FlashGeometry",
    "PageAddress",
    "DEFAULT_GEOMETRY",
]


class _PageAddressFields(NamedTuple):
    block: int
    frame: int
    subpage: int = 0


class PageAddress(_PageAddressFields):
    """Physical address of one logical Flash page.

    ``subpage`` is 0 for SLC frames, and 0 or 1 for the two MLC pages that
    share a frame.

    A validated tuple: every page op builds, hashes and unpacks these, and
    a tuple does all three in C.  Its hash is ``hash((block, frame,
    subpage))``, so sets and dicts of addresses iterate in the same order
    as they would over plain triples.
    """

    __slots__ = ()

    def __new__(cls, block: int, frame: int,
                subpage: int = 0) -> "PageAddress":
        if block < 0 or frame < 0 or subpage not in (0, 1):
            raise ValueError(
                f"invalid page address PageAddress(block={block!r}, "
                f"frame={frame!r}, subpage={subpage!r})")
        return tuple.__new__(cls, (block, frame, subpage))


@dataclass(frozen=True)
class FlashGeometry:
    """Static array dimensions of the dual-mode NAND device."""

    page_data_bytes: int = 2048
    page_spare_bytes: int = 64
    frames_per_block: int = 64
    num_blocks: int = 1024

    def __post_init__(self) -> None:
        if min(self.page_data_bytes, self.page_spare_bytes,
               self.frames_per_block, self.num_blocks) < 1:
            raise ValueError("geometry dimensions must be positive")

    # -- per-mode derived quantities ----------------------------------------

    def pages_per_frame(self, mode: CellMode) -> int:
        return mode.bits_per_cell

    def pages_per_block(self, mode: CellMode) -> int:
        """64 in SLC mode, 128 in MLC mode (paper section 2.1)."""
        return self.frames_per_block * self.pages_per_frame(mode)

    def block_data_bytes(self, mode: CellMode) -> int:
        return self.pages_per_block(mode) * self.page_data_bytes

    def device_data_bytes(self, mode: CellMode) -> int:
        return self.num_blocks * self.block_data_bytes(mode)

    # -- physical cell accounting -------------------------------------------

    @property
    def cells_per_frame(self) -> int:
        """One cell per MLC bit: a frame physically holds 2 MLC pages."""
        return (self.page_data_bytes + self.page_spare_bytes) * 8

    def data_cells_per_page(self, mode: CellMode) -> int:
        """Cells backing one logical page's data+spare area.

        An SLC page uses the frame's full cell count at 1 bit/cell; an MLC
        page uses half the frame's cells at 2 bits/cell — either way the bit
        count is (2048 + 64) * 8.
        """
        return self.cells_per_frame // self.pages_per_frame(mode)

    # -- capacity helpers -----------------------------------------------------

    @classmethod
    def for_capacity(cls, data_bytes: int, mode: CellMode = CellMode.MLC,
                     page_data_bytes: int = 2048, page_spare_bytes: int = 64,
                     frames_per_block: int = 64) -> "FlashGeometry":
        """Geometry with enough whole blocks to hold ``data_bytes`` in ``mode``.

        Used by experiments that specify Flash size as a capacity
        (e.g. "1GB Flash" in Table 3) rather than a block count.
        """
        if data_bytes < 1:
            raise ValueError("capacity must be positive")
        probe = cls(page_data_bytes, page_spare_bytes, frames_per_block, 1)
        block_bytes = probe.block_data_bytes(mode)
        num_blocks = -(-data_bytes // block_bytes)
        return cls(page_data_bytes, page_spare_bytes, frames_per_block,
                   num_blocks)

    # -- page numbers ---------------------------------------------------------

    def page_number(self, block: int, frame: int, subpage: int = 0) -> int:
        """The number of page ``(block, frame, subpage)``."""
        if block < 0 or not 0 <= frame < self.frames_per_block \
                or subpage not in (0, 1):
            raise IndexError(
                f"no page ({block}, {frame}, {subpage}) in blocks of "
                f"{self.frames_per_block} frames")
        return (block * self.frames_per_block + frame) * 2 + subpage

    def page_address(self, page: int) -> PageAddress:
        """The ``(block, frame, subpage)`` view of a page number."""
        frame_key, subpage = divmod(page, 2)
        block, frame = divmod(frame_key, self.frames_per_block)
        return PageAddress(block, frame, subpage)

    def validate_address(self, address: PageAddress,
                         mode: CellMode) -> None:
        """Raise if ``address`` is outside the array or wrong for ``mode``."""
        if address.block >= self.num_blocks:
            raise IndexError(
                f"block {address.block} out of range "
                f"(device has {self.num_blocks} blocks)"
            )
        if address.frame >= self.frames_per_block:
            raise IndexError(
                f"frame {address.frame} out of range "
                f"(blocks have {self.frames_per_block} frames)"
            )
        if address.subpage >= self.pages_per_frame(mode):
            raise IndexError(
                f"subpage {address.subpage} invalid for {mode.value} frame"
            )


DEFAULT_GEOMETRY = FlashGeometry()
