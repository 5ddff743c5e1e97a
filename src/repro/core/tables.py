"""The four DRAM-resident Flash management tables (paper section 3).

The Flash based disk cache is software managed; all of its metadata lives
in DRAM (kept out of Flash because metadata updates would wear it out):

* **FCHT** — FlashCache hash table: maps disk logical block addresses to
  Flash page addresses; fully associative, accessed by hashing.
* **FPST** — Flash page status table: per page, the ECC strength,
  SLC/MLC mode, a saturating access counter, and the valid bit.
* **FBST** — Flash block status table: per block, the erase count and the
  inputs of the wear-out cost function
  ``wear_out = N_erase + k1 * TotalECC + k2 * TotalSLC_MLC``.
* **FGST** — Flash global status table: running miss rate and average
  hit/miss latencies, consumed by the reconfiguration heuristics.

Section 3 bounds the combined overhead at <2% of the Flash size (~360MB of
DRAM for 32GB of Flash); :func:`metadata_overhead_bytes` reproduces that
estimate at 22 B per 2 KB page.  The simulator keys pages by page number
(:meth:`~repro.flash.geometry.FlashGeometry.page_number`): the FPST is six
columns indexed by it, 16 B per page number, and the FCHT's dict entry
costs about 130 B per cached page.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, Optional, Sequence

from ..flash.timing import CellMode

__all__ = [
    "FPSTEntry",
    "FlashPageStatusTable",
    "FBSTEntry",
    "FlashBlockStatusTable",
    "FlashGlobalStatus",
    "FlashCacheHashTable",
    "metadata_overhead_bytes",
]

#: Saturating access-counter ceiling (FPST "saturating access counter").
ACCESS_COUNTER_MAX = 64


def _column(name: str, load: Optional[Callable[[Any], Any]] = None,
            store: Optional[Callable[[Any], Any]] = None) -> Any:
    """An :class:`FPSTEntry` field read and written through to a column."""
    def get(row: "FPSTEntry") -> Any:
        value = getattr(row.table, name)[row.page]
        return value if load is None else load(value)

    def put(row: "FPSTEntry", value: Any) -> None:
        getattr(row.table, name)[row.page] = (
            value if store is None else store(value))
    return property(get, put)


class FPSTEntry:
    """One page's FPST row: ECC strength, density mode, hotness, validity
    and the reverse-map LBA, viewed in the table's columns."""

    __slots__ = ("table", "page")

    ecc_strength = _column("ecc")
    access_count = _column("access")
    valid = _column("valid", bool, int)
    mode = _column("slc", lambda slc: CellMode.SLC if slc else CellMode.MLC,
                   lambda mode: mode is CellMode.SLC)
    #: Reverse map used by garbage collection (``None``: no LBA).
    lba = _column("lba", lambda lba: None if lba < 0 else lba,
                  lambda lba: -1 if lba is None else lba)

    def __init__(self, table: "FlashPageStatusTable", page: int) -> None:
        self.table = table
        self.page = page

    def saturate(self, counter_max: int = ACCESS_COUNTER_MAX) -> None:
        """Set the counter to its ceiling (used after an SLC migration,
        section 5.2.2: "set to a saturated value")."""
        self.access_count = counter_max


class FlashPageStatusTable:
    """FPST: parallel columns indexed by page number.

    ``present`` marks the pages that have an entry (:meth:`entry` creates
    one, :meth:`drop` removes it), so an entry's ECC strength survives
    erases exactly as long as the page does.  ``slc`` is the density mode
    (1 for SLC) and ``lba`` the reverse map, -1 for none.  The controller
    indexes the columns directly.
    """

    def __init__(self, num_pages: int, default_ecc_strength: int = 1) -> None:
        self.default_ecc_strength = default_ecc_strength
        self.present = bytearray(num_pages)
        self.valid = bytearray(num_pages)
        self.slc = bytearray(num_pages)
        self.ecc = bytearray(num_pages)
        self.access = array("i", [0]) * num_pages
        self.lba = array("q", [-1]) * num_pages

    def entry(self, page: int) -> FPSTEntry:
        """The page's entry, created (at the default strength) if absent."""
        if not self.present[page]:
            self.present[page] = 1
            self.valid[page] = self.slc[page] = self.access[page] = 0
            self.ecc[page] = self.default_ecc_strength
            self.lba[page] = -1
        return FPSTEntry(self, page)

    def get(self, page: int) -> Optional[FPSTEntry]:
        return FPSTEntry(self, page) if self.present[page] else None

    def drop(self, page: int) -> None:
        self.present[page] = self.valid[page] = 0
        self.lba[page] = -1

    def reset_erased(self, pages: Iterable[int],
                     modes: Sequence[CellMode],
                     initial_strength: int) -> int:
        """Reset the entries of an erased block; returns its TotalECC.

        ``pages`` is the block's pre-erase layout and ``modes`` its
        post-erase frame modes.  A frame now in SLC mode has one page,
        so its subpage-1 entry drops.  ECC strength and density mode
        describe the *physical* page's wear state, so they persist;
        contents-related fields (validity, LBA, hotness) reset.  The
        returned wear signal is strength *added* over
        ``initial_strength``, matching the incremental accounting done
        when a reconfiguration happens between erases.
        """
        present, ecc = self.present, self.ecc
        frames = len(modes)
        slc = CellMode.SLC
        total_ecc = 0
        for page in pages:
            mode = modes[(page >> 1) % frames]
            if page & 1 and mode is slc:
                self.drop(page)
            elif present[page]:
                self.valid[page] = self.access[page] = 0
                self.lba[page] = -1
                self.slc[page] = mode is slc
                total_ecc += max(ecc[page] - initial_strength, 0)
        return total_ecc


@dataclass
class FBSTEntry:
    """Flash block status: erase count plus wear cost-function inputs.

    ``total_ecc`` is the sum of ECC strengths across the block's pages and
    ``total_slc_pages`` the number of pages converted to SLC due to wear —
    exactly the ``TotalECC,i`` and ``TotalSLC_MLC,i`` terms of section 3.3.
    """

    erase_count: int = 0
    total_ecc: int = 0
    total_slc_pages: int = 0
    retired: bool = False

    def wear_out(self, k1: float, k2: float) -> float:
        """The paper's degree-of-wear-out cost function."""
        return (self.erase_count
                + k1 * self.total_ecc
                + k2 * self.total_slc_pages)


class FlashBlockStatusTable:
    """FBST: per-block wear profile, driving wear-level-aware replacement."""

    def __init__(self, num_blocks: int, k1: float = 1.0, k2: float = 10.0) -> None:
        if num_blocks < 1:
            raise ValueError("FBST needs at least one block")
        if k2 < k1:
            raise ValueError(
                "k2 must be >= k1: a density switch signals more wear than "
                "an ECC strength increase (section 3.3)"
            )
        self.k1 = k1
        self.k2 = k2
        self._entries = [FBSTEntry() for _ in range(num_blocks)]

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, block: int) -> FBSTEntry:
        return self._entries[block]

    def wear_out(self, block: int) -> float:
        return self._entries[block].wear_out(self.k1, self.k2)

    def live_blocks(self) -> Iterator[int]:
        for index, entry in enumerate(self._entries):
            if not entry.retired:
                yield index

    @property
    def retired_count(self) -> int:
        return sum(1 for entry in self._entries if entry.retired)


@dataclass
class FlashGlobalStatus:
    """FGST: running cache-wide miss rate and latency averages.

    Updated on every secondary-disk-cache access; the reconfiguration
    heuristics (section 5.2.1) read ``miss_rate``, ``avg_hit_latency_us``
    and ``avg_miss_penalty_us`` from here.  Exponentially weighted moving
    averages keep the figures responsive to phase changes without storing
    history.
    """

    hits: int = 0
    misses: int = 0
    total_accesses: int = 0
    avg_hit_latency_us: float = 0.0
    avg_miss_penalty_us: float = 0.0
    ewma_alpha: float = 0.01

    def record_hit(self, latency_us: float) -> None:
        self.hits += 1
        self.total_accesses += 1
        current = self.avg_hit_latency_us
        alpha = self.ewma_alpha
        self.avg_hit_latency_us = (
            latency_us if current == 0.0
            else (1.0 - alpha) * current + alpha * latency_us)

    def record_miss(self, penalty_us: float) -> None:
        self.misses += 1
        self.total_accesses += 1
        current = self.avg_miss_penalty_us
        alpha = self.ewma_alpha
        self.avg_miss_penalty_us = (
            penalty_us if current == 0.0
            else (1.0 - alpha) * current + alpha * penalty_us)

    @property
    def miss_rate(self) -> float:
        total = self.hits + self.misses
        return self.misses / total if total else 0.0

    def relative_frequency(self, access_count: int) -> float:
        """``freq_i``: a page's share of total cache accesses."""
        if self.total_accesses == 0:
            return 0.0
        return access_count / self.total_accesses


class FlashCacheHashTable:
    """FCHT: fully associative LBA -> Flash-address map with hashed lookup.

    Functionally a dictionary; the ``buckets`` parameter models the
    hash-table *indexing width* from section 3.1 (the paper found ~100
    indexable entries reach maximum throughput) via
    :meth:`lookup_cost_us` — longer expected chains cost more tag checks.
    """

    #: Per-probe software cost on the platform's 1GHz in-order cores.
    PROBE_COST_US = 0.02
    #: Fixed hash + dispatch overhead per lookup.
    BASE_COST_US = 0.05

    def __init__(self, buckets: int = 128) -> None:
        if buckets < 1:
            raise ValueError("FCHT needs at least one bucket")
        self.buckets = buckets
        #: LBA -> page number.  The cache's read and fill paths index
        #: it directly.
        self.mapping: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.mapping)

    def __contains__(self, lba: int) -> bool:
        return lba in self.mapping

    def lookup(self, lba: int) -> Optional[int]:
        return self.mapping.get(lba)

    def insert(self, lba: int, page: int) -> None:
        self.mapping[lba] = page

    def remove(self, lba: int) -> Optional[int]:
        return self.mapping.pop(lba, None)

    def lookup_cost_us(self) -> float:
        """Expected software lookup latency for the current occupancy."""
        expected_chain = max(1.0, len(self.mapping) / self.buckets)
        return self.BASE_COST_US + self.PROBE_COST_US * expected_chain

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(self.mapping.items())


def metadata_overhead_bytes(flash_bytes: int, page_bytes: int = 2048,
                            fcht_entry_bytes: int = 16,
                            fpst_entry_bytes: int = 6,
                            fbst_entry_bytes: int = 8,
                            pages_per_block: int = 128) -> int:
    """DRAM footprint of the four tables for a given Flash size.

    Section 3: "The overhead of the four tables ... is less than 2% of the
    Flash size", dominated by the per-page FCHT and FPST. For 32GB of MLC
    Flash this lands in the paper's ~360MB ballpark.
    """
    if flash_bytes < page_bytes:
        raise ValueError("flash smaller than one page")
    num_pages = flash_bytes // page_bytes
    num_blocks = max(1, num_pages // pages_per_block)
    fgst_bytes = 64
    return (num_pages * (fcht_entry_bytes + fpst_entry_bytes)
            + num_blocks * fbst_entry_bytes
            + fgst_bytes)
