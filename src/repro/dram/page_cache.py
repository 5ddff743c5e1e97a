"""The primary disk cache (PDC): the OS page cache living in DRAM.

In both of the paper's configurations (Figure 2) the OS keeps its page
cache in DRAM; with Flash present the PDC shrinks (e.g. 512MB -> 256MB)
and the Flash secondary cache absorbs the rest of the working set.

The PDC is a write-back LRU cache over fixed-size disk pages.  Reads and
writes hit or allocate; dirty pages are written back to the next level
when evicted (the paper's "periodically scheduled to be written back"
collapses to eviction-driven write-back, plus an explicit ``flush``
used at simulation barriers).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, NamedTuple, Sequence, Tuple

__all__ = ["PdcStats", "Eviction", "PrimaryDiskCache"]


@dataclass
class PdcStats:
    """Hit/miss counters for the primary disk cache."""

    read_hits: int = 0
    read_misses: int = 0
    write_hits: int = 0
    write_misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0

    @property
    def accesses(self) -> int:
        return (self.read_hits + self.read_misses
                + self.write_hits + self.write_misses)

    @property
    def read_miss_rate(self) -> float:
        reads = self.read_hits + self.read_misses
        return self.read_misses / reads if reads else 0.0

    @property
    def miss_rate(self) -> float:
        total = self.accesses
        misses = self.read_misses + self.write_misses
        return misses / total if total else 0.0


class Eviction(NamedTuple):
    """A page pushed out of the PDC; ``dirty`` pages must be written back."""

    page: int
    dirty: bool


#: What every hit returns: no evictions, as one shared immutable value,
#: so the hit path allocates nothing.
_HIT: Tuple[bool, Tuple[Eviction, ...]] = (True, ())


class PrimaryDiskCache:
    """Write-back LRU page cache in DRAM.

    Parameters
    ----------
    capacity_pages:
        Number of page slots (DRAM bytes reserved for caching divided by
        the disk-page size).
    """

    def __init__(self, capacity_pages: int):
        if capacity_pages < 1:
            raise ValueError("PDC capacity must be at least one page")
        self.capacity_pages = capacity_pages
        self._pages: "OrderedDict[int, bool]" = OrderedDict()  # page -> dirty
        self.stats = PdcStats()

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page: int) -> bool:
        return page in self._pages

    @property
    def dirty_pages(self) -> int:
        return sum(1 for dirty in self._pages.values() if dirty)

    # -- accesses -------------------------------------------------------------

    def read(self, page: int) -> Tuple[bool, Sequence[Eviction]]:
        """Look up ``page`` for a read.

        Returns ``(hit, evictions)``.  On a miss the page is installed
        clean (the caller fetches the contents from the next level) and the
        LRU victim, if any, is reported for write-back.  A hit reports an
        empty tuple.
        """
        pages = self._pages
        if page in pages:
            pages.move_to_end(page)
            self.stats.read_hits += 1
            return _HIT
        self.stats.read_misses += 1
        return False, self._install(page, dirty=False)

    def write(self, page: int) -> Tuple[bool, Sequence[Eviction]]:
        """Write ``page``: mark dirty, installing it on a miss."""
        pages = self._pages
        if page in pages:
            pages[page] = True
            pages.move_to_end(page)
            self.stats.write_hits += 1
            return _HIT
        self.stats.write_misses += 1
        return False, self._install(page, dirty=True)

    def invalidate(self, page: int) -> bool:
        """Drop a page (e.g. trimmed file); returns whether it was present."""
        return self._pages.pop(page, None) is not None

    def _install(self, page: int, dirty: bool) -> List[Eviction]:
        evictions: List[Eviction] = []
        while len(self._pages) >= self.capacity_pages:
            victim, victim_dirty = self._pages.popitem(last=False)
            self.stats.evictions += 1
            if victim_dirty:
                self.stats.dirty_evictions += 1
            evictions.append(Eviction(victim, victim_dirty))
        self._pages[page] = dirty
        return evictions

    # -- maintenance ----------------------------------------------------------

    def flush(self) -> List[int]:
        """Clean every dirty page, returning the pages needing write-back."""
        flushed = [page for page, dirty in self._pages.items() if dirty]
        for page in flushed:
            self._pages[page] = False
        return flushed
