"""Disk-access trace records and the UMass SPC trace format.

The paper's reliability and miss-rate studies are trace driven: synthetic
micro-benchmark traces plus the UMass Trace Repository's WebSearch and
Financial traces (Table 4, reference [8]).  The repository distributes
traces in the SPC format — CSV lines of

    ASU, LBA, Size, Opcode, Timestamp [, extra fields ignored]

with LBA/Size in 512-byte sectors and Opcode ``r``/``R`` or ``w``/``W``.
This module defines the in-memory record type used throughout the
simulator (page-granular, matching the 2KB Flash page the disk cache
manages), the columnar :class:`Trace` every generator and the SPC reader
return, and a reader/writer pair for SPC files, so the real traces can be
dropped in when available while the bundled generators provide
statistically matched substitutes.
"""

from __future__ import annotations

import io
from array import array
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, Sequence, Tuple, overload

__all__ = [
    "OP_READ",
    "OP_WRITE",
    "PAGE_BYTES",
    "SECTOR_BYTES",
    "Trace",
    "TraceRecord",
    "TraceStats",
    "read_spc",
    "write_spc",
    "records_from_spc_file",
    "summarize",
]

OP_READ = "r"
OP_WRITE = "w"

#: The disk-cache management granularity: one Flash page payload.
PAGE_BYTES = 2048
#: SPC traces address 512-byte sectors.
SECTOR_BYTES = 512
_SECTORS_PER_PAGE = PAGE_BYTES // SECTOR_BYTES


@dataclass(frozen=True)
class TraceRecord:
    """One page-granular disk access.

    ``page`` is the logical block address divided down to 2KB pages —
    the unit the FlashCache hash table maps.  ``pages`` is the run length
    of the request (>= 1).  ``timestamp`` is seconds from trace start and
    may be 0 for generated traces replayed closed-loop.
    """

    page: int
    op: str
    pages: int = 1
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in (OP_READ, OP_WRITE):
            raise ValueError(f"op must be '{OP_READ}' or '{OP_WRITE}'")
        if self.page < 0 or self.pages < 1:
            raise ValueError(f"invalid extent page={self.page} pages={self.pages}")

    @property
    def is_read(self) -> bool:
        return self.op == OP_READ

    def expand(self) -> Iterator[int]:
        """Yield each page the request touches."""
        return iter(range(self.page, self.page + self.pages))


#: A row's op by its ``reads`` flag (0 = write, 1 = read).
_OPS = (OP_WRITE, OP_READ)
_READ_FLAGS = {OP_WRITE: 0, OP_READ: 1}


def _column(typecode: str, name: str, values: Iterable) -> array:
    if isinstance(values, array) and values.typecode == typecode:
        return values
    try:
        return array(typecode, values)
    except (OverflowError, TypeError) as exc:
        raise ValueError(f"trace column {name}: {exc}") from None


class Trace(Sequence[TraceRecord]):
    """A whole trace as four parallel columns, one row per record.

    ``pages`` (``array('q')``) and ``runs`` (``array('I')``) give each
    row's extent, ``reads`` (``bytearray``) is 1 for a read and 0 for a
    write, and ``timestamps`` (``array('d')``) is seconds from trace
    start.  The columns are validated once, as columns, when the trace
    is built.  It is a read-only sequence of :class:`TraceRecord`: each
    indexed or iterated row is built on demand, while the simulator's
    request loops read the columns and build no record at all.
    """

    __slots__ = ("pages", "runs", "reads", "timestamps")

    def __init__(self, pages: Iterable[int], runs: Iterable[int],
                 reads: Iterable[int], timestamps: Iterable[float]) -> None:
        self.pages = _column("q", "pages", pages)
        self.runs = _column("I", "runs", runs)
        self.reads = reads if isinstance(reads, bytearray) \
            else bytearray(reads)
        self.timestamps = _column("d", "timestamps", timestamps)
        rows = len(self.pages)
        if not len(self.runs) == len(self.reads) == len(self.timestamps) \
                == rows:
            raise ValueError("trace columns differ in length")
        if rows:
            if min(self.pages) < 0:
                raise ValueError(f"invalid extent: page {min(self.pages)}")
            if min(self.runs) < 1:
                raise ValueError(f"invalid extent: run {min(self.runs)}")
            if max(self.reads) > 1:
                raise ValueError(f"op flag {max(self.reads)} is neither "
                                 "0 (write) nor 1 (read)")

    @classmethod
    def from_records(cls, records: Iterable[TraceRecord]) -> "Trace":
        """The columns of any iterable of records; a :class:`Trace`
        is returned as it is."""
        if isinstance(records, Trace):
            return records
        rows = records if isinstance(records, (list, tuple)) \
            else list(records)
        try:
            reads = bytearray([_READ_FLAGS[row.op] for row in rows])
        except KeyError as exc:
            raise ValueError(f"bad op {exc.args[0]!r}") from None
        return cls(array("q", [row.page for row in rows]),
                   array("I", [row.pages for row in rows]), reads,
                   array("d", [row.timestamp for row in rows]))

    def requests(self) -> Iterator[Tuple[int, bool]]:
        """``(page, is_read)`` per page request, runs expanded, in trace
        order."""
        for page, run, read in zip(self.pages, self.runs, self.reads):
            is_read = read == 1
            if run == 1:
                yield page, is_read
            else:
                for page in range(page, page + run):
                    yield page, is_read

    def __len__(self) -> int:
        return len(self.pages)

    @overload
    def __getitem__(self, index: int) -> TraceRecord: ...

    @overload
    def __getitem__(self, index: slice) -> "Trace": ...

    def __getitem__(self, index: int | slice) -> "TraceRecord | Trace":
        if isinstance(index, slice):
            return Trace(self.pages[index], self.runs[index],
                         self.reads[index], self.timestamps[index])
        return TraceRecord(self.pages[index], _OPS[self.reads[index]],
                           self.runs[index], self.timestamps[index])

    def __iter__(self) -> Iterator[TraceRecord]:
        for page, run, read, timestamp in zip(self.pages, self.runs,
                                              self.reads, self.timestamps):
            yield TraceRecord(page, _OPS[read], run, timestamp)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.pages == other.pages and self.runs == other.runs
                and self.reads == other.reads
                and self.timestamps == other.timestamps)


@dataclass
class TraceStats:
    """Summary statistics of a trace (used by Table 4 reporting)."""

    records: int = 0
    reads: int = 0
    writes: int = 0
    pages_read: int = 0
    pages_written: int = 0
    footprint_pages: int = 0

    @property
    def read_fraction(self) -> float:
        return self.reads / self.records if self.records else 0.0

    @property
    def footprint_bytes(self) -> int:
        return self.footprint_pages * PAGE_BYTES


def summarize(records: Iterable[TraceRecord]) -> TraceStats:
    """Single-pass trace summary."""
    stats = TraceStats()
    seen: set[int] = set()
    for record in records:
        stats.records += 1
        if record.is_read:
            stats.reads += 1
            stats.pages_read += record.pages
        else:
            stats.writes += 1
            stats.pages_written += record.pages
        seen.update(record.expand())
    stats.footprint_pages = len(seen)
    return stats


def read_spc(stream: IO[str], limit: int | None = None) -> Trace:
    """Parse SPC-format lines into a page-granular :class:`Trace`.

    Sector extents are converted to the covering 2KB-page extent.  Malformed
    lines raise ``ValueError`` with the offending line number — silent
    truncation of a trace would invisibly change an experiment.  ``limit``
    keeps at most that many records (0 keeps none).
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be non-negative, got {limit}")
    pages = array("q")
    runs = array("I")
    reads = bytearray()
    timestamps = array("d")
    for line_number, line in enumerate(stream, start=1):
        if len(pages) == limit:
            break
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) < 5:
            raise ValueError(
                f"SPC line {line_number}: expected >=5 fields, got {len(fields)}"
            )
        try:
            lba_sector = int(fields[1])
            size_bytes_or_sectors = int(fields[2])
            opcode = fields[3].strip().lower()
            timestamp = float(fields[4])
        except ValueError as exc:
            raise ValueError(f"SPC line {line_number}: {exc}") from exc
        if opcode not in ("r", "w"):
            raise ValueError(f"SPC line {line_number}: bad opcode {fields[3]!r}")
        if lba_sector < 0:
            raise ValueError(f"SPC line {line_number}: negative LBA "
                             f"{lba_sector}")
        # UMass traces record size in bytes; some SPC dialects use sectors.
        # Heuristic: multiples of 512 >= 512 are bytes.
        if size_bytes_or_sectors >= SECTOR_BYTES and \
                size_bytes_or_sectors % SECTOR_BYTES == 0:
            sectors = size_bytes_or_sectors // SECTOR_BYTES
        else:
            sectors = max(size_bytes_or_sectors, 1)
        first_page = lba_sector // _SECTORS_PER_PAGE
        last_page = (lba_sector + sectors - 1) // _SECTORS_PER_PAGE
        pages.append(first_page)
        runs.append(last_page - first_page + 1)
        reads.append(opcode == "r")
        timestamps.append(timestamp)
    return Trace(pages, runs, reads, timestamps)


def records_from_spc_file(path: str, limit: int | None = None) -> Trace:
    """Read a whole SPC trace file into memory."""
    with open(path, "r", encoding="ascii") as stream:
        return read_spc(stream, limit=limit)


def write_spc(records: Iterable[TraceRecord], stream: IO[str],
              asu: int = 0) -> int:
    """Serialise records back to SPC (byte-size dialect); returns count."""
    count = 0
    for record in records:
        stream.write(
            f"{asu},{record.page * _SECTORS_PER_PAGE},"
            f"{record.pages * PAGE_BYTES},{record.op},"
            f"{record.timestamp:.6f}\n"
        )
        count += 1
    return count


def spc_roundtrip(records: Iterable[TraceRecord]) -> Trace:
    """Serialise + reparse (test helper proving format fidelity)."""
    buffer = io.StringIO()
    write_spc(records, buffer)
    buffer.seek(0)
    return read_spc(buffer)
