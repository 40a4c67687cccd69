"""Append-only segment files: row-group pages behind a footer index.

One segment holds one table's rows in write order.  Rows are buffered
into fixed-count **pages** (``rows_per_page``, default 256); each page
is encoded independently with its *own* string intern table, so a
reader can decode any page from its bytes alone — the property the
LRU page cache is built on.  Layout::

    +----------------------------+
    | magic  "TWSTOR01"  (8 B)   |
    +----------------------------+
    | page 0: u32 len | u32 crc  |
    |         payload            |   payload = pack((strings, rows))
    | page 1: ...                |
    +----------------------------+
    | footer: pack((schema,      |
    |   table, row_count,        |
    |   rows_per_page,           |
    |   ((offset, length,        |
    |     first_row, n_rows),    |
    |    ...)))                  |
    +----------------------------+
    | u32 footer len | u32 crc   |
    | end magic "TWSTEND1" (8 B) |
    +----------------------------+

Pages append forward; the footer and tail are written once on
:meth:`SegmentWriter.close`.  A torn write therefore leaves a file
without the end magic, which :class:`SegmentReader` rejects with
:class:`StoreError` instead of yielding garbage rows.  Every page and
the footer carry a CRC32, so a flipped byte is also a clean
:class:`StoreError`.

Readers use :func:`os.pread` — positioned reads off a single file
descriptor — so concurrent readers (threads sharing a process-wide
store) need no seek lock.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

from repro.store.packing import pack, unpack

__all__ = ["SEGMENT_SCHEMA", "SegmentReader", "SegmentWriter", "StoreError"]

#: Bump on any incompatible change to the page or footer layout.
SEGMENT_SCHEMA = 1

MAGIC = b"TWSTOR01"
END_MAGIC = b"TWSTEND1"
_U32 = struct.Struct(">I")
#: Default rows per page.  Fixed *count* (not byte target) keeps page
#: boundaries a pure function of the row stream, which the golden-bytes
#: format test relies on.
DEFAULT_ROWS_PER_PAGE = 256


class StoreError(ValueError):
    """A store file is unreadable, corrupt, truncated or mismatched."""


@dataclass(frozen=True)
class PageEntry:
    """Footer index entry for one page."""

    offset: int
    length: int
    first_row: int
    n_rows: int


class SegmentWriter:
    """Streams encoded rows into pages; finalizes index on close.

    ``encode`` maps one row object to its flat tuple given the page's
    interner (see :mod:`repro.store.rows`); at most ``rows_per_page``
    row objects are held in memory at a time, so writing a million-row
    segment is O(page) in memory.
    """

    def __init__(
        self,
        path: str | Path,
        table: str,
        encode: Callable,
        *,
        rows_per_page: int = DEFAULT_ROWS_PER_PAGE,
    ):
        if rows_per_page < 1:
            raise ValueError("rows_per_page must be positive")
        self.path = Path(path)
        self.table = table
        self.rows_per_page = rows_per_page
        self._encode = encode
        self._pending: list[object] = []
        self._entries: list[PageEntry] = []
        self._row_count = 0
        self._closed = False
        # Write through a temp file; a crash mid-build leaves no
        # half-segment at the target path.
        self._tmp = self.path.with_name(self.path.name + ".tmp")
        self._file: io.BufferedWriter = open(self._tmp, "wb")
        self._file.write(MAGIC)
        self._offset = len(MAGIC)

    def append(self, row: object) -> None:
        """Buffer one row; flushes a page when the group fills."""
        if self._closed:
            raise StoreError("segment writer already closed")
        self._pending.append(row)
        if len(self._pending) >= self.rows_per_page:
            self._flush_page()

    def extend(self, rows: Sequence[object]) -> None:
        for row in rows:
            self.append(row)

    def _flush_page(self) -> None:
        if not self._pending:
            return
        from repro.store.rows import Interner

        interner = Interner()
        encoded = tuple(self._encode(row, interner) for row in self._pending)
        payload = pack((tuple(interner.table), encoded))
        header = _U32.pack(len(payload)) + _U32.pack(zlib.crc32(payload))
        self._file.write(header)
        self._file.write(payload)
        self._entries.append(
            PageEntry(
                offset=self._offset,
                length=len(header) + len(payload),
                first_row=self._row_count,
                n_rows=len(self._pending),
            )
        )
        self._offset += len(header) + len(payload)
        self._row_count += len(self._pending)
        self._pending = []

    def close(self) -> int:
        """Flush, write footer + tail, atomically publish; returns rows."""
        if self._closed:
            return self._row_count
        self._flush_page()
        footer = pack(
            (
                SEGMENT_SCHEMA,
                self.table,
                self._row_count,
                self.rows_per_page,
                tuple(
                    (e.offset, e.length, e.first_row, e.n_rows)
                    for e in self._entries
                ),
            )
        )
        self._file.write(footer)
        self._file.write(_U32.pack(len(footer)))
        self._file.write(_U32.pack(zlib.crc32(footer)))
        self._file.write(END_MAGIC)
        self._file.close()
        os.replace(self._tmp, self.path)
        self._closed = True
        return self._row_count

    def abort(self) -> None:
        """Discard the temp file without publishing."""
        if not self._closed:
            self._file.close()
            self._tmp.unlink(missing_ok=True)
            self._closed = True

    def __enter__(self) -> "SegmentWriter":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


class SegmentReader:
    """Random and sequential row access over a finished segment.

    ``decode`` maps a flat row tuple plus the page's string table back
    to the row object.  Page loads go through the shared
    :class:`~repro.store.pagecache.PageCache` when one is supplied;
    the cache charge is the page's on-disk byte length.
    """

    def __init__(
        self,
        path: str | Path,
        decode: Callable,
        *,
        page_cache=None,
        expect_table: str | None = None,
    ):
        self.path = Path(path)
        self._decode = decode
        self._cache = page_cache
        try:
            self._fd = os.open(self.path, os.O_RDONLY)
        except OSError as exc:
            raise StoreError(f"{self.path}: cannot open segment ({exc})") from exc
        try:
            self._load_footer()
        except StoreError:
            os.close(self._fd)
            raise
        if expect_table is not None and self.table != expect_table:
            table = self.table
            self.close()
            raise StoreError(
                f"{self.path}: segment holds table {table!r}, "
                f"expected {expect_table!r}"
            )

    def _pread(self, offset: int, length: int) -> bytes:
        data = os.pread(self._fd, length, offset)
        if len(data) != length:
            raise StoreError(
                f"{self.path}: truncated read at offset {offset} "
                f"({len(data)} of {length} bytes)"
            )
        return data

    def _load_footer(self) -> None:
        size = os.fstat(self._fd).st_size
        tail_len = len(END_MAGIC) + 8
        if size < len(MAGIC) + tail_len:
            raise StoreError(f"{self.path}: too short to be a segment")
        if self._pread(0, len(MAGIC)) != MAGIC:
            raise StoreError(f"{self.path}: bad magic (not a segment file)")
        tail = self._pread(size - tail_len, tail_len)
        if tail[8:] != END_MAGIC:
            raise StoreError(
                f"{self.path}: no end marker — truncated or torn write"
            )
        footer_len = _U32.unpack(tail[0:4])[0]
        footer_crc = _U32.unpack(tail[4:8])[0]
        footer_off = size - tail_len - footer_len
        if footer_off < len(MAGIC):
            raise StoreError(f"{self.path}: footer length exceeds file")
        footer = self._pread(footer_off, footer_len)
        if zlib.crc32(footer) != footer_crc:
            raise StoreError(f"{self.path}: footer checksum mismatch")
        try:
            schema, table, row_count, rows_per_page, entries = unpack(footer)
        except (TypeError, ValueError) as exc:
            raise StoreError(f"{self.path}: undecodable footer ({exc!r})") from exc
        if schema != SEGMENT_SCHEMA:
            raise StoreError(
                f"{self.path}: segment schema {schema!r} unsupported "
                f"(reader supports {SEGMENT_SCHEMA})"
            )
        self.table = table
        self.row_count = row_count
        self.rows_per_page = rows_per_page
        try:
            self._entries = [PageEntry(*entry) for entry in entries]
        except TypeError as exc:
            raise StoreError(f"{self.path}: undecodable footer index ({exc!r})") from exc
        self._first_rows = [e.first_row for e in self._entries]
        indexed = sum(e.n_rows for e in self._entries)
        if indexed != row_count:
            raise StoreError(
                f"{self.path}: footer indexes {indexed} rows, "
                f"header promises {row_count}"
            )

    # -- page access --------------------------------------------------------

    def _load_page(self, entry: PageEntry) -> list:
        raw = self._pread(entry.offset, entry.length)
        length = _U32.unpack(raw[0:4])[0]
        crc = _U32.unpack(raw[4:8])[0]
        payload = raw[8:]
        if len(payload) != length:
            raise StoreError(
                f"{self.path}: page at offset {entry.offset} has "
                f"{len(payload)} payload bytes, index says {length}"
            )
        if zlib.crc32(payload) != crc:
            raise StoreError(
                f"{self.path}: page checksum mismatch at offset {entry.offset}"
            )
        # A CRC-valid page can still hold rows of the wrong shape (a
        # file written by another codec): the row decoder's own errors
        # become StoreError too, so no malformed page escapes raw.
        try:
            strings, rows = unpack(payload)
            decoded = [self._decode(row, strings) for row in rows]
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            raise StoreError(
                f"{self.path}: undecodable page at offset {entry.offset} ({exc!r})"
            ) from exc
        if len(decoded) != entry.n_rows:
            raise StoreError(
                f"{self.path}: page at offset {entry.offset} decodes to "
                f"{len(decoded)} rows, index says {entry.n_rows}"
            )
        return decoded

    def _page_rows(self, entry: PageEntry) -> list:
        if self._cache is None:
            return self._load_page(entry)
        key = (str(self.path), entry.first_row)
        rows = self._cache.get(key)
        if rows is None:
            rows = self._load_page(entry)
            self._cache.put(key, rows, entry.length)
        return rows

    # -- row access ---------------------------------------------------------

    def get(self, index: int) -> object:
        """The row at ``index`` (0-based)."""
        if not 0 <= index < self.row_count:
            raise StoreError(
                f"{self.path}: row {index} outside [0, {self.row_count})"
            )
        at = bisect_right(self._first_rows, index) - 1
        entry = self._entries[at]
        return self._page_rows(entry)[index - entry.first_row]

    def iter_rows(self, start: int = 0, stop: int | None = None) -> Iterator[object]:
        """Stream rows ``[start, stop)`` page by page.

        Sequential scans touch one page at a time; with a budgeted
        cache the working set stays bounded no matter the segment size.
        """
        stop = self.row_count if stop is None else min(stop, self.row_count)
        if start < 0:
            raise StoreError(f"{self.path}: negative start row {start}")
        index = start
        while index < stop:
            at = bisect_right(self._first_rows, index) - 1
            entry = self._entries[at]
            rows = self._page_rows(entry)
            for offset in range(index - entry.first_row, entry.n_rows):
                if index >= stop:
                    return
                yield rows[offset]
                index += 1

    def page_entries(self) -> list[PageEntry]:
        """The footer index (for format tests and diagnostics)."""
        return list(self._entries)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None  # type: ignore[assignment]

    def __enter__(self) -> "SegmentReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
