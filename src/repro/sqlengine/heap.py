"""Heap tables: schema + a list of slotted pages.

Rows are identified by a TID ``(page_no, slot)``, which the auxiliary-
structure experiments (Section 4.3.3) use for TID-list joins and keyset
cursors.  Deletion is by tombstone: TIDs stay stable (keyset cursors
rely on that) and pages are never reclaimed, so a sequential scan of a
table costs the same however many rows were deleted — exactly how a
heap without vacuuming behaves.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence

from .pages import DEFAULT_PAGE_BYTES, Page, rows_per_page
from .schema import TableSchema
from .types import Row, SQLValue

#: Row identifier: ``(page_no, slot)``.
TID = tuple[int, int]


class HeapTable:
    """An append-only heap of typed rows."""

    def __init__(self, name: str, schema: TableSchema,
                 page_bytes: int = DEFAULT_PAGE_BYTES) -> None:
        self.name = name
        self.schema = schema
        self.page_bytes = page_bytes
        self._rows_per_page = rows_per_page(schema.row_bytes, page_bytes)
        self._pages = [Page(self._rows_per_page)]
        self._row_count = 0
        self._version = 0
        self._indexes: list[Any] = []

    @property
    def row_count(self) -> int:
        return self._row_count

    @property
    def version(self) -> int:
        """Monotone data-version counter, bumped by every INSERT and
        DELETE.  Two reads of an equal version are guaranteed to see
        identical live rows, which is what lets the
        :class:`~repro.sqlengine.statistics.StatisticsCatalog` reuse
        column statistics of an unchanged table.
        """
        return self._version

    @property
    def page_count(self) -> int:
        """Pages the table occupies (an empty table still has one)."""
        return len(self._pages)

    @property
    def size_bytes(self) -> int:
        """Simulated data size: rows × row width."""
        return self._row_count * self.schema.row_bytes

    def insert(self, row: Sequence[SQLValue],
               validate: bool = True) -> TID:
        """Append one row; returns its TID."""
        if validate:
            stored = self.schema.validate_row(row)
        else:
            stored = tuple(row)
        page = self._pages[-1]
        if page.full:
            page = Page(self._rows_per_page)
            self._pages.append(page)
        slot = page.append(stored)
        self._row_count += 1
        self._version += 1
        tid = (len(self._pages) - 1, slot)
        for index in self._indexes:
            index.insert(stored, tid)
        return tid

    def attach_index(self, index: Any) -> None:
        """Register a secondary index for maintenance on insert."""
        self._indexes.append(index)

    def detach_index(self, index: Any) -> None:
        """Stop maintaining ``index``."""
        self._indexes = [i for i in self._indexes if i is not index]

    @property
    def index_count(self) -> int:
        return len(self._indexes)

    def bulk_insert(self, rows: Iterable[Sequence[SQLValue]],
                    validate: bool = True) -> int:
        """Append many rows; returns the number inserted."""
        count = 0
        for row in rows:
            self.insert(row, validate=validate)
            count += 1
        return count

    def fetch(self, tid: TID) -> Row:
        """Row at ``tid``; raises :class:`LookupError` if bad or deleted."""
        row = self.fetch_or_none(tid)
        if row is None:
            raise LookupError(f"no live row at TID {tid}")
        return row

    def fetch_or_none(self, tid: TID) -> Optional[Row]:
        """Row at ``tid``, or ``None`` for a tombstone.

        Raises :class:`IndexError` for a TID that never existed.
        """
        page_no, slot = tid
        return self._pages[page_no].rows[slot]

    def delete(self, tid: TID) -> Row:
        """Tombstone the row at ``tid``; returns the deleted row.

        Raises :class:`LookupError` if the row is already deleted.
        The page itself is not reclaimed.
        """
        page_no, slot = tid
        row = self._pages[page_no].tombstone(slot)
        self._row_count -= 1
        self._version += 1
        for index in self._indexes:
            index.remove(row, tid)
        return row

    def scan(self) -> Iterator[tuple[TID, Row]]:
        """Yield ``(tid, row)`` for live rows, in storage order."""
        for page_no, page in enumerate(self._pages):
            for slot, row in enumerate(page.rows):
                if row is not None:
                    yield (page_no, slot), row

    def scan_rows(self) -> Iterator[Row]:
        """Yield live rows only, in storage order."""
        for page in self._pages:
            for row in page.rows:
                if row is not None:
                    yield row

    def pages_touched(self, row_count: Optional[int] = None) -> int:
        """Pages read by a sequential scan of ``row_count`` rows.

        With no argument, the full table.  A scan always touches at
        least one page (the header read), matching real scan behaviour
        on empty tables.
        """
        if row_count is None:
            return max(1, len(self._pages))
        if row_count <= 0:
            return 1
        return -(-row_count // self._rows_per_page)  # ceil division

    def __len__(self) -> int:
        return self._row_count

    def __repr__(self) -> str:
        return (
            f"HeapTable({self.name!r}, rows={self._row_count}, "
            f"pages={self.page_count})"
        )
