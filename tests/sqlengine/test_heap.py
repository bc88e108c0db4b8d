"""Unit tests for pages and heap tables."""

import pytest

from repro.common.errors import TypeMismatchError
from repro.sqlengine.heap import HeapTable
from repro.sqlengine.pages import Page, rows_per_page
from repro.sqlengine.schema import TableSchema

SCHEMA = TableSchema.of(("a", "int"), ("b", "int"))  # 8 bytes/row


class TestPage:
    def test_append_until_full(self):
        page = Page(2)
        assert page.append((1,)) == 0
        assert page.append((2,)) == 1
        assert page.full
        with pytest.raises(ValueError):
            page.append((3,))

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Page(0)

    def test_iteration(self):
        page = Page(3)
        page.append((1,))
        page.append((2,))
        assert list(page) == [(1,), (2,)]

    def test_page_live_rows(self):
        page = Page(capacity=4)
        page.append((1, 1))
        page.append((2, 2))
        page.rows[0] = None  # tombstone
        assert page.live_rows() == [(2, 2)]


class TestRowsPerPage:
    def test_division(self):
        assert rows_per_page(8, page_bytes=80) == 10

    def test_at_least_one(self):
        assert rows_per_page(10_000, page_bytes=8192) == 1

    def test_bad_row_width(self):
        with pytest.raises(ValueError):
            rows_per_page(0)


class TestHeapTable:
    def make(self, page_bytes=32):
        # 32-byte pages of 8-byte rows: 4 rows/page.
        return HeapTable("t", SCHEMA, page_bytes=page_bytes)

    def test_insert_returns_tids(self):
        table = self.make()
        tids = [table.insert((i, i)) for i in range(6)]
        assert tids[0] == (0, 0)
        assert tids[3] == (0, 3)
        assert tids[4] == (1, 0)  # spilled to a second page
        assert table.row_count == 6
        assert table.page_count == 2

    def test_fetch_by_tid(self):
        table = self.make()
        tid = table.insert((7, 8))
        assert table.fetch(tid) == (7, 8)

    def test_scan_order_and_tids(self):
        table = self.make()
        rows = [(i, i * 2) for i in range(5)]
        for row in rows:
            table.insert(row)
        scanned = list(table.scan())
        assert [row for _, row in scanned] == rows
        assert scanned[4][0] == (1, 0)

    def test_scan_rows(self):
        table = self.make()
        table.insert((1, 2))
        assert list(table.scan_rows()) == [(1, 2)]

    def test_validation_on_insert(self):
        table = self.make()
        with pytest.raises(TypeMismatchError):
            table.insert(("x", 1))

    def test_validation_can_be_skipped(self):
        table = self.make()
        table.insert(("x", 1), validate=False)
        assert table.fetch((0, 0)) == ("x", 1)

    def test_bulk_insert_counts(self):
        table = self.make()
        assert table.bulk_insert([(i, i) for i in range(10)]) == 10
        assert table.row_count == 10

    def test_size_bytes(self):
        table = self.make()
        table.bulk_insert([(i, i) for i in range(3)])
        assert table.size_bytes == 3 * 8

    def test_pages_touched_full_table(self):
        table = self.make()
        assert table.pages_touched() == 1  # empty still touches one page
        table.bulk_insert([(i, i) for i in range(9)])
        assert table.pages_touched() == 3

    def test_pages_touched_partial(self):
        table = self.make()
        table.bulk_insert([(i, i) for i in range(9)])
        assert table.pages_touched(0) == 1
        assert table.pages_touched(4) == 1
        assert table.pages_touched(5) == 2
