"""Server cursors — the middleware's bulk data path.

Two cursor flavours from the paper:

* :class:`ForwardCursor` — a firehose read-only cursor with an optional
  pushed WHERE filter (Section 4.3.1).  The server reads every page of
  the table; only qualifying rows pay transfer cost.  This is how the
  middleware performs its single-scan counting.
* :class:`KeysetCursor` — Section 4.3.3(c): the key set (TID list) is
  captured at open time for an initial predicate; later fetches rescan
  only the keyset, applying a *current* filter server-side before
  transmitting ("stored procedure applies the filters on the results
  obtained by the cursor").
"""

from __future__ import annotations

from types import TracebackType
from typing import Iterator, Optional

from ..common.cost import CostMeter, CostModel
from ..common.errors import CursorStateError
from .expr import Expr, compile_predicate
from .heap import HeapTable
from .types import Row


class ForwardCursor:
    """Streaming scan of one table with a server-applied filter."""

    def __init__(self, table: HeapTable, meter: CostMeter,
                 model: CostModel, predicate: Optional[Expr] = None) -> None:
        self._table = table
        self._meter = meter
        self._model = model
        self._predicate_expr = predicate
        self._open = True
        meter.charge("cursor", model.cursor_open)

    @property
    def is_open(self) -> bool:
        return self._open

    def rows(self) -> Iterator[Row]:
        """Yield qualifying rows; charges page I/O and transfer."""
        if not self._open:
            raise CursorStateError("cursor is closed")
        schema = self._table.schema
        predicate = compile_predicate(self._predicate_expr, schema)
        model = self._model
        meter = self._meter
        transferred = 0
        pages = self._table.pages_touched()
        meter.charge("server_io", model.server_page_io * pages, events=pages)
        for row in self._table.scan_rows():
            if predicate(row):
                transferred += 1
                yield row
        meter.charge(
            "transfer", model.transfer_per_row * transferred,
            events=transferred,
        )

    def close(self) -> None:
        self._open = False

    def __enter__(self) -> "ForwardCursor":
        return self

    def __exit__(self, exc_type: Optional[type],
                 exc_value: Optional[BaseException],
                 traceback: Optional[TracebackType]) -> bool:
        self.close()
        return False


class KeysetCursor:
    """TID keyset captured at open; refetches filter server-side.

    ``open_predicate`` defines the keyset (the relevant subset D' of the
    paper).  Each :meth:`fetch` walks the keyset — charging a cheap
    per-key evaluation — and transmits only rows matching the fetch-time
    filter, exactly the stored-procedure trick of Section 4.3.3(c).
    """

    def __init__(self, table: HeapTable, meter: CostMeter,
                 model: CostModel,
                 open_predicate: Optional[Expr] = None) -> None:
        self._table = table
        self._meter = meter
        self._model = model
        self._open = True
        meter.charge("cursor", model.cursor_open)

        # Capturing the keyset costs a full scan.
        schema = table.schema
        predicate = compile_predicate(open_predicate, schema)
        pages = table.pages_touched()
        meter.charge("server_io", model.server_page_io * pages, events=pages)
        self._tids = [tid for tid, row in table.scan() if predicate(row)]

    @property
    def is_open(self) -> bool:
        return self._open

    @property
    def keyset_size(self) -> int:
        return len(self._tids)

    def fetch(self,
              filter_predicate: Optional[Expr] = None) -> Iterator[Row]:
        """Yield keyset rows matching ``filter_predicate`` (server-side)."""
        if not self._open:
            raise CursorStateError("cursor is closed")
        schema = self._table.schema
        predicate = compile_predicate(filter_predicate, schema)
        meter = self._meter
        model = self._model
        meter.charge(
            "keyset", model.keyset_row * len(self._tids),
            events=len(self._tids),
        )
        transferred = 0
        for tid in self._tids:
            row = self._table.fetch_or_none(tid)
            if row is not None and predicate(row):
                transferred += 1
                yield row
        meter.charge(
            "transfer", model.transfer_per_row * transferred,
            events=transferred,
        )

    def close(self) -> None:
        self._open = False

    def __enter__(self) -> "KeysetCursor":
        return self

    def __exit__(self, exc_type: Optional[type],
                 exc_value: Optional[BaseException],
                 traceback: Optional[TracebackType]) -> bool:
        self.close()
        return False
