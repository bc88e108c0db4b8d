"""Server-side auxiliary structures from Section 4.3.3 (a) and (b).

The paper evaluates three ways to let the server scan only the relevant
subset D' of the data table D once the decision tree has deactivated
most rows:

(a) copy D' into a new temp table and scan that,
(b) copy only TIDs into a temp table and join back at fetch time,
(c) a keyset cursor + stored-procedure filter
    (implemented in :mod:`repro.sqlengine.cursors`).

These helpers implement (a) and (b) with honest cost accounting so the
index-scan benchmark can reproduce the paper's negative result.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from .expr import Expr, compile_predicate
from .types import Row

if TYPE_CHECKING:
    from .database import SQLServer
    from .heap import TID


def copy_subset_to_table(
    server: "SQLServer",
    source_name: str,
    predicate: Optional[Expr],
    new_name: Optional[str] = None,
) -> str:
    """Strategy (a): materialise the qualifying subset as a new table.

    Returns the new table's name.  Costs one full scan of the source
    plus a per-row temp-table write for every qualifying row — the
    "unacceptably high overhead" the paper observed.
    """
    source = server.table(source_name)
    new_name = new_name or server.fresh_temp_name("subset")
    meter = server.meter
    model = server.model

    pages = source.pages_touched()
    meter.charge("server_io", model.server_page_io * pages, events=pages)

    check = compile_predicate(predicate, source.schema)
    qualifying = [row for row in source.scan_rows() if check(row)]
    table = server.create_table(new_name, source.schema)
    for row in qualifying:
        table.insert(row, validate=False)
    meter.charge(
        "temp_table",
        model.temp_table_row_write * len(qualifying),
        events=len(qualifying),
    )
    return new_name


class TIDList:
    """Strategy (b): a server-side list of qualifying TIDs."""

    def __init__(self, server: "SQLServer", source_name: str,
                 predicate: Optional[Expr]) -> None:
        self._server = server
        self._source_name = source_name
        meter = server.meter
        model = server.model
        source = server.table(source_name)

        # Building the TID list costs one full scan plus a (cheap)
        # temp-table write per TID.
        pages = source.pages_touched()
        meter.charge(
            "server_io", model.server_page_io * pages, events=pages
        )
        check = compile_predicate(predicate, source.schema)
        self._tids: list["TID"] = [
            tid for tid, row in source.scan() if check(row)
        ]
        meter.charge(
            "temp_table",
            model.temp_table_row_write * len(self._tids) * 0.25,
            events=len(self._tids),
        )

    def __len__(self) -> int:
        return len(self._tids)

    def fetch(self,
              filter_predicate: Optional[Expr] = None) -> Iterator[Row]:
        """Join the TID list back to the data table, filtered.

        Charges the per-row join cost for every TID (the join overhead
        that "negatively impacts the improvement"), plus transfer for
        qualifying rows.
        """
        server = self._server
        source = server.table(self._source_name)
        meter = server.meter
        model = server.model
        check = compile_predicate(filter_predicate, source.schema)

        meter.charge(
            "tid_join", model.tid_join_row * len(self._tids),
            events=len(self._tids),
        )
        transferred = 0
        for tid in self._tids:
            row = source.fetch_or_none(tid)
            if row is not None and check(row):
                transferred += 1
                yield row
        meter.charge(
            "transfer", model.transfer_per_row * transferred,
            events=transferred,
        )
