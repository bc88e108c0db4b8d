"""Layer probes: wrap the program's public entry points with spans.

Nothing under ``src/`` changes.  :func:`installed` swaps each entry
point below for a wrapper that records a span into a
:class:`~spans.SpanRecorder`, and puts every original back on exit:

==============================  ===================================
entry point                     span name
==============================  ===================================
Middleware.process_next_batch   middleware.batch
Scheduler.plan                  scheduler.plan
ExecutionModule.run             execution.run
<server access strategy>.rows   sqlengine.rows (iterator)
StagedFile.append_rows          staging.write
StagedFile.scan / scan_blocks   staging.read (iterator)
SQLServer.execute               sqlengine.insert / sqlengine.query
parse (as SQLServer calls it)   sqlengine.parse
partition_node (client)         client.partition_node
==============================  ===================================

``sqlengine.insert`` covers the dialect's DML (INSERT and DELETE); every
other statement is a query (the §4.1.1 SQL-counting fallback).
"""

from __future__ import annotations

import contextlib
import functools
from typing import Any, Callable, Iterator

from repro.client import decision_tree
from repro.core import auxiliary
from repro.core.execution import ExecutionModule
from repro.core.middleware import Middleware
from repro.core.scheduler import Scheduler
from repro.core.staging import StagedFile
from repro.sqlengine import database
from repro.sqlengine.ast_nodes import DeleteRows, InsertValues
from repro.sqlengine.database import SQLServer

from spans import SpanRecorder

_DML_KEYWORDS = ("INSERT", "DELETE")


def is_dml(statement: Any) -> bool:
    """True for INSERT/DELETE, given SQL text or a statement AST."""
    if isinstance(statement, str):
        words = statement.split(None, 1)
        return bool(words) and words[0].upper() in _DML_KEYWORDS
    return isinstance(statement, (InsertValues, DeleteRows))


def _strategy_classes() -> list[type]:
    """Every server access strategy class that defines its own rows()."""
    base = auxiliary.ServerAccessStrategy
    return [
        cls for cls in vars(auxiliary).values()
        if isinstance(cls, type) and issubclass(cls, base)
        and cls is not base and "rows" in vars(cls)
    ]


def _call_probe(recorder: SpanRecorder, name: str,
                original: Callable[..., Any],
                annotate: Callable[..., None] | None = None
                ) -> Callable[..., Any]:
    """Wrap ``original`` in a call span; ``annotate(span, result, *args)``
    may attach counts after the call returns."""

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        result, span = recorder.call(name, original, *args, **kwargs)
        if annotate is not None:
            annotate(span, result, *args)
        return result

    return wrapper


def _iterator_probe(recorder: SpanRecorder, name: str,
                    original: Callable[..., Any],
                    size: Callable[[Any], int],
                    annotate: Callable[..., dict[str, Any]] | None = None
                    ) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
        clock = recorder.clock
        began = clock()
        source = iter(original(*args, **kwargs))
        return recorder.iterate(
            name, source, size, call_seconds=clock() - began,
            args=annotate(*args) if annotate is not None else None,
        )

    return wrapper


def _execute_probe(recorder: SpanRecorder,
                   original: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(original)
    def wrapper(server: Any, statement: Any) -> Any:
        name = "sqlengine.insert" if is_dml(statement) else "sqlengine.query"
        result, _span = recorder.call(name, original, server, statement)
        return result

    return wrapper


def _annotate_plan(span: Any, schedule: Any, *_args: Any) -> None:
    span.items = len(schedule.batch)


def _run_probe(recorder: SpanRecorder,
               original: Callable[..., Any]) -> Callable[..., Any]:
    """ExecutionModule.run: tag the span with the tier and rows seen."""

    @functools.wraps(original)
    def wrapper(module: Any, schedule: Any) -> Any:
        before = module.stats.rows_seen
        result, span = recorder.call("execution.run", original, module,
                                     schedule)
        span.args["mode"] = schedule.mode.name
        span.items = module.stats.rows_seen - before
        return result

    return wrapper


def _append_probe(recorder: SpanRecorder,
                  original: Callable[..., Any]) -> Callable[..., Any]:
    """StagedFile.append_rows: count rows by the file's row_count."""

    @functools.wraps(original)
    def wrapper(staged: Any, rows: Any) -> None:
        before = staged.row_count
        _result, span = recorder.call("staging.write", original, staged, rows)
        span.items = staged.row_count - before

    return wrapper


@contextlib.contextmanager
def installed(recorder: SpanRecorder,
              table_rows: Callable[[], int]) -> Iterator[SpanRecorder]:
    """Wrap every entry point for the duration of the ``with`` block.

    ``table_rows()`` gives the workload table's current row count: a
    plain server scan examines every row, so each ``sqlengine.rows``
    span records it as ``args["examined"]``.
    """
    patches: list[tuple[Any, str, Any]] = [
        (Middleware, "process_next_batch",
         _call_probe(recorder, "middleware.batch",
                     Middleware.process_next_batch)),
        (Scheduler, "plan",
         _call_probe(recorder, "scheduler.plan", Scheduler.plan,
                     _annotate_plan)),
        (ExecutionModule, "run", _run_probe(recorder, ExecutionModule.run)),
        (StagedFile, "append_rows",
         _append_probe(recorder, StagedFile.append_rows)),
        (StagedFile, "scan",
         _iterator_probe(recorder, "staging.read", StagedFile.scan,
                         lambda row: 1)),
        (StagedFile, "scan_blocks",
         _iterator_probe(recorder, "staging.read", StagedFile.scan_blocks,
                         len)),
        (SQLServer, "execute", _execute_probe(recorder, SQLServer.execute)),
        (database, "parse",
         _call_probe(recorder, "sqlengine.parse", database.parse)),
        (decision_tree, "partition_node",
         _call_probe(recorder, "client.partition_node",
                     decision_tree.partition_node)),
    ]
    for cls in _strategy_classes():
        patches.append((cls, "rows", _iterator_probe(
            recorder, "sqlengine.rows", vars(cls)["rows"], lambda row: 1,
            lambda *_args: {"examined": table_rows()},
        )))
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _wrapper in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield recorder
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
