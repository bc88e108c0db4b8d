"""Server-access strategies, including Section 4.3.3's auxiliary structures.

When a batch must be serviced by the server, the middleware normally
opens a plain filtered cursor (:class:`PlainScanStrategy`).  The paper
also evaluates three ways to make the server touch only the relevant
subset D' once most of the data has become inactive:

a) copy D' into a temp table (:class:`TempTableStrategy`),
b) copy TIDs and join back (:class:`TIDJoinStrategy`),
c) keyset cursor + stored-procedure filter (:class:`KeysetStrategy`).

Each strategy builds its structure once the relevant fraction drops
below ``build_threshold`` and serves subsequent scans from it.  A
structure only covers the predicate it was built for, so each strategy
remembers that predicate and proves *containment* before reusing it:
the current batch filter (an OR of path conjunctions) is covered when
every disjunct extends some disjunct of the build predicate.  Batches
outside the covered subtree fall back to a plain scan or trigger a
rebuild.  ``free_build`` reproduces the paper's idealised experiment
where construction costs are neglected.

:class:`PlannedScanStrategy` (``aux_strategy="auto"``) replaces the
hard-coded strategy knob with a per-scan decision: it consults the
engine's cost-based access-path planner and picks the cheapest of a
filtered seq scan, a secondary-index probe, and a TID join.  Every
strategy records the path its latest scan took in ``last_choice`` so
the execution trace can report it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

from ..common.errors import MiddlewareError
from ..sqlengine.expr import (
    And,
    ColumnRef,
    Comparison,
    Literal,
    Or,
    TrueExpr,
    compile_predicate,
)
from ..sqlengine.planner import AccessPlan, plan_access_path
from ..sqlengine.tempstructs import TIDList, copy_subset_to_table


@dataclass(frozen=True)
class AccessChoice:
    """The access path one server scan took, for the trace.

    ``path`` is one of ``"seq"``, ``"index"``, ``"temp_table"``,
    ``"tid_join"``, ``"keyset"``; ``est_cost`` is the strategy's
    estimate of the access charges (excluding per-row transfer), which
    for planner-chosen paths equals what the meter is charged.
    """

    path: str
    est_cost: float
    detail: str = ""


def predicate_disjuncts(expr: Any) -> list[frozenset[tuple[str, str, Any]]] | None:
    """Normalise a batch filter into disjuncts of condition sets.

    Returns a list of frozensets of ``(attribute, op, value)`` triples
    — one per disjunct — or ``None`` when the expression is not a
    disjunction of equality/inequality conjunctions (nothing the
    middleware emits, but callers must then assume non-coverage).
    ``None``/TRUE input yields ``[frozenset()]``: the unconditional
    predicate with an empty conjunction.
    """
    if expr is None or isinstance(expr, TrueExpr):
        return [frozenset()]
    disjuncts = expr.parts if isinstance(expr, Or) else (expr,)
    out: list[frozenset[tuple[str, str, Any]]] = []
    for disjunct in disjuncts:
        conjuncts = (
            disjunct.parts if isinstance(disjunct, And) else (disjunct,)
        )
        items: set[tuple[str, str, Any]] = set()
        for conjunct in conjuncts:
            if (
                isinstance(conjunct, Comparison)
                and conjunct.op in ("=", "<>")
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, Literal)
            ):
                items.add(
                    (conjunct.left.name, conjunct.op, conjunct.right.value)
                )
            else:
                return None
        out.append(frozenset(items))
    return out


def predicate_covers(built: Any, current: Any) -> bool:
    """True when rows matching ``current`` all match ``built``.

    Sound (never claims coverage falsely) for the path predicates tree
    clients emit: a node's predicate is a superset of every ancestor's
    conjunction, so subset containment per disjunct decides coverage.
    """
    built_disjuncts = predicate_disjuncts(built)
    current_disjuncts = predicate_disjuncts(current)
    if built_disjuncts is None or current_disjuncts is None:
        return False
    return all(
        any(b <= c for b in built_disjuncts) for c in current_disjuncts
    )


class ServerAccessStrategy:
    """Interface: produce the rows of one server-side scan."""

    #: The access path the most recent scan took (None before any scan).
    last_choice: AccessChoice | None = None

    def rows(
        self,
        predicate: Any,
        relevant_rows: int,
        covered_by_build: Callable[[], bool] | None = None,
    ) -> Iterator[Any]:
        """Iterate rows matching ``predicate``.

        :param predicate: the pushed batch filter (None = all rows).
        :param relevant_rows: the scheduler's exact count of rows the
            batch needs, used against the build threshold.
        :param covered_by_build: optional callable deciding whether an
            existing structure still covers this batch (defaults to a
            conservative relevant-rows comparison).
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release any server-side structures."""


def _seq_scan_estimate(server: Any, table: Any) -> float:
    """The plain-cursor access estimate: open fee + every page."""
    model = server.model
    return model.cursor_open + model.server_page_io * table.pages_touched()


class PlainScanStrategy(ServerAccessStrategy):
    """The default: a fresh filtered forward cursor per scan."""

    def __init__(self, server: Any, table_name: str) -> None:
        self._server = server
        self._table_name = table_name

    def rows(
        self,
        predicate: Any,
        relevant_rows: int,
        covered_by_build: Callable[[], bool] | None = None,
    ) -> Iterator[Any]:
        table = self._server.table(self._table_name)
        self.last_choice = AccessChoice(
            "seq", _seq_scan_estimate(self._server, table)
        )
        return self._scan(predicate)

    def _scan(self, predicate: Any) -> Iterator[Any]:
        with self._server.open_cursor(self._table_name, predicate) as cursor:
            yield from cursor.rows()


class _ThresholdStrategy(ServerAccessStrategy):
    """Shared build-on-threshold behaviour for the aux strategies."""

    #: Trace label for scans served from the built structure.
    _structure_path = "structure"

    def __init__(self, server: Any, table_name: str,
                 build_threshold: float = 0.1,
                 free_build: bool = False) -> None:
        if not 0.0 < build_threshold <= 1.0:
            raise MiddlewareError("build_threshold must be within (0, 1]")
        self._server = server
        self._table_name = table_name
        self._threshold = build_threshold
        self._free_build = free_build
        self._built = False
        self._built_predicate: Any = None

    @property
    def has_structure(self) -> bool:
        return self._built

    def rows(
        self,
        predicate: Any,
        relevant_rows: int,
        covered_by_build: Callable[[], bool] | None = None,
    ) -> Iterator[Any]:
        table = self._server.table(self._table_name)
        total = max(1, table.row_count)
        fraction = relevant_rows / total

        covered = self._built and (
            covered_by_build()
            if covered_by_build is not None
            else predicate_covers(self._built_predicate, predicate)
        )
        if not covered:
            if fraction <= self._threshold:
                self._rebuild(predicate, relevant_rows)
                self._record_structure()
                return self._scan_structure(predicate)
            self.last_choice = AccessChoice(
                "seq", _seq_scan_estimate(self._server, table)
            )
            return self._plain_scan(predicate)
        self._record_structure()
        return self._scan_structure(predicate)

    def _record_structure(self) -> None:
        self.last_choice = AccessChoice(
            self._structure_path, self._serve_estimate()
        )

    def _serve_estimate(self) -> float:
        """Estimated access charges of one structure-served scan."""
        return 0.0

    def _plain_scan(self, predicate: Any) -> Iterator[Any]:
        with self._server.open_cursor(self._table_name, predicate) as cursor:
            yield from cursor.rows()

    def _rebuild(self, predicate: Any, relevant_rows: int) -> None:
        self._teardown()
        meter = self._server.meter
        snapshot = meter.snapshot() if self._free_build else None
        self._build(predicate)
        if snapshot is not None:
            meter.rollback_to(snapshot)
        self._built = True
        self._built_predicate = predicate

    def _build(self, predicate: Any) -> None:
        raise NotImplementedError

    def _scan_structure(self, predicate: Any) -> Iterator[Any]:
        raise NotImplementedError

    def _teardown(self) -> None:
        self._built = False
        self._built_predicate = None

    def close(self) -> None:
        self._teardown()


class TempTableStrategy(_ThresholdStrategy):
    """§4.3.3(a): copy the relevant subset into a new temp table."""

    _structure_path = "temp_table"

    def __init__(self, server: Any, table_name: str,
                 build_threshold: float = 0.1,
                 free_build: bool = False) -> None:
        super().__init__(server, table_name, build_threshold, free_build)
        self._temp_name: str | None = None

    def _serve_estimate(self) -> float:
        temp = self._server.table(self._temp_name)
        return _seq_scan_estimate(self._server, temp)

    def _build(self, predicate: Any) -> None:
        self._temp_name = copy_subset_to_table(
            self._server, self._table_name, predicate
        )

    def _scan_structure(self, predicate: Any) -> Iterator[Any]:
        with self._server.open_cursor(self._temp_name, predicate) as cursor:
            yield from cursor.rows()

    def _teardown(self) -> None:
        super()._teardown()
        if self._temp_name and self._server.database.has_table(self._temp_name):
            self._server.drop_table(self._temp_name)
        self._temp_name = None


class TIDJoinStrategy(_ThresholdStrategy):
    """§4.3.3(b): a TID list joined back to the base table."""

    _structure_path = "tid_join"

    def __init__(self, server: Any, table_name: str,
                 build_threshold: float = 0.1,
                 free_build: bool = False) -> None:
        super().__init__(server, table_name, build_threshold, free_build)
        self._tids: Any = None

    def _serve_estimate(self) -> float:
        return self._server.model.tid_join_row * len(self._tids)

    def _build(self, predicate: Any) -> None:
        self._tids = TIDList(self._server, self._table_name, predicate)

    def _scan_structure(self, predicate: Any) -> Iterator[Any]:
        yield from self._tids.fetch(predicate)

    def _teardown(self) -> None:
        super()._teardown()
        self._tids = None


class KeysetStrategy(_ThresholdStrategy):
    """§4.3.3(c): keyset cursor + stored-procedure filtering."""

    _structure_path = "keyset"

    def __init__(self, server: Any, table_name: str,
                 build_threshold: float = 0.1,
                 free_build: bool = False) -> None:
        super().__init__(server, table_name, build_threshold, free_build)
        self._cursor: Any = None

    def _serve_estimate(self) -> float:
        return self._server.model.keyset_row * self._cursor.keyset_size

    def _build(self, predicate: Any) -> None:
        self._cursor = self._server.open_keyset_cursor(
            self._table_name, predicate
        )

    def _scan_structure(self, predicate: Any) -> Iterator[Any]:
        yield from self._cursor.fetch(predicate)

    def _teardown(self) -> None:
        super()._teardown()
        if self._cursor is not None:
            self._cursor.close()
        self._cursor = None


class PlannedScanStrategy(ServerAccessStrategy):
    """``aux_strategy="auto"``: per-scan cost-based access-path choice.

    Every scan is costed across three candidate paths and the cheapest
    wins:

    * a plain filtered cursor (cursor open + every page);
    * a planner index probe (:func:`~repro.sqlengine.planner.
      plan_access_path` over the server's secondary indexes) — the
      per-scan, data-dependent version of §4.3.3's "auxiliary
      structures", with exact probe counts so the estimate equals the
      metered charge;
    * a §4.3.3(b) TID join, served when a built list still covers the
      batch, or built when the relevant fraction drops below
      ``build_threshold`` *and* the projected serve cost beats both
      other candidates.

    ``use_planner=False`` removes the index candidate — the blind
    baseline the planner A/B benchmark compares against.  Ties go to
    the earlier candidate (seq first), so the planner never picks a
    path that merely matches the scan it would replace.
    """

    def __init__(self, server: Any, table_name: str,
                 build_threshold: float = 0.1,
                 free_build: bool = False,
                 use_planner: bool = True) -> None:
        if not 0.0 < build_threshold <= 1.0:
            raise MiddlewareError("build_threshold must be within (0, 1]")
        self._server = server
        self._table_name = table_name
        self._threshold = build_threshold
        self._free_build = free_build
        self._use_planner = use_planner
        self._tids: Any = None
        self._built_predicate: Any = None

    @property
    def has_structure(self) -> bool:
        return self._tids is not None

    def _choose(
        self, predicate: Any, relevant_rows: int,
        covered_by_build: Callable[[], bool] | None = None,
    ) -> tuple[str, float, AccessPlan | None]:
        """Cost the candidate paths; return (path, est_cost, plan)."""
        server = self._server
        table = server.table(self._table_name)
        model = server.model
        candidates: list[tuple[str, float, AccessPlan | None]] = [
            ("seq", _seq_scan_estimate(server, table), None)
        ]
        if self._use_planner:
            plan = plan_access_path(
                predicate, table, server.database, model
            )
            if plan.probes:
                candidates.append(("index", plan.index_cost, plan))
        covered = self._tids is not None and (
            covered_by_build()
            if covered_by_build is not None
            else predicate_covers(self._built_predicate, predicate)
        )
        if covered:
            candidates.append(
                ("tid_serve", model.tid_join_row * len(self._tids), None)
            )
        else:
            fraction = relevant_rows / max(1, table.row_count)
            if fraction <= self._threshold:
                projected = model.tid_join_row * relevant_rows
                best = min(cost for _path, cost, _plan in candidates)
                if self._free_build or projected < best:
                    candidates.append(("tid_build", projected, None))
        # min() is stable: ties favour the earlier candidate (seq first).
        return min(candidates, key=lambda c: c[1])

    def rows(
        self,
        predicate: Any,
        relevant_rows: int,
        covered_by_build: Callable[[], bool] | None = None,
    ) -> Iterator[Any]:
        path, cost, plan = self._choose(
            predicate, relevant_rows, covered_by_build
        )
        if path == "index":
            assert plan is not None
            self.last_choice = AccessChoice("index", cost, plan.describe())
            return self._index_rows(plan, predicate)
        if path in ("tid_serve", "tid_build"):
            if path == "tid_build":
                self._rebuild(predicate)
            self.last_choice = AccessChoice(
                "tid_join", self._server.model.tid_join_row
                * len(self._tids), f"tids={len(self._tids)}"
            )
            return iter(self._tids.fetch(predicate))
        self.last_choice = AccessChoice("seq", cost)
        return self._plain_scan(predicate)

    def _index_rows(self, plan: AccessPlan,
                    predicate: Any) -> Iterator[Any]:
        """Stream an index probe: exact planner charges + row transfer."""
        server = self._server
        table = server.table(self._table_name)
        meter = server.meter
        model = server.model
        tids = plan.fetch_tids()
        meter.charge(
            "index", model.index_probe * plan.index_descents,
            events=plan.index_descents,
        )
        meter.charge(
            "index", model.index_row_fetch * len(tids), events=len(tids)
        )
        check = compile_predicate(predicate, table.schema)
        transferred = 0
        for tid in tids:
            row = table.fetch_or_none(tid)
            if row is not None and check(row):
                transferred += 1
                yield row
        meter.charge(
            "transfer", model.transfer_per_row * transferred,
            events=transferred,
        )

    def _plain_scan(self, predicate: Any) -> Iterator[Any]:
        with self._server.open_cursor(self._table_name, predicate) as cursor:
            yield from cursor.rows()

    def _rebuild(self, predicate: Any) -> None:
        self._tids = None
        self._built_predicate = None
        meter = self._server.meter
        snapshot = meter.snapshot() if self._free_build else None
        tids = TIDList(self._server, self._table_name, predicate)
        if snapshot is not None:
            meter.rollback_to(snapshot)
        self._tids = tids
        self._built_predicate = predicate

    def close(self) -> None:
        self._tids = None
        self._built_predicate = None


def make_strategy(name: str, server: Any, table_name: str,
                  build_threshold: float = 0.1,
                  free_build: bool = False,
                  use_planner: bool = True) -> ServerAccessStrategy:
    """Instantiate a strategy by config name."""
    if name == "scan":
        return PlainScanStrategy(server, table_name)
    if name == "temp_table":
        return TempTableStrategy(server, table_name, build_threshold,
                                 free_build)
    if name == "tid_join":
        return TIDJoinStrategy(server, table_name, build_threshold,
                               free_build)
    if name == "keyset":
        return KeysetStrategy(server, table_name, build_threshold,
                              free_build)
    if name == "auto":
        return PlannedScanStrategy(server, table_name, build_threshold,
                                   free_build, use_planner)
    raise MiddlewareError(f"unknown server-access strategy: {name!r}")
