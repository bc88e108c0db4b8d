"""Cost-based access-path planning for single-table statements.

Replaces the executor's old "use an index whenever one exists"
heuristic, which metered *worse* than a page scan whenever the probe
fetched most of the table.  The planner enumerates every candidate
probe the WHERE clause offers, costs each against the sequential scan
with the server's own :class:`~repro.common.cost.CostModel`, and picks
the minimum:

* sequential scan — ``pages × server_page_io``;
* index probe — ``descents × index_probe + tids × index_row_fetch``.

Candidate probes come from equality / IN conjuncts on any indexed
column (hash or range index), and from range / interval conjuncts
(``<``, ``<=``, ``>``, ``>=``, merged per column) on a
:class:`~repro.sqlengine.indexes.RangeIndex`.  A top-level OR is
usable when *every* disjunct offers a probe: the union of the per-
disjunct fetches is a sound candidate superset (the executor always
re-applies the full WHERE to fetched rows).

TID counts are read *exactly* from the in-memory index (an O(1)
bucket peek or O(log n) bisection — the analogue of a real
optimizer's histogram-at-the-index-root estimate), so the cost the
planner predicts is the cost the meter will charge, and a chosen
index plan can never meter worse than the sequential scan it beat.
Table statistics (:mod:`repro.sqlengine.statistics`) supply the
*cardinality* estimates EXPLAIN reports alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from ..common.cost import CostMeter, CostModel
from ..common.errors import SQLError
from .expr import And, ColumnRef, Comparison, Expr, InList, Or, TrueExpr
from .indexes import AnyIndex, Bound, RangeIndex
from .statistics import _column_vs_literal
from .types import ColumnType, Row, SQLValue

if TYPE_CHECKING:
    from .database import Database
    from .heap import TID, HeapTable

#: Accepted ``force`` arguments: None = cost-based choice.
FORCE_CHOICES = (None, "seq", "index", "hash", "range")


@dataclass
class ProbeCandidate:
    """One way an index could serve (part of) the WHERE clause."""

    index: AnyIndex
    #: Equality / IN-list probe values, or None for an interval probe.
    values: Optional[tuple[SQLValue, ...]] = None
    #: Interval endpoints (range indexes only; used when values is None).
    lower: Bound = None
    upper: Bound = None

    @property
    def descents(self) -> int:
        """Root-to-leaf descents this probe performs."""
        if self.values is not None:
            return len(set(self.values))
        return 1

    @property
    def tid_count(self) -> int:
        """Exact number of TIDs the probe would fetch (free peek)."""
        if self.values is not None:
            return self.index.count_many(self.values)
        assert isinstance(self.index, RangeIndex)
        return self.index.count_range(self.lower, self.upper)

    def resolve(self) -> list["TID"]:
        """Materialise the probe's TIDs (storage order)."""
        if self.values is not None:
            return self.index.lookup_many(self.values)
        assert isinstance(self.index, RangeIndex)
        return self.index.lookup_range(self.lower, self.upper)

    def cost(self, model: CostModel) -> float:
        return (
            model.index_probe * self.descents
            + model.index_row_fetch * self.tid_count
        )

    def condition_sql(self) -> str:
        """The probed condition, rendered for EXPLAIN/trace output."""
        column = self.index.column_name
        if self.values is not None:
            if len(self.values) == 1:
                return f"{column} = {self.values[0]!r}"
            rendered = ", ".join(repr(v) for v in self.values)
            return f"{column} IN ({rendered})"
        parts = []
        if self.lower is not None:
            value, inclusive = self.lower
            parts.append(f"{value!r} {'<=' if inclusive else '<'}")
        parts.append(column)
        if self.upper is not None:
            value, inclusive = self.upper
            parts.append(f"{'<=' if inclusive else '<'} {value!r}")
        return " ".join(parts)


@dataclass
class AccessPlan:
    """The costed access-path decision for one single-table statement."""

    table_name: str
    #: "seq" or "index".
    path: str
    seq_pages: int
    seq_cost: float
    #: The index alternative (empty tuple = no usable probe).
    probes: tuple[ProbeCandidate, ...] = ()
    index_descents: int = 0
    #: Exact TIDs the index alternative fetches (deduplicated union).
    index_tids: int = 0
    index_cost: float = 0.0
    #: Stats-based qualifying-row estimate for the full WHERE clause.
    est_rows: int = 0
    selectivity: float = 1.0
    #: Pre-resolved union TID list (OR plans resolve during costing).
    _resolved: Optional[list["TID"]] = field(default=None, repr=False)

    @property
    def uses_index(self) -> bool:
        return self.path == "index"

    @property
    def index_kind(self) -> str:
        """Kind of the chosen index path ("" for a seq scan)."""
        if not self.uses_index:
            return ""
        kinds = {probe.index.kind for probe in self.probes}
        return kinds.pop() if len(kinds) == 1 else "mixed"

    @property
    def est_cost(self) -> float:
        """The chosen path's access cost (what the meter will charge)."""
        return self.index_cost if self.uses_index else self.seq_cost

    def fetch_tids(self) -> list["TID"]:
        """TIDs of the index alternative, deduplicated, storage order.

        Callable whatever ``path`` says: the middleware adds its own
        cursor-open charge to the seq side, so it may take the index
        alternative of a plan the bare engine comparison labelled seq.
        """
        if not self.probes:
            raise SQLError("fetch_tids() on a plan with no index probes")
        if self._resolved is None:
            if len(self.probes) == 1:
                self._resolved = self.probes[0].resolve()
            else:
                union: set["TID"] = set()
                for probe in self.probes:
                    union.update(probe.resolve())
                self._resolved = sorted(union)
        return self._resolved

    def describe(self) -> str:
        """One-line summary of the chosen path."""
        if self.uses_index:
            conditions = " OR ".join(p.condition_sql() for p in self.probes)
            names = sorted({p.index.name for p in self.probes})
            return (
                f"IndexScan({'+'.join(names)} {self.index_kind}: "
                f"{conditions}) tids={self.index_tids} "
                f"cost={self.index_cost:.2f}"
            )
        return f"SeqScan({self.table_name}) pages={self.seq_pages} " \
               f"cost={self.seq_cost:.2f}"

    def describe_alternative(self) -> Optional[str]:
        """The rejected alternative, or None when only one path existed."""
        if self.uses_index:
            return (
                f"SeqScan({self.table_name}) pages={self.seq_pages} "
                f"cost={self.seq_cost:.2f}"
            )
        if not self.probes:
            return None
        conditions = " OR ".join(p.condition_sql() for p in self.probes)
        names = sorted({p.index.name for p in self.probes})
        kinds = {p.index.kind for p in self.probes}
        kind = kinds.pop() if len(kinds) == 1 else "mixed"
        return (
            f"IndexScan({'+'.join(names)} {kind}: {conditions}) "
            f"tids={self.index_tids} cost={self.index_cost:.2f}"
        )


def plan_access_path(where: Optional[Expr], table: "HeapTable",
                     database: "Database", model: CostModel,
                     force: Optional[str] = None) -> AccessPlan:
    """Cost every candidate access path for ``where``; pick the minimum.

    ``force`` overrides the cost comparison: ``"seq"`` always scans,
    ``"index"`` takes the cheapest probe when one exists, ``"hash"`` /
    ``"range"`` restrict the probes to that index kind.  A forced index
    path silently degrades to the sequential scan when the WHERE offers
    no (matching) probe — callers can check :attr:`AccessPlan.path`.
    """
    if force not in FORCE_CHOICES:
        raise SQLError(f"unknown access-path force: {force!r}")
    seq_pages = table.pages_touched()
    seq_cost = model.server_page_io * seq_pages
    stats = database.statistics
    selectivity = stats.selectivity(table, where)
    plan = AccessPlan(
        table_name=table.name,
        path="seq",
        seq_pages=seq_pages,
        seq_cost=seq_cost,
        est_rows=stats.estimate_rows(table, where),
        selectivity=selectivity,
    )
    kinds: Optional[tuple[str, ...]] = None
    if force in ("hash", "range"):
        kinds = (force,)
    alternative = _index_alternative(where, table, database, model, kinds)
    if alternative is None:
        return plan
    probes, descents, tid_count, resolved = alternative
    plan.probes = tuple(probes)
    plan.index_descents = descents
    plan.index_tids = tid_count
    plan.index_cost = (
        model.index_probe * descents + model.index_row_fetch * tid_count
    )
    plan._resolved = resolved
    if force in ("index", "hash", "range"):
        plan.path = "index"
    elif force is None and plan.index_cost < seq_cost:
        plan.path = "index"
    return plan


def fetch_candidates(plan: AccessPlan, table: "HeapTable",
                     meter: CostMeter,
                     model: CostModel) -> Iterable[tuple["TID", Row]]:
    """Charge the chosen path's access cost and yield candidate rows.

    The returned ``(tid, row)`` pairs are *candidates*: the caller
    still applies the full WHERE predicate (an index probe only
    narrows the fetch).  Charges are exactly the plan's ``est_cost``
    by construction.
    """
    if plan.uses_index:
        tids = plan.fetch_tids()
        meter.charge(
            "index", model.index_probe * plan.index_descents,
            events=plan.index_descents,
        )
        meter.charge(
            "index", model.index_row_fetch * len(tids), events=len(tids)
        )
        return [(tid, table.fetch(tid)) for tid in tids]
    meter.charge(
        "server_io", model.server_page_io * plan.seq_pages,
        events=plan.seq_pages,
    )
    return table.scan()


# -- candidate enumeration ---------------------------------------------------


def _index_alternative(
    where: Optional[Expr], table: "HeapTable", database: "Database",
    model: CostModel, kinds: Optional[tuple[str, ...]],
) -> Optional[tuple[list[ProbeCandidate], int, int, Optional[list["TID"]]]]:
    """The cheapest index alternative for ``where``, or None.

    Returns ``(probes, descents, exact_tid_count, resolved_union)``;
    ``resolved_union`` is non-None only for OR plans, whose exact
    (overlap-free) count requires materialising the union.
    """
    if where is None or isinstance(where, TrueExpr):
        return None
    if isinstance(where, Or):
        probes: list[ProbeCandidate] = []
        for disjunct in where.parts:
            best = _best_conjunction_probe(disjunct, table, database,
                                           model, kinds)
            if best is None:
                return None  # one unindexable disjunct forces the scan
            probes.append(best)
        union: set["TID"] = set()
        for probe in probes:
            union.update(probe.resolve())
        resolved = sorted(union)
        descents = sum(p.descents for p in probes)
        return probes, descents, len(resolved), resolved
    best = _best_conjunction_probe(where, table, database, model, kinds)
    if best is None:
        return None
    return [best], best.descents, best.tid_count, None


def _best_conjunction_probe(
    expr: Expr, table: "HeapTable", database: "Database",
    model: CostModel, kinds: Optional[tuple[str, ...]],
) -> Optional[ProbeCandidate]:
    """The cheapest probe for one conjunction (fixes the old heuristic
    that took the *first* indexed conjunct of an AND)."""
    candidates = _conjunction_candidates(expr, table, database)
    if kinds is not None:
        candidates = [c for c in candidates if c.index.kind in kinds]
    if not candidates:
        return None
    return min(candidates, key=lambda c: c.cost(model))


def _conjunction_candidates(expr: Expr, table: "HeapTable",
                            database: "Database") -> list[ProbeCandidate]:
    """Every candidate probe offered by one conjunction's conjuncts."""
    conjuncts = expr.parts if isinstance(expr, And) else (expr,)
    candidates: list[ProbeCandidate] = []
    #: column → (index, [(op, value), ...]) range conjuncts to merge.
    ranges: dict[str, tuple[RangeIndex, list[tuple[str, SQLValue]]]] = {}
    for conjunct in conjuncts:
        if isinstance(conjunct, InList) and \
                isinstance(conjunct.operand, ColumnRef):
            index = database.indexes.find(table.name,
                                          conjunct.operand.name)
            if index is not None:
                candidates.append(
                    ProbeCandidate(index, values=tuple(conjunct.values))
                )
            continue
        if not isinstance(conjunct, Comparison):
            continue
        sided = _column_vs_literal(conjunct)
        if sided is None:
            continue
        column, op, value = sided
        index = database.indexes.find(table.name, column)
        if index is None:
            continue
        if op == "=":
            candidates.append(ProbeCandidate(index, values=(value,)))
        elif op in ("<", "<=", ">", ">=") and isinstance(index, RangeIndex):
            if not _range_probe_safe(table, column, value):
                continue
            entry = ranges.get(column)
            if entry is None:
                ranges[column] = (index, [(op, value)])
            else:
                entry[1].append((op, value))
    for column, (range_index, bounds) in ranges.items():
        candidates.append(_interval_candidate(range_index, bounds))
    return candidates


def _range_probe_safe(table: "HeapTable", column: str,
                      value: SQLValue) -> bool:
    """A range probe must not change semantics vs the scan it replaces.

    A sequential scan evaluating ``col < literal`` on a type-mismatched
    operand raises TypeError row by row; an index probe would silently
    return nothing.  Restricting probes to type-compatible literals
    keeps both paths byte-identical (including their failure mode).
    """
    if value is None:
        return True  # NULL bounds match nothing on either path
    column_type = table.schema.column(column).type
    if column_type is ColumnType.VARCHAR:
        return isinstance(value, str)
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _interval_candidate(index: RangeIndex,
                        bounds: list[tuple[str, SQLValue]]) -> ProbeCandidate:
    """Merge one column's range conjuncts into a single interval probe."""
    lower: Bound = None
    upper: Bound = None
    for op, value in bounds:
        if op in (">", ">="):
            candidate = (value, op == ">=")
            if lower is None or _tighter_lower(candidate, lower):
                lower = candidate
        else:
            candidate = (value, op == "<=")
            if upper is None or _tighter_upper(candidate, upper):
                upper = candidate
    return ProbeCandidate(index, lower=lower, upper=upper)


def _tighter_lower(candidate: tuple[SQLValue, bool],
                   current: tuple[SQLValue, bool]) -> bool:
    """True when ``candidate`` is the stricter lower bound."""
    c_value, c_inclusive = candidate
    value, inclusive = current
    if c_value == value:
        return not c_inclusive and inclusive
    try:
        return bool(c_value > value)  # type: ignore[operator]
    except TypeError:
        return False  # incomparable: keep the existing bound


def _tighter_upper(candidate: tuple[SQLValue, bool],
                   current: tuple[SQLValue, bool]) -> bool:
    """True when ``candidate`` is the stricter upper bound."""
    c_value, c_inclusive = candidate
    value, inclusive = current
    if c_value == value:
        return not c_inclusive and inclusive
    try:
        return bool(c_value < value)  # type: ignore[operator]
    except TypeError:
        return False
