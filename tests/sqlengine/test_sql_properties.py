"""Property-based tests for the SQL engine (hypothesis)."""

import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqlengine.ast_nodes import Aggregate, CountStar, Select, SelectItem
from repro.sqlengine.database import SQLServer
from repro.sqlengine.expr import (
    TRUE,
    And,
    ColumnRef,
    Comparison,
    InList,
    Literal,
    Not,
    Or,
    TrueExpr,
    compile_predicate,
)
from repro.sqlengine.heap import HeapTable
from repro.sqlengine.parser import parse
from repro.sqlengine.schema import TableSchema

SCHEMA = TableSchema.of(("a", "int"), ("b", "int"), ("c", "int"))

values = st.integers(min_value=-5, max_value=5)
#: NULLs, ints and strings mixed in one column.
mixed_values = st.one_of(
    st.none(), values, st.sampled_from(["", "x", "y", "5"])
)
columns = st.sampled_from(["a", "b", "c"])
operators = st.sampled_from(["=", "<>", "<", "<=", ">", ">="])


def scalars(literals=values):
    return st.one_of(
        columns.map(ColumnRef),
        literals.map(Literal),
    )


def predicates(max_depth=3, literals=values):
    base = st.one_of(
        st.builds(Comparison, operators, scalars(literals),
                  scalars(literals)),
        st.builds(
            InList,
            columns.map(ColumnRef),
            st.lists(literals, min_size=1, max_size=4),
        ),
    )
    return st.recursive(
        base,
        lambda inner: st.one_of(
            st.lists(inner, min_size=1, max_size=3).map(And),
            st.lists(inner, min_size=1, max_size=3).map(Or),
            inner.map(Not),
        ),
        max_leaves=8,
    )


rows_strategy = st.lists(
    st.tuples(values, values, values), min_size=0, max_size=40
)
nullable = st.one_of(st.none(), values)
nullable_rows = st.lists(
    st.tuples(nullable, nullable, nullable), min_size=0, max_size=30
)
mixed_rows = st.lists(
    st.tuples(mixed_values, mixed_values, mixed_values), max_size=12
)
#: Wrapper depths either side of the compiler's inline depth guard.
depths = st.sampled_from([0, 1, 2, 45, 90])

_OPERATORS = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def reference(expr, row):
    """Evaluate ``expr`` on ``row`` by walking the tree: the oracle.

    Spells out the engine's NULL rules independently of the compiler:
    a comparison with a NULL operand is False (``<>`` too, and it never
    reaches an ordering operator), a NULL never matches ``IN``, and
    ``NOT`` is plain negation.  Both comparison operands are evaluated
    before the NULL check; AND/OR short-circuit left to right.
    """
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return row[SCHEMA.index_of(expr.name)]
    if isinstance(expr, TrueExpr):
        return True
    if isinstance(expr, Comparison):
        left = reference(expr.left, row)
        right = reference(expr.right, row)
        if left is None or right is None:
            return False
        return _OPERATORS[expr.op](left, right)
    if isinstance(expr, InList):
        value = reference(expr.operand, row)
        return value is not None and value in expr.values
    if isinstance(expr, And):
        return all(reference(part, row) for part in expr.parts)
    if isinstance(expr, Or):
        return any(reference(part, row) for part in expr.parts)
    if isinstance(expr, Not):
        return not reference(expr.operand, row)
    raise TypeError(f"no reference rule for {expr!r}")


def outcome(evaluate, row):
    """``evaluate(row)``, or the TypeError an ordering of mixed types
    raises — both sides must agree on which."""
    try:
        return "value", evaluate(row)
    except TypeError:
        return "raises", None


def nest(predicate, depth):
    """Wrap ``predicate`` ``depth`` levels deep in AND/NOT pairs."""
    for level in range(depth):
        predicate = Not(predicate) if level % 2 else And([predicate, TRUE])
    return predicate


class TestExpressionProperties:
    @given(predicates())
    @settings(max_examples=150)
    def test_to_sql_reparses_to_equivalent_predicate(self, predicate):
        sql = f"SELECT * FROM t WHERE {predicate.to_sql()}"
        reparsed = parse(sql).where
        original = compile_predicate(predicate, SCHEMA)
        again = compile_predicate(reparsed, SCHEMA)
        for row in [(-1, 0, 1), (2, 2, 2), (5, -5, 3), (0, 0, 0)]:
            assert original(row) == again(row)

    @given(predicates(), st.tuples(values, values, values))
    @settings(max_examples=150)
    def test_not_inverts(self, predicate, row):
        positive = compile_predicate(predicate, SCHEMA)
        negative = compile_predicate(Not(predicate), SCHEMA)
        assert positive(row) != negative(row)

    @given(st.lists(predicates(max_depth=1), min_size=1, max_size=3),
           st.tuples(values, values, values))
    @settings(max_examples=100)
    def test_and_or_duality(self, parts, row):
        conj = compile_predicate(And(parts), SCHEMA)(row)
        disj = compile_predicate(Or(parts), SCHEMA)(row)
        evaluated = [compile_predicate(p, SCHEMA)(row) for p in parts]
        assert conj == all(evaluated)
        assert disj == any(evaluated)


class TestCompiledMatchesReference:
    @given(predicates(literals=mixed_values), mixed_rows, depths)
    @settings(max_examples=300, deadline=None)
    def test_predicate_matches_reference(self, predicate, rows, depth):
        predicate = nest(predicate, depth)
        compiled = compile_predicate(predicate, SCHEMA)
        for row in rows:
            got = outcome(compiled, row)
            assert got == outcome(lambda r: reference(predicate, r), row)
            if got[0] == "value":
                assert type(got[1]) is bool

    @given(predicates(literals=st.one_of(st.none(), values)),
           nullable_rows, depths)
    @settings(max_examples=80, deadline=None)
    def test_select_items_and_aggregates_match_reference(
            self, predicate, rows, depth):
        predicate = nest(predicate, depth)
        server = SQLServer()
        server.create_table("t", SCHEMA)
        server.bulk_load("t", rows)
        kept = [row for row in rows if reference(predicate, row)]

        items = [SelectItem(ColumnRef("c")), SelectItem(Literal(7), "k"),
                 SelectItem(ColumnRef("a"))]
        result = server.execute(Select(items, "t", where=predicate))
        assert result.rows == [(row[2], 7, row[0]) for row in kept]

        aggregates = [
            SelectItem(Aggregate(func, ColumnRef("b")), func.lower())
            for func in ("SUM", "MIN", "MAX")
        ]
        result = server.execute(Select(aggregates, "t", where=predicate))
        present = [row[1] for row in kept if row[1] is not None]
        assert result.rows == [(
            sum(present) if present else None,
            min(present) if present else None,
            max(present) if present else None,
        )]


class TestHeapProperties:
    @given(rows_strategy)
    @settings(max_examples=60)
    def test_scan_returns_inserted_rows_in_order(self, rows):
        table = HeapTable("t", SCHEMA, page_bytes=48)  # 4 rows/page
        for row in rows:
            table.insert(row)
        assert list(table.scan_rows()) == rows
        assert table.row_count == len(rows)

    @given(rows_strategy)
    @settings(max_examples=60)
    def test_fetch_by_tid_round_trips(self, rows):
        table = HeapTable("t", SCHEMA, page_bytes=48)
        tids = [table.insert(row) for row in rows]
        for tid, row in zip(tids, rows):
            assert table.fetch(tid) == row


class TestExecutorProperties:
    @given(rows_strategy, columns)
    @settings(max_examples=60, deadline=None)
    def test_group_by_counts_match_python(self, rows, column):
        server = SQLServer()
        server.create_table("t", SCHEMA)
        server.bulk_load("t", rows)
        statement = Select(
            [
                SelectItem(ColumnRef(column), "v"),
                SelectItem(CountStar(), "n"),
            ],
            "t",
            group_by=[column],
        )
        result = server.execute(statement)
        index = SCHEMA.index_of(column)
        expected = {}
        for row in rows:
            expected[row[index]] = expected.get(row[index], 0) + 1
        assert dict(result.rows) == expected

    @given(rows_strategy, predicates(max_depth=1))
    @settings(max_examples=60, deadline=None)
    def test_where_matches_compiled_predicate(self, rows, predicate):
        server = SQLServer()
        server.create_table("t", SCHEMA)
        server.bulk_load("t", rows)
        sql = f"SELECT * FROM t WHERE {predicate.to_sql()}"
        result = server.execute(sql)
        check = compile_predicate(predicate, SCHEMA)
        assert result.rows == [tuple(r) for r in rows if check(r)]

    @given(rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_aggregates_match_python(self, rows):
        server = SQLServer()
        server.create_table("t", SCHEMA)
        server.bulk_load("t", rows)
        result = server.execute(
            "SELECT COUNT(*) AS n, SUM(b) AS s, MIN(b) AS lo, "
            "MAX(b) AS hi FROM t"
        )
        values = [r[1] for r in rows]
        expected = (
            len(rows),
            sum(values) if values else None,
            min(values) if values else None,
            max(values) if values else None,
        )
        assert result.rows == [expected]

    @given(rows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_grouped_sum_partitions_global_sum(self, rows):
        server = SQLServer()
        server.create_table("t", SCHEMA)
        server.bulk_load("t", rows)
        grouped = server.execute(
            "SELECT a, SUM(b) AS s FROM t GROUP BY a"
        )
        total = sum(s for _, s in grouped.rows)
        assert total == sum(r[1] for r in rows)

    @given(rows_strategy, st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_order_by_limit_prefix_of_sorted(self, rows, limit):
        server = SQLServer()
        server.create_table("t", SCHEMA)
        server.bulk_load("t", rows)
        result = server.execute(
            f"SELECT a, b, c FROM t ORDER BY b ASC, a ASC LIMIT {limit}"
        )
        ordered = sorted(rows, key=lambda r: (r[1], r[0]))
        got = sorted(result.rows, key=lambda r: (r[1], r[0]))
        assert got == [tuple(r) for r in ordered[:limit]]

    @given(rows_strategy, st.integers(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_index_and_scan_agree(self, rows, value):
        plain = SQLServer()
        plain.create_table("t", SCHEMA)
        plain.bulk_load("t", rows)
        indexed = SQLServer()
        indexed.create_table("t", SCHEMA)
        indexed.bulk_load("t", rows)
        indexed.execute("CREATE INDEX ix ON t (a)")
        sql = f"SELECT * FROM t WHERE a = {value}"
        assert sorted(plain.execute(sql).rows) == sorted(
            indexed.execute(sql).rows
        )
