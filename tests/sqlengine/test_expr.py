"""Unit tests for the expression AST and its compiler."""

import pytest

from repro.sqlengine.expr import (
    TRUE,
    And,
    ColumnRef,
    Comparison,
    InList,
    Literal,
    Not,
    Or,
    all_of,
    any_of,
    col,
    compile_predicate,
    eq,
    lit,
    ne,
    sql_literal,
)
from repro.sqlengine.schema import TableSchema

SCHEMA = TableSchema.of(("a", "int"), ("b", "int"), ("name", "varchar"))


def run(expr, row):
    return expr.compile(SCHEMA)(row)


class TestSqlLiteral:
    def test_none_is_null(self):
        assert sql_literal(None) == "NULL"

    def test_string_quoting_and_escaping(self):
        assert sql_literal("it's") == "'it''s'"

    def test_numbers(self):
        assert sql_literal(42) == "42"
        assert sql_literal(-1.5) == "-1.5"


class TestScalars:
    def test_literal(self):
        assert run(lit(7), (0, 0, "x")) == 7

    def test_column_ref(self):
        assert run(col("b"), (1, 9, "x")) == 9

    def test_column_ref_columns(self):
        assert col("b").columns() == {"b"}


class TestComparison:
    @pytest.mark.parametrize(
        "op,left,right,expected",
        [
            ("=", 3, 3, True),
            ("=", 3, 4, False),
            ("<>", 3, 4, True),
            ("<", 3, 4, True),
            ("<=", 4, 4, True),
            (">", 5, 4, True),
            (">=", 3, 4, False),
        ],
    )
    def test_operators(self, op, left, right, expected):
        expr = Comparison(op, lit(left), lit(right))
        assert run(expr, (0, 0, "x")) is expected

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            Comparison("~", lit(1), lit(2))

    def test_null_compares_false(self):
        expr = eq("a", 1)
        assert run(expr, (None, 0, "x")) is False

    def test_to_sql(self):
        assert eq("a", 5).to_sql() == "a = 5"
        assert ne("name", "bob").to_sql() == "name <> 'bob'"


class TestInList:
    def test_membership(self):
        expr = InList(col("a"), [1, 3, 5])
        assert run(expr, (3, 0, "x"))
        assert not run(expr, (2, 0, "x"))

    def test_null_not_in_anything(self):
        expr = InList(col("a"), [1])
        assert not run(expr, (None, 0, "x"))

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            InList(col("a"), [])

    def test_to_sql(self):
        assert InList(col("a"), (1, 2)).to_sql() == "a IN (1, 2)"


class TestBooleans:
    def test_and(self):
        expr = And([eq("a", 1), eq("b", 2)])
        assert run(expr, (1, 2, "x"))
        assert not run(expr, (1, 3, "x"))

    def test_or(self):
        expr = Or([eq("a", 1), eq("b", 2)])
        assert run(expr, (0, 2, "x"))
        assert not run(expr, (0, 0, "x"))

    def test_not(self):
        expr = Not(eq("a", 1))
        assert run(expr, (2, 0, "x"))
        assert not run(expr, (1, 0, "x"))

    def test_empty_operands_rejected(self):
        with pytest.raises(ValueError):
            And([])
        with pytest.raises(ValueError):
            Or([])

    def test_nested_to_sql_parenthesised(self):
        expr = Or([And([eq("a", 1), eq("b", 2)]), eq("a", 3)])
        assert expr.to_sql() == "(a = 1 AND b = 2) OR a = 3"

    def test_columns_union(self):
        expr = And([eq("a", 1), eq("b", 2)])
        assert expr.columns() == {"a", "b"}


class TestTrue:
    def test_always_true(self):
        assert run(TRUE, (0, 0, "x"))

    def test_to_sql_reparses(self):
        assert TRUE.to_sql() == "1 = 1"


class TestBuilders:
    def test_all_of_collapses(self):
        assert all_of([]) is TRUE
        single = eq("a", 1)
        assert all_of([single]) is single
        assert isinstance(all_of([eq("a", 1), eq("b", 2)]), And)

    def test_all_of_drops_true(self):
        assert all_of([TRUE, eq("a", 1)]) == eq("a", 1)

    def test_any_of_collapses(self):
        single = eq("a", 1)
        assert any_of([single]) is single
        assert isinstance(any_of([eq("a", 1), eq("b", 2)]), Or)

    def test_any_of_with_true_is_true(self):
        assert any_of([eq("a", 1), TRUE]) is TRUE

    def test_any_of_empty_rejected(self):
        with pytest.raises(ValueError):
            any_of([])

    def test_compile_predicate_none_is_true(self):
        predicate = compile_predicate(None, SCHEMA)
        assert predicate((9, 9, "z"))


class TestGeneratedSource:
    """The compiler generates Python source; values must never leak
    into it, and deep trees must still compile."""

    HOSTILE = [
        "x) or (True",
        "' or 1 = 1 --",
        '"""; import os; """',
        "line\nbreak",
        "back\\slash\\",
        "{row}{0}",
        "__import__('os')",
        "",
    ]

    @pytest.mark.parametrize("text", HOSTILE)
    def test_string_literal_matches_only_itself(self, text):
        rows = [(0, 0, text)] + [(0, 0, other) for other in self.HOSTILE
                                 if other != text] + [(0, 0, None)]
        for expr in (eq("name", text), InList(col("name"), [text])):
            assert [run(expr, row) for row in rows] == (
                [True] + [False] * (len(rows) - 1)
            )
        negated = ne("name", text)
        assert [run(negated, row) for row in rows] == (
            [False] + [True] * (len(rows) - 2) + [False]
        )

    @pytest.mark.parametrize("text", HOSTILE)
    def test_values_are_bound_not_spliced(self, text):
        check = Or([eq("name", text), InList(col("name"), [text, "y"]),
                    Comparison(">", lit(text), col("name"))]).compile(SCHEMA)
        code = check.__code__
        assert not any(isinstance(c, str) for c in code.co_consts)
        assert all(name.startswith(("_k", "_f")) for name in code.co_names)
        assert check.__globals__["__builtins__"] == {}

    def test_hostile_literal_in_ordering_and_column_comparisons(self):
        text = "x) or (True"
        expr = Or([Comparison("<", col("name"), lit(text)),
                   Comparison("=", lit(text), col("name"))])
        assert run(expr, (0, 0, text))
        assert run(expr, (0, 0, "a"))  # "a" < "x) ..."
        assert not run(expr, (0, 0, "z"))

    def test_deep_not_chain(self):
        expr = eq("a", 1)
        for _ in range(300):
            expr = Not(expr)
        check = expr.compile(SCHEMA)
        assert check((1, 0, "x")) is True  # an even number of NOTs
        assert check((2, 0, "x")) is False
        assert check((None, 0, "x")) is False
        assert Not(expr).compile(SCHEMA)((None, 0, "x")) is True

    def test_deep_and_chain(self):
        expr = eq("a", 1)
        for depth in range(300):
            expr = And([Comparison("<=", col("b"), lit(depth)), expr])
        check = expr.compile(SCHEMA)
        assert check((1, 0, "x")) is True
        assert check((2, 0, "x")) is False  # fails only at the innermost
        assert check((1, 1, "x")) is False  # fails only at the outermost
        assert check((1, None, "x")) is False

    def test_predicates_return_bool(self):
        for expr in (eq("a", 1), ne("a", 1), Comparison("<", col("a"), col("b")),
                     InList(col("a"), [1]), And([eq("a", 1), col("b")]),
                     Or([col("b"), lit(0)]), Not(col("b")), TRUE):
            for row in ((1, 2, "x"), (None, None, None), (0, 0, "")):
                assert type(run(expr, row)) is bool

    def test_boolean_operands_evaluate_to_bools(self):
        # AND/OR/NOT as comparison operands yield True/False, as in SQL,
        # never the value of their last operand.
        expr = Comparison("=", And([col("b"), col("a")]), lit(True))
        assert run(expr, (2, 2, "x")) is True
        expr = Comparison("=", Or([col("b"), col("a")]), lit(1))
        assert run(expr, (2, 0, "x")) is True

    def test_operands_evaluated_before_null_check(self):
        # The right operand raises (1 < 'x'), and it is evaluated even
        # when the left one is NULL.
        expr = Comparison("<", col("a"), Comparison("<", lit(1), lit("x")))
        with pytest.raises(TypeError):
            run(expr, (None, 0, "x"))

    def test_null_literal_compares_false(self):
        for op in ("=", "<>", "<", ">="):
            assert run(Comparison(op, col("a"), lit(None)), (1, 0, "x")) is False
            assert run(Comparison(op, lit(None), lit(None)), (1, 0, "x")) is False

    def test_only_index_of_is_consulted(self):
        class Positions:
            def index_of(self, name):
                return {"a": 0, "b": 1}[name]

        check = Or([eq("a", 1), ne("b", 1)]).compile(Positions())
        assert check((1, 1)) and check((0, 0)) and not check((0, 1))


class TestEquality:
    def test_structural_equality_and_hash(self):
        assert eq("a", 1) == eq("a", 1)
        assert hash(eq("a", 1)) == hash(eq("a", 1))
        assert eq("a", 1) != eq("a", 2)
        assert eq("a", 1) != ne("a", 1)

    def test_different_types_not_equal(self):
        assert Literal(1) != ColumnRef("a")
