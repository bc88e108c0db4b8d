"""Predicate and scalar expression trees.

This AST is shared by three consumers:

* the SQL parser produces it for WHERE clauses,
* the executor compiles it into a fast row-level callable,
* the middleware builds node-path filters from it directly
  (Section 4.3.1) and renders them back to SQL for server execution.

Expressions are immutable.  :meth:`Expr.compile` is the one compiler:
a small code generator renders the whole tree as the source of a
single Python function over a row tuple — ``row[i]`` positions from
``schema.index_of``, fixed operator tokens, ``and``/``or``/``not`` —
then ``compile()``s and ``exec``s it.  A scan therefore evaluates a
pushed OR-of-paths filter as one straight-line function, not a walk
over nested closures.  Two rules keep the generated source safe:

* **No value text.**  Literal values and ``IN`` sets are bound as
  generated names (``_k0``, ``_k1``, …) in the function's namespace;
  the source holds only integer positions, operator tokens and those
  names, and the namespace carries no builtins.
* **A depth guard.**  CPython's parser rejects source nested about 200
  parentheses deep, so any subtree deeper than ``_INLINE_DEPTH`` is
  generated as a function of its own and called by name.

NULL semantics are simplified: any comparison involving ``None`` is
false (``<>`` too, and ordering never raises), a NULL never matches
``IN``, and ``NOT`` is plain negation.  The mining workloads never
generate NULLs; the rule exists so the engine is total.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from .types import Row, SQLValue

if TYPE_CHECKING:
    from .schema import TableSchema

#: A compiled expression: evaluates one row tuple to a value (scalar
#: expressions) or a truth value (predicates).
RowFunc = Callable[[Row], Any]

COMPARISON_OPS = ("=", "<>", "<", "<=", ">", ">=")

#: SQL comparison operator -> the Python operator token it renders as.
_PYTHON_OPS = dict(zip(COMPARISON_OPS, ("==", "!=", "<", "<=", ">", ">=")))

#: Composite nodes nested deeper than this inside one generated
#: function are split off into a function of their own.
_INLINE_DEPTH = 32


def sql_literal(value: object) -> str:
    """Render a Python value as a SQL literal."""
    if value is None:
        return "NULL"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


class Expr:
    """Base class for all expression nodes."""

    #: True for nodes that add no nesting to generated source.
    _leaf = False
    #: True for nodes that always evaluate to a truth value.
    _boolean = True

    def columns(self) -> set[str]:
        """Set of column names this expression references."""
        raise NotImplementedError

    def to_sql(self) -> str:
        """Render this expression as SQL text."""
        raise NotImplementedError

    def compile(self, schema: "TableSchema") -> RowFunc:
        """Return ``callable(row_tuple) -> value`` for rows of ``schema``.

        Only ``schema.index_of`` is consulted.  Predicates return
        ``bool``; scalar expressions return the row's value.
        """
        return _CodeGen(schema).build(self)

    def _render(self, gen: "_CodeGen") -> str:
        """Python expression text for this node (see :class:`_CodeGen`)."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_sql()})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Expr) or type(self) is not type(other):
            return False
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def _key(self) -> tuple[object, ...]:
        raise NotImplementedError


class Literal(Expr):
    """A constant value."""

    __slots__ = ("value",)
    _leaf = True
    _boolean = False

    def __init__(self, value: SQLValue) -> None:
        self.value = value

    def columns(self) -> set[str]:
        return set()

    def to_sql(self) -> str:
        return sql_literal(self.value)

    def _render(self, gen: "_CodeGen") -> str:
        return gen.bind(self.value)

    def _key(self) -> tuple[object, ...]:
        return (self.value,)


class ColumnRef(Expr):
    """A reference to a column by name."""

    __slots__ = ("name",)
    _leaf = True
    _boolean = False

    def __init__(self, name: str) -> None:
        self.name = name

    def columns(self) -> set[str]:
        return {self.name}

    def to_sql(self) -> str:
        return self.name

    def _render(self, gen: "_CodeGen") -> str:
        return gen.column(self.name)

    def _key(self) -> tuple[object, ...]:
        return (self.name,)


class Comparison(Expr):
    """A binary comparison between two scalar expressions."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr) -> None:
        if op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator: {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def to_sql(self) -> str:
        return f"{self.left.to_sql()} {self.op} {self.right.to_sql()}"

    def _render(self, gen: "_CodeGen") -> str:
        operands = (self.left, self.right)
        if any(isinstance(o, Literal) and o.value is None for o in operands):
            return "False"  # a NULL literal compares False
        a, b = (gen.render(o) for o in operands)
        op = _PYTHON_OPS[self.op]
        if self.op == "=" and any(isinstance(o, Literal) for o in operands):
            # NULL equals no non-NULL literal, so no None check is needed.
            return f"({a} {op} {b})"
        prelude = ""
        if not (self.left._leaf and self.right._leaf):
            # Evaluate each operand once, both before any None check.
            values = (a, b)
            a, b = gen.temp(), gen.temp()
            prelude = f"(({a} := {values[0]}), ({b} := {values[1]})) and "
        checks = "".join(
            f"{name} is not None and "
            for name, o in zip((a, b), operands)
            if not isinstance(o, Literal)
        )
        return f"({prelude}{checks}{a} {op} {b})"

    def _key(self) -> tuple[object, ...]:
        return (self.op, self.left, self.right)


class InList(Expr):
    """``expr IN (v1, v2, ...)`` against literal values."""

    __slots__ = ("operand", "values")

    def __init__(self, operand: Expr,
                 values: Iterable[SQLValue]) -> None:
        self.operand = operand
        self.values = tuple(values)
        if not self.values:
            raise ValueError("IN list must not be empty")

    def columns(self) -> set[str]:
        return self.operand.columns()

    def to_sql(self) -> str:
        rendered = ", ".join(sql_literal(v) for v in self.values)
        return f"{self.operand.to_sql()} IN ({rendered})"

    def _render(self, gen: "_CodeGen") -> str:
        # Dropping NULL from the set is what keeps a NULL from matching.
        members = gen.bind(frozenset(self.values) - {None})
        return f"({gen.render(self.operand)} in {members})"

    def _key(self) -> tuple[object, ...]:
        return (self.operand, self.values)


class And(Expr):
    """Conjunction of one or more predicates."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[Expr]) -> None:
        self.parts = tuple(parts)
        if not self.parts:
            raise ValueError("AND needs at least one operand")

    def columns(self) -> set[str]:
        names: set[str] = set()
        for part in self.parts:
            names |= part.columns()
        return names

    def to_sql(self) -> str:
        return " AND ".join(_parenthesize(p) for p in self.parts)

    def _render(self, gen: "_CodeGen") -> str:
        return f"({' and '.join(gen.truth(p) for p in self.parts)})"

    def _key(self) -> tuple[object, ...]:
        return (self.parts,)


class Or(Expr):
    """Disjunction of one or more predicates."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[Expr]) -> None:
        self.parts = tuple(parts)
        if not self.parts:
            raise ValueError("OR needs at least one operand")

    def columns(self) -> set[str]:
        names: set[str] = set()
        for part in self.parts:
            names |= part.columns()
        return names

    def to_sql(self) -> str:
        return " OR ".join(_parenthesize(p) for p in self.parts)

    def _render(self, gen: "_CodeGen") -> str:
        return f"({' or '.join(gen.truth(p) for p in self.parts)})"

    def _key(self) -> tuple[object, ...]:
        return (self.parts,)


class Not(Expr):
    """Negation of a predicate."""

    __slots__ = ("operand",)

    def __init__(self, operand: Expr) -> None:
        self.operand = operand

    def columns(self) -> set[str]:
        return self.operand.columns()

    def to_sql(self) -> str:
        return f"NOT {_parenthesize(self.operand)}"

    def _render(self, gen: "_CodeGen") -> str:
        return f"(not {gen.render(self.operand)})"

    def _key(self) -> tuple[object, ...]:
        return (self.operand,)


class TrueExpr(Expr):
    """Constant true — the predicate of an unfiltered scan."""

    __slots__ = ()
    _leaf = True

    def columns(self) -> set[str]:
        return set()

    def to_sql(self) -> str:
        return "1 = 1"

    def _render(self, gen: "_CodeGen") -> str:
        return "True"

    def _key(self) -> tuple[object, ...]:
        return ()


TRUE = TrueExpr()


def _parenthesize(expr: Expr) -> str:
    """Wrap composite operands in parens so rendered SQL re-parses."""
    if isinstance(expr, (And, Or, Not)):
        return f"({expr.to_sql()})"
    return expr.to_sql()


class _CodeGen:
    """Renders one expression tree as the source of Python functions.

    Each node's ``_render`` returns a Python expression over the
    generated function's locals.  Column values are loaded once per
    function (``_r<position> = row[<position>]``), literals are bound
    names, and a comparison whose operand is not a leaf evaluates that
    operand once through ``:=``.  Subtrees past
    ``_INLINE_DEPTH`` are queued and emitted as further functions in
    the same source, so the whole tree costs one ``compile()``.
    """

    def __init__(self, schema: "TableSchema") -> None:
        self._schema = schema
        self._namespace: dict[str, Any] = {"__builtins__": {}}
        self._serial = 0
        self._pending: list[tuple[str, Expr]] = []
        self._loads: dict[int, str] = {}
        self._depth = 0

    def build(self, expr: Expr) -> RowFunc:
        """Compile ``expr`` and return its entry function."""
        entry = self._fresh("_f")
        self._pending.append((entry, expr))
        functions = []
        while self._pending:
            functions.append(self._function(*self._pending.pop()))
        code = compile("".join(functions), "<expr>", "exec")
        exec(code, self._namespace)
        # Popped so the entry function and its namespace form no cycle.
        function: RowFunc = self._namespace.pop(entry)
        return function

    def render(self, expr: Expr) -> str:
        """Expression text for ``expr`` nested one level deeper."""
        if self._depth >= _INLINE_DEPTH and not expr._leaf:
            name = self._fresh("_f")
            self._pending.append((name, expr))
            return f"{name}(row)"
        self._depth += 1
        text = expr._render(self)
        self._depth -= 1
        return text

    def truth(self, expr: Expr) -> str:
        """Text for ``expr`` as a ``bool`` (an AND/OR part)."""
        text = self.render(expr)
        return text if expr._boolean else f"(not not {text})"

    def bind(self, value: object) -> str:
        """A fresh global name bound to ``value``."""
        name = self._fresh("_k")
        self._namespace[name] = value
        return name

    def column(self, name: str) -> str:
        """The local holding column ``name`` of the current row."""
        position = int(self._schema.index_of(name))
        return self._loads.setdefault(position, f"_r{position}")

    def temp(self) -> str:
        """A fresh local for an operand assigned with ``:=``."""
        return self._fresh("_t")

    def _fresh(self, prefix: str) -> str:
        name = f"{prefix}{self._serial}"
        self._serial += 1
        return name

    def _function(self, name: str, expr: Expr) -> str:
        self._loads = {}
        self._depth = 0
        body = self.render(expr)
        if expr._boolean:
            body = f"True if {body} else False"
        loads = "".join(
            f"    {local} = row[{position}]\n"
            for position, local in self._loads.items()
        )
        return f"def {name}(row):\n{loads}    return {body}\n"


# ---------------------------------------------------------------------------
# Convenience constructors (used heavily by the middleware and tests)
# ---------------------------------------------------------------------------


def col(name: str) -> ColumnRef:
    """Shorthand for :class:`ColumnRef`."""
    return ColumnRef(name)


def lit(value: SQLValue) -> Literal:
    """Shorthand for :class:`Literal`."""
    return Literal(value)


def eq(column_name: str, value: SQLValue) -> Comparison:
    """``column = value`` with a literal right-hand side."""
    return Comparison("=", ColumnRef(column_name), Literal(value))


def ne(column_name: str, value: SQLValue) -> Comparison:
    """``column <> value`` with a literal right-hand side."""
    return Comparison("<>", ColumnRef(column_name), Literal(value))


def all_of(parts: Iterable[Expr]) -> Expr:
    """AND of ``parts``; collapses 0 parts to TRUE and 1 part to itself."""
    parts = [p for p in parts if not isinstance(p, TrueExpr)]
    if not parts:
        return TRUE
    if len(parts) == 1:
        return parts[0]
    return And(parts)


def any_of(parts: Iterable[Expr]) -> Expr:
    """OR of ``parts``; collapses a single part to itself."""
    parts = list(parts)
    if not parts:
        raise ValueError("any_of needs at least one part")
    if any(isinstance(p, TrueExpr) for p in parts):
        return TRUE
    if len(parts) == 1:
        return parts[0]
    return Or(parts)


def compile_predicate(expr: Optional[Expr],
                      schema: "TableSchema") -> RowFunc:
    """Compile ``expr`` (or None, meaning TRUE) against ``schema``."""
    if expr is None:
        expr = TRUE
    return expr.compile(schema)
