"""The guarded-by contract registry, shared by static and runtime checks.

Concurrency state in this codebase is documented where it is
initialised::

    self._lock = new_lock("ScanWorkerPool._lock")
    #: guarded by self._lock
    self._executor = None

That comment is a *contract*: every mutation of the attribute outside
``__init__`` must happen while the named lock is held.  Before this
module existed the static ``guarded-by`` rule parsed the declarations
privately; now the parsing lives here, once, and is consumed by

* the static rule (:mod:`repro.analysis.rules.guarded_by`), which
  checks the contract *lexically* — mutations must sit inside a
  ``with self.<lock>:`` block; and
* the runtime sanitizer (:mod:`repro.analysis.runtime.sanitizer`),
  which checks it *dynamically* — instrumented ``__setattr__`` verifies
  the named lock is actually held by the writing thread, catching
  violations the AST cannot see (writes through helpers, interleavings,
  locks passed around).

Declarations are recognised on the assignment's own line or on the
comment line directly above it, anywhere in the class body.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from importlib import util as importlib_util
from typing import Iterator, Optional, Sequence

#: The declaration comment, e.g. ``#: guarded by self._lock``.
GUARD_DECLARATION = re.compile(r"#:?\s*guarded by\s+self\.(\w+)")

#: The meter-parity declaration, written on the comment line directly
#: above a ``def``::
#:
#:     #: meter parity with StagedFile.scan
#:     def scan_blocks(self): ...
#:
#: Multiple targets compose with ``+`` (the declaring function must
#: charge the *union* multiset)::
#:
#:     #: meter parity with ForwardCursor.__init__ + ForwardCursor.rows
#:
#: Targets are dotted qualname suffixes resolved against the scanned
#: project; the ``meter-parity`` static rule checks that the declaring
#: function charges exactly the same category multiset as its targets.
PARITY_DECLARATION = re.compile(
    r"#:?\s*meter parity with\s+([\w.]+(?:\s*\+\s*[\w.]+)*)"
)


@dataclass(frozen=True)
class GuardDecl:
    """One declared guard: which lock, and where it was declared."""

    lock: str
    line: int


@dataclass(frozen=True)
class ParityDecl:
    """One meter-parity declaration above a function definition."""

    #: The declaring function's name (the ``def`` directly below).
    function: str
    #: Qualname suffixes whose charge multisets must union-match.
    targets: tuple[str, ...]
    #: Line of the ``def`` the declaration is attached to.
    line: int


def parity_targets(text: str) -> "tuple[str, ...] | None":
    """Parse one ``#: meter parity with A + B`` comment line."""
    match = PARITY_DECLARATION.search(text)
    if match is None:
        return None
    return tuple(
        part.strip()
        for part in match.group(1).split("+")
        if part.strip()
    )


def parities_for_module(tree: ast.AST,
                        lines: Sequence[str]) -> "list[ParityDecl]":
    """Every parity declaration in a parsed module.

    The declaration is recognised on the comment line directly above
    the ``def`` — or above its first decorator when decorated.
    """
    out: "list[ParityDecl]" = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        first_line = (
            node.decorator_list[0].lineno
            if node.decorator_list else node.lineno
        )
        targets = parity_targets(_comment_above(lines, first_line))
        if targets:
            out.append(ParityDecl(
                function=node.name, targets=targets, line=node.lineno,
            ))
    return out


def _line_text(lines: Sequence[str], number: int) -> str:
    """The 1-based source line (empty string when out of range)."""
    if 1 <= number <= len(lines):
        return lines[number - 1]
    return ""


def _comment_above(lines: Sequence[str], number: int) -> str:
    """The stripped comment-only line directly above ``number``."""
    text = _line_text(lines, number - 1).strip()
    return text if text.startswith("#") else ""


def guards_for_class(class_node: ast.ClassDef,
                     lines: Sequence[str]) -> dict[str, GuardDecl]:
    """``attr -> GuardDecl`` for one class.

    A guard is discovered from any ``self.<attr> = ...`` assignment in
    the class whose own line, or the comment line directly above it,
    carries the ``guarded by self.<lock>`` declaration.
    """
    guards: dict[str, GuardDecl] = {}
    for node in ast.walk(class_node):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            for offset, text in (
                (0, _line_text(lines, node.lineno)),
                (-1, _comment_above(lines, node.lineno)),
            ):
                match = GUARD_DECLARATION.search(text)
                if match is not None:
                    guards[target.attr] = GuardDecl(
                        lock=match.group(1),
                        line=node.lineno + offset,
                    )
    return guards


def guards_by_class(tree: ast.AST,
                    lines: Sequence[str]) -> dict[ast.ClassDef, dict[str, GuardDecl]]:
    """Guard contracts for every class in a parsed module."""
    return {
        node: guards_for_class(node, lines)
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }


@dataclass(frozen=True)
class ClassContract:
    """The guarded-by contracts of one class, plus how to find it."""

    #: Importable dotted module name ("" when scanned from a bare file).
    module: str
    class_name: str
    path: str
    guards: dict[str, GuardDecl] = field(default_factory=dict)

    @property
    def qualified_name(self) -> str:
        prefix = f"{self.module}." if self.module else ""
        return f"{prefix}{self.class_name}"


class ContractRegistry:
    """Every guarded-by contract discovered in a set of sources.

    Built once (per activation or per analysis run) and consumed by
    both checkers, so the two can never drift on what the declaration
    syntax means.
    """

    def __init__(self) -> None:
        self._contracts: list[ClassContract] = []
        #: ``(module, ParityDecl)`` pairs, in scan order.
        self._parities: list[tuple[str, ParityDecl]] = []

    def __iter__(self) -> Iterator[ClassContract]:
        return iter(self._contracts)

    def __len__(self) -> int:
        return len(self._contracts)

    def add(self, contract: ClassContract) -> None:
        self._contracts.append(contract)

    @property
    def parities(self) -> list[tuple[str, ParityDecl]]:
        """Every meter-parity declaration seen, with its module."""
        return list(self._parities)

    def scan_file(self, path: str, module: str = "") -> list[ClassContract]:
        """Parse one file; registers (and returns) its class contracts."""
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        return self.scan_source(text, path=path, module=module)

    def scan_source(self, text: str, path: str = "<string>",
                    module: str = "") -> list[ClassContract]:
        """Parse source text; registers (and returns) class contracts."""
        tree = ast.parse(text, filename=path)
        lines = text.splitlines()
        for parity in parities_for_module(tree, lines):
            self._parities.append((module, parity))
        found: list[ClassContract] = []
        for class_node, guards in guards_by_class(tree, lines).items():
            if not guards:
                continue
            contract = ClassContract(
                module=module,
                class_name=class_node.name,
                path=path,
                guards=guards,
            )
            self.add(contract)
            found.append(contract)
        return found

    def scan_package(self, package: str) -> list[ClassContract]:
        """Walk an importable package's source tree for contracts.

        Modules are *not* imported here — only parsed.  The sanitizer
        imports just the modules that actually carry contracts when it
        instruments them.
        """
        spec = importlib_util.find_spec(package)
        if spec is None or not spec.submodule_search_locations:
            raise ImportError(f"cannot locate package {package!r}")
        found: list[ClassContract] = []
        for root in spec.submodule_search_locations:
            for dirpath, dirnames, filenames in os.walk(root):
                dirnames[:] = sorted(
                    d for d in dirnames if d != "__pycache__"
                )
                for filename in sorted(filenames):
                    if not filename.endswith(".py"):
                        continue
                    path = os.path.join(dirpath, filename)
                    relative = os.path.relpath(path, root)
                    parts = relative[:-3].replace(os.sep, ".").split(".")
                    if parts[-1] == "__init__":
                        parts = parts[:-1]
                    module = ".".join([package] + [p for p in parts if p])
                    found.extend(self.scan_file(path, module=module))
        return found

    def for_module(self, module: str) -> list[ClassContract]:
        """Contracts registered under one importable module name."""
        return [c for c in self._contracts if c.module == module]

    def find(self, class_name: str,
             module: str = "") -> Optional[ClassContract]:
        """The first contract matching ``class_name`` (and module)."""
        for contract in self._contracts:
            if contract.class_name != class_name:
                continue
            if module and contract.module != module:
                continue
            return contract
        return None
