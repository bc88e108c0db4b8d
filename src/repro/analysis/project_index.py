"""The project call-graph layer: modules, symbols, types, reachability.

Per-file AST rules can prove lexical properties ("this write sits inside
a ``with`` block") but the meter-integrity invariants are
*interprocedural*: whether an executor entry point charges for a row
access depends on what its callees — two modules away — do.  The
:class:`ProjectIndex` gives rules just enough whole-program structure
to ask those questions:

* **module and symbol resolution** — every scanned file becomes a
  dotted module (``src/repro/sqlengine/heap.py`` → ``repro.sqlengine
  .heap``); top-level functions, classes, methods and import aliases
  (including relative ``from . import`` forms) resolve to project
  qualnames;
* **annotation-driven type inference** — parameter annotations
  (``table: "HeapTable"``), attribute assignments in ``__init__``
  (``self._table = table``, ``self._pages = [Page(n)]``) and resolved
  constructor calls give receivers types, so ``self._table
  .scan_rows()`` resolves to ``repro.sqlengine.heap.HeapTable
  .scan_rows`` without importing anything;
* **a call graph with bounded reachability** — one node per module
  -level function or method (nested functions and lambdas fold into
  their enclosing node, which matches how closures actually execute:
  as part of the function that defines them), edges only where
  resolution *succeeded*, plus BFS ``reachable``/``find_path``
  queries with a depth bound.

What it deliberately does **not** do: resolve calls through untyped
receivers unless the method name is distinctive (defined by at most
:data:`DYNAMIC_FALLBACK_MAX` project classes and not a common container
-method name), follow ``getattr``/dict dispatch, or guess across
``Any``.  Unresolved calls are counted per function
(:attr:`FunctionInfo.unresolved_calls`) so rules — and the docs — can
be honest about where reachability gives up.
"""

from __future__ import annotations

import ast
import os
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Set, Tuple

from .source import SourceFile

if TYPE_CHECKING:
    from .engine import Project

#: An untyped receiver's method call resolves through the name-based
#: fallback only when at most this many project classes define it.
DYNAMIC_FALLBACK_MAX = 3

#: Method names too generic for the dynamic-dispatch fallback: calling
#: ``.append`` on a plain list must not resolve to ``Page.append``.
COMMON_METHOD_NAMES = frozenset({
    "append", "add", "remove", "delete", "insert", "extend", "pop",
    "get", "update",
    "clear", "copy", "keys", "values", "items", "setdefault", "join",
    "split", "strip", "read", "write", "close", "open", "submit",
    "result", "cancel", "acquire", "release", "put", "sort", "index",
    "count", "encode", "decode", "format", "startswith", "endswith",
})

#: Default BFS depth bound for reachability queries.
DEFAULT_DEPTH = 24


@dataclass
class FunctionInfo:
    """One call-graph node: a module-level function or a method."""

    qualname: str
    module: str
    name: str
    class_name: Optional[str]
    node: ast.FunctionDef
    source: SourceFile
    #: Call sites whose resolution failed (terminal callee name each).
    unresolved_calls: List[str] = field(default_factory=list)


@dataclass
class CallSite:
    """One resolved call expression inside a function."""

    node: ast.Call
    #: Project qualnames this call may dispatch to.
    targets: Tuple[str, ...]
    #: True when resolution used the name-based dispatch fallback.
    via_fallback: bool = False


@dataclass
class ClassInfo:
    """One project class: methods, bases, inferred attribute types."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    source: SourceFile
    #: Base-class qualnames resolved inside the project.
    bases: List[str] = field(default_factory=list)
    #: method name -> qualname.
    methods: Dict[str, str] = field(default_factory=dict)
    #: attribute name -> inferred class qualname.
    attr_types: Dict[str, str] = field(default_factory=dict)
    #: attribute name -> element class qualname (list-of-X attributes).
    attr_elem_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One scanned file as a dotted module with a symbol table."""

    name: str
    source: SourceFile
    #: local name -> project qualname (defs, classes, import aliases).
    symbols: Dict[str, str] = field(default_factory=dict)


def module_name_for(path: str, root: str) -> str:
    """Dotted module name of ``path`` relative to the project root.

    A leading ``src/`` component is dropped (the repository layout), a
    trailing ``__init__`` names the package, and a file outside the
    root falls back to its bare stem — which is exactly what fixture
    directories want.
    """
    rel = os.path.relpath(os.path.abspath(path), os.path.abspath(root))
    rel = rel.replace(os.sep, "/")
    if rel.startswith("../"):
        return os.path.splitext(os.path.basename(path))[0]
    if rel.startswith("src/"):
        rel = rel[len("src/"):]
    parts = rel[:-3].split("/") if rel.endswith(".py") else rel.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


def _annotation_name(node: Optional[ast.AST]) -> Optional[str]:
    """A dotted type name from an annotation, or None when too clever.

    Handles ``X``, ``mod.X``, string annotations (``"X"``),
    ``Optional[X]`` and PEP-604 ``X | None``; containers and anything
    subscripted other than Optional give up (their *element* types are
    inferred separately, from assigned values).
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            inner = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
        return _annotation_name(inner)
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        parts: List[str] = []
        probe: ast.AST = node
        while isinstance(probe, ast.Attribute):
            parts.append(probe.attr)
            probe = probe.value
        if isinstance(probe, ast.Name):
            parts.append(probe.id)
            return ".".join(reversed(parts))
        return None
    if isinstance(node, ast.Subscript):
        head = _annotation_name(node.value)
        if head in ("Optional", "typing.Optional"):
            return _annotation_name(node.slice)
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        for side in (node.left, node.right):
            if isinstance(side, ast.Constant) and side.value is None:
                continue
            name = _annotation_name(side)
            if name is not None:
                return name
    return None


def _tuple_elem_annotations(
    node: Optional[ast.AST],
) -> Optional[List[ast.AST]]:
    """Element annotations of ``tuple[X, Y]`` / ``Tuple[X, Y]``.

    Returns None for anything that is not a fixed-arity tuple
    annotation (including ``tuple[X, ...]``); string annotations are
    re-parsed first, like :func:`_annotation_name` does.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            inner = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
        return _tuple_elem_annotations(inner)
    if not isinstance(node, ast.Subscript):
        return None
    head = _annotation_name(node.value)
    if head not in ("tuple", "Tuple", "typing.Tuple"):
        return None
    if not isinstance(node.slice, ast.Tuple):
        return None
    elems = list(node.slice.elts)
    if any(
        isinstance(e, ast.Constant) and e.value is Ellipsis
        for e in elems
    ):
        return None
    return elems


def _iter_own_calls(node: ast.AST) -> Iterator[ast.Call]:
    """Every Call lexically inside ``node``, *including* nested defs.

    Nested functions and lambdas execute with their enclosing
    function's state (closures), so their calls are attributed to the
    enclosing call-graph node.
    """
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            yield child


def _terminal_call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


class ProjectIndex:
    """Symbols, classes and the call graph of one scanned project."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: caller qualname -> resolved call sites.
        self.calls: Dict[str, List[CallSite]] = {}
        #: caller qualname -> set of callee qualnames (edge view).
        self.edges: Dict[str, Set[str]] = {}
        #: class qualname -> direct subclass qualnames.
        self.subclasses: Dict[str, List[str]] = {}
        #: method name -> qualnames of classes defining it.
        self._method_owners: Dict[str, List[str]] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def build(cls, project: "Project") -> "ProjectIndex":
        index = cls()
        for source in project.files:
            index._collect_module(source, project.root)
        index._resolve_hierarchy()
        index._infer_attr_types()
        for info in list(index.functions.values()):
            index._resolve_calls(info)
        return index

    def _collect_module(self, source: SourceFile, root: str) -> None:
        module = ModuleInfo(module_name_for(source.path, root), source)
        # Duplicate stems (two fixture files named alike) keep the
        # first registration; later files still get functions indexed
        # under their own qualnames.
        self.modules.setdefault(module.name, module)
        for stmt in source.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if isinstance(stmt, ast.FunctionDef):
                    self._register_function(module, None, stmt, source)
            elif isinstance(stmt, ast.ClassDef):
                self._register_class(module, stmt, source)
        # Imports are collected from the whole tree: several modules
        # import lazily inside functions to break cycles.
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    module.symbols.setdefault(local, target)
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(module.name, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    module.symbols.setdefault(
                        local, f"{base}.{alias.name}" if base else alias.name
                    )

    @staticmethod
    def _import_base(module_name: str,
                     node: ast.ImportFrom) -> Optional[str]:
        if node.level == 0:
            return node.module or ""
        parts = module_name.split(".")
        if node.level > len(parts):
            return None
        base_parts = parts[: len(parts) - node.level]
        if node.module:
            base_parts.append(node.module)
        return ".".join(base_parts)

    def _register_function(self, module: ModuleInfo,
                           owner: Optional[ClassInfo],
                           node: ast.FunctionDef,
                           source: SourceFile) -> None:
        if owner is None:
            qualname = f"{module.name}.{node.name}" if module.name \
                else node.name
            module.symbols.setdefault(node.name, qualname)
            class_name = None
        else:
            qualname = f"{owner.qualname}.{node.name}"
            owner.methods[node.name] = qualname
            class_name = owner.name
        info = FunctionInfo(
            qualname=qualname, module=module.name, name=node.name,
            class_name=class_name, node=node, source=source,
        )
        self.functions.setdefault(qualname, info)

    def _register_class(self, module: ModuleInfo, node: ast.ClassDef,
                        source: SourceFile) -> None:
        qualname = f"{module.name}.{node.name}" if module.name \
            else node.name
        module.symbols.setdefault(node.name, qualname)
        info = ClassInfo(
            qualname=qualname, module=module.name, name=node.name,
            node=node, source=source,
        )
        self.classes.setdefault(qualname, info)
        for stmt in node.body:
            if isinstance(stmt, ast.FunctionDef):
                self._register_function(module, info, stmt, source)
                self._method_owners.setdefault(
                    stmt.name, []
                ).append(qualname)

    def _resolve_hierarchy(self) -> None:
        for info in self.classes.values():
            module = self.modules.get(info.module)
            for base in info.node.bases:
                name = _annotation_name(base)
                if name is None:
                    continue
                resolved = self._resolve_symbol(module, name)
                if resolved in self.classes:
                    info.bases.append(resolved)
                    self.subclasses.setdefault(resolved, []).append(
                        info.qualname
                    )

    # -- symbol / type resolution --------------------------------------------

    def _resolve_symbol(self, module: Optional[ModuleInfo],
                        dotted: str) -> str:
        """Map a dotted local name to a project qualname (best effort)."""
        if module is None:
            return dotted
        head, _, rest = dotted.partition(".")
        target = module.symbols.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    def _class_for_annotation(self, module: Optional[ModuleInfo],
                              annotation: Optional[ast.AST]) -> Optional[str]:
        name = _annotation_name(annotation)
        if name is None:
            return None
        resolved = self._resolve_symbol(module, name)
        if resolved in self.classes:
            return resolved
        # Unresolvable but suffix-unique inside the project: accept.
        matches = [q for q in self.classes
                   if q.endswith("." + name.split(".")[-1])]
        return matches[0] if len(matches) == 1 else None

    def _param_types(self, info: FunctionInfo) -> Dict[str, str]:
        module = self.modules.get(info.module)
        env: Dict[str, str] = {}
        args = info.node.args
        for arg in (list(args.posonlyargs) + list(args.args)
                    + list(args.kwonlyargs)):
            resolved = self._class_for_annotation(module, arg.annotation)
            if resolved is not None:
                env[arg.arg] = resolved
        if info.class_name is not None and (args.args or args.posonlyargs):
            first = (args.posonlyargs or args.args)[0].arg
            # Only a literal ``self`` binds to the owner class —
            # staticmethods' first parameter is an ordinary argument.
            if first == "self":
                owner = self._owner_class(info)
                if owner is not None:
                    env[first] = owner.qualname
        return env

    def _owner_class(self, info: FunctionInfo) -> Optional[ClassInfo]:
        if info.class_name is None:
            return None
        prefix = info.qualname.rsplit(".", 1)[0]
        return self.classes.get(prefix)

    def _infer_attr_types(self) -> None:
        """Fill each class's attribute-type tables from its methods."""
        for cls_info in self.classes.values():
            module = self.modules.get(cls_info.module)
            for stmt in cls_info.node.body:
                if isinstance(stmt, ast.AnnAssign) and \
                        isinstance(stmt.target, ast.Name):
                    resolved = self._class_for_annotation(
                        module, stmt.annotation
                    )
                    if resolved is not None:
                        cls_info.attr_types.setdefault(
                            stmt.target.id, resolved
                        )
            for method_qualname in cls_info.methods.values():
                method = self.functions.get(method_qualname)
                if method is None:
                    continue
                env = self._param_types(method)
                for node in ast.walk(method.node):
                    targets: List[ast.expr] = []
                    value: Optional[ast.expr] = None
                    if isinstance(node, ast.Assign):
                        targets, value = list(node.targets), node.value
                    elif isinstance(node, ast.AnnAssign) and \
                            node.target is not None:
                        targets = [node.target]
                        value = node.value
                        annotated = self._class_for_annotation(
                            module, node.annotation
                        )
                        if annotated is not None and isinstance(
                            node.target, ast.Attribute
                        ) and isinstance(node.target.value, ast.Name) \
                                and node.target.value.id == "self":
                            cls_info.attr_types.setdefault(
                                node.target.attr, annotated
                            )
                    for target in targets:
                        if not (isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"):
                            continue
                        inferred = self._value_type(
                            value, env, cls_info, module
                        )
                        if inferred is not None:
                            cls_info.attr_types.setdefault(
                                target.attr, inferred
                            )
                        elem = self._value_elem_type(
                            value, env, cls_info, module
                        )
                        if elem is not None:
                            cls_info.attr_elem_types.setdefault(
                                target.attr, elem
                            )

    def _value_type(self, node: Optional[ast.AST], env: Dict[str, str],
                    cls_info: Optional[ClassInfo],
                    module: Optional[ModuleInfo],
                    depth: int = 0) -> Optional[str]:
        """Best-effort type of an expression, as a class qualname."""
        if node is None or depth > 4:
            return None
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and \
                    node.value.id == "self" and cls_info is not None:
                return self._attr_type(cls_info, node.attr)
            base = self._value_type(node.value, env, cls_info, module,
                                    depth + 1)
            if base is not None:
                owner = self.classes.get(base)
                if owner is not None:
                    return self._attr_type(owner, node.attr)
            return None
        if isinstance(node, ast.Subscript):
            if isinstance(node.value, ast.Attribute) and \
                    isinstance(node.value.value, ast.Name) and \
                    node.value.value.id == "self" and cls_info is not None:
                return self._attr_elem_type(cls_info, node.value.attr)
            return None
        if isinstance(node, ast.Call):
            callees = self._call_targets(node, env, cls_info, module)
            for callee in callees:
                if callee in self.classes:
                    return callee
                # Constructors resolve to ``Cls.__init__``; the value
                # they produce is the class itself.
                if callee.endswith(".__init__"):
                    owner_name = callee[: -len(".__init__")]
                    if owner_name in self.classes:
                        return owner_name
                method = self.functions.get(callee)
                if method is not None:
                    owner_module = self.modules.get(method.module)
                    resolved = self._class_for_annotation(
                        owner_module, method.node.returns
                    )
                    if resolved is not None:
                        return resolved
            return None
        return None

    def _iter_elem_type(self, node: ast.AST,
                        cls_info: Optional[ClassInfo]) -> Optional[str]:
        """Element type of an iterated expression (``self._pages``)."""
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id == "self" and cls_info is not None:
            return self._attr_elem_type(cls_info, node.attr)
        return None

    def _value_elem_type(self, node: Optional[ast.AST],
                         env: Dict[str, str],
                         cls_info: Optional[ClassInfo],
                         module: Optional[ModuleInfo]) -> Optional[str]:
        """Element type of a list literal like ``[Page(n)]``."""
        if isinstance(node, (ast.List, ast.Tuple)) and len(node.elts) >= 1:
            return self._value_type(node.elts[0], env, cls_info, module,
                                    depth=1)
        return None

    def _attr_type(self, cls_info: ClassInfo,
                   attr: str) -> Optional[str]:
        for owner in self._mro(cls_info.qualname):
            found = self.classes[owner].attr_types.get(attr)
            if found is not None:
                return found
        return None

    def _attr_elem_type(self, cls_info: ClassInfo,
                        attr: str) -> Optional[str]:
        for owner in self._mro(cls_info.qualname):
            found = self.classes[owner].attr_elem_types.get(attr)
            if found is not None:
                return found
        return None

    def _mro(self, class_qualname: str) -> List[str]:
        """Linearised project-only ancestry (self first, cycle-safe)."""
        out: List[str] = []
        queue = deque([class_qualname])
        seen: Set[str] = set()
        while queue:
            current = queue.popleft()
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            out.append(current)
            queue.extend(self.classes[current].bases)
        return out

    def lookup_method(self, class_qualname: str,
                      method: str) -> Optional[str]:
        """Resolve ``method`` along the project-only MRO."""
        for owner in self._mro(class_qualname):
            found = self.classes[owner].methods.get(method)
            if found is not None:
                return found
        return None

    def _override_targets(self, class_qualname: str,
                          method: str) -> List[str]:
        """Subclass overrides of ``method`` (dynamic dispatch)."""
        out: List[str] = []
        queue = deque(self.subclasses.get(class_qualname, []))
        seen: Set[str] = set()
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            sub = self.classes.get(current)
            if sub is None:
                continue
            own = sub.methods.get(method)
            if own is not None:
                out.append(own)
            queue.extend(self.subclasses.get(current, []))
        return out

    # -- call resolution -----------------------------------------------------

    def _call_targets(self, node: ast.Call, env: Dict[str, str],
                      cls_info: Optional[ClassInfo],
                      module: Optional[ModuleInfo]) -> Tuple[str, ...]:
        """Project qualnames one call expression may dispatch to."""
        func = node.func
        if isinstance(func, ast.Name):
            return self._name_targets(func.id, module)
        if isinstance(func, ast.Attribute):
            # Module alias: ``heap.HeapTable(...)`` / ``mod.func(...)``.
            dotted = _annotation_name(func)
            if dotted is not None and module is not None:
                resolved = self._resolve_symbol(module, dotted)
                direct = self._qualname_targets(resolved)
                if direct:
                    return direct
            receiver = self._value_type(func.value, env, cls_info,
                                        module, depth=1)
            if receiver is not None:
                hit = self.lookup_method(receiver, func.attr)
                if hit is None:
                    return ()
                return tuple(
                    [hit] + self._override_targets(receiver, func.attr)
                )
            return self._fallback_targets(func.attr)
        return ()

    def _name_targets(self, name: str,
                      module: Optional[ModuleInfo]) -> Tuple[str, ...]:
        resolved = self._resolve_symbol(module, name)
        return self._qualname_targets(resolved)

    def _qualname_targets(self, qualname: str) -> Tuple[str, ...]:
        if qualname in self.classes:
            ctor = self.lookup_method(qualname, "__init__")
            return (ctor,) if ctor is not None else (qualname,)
        if qualname in self.functions:
            return (qualname,)
        return ()

    def _fallback_targets(self, method: str) -> Tuple[str, ...]:
        """Name-based dispatch for untyped receivers — kept narrow."""
        if method in COMMON_METHOD_NAMES:
            return ()
        owners = self._method_owners.get(method, [])
        if not owners or len(owners) > DYNAMIC_FALLBACK_MAX:
            return ()
        out: List[str] = []
        for owner in owners:
            hit = self.classes[owner].methods.get(method)
            if hit is not None:
                out.append(hit)
        return tuple(out)

    def _resolve_calls(self, info: FunctionInfo) -> None:
        env = dict(self._param_types(info))
        cls_info = self._owner_class(info)
        module = self.modules.get(info.module)
        # One linear pre-pass over simple local assignments gives
        # ``table = database.table(name)``-style locals their types;
        # ``for page in self._pages:`` loop targets pick up the
        # iterated attribute's element type the same way.
        for node in ast.walk(info.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                inferred = self._value_type(node.value, env, cls_info,
                                            module)
                if inferred is not None:
                    env.setdefault(node.targets[0].id, inferred)
            elif isinstance(node, ast.Assign) and \
                    len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Tuple) and \
                    isinstance(node.value, ast.Call):
                # ``pool, owned = self._acquire_pool()`` — thread a
                # ``tuple[X, Y]`` return annotation positionally.
                self._unpack_types(node.targets[0], node.value, env,
                                   cls_info, module)
            elif isinstance(node, ast.For) and \
                    isinstance(node.target, ast.Name):
                elem = self._iter_elem_type(node.iter, cls_info)
                if elem is not None:
                    env.setdefault(node.target.id, elem)
        sites: List[CallSite] = []
        for call in _iter_own_calls(info.node):
            targets = self._call_targets(call, env, cls_info, module)
            if targets:
                fallback = not isinstance(call.func, ast.Name) and \
                    self._was_fallback(call, env, cls_info, module)
                sites.append(CallSite(call, targets, fallback))
            else:
                name = _terminal_call_name(call)
                if name is not None:
                    info.unresolved_calls.append(name)
        self.calls[info.qualname] = sites
        self.edges[info.qualname] = {
            target for site in sites for target in site.targets
        }

    def _unpack_types(self, target: ast.Tuple, call: ast.Call,
                      env: Dict[str, str],
                      cls_info: Optional[ClassInfo],
                      module: Optional[ModuleInfo]) -> None:
        """Positional types for ``a, b = f()`` from f's ``tuple[...]``
        return annotation."""
        if not all(isinstance(e, ast.Name) for e in target.elts):
            return
        for callee in self._call_targets(call, env, cls_info, module):
            fn = self.functions.get(callee)
            if fn is None:
                continue
            elems = _tuple_elem_annotations(fn.node.returns)
            if elems is None or len(elems) != len(target.elts):
                continue
            fn_module = self.modules.get(fn.module)
            for name_node, annotation in zip(target.elts, elems):
                resolved = self._class_for_annotation(
                    fn_module, annotation
                )
                if resolved is not None and \
                        isinstance(name_node, ast.Name):
                    env.setdefault(name_node.id, resolved)
            return

    def _was_fallback(self, call: ast.Call, env: Dict[str, str],
                      cls_info: Optional[ClassInfo],
                      module: Optional[ModuleInfo]) -> bool:
        func = call.func
        if not isinstance(func, ast.Attribute):
            return False
        dotted = _annotation_name(func)
        if dotted is not None and module is not None:
            if self._qualname_targets(self._resolve_symbol(module, dotted)):
                return False
        return self._value_type(
            func.value, env, cls_info, module, depth=1
        ) is None

    # -- queries -------------------------------------------------------------

    def reachable(self, start: str,
                  depth: int = DEFAULT_DEPTH) -> Dict[str, int]:
        """Qualname -> hop count for everything reachable from ``start``.

        ``start`` itself is included at depth 0.  The bound keeps
        pathological graphs (cycles included) cheap and makes "gave up"
        explicit rather than silent.
        """
        out: Dict[str, int] = {start: 0}
        queue = deque([(start, 0)])
        while queue:
            current, hops = queue.popleft()
            if hops >= depth:
                continue
            for callee in self.edges.get(current, ()):
                if callee not in out:
                    out[callee] = hops + 1
                    queue.append((callee, hops + 1))
        return out

    def find_path(self, start: str, targets: Set[str],
                  depth: int = DEFAULT_DEPTH,
                  blocked: Optional[Set[str]] = None) -> Optional[List[str]]:
        """Shortest call path from ``start`` into ``targets``.

        ``blocked`` nodes terminate exploration (they may be *reached*
        as a final hop only if in ``targets``); the meter rules use
        this to ask for a path that avoids every charging function.
        """
        if start in targets:
            return [start]
        parents: Dict[str, str] = {}
        queue = deque([(start, 0)])
        seen = {start}
        while queue:
            current, hops = queue.popleft()
            if hops >= depth:
                continue
            for callee in self.edges.get(current, ()):
                if callee in seen:
                    continue
                seen.add(callee)
                parents[callee] = current
                if callee in targets:
                    path = [callee]
                    while path[-1] != start:
                        path.append(parents[path[-1]])
                    return list(reversed(path))
                if blocked is not None and callee in blocked:
                    continue
                queue.append((callee, hops + 1))
        return None

    def call_sites_into(self, caller: str,
                        next_hop: str) -> List[CallSite]:
        """Call sites in ``caller`` that may dispatch to ``next_hop``."""
        return [
            site for site in self.calls.get(caller, [])
            if next_hop in site.targets
        ]
