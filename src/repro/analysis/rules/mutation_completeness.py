"""Rule: every table-mutating path reaches all its maintenance hooks.

PR 8 shipped three bugs of one shape: a mutation path that skipped a
maintenance obligation (INSERT charged no index maintenance, DELETE
never consulted indexes).  Nothing crashed — indexes silently went
stale and the meter silently under-billed.  This rule turns the shape
into a build failure.

A **mutation sink** is a page method that physically writes rows
(``Page.append``/``Page.tombstone``, discovered structurally).  A
**mutation entry** is the innermost *metered* function whose call
graph reaches a sink — innermost, because the obligations belong to
the function that owns the meter for the mutation (``_execute_insert``),
not to every caller above it.  For each entry the rule demands, within
the entry's reachable set:

* a **version-counter bump** — an assignment/augassign to a
  ``self.*version*`` attribute.  The version counter is also how the
  version-keyed :class:`StatisticsCatalog` notices staleness, so this
  one hook carries two invariants;
* a **statistics update** — satisfied by the version bump (the
  catalogs are version-keyed) or by an explicit ``invalidate*`` call;
* **index maintenance**, both halves: the physical half (a ``for ...
  in self.*index*:`` loop applying the mutation to each index) and
  the metered half (a literal ``"index"`` charge).  The metered half
  is waived when the entry *creates the table it mutates* (a
  reachable ``create_table`` call): a freshly materialised temp table
  has no indexes to maintain, and its population cost is priced by
  its own categories.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from ..engine import Project
from ..findings import Finding
from ..project_index import FunctionInfo, ProjectIndex
from .base import Rule, call_name
from .meter_common import charged_categories, is_metered, \
    mutation_sinks
from .unmetered_row_access import short_path


def _bumps_version(node: ast.AST) -> bool:
    for child in ast.walk(node):
        target: Optional[ast.expr] = None
        if isinstance(child, ast.AugAssign):
            target = child.target
        elif isinstance(child, ast.Assign) and len(child.targets) == 1:
            target = child.targets[0]
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and "version" in target.attr
        ):
            return True
    return False


def _maintains_indexes(node: ast.AST) -> bool:
    """A ``for index in self._indexes:`` loop mutating each index."""
    for child in ast.walk(node):
        if not isinstance(child, ast.For):
            continue
        iterated = child.iter
        if not (
            isinstance(iterated, ast.Attribute)
            and isinstance(iterated.value, ast.Name)
            and iterated.value.id == "self"
            and "index" in iterated.attr
        ):
            continue
        if not isinstance(child.target, ast.Name):
            continue
        loop_var = child.target.id
        for inner in ast.walk(child):
            if (
                isinstance(inner, ast.Call)
                and isinstance(inner.func, ast.Attribute)
                and isinstance(inner.func.value, ast.Name)
                and inner.func.value.id == loop_var
                and inner.func.attr in
                ("insert", "remove", "add", "delete")
            ):
                return True
    return False


def _calls_create_table(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Call) and \
                call_name(child) == "create_table":
            return True
    return False


class MutationCompletenessRule(Rule):

    name = "mutation-completeness"
    description = (
        "every metered mutation path must bump the table version "
        "(statistics staleness), maintain indexes physically, and "
        "charge index maintenance"
    )
    needs_index = True

    def check(self, project: Project) -> Iterable[Finding]:
        index = project.index()
        sinks = mutation_sinks(index)
        if not sinks:
            return []
        metered = {
            qualname for qualname, info in index.functions.items()
            if is_metered(info)
        }

        findings: "list[Finding]" = []
        for qualname in sorted(metered):
            info = index.functions[qualname]
            # Innermost entry: a path to the sink not running through
            # another metered function (which would own the obligation).
            path = index.find_path(qualname, sinks,
                                   blocked=metered - {qualname})
            if path is None:
                continue
            findings.extend(self._check_entry(index, info, path))
        return findings

    def _check_entry(self, index: ProjectIndex, info: FunctionInfo,
                     path: "list[str]") -> "list[Finding]":
        reach = index.reachable(info.qualname)
        nodes = [
            index.functions[q].node
            for q in reach if q in index.functions
        ]
        bumps = any(_bumps_version(n) for n in nodes)
        invalidates = any(
            isinstance(child, ast.Call)
            and (call_name(child) or "").startswith("invalidate")
            for n in nodes for child in ast.walk(n)
        )
        physical = any(_maintains_indexes(n) for n in nodes)
        charged = {
            category for n in nodes
            for category in charged_categories(n)
        }
        creates_own = any(_calls_create_table(n) for n in nodes)

        anchor: ast.AST = info.node
        if len(path) > 1:
            sites = index.call_sites_into(info.qualname, path[1])
            if sites:
                anchor = sites[0].node
        rendered = short_path(path)
        out: "list[Finding]" = []
        if not bumps:
            out.append(self.finding(
                info.source, anchor,
                f"mutation path ({rendered}) never bumps a table "
                "version counter, so version-keyed caches and "
                "statistics cannot notice the write",
            ))
        if not bumps and not invalidates:
            out.append(self.finding(
                info.source, anchor,
                f"mutation path ({rendered}) neither bumps a version "
                "counter nor invalidates statistics",
            ))
        if not physical:
            out.append(self.finding(
                info.source, anchor,
                f"mutation path ({rendered}) never applies the write "
                "to attached indexes (no 'for ... in self._indexes' "
                "maintenance loop is reachable)",
            ))
        if "index" not in charged and not creates_own:
            out.append(self.finding(
                info.source, anchor,
                f"mutation path ({rendered}) charges no 'index' "
                "maintenance cost — the PR-8 under-billing bug class",
            ))
        return out


__all__ = ["MutationCompletenessRule"]
