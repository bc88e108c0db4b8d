"""Rule: declared twin paths must charge the same category multiset.

The engine has pairs of code paths that *must* cost the same: a
staged file read row by row vs as int32 blocks for the columnar
counting loop, an index fetch through the planner vs through the
auxiliary strategy.  Runtime meter-equality tests enforce this — but
only for the pairs somebody remembered to test.  The ``#: meter parity with``
declaration (parsed by the same :class:`ContractRegistry` the runtime
sanitizer uses, see :mod:`repro.analysis.runtime.contracts`) makes the
pairing explicit at the definition site, and this rule checks it
structurally on every run::

    #: meter parity with StagedFile.scan
    def scan_blocks(self):
        ...

The declaring function's **literal charge-category multiset**
(nested closures included — a closure's charges run as part of its
enclosing function) must equal the *union* multiset of its targets
(``A + B`` sums the targets' multisets).  The comparison is lexical,
not transitive: it counts the categories each function charges
itself, which is exactly what the runtime meter-equality tests pin
down per row.  Computed (non-literal) categories on either side make
the declaration unverifiable and are reported as such.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional

from ..engine import Project
from ..findings import Finding
from ..project_index import FunctionInfo, ProjectIndex
from ..runtime.contracts import parity_targets
from .base import Rule
from .meter_common import charge_calls, charged_categories, \
    literal_category


def _render(multiset: "Counter[str]") -> str:
    if not multiset:
        return "{}"
    return "{" + ", ".join(sorted(multiset.elements())) + "}"


class MeterParityRule(Rule):

    name = "meter-parity"
    description = (
        "functions declaring '#: meter parity with <qualname>' must "
        "charge the same category multiset as their targets"
    )
    needs_index = True

    def check(self, project: Project) -> Iterable[Finding]:
        index = project.index()
        findings: "list[Finding]" = []
        for qualname in sorted(index.functions):
            info = index.functions[qualname]
            targets = self._declaration(info)
            if targets is None:
                continue
            findings.extend(self._check_one(index, info, targets))
        return findings

    @staticmethod
    def _declaration(info: FunctionInfo) -> "Optional[tuple[str, ...]]":
        first_line = (
            info.node.decorator_list[0].lineno
            if info.node.decorator_list else info.node.lineno
        )
        return parity_targets(info.source.comment_above(first_line))

    def _check_one(self, index: ProjectIndex, info: FunctionInfo,
                   targets: "tuple[str, ...]") -> "list[Finding]":
        out: "list[Finding]" = []
        own, own_opaque = self._multiset(info)
        if own_opaque:
            out.append(self.finding(
                info.source, info.node,
                "meter parity cannot be verified: this function "
                "charges a computed (non-literal) category",
            ))
            return out

        expected: "Counter[str]" = Counter()
        unverifiable = False
        for target in targets:
            matches = [
                q for q in index.functions
                if q == target or q.endswith("." + target)
            ]
            if not matches:
                out.append(self.finding(
                    info.source, info.node,
                    f"meter parity target '{target}' does not resolve "
                    "to any function in the scanned project",
                ))
                unverifiable = True
                continue
            if len(matches) > 1:
                shown = ", ".join(sorted(matches)[:3])
                out.append(self.finding(
                    info.source, info.node,
                    f"meter parity target '{target}' is ambiguous "
                    f"({shown}); qualify it further",
                ))
                unverifiable = True
                continue
            resolved = index.functions[matches[0]]
            target_set, target_opaque = self._multiset(resolved)
            if target_opaque:
                out.append(self.finding(
                    info.source, info.node,
                    f"meter parity target '{target}' charges a "
                    "computed (non-literal) category; cannot verify",
                ))
                unverifiable = True
                continue
            expected.update(target_set)

        if not unverifiable and own != expected:
            out.append(self.finding(
                info.source, info.node,
                f"meter parity violated: this function charges "
                f"{_render(own)} but '{' + '.join(targets)}' charges "
                f"{_render(expected)}",
            ))
        return out

    @staticmethod
    def _multiset(info: FunctionInfo) -> "tuple[Counter[str], bool]":
        """The literal charge multiset, plus an any-opaque flag."""
        opaque = any(
            literal_category(call) is None
            for call in charge_calls(info.node)
        )
        return Counter(charged_categories(info.node)), opaque


__all__ = ["MeterParityRule"]
