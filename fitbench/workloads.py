"""The three named fit workloads and their seeded inputs.

Every workload grows a tree over rows from one generating tree,
``RandomTreeConfig(n_leaves=60, n_classes=4, seed=3)``, sampled with
the generator's own default row stream.  The data set is therefore
fixed per workload: it decides which layers the workload stresses, and
with another generating tree or sample the same sizes can stop
triggering the behaviour a workload exists for (the §4.1.1 SQL
fallback of ``wide-ingest`` appears on some samples and not on
others).  ``--seed`` shuffles the row order.  That changes the order
the server stores and returns rows, which rows ``wide-ingest`` bulk
loads and which it INSERTs, and the order every scan sees them, but
not the set of rows, so the fitted tree is the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any

from repro.core.config import MiddlewareConfig
from repro.datagen.random_tree import RandomTreeConfig, build_random_tree

#: Name of the workload table on the server.
TABLE = "data"
#: Seed of the generating tree shared by every workload.
TREE_SEED = 3
N_LEAVES = 60
N_CLASSES = 4
KIB = 1024
#: Reduced-size runs (the benchmark's own tests) divide the rows by
#: REDUCTION and the memory budget by MEMORY_REDUCTION: a budget cut as
#: far as the rows sends ``wide-ingest`` to SQL for nearly every node.
REDUCTION = 25
MEMORY_REDUCTION = 5
#: Rows per INSERT statement.
INSERT_BATCH_ROWS = 256


@dataclass(frozen=True)
class Workload:
    name: str
    n_attributes: int
    values_per_attribute: int
    cases_per_leaf: int
    #: Middleware memory budget in simulated bytes.
    memory_bytes: int
    staging: bool
    scan_workers: int
    #: Share of the rows each iteration INSERTs through SQL (0 = none).
    ingest_fraction: float
    why: str
    #: SHA-256 of the in-memory reference tree's signature at full size
    #: (``runner.reference_digest``); the same for every seed.
    reference_digest: str

    def generator_config(self, reduced: bool = False) -> RandomTreeConfig:
        cases = self.cases_per_leaf
        return RandomTreeConfig(
            n_attributes=self.n_attributes,
            values_per_attribute=self.values_per_attribute,
            n_classes=N_CLASSES,
            n_leaves=N_LEAVES,
            cases_per_leaf=max(1, cases // REDUCTION) if reduced else cases,
            seed=TREE_SEED,
        )

    def config(self, staging_dir: str, reduced: bool = False
               ) -> MiddlewareConfig:
        memory = self.memory_bytes
        if reduced:
            memory //= MEMORY_REDUCTION
        overrides: dict[str, Any] = {
            "scan_workers": self.scan_workers,
            "staging_dir": staging_dir,
        }
        if self.staging:
            return MiddlewareConfig(memory_bytes=memory, **overrides)
        return MiddlewareConfig.no_staging(memory, **overrides)


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "staged", 12, 4, 1500, 512 * KIB, True, 1, 0.0,
            "the default path: one SERVER scan, then FILE and MEMORY "
            "scans from staged data; the serial counting loop dominates",
            "2318583b672d24bd8ec7788cbaaf4c81093d1466ba8a7b648231d92fa261e82c",
        ),
        Workload(
            "server-filter", 12, 4, 300, 512 * KIB, False, 1, 0.0,
            "staging off: every level rescans the server with the pushed "
            "OR-of-paths filter; server row production dominates",
            "782c42df03d592200c7ea713afc8cf277c43889053d76b640939b40a5bcf56f4",
        ),
        Workload(
            "wide-ingest", 20, 8, 1200, 64 * KIB, True, 2, 0.1,
            "INSERTs, then a 2-worker columnar fit of the fresh table; the "
            "SQL-counting fallback (paper 4.1.1) dominates",
            "255ec7bdbb2e0a7f43805ff13256ba20c9fce85d2adee91b87fe1e8f081e7bbe",
        ),
    )
}


@dataclass
class Inputs:
    """Everything a run feeds the program, built before any timing."""

    spec: Any
    #: All rows, in the seed's order (the table's final content).
    rows: list[tuple[int, ...]]
    #: Rows bulk-loaded as the base table.
    base_rows: list[tuple[int, ...]]
    #: INSERT statements and the table row count each must leave.
    inserts: list[tuple[str, int]]

    @property
    def inserted_rows(self) -> int:
        return len(self.rows) - len(self.base_rows)


def insert_statements(spec: Any, rows: list[tuple[int, ...]],
                      first_count: int) -> list[tuple[str, int]]:
    """``INSERT ... VALUES`` text for ``rows``, :data:`INSERT_BATCH_ROWS`
    per statement, each paired with the row count it must leave."""
    columns = ", ".join(list(spec.attribute_names) + [spec.class_name])
    statements = []
    count = first_count
    for lo in range(0, len(rows), INSERT_BATCH_ROWS):
        batch = rows[lo:lo + INSERT_BATCH_ROWS]
        values = ", ".join(
            "(" + ", ".join(str(v) for v in row) + ")" for row in batch
        )
        count += len(batch)
        statements.append(
            (f"INSERT INTO {TABLE} ({columns}) VALUES {values}", count)
        )
    return statements


def make_inputs(workload: Workload, seed: int,
                reduced: bool = False) -> Inputs:
    """The workload's rows in the order ``seed`` draws, plus its SQL."""
    tree = build_random_tree(workload.generator_config(reduced))
    rows = tree.materialize()
    random.Random(seed).shuffle(rows)
    n_base = len(rows) - int(len(rows) * workload.ingest_fraction)
    base = rows[:n_base]
    return Inputs(
        spec=tree.spec,
        rows=rows,
        base_rows=base,
        inserts=insert_statements(tree.spec, rows[n_base:], len(base)),
    )
