"""Closed-loop fit driver: one client, one operation at a time.

A run prepares the workload's inputs, sets a server up a few times,
takes the digest of the in-memory reference tree (pinned per workload
at full size, grown afresh at reduced size), then repeats the workload's
iteration until ``seconds`` have passed.  Every iteration sets up a
fresh server (``SQLServer()`` plus a bulk load of the base rows, timed
as one ``setup_s`` sample, so the set-up samples spread over the whole
run), then:

* ``staged`` / ``server-filter``: fits once;
* ``wide-ingest``: INSERTs the remaining rows through
  ``SQLServer.execute``, then fits.

A fit is timed from ``Middleware(...)`` construction through
``fit()`` to ``close()``.  Every end-to-end time is in reference
seconds: set-ups, INSERT statements and untraced fits each run under a
:class:`calibration.Stopwatch`.  Fits and INSERT statements are the
operations; a wrong tree, a changed meter total, a wrong row count or
any exception counts as a failed operation and the run goes on.

With ``trace`` on, iterations alternate between untraced and traced
(spans recorded by :mod:`probes`), so the per-layer numbers and the
tracing overhead come from the same run.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy

from repro.client.baselines import grow_in_memory
from repro.client.decision_tree import DecisionTreeClassifier
from repro.client.growth import GrowthPolicy
from repro.common.cost import CATEGORIES
from repro.core.middleware import Middleware
from repro.datagen.loader import load_dataset
from repro.sqlengine.database import SQLServer

import calibration
import probes
import spans as spanlib
from workloads import TABLE, WORKLOADS, Inputs, Workload, make_inputs

#: Server set-ups before the first iteration; ``setup_s`` is the median
#: of these and of the one each iteration makes.
SETUP_REPEATS = 5


# ---------------------------------------------------------------------------
# metric catalogue (BENCHMARK.json lists the same names)
# ---------------------------------------------------------------------------

END_TO_END = {
    "fit_ref_s": "s",
    "cycle_ref_s": "s",
    "cost_units": "units",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "sqlengine.scan_s": "s",
    "sqlengine.rows_examined": "count",
    "sqlengine.rows_returned": "count",
    "sqlengine.filter_yield": "ratio",
    "sqlengine.query_s": "s",
    "sqlengine.queries": "count",
    "sqlengine.insert_s": "s",
    "sqlengine.parse_s": "s",
    "sqlengine.insert_statements": "count",
    "sqlengine.insert_rows_per_s": "1/s",
    "execution.run_s": "s",
    "execution.self_s": "s",
    "execution.scans.server": "count",
    "execution.scans.file": "count",
    "execution.scans.memory": "count",
    "execution.rows_seen": "count",
    "execution.rows_per_s.server": "1/s",
    "execution.rows_per_s.file": "1/s",
    "execution.rows_per_s.memory": "1/s",
    "execution.deferrals": "count",
    "execution.sql_fallbacks": "count",
    "execution.columnar_scans": "count",
    "execution.encode_s": "s",
    "execution.merge_s": "s",
    "staging.write_s": "s",
    "staging.rows_written": "count",
    "staging.read_s": "s",
    "staging.rows_read": "count",
    "staging.files_written": "count",
    "staging.memory_sets": "count",
    "columnar_cache.hits": "count",
    "columnar_cache.misses": "count",
    "columnar_cache.hit_ratio": "ratio",
    "scan_pool.scans_served": "count",
    "scan_pool.kernels_installed": "count",
    "scan_pool.setup_s": "s",
    "scheduler.plan_s": "s",
    "scheduler.batches": "count",
    "scheduler.nodes_per_batch": "count",
    "client.split_s": "s",
    "client.nodes_partitioned": "count",
    "middleware.batch_ms_p50": "ms",
    "middleware.batch_ms_p90": "ms",
    **{f"cost.{category}": "units" for category in CATEGORIES},
    "trace.overhead_s": "s",
}


# ---------------------------------------------------------------------------
# correctness oracle
# ---------------------------------------------------------------------------


def tree_signature(node: Any) -> tuple[Any, ...]:
    """Order-independent structure of a (sub)tree: splits, edge
    conditions, sizes and leaf labels (node ids depend on the order the
    middleware serves nodes, so they are left out)."""
    if node.is_leaf:
        return ("leaf", node.majority_class, node.n_rows,
                tuple(node.class_counts or ()))
    children = tuple(sorted(
        (child.condition.op, child.condition.value, tree_signature(child))
        for child in node.children
    ))
    return ("split", node.split_attribute, node.split_kind, node.n_rows,
            children)


def signature_digest(signature: tuple[Any, ...]) -> str:
    return hashlib.sha256(repr(signature).encode()).hexdigest()


def reference_digest(inputs: Inputs) -> str:
    """Digest of the tree ``grow_in_memory`` grows on the inputs."""
    tree = grow_in_memory(inputs.rows, inputs.spec, GrowthPolicy())
    return signature_digest(tree_signature(tree.root))


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


@dataclass
class FitSample:
    #: Wall seconds (calibration passes left out) and, for untraced
    #: fits, reference seconds; a cycle adds the INSERT statements.
    fit_s: float
    cycle_s: float
    cost: float
    traced: bool
    fit_id: int
    fit_ref_s: float = 0.0
    cycle_ref_s: float = 0.0
    #: Per-layer numbers read from the program's public counters.
    counters: dict[str, float] = field(default_factory=dict)
    breakdown: dict[str, float] = field(default_factory=dict)
    #: Rows the iteration INSERTed before the fit.
    insert_rows: int = 0
    #: Digest of the fitted tree's signature.
    digest: str = ""


@dataclass
class Run:
    workload: Workload
    seed: int
    seconds: float
    trace: bool
    reduced: bool = False
    inputs: Optional[Inputs] = None
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    samples: list[FitSample] = field(default_factory=list)
    recorder: spanlib.SpanRecorder = field(default_factory=spanlib.SpanRecorder)
    peak_rss_mb: float = 0.0
    iterations: int = 0

    # -- bookkeeping ------------------------------------------------------

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)

    # -- the loop -----------------------------------------------------------

    def execute(self, workdir: str) -> "Run":
        workload = self.workload
        inputs = self.inputs = make_inputs(workload, self.seed, self.reduced)
        for _ in range(SETUP_REPEATS):
            self._set_up(inputs)
        if self.reduced:
            reference = reference_digest(inputs)
        else:
            # The rows are the same set for every seed (see workloads),
            # so neither is the reference tree; the tests recompute it.
            reference = workload.reference_digest
        staging_dir = tempfile.mkdtemp(prefix="staging-", dir=workdir)
        try:
            config = workload.config(staging_dir, self.reduced)
            deadline = time.perf_counter() + self.seconds
            # A traced run needs one untraced and one traced iteration.
            minimum = 2 if self.trace else 1
            while self.iterations < minimum or time.perf_counter() < deadline:
                traced = self.trace and self.iterations % 2 == 1
                self._iteration(inputs, config, reference, traced)
        finally:
            shutil.rmtree(staging_dir, ignore_errors=True)
        self.peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        return self

    def _set_up(self, inputs: Inputs) -> SQLServer:
        # Earlier servers are garbage by now: collect them untimed.
        gc.collect()
        with calibration.Stopwatch() as watch:
            server = SQLServer()
            load_dataset(server, TABLE, inputs.spec, inputs.base_rows)
        self.setup_s.append(watch.reference)
        return server

    def _iteration(self, inputs: Inputs, config: Any, reference: str,
                   traced: bool) -> None:
        server = self._set_up(inputs)
        self.iterations += 1
        self.recorder.fit = fit_id = self.iterations
        probe = (
            probes.installed(self.recorder,
                             lambda: server.table(TABLE).row_count)
            if traced else contextlib.nullcontext()
        )
        with probe:
            insert_s, insert_ref_s = self._insert(server, inputs, traced)
            self.attempted += 1
            try:
                sample = self._fit(server, config, traced, fit_id)
            except Exception:
                self.fail(f"fit {fit_id}: " + traceback.format_exc())
                return
        sample.cycle_s += insert_s
        sample.cycle_ref_s = sample.fit_ref_s + insert_ref_s
        sample.insert_rows = inputs.inserted_rows
        self._check(sample, reference)

    def _insert(self, server: SQLServer, inputs: Inputs,
                traced: bool) -> tuple[float, float]:
        """Run the INSERT statements; returns their total wall and
        reference seconds (0 when traced)."""
        wall = reference = 0.0
        for sql, expected in inputs.inserts:
            self.attempted += 1
            try:
                with calibration.Stopwatch(passes=not traced) as watch:
                    server.execute(sql)
                rows = server.table(TABLE).row_count
            except Exception:
                self.fail("insert: " + traceback.format_exc())
                continue
            wall += watch.wall
            reference += watch.reference
            if rows != expected:
                self.fail(f"insert left {rows} rows, expected {expected}")
        return wall, reference

    def _fit(self, server: SQLServer, config: Any, traced: bool,
             fit_id: int) -> FitSample:
        server.meter.reset()
        classifier = DecisionTreeClassifier(criterion="entropy")
        # Garbage left by earlier iterations is not this fit's cost.
        gc.collect()

        def fit() -> Middleware:
            middleware = Middleware(server, TABLE, self.inputs.spec, config)
            try:
                classifier.fit(middleware)
            finally:
                middleware.close()
            return middleware

        with calibration.Stopwatch(passes=not traced) as watch:
            if traced:
                middleware, _span = self.recorder.call("fit", fit)
            else:
                middleware = fit()
        return FitSample(
            fit_s=watch.wall, cycle_s=watch.wall, cost=server.meter.total,
            traced=traced, fit_id=fit_id, fit_ref_s=watch.reference,
            counters=public_counters(middleware),
            breakdown=dict(server.meter.breakdown()),
            digest=signature_digest(tree_signature(classifier.tree.root)),
        )

    def _check(self, sample: FitSample, reference: str) -> None:
        if sample.digest != reference:
            self.fail(f"fit {sample.fit_id}: tree differs from the "
                      "in-memory reference")
            return
        if self.samples and sample.cost != self.samples[0].cost:
            self.fail(f"fit {sample.fit_id}: cost {sample.cost!r} differs "
                      f"from the run's first fit {self.samples[0].cost!r}")
            return
        self.samples.append(sample)

    # -- results --------------------------------------------------------------

    def fits(self, traced: bool) -> list[FitSample]:
        return [s for s in self.samples if s.traced == traced]

    def end_to_end(self) -> dict[str, float]:
        untraced = self.fits(False)
        return {
            "fit_ref_s": _median([s.fit_ref_s for s in untraced]),
            "cycle_ref_s": _median([s.cycle_ref_s for s in untraced]),
            "cost_units": _median([s.cost for s in untraced]),
            "setup_s": _median(self.setup_s),
            "peak_rss_mb": self.peak_rss_mb,
        }

    def per_layer(self) -> dict[str, float]:
        traced = self.fits(True)
        # Span.parent indexes the whole list, so self times are taken
        # over all spans at once and then split by fit.
        selfs = spanlib.self_times(self.recorder.spans)
        rows: list[dict[str, float]] = [
            layer_metrics(self.recorder.spans, selfs, sample)
            for sample in traced
        ]
        out = {
            name: _median([row[name] for row in rows]) for name in rows[0]
        } if rows else {}
        batches = [
            span.busy * 1e3 for span in self.recorder.spans
            if span.name == "middleware.batch"
        ]
        out["middleware.batch_ms_p50"] = _quantile(batches, 0.5)
        out["middleware.batch_ms_p90"] = _quantile(batches, 0.9)
        out["trace.overhead_s"] = (
            _median([s.fit_s for s in traced])
            - _median([s.fit_s for s in self.fits(False)])
        )
        return out

    def self_time_table(self) -> list[tuple[str, float]]:
        """Mean self seconds per fit of every span name, largest first."""
        n = max(1, len(self.fits(True)))
        totals = spanlib.totals_by_name(
            self.recorder.spans, spanlib.self_times(self.recorder.spans)
        )
        return sorted(((name, total / n) for name, total in totals.items()),
                      key=lambda item: -item[1])

    def result(self) -> dict[str, Any]:
        catalogue = PER_LAYER if self.trace else END_TO_END
        values = self.per_layer() if self.trace else self.end_to_end()
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": values.get(name, 0.0), "unit": unit}
                for name, unit in catalogue.items()
            },
        }

    def provenance(self, root: str) -> dict[str, Any]:
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "full_size": not self.reduced,
            "scan_workers": self.workload.scan_workers,
            "cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit": git_commit(root),
            "fits_untraced": len(self.fits(False)),
            # Wall seconds, for comparison with the reference seconds.
            "fit_wall_s": _median([s.fit_s for s in self.fits(False)]),
            "fits_traced": len(self.fits(True)),
        }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: str, reduced: bool = False) -> Run:
    """Run one workload end to end; see :class:`Run`."""
    run = Run(WORKLOADS[name], seed, seconds, trace, reduced)
    return run.execute(workdir)


# ---------------------------------------------------------------------------
# per-layer arithmetic
# ---------------------------------------------------------------------------


def public_counters(middleware: Middleware) -> dict[str, float]:
    """Per-fit numbers the program already exposes publicly."""
    stats = middleware.stats
    by_mode = {loc.name.lower(): n for loc, n in stats.scans_by_mode.items()}
    cache = middleware.execution.scan_cache
    pool = middleware.scan_pool
    hits = cache.hits if cache is not None else 0
    misses = cache.misses if cache is not None else 0
    return {
        "execution.scans.server": by_mode.get("server", 0),
        "execution.scans.file": by_mode.get("file", 0),
        "execution.scans.memory": by_mode.get("memory", 0),
        "execution.rows_seen": stats.rows_seen,
        "execution.deferrals": stats.deferrals,
        "execution.sql_fallbacks": stats.sql_fallbacks,
        "execution.columnar_scans": stats.columnar_scans,
        "execution.encode_s": stats.encode_seconds,
        "execution.merge_s": stats.merge_seconds,
        "staging.files_written": stats.files_written,
        "staging.memory_sets": stats.memory_sets_loaded,
        "columnar_cache.hits": hits,
        "columnar_cache.misses": misses,
        "columnar_cache.hit_ratio": _ratio(hits, hits + misses),
        "scan_pool.scans_served": pool.scans_served if pool else 0,
        "scan_pool.kernels_installed": pool.kernels_installed if pool else 0,
        "scan_pool.setup_s": stats.pool_setup_seconds,
    }


def layer_metrics(all_spans: list[spanlib.Span], all_selfs: list[float],
                  sample: FitSample) -> dict[str, float]:
    """One traced iteration's per-layer numbers (batch latency aside);
    ``all_selfs`` is ``spans.self_times(all_spans)``."""
    mine = [(s, t) for s, t in zip(all_spans, all_selfs)
            if s.fit == sample.fit_id]
    spans = [s for s, _ in mine]

    def named(name: str) -> list[spanlib.Span]:
        return [s for s in spans if s.name == name]

    def busy(name: str) -> float:
        return sum(s.busy for s in named(name))

    def items(name: str) -> int:
        return sum(s.items for s in named(name))

    scans = named("sqlengine.rows")
    examined = sum(s.args.get("examined", 0) for s in scans)
    out: dict[str, float] = {
        "sqlengine.scan_s": busy("sqlengine.rows"),
        "sqlengine.rows_examined": examined,
        "sqlengine.rows_returned": items("sqlengine.rows"),
        "sqlengine.filter_yield": _ratio(items("sqlengine.rows"), examined),
        "sqlengine.query_s": busy("sqlengine.query"),
        "sqlengine.queries": len(named("sqlengine.query")),
        "sqlengine.insert_s": busy("sqlengine.insert"),
        "sqlengine.parse_s": busy("sqlengine.parse"),
        "sqlengine.insert_statements": len(named("sqlengine.insert")),
        "sqlengine.insert_rows_per_s": _ratio(
            sample.insert_rows, busy("sqlengine.insert")
        ),
        "execution.run_s": busy("execution.run"),
        "execution.self_s": sum(
            t for s, t in mine if s.name == "execution.run"
        ),
        "staging.write_s": busy("staging.write"),
        "staging.rows_written": items("staging.write"),
        "staging.read_s": busy("staging.read"),
        "staging.rows_read": items("staging.read"),
        "scheduler.plan_s": busy("scheduler.plan"),
        "scheduler.batches": len(named("scheduler.plan")),
        "scheduler.nodes_per_batch": _ratio(
            items("scheduler.plan"), len(named("scheduler.plan"))
        ),
        "client.split_s": busy("client.partition_node"),
        "client.nodes_partitioned": len(named("client.partition_node")),
    }
    for tier in ("server", "file", "memory"):
        runs = [s for s in named("execution.run")
                if s.args.get("mode", "").lower() == tier]
        out[f"execution.rows_per_s.{tier}"] = _ratio(
            sum(s.items for s in runs), sum(s.busy for s in runs)
        )
    out.update(sample.counters)
    for category in CATEGORIES:
        out[f"cost.{category}"] = sample.breakdown.get(category, 0.0)
    return out


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def git_commit(root: str) -> str:
    """``git rev-parse HEAD`` in ``root``; "unknown" outside a git work
    tree or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"
