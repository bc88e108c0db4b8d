"""Unit tests for the parallel partitioned scan executor.

The pooled counting loop (`ExecutionModule._count_partitioned` with
more than one worker) must be a pure wall-clock optimisation: for any
worker count and pool kind it has to produce the same CC tables, the
same staged files (bit-identical), the same memory captures, the same
overflow recoveries, the same meter charges and the same fitted trees
as the same loop counted inline at one worker.  These
tests force the parallel path onto tiny data sets with
``scan_parallel_min_rows=0`` and small partitions so several workers
genuinely share each scan.
"""

import os
import time

import pytest

from repro.client.baselines import build_cc_from_rows
from repro.client.decision_tree import DecisionTreeClassifier
from repro.common.cost import CostMeter, CostModel
from repro.common.errors import MiddlewareError, StagingError
from repro.common.memory import MemoryBudget
from repro.core.config import MiddlewareConfig
from repro.core.filters import PathCondition
from repro.core.middleware import Middleware
from repro.core.requests import CountsRequest
from repro.core.staging import (
    ParallelStagingWriter,
    PipelinedStagingWriter,
    StagingManager,
)
from repro.datagen.dataset import DatasetSpec
from repro.datagen.loader import load_dataset
from repro.datagen.random_tree import RandomTreeConfig, build_random_tree
from repro.sqlengine.database import SQLServer

from ..conftest import tree_signature

SPEC = DatasetSpec([3, 3], 3)

#: Overrides that force the parallel path onto the 27-row data set:
#: no minimum-size gate, and partitions of at most 4 rows so every
#: worker count under test actually splits the scan.
PARALLEL = {"scan_parallel_min_rows": 0, "scan_chunk_rows": 4}


def dataset_rows():
    rows = []
    label = 0
    for a1 in range(3):
        for a2 in range(3):
            for _ in range(a1 + a2 + 1):
                rows.append((a1, a2, label % 3))
                label += 1
    return rows


def make_server(rows):
    server = SQLServer()
    load_dataset(server, "data", SPEC, rows)
    return server


def root_request(rows):
    return CountsRequest(
        node_id="root",
        lineage=("root",),
        conditions=(),
        attributes=("A1", "A2"),
        n_rows=len(rows),
        est_cc_pairs=6,
    )


def child_request(node_id, value, rows, est_cc_pairs=3):
    subset = [r for r in rows if r[0] == value]
    return CountsRequest(
        node_id=node_id,
        lineage=("root", node_id),
        conditions=(PathCondition("A1", "=", value),),
        attributes=("A2",),
        n_rows=len(subset),
        est_cc_pairs=est_cc_pairs,
    )


def frontier_results(**config_overrides):
    rows = dataset_rows()
    server = make_server(rows)
    config_overrides.setdefault("memory_bytes", 100_000)
    with Middleware(
        server, "data", SPEC, MiddlewareConfig(**config_overrides)
    ) as mw:
        for value in range(3):
            mw.queue_request(child_request(f"n{value}", value, rows))
        results = {}
        while mw.pending:
            for result in mw.process_next_batch():
                results[result.node_id] = result
        return results, mw.trace, server.meter.total


class TestParallelEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_frontier_counts_identical_to_serial(self, workers):
        parallel, _, _ = frontier_results(scan_workers=workers, **PARALLEL)
        rows = dataset_rows()
        for value in range(3):
            subset = [r for r in rows if r[0] == value]
            reference = build_cc_from_rows(subset, SPEC, ("A2",))
            assert parallel[f"n{value}"].cc == reference
            assert not parallel[f"n{value}"].used_sql_fallback

    def test_process_pool_counts_identical(self):
        results, _, _ = frontier_results(
            scan_workers=2, scan_pool="process", **PARALLEL
        )
        rows = dataset_rows()
        for value in range(3):
            subset = [r for r in rows if r[0] == value]
            assert results[f"n{value}"].cc == build_cc_from_rows(
                subset, SPEC, ("A2",)
            )

    def test_meter_charges_identical_to_serial(self):
        # Simulated costs accrue on the coordinator thread, so the
        # scheduler sees identical economics at any worker count.
        _, _, serial_cost = frontier_results(scan_workers=1, **PARALLEL)
        _, _, parallel_cost = frontier_results(scan_workers=4, **PARALLEL)
        assert parallel_cost == pytest.approx(serial_cost)

    def _staged_root_bytes(self, workers):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100_000,
            memory_staging=False,
            scan_workers=workers,
            **PARALLEL,
        )
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()
            staged = mw.staging.file_for("root")
            assert list(staged.scan()) == rows
            with open(staged.path, "rb") as handle:
                return handle.read()

    def test_staged_file_bit_identical_to_serial(self):
        serial = self._staged_root_bytes(1)
        for workers in (2, 4):
            assert self._staged_root_bytes(workers) == serial

    @pytest.mark.parametrize("workers", [2, 4])
    def test_memory_capture_identical_to_serial(self, workers):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100_000,
            file_staging=False,
            scan_workers=workers,
            **PARALLEL,
        )
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()
            assert mw.staging.memory_rows("root") == rows

    def test_full_fit_grows_identical_tree(self):
        generating = build_random_tree(
            RandomTreeConfig(
                n_attributes=6,
                values_per_attribute=3,
                n_classes=3,
                n_leaves=8,
                cases_per_leaf=12,
                seed=17,
            )
        )
        trees = {}
        for workers in (1, 4):
            server = SQLServer()
            load_dataset(
                server, "data", generating.spec, generating.materialize()
            )
            config = MiddlewareConfig(
                memory_bytes=50_000, scan_workers=workers, **PARALLEL
            )
            with Middleware(server, "data", generating.spec, config) as mw:
                classifier = DecisionTreeClassifier()
                classifier.fit(mw)
                trees[workers] = classifier.tree
        assert tree_signature(trees[1].root) == tree_signature(
            trees[4].root
        )


class TestParallelOverflow:
    """§4.1.1 recovery must not depend on the worker count."""

    def overflow_results(self, workers):
        rows = dataset_rows()
        server = make_server(rows)
        # Underestimates (1 pair each) admit all three nodes at once,
        # but the budget cannot hold their real CC tables.
        config = MiddlewareConfig(
            memory_bytes=100,
            file_staging=False,
            memory_staging=False,
            scan_workers=workers,
            **PARALLEL,
        )
        with Middleware(server, "data", SPEC, config) as mw:
            for value in range(3):
                mw.queue_request(
                    child_request(f"n{value}", value, rows, est_cc_pairs=1)
                )
            outcomes = []
            results = {}
            while mw.pending:
                for result in mw.process_next_batch():
                    results[result.node_id] = result
                scan = mw.execution.last_scan
                outcomes.append(
                    (scan.deferrals, scan.sql_fallbacks, scan.nodes_served)
                )
            stats = (mw.stats.deferrals, mw.stats.sql_fallbacks,
                     mw.stats.batches)
        return results, outcomes, stats

    def test_recovery_deterministic_across_worker_counts(self):
        # Per-scan recovery decisions depend only on the merged sizes,
        # so every worker count — inline at one worker included —
        # takes the identical path.
        reference_results, reference_outcomes, reference_stats = \
            self.overflow_results(2)
        assert reference_outcomes[0][0] >= 1  # the scenario overflows
        rows = dataset_rows()
        references = {
            f"n{value}": build_cc_from_rows(
                [r for r in rows if r[0] == value], SPEC, ("A2",)
            )
            for value in range(3)
        }
        for workers in (1, 4, 8):
            results, outcomes, stats = self.overflow_results(workers)
            assert outcomes == reference_outcomes
            assert stats == reference_stats
            for node_id, reference in references.items():
                assert results[node_id].cc == reference
        for node_id, reference in references.items():
            assert reference_results[node_id].cc == reference

    @pytest.mark.parametrize("workers", [2, 4])
    def test_solo_overflow_falls_back_to_sql(self, workers):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=8,
            file_staging=False,
            memory_staging=False,
            scan_workers=workers,
            **PARALLEL,
        )
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            (result,) = mw.process_next_batch()
            assert mw.stats.deferrals == 0
        assert result.used_sql_fallback
        assert result.cc == build_cc_from_rows(rows, SPEC, ("A1", "A2"))


class TestMeterInvariance:
    """A fit's metered cost depends on neither worker count nor pool kind.

    §4.1.1 admission runs on the merged CC sizes on every counting
    path, so a fit whose budget forces deferrals takes the same
    recoveries, and charges the same meter, inline at one worker as on
    a two-worker thread or process pool.  The 3,300-row table is above
    the default ``scan_parallel_min_rows``, so the two-worker fit's
    large scans really run pooled.
    """

    def fit(self, workers, pool="thread"):
        generating = build_random_tree(
            RandomTreeConfig(n_attributes=8, values_per_attribute=4,
                             n_classes=3, n_leaves=20, cases_per_leaf=150,
                             seed=5)
        )
        rows = generating.materialize()
        assert len(rows) > MiddlewareConfig().scan_parallel_min_rows
        server = SQLServer()
        load_dataset(server, "data", generating.spec, rows)
        config = MiddlewareConfig(memory_bytes=8_000, scan_workers=workers,
                                  scan_pool=pool)
        with Middleware(server, "data", generating.spec, config) as mw:
            classifier = DecisionTreeClassifier()
            classifier.fit(mw)
            pooled_deferrals = sum(
                record.deferrals for record in mw.trace
                if record.workers > 1
            )
            return {
                "tree": tree_signature(classifier.tree.root),
                "total": server.meter.total,
                "breakdown": server.meter.breakdown(),
                "deferrals": mw.stats.deferrals,
                "pooled_deferrals": pooled_deferrals,
            }

    @pytest.mark.parametrize("pool", ["thread", "process"])
    def test_cost_identical_inline_and_pooled_under_deferral(self, pool):
        inline = self.fit(1)
        pooled = self.fit(2, pool)
        assert inline["deferrals"] > 0
        assert pooled["pooled_deferrals"] > 0  # deferred on a pooled scan
        assert inline["tree"] == pooled["tree"]
        assert inline["total"] == pooled["total"]
        assert inline["breakdown"] == pooled["breakdown"]
        assert inline["deferrals"] == pooled["deferrals"]


def _server_levels(workers, **overrides):
    """Root, then each child alone: every scan re-reads the server table."""
    rows = dataset_rows()
    server = make_server(rows)
    config = MiddlewareConfig(
        memory_bytes=100_000, file_staging=False, memory_staging=False,
        scan_workers=workers, **PARALLEL, **overrides,
    )
    results = {}
    with Middleware(server, "data", SPEC, config) as mw:
        mw.queue_request(root_request(rows))
        mw.process_next_batch()
        for value in range(3):
            mw.queue_request(child_request(f"n{value}", value, rows))
            for result in mw.process_next_batch():
                results[result.node_id] = result.cc
        assert all(record.workers == workers for record in mw.trace)
        paths = [record.access_path for record in mw.trace]
    return results, server.meter.breakdown(), paths


def _staged_levels(tmp_path, workers, **overrides):
    """Root from the server, then each child from the root's staged
    file, split-staging one file per child: pooled FILE scans with
    staging output, the strongest byte-identity case."""
    rows = dataset_rows()
    server = make_server(rows)
    config = MiddlewareConfig(
        memory_bytes=100_000, memory_staging=False,
        staging_dir=str(tmp_path), scan_workers=workers, **PARALLEL,
        **overrides,
    )
    results = {}
    staged_bytes = {}
    with Middleware(server, "data", SPEC, config) as mw:
        mw.queue_request(root_request(rows))
        mw.process_next_batch()
        for value in range(3):
            mw.queue_request(child_request(f"n{value}", value, rows))
            for result in mw.process_next_batch():
                results[result.node_id] = result.cc
            staged = mw.staging.file_for(f"n{value}")
            with open(staged.path, "rb") as handle:
                staged_bytes[f"n{value}"] = handle.read()
        modes = [record.mode for record in mw.trace]
        assert modes == ["SERVER", "FILE", "FILE", "FILE"]
        assert all(record.workers == workers for record in mw.trace)
    return results, staged_bytes, server.meter.breakdown()


class TestPooledRescans:
    """Scans that re-read one source level after level, pooled.

    Each pooled scan reads and encodes its source afresh, so it must
    count exactly what the same scan counts inline — for the §4.3.3
    auxiliary strategies, after a write between scans, and over staged
    files on either pool kind — and charge the same meter.
    """

    @pytest.mark.parametrize("strategy",
                             ["temp_table", "tid_join", "keyset"])
    def test_aux_strategy_pooled_equals_inline(self, strategy):
        options = {"aux_strategy": strategy, "aux_build_threshold": 0.5}
        pooled, pooled_cost, paths = _server_levels(2, **options)
        inline, inline_cost, _ = _server_levels(1, **options)
        assert paths[0] == "seq" and set(paths[1:]) == {strategy}
        rows = dataset_rows()
        for value in range(3):
            subset = [r for r in rows if r[0] == value]
            assert pooled[f"n{value}"] == build_cc_from_rows(
                subset, SPEC, ("A2",)
            )
        assert pooled == inline
        assert pooled_cost == pytest.approx(inline_cost)

    def test_insert_between_pooled_scans_is_counted(self):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100_000, file_staging=False,
            memory_staging=False, scan_workers=2, **PARALLEL,
        )
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()
            mw.queue_request(child_request("n2", 2, rows))
            (before,) = mw.process_next_batch()
            assert mw.execution.last_scan.workers == 2
            server.table("data").insert((2, 2, 1))
            grown = rows + [(2, 2, 1)]
            mw.queue_request(child_request("n2", 2, grown))
            (after,) = mw.process_next_batch()
            assert mw.execution.last_scan.workers == 2
        subset = [r for r in grown if r[0] == 2]
        assert after.cc == build_cc_from_rows(subset, SPEC, ("A2",))
        assert after.cc.records == before.cc.records + 1

    @pytest.mark.parametrize("pool", ["thread", "process"])
    def test_staged_pooled_fit_equals_inline(self, pool, tmp_path):
        results, staged, cost = _staged_levels(
            tmp_path / pool, 2, scan_pool=pool
        )
        reference, ref_staged, ref_cost = _staged_levels(
            tmp_path / "inline", 1
        )
        rows = dataset_rows()
        for value in range(3):
            subset = [r for r in rows if r[0] == value]
            assert results[f"n{value}"] == build_cc_from_rows(
                subset, SPEC, ("A2",)
            )
        assert results == reference
        assert staged == ref_staged
        assert cost == pytest.approx(ref_cost)


class TestParallelProfiling:
    def test_trace_records_worker_profile(self):
        _, trace, _ = frontier_results(scan_workers=2, **PARALLEL)
        record = trace[0]
        assert record.kernel
        assert record.workers == 2
        assert record.merge_seconds >= 0.0
        assert "x2w" in str(record)

    def test_stats_count_parallel_scans(self):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100_000, scan_workers=2, **PARALLEL
        )
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()
            scan = mw.execution.last_scan
            assert scan.workers == 2
            assert len(scan.worker_seconds) >= 2  # several partitions ran
            assert mw.stats.parallel_scans == 1
            report = mw.report()
        assert "parallel" in report
        assert "2 workers" in report

    def test_small_scans_stay_serial(self):
        # 27 rows is far below the default scan_parallel_min_rows gate.
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(memory_bytes=100_000, scan_workers=4)
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()
            assert mw.execution.last_scan.workers == 1
            assert mw.stats.parallel_scans == 0

    def test_per_row_loop_never_parallelizes(self):
        results, trace, _ = frontier_results(
            scan_workers=4, scan_kernel=False, **PARALLEL
        )
        assert trace[0].workers == 1
        assert not trace[0].kernel
        rows = dataset_rows()
        subset = [r for r in rows if r[0] == 0]
        assert results["n0"].cc == build_cc_from_rows(subset, SPEC, ("A2",))


class TestParallelConfig:
    def test_zero_workers_rejected(self):
        with pytest.raises(MiddlewareError):
            MiddlewareConfig(scan_workers=0)

    def test_unknown_pool_rejected(self):
        with pytest.raises(MiddlewareError):
            MiddlewareConfig(scan_pool="fiber")

    def test_negative_min_rows_rejected(self):
        with pytest.raises(MiddlewareError):
            MiddlewareConfig(scan_parallel_min_rows=-1)

    def test_env_var_sets_default_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCAN_WORKERS", "3")
        assert MiddlewareConfig().scan_workers == 3
        # An explicit value still wins over the environment.
        assert MiddlewareConfig(scan_workers=2).scan_workers == 2

    def test_env_var_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCAN_WORKERS", "many")
        with pytest.raises(MiddlewareError):
            MiddlewareConfig()


class _ExplodingWriter:
    """A staging-file stand-in whose writes always fail."""

    def append_rows(self, rows):
        raise StagingError("disk full")


class TestPipelinedStagingWriter:
    @pytest.fixture
    def staged(self, tmp_path):
        manager = StagingManager(
            SPEC, CostMeter(), CostModel(), MemoryBudget(10_000),
            staging_dir=str(tmp_path),
        )
        yield manager.open_file("n1")
        manager.close()

    def test_partitions_written_in_submission_order(self, staged):
        capture = {"m1": []}
        writer = PipelinedStagingWriter({"n1": staged}, capture)
        writer.put({"n1": [(0, 0, 0), (1, 1, 1)]}, {"m1": [(0, 0, 0)]})
        writer.put({"n1": [(2, 2, 2)]}, {"m1": [(2, 2, 2)]})
        writer.put({}, {})  # empty partitions are skipped, not queued
        writer.close()
        staged.seal()
        assert list(staged.scan()) == [(0, 0, 0), (1, 1, 1), (2, 2, 2)]
        assert capture["m1"] == [(0, 0, 0), (2, 2, 2)]

    def test_close_surfaces_writer_error(self):
        writer = PipelinedStagingWriter({"n1": _ExplodingWriter()}, {})
        writer.put({"n1": [(0, 0, 0)]}, {})
        with pytest.raises(StagingError, match="disk full"):
            writer.close()

    def test_put_surfaces_earlier_error(self):
        writer = PipelinedStagingWriter({"n1": _ExplodingWriter()}, {})
        writer.put({"n1": [(0, 0, 0)]}, {})
        deadline = time.monotonic() + 5.0
        while writer._error is None and time.monotonic() < deadline:
            time.sleep(0.001)
        with pytest.raises(StagingError, match="disk full"):
            writer.put({"n1": [(1, 1, 1)]}, {})
        writer.abort()  # abort never raises

    def test_put_after_close_rejected(self, staged):
        writer = PipelinedStagingWriter({"n1": staged}, {})
        writer.close()
        with pytest.raises(StagingError):
            writer.put({"n1": [(0, 0, 0)]}, {})


class TestParallelStagingWriter:
    """Per-file writer threads must keep the pipelined semantics."""

    @pytest.fixture
    def manager(self, tmp_path):
        manager = StagingManager(
            SPEC, CostMeter(), CostModel(), MemoryBudget(10_000),
            staging_dir=str(tmp_path),
        )
        yield manager
        manager.close()

    def test_one_writer_thread_per_file(self, manager):
        files = {f"n{i}": manager.open_file(f"n{i}") for i in range(3)}
        writer = ParallelStagingWriter(files, {})
        assert writer.n_writers == 3
        writer.close()

    def test_per_file_order_preserved_across_files(self, manager):
        files = {f"n{i}": manager.open_file(f"n{i}") for i in range(2)}
        capture = {"m1": []}
        writer = ParallelStagingWriter(files, capture)
        writer.put({"n0": [(0, 0, 0)], "n1": [(1, 1, 1)]},
                   {"m1": [(0, 0, 0)]})
        writer.put({"n0": [(2, 2, 2)]}, {})
        writer.put({}, {})  # empty partitions are skipped, not queued
        writer.put({"n0": [(0, 1, 2)], "n1": [(2, 1, 0)]},
                   {"m1": [(2, 1, 0)]})
        writer.close()
        for staged in files.values():
            staged.seal()
        assert list(files["n0"].scan()) == [
            (0, 0, 0), (2, 2, 2), (0, 1, 2)
        ]
        assert list(files["n1"].scan()) == [(1, 1, 1), (2, 1, 0)]
        assert capture["m1"] == [(0, 0, 0), (2, 1, 0)]

    def test_close_surfaces_writer_error(self, manager):
        writer = ParallelStagingWriter(
            {"ok": manager.open_file("ok"), "bad": _ExplodingWriter()}, {}
        )
        writer.put({"ok": [(0, 0, 0)], "bad": [(1, 1, 1)]}, {})
        with pytest.raises(StagingError, match="disk full"):
            writer.close()

    def test_put_surfaces_earlier_error(self):
        writer = ParallelStagingWriter({"bad": _ExplodingWriter()}, {})
        writer.put({"bad": [(0, 0, 0)]}, {})
        deadline = time.monotonic() + 5.0
        while writer._error is None and time.monotonic() < deadline:
            time.sleep(0.001)
        with pytest.raises(StagingError, match="disk full"):
            writer.put({"bad": [(1, 1, 1)]}, {})
        writer.abort()  # abort never raises

    def test_put_after_close_rejected(self, manager):
        writer = ParallelStagingWriter({"n1": manager.open_file("n1")}, {})
        writer.close()
        with pytest.raises(StagingError):
            writer.put({"n1": [(0, 0, 0)]}, {})

    def test_abort_after_close_is_idempotent(self, manager):
        writer = ParallelStagingWriter({"n1": manager.open_file("n1")}, {})
        writer.close()
        writer.abort()
        writer.abort()


class TestPrefetch:
    """SERVER-cursor prefetch must change only where time is spent."""

    @pytest.mark.parametrize("depth", [0, 1, 3])
    def test_counts_and_costs_identical_at_any_depth(self, depth):
        results, trace, cost = frontier_results(
            scan_workers=2, scan_prefetch_partitions=depth, **PARALLEL
        )
        reference, _, reference_cost = frontier_results(
            scan_workers=1, scan_prefetch_partitions=0, **PARALLEL
        )
        rows = dataset_rows()
        for value in range(3):
            subset = [r for r in rows if r[0] == value]
            assert results[f"n{value}"].cc == build_cc_from_rows(
                subset, SPEC, ("A2",)
            )
        # Exactly one thread consumes the cursor, so meter charges are
        # identical whether or not the producer thread pulled ahead.
        assert cost == pytest.approx(reference_cost)
        assert trace[0].prefetch_depth == depth

    def test_prefetch_only_applies_to_server_scans(self):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100_000,
            file_staging=False,
            scan_workers=2,
            scan_prefetch_partitions=3,
            **PARALLEL,
        )
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()  # SERVER scan, stages root to memory
            assert mw.execution.last_scan.prefetch_depth == 3
            for value in range(3):
                mw.queue_request(child_request(f"n{value}", value, rows))
            while mw.pending:
                mw.process_next_batch()
                assert mw.execution.last_scan.prefetch_depth == 0

    def test_negative_prefetch_rejected(self):
        with pytest.raises(MiddlewareError):
            MiddlewareConfig(scan_prefetch_partitions=-1)


class TestSplitWriters:
    """§4.3.2 split scans with one writer per output file."""

    def _split_children(self, workers, **overrides):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100_000,
            memory_staging=False,
            file_split_threshold=1.0,
            scan_workers=workers,
            **PARALLEL,
            **overrides,
        )
        split_writer_counts = []
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()  # SERVER scan stages the root file
            for value in range(3):
                mw.queue_request(child_request(f"n{value}", value, rows))
            while mw.pending:
                mw.process_next_batch()
                split_writer_counts.append(
                    mw.execution.last_scan.split_writers
                )
            payload = {}
            for value in range(3):
                staged = mw.staging.file_for(f"n{value}")
                with open(staged.path, "rb") as handle:
                    payload[f"n{value}"] = handle.read()
        return payload, split_writer_counts

    def test_split_files_bit_identical_across_workers(self):
        serial, serial_writers = self._split_children(1)
        assert all(count == 0 for count in serial_writers)  # serial path
        for workers in (2, 4):
            parallel, writer_counts = self._split_children(workers)
            assert parallel == serial
            assert max(writer_counts) == 3  # one thread per output file

    def test_split_writers_can_be_disabled(self):
        payload, writer_counts = self._split_children(
            2, scan_split_writers=False
        )
        reference, _ = self._split_children(1)
        assert payload == reference
        assert all(count == 0 for count in writer_counts)


class TestAbsorbAccounting:
    """`ExecutionStats.absorb` must count each scan's profile once."""

    def _overflow_session(self, workers):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100,
            file_staging=False,
            memory_staging=False,
            scan_workers=workers,
            **PARALLEL,
        )
        mw = Middleware(server, "data", SPEC, config)
        for value in range(3):
            mw.queue_request(
                child_request(f"n{value}", value, rows, est_cc_pairs=1)
            )
        return mw

    def test_retried_scan_profiles_absorbed_exactly_once(self):
        with self._overflow_session(2) as mw:
            per_scan = []
            while mw.pending:
                mw.process_next_batch()
                scan = mw.execution.last_scan
                per_scan.append(
                    (scan.merge_seconds, tuple(scan.worker_seconds),
                     scan.pool_setup_seconds)
                )
            assert mw.stats.deferrals >= 1  # an abandonment retried
            assert len(per_scan) >= 2
            # Each retry built a fresh ScanStats: the per-scan worker
            # profiles are independent lists, never one accumulator.
            assert mw.stats.merge_seconds == pytest.approx(
                sum(merge for merge, _, _ in per_scan)
            )
            assert mw.stats.worker_seconds_total == pytest.approx(
                sum(sum(seconds) for _, seconds, _ in per_scan)
            )
            assert mw.stats.pool_setup_seconds == pytest.approx(
                sum(setup for _, _, setup in per_scan)
            )
            # The trace mirrors the same per-attempt numbers.
            assert mw.stats.merge_seconds == pytest.approx(
                sum(record.merge_seconds for record in mw.trace)
            )

    def test_trace_merge_matches_stats_on_clean_runs(self):
        _, trace, _ = frontier_results(scan_workers=4, **PARALLEL)
        assert sum(r.merge_seconds for r in trace) >= 0.0
        assert all(r.pool_setup_seconds >= 0.0 for r in trace)
