"""Failure injection: the middleware cleans up when scans die mid-way.

The row-source, staging-write and interrupt cases run twice: counted
inline at one worker (:class:`TestScanFailureCleanup`) and fanned out
to a two-worker pool (:class:`TestScanFailureCleanupPooled`).  Either
way a failed scan must leave no staged file, memory reservation, CC
reservation or live helper resource behind.
"""

import pytest

from repro.client.decision_tree import DecisionTreeClassifier
from repro.common.errors import MiddlewareError, StagingError
from repro.common.locks import LockMonitor, install_monitor
from repro.core.config import MiddlewareConfig
from repro.core.filters import PathCondition
from repro.core.middleware import Middleware
from repro.core.requests import CountsRequest
from repro.core.staging import StagedFile
from repro.core.vector_kernel import MAX_SLOTS
from repro.datagen.dataset import DatasetSpec
from repro.datagen.loader import load_dataset
from repro.datagen.random_tree import RandomTreeConfig, build_random_tree
from repro.sqlengine.database import SQLServer

SPEC = DatasetSpec([3, 3], 2)
ROWS = [(a, b, (a + b) % 2) for a in range(3) for b in range(3)
        for _ in range(4)]


def make_middleware(**overrides):
    server = SQLServer()
    load_dataset(server, "data", SPEC, ROWS)
    overrides.setdefault("memory_bytes", 50_000)
    return Middleware(server, "data", SPEC, MiddlewareConfig(**overrides))


def root_request(n_rows=len(ROWS)):
    return CountsRequest(
        node_id="root",
        lineage=("root",),
        conditions=(),
        attributes=("A1", "A2"),
        n_rows=n_rows,
        est_cc_pairs=6,
    )


class _ExplodingIterator:
    """Row iterator that raises ``error`` after a few rows."""

    def __init__(self, rows, blow_after, error):
        self._rows = iter(rows)
        self._remaining = blow_after
        self._error = error

    def __iter__(self):
        return self

    def __next__(self):
        if self._remaining == 0:
            raise self._error
        self._remaining -= 1
        return next(self._rows)


class _RecordingMonitor(LockMonitor):
    """Counts tracked resources created and still alive, by kind."""

    def __init__(self):
        self.created = {}
        self._live = {}

    def resource_created(self, kind, obj, detail=""):
        self.created[kind] = self.created.get(kind, 0) + 1
        # Holding the object keeps its id from being reused.
        self._live[id(obj)] = (kind, obj)

    def resource_closed(self, kind, obj):
        self._live.pop(id(obj), None)

    def live_kinds(self):
        return sorted({kind for kind, _ in self._live.values()})


@pytest.fixture
def monitor():
    recording = _RecordingMonitor()
    previous = install_monitor(recording)
    yield recording
    install_monitor(previous)


class TestScanFailureCleanup:
    """Failures mid-scan, counted inline at one worker.

    One-row chunks make 8-row inline partitions, so a failure at row
    20 lands mid-way through the third partition, after two have been
    counted and staged.
    """

    CONFIG = {"scan_workers": 1, "scan_chunk_rows": 1}
    BLOW_AFTER = 20

    def make(self, **overrides):
        return make_middleware(**self.CONFIG, **overrides)

    def _explode(self, middleware, blow_after=None, error=None):
        """Patch the execution module's row source to fail mid-scan."""
        original = middleware.execution._rows_for
        blow_after = self.BLOW_AFTER if blow_after is None else blow_after
        error = error if error is not None else RuntimeError("disk on fire")

        def failing(schedule, scan):
            return _ExplodingIterator(
                original(schedule, scan), blow_after, error
            )

        middleware.execution._rows_for = failing

    def test_cc_reservations_released_on_failure(self):
        with self.make() as mw:
            self._explode(mw)
            mw.queue_request(root_request())
            with pytest.raises(RuntimeError, match="disk on fire"):
                mw.process_next_batch()
            assert mw.budget.used == 0

    def test_partial_staging_files_removed_on_failure(self):
        with self.make(memory_staging=False) as mw:
            self._explode(mw)
            mw.queue_request(root_request())
            with pytest.raises(RuntimeError):
                mw.process_next_batch()
            assert mw.staging.file_nodes() == []

    def test_memory_reservations_cancelled_on_failure(self):
        with self.make(file_staging=False) as mw:
            self._explode(mw)
            mw.queue_request(root_request())
            with pytest.raises(RuntimeError):
                mw.process_next_batch()
            assert mw.staging.memory_nodes() == []
            assert mw.budget.used == 0

    def test_middleware_still_usable_after_failure(self):
        with self.make() as mw:
            self._explode(mw)
            mw.queue_request(root_request())
            with pytest.raises(RuntimeError):
                mw.process_next_batch()
            # Restore a healthy row source and retry from scratch.
            mw.execution._rows_for = type(mw.execution)._rows_for.__get__(
                mw.execution
            )
            mw.queue_request(root_request())
            (result,) = mw.process_next_batch()
            assert result.cc.records == len(ROWS)

    def assert_nothing_left(self, mw, staging_dir, monitor):
        assert mw.staging.file_nodes() == []
        assert list(staging_dir.iterdir()) == []
        assert mw.staging.memory_nodes() == []
        assert mw.budget.used == 0
        # No staged file, writer thread, prefetch thread or future
        # outlives the failed scan.
        assert monitor.live_kinds() in ([], ["executor"])

    @pytest.mark.parametrize("staging", ["file", "memory"])
    def test_scan_raising_mid_partition_leaves_nothing(
            self, staging, tmp_path, monitor):
        with self.make(staging_dir=str(tmp_path),
                       file_staging=staging == "file",
                       memory_staging=staging == "memory") as mw:
            self._explode(mw)
            mw.queue_request(root_request())
            with pytest.raises(RuntimeError, match="disk on fire"):
                mw.process_next_batch()
            assert mw.execution.stats.batches == 0
            self.assert_nothing_left(mw, tmp_path, monitor)

    def test_staging_write_failure_leaves_nothing(
            self, tmp_path, monitor, monkeypatch):
        original = StagedFile.append_rows
        calls = {"n": 0}

        def failing_append(staged, rows):
            calls["n"] += 1
            if calls["n"] > 1:
                raise OSError("staging disk full")
            original(staged, rows)

        monkeypatch.setattr(StagedFile, "append_rows", failing_append)
        with self.make(staging_dir=str(tmp_path),
                       memory_staging=False) as mw:
            mw.queue_request(root_request())
            with pytest.raises(OSError, match="staging disk full"):
                mw.process_next_batch()
            assert calls["n"] > 1  # a write after the first one failed
            self.assert_nothing_left(mw, tmp_path, monitor)
            monkeypatch.setattr(StagedFile, "append_rows", original)
            mw.queue_request(root_request())
            (result,) = mw.process_next_batch()
            assert result.cc.records == len(ROWS)

    def test_keyboard_interrupt_leaves_nothing(self, tmp_path, monitor):
        with self.make(staging_dir=str(tmp_path)) as mw:
            self._explode(mw, error=KeyboardInterrupt())
            mw.queue_request(root_request())
            with pytest.raises(KeyboardInterrupt):
                mw.process_next_batch()
            self.assert_nothing_left(mw, tmp_path, monitor)


class TestScanFailureCleanupPooled(TestScanFailureCleanup):
    """The same failures with two pooled workers.

    No size gate and 4-row chunks give 9-row partitions on the 36-row
    table, so row 20 again fails the third partition while earlier
    ones are in flight or staged.  The columnar cache is pinned off:
    its encode-once path never reads the streaming row source the
    failures are injected into.
    """

    CONFIG = {
        "scan_workers": 2,
        "scan_parallel_min_rows": 0,
        "scan_chunk_rows": 4,
        "scan_columnar_cache": False,
    }


class TestDefaultFitIsInline:
    """A default-config fit counts every scan inline, with no threads."""

    def test_default_fit_uses_no_pool_and_no_writer_thread(
            self, monkeypatch, monitor):
        monkeypatch.delenv("REPRO_SCAN_WORKERS", raising=False)
        generating = build_random_tree(
            RandomTreeConfig(n_attributes=6, values_per_attribute=3,
                             n_classes=3, n_leaves=12, cases_per_leaf=40,
                             seed=11)
        )
        server = SQLServer()
        load_dataset(server, "data", generating.spec,
                     generating.materialize())
        with Middleware(server, "data", generating.spec,
                        MiddlewareConfig(memory_bytes=20_000)) as mw:
            DecisionTreeClassifier().fit(mw)
            assert mw.scan_pool is None
            modes = {record.mode for record in mw.trace}
            assert {"SERVER", "FILE", "MEMORY"} <= modes
            assert mw.stats.files_written and mw.stats.memory_sets_loaded
            for record in mw.trace:
                assert record.workers == 1
                assert record.columnar or len(record.batch) > MAX_SLOTS
        for kind in ("staging-writer", "scan-prefetch", "executor"):
            assert kind not in monitor.created


class TestPoisonedPartition:
    """A worker dying mid-scan must not corrupt the session.

    The poison is a row carrying an unhashable attribute value: the
    routing kernel's dict probe raises ``TypeError`` *inside a pool
    worker*, which is the failure mode the persistent pool must survive
    — outstanding futures drained, the staging writer aborted, no
    half-written staged file left behind, and the same pool object
    serving the next scan.
    """

    POISON = ([], 0, 0)  # unhashable A1 value blows up in the worker

    def _poison(self, middleware, poison_after=8):
        original = middleware.execution._rows_for

        def poisoned(schedule, scan):
            rows = list(original(schedule, scan))
            rows.insert(poison_after, self.POISON)
            return iter(rows)

        middleware.execution._rows_for = poisoned

    def _restore(self, middleware):
        middleware.execution._rows_for = type(
            middleware.execution
        )._rows_for.__get__(middleware.execution)

    PARALLEL = {
        "scan_workers": 2,
        "scan_parallel_min_rows": 0,
        "scan_chunk_rows": 4,
        # The poison rides the streaming row source (``_rows_for``),
        # which the columnar cache's encode-once path never touches —
        # pin the cache off so the streaming failure path stays under
        # test.  TestPoisonedCachedScan covers the cached path.
        "scan_columnar_cache": False,
    }

    def test_staged_file_set_unchanged_after_worker_failure(self, tmp_path):
        with make_middleware(memory_staging=False,
                             staging_dir=str(tmp_path),
                             **self.PARALLEL) as mw:
            self._poison(mw)
            mw.queue_request(root_request())
            with pytest.raises(TypeError):
                mw.process_next_batch()
            # The poisoned scan staged nothing and leaked nothing: no
            # registered file, no stray bytes on disk, no memory held.
            assert mw.staging.file_nodes() == []
            assert list(tmp_path.iterdir()) == []
            assert mw.budget.used == 0

    def test_pool_survives_and_serves_the_next_scan(self):
        with make_middleware(**self.PARALLEL) as mw:
            self._poison(mw)
            mw.queue_request(root_request())
            with pytest.raises(TypeError):
                mw.process_next_batch()
            pool = mw.scan_pool
            assert pool is not None and pool.active
            created_before = pool.pools_created
            self._restore(mw)
            mw.queue_request(root_request())
            (result,) = mw.process_next_batch()
            assert result.cc.records == len(ROWS)
            # Same pool object, same executor: a worker-level failure
            # does not cost the session its warm pool.
            assert mw.scan_pool is pool
            assert pool.pools_created == created_before

    def test_poison_mid_stream_with_prefetch_enabled(self, tmp_path):
        with make_middleware(memory_staging=False,
                             staging_dir=str(tmp_path),
                             scan_prefetch_partitions=3,
                             **self.PARALLEL) as mw:
            self._poison(mw, poison_after=20)
            mw.queue_request(root_request())
            with pytest.raises(TypeError):
                mw.process_next_batch()
            assert mw.staging.file_nodes() == []
            assert list(tmp_path.iterdir()) == []
            assert mw.budget.used == 0


class TestPoisonedCachedScan:
    """A scan served by the warm columnar cache dying mid-count.

    The cached encoding is valid regardless of how a count over it
    ends, so a failed warm scan must leave the cache entry serving:
    futures drained, no staging residue, the *same* entry (no
    re-encode) counting the retry.
    """

    PARALLEL = {
        "scan_workers": 2,
        "scan_parallel_min_rows": 0,
        "scan_chunk_rows": 4,
    }

    def test_warm_scan_failure_leaves_cache_serving(self):
        with make_middleware(file_staging=False, memory_staging=False,
                             **self.PARALLEL) as mw:
            mw.queue_request(root_request())
            mw.process_next_batch()  # cold scan: encodes and admits
            cache = mw.execution.scan_cache
            if cache is None or not mw.execution.last_scan.cached:
                pytest.skip("columnar cache not active (numpy missing)")
            assert cache.misses == 1
            pool = mw.scan_pool
            assert pool is not None
            original = pool.submit_columnar_slice
            calls = {"n": 0}

            def failing(*args, **kwargs):
                calls["n"] += 1
                if calls["n"] > 1:
                    raise RuntimeError("coordinator tripped")
                return original(*args, **kwargs)

            pool.submit_columnar_slice = failing
            mw.queue_request(root_request())
            with pytest.raises(RuntimeError, match="coordinator tripped"):
                mw.process_next_batch()
            pool.submit_columnar_slice = original
            # The warm entry survived the failed count untouched...
            assert cache.resident_entries == 1
            assert cache.hits >= 1
            assert mw.budget.used == 0
            # ...and serves the retry without re-encoding.
            mw.queue_request(root_request())
            (result,) = mw.process_next_batch()
            assert result.cc.records == len(ROWS)
            assert cache.misses == 1


class TestBadClientInput:
    def test_wrong_row_promise_surfaces_clearly(self):
        with make_middleware() as mw:
            mw.queue_request(root_request(n_rows=7))
            with pytest.raises(MiddlewareError, match="promised"):
                mw.process_next_batch()
            assert mw.budget.used == 0

    def test_unsealed_file_scan_rejected(self):
        with make_middleware() as mw:
            staged = mw.staging.open_file("x")
            with pytest.raises(StagingError, match="seal"):
                list(staged.scan())

    def test_overlapping_requests_still_counted_exactly(self):
        # Root and a child queued simultaneously (a client protocol
        # violation): every node still receives exact counts.
        with make_middleware(file_staging=False,
                             memory_staging=False) as mw:
            child_rows = sum(1 for r in ROWS if r[0] == 1)
            mw.queue_request(root_request())
            mw.queue_request(
                CountsRequest(
                    node_id="child",
                    lineage=("root", "child"),
                    conditions=(PathCondition("A1", "=", 1),),
                    attributes=("A2",),
                    n_rows=child_rows,
                    est_cc_pairs=3,
                )
            )
            results = {}
            while mw.pending:
                for result in mw.process_next_batch():
                    results[result.node_id] = result.cc
            assert results["root"].records == len(ROWS)
            assert results["child"].records == child_rows
