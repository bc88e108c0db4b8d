"""Tests for the columnar parallel scan path.

The columnar executor is a pure wall-clock optimisation over the
row-tuple kernel: for NULL-heavy, unicode and mixed-type columns it
must produce CC tables equal to the row-at-a-time count on every
shipping path (in-process, thread pool, process pool via pickle,
process pool via shared memory), decode staged rows identically, size
partitions sanely without a row estimate, shut its prefetch producer
down without busy-waiting, and — proven by fault injection against the
resource witness — leak no shared-memory segment past a failed scan.
"""

import threading
import time

import pytest

np = pytest.importorskip("numpy")

from repro.analysis.runtime.witness import ResourceWitness  # noqa: E402
from repro.client.baselines import build_cc_from_rows  # noqa: E402
from repro.common.locks import LockMonitor, install_monitor  # noqa: E402
from repro.core.cc_table import CCTable  # noqa: E402
from repro.core.config import MiddlewareConfig  # noqa: E402
from repro.core.execution import (  # noqa: E402
    _PartitionProducer,
    _PartitionSizer,
)
from repro.core.filters import PathCondition, RoutingKernel  # noqa: E402
from repro.core.middleware import Middleware  # noqa: E402
from repro.core.scan_pool import (  # noqa: E402
    ScanWorkerPool,
    _count_partition,
)
from repro.core.shm import ShmShipper, shm_available  # noqa: E402
from repro.core.vector_kernel import (  # noqa: E402
    count_partition_columnar,
)
from repro.sqlengine.columnar import ColumnarPartition  # noqa: E402

from .test_parallel_scan import (  # noqa: E402
    PARALLEL,
    SPEC,
    dataset_rows,
    frontier_results,
    make_server,
    root_request,
)

# ---------------------------------------------------------------------------
# kernel-level equivalence: columnar counting == row-tuple counting
# ---------------------------------------------------------------------------

ATTRS = ("A1", "A2")
ATTR_INDEX = {"A1": 0, "A2": 1}
ATTR_POSITIONS = (("A1", 0), ("A2", 1))
CLASS_INDEX = 2
N_CLASSES = 3


def _rows_null_heavy():
    a1_cycle = [None, None, 4, None, 9]
    a2_cycle = [None, "x", None]
    return [
        (a1_cycle[i % 5], a2_cycle[i % 3], i % N_CLASSES)
        for i in range(61)
    ]


def _rows_unicode():
    a1_cycle = ["ä", "日本", "z", "ä"]
    a2_cycle = ["α", None, "β"]
    return [
        (a1_cycle[i % 4], a2_cycle[i % 3], i % N_CLASSES)
        for i in range(61)
    ]


def _rows_mixed():
    a1_cycle = ["1", 1, None, 1 << 70]
    a2_cycle = [0, 5, None]
    return [
        (a1_cycle[i % 4], a2_cycle[i % 3], i % N_CLASSES)
        for i in range(61)
    ]


DATASETS = {
    "null_heavy": (
        _rows_null_heavy,
        [
            (),
            (PathCondition("A1", "=", 4),),
            (PathCondition("A1", "<>", 4),),
            (PathCondition("A2", "=", None),),
        ],
    ),
    "unicode": (
        _rows_unicode,
        [
            (),
            (PathCondition("A1", "=", "ä"),),
            (PathCondition("A2", "<>", "β"),),
        ],
    ),
    "mixed": (
        _rows_mixed,
        [
            (),
            (PathCondition("A1", "=", "1"),),  # the string, not the int
            (PathCondition("A1", "=", 1),),    # the int, not the string
            (PathCondition("A1", "<>", None),),
        ],
    ),
}


def _make_ctx(condition_sets):
    kernel = RoutingKernel(condition_sets, ATTR_INDEX)
    slots = tuple(
        (f"n{slot}", ATTRS, ATTR_POSITIONS)
        for slot in range(len(condition_sets))
    )
    return (kernel, slots, CLASS_INDEX, N_CLASSES)


def _reference(rows, condition_sets, stage_nodes=()):
    """The row-tuple worker's answer over the whole row set at once."""
    ctx = _make_ctx(condition_sets)
    _, partials, routed, writes, _, _ = _count_partition(
        ctx, 0, rows, stage_nodes, ()
    )
    return partials, routed, writes


def _partitions(rows, partition_rows=7):
    return [
        ColumnarPartition.from_rows(rows[start:start + partition_rows])
        for start in range(0, len(rows), partition_rows)
    ]


def _fold(results, partitions, n_slots, stage_nodes=()):
    """Merge per-partition columnar results like the coordinator does."""
    ccs = [CCTable(ATTRS, N_CLASSES) for _ in range(n_slots)]
    routed = 0
    writes = {node_id: [] for node_id in stage_nodes}
    for result in sorted(results, key=lambda r: r[0]):
        seq, payloads, partition_routed, writes_idx, _, _ = result
        routed += partition_routed
        for cc, payload in zip(ccs, payloads):
            cc.merge_block(*payload)
        for node_id, idx in writes_idx.items():
            if len(idx):
                writes[node_id].extend(partitions[seq].rows_at(idx))
    return ccs, routed, writes


@pytest.mark.parametrize("dataset", sorted(DATASETS))
class TestColumnarKernelEquivalence:
    def test_direct_count_matches_row_kernel(self, dataset):
        make_rows, condition_sets = DATASETS[dataset]
        rows = make_rows()
        stage_nodes = ("n1",)
        reference, ref_routed, ref_writes = _reference(
            rows, condition_sets, stage_nodes
        )
        ctx = _make_ctx(condition_sets)
        partitions = _partitions(rows)
        results = [
            count_partition_columnar(ctx, seq, partition, stage_nodes, ())
            for seq, partition in enumerate(partitions)
        ]
        ccs, routed, writes = _fold(
            results, partitions, len(condition_sets), stage_nodes
        )
        assert ccs == reference
        assert routed == ref_routed
        assert writes["n1"] == ref_writes["n1"]

    def test_thread_pool_matches_row_kernel(self, dataset):
        make_rows, condition_sets = DATASETS[dataset]
        rows = make_rows()
        reference, _, _ = _reference(rows, condition_sets)
        ccs = self._pool_count("thread", rows, condition_sets)
        assert ccs == reference

    def test_process_pool_pickled_matches_row_kernel(self, dataset):
        make_rows, condition_sets = DATASETS[dataset]
        rows = make_rows()
        reference, _, _ = _reference(rows, condition_sets)
        ccs = self._pool_count("process", rows, condition_sets)
        assert ccs == reference

    @pytest.mark.skipif(not shm_available(), reason="no shared_memory")
    def test_process_pool_shm_matches_row_kernel(self, dataset):
        make_rows, condition_sets = DATASETS[dataset]
        rows = make_rows()
        reference, _, _ = _reference(rows, condition_sets)
        ccs = self._pool_count("process", rows, condition_sets, shm=True)
        assert ccs == reference

    def _pool_count(self, kind, rows, condition_sets, shm=False):
        kernel = RoutingKernel(condition_sets, ATTR_INDEX)
        slots = tuple(
            (f"n{slot}", ATTRS, ATTR_POSITIONS)
            for slot in range(len(condition_sets))
        )
        partitions = _partitions(rows)
        pool = ScanWorkerPool(kind, 2)
        shipper = ShmShipper() if shm else None
        try:
            pool.install(
                ("sig", kind, shm), kernel, slots, CLASS_INDEX, N_CLASSES
            )
            futures = []
            for seq, partition in enumerate(partitions):
                shipped = (
                    shipper.ship(partition) if shipper is not None
                    else partition
                )
                futures.append(pool.submit_columnar(seq, shipped, (), ()))
            results = [future.result() for future in futures]
        finally:
            if shipper is not None:
                shipper.close()
            pool.close()
        if shipper is not None:
            assert shipper.live_segments == 0
        ccs, _, _ = _fold(results, partitions, len(condition_sets))
        return ccs


# ---------------------------------------------------------------------------
# adaptive partition sizing
# ---------------------------------------------------------------------------


class TestPartitionSizer:
    def test_no_estimate_gets_per_worker_target_not_one_chunk(self):
        # Regression: the old policy degenerated to one scan chunk per
        # partition when the schedule had no row estimate, flooding the
        # pool with tiny tasks.
        sizer = _PartitionSizer(1024, adaptive=True)
        assert sizer.partition_rows(0, 4) == 1024 * 8

    def test_estimate_splits_two_partitions_per_worker(self):
        sizer = _PartitionSizer(4, adaptive=True)
        assert sizer.partition_rows(64, 4) == 8

    def test_partitions_never_smaller_than_a_chunk(self):
        sizer = _PartitionSizer(1024, adaptive=True)
        assert sizer.partition_rows(10, 8) == 1024

    def test_too_fast_partitions_coarsen_the_policy(self):
        sizer = _PartitionSizer(4, adaptive=True)
        sizer.parts_per_worker = 4
        sizer.observe([0.0001] * 8, partition_rows=4096)
        assert sizer.parts_per_worker == 3
        assert sizer.blind_rows == 8192

    def test_skewed_partitions_refine_the_policy(self):
        sizer = _PartitionSizer(4, adaptive=True)
        blind_before = sizer.blind_rows
        sizer.observe([0.01, 0.01, 0.2], partition_rows=4096)
        assert sizer.parts_per_worker == 3
        assert sizer.blind_rows == max(4, blind_before // 2)

    def test_slow_partitions_refine_the_policy(self):
        sizer = _PartitionSizer(4, adaptive=True)
        sizer.observe([0.3], partition_rows=4096)
        assert sizer.parts_per_worker == 3

    def test_bounds_hold_under_any_history(self):
        sizer = _PartitionSizer(4, adaptive=True)
        for _ in range(20):
            sizer.observe([10.0] * 4, partition_rows=4096)
        assert sizer.parts_per_worker == sizer.MAX_PARTS_PER_WORKER
        for _ in range(20):
            sizer.observe([0.0], partition_rows=1 << 30)
        assert sizer.parts_per_worker == sizer.MIN_PARTS_PER_WORKER
        assert sizer.blind_rows <= sizer.MAX_BLIND_ROWS

    def test_adaptive_off_pins_the_static_policy(self):
        sizer = _PartitionSizer(4, adaptive=False)
        before = (sizer.parts_per_worker, sizer.blind_rows)
        sizer.observe([10.0] * 4, partition_rows=4096)
        sizer.observe([0.0] * 4, partition_rows=4096)
        assert (sizer.parts_per_worker, sizer.blind_rows) == before


# ---------------------------------------------------------------------------
# the prefetch producer's stop/sentinel protocol
# ---------------------------------------------------------------------------


class TestPartitionProducer:
    def _source(self, n, fail_at=None, closed=None):
        def generate():
            try:
                for i in range(n):
                    if fail_at is not None and i == fail_at:
                        raise RuntimeError("cursor exploded")
                    yield [i]
            finally:
                if closed is not None:
                    closed.append(True)
        return generate()

    def _wait_buffered(self, producer, count):
        deadline = time.monotonic() + 5.0
        while (producer._queue.qsize() < count
               and time.monotonic() < deadline):
            time.sleep(0.001)
        assert producer._queue.qsize() >= count

    def test_yields_everything_in_order(self):
        producer = _PartitionProducer(self._source(10), depth=2)
        assert list(producer.partitions()) == [[i] for i in range(10)]
        assert not producer._thread.is_alive()
        assert producer.leftover == 0

    def test_source_error_reraised_after_buffered_items(self):
        producer = _PartitionProducer(self._source(10, fail_at=3), depth=2)
        consumed = []
        with pytest.raises(RuntimeError, match="cursor exploded"):
            for item in producer.partitions():
                consumed.append(item)
        assert consumed == [[0], [1], [2]]
        assert not producer._thread.is_alive()

    def test_stop_drains_buffer_and_closes_source(self):
        closed = []
        producer = _PartitionProducer(
            self._source(100, closed=closed), depth=3
        )
        self._wait_buffered(producer, 3)
        producer.stop()
        assert not producer._thread.is_alive()
        # A failed scan must pin nothing: everything buffered was
        # drained and accounted for, and the source generator closed.
        assert producer.leftover == 3
        assert closed == [True]

    def test_stop_wakes_a_blocked_producer_promptly(self):
        # depth=1: the producer buffers one partition and blocks on the
        # permit semaphore.  stop() must wake and join it directly —
        # the old implementation spun on 0.05s put-timeouts instead.
        producer = _PartitionProducer(self._source(100), depth=1)
        self._wait_buffered(producer, 1)
        started = time.perf_counter()
        producer.stop()
        assert time.perf_counter() - started < 2.0
        assert not producer._thread.is_alive()
        assert producer.leftover == 1

    def test_stop_after_clean_completion_is_safe(self):
        producer = _PartitionProducer(self._source(3), depth=2)
        assert len(list(producer.partitions())) == 3
        producer.stop()
        assert producer.leftover == 0

    def test_adaptive_growth_caps_at_max_depth(self):
        producer = _PartitionProducer(iter([]), depth=2, max_depth=4)
        assert list(producer.partitions()) == []
        producer._consumed = 1
        for _ in range(5):
            producer._grow()
        assert producer.peak_depth == 4

    def test_no_growth_before_first_consumption(self):
        # Growing while the consumer has seen nothing would just raise
        # the configured depth; peak_depth must start at the configured
        # value so the trace's prefetch_depth contract holds.
        producer = _PartitionProducer(iter([[1]]), depth=2, max_depth=4)
        producer._grow()
        assert producer.peak_depth == 2
        assert list(producer.partitions()) == [[1]]


# ---------------------------------------------------------------------------
# middleware integration: equivalence, trace fields, fault injection
# ---------------------------------------------------------------------------


class TestColumnarIntegration:
    def test_columnar_and_row_paths_agree_end_to_end(self):
        columnar, trace_on, cost_on = frontier_results(
            scan_workers=2, **PARALLEL
        )
        row_tuple, trace_off, cost_off = frontier_results(
            scan_workers=2, scan_columnar=False, **PARALLEL
        )
        rows = dataset_rows()
        for value in range(3):
            subset = [r for r in rows if r[0] == value]
            reference = build_cc_from_rows(subset, SPEC, ("A2",))
            assert columnar[f"n{value}"].cc == reference
            assert row_tuple[f"n{value}"].cc == reference
        assert trace_on[0].columnar
        assert not trace_off[0].columnar
        assert cost_on == pytest.approx(cost_off)

    def test_trace_reports_ship_profile(self):
        _, trace, _ = frontier_results(scan_workers=2, **PARALLEL)
        record = trace[0]
        assert record.columnar
        assert record.ship_seconds >= 0.0
        assert record.prefetch_peak >= record.prefetch_depth

    def test_stats_count_columnar_scans(self):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100_000, scan_workers=2, **PARALLEL
        )
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()
            assert mw.stats.columnar_scans == 1
            assert mw.execution.last_scan.columnar
            assert mw.execution.last_scan.partition_rows > 0

    def _staged_root_bytes(self, **overrides):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100_000, memory_staging=False,
            **PARALLEL, **overrides,
        )
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()
            staged = mw.staging.file_for("root")
            assert list(staged.scan()) == rows
            with open(staged.path, "rb") as handle:
                return handle.read()

    def test_staged_file_bit_identical_across_shipping_paths(self):
        serial = self._staged_root_bytes(scan_workers=1)
        assert self._staged_root_bytes(scan_workers=2) == serial
        assert self._staged_root_bytes(
            scan_workers=2, scan_pool="process"
        ) == serial
        assert self._staged_root_bytes(
            scan_workers=2, scan_pool="process", scan_shared_memory=False
        ) == serial

    def test_file_and_memory_rescans_stay_columnar(self):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100_000, scan_workers=2, **PARALLEL
        )
        from .test_parallel_scan import child_request
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()  # SERVER scan, stages the root
            for value in range(3):
                mw.queue_request(child_request(f"n{value}", value, rows))
            while mw.pending:
                mw.process_next_batch()
            staged_modes = {r.mode for r in mw.trace}
            assert len(staged_modes) >= 2  # a staged tier was rescanned
            assert all(r.columnar for r in mw.trace)


class _WitnessMonitor(LockMonitor):
    """A LockMonitor wiring the resource hooks to a ResourceWitness."""

    def __init__(self):
        self.witness = ResourceWitness()
        self.created = {}

    def resource_created(self, kind, obj, detail=""):
        self.created[kind] = self.created.get(kind, 0) + 1
        self.witness.created(kind, obj, detail)

    def resource_closed(self, kind, obj):
        self.witness.closed(kind, obj)

    def live_kinds(self):
        return [record.kind for record in self.witness.live()]


class TestShmFaultInjection:
    @pytest.mark.skipif(not shm_available(), reason="no shared_memory")
    def test_failed_scan_leaks_no_segment_and_keeps_pool_warm(self):
        monitor = _WitnessMonitor()
        previous = install_monitor(monitor)
        try:
            rows = dataset_rows()
            server = make_server(rows)
            # An out-of-range class label passes the SQL schema (it is
            # an int) but poisons the vectorized count in the worker.
            server.table("data").insert((0, 0, 99))
            config = MiddlewareConfig(
                memory_bytes=100_000,
                file_staging=False,
                memory_staging=False,
                scan_workers=2,
                scan_pool="process",
                **PARALLEL,
            )
            with Middleware(server, "data", SPEC, config) as mw:
                mw.queue_request(root_request(rows))
                with pytest.raises(IndexError):
                    mw.process_next_batch()
                # Segments really shipped, and none survived the
                # failure — the witness would report a leak otherwise.
                assert monitor.created.get("shm-segment", 0) >= 1
                assert "shm-segment" not in monitor.live_kinds()
                # The session pool survived the worker error warm.
                pool = mw.scan_pool
                assert pool is not None and pool.active
            assert "executor" not in monitor.live_kinds()
            assert "shm-segment" not in monitor.live_kinds()
        finally:
            install_monitor(previous)

    def test_poison_row_fails_encoding_without_pinning(self):
        # An unhashable attribute value fails dictionary encoding on
        # the producer thread; the scan must surface the TypeError and
        # leave no partitions pinned.
        monitor = _WitnessMonitor()
        previous = install_monitor(monitor)
        try:
            producer = _PartitionProducer(
                iter(
                    ColumnarPartition.from_rows([row])
                    for row in [(1, 1, 0), ([], 1, 0)]
                ),
                depth=2,
            )
            with pytest.raises(TypeError):
                list(producer.partitions())
            producer.stop()
            assert producer.leftover <= 1
            assert "scan-prefetch" not in monitor.live_kinds()
        finally:
            install_monitor(previous)


class TestColumnarConfig:
    def test_shared_memory_off_still_counts_correctly(self):
        results, trace, _ = frontier_results(
            scan_workers=2, scan_pool="process",
            scan_shared_memory=False, **PARALLEL,
        )
        rows = dataset_rows()
        for value in range(3):
            subset = [r for r in rows if r[0] == value]
            assert results[f"n{value}"].cc == build_cc_from_rows(
                subset, SPEC, ("A2",)
            )
        assert trace[0].columnar

    def test_adaptive_partitions_off_keeps_static_sizing(self):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100_000, scan_workers=2,
            scan_adaptive_partitions=False, **PARALLEL,
        )
        with Middleware(server, "data", SPEC, config) as mw:
            sizer = mw.execution._sizer
            before = (sizer.parts_per_worker, sizer.blind_rows)
            mw.queue_request(root_request(rows))
            mw.process_next_batch()
            assert (sizer.parts_per_worker, sizer.blind_rows) == before

    def test_adaptive_sizing_reacts_to_fast_scans(self):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100_000, scan_workers=2, **PARALLEL
        )
        from .test_parallel_scan import child_request
        with Middleware(server, "data", SPEC, config) as mw:
            sizer = mw.execution._sizer
            blind_before = sizer.blind_rows
            for value in range(3):
                mw.queue_request(child_request(f"n{value}", value, rows))
            while mw.pending:
                mw.process_next_batch()
            # 27-row scans finish far under the too-fast threshold, so
            # the blind target can only have grown (policy coarsens).
            assert sizer.blind_rows >= blind_before
            assert sizer.parts_per_worker == sizer.MIN_PARTS_PER_WORKER
