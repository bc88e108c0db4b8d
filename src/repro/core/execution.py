"""The execution module (paper Section 4.1).

Given a :class:`~repro.core.scheduler.Schedule`, builds the CC tables
of every node in the batch in **one scan** of the appropriate data
source, without external sorting: as each record is retrieved, it is
routed to the (unique) active node whose path predicate it satisfies
and the node's counters are updated.

The same scan also performs the staging the scheduler planned: rows
routed to a stage-target node are appended to its new middleware file
and/or collected for middleware memory.

One counting loop does the routing, with a reference oracle beside
it:

* the **counting loop** (default) cuts the source into ordered
  :class:`~repro.sqlengine.columnar.ColumnarPartition` column arrays,
  encoded once at the source, routes each through the batch's
  compiled :class:`~repro.core.filters.RoutingKernel` as vectorized
  candidate masks, and folds per-node count blocks into the CC
  tables (batches wider than the masks count row-tuple partitions);
* the **per-row** loop is the reference oracle: every node's matcher
  closure is evaluated against every row (``config.scan_kernel =
  False``).

At one worker (``config.scan_workers`` = 1, or a scan under
``config.scan_parallel_min_rows``) the loop runs **inline** on the
calling thread — bounded partitions counted and folded one at a time,
staged rows appended directly, no pool and no helper thread.  With
more workers it fans out to the session's persistent
:class:`~repro.core.scan_pool.ScanWorkerPool`, which counts
partitions into *private* partials that the coordinator merges in
partition order (CC tables are additive, so disjoint partials merge
exactly); pooled SERVER scans prefetch on a bounded producer thread
and staged rows go through a threaded staging writer.  Every scan
encodes its source afresh: SERVER rows as the cursor yields them,
staged FILE blocks as they are read, and MEMORY sets from the one
encoding staging keeps beside the rows.  Staged files come out
bit-identical for any worker count.

Every scan records profiling counters on :class:`ScanStats` — wall
time, rows/sec, matcher-evaluation counts, which loop ran, worker
count and merge time — which the middleware copies onto the session
trace.

Runtime memory errors are handled as in Section 4.1.1.  The counting
loop counts unconditionally and admits each node's *merged* CC size
against the budget afterwards, in batch order, so recovery decisions —
and with them the fit's metered cost — do not depend on worker count
or partitioning.  When a node's CC table outgrows what can be reserved
there are two recoveries:

* **deferral** — if the node shares the scan with other *surviving*
  nodes, it is simply counted on a *later* scan (the "multiple scans
  of the database ... to build CC tables for active nodes" of Section
  5.2.1B).  Its size estimate is raised to the pair count observed in
  the scan, so the next admission reserves realistically.
* **SQL fallback** — if the node was scanned alone, or every co-batched
  peer has already been abandoned (so deferring would only buy it an
  identical solo scan), its CC genuinely cannot be accommodated: it
  switches to the SQL-based implementation and its counts are fetched
  from the server after the scan, modelling the paper's lazy
  retrieval: the middleware never holds that table against its budget.

The per-row oracle admits row by row instead, abandoning a node
mid-scan the moment its table outgrows its reservation.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Iterator, Sequence

from ..common.errors import MiddlewareError
from ..common.locks import new_lock, resource_closed, resource_created
from ..sqlengine.columnar import ColumnarPartition, np
from .cc_table import CCTable
from .filters import RoutingKernel, batch_filter
from .requests import CountsResult
from .scan_pool import ScanWorkerPool, _count_partition
from .scheduler import _cc_tag
from .shm import ShmShipper, shm_available
from .sql_counting import counts_via_sql
from .staging import (
    DataLocation,
    InlineStagingWriter,
    ParallelStagingWriter,
    PipelinedStagingWriter,
    StagedFile,
)
from .vector_kernel import MAX_SLOTS, count_partition_columnar, fold_payload


@dataclass
class ScanStats:
    """Counters describing one executed scan."""

    mode: DataLocation
    rows_seen: int = 0
    rows_routed: int = 0
    nodes_served: int = 0
    sql_fallbacks: int = 0
    deferrals: int = 0
    files_written: int = 0
    memory_sets_loaded: int = 0
    #: Wall-clock seconds spent producing and routing the scan's rows.
    wall_seconds: float = 0.0
    #: Condition-evaluation work: matcher closure calls in the per-row
    #: oracle, dispatch-table probes in the counting loop.
    matcher_evals: int = 0
    #: True when the counting loop ran (False = the per-row oracle).
    kernel: bool = False
    #: Worker tasks that counted this scan (1 = inline, or the oracle).
    workers: int = 1
    #: Wall-clock seconds merging per-worker CC partials (parallel only).
    merge_seconds: float = 0.0
    #: Per-partition counting seconds as reported by the workers.
    worker_seconds: list[float] = field(default_factory=list)
    #: Wall-clock seconds spent standing the worker pool up for this
    #: scan (executor creation + kernel install; ~0 on warm reuse).
    pool_setup_seconds: float = 0.0
    #: True when the scan reused an already-running worker pool.
    pool_reused: bool = False
    #: Partitions the prefetch thread was allowed to run ahead
    #: (0 = inline pull-then-submit, or a one-worker scan).
    prefetch_depth: int = 0
    #: Per-file writer threads used for staging output (0 = the single
    #: pipelined funnel, or a one-worker scan).
    split_writers: int = 0
    #: True when the scan counted over columnar partitions (the
    #: vectorized kernel) instead of row tuples.
    columnar: bool = False
    #: Wall-clock seconds encoding rows into columnar partitions
    #: (0.0 for row-tuple scans).
    encode_seconds: float = 0.0
    #: Wall-clock seconds copying partitions into shared-memory
    #: segments (the memcpy only; encoding is ``encode_seconds``).
    ship_seconds: float = 0.0
    #: Rows per partition of this scan (0 = the per-row oracle).
    partition_rows: int = 0
    #: Highest prefetch depth the producer adapted to (>= the
    #: configured ``prefetch_depth`` when consumer starvation grew it;
    #: 0 without a prefetch thread).
    prefetch_peak: int = 0
    #: Access path the server strategy took for this scan ("seq" /
    #: "index" / "temp_table" / "tid_join" / "keyset"; "" for FILE and
    #: MEMORY scans, which have no server access path).
    access_path: str = ""
    #: The strategy's estimate of the access charges for that path
    #: (equals the metered charge for planner-chosen paths).
    access_cost_est: float = 0.0

    @property
    def rows_per_sec(self) -> float:
        """Scan throughput (0.0 when the scan was too fast to time)."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.rows_seen / self.wall_seconds


@dataclass
class ExecutionStats:
    """Cumulative counters across a middleware session."""

    scans_by_mode: dict[DataLocation, int] = field(
        default_factory=lambda: {loc: 0 for loc in DataLocation}
    )
    rows_seen: int = 0
    rows_routed: int = 0
    batches: int = 0
    sql_fallbacks: int = 0
    deferrals: int = 0
    files_written: int = 0
    memory_sets_loaded: int = 0
    wall_seconds: float = 0.0
    matcher_evals: int = 0
    kernel_scans: int = 0
    parallel_scans: int = 0
    merge_seconds: float = 0.0
    worker_seconds_total: float = 0.0
    pool_setup_seconds: float = 0.0
    prefetched_scans: int = 0
    columnar_scans: int = 0
    encode_seconds: float = 0.0
    ship_seconds: float = 0.0
    #: SERVER scans whose access path was a secondary-index probe.
    index_path_scans: int = 0

    def absorb(self, scan: ScanStats) -> None:
        """Fold one *final* :class:`ScanStats` into the session totals.

        Called exactly once per executed scan, with that scan's own
        freshly built stats object.  When a node overflows (§4.1.1) and
        its count is retried on a later scan, the retry is a *new* scan
        with new stats — the earlier attempt's ``merge_seconds`` /
        ``worker_seconds`` must never ride along into the retry's
        record, so each ``ScanStats`` owns its per-attempt lists and
        nothing here is read from shared pool state.
        """
        self.scans_by_mode[scan.mode] += 1
        self.rows_seen += scan.rows_seen
        self.rows_routed += scan.rows_routed
        self.batches += 1
        self.sql_fallbacks += scan.sql_fallbacks
        self.deferrals += scan.deferrals
        self.files_written += scan.files_written
        self.memory_sets_loaded += scan.memory_sets_loaded
        self.wall_seconds += scan.wall_seconds
        self.matcher_evals += scan.matcher_evals
        self.kernel_scans += scan.kernel
        self.parallel_scans += scan.workers > 1
        self.merge_seconds += scan.merge_seconds
        self.worker_seconds_total += sum(scan.worker_seconds)
        self.pool_setup_seconds += scan.pool_setup_seconds
        self.prefetched_scans += scan.prefetch_depth > 0
        self.columnar_scans += scan.columnar
        self.encode_seconds += scan.encode_seconds
        self.ship_seconds += scan.ship_seconds
        self.index_path_scans += scan.access_path == "index"

    @property
    def total_scans(self) -> int:
        return sum(self.scans_by_mode.values())

    @property
    def rows_per_sec(self) -> float:
        """Session-wide scan throughput."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.rows_seen / self.wall_seconds


# -- partition production ----------------------------------------------------


def _close_source(source: Any) -> None:
    """Close a row/partition source if it supports closing."""
    close = getattr(source, "close", None)
    if close is not None:
        try:
            close()
        except BaseException:
            pass


def _slice_partitions(row_iter: Iterator[Any],
                      partition_rows: int) -> Iterator[list[Any]]:
    """Cut a row iterator into ordered list partitions.

    Closing this generator (directly, or via a producer's ``stop``)
    closes the underlying row source, so a cursor abandoned by a failed
    scan releases its generator state deterministically.
    """
    try:
        while True:
            partition = list(islice(row_iter, partition_rows))
            if not partition:
                return
            yield partition
    finally:
        _close_source(row_iter)


class _StopWatch:
    """A mutable seconds accumulator shared with source generators."""

    __slots__ = ("seconds",)

    def __init__(self) -> None:
        self.seconds = 0.0

    def add(self, started: float) -> None:
        self.seconds += time.perf_counter() - started


def _columnar_slices(row_iter: Iterator[Any], partition_rows: int,
                     watch: _StopWatch) -> Iterator[ColumnarPartition]:
    """Encode a row iterator into columnar partitions (SERVER scans).

    Encoding runs on whichever single thread consumes this generator
    (the prefetch producer, normally), so per-row meter charges inside
    the cursor still accrue exactly once.
    """
    try:
        while True:
            chunk = list(islice(row_iter, partition_rows))
            if not chunk:
                return
            started = time.perf_counter()
            partition = ColumnarPartition.from_rows(chunk)
            watch.add(started)
            yield partition
    finally:
        _close_source(row_iter)


def _columnar_memory_slices(table: ColumnarPartition,
                            partition_rows: int,
                            ) -> Iterator[ColumnarPartition]:
    """Zero-copy partition views over a memory set's encoding."""
    for start in range(0, table.n_rows, partition_rows):
        yield table.slice(start, start + partition_rows)


def _columnar_file_slices(block_iter: Iterator[Any], partition_rows: int,
                          watch: _StopWatch) -> Iterator[ColumnarPartition]:
    """Assemble staged-file int32 blocks into columnar partitions."""
    pending: list[Any] = []
    pending_rows = 0
    try:
        for block in block_iter:
            pending.append(block)
            pending_rows += int(block.shape[0])
            while pending_rows >= partition_rows:
                started = time.perf_counter()
                matrix = (
                    np.vstack(pending) if len(pending) > 1 else pending[0]
                )
                rest = matrix[partition_rows:]
                pending = [rest] if rest.shape[0] else []
                pending_rows = int(rest.shape[0])
                partition = ColumnarPartition.from_matrix(
                    matrix[:partition_rows]
                )
                watch.add(started)
                yield partition
        if pending_rows:
            started = time.perf_counter()
            matrix = np.vstack(pending) if len(pending) > 1 else pending[0]
            partition = ColumnarPartition.from_matrix(matrix)
            watch.add(started)
            yield partition
    finally:
        _close_source(block_iter)


class _PartitionSizer:
    """Adaptive partition sizing from observed worker timings.

    The static policy ("~2 partitions per worker") breaks down at the
    edges: with no row estimate it degenerated to ``scan_chunk_rows``-
    sized partitions (flooding the pool with tiny tasks), and skewed
    batches leave workers idle behind one long partition.  The sizer
    keeps the static policy as its starting point and steers two knobs
    from each scan's ``worker_seconds``:

    * partitions so fast they are all dispatch overhead → coarsen
      (fewer partitions per worker, larger blind target);
    * partitions too long — or one partition dominating the mean, the
      skew signature — → refine so stragglers can be balanced.

    Bounds keep every scan between 2 and 8 partitions per worker, so
    the parallel-path contracts (at least two partitions whenever the
    source exceeds one) hold for any observation history.
    """

    MIN_PARTS_PER_WORKER = 2
    MAX_PARTS_PER_WORKER = 8
    #: Mean partition seconds below which tasks are pure overhead.
    TOO_FAST_SECONDS = 0.002
    #: Mean partition seconds above which stragglers hurt balance.
    TOO_SLOW_SECONDS = 0.25
    #: Hard ceiling for the no-estimate partition size.
    MAX_BLIND_ROWS = 1 << 20
    #: Scan chunks in the starting no-estimate partition size — also
    #: the fixed partition size of inline (one-worker) scans.
    BLIND_CHUNKS = 8

    def __init__(self, chunk_rows: int, adaptive: bool) -> None:
        self._chunk_rows = max(1, chunk_rows)
        self._adaptive = adaptive
        self.parts_per_worker = self.MIN_PARTS_PER_WORKER
        #: Partition size used when the schedule has no row estimate.
        #: A sane per-worker target, not one scan chunk.
        self.blind_rows = self._chunk_rows * self.BLIND_CHUNKS

    def partition_rows(self, estimated_rows: int, n_workers: int) -> int:
        """Rows per partition for one scan."""
        if estimated_rows:
            per_partition = -(
                -estimated_rows // (n_workers * self.parts_per_worker)
            )
            return max(self._chunk_rows, per_partition)
        return max(self._chunk_rows, self.blind_rows)

    def observe(self, worker_seconds: Sequence[float],
                partition_rows: int) -> None:
        """Fold one scan's per-partition timings into the policy."""
        if not self._adaptive or not worker_seconds:
            return
        mean = sum(worker_seconds) / len(worker_seconds)
        peak = max(worker_seconds)
        if mean < self.TOO_FAST_SECONDS:
            self.parts_per_worker = max(
                self.MIN_PARTS_PER_WORKER, self.parts_per_worker - 1
            )
            self.blind_rows = min(
                max(self.blind_rows, partition_rows * 2),
                self.MAX_BLIND_ROWS,
            )
        elif mean > self.TOO_SLOW_SECONDS or (
            len(worker_seconds) > 1 and peak > 2.0 * mean
        ):
            self.parts_per_worker = min(
                self.MAX_PARTS_PER_WORKER, self.parts_per_worker + 1
            )
            self.blind_rows = max(self._chunk_rows, self.blind_rows // 2)


class _PartitionProducer:
    """Bounded async prefetch of partitions (SERVER-mode scans).

    The coordinator used to alternate pull-then-submit: materialize a
    partition from the server cursor, submit it, pull the next.  This
    producer moves the pulling onto a background thread, so the next
    partition is fetched *while* the pool counts the current one.

    Backpressure is a semaphore of *permits*, not a bounded queue: the
    producer takes one permit per partition it materializes and the
    consumer returns it when the partition is collected, so at most
    ``depth`` partitions are ever buffered — without the old 0.05s
    ``queue.put`` timeout loop, which kept the thread spinning after a
    consumer abort.  With stop/sentinel signalling through an unbounded
    queue, every blocking wait has someone responsible for waking it:
    :meth:`stop` releases a permit to unblock the producer, and the
    producer's ``finally`` always enqueues the ``_DONE`` sentinel (an
    unbounded ``put`` cannot block) to unblock the consumer.

    Depth is adaptive: when the consumer finds the buffer empty after
    having already consumed at least one partition — the pool is
    outrunning the cursor — the depth grows (up to twice the configured
    value, tracked in :attr:`peak_depth`) by releasing an extra permit.

    The source is still consumed by exactly one thread, so every
    simulated per-row meter charge accrues exactly once; only *where*
    the wall-clock time is spent changes (see ``docs/cost_model.md``).

    A producer-side failure is re-raised to the coordinator from
    :meth:`partitions`; :meth:`stop` shuts the thread down without
    raising (for scans already failing), drains anything still buffered
    (counted in :attr:`leftover` — a failed scan must pin no
    partitions) and closes the partition source.
    """

    _DONE = object()

    def __init__(self, source: Iterator[Any], depth: int,
                 max_depth: int | None = None) -> None:
        self._source = source
        self._queue: queue.Queue[Any] = queue.Queue()
        self._stop_event = threading.Event()
        depth = max(1, depth)
        self._permits = threading.Semaphore(depth)
        self._depth = depth
        self._max_depth = max(depth, max_depth if max_depth else depth)
        #: Highest depth the adaptive growth reached.
        self.peak_depth = depth
        #: Partitions still buffered when :meth:`stop` drained the queue.
        self.leftover = 0
        self._consumed = 0
        self._finished = False
        self._error_lock = new_lock("_PartitionProducer._error_lock")
        #: guarded by self._error_lock
        self._error: BaseException | None = None
        self._thread = threading.Thread(
            target=self._produce, name="scan-prefetch", daemon=True
        )
        self._thread.start()
        resource_created("scan-prefetch", self, "partition producer thread")

    def _produce(self) -> None:
        try:
            while True:
                self._permits.acquire()
                if self._stop_event.is_set():
                    break
                partition = next(self._source, self._DONE)
                if partition is self._DONE:
                    break
                self._queue.put(partition)
        except BaseException as exc:  # surfaced via partitions()
            with self._error_lock:
                self._error = exc
        finally:
            self._queue.put(self._DONE)

    def _grow(self) -> None:
        """Consumer found the buffer empty: let the producer run ahead."""
        if self._consumed and self._depth < self._max_depth:
            self._depth += 1
            self.peak_depth = self._depth
            self._permits.release()

    def _join_thread(self) -> None:
        if not self._finished:
            self._finished = True
            self._thread.join()
            resource_closed("scan-prefetch", self)

    def partitions(self) -> Iterator[Any]:
        """Yield partitions in scan order; re-raises producer errors."""
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                self._grow()
                item = self._queue.get()
            if item is self._DONE:
                self._join_thread()
                with self._error_lock:
                    error = self._error
                if error is not None:
                    raise error
                return
            self._consumed += 1
            yield item
            self._permits.release()

    def stop(self) -> None:
        """Shut the producer down without raising (failure path)."""
        self._stop_event.set()
        self._permits.release()
        self._join_thread()
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not self._DONE:
                self.leftover += 1
        _close_source(self._source)


class _NodeCount:
    """Per-node counting state within one scan."""

    __slots__ = ("request", "cc", "reserved", "fallback", "deferred",
                 "attr_positions")

    def __init__(self, request: Any, cc: CCTable, reserved: int,
                 attr_positions: tuple[tuple[str, int], ...]) -> None:
        self.request = request
        #: The node's CC table (None once the node is abandoned).
        self.cc: Any = cc
        self.reserved = reserved
        self.fallback = False
        self.deferred = False
        #: Precomputed (attribute, row index) pairs for tuple counting.
        self.attr_positions = attr_positions

    @property
    def abandoned(self) -> bool:
        return self.fallback or self.deferred


class ExecutionModule:
    """Runs schedules: scan-based counting plus staging writes."""

    def __init__(self, server: Any, table_name: str, spec: Any,
                 staging: Any, budget: Any, config: Any, strategy: Any,
                 pool_provider: Callable[[], ScanWorkerPool] | None = None,
                 ) -> None:
        self._server = server
        self._table_name = table_name
        self._spec = spec
        self._staging = staging
        self._budget = budget
        self._config = config
        self._strategy = strategy
        #: Zero-arg callable returning the session's shared
        #: :class:`ScanWorkerPool` (the middleware binds its own pool
        #: here).  None — or ``config.scan_pool_reuse`` off — builds a
        #: throwaway per-scan pool instead.
        self._pool_provider = pool_provider
        self._attr_index = {
            name: i for i, name in enumerate(spec.attribute_names)
        }
        self._class_index = spec.n_attributes
        self._sizer = _PartitionSizer(
            config.scan_chunk_rows, config.scan_adaptive_partitions
        )
        self.stats = ExecutionStats()
        #: The :class:`ScanStats` of the most recent :meth:`run`.
        self.last_scan: ScanStats | None = None

    @property
    def scan_cache(self) -> None:
        """Always None: there is no scan cache.

        Kept only because the fit benchmark's ``public_counters``
        (``fitbench/runner.py``) reads it on every fit; delete it
        together with that read.
        """
        return None

    def run(self, schedule: Any) -> tuple[list[CountsResult], list[Any]]:
        """Execute one schedule.

        Returns ``(results, deferred)``: the fulfilled
        :class:`CountsResult` list plus any requests pushed to a later
        scan by a runtime memory overflow.
        """
        scan = ScanStats(mode=schedule.mode)
        states = self._make_states(schedule)
        file_writers = self._open_file_writers(schedule)
        memory_capture: dict[Any, list[Any]] = {
            node_id: [] for node_id in schedule.stage_memory_targets
        }

        started = time.perf_counter()
        try:
            if self._config.scan_kernel:
                workers = self._parallel_workers(schedule)
                self._count_partitioned(
                    schedule, self._rows_for(schedule, scan), states,
                    file_writers, memory_capture, scan, workers,
                    self._partition_rows(schedule, workers),
                )
            else:
                matchers = [
                    (state, self._make_matcher(state.request))
                    for state in states
                ]
                self._count_rows(
                    self._rows_for(schedule, scan), matchers,
                    file_writers, memory_capture, scan,
                )
        except BaseException:
            # BaseException, not Exception: a KeyboardInterrupt (or
            # SystemExit) mid-scan must not leak open staging writers
            # or CC/memory reservations either.
            for node_id in file_writers:
                self._staging.abandon_file(node_id)
            for node_id in memory_capture:
                self._staging.cancel_memory_reservation(node_id)
            self._release_cc_reservations(states)
            raise
        scan.wall_seconds = time.perf_counter() - started

        if schedule.mode is DataLocation.SERVER:
            choice = getattr(self._strategy, "last_choice", None)
            if choice is not None:
                scan.access_path = choice.path
                scan.access_cost_est = choice.est_cost

        for node_id, writer in file_writers.items():
            writer.seal()
            scan.files_written += 1
        for node_id, rows in memory_capture.items():
            self._staging.commit_memory(node_id, rows)
            scan.memory_sets_loaded += 1

        try:
            results, deferred = self._finish(states, schedule, scan)
        finally:
            self._release_cc_reservations(states)
        self.stats.absorb(scan)
        self.last_scan = scan
        return results, deferred

    # -- setup ------------------------------------------------------------

    def _make_states(self, schedule: Any) -> list[_NodeCount]:
        states = []
        for request in schedule.batch:
            cc = CCTable(request.attributes, self._spec.n_classes)
            reserved = schedule.cc_reservations.get(request.node_id, 0)
            positions = tuple(
                (name, self._attr_index[name]) for name in request.attributes
            )
            states.append(_NodeCount(request, cc, reserved, positions))
        return states

    def _make_matcher(
        self, request: Any
    ) -> Callable[[Sequence[Any]], bool]:
        """Compile a node's path conditions into a tuple-level check."""
        checks = [
            (self._attr_index[c.attribute], c.op == "=", c.value)
            for c in request.conditions
        ]

        def match(row: Sequence[Any]) -> bool:
            for index, want_equal, value in checks:
                if (row[index] == value) != want_equal:
                    return False
            return True

        return match

    def _open_file_writers(self, schedule: Any) -> dict[Any, StagedFile]:
        """Writers for planned staging targets and file splits.

        Planned ``stage_file_targets`` were budget-checked by the
        scheduler; §4.3.2 split files are decided here, so the same
        file-space budget is enforced per split target — targets whose
        data would overflow ``file_budget_bytes`` are skipped (their
        nodes are still counted; they just keep reading the source).
        """
        staging = self._staging
        targets = list(schedule.stage_file_targets)
        if schedule.split_file:
            rows_by_node = {r.node_id: r.n_rows for r in schedule.batch}
            planned = sum(rows_by_node.get(node_id, 0) for node_id in targets)
            for node_id in schedule.node_ids:
                if node_id == schedule.source_node or node_id in targets:
                    continue
                n_rows = rows_by_node.get(node_id, 0)
                if not staging.file_space_for(planned + n_rows):
                    continue
                targets.append(node_id)
                planned += n_rows
        return {node_id: staging.open_file(node_id) for node_id in targets}

    def _source_rows(self, schedule: Any) -> int:
        """Rows the scan is expected to read, known before it runs.

        Exact for staged sources; for server scans it is the batch's
        relevant-row total (an underestimate without filter push-down,
        which only makes the parallel gate conservative).
        """
        staging = self._staging
        if schedule.mode is DataLocation.MEMORY:
            return len(staging.memory_rows(schedule.source_node))
        if schedule.mode is DataLocation.FILE:
            return staging.file_for(schedule.source_node).row_count
        return sum(request.n_rows for request in schedule.batch)

    def _parallel_workers(self, schedule: Any) -> int:
        """Worker count for this scan (1 = count inline).

        Scans below ``scan_parallel_min_rows`` stay inline because
        pool startup and merge overhead would dominate them.
        """
        config = self._config
        if config.scan_workers <= 1:
            return 1
        if self._source_rows(schedule) < config.scan_parallel_min_rows:
            return 1
        return config.scan_workers

    def _partition_rows(self, schedule: Any, n_workers: int) -> int:
        """Rows per partition for one scan.

        Inline scans use the sizer's starting blind target, so their
        partitions stay bounded however large the source is.  Pooled
        scans ask the adaptive sizer, which starts at ~2 partitions per
        worker and never goes below one scan chunk (tiny partitions
        would be all task overhead, and with a process pool all
        shipping).
        """
        if n_workers == 1:
            return self._config.scan_chunk_rows * _PartitionSizer.BLIND_CHUNKS
        return self._sizer.partition_rows(
            self._source_rows(schedule), n_workers
        )

    def _rows_for(self, schedule: Any, scan: ScanStats) -> Iterator[Any]:
        """The row iterator for the schedule's data source."""
        staging = self._staging
        if schedule.mode is DataLocation.SERVER:
            predicate = None
            if self._config.push_filters:
                predicate = batch_filter(
                    [request.predicate for request in schedule.batch]
                )
            relevant = sum(request.n_rows for request in schedule.batch)
            return self._strategy.rows(predicate, relevant)
        if schedule.mode is DataLocation.FILE:
            return staging.file_for(schedule.source_node).scan()
        rows = staging.memory_rows(schedule.source_node)
        model = self._server.model
        self._server.meter.charge(
            "memory_read", model.memory_row * len(rows), events=len(rows)
        )
        return iter(rows)

    # -- the counting loop ---------------------------------------------------

    def _routing_context(self, states: list[_NodeCount]) -> tuple[Any, ...]:
        """``(kernel, slots, class_index, n_classes)`` for the counters."""
        kernel = RoutingKernel(
            [state.request.conditions for state in states],
            self._attr_index,
        )
        slots = tuple(
            (state.request.node_id, state.request.attributes,
             state.attr_positions)
            for state in states
        )
        return kernel, slots, self._class_index, self._spec.n_classes

    def _install_pool(self, states: list[_NodeCount], ctx: tuple[Any, ...],
                      scan: ScanStats) -> tuple[ScanWorkerPool, bool]:
        """The worker pool for one pooled scan: ``(pool, owned)``.

        The session's persistent pool is used whenever the middleware
        provided one and ``config.scan_pool_reuse`` is on; otherwise a
        throwaway pool is built (and, ``owned`` = True, closed by the
        caller after the scan) — the cold-start baseline.  Either way
        the scan's routing context is installed before returning.
        """
        config = self._config
        if config.scan_pool_reuse and self._pool_provider is not None:
            pool, owned = self._pool_provider(), False
        else:
            pool = ScanWorkerPool(config.scan_pool, config.scan_workers)
            owned = True
        scan.pool_reused = pool.active
        scan.pool_setup_seconds = pool.install(
            self._scan_signature(states), *ctx
        )
        return pool, owned

    @staticmethod
    def _scan_signature(states: list[_NodeCount]) -> tuple[Any, ...]:
        """Equality key for a schedule's routing kernel (pool install)."""
        return tuple(
            (state.request.node_id,
             tuple(state.request.conditions),
             tuple(state.request.attributes))
            for state in states
        )

    def _staging_writer(self, file_writers: dict[Any, StagedFile],
                        memory_capture: dict[Any, list[Any]],
                        scan: ScanStats, pooled: bool,
                        ) -> (InlineStagingWriter | PipelinedStagingWriter
                              | ParallelStagingWriter | None):
        """Where the scan's staged rows go (None when nothing is staged).

        Inline scans append on the calling thread; pooled scans hand
        each partition's rows to a writer thread — one per output file
        on multi-file split scans — so flushes overlap counting.
        """
        if not file_writers and not memory_capture:
            return None
        if not pooled:
            return InlineStagingWriter(file_writers, memory_capture)
        if len(file_writers) > 1 and self._config.scan_split_writers:
            writer = ParallelStagingWriter(file_writers, memory_capture)
            scan.split_writers = writer.n_writers
            return writer
        return PipelinedStagingWriter(file_writers, memory_capture)

    def _partitions(self, schedule: Any, row_iter: Iterator[Any],
                    columnar: bool, partition_rows: int,
                    watch: _StopWatch) -> Iterator[Any]:
        """The scan's ordered partition source.

        Columnar partitions are encoded from cursor rows (SERVER),
        assembled from the staged file's int32 blocks (FILE) or sliced
        zero-copy from the memory set's one encoding (MEMORY).  The
        last two drop the row iterator unread, which reads and charges
        nothing (``_rows_for`` already charged the memory read).
        """
        if not columnar:
            return _slice_partitions(row_iter, partition_rows)
        if schedule.mode is DataLocation.SERVER:
            return _columnar_slices(row_iter, partition_rows, watch)
        _close_source(row_iter)
        staging = self._staging
        if schedule.mode is DataLocation.FILE:
            return _columnar_file_slices(
                staging.file_for(schedule.source_node).scan_blocks(),
                partition_rows, watch,
            )
        started = time.perf_counter()
        table = staging.columnar_memory(schedule.source_node)
        watch.add(started)
        return _columnar_memory_slices(table, partition_rows)

    def _count_partitioned(self, schedule: Any, row_iter: Iterator[Any],
                           states: list[_NodeCount],
                           file_writers: dict[Any, StagedFile],
                           memory_capture: dict[Any, list[Any]],
                           scan: ScanStats, n_workers: int,
                           partition_rows: int) -> None:
        """The counting loop: partition, count, merge, stage, admit.

        Batches of at most ``MAX_SLOTS`` nodes (with ``scan_columnar``
        on) count columnar partitions with
        :func:`~repro.core.vector_kernel.count_partition_columnar`,
        which returns per-node count blocks plus selected-row index
        arrays that are decoded back to rows from the partition; wider
        batches count row-tuple partitions with
        :func:`~repro.core.scan_pool._count_partition`.

        At one worker each partition is counted inline and folded at
        once.  With more workers partitions go to the worker pool (at
        most ``2 × workers`` in flight, collected in submission order);
        pooled SERVER scans pull through a bounded
        :class:`_PartitionProducer`, and process pools ship columnar
        partitions through witnessed shared-memory segments.  Staged
        rows are put in partition order either way, so staged files and
        memory captures are identical for any worker count.

        The row source is consumed by exactly one thread, so simulated
        per-row meter charges accrue exactly once.  §4.1.1 admission
        runs on the merged sizes afterwards (:meth:`_admit_merged`).
        On failure the scan stops the producer (or closes the source),
        drains outstanding futures, aborts the staging writer and
        releases every segment *before* re-raising; the caller then
        abandons the files and reservations.
        """
        columnar = self._config.scan_columnar and len(states) <= MAX_SLOTS
        scan.kernel = True
        scan.columnar = columnar
        scan.workers = n_workers
        scan.partition_rows = partition_rows
        ctx = self._routing_context(states)
        n_probes = ctx[0].n_probes
        stage_nodes = tuple(file_writers)
        capture_nodes = tuple(memory_capture)
        count: Callable[..., Any] = (
            count_partition_columnar if columnar else _count_partition
        )
        fold: Callable[[Any, Any], None] = (
            fold_payload if columnar else CCTable.merge
        )

        encode_watch = _StopWatch()
        ship_watch = _StopWatch()
        partitions = self._partitions(
            schedule, row_iter, columnar, partition_rows, encode_watch
        )
        pool: ScanWorkerPool | None = None
        owned = False
        shipper: ShmShipper | None = None
        producer: _PartitionProducer | None = None
        if n_workers > 1:
            pool, owned = self._install_pool(states, ctx, scan)
            if (columnar and pool.kind == "process"
                    and self._config.scan_shared_memory
                    and shm_available()):
                shipper = ShmShipper()
            prefetch = self._config.scan_prefetch_partitions
            if schedule.mode is DataLocation.SERVER and prefetch > 0:
                producer = _PartitionProducer(
                    partitions, prefetch,
                    max_depth=self._adaptive_prefetch_cap(prefetch),
                )
                partitions = producer.partitions()
                scan.prefetch_depth = prefetch
        writer = self._staging_writer(
            file_writers, memory_capture, scan, pooled=pool is not None
        )

        #: seq -> (columnar partition pinned for staged-row decode |
        #: None, shm segment name | None); entries live from submit
        #: until collect, so a failed scan can release everything.
        pinned: dict[int, tuple[ColumnarPartition | None, str | None]] = {}

        def collect(result: Any) -> None:
            seq, parts, routed, writes, captures, seconds = result
            partition, segment = pinned.pop(seq)
            if shipper is not None and segment is not None:
                shipper.release(segment)
            scan.rows_routed += routed
            scan.worker_seconds.append(seconds)
            merge_started = time.perf_counter()
            for state, part in zip(states, parts):
                fold(state.cc, part)
            scan.merge_seconds += time.perf_counter() - merge_started
            if writer is not None:
                if partition is not None:
                    writes = {
                        node_id: partition.rows_at(idx)
                        for node_id, idx in writes.items() if len(idx)
                    }
                    captures = {
                        node_id: partition.rows_at(idx)
                        for node_id, idx in captures.items() if len(idx)
                    }
                writer.put(writes, captures)

        inflight: deque[Any] = deque()
        max_inflight = max(2, 2 * n_workers)
        try:
            for seq, partition in enumerate(partitions):
                n_rows = partition.n_rows if columnar else len(partition)
                scan.rows_seen += n_rows
                scan.matcher_evals += n_probes * n_rows
                decode = (
                    partition if columnar and writer is not None else None
                )
                if pool is None:
                    pinned[seq] = (decode, None)
                    collect(count(ctx, seq, partition, stage_nodes,
                                  capture_nodes))
                    continue
                shipped: Any = partition
                segment: str | None = None
                if shipper is not None:
                    ship_started = time.perf_counter()
                    shipped = shipper.ship(partition)
                    ship_watch.add(ship_started)
                    segment = shipped.segment
                pinned[seq] = (decode, segment)
                submit: Callable[..., Any] = (
                    pool.submit_columnar if columnar else pool.submit
                )
                inflight.append(
                    submit(seq, shipped, stage_nodes, capture_nodes)
                )
                if len(inflight) >= max_inflight:
                    collect(inflight.popleft().result())
            while inflight:
                collect(inflight.popleft().result())
            if writer is not None:
                writer.close()
        except BaseException as exc:
            if producer is not None:
                producer.stop()
            else:
                _close_source(partitions)
            if pool is not None:
                pool.drain(inflight)
            if writer is not None:
                writer.abort()
            if shipper is not None:
                shipper.close()
            if pool is not None:
                pool.retire_broken(exc)
            raise
        finally:
            pinned.clear()
            if shipper is not None:
                # Idempotent: releases only what a failure left behind.
                shipper.close()
            scan.encode_seconds = encode_watch.seconds
            scan.ship_seconds = ship_watch.seconds
            if producer is not None:
                scan.prefetch_peak = producer.peak_depth
            if pool is not None and owned:
                pool.close()

        self._admit_merged(states, scan)
        if pool is not None:
            self._sizer.observe(scan.worker_seconds, partition_rows)

    def _adaptive_prefetch_cap(self, prefetch: int) -> int:
        """Ceiling for adaptive prefetch growth (2× the configured depth)."""
        if not self._config.scan_adaptive_partitions:
            return prefetch
        return prefetch * 2

    def _admit_merged(self, states: list[_NodeCount],
                      scan: ScanStats) -> None:
        """Deterministic §4.1.1 admission on the merged sizes."""
        budget = self._budget
        for state in states:
            needed = state.cc.size_bytes
            if needed > state.reserved:
                deficit = needed - state.reserved
                if budget.try_reserve(_cc_tag(state.request.node_id),
                                      deficit):
                    state.reserved = needed
                else:
                    self._abandon(state, states, scan)

    def _count_rows(
        self,
        row_iter: Iterator[Any],
        matchers: list[tuple[_NodeCount, Callable[[Sequence[Any]], bool]]],
        file_writers: dict[Any, StagedFile],
        memory_capture: dict[Any, list[Any]],
        scan: ScanStats,
    ) -> None:
        """The reference per-row matcher loop (``scan_kernel = False``)."""
        attribute_names = self._spec.attribute_names
        class_index = self._class_index
        budget = self._budget
        n_matchers = len(matchers)

        for row in row_iter:
            scan.rows_seen += 1
            scan.matcher_evals += n_matchers
            routed = False
            values: dict[str, Any] | None = None
            # A frontier is an antichain, so normally exactly one node
            # matches; updating every match keeps the module correct
            # even for overlapping request sets.
            for target, match in matchers:
                if not match(row):
                    continue
                routed = True
                node_id = target.request.node_id

                if not target.abandoned:
                    if values is None:
                        values = dict(zip(attribute_names, row))
                    new_pairs = target.cc.count_row(values, row[class_index])
                    if new_pairs:
                        needed = target.cc.size_bytes
                        if needed > target.reserved:
                            deficit = needed - target.reserved
                            if budget.try_reserve(_cc_tag(node_id), deficit):
                                target.reserved = needed
                            else:
                                # Section 4.1.1: no new entries fit.
                                self._abandon(
                                    target,
                                    [state for state, _ in matchers],
                                    scan,
                                )

                writer = file_writers.get(node_id)
                if writer is not None:
                    writer.append(row)
                capture = memory_capture.get(node_id)
                if capture is not None:
                    capture.append(row)
            if routed:
                scan.rows_routed += 1

    def _abandon(self, target: _NodeCount, states: list[_NodeCount],
                 scan: ScanStats) -> None:
        """Handle a CC-memory overflow for one node (Section 4.1.1).

        A node sharing the scan with other *surviving* nodes is
        deferred to a later scan with a corrected size estimate; a node
        counted alone — scanned solo, or the last survivor of a batch
        whose peers all overflowed — genuinely cannot fit and switches
        to SQL-based lazy counting (deferring it would only replay the
        same solo overflow on the next scan).
        """
        budget = self._budget
        request = target.request
        observed_pairs = target.cc.n_pairs
        target.cc = None
        budget.release(_cc_tag(request.node_id))
        target.reserved = 0
        surviving_peers = sum(
            1 for state in states
            if state is not target and not state.abandoned
        )
        if surviving_peers:
            target.deferred = True
            # The estimate was too low: raise it to what was actually
            # observed (a lower bound on the true size) so the next
            # admission reserves realistically.
            request.est_cc_pairs = max(request.est_cc_pairs + 1,
                                       observed_pairs)
            scan.deferrals += 1
        else:
            target.fallback = True
            scan.sql_fallbacks += 1

    # -- wrap-up ---------------------------------------------------------------

    def _finish(
        self, states: list[_NodeCount], schedule: Any, scan: ScanStats
    ) -> tuple[list[CountsResult], list[Any]]:
        results = []
        deferred = []
        for state in states:
            request = state.request
            if state.deferred:
                deferred.append(request)
                continue
            if state.fallback:
                cc = counts_via_sql(
                    self._server,
                    self._table_name,
                    self._spec,
                    request.attributes,
                    request.predicate
                    if request.conditions else None,
                )
            else:
                cc = state.cc
            if cc.records != request.n_rows:
                raise MiddlewareError(
                    f"node {request.node_id!r}: counted {cc.records} rows "
                    f"but the parent CC table promised {request.n_rows}"
                )
            results.append(
                CountsResult(
                    request.node_id,
                    cc,
                    schedule.mode,
                    used_sql_fallback=state.fallback,
                )
            )
            scan.nodes_served += 1
        return results, deferred

    def _release_cc_reservations(self, states: list[_NodeCount]) -> None:
        for state in states:
            self._budget.release(_cc_tag(state.request.node_id))
