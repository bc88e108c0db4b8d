"""The persistent scan-worker pool behind the parallel scan executor.

The paper's batching argument (§4) is that one shared sequential scan
amortizes CC-table construction across all active nodes; any fixed
per-scan overhead erodes exactly that win.  The first parallel
executor paid one such overhead on every scan: it built a fresh
``ThreadPoolExecutor``/``ProcessPoolExecutor`` (forking W processes in
the worst case), shipped the compiled routing kernel to each worker
through the pool initializer, counted one scan, and tore everything
down again.

:class:`ScanWorkerPool` makes the pool a *session*-lifetime resource:

* it is owned by the :class:`~repro.core.middleware.Middleware`
  session, created lazily on the first scan that goes parallel, reused
  by every later scan, and shut down in ``Middleware.close()``;
* each scan *installs* its routing context (compiled kernel, slot
  table, class index) before submitting partitions.  Installation is
  generation-counted: worker-side state is refreshed only when the
  schedule's kernel actually changed — a retried or repeated schedule
  reuses the already-installed context;
* thread workers read the installed context by reference (shared
  memory); process workers receive ``(generation, payload)`` with each
  partition and unpickle the payload only when their cached generation
  is stale, so a scan's kernel is pickled once on the coordinator and
  decoded at most once per worker process, never once per partition;
* a scan that fails mid-flight :meth:`drain`\\ s its outstanding
  futures — cancelling queued partitions and waiting out running ones
  — so the next scan reuses a pool with no stale work in it, and
  :meth:`retire_broken` recycles the executor when the failure killed
  it (e.g. a dead process worker), letting the next scan transparently
  rebuild.

Worker tasks return only additive, order-independent state (per-slot
CC partials, routed counts, staged-row buffers), so everything the
coordinator merges is independent of completion order; staging output
is applied strictly in partition order by the caller.  Workers never
touch the memory budget, the cost meter, or any file.
"""

from __future__ import annotations

import pickle
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Any, Iterable, Sequence

from ..common.errors import MiddlewareError
from ..common.locks import new_lock, resource_closed, resource_created
from ..sqlengine.columnar import ColumnarPartition
from .cc_table import CCTable
from .shm import ShmPartitionHandle, attach_readonly, partition_from_handle
from .vector_kernel import count_partition_columnar

#: Worker-process routing-context cache: ``(generation, ctx)``.  One
#: slot per process is safe because a worker serves one pool, and a
#: pool installs contexts with strictly increasing generations.
_PROCESS_CTX: tuple[int, Any] = (0, None)


def reset_process_context() -> None:
    """Reset the module-level worker routing-context cache.

    ``_PROCESS_CTX`` lives in a module global so process workers can
    cache an unpickled context between partitions.  Inside the
    *coordinator* process the same global is touched whenever tests
    call the worker functions directly — without an explicit reset, a
    kernel installed by one pool could leak into the next pool's first
    scan at the same generation number.
    :meth:`ScanWorkerPool.close` calls this, and test fixtures use it
    to isolate cases from each other.
    """
    global _PROCESS_CTX
    _PROCESS_CTX = (0, None)


def _count_partition(
    ctx: Any,
    seq: int,
    rows: Sequence[Any],
    stage_nodes: Iterable[Any],
    capture_nodes: Iterable[Any],
) -> tuple[int, list[CCTable], int, dict[Any, list[Any]], dict[Any, list[Any]], float]:
    """Count one row partition against a routing context.

    Runs inside a worker (thread or process), or inline on the
    coordinator for scans counted at one worker.  Returns only additive,
    order-independent state — per-slot CC partials, the routed-row
    count, and the rows destined for each staging target — so the
    coordinator can merge partials in any completion order and apply
    staging output in partition (``seq``) order.
    """
    kernel, slots, class_index, n_classes = ctx
    started = time.perf_counter()
    partials = [
        CCTable(attributes, n_classes) for _, attributes, _ in slots
    ]
    writes: dict[Any, list[Any]] = {node_id: [] for node_id in stage_nodes}
    captures: dict[Any, list[Any]] = {
        node_id: [] for node_id in capture_nodes
    }
    route = kernel.route
    routed = 0
    for row in rows:
        mask = route(row)
        if not mask:
            continue
        routed += 1
        while mask:
            low_bit = mask & -mask
            mask ^= low_bit
            slot = low_bit.bit_length() - 1
            node_id, _, attr_positions = slots[slot]
            partials[slot].count_row_at(
                row, attr_positions, row[class_index]
            )
            buffer = writes.get(node_id)
            if buffer is not None:
                buffer.append(row)
            buffer = captures.get(node_id)
            if buffer is not None:
                buffer.append(row)
    return seq, partials, routed, writes, captures, \
        time.perf_counter() - started


def _count_partition_pickled(
    generation: int,
    payload: bytes,
    seq: int,
    rows: Sequence[Any],
    stage_nodes: Iterable[Any],
    capture_nodes: Iterable[Any],
) -> tuple[int, list[CCTable], int, dict[Any, list[Any]], dict[Any, list[Any]], float]:
    """Process-pool task: refresh the cached context when stale."""
    global _PROCESS_CTX
    cached_generation, ctx = _PROCESS_CTX
    if cached_generation != generation:
        ctx = pickle.loads(payload)
        _PROCESS_CTX = (generation, ctx)
    return _count_partition(ctx, seq, rows, stage_nodes, capture_nodes)


def _count_columnar_pickled(
    generation: int,
    payload: bytes,
    seq: int,
    partition: ColumnarPartition,
    stage_nodes: Iterable[Any],
    capture_nodes: Iterable[Any],
) -> tuple[int, list[Any], int, dict[Any, Any], dict[Any, Any], float]:
    """Process-pool task over a pickled columnar partition.

    The fallback shipping path when shared memory is unavailable or
    disabled: the partition's column arrays travel through pickle, but
    counting is still vectorized.
    """
    global _PROCESS_CTX
    cached_generation, ctx = _PROCESS_CTX
    if cached_generation != generation:
        ctx = pickle.loads(payload)
        _PROCESS_CTX = (generation, ctx)
    return count_partition_columnar(
        ctx, seq, partition, stage_nodes, capture_nodes
    )


def _count_columnar_shm(
    generation: int,
    payload: bytes,
    seq: int,
    handle: ShmPartitionHandle,
    stage_nodes: Iterable[Any],
    capture_nodes: Iterable[Any],
) -> tuple[int, list[Any], int, dict[Any, Any], dict[Any, Any], float]:
    """Process-pool task over a shared-memory partition handle.

    Only the handle (segment name + column offsets) was pickled; the
    worker attaches read-only, counts over zero-copy views, then drops
    every view *before* closing its attachment (closing a segment with
    live numpy views raises ``BufferError``).  The coordinator owns the
    segment and unlinks it after the merge.
    """
    global _PROCESS_CTX
    cached_generation, ctx = _PROCESS_CTX
    if cached_generation != generation:
        ctx = pickle.loads(payload)
        _PROCESS_CTX = (generation, ctx)
    segment = attach_readonly(handle.segment)
    try:
        partition = partition_from_handle(segment, handle)
        try:
            return count_partition_columnar(
                ctx, seq, partition, stage_nodes, capture_nodes
            )
        finally:
            del partition
    finally:
        try:
            segment.close()
        except BufferError:  # pragma: no cover - views still alive
            pass


def _mark_future_done(future: Future[Any]) -> None:
    """Done-callback telling the resource witness a future completed.

    Fires on normal completion, error and cancellation alike, so any
    future still *pending* at sanitizer report time is work a failed
    scan left behind in the executor instead of draining.
    """
    resource_closed("future", future)


class ScanWorkerPool:
    """A reusable worker pool for partitioned scans.

    Lifecycle: construct cheaply (no executor yet), :meth:`install` a
    scan's routing context (which lazily creates the executor),
    :meth:`submit` partitions, and :meth:`close` once at session end.
    ``install``/``submit`` may be repeated for any number of scans.
    """

    def __init__(self, kind: str, n_workers: int) -> None:
        if kind not in ("thread", "process"):
            raise MiddlewareError(f"unknown scan pool kind: {kind!r}")
        if n_workers < 1:
            raise MiddlewareError("scan pool needs at least one worker")
        self.kind = kind
        self.n_workers = n_workers
        #: Serialises executor lifecycle transitions: the middleware's
        #: shared pool can see ``close()``/``retire_broken()`` racing a
        #: late ``_ensure_executor()`` from another thread.
        self._lock = new_lock("ScanWorkerPool._lock")
        #: guarded by self._lock
        self._executor: Executor | None = None
        #: guarded by self._lock
        self._closed = False
        # Monotone per-install counter; process workers cache by it.
        #: guarded by self._lock
        self._generation = 0
        #: guarded by self._lock
        self._signature: Any = None
        #: guarded by self._lock
        self._ctx: tuple[Any, Any, int, int] | None = None
        #: guarded by self._lock
        self._payload: bytes | None = None
        # -- observability ------------------------------------------------
        #: Executors created over the pool's lifetime (1 = fully warm
        #: reuse; grows only on first use or after a broken executor).
        self.pools_created = 0
        #: Contexts actually (re)installed — scans whose kernel differed
        #: from the previously installed one.
        self.kernels_installed = 0
        #: Scans that ran through this pool.
        self.scans_served = 0

    @property
    def active(self) -> bool:
        """True when a live executor is standing by (the pool is warm)."""
        return self._executor is not None

    def _ensure_executor(self) -> float:
        """Create the executor lazily; returns creation seconds."""
        with self._lock:
            if self._closed:
                raise MiddlewareError("scan-worker pool is already closed")
            if self._executor is not None:
                return 0.0
            started = time.perf_counter()
            executor_cls = (
                ProcessPoolExecutor if self.kind == "process"
                else ThreadPoolExecutor
            )
            self._executor = executor_cls(max_workers=self.n_workers)
            resource_created(
                "executor", self._executor,
                f"{self.kind} pool, {self.n_workers} workers",
            )
            self.pools_created += 1
            return time.perf_counter() - started

    def install(self, signature: Any, kernel: Any, slots: Any,
                class_index: int, n_classes: int) -> float:
        """Install one scan's routing context; returns setup seconds.

        ``signature`` is any equality-comparable description of the
        schedule's kernel; worker-side state is refreshed only when it
        differs from the currently installed one, so repeated or
        retried schedules pay no re-broadcast.
        """
        setup_seconds = self._ensure_executor()
        # Two sessions sharing the middleware's pool can install
        # concurrently; without the lock the generation bump, context
        # and signature tear, leaving a generation paired with another
        # install's kernel.  (``_ensure_executor`` takes the same
        # plain lock internally, so it must complete first.)
        with self._lock:
            if self._signature is None or signature != self._signature:
                started = time.perf_counter()
                self._generation += 1
                self._ctx = (kernel, slots, class_index, n_classes)
                if self.kind == "process":
                    self._payload = pickle.dumps(
                        self._ctx, pickle.HIGHEST_PROTOCOL
                    )
                self._signature = signature
                self.kernels_installed += 1
                setup_seconds += time.perf_counter() - started
            self.scans_served += 1
        return setup_seconds

    def submit(self, seq: int, rows: Sequence[Any],
               stage_nodes: Iterable[Any],
               capture_nodes: Iterable[Any]) -> Future[Any]:
        """Submit one partition against the installed context."""
        executor = self._executor
        if self._ctx is None or executor is None:
            raise MiddlewareError("install a routing context first")
        if self.kind == "process":
            payload = self._payload
            if payload is None:
                raise MiddlewareError("install a routing context first")
            future = executor.submit(
                _count_partition_pickled, self._generation, payload,
                seq, rows, stage_nodes, capture_nodes,
            )
        else:
            future = executor.submit(
                _count_partition, self._ctx, seq, rows, stage_nodes,
                capture_nodes,
            )
        resource_created("future", future, f"scan partition {seq}")
        future.add_done_callback(_mark_future_done)
        return future

    def submit_columnar(self, seq: int, partition: Any,
                        stage_nodes: Iterable[Any],
                        capture_nodes: Iterable[Any]) -> Future[Any]:
        """Submit one columnar partition (or shm handle) for counting.

        Thread pools count the partition in place (shared memory by
        construction).  Process pools dispatch on what the executor
        shipped: a :class:`ShmPartitionHandle` attaches to the
        coordinator's segment, a plain partition travels via pickle.
        """
        executor = self._executor
        if self._ctx is None or executor is None:
            raise MiddlewareError("install a routing context first")
        if self.kind == "process":
            payload = self._payload
            if payload is None:
                raise MiddlewareError("install a routing context first")
            task = (
                _count_columnar_shm
                if isinstance(partition, ShmPartitionHandle)
                else _count_columnar_pickled
            )
            future = executor.submit(
                task, self._generation, payload, seq, partition,
                stage_nodes, capture_nodes,
            )
        else:
            future = executor.submit(
                count_partition_columnar, self._ctx, seq, partition,
                stage_nodes, capture_nodes,
            )
        resource_created("future", future, f"columnar partition {seq}")
        future.add_done_callback(_mark_future_done)
        return future

    def drain(self, futures: Iterable[Future[Any]]) -> None:
        """Cancel/await outstanding futures of a failed scan.

        Queued partitions are cancelled; running ones are waited out
        (their results and errors discarded), so the executor holds no
        work from the failed scan when the next scan reuses it.  Never
        raises.
        """
        for future in futures:
            future.cancel()
        for future in futures:
            try:
                future.exception()
            except BaseException:
                pass  # cancelled, or the pool itself broke

    def retire_broken(self, exc: BaseException) -> None:
        """Recycle the executor when ``exc`` says it broke mid-scan.

        A dead process worker leaves a ``BrokenExecutor`` behind; the
        executor is shut down and dropped so the next scan's
        :meth:`install` transparently builds a fresh one (the installed
        context is kept — new workers re-fetch it by generation).
        """
        if not isinstance(exc, BrokenExecutor):
            return
        with self._lock:
            executor = self._executor
            self._executor = None
        if executor is not None:
            # shutdown() outside the lock: waiting for workers while
            # holding it would block a concurrent close().
            executor.shutdown(wait=True)
            resource_closed("executor", executor)

    def close(self) -> None:
        """Shut the executor down; the pool cannot be used afterwards.

        Also resets the module-level worker context cache so the next
        pool in this interpreter starts from a clean generation-0
        state (see :func:`reset_process_context`).
        """
        with self._lock:
            executor = self._executor
            self._executor = None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=True)
            resource_closed("executor", executor)
        reset_process_context()

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "warm" if self.active else "cold"
        )
        return (
            f"ScanWorkerPool(kind={self.kind!r}, workers={self.n_workers}, "
            f"{state}, created={self.pools_created}, "
            f"installs={self.kernels_installed}, "
            f"scans={self.scans_served})"
        )
