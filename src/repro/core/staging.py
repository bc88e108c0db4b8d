"""Data staging: server → middleware file system → middleware memory.

As the tree grows, the relevant data set shrinks monotonically, so the
middleware copies ("stages") data downwards (Section 4.1.2):

* **FILE** — a node's rows are written to a middleware staging file;
  scanning it is much cheaper than a server scan, but still reads the
  *whole* file.  Files can be *split* (Section 4.3.2): when the active
  nodes being served cover a small fraction of a file, fresh per-node
  files are written so future scans read less.
* **MEMORY** — a node's rows are loaded into middleware memory,
  accounted against the same :class:`~repro.common.memory.MemoryBudget`
  as CC tables; scans become nearly free.

Staging files are real files: fixed-width little-endian int32 records
under a temporary directory, one file per staged node.
"""

from __future__ import annotations

import enum
import os
import queue
import struct
import tempfile
import threading

from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..common.errors import StagingError
from ..common.locks import new_lock, resource_closed, resource_created
from ..sqlengine.columnar import ColumnarPartition, np


class DataLocation(enum.IntEnum):
    """Where a node's data currently lives (ordered worst to best)."""

    SERVER = 0
    FILE = 1
    MEMORY = 2

    @property
    def tag(self) -> str:
        """The paper's single-letter node prefix (Fig. 1): S / I / L."""
        return {self.SERVER: "S", self.FILE: "I", self.MEMORY: "L"}[self]


class StagedFile:
    """One middleware staging file holding a node's rows.

    I/O is blocked: writes accumulate packed records in a buffer that
    is flushed every :data:`BLOCK_ROWS` rows (and at :meth:`seal`), and
    :meth:`scan` reads multi-row blocks decoded with
    ``struct.iter_unpack``.  Cost metering is unchanged — the simulated
    per-row file I/O charges are accumulated by row count exactly as
    the record-at-a-time implementation charged them.
    """

    #: Rows per physical I/O block (writes buffer up to this many
    #: packed records; reads fetch this many records per ``read``).
    BLOCK_ROWS = 1024

    def __init__(self, path: str, n_fields: int, owner_node: Any,
                 meter: Any, model: Any) -> None:
        self._path = path
        self._struct = struct.Struct(f"<{n_fields}i")
        self.owner_node = owner_node
        self._meter = meter
        self._model = model
        self._row_count = 0
        self._handle = open(path, "wb")
        self._writing = True
        self._buffer: list[bytes] = []
        #: Scans currently iterating this file (guards `delete`).
        self._active_scans = 0
        #: Physical I/O blocks flushed so far (observability; a
        #: zero-row append must never bump this).
        self.blocks_flushed = 0
        #: ``append``/``append_rows`` calls that actually added rows.
        self.write_calls = 0
        # The open write handle is a witnessed resource: it is retired
        # by seal() (clean) or delete() (abandoned); a staged file the
        # scan opened and then forgot is a sanitizer leak finding.
        resource_created("staged-file", self, f"owner={owner_node!r}")

    @property
    def path(self) -> str:
        return self._path

    @property
    def row_count(self) -> int:
        return self._row_count

    def append(self, row: Sequence[int]) -> None:
        """Buffer one row for writing."""
        if not self._writing:
            raise StagingError("staged file is already sealed")
        self._buffer.append(self._struct.pack(*row))
        self._row_count += 1
        self.write_calls += 1
        if len(self._buffer) >= self.BLOCK_ROWS:
            self._flush()

    def append_rows(self, rows: Iterable[Sequence[int]]) -> None:
        """Buffer many rows at once (one flush check per block).

        An empty iterable is a strict no-op: a zero-row split partition
        must not bump flush counters, force a physical flush, or change
        what :meth:`seal` will meter — so serial and parallel scans
        (whose partitioning can hand a writer empty slices) account
        identically.
        """
        if not self._writing:
            raise StagingError("staged file is already sealed")
        pack = self._struct.pack
        packed = [pack(*row) for row in rows]
        if not packed:
            return
        self._buffer.extend(packed)
        self._row_count += len(packed)
        self.write_calls += 1
        if len(self._buffer) >= self.BLOCK_ROWS:
            self._flush()

    def _flush(self) -> None:
        if self._buffer:
            self._handle.write(b"".join(self._buffer))
            self._buffer.clear()
            self.blocks_flushed += 1

    def seal(self) -> None:
        """Finish writing and charge the accumulated write cost."""
        if self._writing:
            self._flush()
            self._handle.close()
            self._writing = False
            resource_closed("staged-file", self)
            self._meter.charge(
                "file_write",
                self._model.file_write_row * self._row_count,
                events=self._row_count,
            )

    def scan(self) -> Iterator[tuple[int, ...]]:
        """Yield all rows; charges per-row file-read cost.

        Determinism guards: the file must be sealed first (every scan
        of a staged file sees exactly the committed ``row_count`` rows,
        never a torn prefix), and a sealed file can never carry
        unflushed rows.  Several scans may iterate concurrently — each
        opens its own handle and meters its own rows — but the file
        cannot be deleted while any of them is active.
        """
        if self._writing:
            raise StagingError("seal the file before scanning it")
        if self._buffer:
            raise StagingError(
                "sealed staging file still holds unflushed rows"
            )
        record = self._struct
        block = record.size * self.BLOCK_ROWS
        rows_read = 0
        self._active_scans += 1
        try:
            with open(self._path, "rb") as handle:
                while True:
                    chunk = handle.read(block)
                    usable = len(chunk) - len(chunk) % record.size
                    if not usable:
                        break
                    for row in record.iter_unpack(chunk[:usable]):
                        rows_read += 1
                        yield row
                    if len(chunk) < block:
                        break
        finally:
            self._active_scans -= 1
            self._meter.charge(
                "file_read",
                self._model.file_row_io * rows_read,
                events=rows_read,
            )

    #: meter parity with StagedFile.scan
    def scan_blocks(self) -> Iterator[Any]:
        """Yield row blocks as int32 matrices (the columnar scan path).

        Same guards, same concurrency accounting and — crucially — the
        same simulated metering as :meth:`scan`: the per-row file-read
        charge accrues in the ``finally`` for exactly the rows read.
        Each yielded block is a ``(rows, n_fields)`` little-endian
        int32 array decoded straight from the packed record bytes
        (no per-row ``struct`` unpacking).
        """
        if self._writing:
            raise StagingError("seal the file before scanning it")
        if self._buffer:
            raise StagingError(
                "sealed staging file still holds unflushed rows"
            )
        record = self._struct
        n_fields = record.size // 4
        block = record.size * self.BLOCK_ROWS
        rows_read = 0
        self._active_scans += 1
        try:
            with open(self._path, "rb") as handle:
                while True:
                    chunk = handle.read(block)
                    usable = len(chunk) - len(chunk) % record.size
                    if not usable:
                        break
                    matrix = np.frombuffer(
                        chunk[:usable], dtype="<i4"
                    ).reshape(-1, n_fields)
                    rows_read += int(matrix.shape[0])
                    yield matrix
                    if len(chunk) < block:
                        break
        finally:
            self._active_scans -= 1
            self._meter.charge(
                "file_read",
                self._model.file_row_io * rows_read,
                events=rows_read,
            )

    def delete(self) -> None:
        """Remove the file from disk."""
        if self._active_scans:
            raise StagingError(
                f"cannot delete {self._path!r}: "
                f"{self._active_scans} scan(s) still active"
            )
        if self._writing:
            self._buffer.clear()
            self._handle.close()
            self._writing = False
            resource_closed("staged-file", self)
        if os.path.exists(self._path):
            os.remove(self._path)

    def __repr__(self) -> str:
        return (
            f"StagedFile(owner={self.owner_node!r}, rows={self._row_count})"
        )


def _apply_staged_rows(file_writers: Mapping[Any, StagedFile],
                       memory_capture: Mapping[Any, list[Any]],
                       file_rows: Mapping[Any, list[Any]],
                       capture_rows: Mapping[Any, list[Any]]) -> None:
    """Append one partition's staged rows to its files and captures."""
    for node_id, rows in file_rows.items():
        if rows:
            file_writers[node_id].append_rows(rows)
    for node_id, rows in capture_rows.items():
        if rows:
            memory_capture[node_id].extend(rows)


class InlineStagingWriter:
    """Staging output of a scan counted inline at one worker.

    The same ``put`` / ``close`` / ``abort`` interface as the threaded
    writers below, but each partition's rows are appended on the
    calling thread as the partition is collected, so an inline scan
    starts no thread.  Call order is partition order, so staged files
    come out identical to a pooled scan's.
    """

    def __init__(self, file_writers: Mapping[Any, StagedFile],
                 memory_capture: Mapping[Any, list[Any]]) -> None:
        self._file_writers = file_writers
        self._memory_capture = memory_capture

    def put(self, file_rows: Mapping[Any, list[Any]],
            capture_rows: Mapping[Any, list[Any]]) -> None:
        """Append one partition's staged rows (in partition order)."""
        _apply_staged_rows(self._file_writers, self._memory_capture,
                           file_rows, capture_rows)

    def close(self) -> None:
        """Nothing is buffered here: every :meth:`put` has landed."""

    def abort(self) -> None:
        """Nothing to stop; the caller abandons the files."""


class PipelinedStagingWriter:
    """Single-writer funnel for a parallel scan's staging output.

    Scan workers never touch staging files.  The scan coordinator
    queues each partition's staged rows here *in partition order*, and
    one background thread appends them to the staging files and
    memory-capture lists while later partitions are still being
    counted — block flushes overlap counting instead of serializing
    behind it.  Ordered submission keeps staged files bit-identical to
    a serial scan's.

    The queue is bounded (default depth 2 — double buffering: one
    block being flushed, one queued behind it), so a slow disk applies
    backpressure to the scan instead of buffering unbounded rows.

    Writer-thread failures are captured and re-raised on the next
    :meth:`put` or at :meth:`close`; once an error is recorded the
    thread keeps draining the queue without writing, so producers are
    never left blocked on a full queue.
    """

    _STOP = object()

    def __init__(self, file_writers: Mapping[Any, StagedFile],
                 memory_capture: Mapping[Any, list[Any]],
                 depth: int = 2) -> None:
        self._file_writers = file_writers
        self._memory_capture = memory_capture
        self._queue: queue.Queue[Any] = queue.Queue(maxsize=max(1, depth))
        self._error_lock = new_lock("PipelinedStagingWriter._error_lock")
        #: guarded by self._error_lock
        self._error: BaseException | None = None
        self._closed = False
        self._thread = threading.Thread(
            target=self._drain, name="staging-writer", daemon=True
        )
        self._thread.start()
        resource_created("staging-writer", self, "pipelined funnel")

    def put(self, file_rows: Mapping[Any, list[Any]],
            capture_rows: Mapping[Any, list[Any]]) -> None:
        """Queue one partition's staged rows.

        ``file_rows`` / ``capture_rows`` map node_id -> row list; the
        caller must submit partitions in scan order.
        """
        if self._error is not None:
            raise self._error
        if self._closed:
            raise StagingError("staging writer is already closed")
        if file_rows or capture_rows:
            self._queue.put((file_rows, capture_rows))

    def _drain(self) -> None:
        while True:
            item = self._queue.get()
            if item is self._STOP:
                return
            if self._error is not None:
                continue  # keep draining so producers never block
            file_rows, capture_rows = item
            try:
                _apply_staged_rows(self._file_writers, self._memory_capture,
                                   file_rows, capture_rows)
            except BaseException as exc:  # surfaced to the producer
                with self._error_lock:
                    if self._error is None:
                        self._error = exc

    def close(self) -> None:
        """Flush everything and surface any writer-thread error."""
        self._shutdown()
        if self._error is not None:
            raise self._error

    def abort(self) -> None:
        """Stop without raising (the scan is already failing)."""
        self._shutdown()

    def _shutdown(self) -> None:
        if not self._closed:
            self._closed = True
            self._queue.put(self._STOP)
            self._thread.join()
            resource_closed("staging-writer", self)


class ParallelStagingWriter:
    """Per-file writer threads for a parallel scan's staging output.

    The §4.3.2 file-split path can open many output files in one scan
    (one per surviving batch node); funnelling them all through the
    single :class:`PipelinedStagingWriter` thread serializes every
    split behind one appender.  This writer gives each output
    :class:`StagedFile` its own thread and its own bounded queue, so
    independent files flush concurrently while counting continues.

    Determinism is preserved per file: the coordinator calls
    :meth:`put` strictly in partition order, each file's rows land on
    that file's FIFO queue in that order, and a single thread drains
    each queue — so every staged file is bit-identical to a serial
    scan's.  Memory captures are applied inline on the coordinator
    (list extends are cheap and stay ordered).

    Error propagation mirrors the single-writer funnel: the first
    writer-thread failure is recorded and re-raised on the next
    :meth:`put` or at :meth:`close`; a failed thread keeps draining its
    queue without writing so the producer is never left blocked, and
    :meth:`abort` shuts every thread down without raising.
    """

    _STOP = object()

    def __init__(self, file_writers: Mapping[Any, StagedFile],
                 memory_capture: Mapping[Any, list[Any]],
                 depth: int = 2) -> None:
        self._memory_capture = memory_capture
        self._error_lock = new_lock("ParallelStagingWriter._error_lock")
        #: guarded by self._error_lock
        self._error: BaseException | None = None
        self._closed = False
        self._queues: dict[Any, queue.Queue[Any]] = {}
        self._threads: list[threading.Thread] = []
        for node_id, writer in file_writers.items():
            q: queue.Queue[Any] = queue.Queue(maxsize=max(1, depth))
            thread = threading.Thread(
                target=self._drain,
                args=(writer, q),
                name=f"staging-writer-{node_id}",
                daemon=True,
            )
            self._queues[node_id] = q
            self._threads.append(thread)
            thread.start()
        resource_created(
            "staging-writer", self, f"{len(self._threads)} split writers"
        )

    @property
    def n_writers(self) -> int:
        """Writer threads running (one per output file)."""
        return len(self._threads)

    def put(self, file_rows: Mapping[Any, list[Any]],
            capture_rows: Mapping[Any, list[Any]]) -> None:
        """Queue one partition's staged rows (in partition order)."""
        if self._error is not None:
            raise self._error
        if self._closed:
            raise StagingError("staging writer is already closed")
        for node_id, rows in file_rows.items():
            if rows:
                self._queues[node_id].put(rows)
        for node_id, rows in capture_rows.items():
            if rows:
                self._memory_capture[node_id].extend(rows)

    def _drain(self, writer: StagedFile, q: queue.Queue[Any]) -> None:
        while True:
            item = q.get()
            if item is self._STOP:
                return
            if self._error is not None:
                continue  # keep draining so the producer never blocks
            try:
                writer.append_rows(item)
            except BaseException as exc:  # surfaced to the producer
                with self._error_lock:
                    if self._error is None:
                        self._error = exc

    def close(self) -> None:
        """Flush every file and surface the first writer-thread error."""
        self._shutdown()
        if self._error is not None:
            raise self._error

    def abort(self) -> None:
        """Stop without raising (the scan is already failing)."""
        self._shutdown()

    def _shutdown(self) -> None:
        if not self._closed:
            self._closed = True
            for q in self._queues.values():
                q.put(self._STOP)
            for thread in self._threads:
                thread.join()
            resource_closed("staging-writer", self)


class StagingManager:
    """Tracks which nodes have staged data and where."""

    def __init__(self, spec: Any, meter: Any, model: Any, budget: Any,
                 staging_dir: str | None = None,
                 file_budget_bytes: int | None = None) -> None:
        self._spec = spec
        self._meter = meter
        self._model = model
        self._budget = budget
        self._file_budget = file_budget_bytes
        self._files: dict[Any, StagedFile] = {}
        self._memory: dict[Any, list[Any]] = {}
        #: Lazily built columnar encodings of in-memory data sets, so
        #: repeated scans of one staged set pay the encode
        #: once and slice zero-copy afterwards.  Pure cache: holds no
        #: budget and is invalidated whenever the rows are dropped.
        self._memory_columnar: dict[Any, ColumnarPartition] = {}
        self._n_fields = spec.n_attributes + 1
        self._row_bytes = spec.row_bytes
        self._file_counter = 0
        self._tempdir: tempfile.TemporaryDirectory[str] | None
        if staging_dir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-stage-")
            self._dir = self._tempdir.name
        else:
            self._tempdir = None
            self._dir = staging_dir
            os.makedirs(staging_dir, exist_ok=True)

    # -- budgets -----------------------------------------------------------

    @property
    def file_bytes_used(self) -> int:
        """Simulated bytes currently staged in files."""
        return sum(f.row_count * self._row_bytes for f in self._files.values())

    def file_space_for(self, n_rows: int) -> bool:
        """True if a file of ``n_rows`` fits the file-space budget."""
        if self._file_budget is None:
            return True
        needed = n_rows * self._row_bytes
        return self.file_bytes_used + needed <= self._file_budget

    def memory_bytes_for(self, n_rows: int) -> int:
        """Simulated bytes to hold ``n_rows`` in middleware memory."""
        return n_rows * self._row_bytes

    # -- lookup ------------------------------------------------------------

    def resolve(self, request: Any) -> tuple[DataLocation, Any]:
        """Best data source for ``request``: ``(location, source_node)``.

        Rule 1 ordering: an in-memory ancestor beats any file, a file
        beats the server.  Among several staged ancestors of the same
        tier, the *nearest* (deepest) one wins — its data set is the
        smallest superset of the node's.
        """
        for node_id in reversed(request.lineage):
            if node_id in self._memory:
                return DataLocation.MEMORY, node_id
        for node_id in reversed(request.lineage):
            if node_id in self._files:
                return DataLocation.FILE, node_id
        return DataLocation.SERVER, None

    def memory_rows(self, node_id: Any) -> list[Any]:
        try:
            return self._memory[node_id]
        except KeyError:
            raise StagingError(f"no memory data staged for {node_id!r}") from None

    def columnar_memory(self, node_id: Any) -> ColumnarPartition:
        """The columnar encoding of a node's in-memory rows (cached)."""
        table = self._memory_columnar.get(node_id)
        if table is None:
            table = ColumnarPartition.from_rows(self.memory_rows(node_id))
            self._memory_columnar[node_id] = table
        return table

    def file_for(self, node_id: Any) -> StagedFile:
        try:
            return self._files[node_id]
        except KeyError:
            raise StagingError(f"no file staged for {node_id!r}") from None

    def memory_nodes(self) -> list[Any]:
        return sorted(self._memory, key=str)

    def file_nodes(self) -> list[Any]:
        return sorted(self._files, key=str)

    # -- staging writes ------------------------------------------------------

    def open_file(self, node_id: Any) -> StagedFile:
        """Create (and register) a staging file for ``node_id``."""
        if node_id in self._files:
            raise StagingError(f"{node_id!r} already has a staged file")
        self._file_counter += 1
        path = os.path.join(self._dir, f"stage_{self._file_counter}.rows")
        staged = StagedFile(
            path, self._n_fields, node_id, self._meter, self._model
        )
        self._files[node_id] = staged
        return staged

    def abandon_file(self, node_id: Any) -> None:
        """Drop a file opened this scan (e.g. budget raced); deletes it."""
        staged = self._files.pop(node_id, None)
        if staged is not None:
            staged.delete()

    def reserve_memory(self, node_id: Any, n_rows: int) -> bool:
        """Try to reserve budget for ``n_rows`` of ``node_id``'s data."""
        nbytes = self.memory_bytes_for(n_rows)
        return self._budget.try_reserve(_data_tag(node_id), nbytes)

    def commit_memory(self, node_id: Any, rows: list[Any]) -> None:
        """Install rows collected during a scan; charges load cost."""
        if node_id in self._memory:
            raise StagingError(f"{node_id!r} already staged in memory")
        self._budget.resize(
            _data_tag(node_id), self.memory_bytes_for(len(rows))
        )
        self._memory[node_id] = rows
        self._meter.charge(
            "memory_load",
            self._model.memory_load_row * len(rows),
            events=len(rows),
        )

    def cancel_memory_reservation(self, node_id: Any) -> None:
        """Release a reservation that was never committed."""
        self._budget.release(_data_tag(node_id))

    def drop_memory(self, node_id: Any) -> None:
        """Evict a node's in-memory data set."""
        self._memory.pop(node_id, None)
        self._memory_columnar.pop(node_id, None)
        self._budget.release(_data_tag(node_id))

    def drop_file(self, node_id: Any) -> None:
        """Delete a node's staging file."""
        staged = self._files.pop(node_id, None)
        if staged is not None:
            staged.delete()

    # -- lifecycle ------------------------------------------------------------

    def garbage_collect(self, pending_requests: Iterable[Any]) -> list[Any]:
        """Drop staged data no pending request resolves to.

        Called at scheduling time, when the client has queued every
        child of the nodes it consumed (Fig. 3's loop guarantees this),
        so "no pending request resolves here" means the subtree is
        either finished or better served by a nearer staged set.
        Returns the node ids dropped.
        """
        needed: set[tuple[DataLocation, Any]] = set()
        for request in pending_requests:
            location, source = self.resolve(request)
            if location is not DataLocation.SERVER:
                needed.add((location, source))
        dropped: list[Any] = []
        for node_id in list(self._memory):
            if (DataLocation.MEMORY, node_id) not in needed:
                self.drop_memory(node_id)
                dropped.append(node_id)
        for node_id in list(self._files):
            if (DataLocation.FILE, node_id) not in needed:
                self.drop_file(node_id)
                dropped.append(node_id)
        return dropped

    def evict_memory_except(self, keep_node: Any) -> int:
        """Evict all in-memory data sets except ``keep_node``.

        Last-resort path when CC tables for the next batch cannot be
        reserved at all; returns bytes freed.
        """
        freed = 0
        for node_id in list(self._memory):
            if node_id != keep_node:
                freed += self._budget.reserved(_data_tag(node_id))
                self.drop_memory(node_id)
        return freed

    def close(self) -> None:
        """Delete every staged file and release memory reservations."""
        for node_id in list(self._files):
            self.drop_file(node_id)
        for node_id in list(self._memory):
            self.drop_memory(node_id)
        self._memory_columnar.clear()
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    def __repr__(self) -> str:
        return (
            f"StagingManager(files={len(self._files)}, "
            f"memory_sets={len(self._memory)})"
        )


def _data_tag(node_id: Any) -> str:
    """Budget reservation tag for a node's staged in-memory data."""
    return f"data:{node_id}"
