"""Array-backed columnar partitions for the counting loop.

The CC-counting hot loop only ever needs *column arrays* — an attribute
column and the class column — never row dicts or row tuples.  This
module provides the columnar partition representation the executor
counts, inline or on scan workers:

* :class:`Column` — one attribute's values as a typed buffer.  Integer
  columns are stored raw (int64 data + optional null mask); everything
  else is dictionary-encoded (int32 codes into a tuple of distinct
  original values), which preserves arbitrary Python objects — unicode
  strings, ``None`` — bit-for-bit.
* :class:`ColumnarPartition` — a fixed set of columns over ``n_rows``
  rows, supporting zero-copy row slicing (``slice``), decoding selected
  rows back to tuples (``rows_at``), and a flat shared-memory buffer
  layout (``buffer_bytes`` / ``write_into`` / ``from_buffer``) so
  process workers can attach without any per-row pickling.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence

import numpy as _numpy

#: numpy handle, typed ``Any`` so strict checking doesn't depend on stubs.
np: Any = _numpy

#: Column encodings.  RAW stores int64 data (+ optional bool null mask);
#: DICT stores int32 codes into a tuple of distinct original values.
RAW = "raw"
DICT = "dict"

#: Byte alignment of each array inside the flat shared-memory layout.
_ALIGN = 8


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


class Column:
    """One column of a partition: raw int64 data or dict-encoded codes.

    RAW columns hold ``data`` (int64) plus an optional unpacked bool
    ``nulls`` mask (data is 0 at null positions).  DICT columns hold
    ``data`` (int32 codes) plus ``values`` — the tuple of distinct
    original objects the codes index, which may include ``None``.
    """

    __slots__ = ("kind", "data", "values", "nulls")

    def __init__(self, kind: str, data: Any,
                 values: Optional[tuple[Any, ...]] = None,
                 nulls: Any = None) -> None:
        self.kind = kind
        self.data = data
        self.values = values
        self.nulls = nulls

    # __slots__ classes need explicit pickle support (thread pools never
    # pickle columns, but the non-shm process fallback does).
    def __getstate__(self) -> tuple[str, Any, Any, Any]:
        return (self.kind, self.data, self.values, self.nulls)

    def __setstate__(self, state: tuple[str, Any, Any, Any]) -> None:
        self.kind, self.data, self.values, self.nulls = state

    @property
    def n_rows(self) -> int:
        return int(len(self.data))

    def slice(self, start: int, stop: int) -> "Column":
        """Zero-copy view of rows ``[start, stop)``."""
        nulls = self.nulls[start:stop] if self.nulls is not None else None
        return Column(self.kind, self.data[start:stop], self.values, nulls)

    def value_at(self, row: int) -> Any:
        """Decode one row back to its original Python object."""
        if self.kind == DICT:
            assert self.values is not None
            return self.values[int(self.data[row])]
        if self.nulls is not None and bool(self.nulls[row]):
            return None
        return int(self.data[row])

    def __repr__(self) -> str:
        return f"Column({self.kind!r}, n_rows={self.n_rows})"


def _encode_column(values: Sequence[Any]) -> Column:
    """Encode one column, preferring the raw int64 representation.

    The probe deliberately converts *without* a target dtype: asking
    numpy for int64 directly would parse numeric strings (``"1"`` →
    ``1``), silently corrupting CC-table keys.  Only a natural integer
    dtype (kind ``i``/``u``) takes the raw path; bools (kind ``b``),
    floats, strings and object arrays all fall through to dictionary
    encoding, which preserves the original objects untouched.
    """
    try:
        probe = np.asarray(values)
    except (ValueError, TypeError):
        probe = None
    if (probe is not None and probe.ndim == 1
            and probe.dtype.kind in ("i", "u")):
        return Column(RAW, probe.astype(np.int64, copy=False))
    if all(value is None or type(value) is int for value in values):
        nulls = np.fromiter(
            (value is None for value in values), dtype=bool,
            count=len(values),
        )
        try:
            data = np.fromiter(
                (0 if value is None else value for value in values),
                dtype=np.int64, count=len(values),
            )
        except OverflowError:
            pass  # ints beyond int64 → dictionary encoding below
        else:
            return Column(RAW, data, nulls=nulls)
    codes_map: dict[Any, int] = {}
    distinct: list[Any] = []
    codes = np.empty(len(values), dtype=np.int32)
    for i, value in enumerate(values):
        code = codes_map.get(value)
        if code is None:
            code = len(distinct)
            codes_map[value] = code
            distinct.append(value)
        codes[i] = code
    return Column(DICT, codes, values=tuple(distinct))


class ColumnarPartition:
    """A batch of rows stored column-wise.

    Immutable once built; ``slice`` returns zero-copy views so the
    executor can carve partitions out of one encoding (a memory set's,
    see :meth:`~repro.core.staging.StagingManager.columnar_memory`)
    without touching row data again.
    """

    __slots__ = ("n_rows", "columns")

    def __init__(self, n_rows: int, columns: tuple[Column, ...]) -> None:
        self.n_rows = n_rows
        self.columns = columns

    def __getstate__(self) -> tuple[int, tuple[Column, ...]]:
        return (self.n_rows, self.columns)

    def __setstate__(self, state: tuple[int, tuple[Column, ...]]) -> None:
        self.n_rows, self.columns = state

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Any]]) -> "ColumnarPartition":
        """Encode a batch of row tuples column-by-column."""
        if not rows:
            return cls(0, ())
        columns = tuple(
            _encode_column(column) for column in zip(*rows)
        )
        return cls(len(rows), columns)

    @classmethod
    def from_matrix(cls, matrix: Any) -> "ColumnarPartition":
        """Wrap a 2-D integer array (rows × fields) without null masks.

        This is the staged-file fast path: staged rows are packed
        int32, so each column is already a raw integer array.
        """
        n_rows = int(matrix.shape[0])
        columns = tuple(
            Column(RAW, np.ascontiguousarray(
                matrix[:, i].astype(np.int64, copy=False)
            ))
            for i in range(int(matrix.shape[1]))
        )
        return cls(n_rows, columns)

    def slice(self, start: int, stop: int) -> "ColumnarPartition":
        """Zero-copy view of rows ``[start, stop)``."""
        stop = min(stop, self.n_rows)
        columns = tuple(col.slice(start, stop) for col in self.columns)
        return ColumnarPartition(stop - start, columns)

    def rows_at(self, indices: Any) -> list[tuple[Any, ...]]:
        """Decode the selected rows back to Python tuples.

        Staging writers and memory capture still traffic in row tuples;
        decoding goes through ``.tolist()`` so the results are plain
        Python ints / original objects, never numpy scalars.
        """
        decoded: list[Any] = []
        for col in self.columns:
            picked = col.data[indices]
            if col.kind == DICT:
                assert col.values is not None
                values = col.values
                decoded.append([values[c] for c in picked.tolist()])
            elif col.nulls is not None:
                flags = col.nulls[indices].tolist()
                decoded.append([
                    None if is_null else value
                    for value, is_null in zip(picked.tolist(), flags)
                ])
            else:
                decoded.append(picked.tolist())
        return list(zip(*decoded)) if decoded else []

    def rows(self) -> Iterator[tuple[Any, ...]]:
        """Decode every row, in order (test/debug convenience)."""
        if self.n_rows:
            yield from self.rows_at(np.arange(self.n_rows))

    # -- flat buffer layout (shared-memory shipping) -------------------

    def layout(self) -> tuple[int, list[tuple[str, str, int, int,
                                             Optional[tuple[Any, ...]]]]]:
        """Plan the flat layout: total bytes + per-column specs.

        Each spec is ``(kind, dtype, data_offset, null_offset, values)``
        with ``null_offset == -1`` when the column has no null mask.
        Null masks travel bit-packed (``np.packbits``); everything else
        is the array's raw bytes at 8-byte alignment.
        """
        offset = 0
        specs: list[tuple[str, str, int, int, Optional[tuple[Any, ...]]]] = []
        for col in self.columns:
            data_offset = _aligned(offset)
            offset = data_offset + col.data.nbytes
            null_offset = -1
            if col.nulls is not None:
                null_offset = _aligned(offset)
                offset = null_offset + (self.n_rows + 7) // 8
            specs.append((
                col.kind, col.data.dtype.str, data_offset, null_offset,
                col.values,
            ))
        return max(1, offset), specs

    def write_into(self, buf: Any) -> list[tuple[str, str, int, int,
                                                 Optional[tuple[Any, ...]]]]:
        """Copy all column arrays into ``buf``; returns the specs."""
        _, specs = self.layout()
        view = memoryview(buf)
        for col, (kind, dtype, data_offset, null_offset, _values) in zip(
            self.columns, specs
        ):
            data = np.ascontiguousarray(col.data)
            view[data_offset:data_offset + data.nbytes] = data.tobytes()
            if null_offset >= 0:
                packed = np.packbits(
                    np.ascontiguousarray(col.nulls).view(np.uint8)
                )
                view[null_offset:null_offset + packed.nbytes] = (
                    packed.tobytes()
                )
        return specs

    @classmethod
    def from_buffer(
        cls, buf: Any, n_rows: int,
        specs: Sequence[tuple[str, str, int, int,
                              Optional[tuple[Any, ...]]]],
    ) -> "ColumnarPartition":
        """Reattach a partition over a flat buffer, zero-copy.

        The returned columns *view* ``buf`` (only the bit-packed null
        masks are unpacked into fresh arrays), so the buffer must stay
        alive — and all views must be dropped before a shared-memory
        segment backing it is closed.
        """
        columns: list[Column] = []
        for kind, dtype, data_offset, null_offset, values in specs:
            data = np.frombuffer(
                buf, dtype=np.dtype(dtype), count=n_rows,
                offset=data_offset,
            )
            nulls = None
            if null_offset >= 0:
                packed = np.frombuffer(
                    buf, dtype=np.uint8, count=(n_rows + 7) // 8,
                    offset=null_offset,
                )
                nulls = np.unpackbits(packed, count=n_rows).view(bool)
            columns.append(Column(kind, data, values=values, nulls=nulls))
        return cls(n_rows, tuple(columns))

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:
        return (
            f"ColumnarPartition(rows={self.n_rows}, "
            f"columns={len(self.columns)})"
        )
