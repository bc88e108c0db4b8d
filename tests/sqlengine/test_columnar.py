"""Unit tests for the array-backed columnar partition representation.

The columnar path must preserve every value *bit-for-bit*: CC-table
keys are the original Python objects, so an encoding that parses
``"1"`` into ``1``, collapses ``None`` into ``0`` or leaks numpy
scalars back out would silently change counted keys.  These tests pin
the encoding rules (raw int64 vs dictionary), the zero-copy slicing
contract and the round trip through the flat shared-memory buffer
layout.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.sqlengine.columnar import (  # noqa: E402
    DICT,
    RAW,
    ColumnarPartition,
    _encode_column,
)


class TestEncodeColumn:
    def test_plain_ints_take_raw_path(self):
        column = _encode_column([3, 1, 2, 1])
        assert column.kind == RAW
        assert column.nulls is None
        assert column.data.dtype == np.int64
        assert [column.value_at(i) for i in range(4)] == [3, 1, 2, 1]

    def test_numeric_strings_stay_strings(self):
        # np.asarray would happily parse "1" into 1 if asked for int64;
        # the probe must not, or CC keys silently change type.
        column = _encode_column(["1", "2", "1"])
        assert column.kind == DICT
        assert column.value_at(0) == "1"
        assert type(column.value_at(0)) is str

    def test_none_heavy_ints_get_null_mask(self):
        values = [None, 5, None, None, -2, None]
        column = _encode_column(values)
        assert column.kind == RAW
        assert column.nulls is not None
        assert [column.value_at(i) for i in range(6)] == values

    def test_unicode_round_trips(self):
        values = ["ä", "日本", "ä", None, ""]
        column = _encode_column(values)
        assert column.kind == DICT
        assert [column.value_at(i) for i in range(5)] == values

    def test_bools_are_not_ints(self):
        # bool is an int subclass; storing True as 1 would change keys.
        column = _encode_column([True, False, True])
        assert column.kind == DICT
        assert column.value_at(0) is True

    def test_huge_ints_fall_back_to_dictionary(self):
        big = 1 << 70
        column = _encode_column([big, None, -big])
        assert column.kind == DICT
        assert column.value_at(0) == big
        assert column.value_at(1) is None

    def test_floats_take_dictionary_path(self):
        column = _encode_column([1.5, 2.5, 1.5])
        assert column.kind == DICT
        assert column.value_at(0) == 1.5


class TestColumnarPartition:
    ROWS = [
        (1, "x", None, 0),
        (2, "y", 7, 1),
        (3, "x", None, 2),
        (4, "z", 9, 0),
        (5, "y", None, 1),
    ]

    def test_from_rows_round_trip(self):
        partition = ColumnarPartition.from_rows(self.ROWS)
        assert partition.n_rows == len(partition) == 5
        assert list(partition.rows()) == self.ROWS

    def test_empty_partition(self):
        partition = ColumnarPartition.from_rows([])
        assert partition.n_rows == 0
        assert list(partition.rows()) == []

    def test_slice_is_zero_copy_and_correct(self):
        partition = ColumnarPartition.from_rows(self.ROWS)
        view = partition.slice(1, 4)
        assert list(view.rows()) == self.ROWS[1:4]
        assert np.shares_memory(
            view.columns[0].data, partition.columns[0].data
        )

    def test_slice_clamps_past_the_end(self):
        partition = ColumnarPartition.from_rows(self.ROWS)
        view = partition.slice(3, 100)
        assert view.n_rows == 2
        assert list(view.rows()) == self.ROWS[3:]

    def test_rows_at_returns_plain_python_objects(self):
        partition = ColumnarPartition.from_rows(self.ROWS)
        (row,) = partition.rows_at(np.asarray([1]))
        assert row == self.ROWS[1]
        assert type(row[0]) is int  # never np.int64
        assert type(row[1]) is str
        assert type(row[3]) is int

    def test_rows_at_preserves_requested_order(self):
        partition = ColumnarPartition.from_rows(self.ROWS)
        picked = partition.rows_at(np.asarray([4, 0, 2]))
        assert picked == [self.ROWS[4], self.ROWS[0], self.ROWS[2]]

    def test_from_matrix(self):
        matrix = np.asarray([[1, 2, 0], [3, 4, 1]], dtype=np.int32)
        partition = ColumnarPartition.from_matrix(matrix)
        assert list(partition.rows()) == [(1, 2, 0), (3, 4, 1)]
        assert all(col.kind == RAW for col in partition.columns)


class TestBufferRoundTrip:
    """The flat layout must reattach bit-identically (shm shipping)."""

    CASES = [
        [(1, 2, 0), (3, 4, 1), (5, 6, 2)],                    # raw ints
        [(None, "a", 0), (7, "ü", 1), (None, None, 2)],        # null-heavy
        [("1", 1 << 70, 0), ("2", None, 1), ("1", 0, 2)],      # mixed types
    ]

    @pytest.mark.parametrize("rows", CASES)
    def test_write_into_from_buffer_round_trip(self, rows):
        partition = ColumnarPartition.from_rows(rows)
        total, specs = partition.layout()
        buf = bytearray(total)
        written = partition.write_into(buf)
        assert written == specs
        back = ColumnarPartition.from_buffer(
            bytes(buf), partition.n_rows, specs
        )
        assert list(back.rows()) == rows

    def test_layout_aligns_every_array(self):
        partition = ColumnarPartition.from_rows(self.CASES[1])
        total, specs = partition.layout()
        assert total >= 1
        for _kind, _dtype, data_offset, null_offset, _values in specs:
            assert data_offset % 8 == 0
            if null_offset >= 0:
                assert null_offset % 8 == 0

    def test_empty_partition_layout_is_nonzero(self):
        # shared_memory.SharedMemory(size=0) is invalid; the layout
        # guarantees at least one byte.
        total, specs = ColumnarPartition.from_rows([]).layout()
        assert total >= 1
        assert specs == []

    def test_unhashable_value_raises_type_error(self):
        # The poison-row contract: unhashable values fail loudly at
        # encode time, exactly like a dict-keyed CC table would.
        with pytest.raises(TypeError):
            ColumnarPartition.from_rows([([], 0, 0)])
