"""The columnar CSV writer against csv.writer, byte for byte."""

import csv
import decimal
import io
import json
import math
import os
import stat
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from udwtomo import cli, kernels, scenarios, tables, tomography
from udwtomo.errors import ConvergenceError

SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
                  math.inf, -math.inf, math.nan, 0.1, 1 / 3, -2.5e-17, 12.0]
TEXTS = ["", "plain", "a,b", 'say "hi"', "two\nlines", "cr\rreturn", '",\n"',
         " padded ", "tab\there", "é ünïcode"]
# an existing file's bytes, longer than the small tables written over them
OLD_BYTES = b"s,v\nold,table,with,more,cells,than,the,new,one\n"
# NaNs with payload and sign bits, quiet and signalling
NAN_BITS = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
            0xFFF0000000000001, 0x7FF8DEADBEEF0001, 0x7FFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF]


def floats_from_bits(bits):
    return np.array(bits, dtype=np.uint64).view(np.float64)


def csv_writer_bytes(header, rows):
    # the reference: csv.writer fed with 17-significant-digit floats
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode("utf-8")


def reference_rows(columns):
    """The rows of ``columns`` as Python cells, a blank cell (index -1 of an
    ``Indexed`` column) empty."""
    cells = []
    for col in columns:
        if isinstance(col, tables.Indexed):
            values = col.values.tolist()
            col = ["" if k == -1 else values[k] for k in col.index.tolist()]
        else:
            col = col.tolist()
        cells.append(col)
    return list(zip(*cells))


def bitwise_unique(values):
    """The distinct entries of the 1-D float64, int or text ``values`` and
    each row's index among them, floats told apart by bit pattern: the
    reference for ``Indexed.distinct``."""
    keys = values.view(np.int64) if values.dtype.kind == "f" else values
    distinct, index = np.unique(keys, return_inverse=True)
    return distinct.view(values.dtype), index


def blanked(values, blank):
    """``values`` as an ``Indexed`` column over its distinct entries (floats
    told apart by bit pattern), blank where ``blank`` is true."""
    distinct, index = bitwise_unique(values)
    return tables.Indexed(distinct, np.where(blank, -1, index))


def scan_column(values, blank):
    """The cells of the rows where ``blank`` is false, in order, as the
    scenarios write a scan's column: an ``Indexed`` column over them, blank
    (index -1) at the other rows."""
    blank = np.asarray(blank, dtype=bool)
    index = np.full(len(blank), -1)
    index[~blank] = np.arange(np.count_nonzero(~blank))
    return tables.Indexed(values[~blank], index)


def check(path, header, columns):
    scenarios._write_rows(path, header, columns)
    assert path.read_bytes() == csv_writer_bytes(header, reference_rows(columns))


def test_special_floats_ints_and_text(tmp_path):
    n = len(SPECIAL_FLOATS)
    k = np.arange(n)
    columns = [np.array(SPECIAL_FLOATS), (k / 3).astype(np.float32), k, -k,
               np.full(n, 7, dtype=np.int32),
               np.array([np.iinfo(np.int64).min] * (n - 1) + [np.iinfo(np.int64).max]),
               np.arange(n, dtype=np.uint64) + np.uint64(2**63),
               np.array([TEXTS[v % len(TEXTS)] for v in range(n)])]
    header = ["a", "float32", "b,c", 'd"e', "int32", "int64", "uint64", "text"]
    check(tmp_path / "table.csv", header, columns)


@pytest.mark.parametrize("column", [
    [1.0, 2.0], (1, 2), np.array([1, None], dtype=object), np.array(["a", 2], dtype=object),
    np.array([2**70, 1], dtype=object), np.array([1 + 2j, 0j]), np.array([True, False])])
def test_untyped_columns_rejected(tmp_path, column):
    # a column is a float, int or text array; anything else (a bool mask
    # too) is refused, before a new file is made or an existing one is
    # touched
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match="float, int or text arrays"):
        tables.write_columns(path, ["s", "v"], [np.zeros(2), column])
    assert not path.exists()
    path.write_bytes(OLD_BYTES)
    with pytest.raises(ValueError, match="float, int or text arrays"):
        tables.write_columns(path, ["s", "v"], [np.zeros(2), column])
    assert path.read_bytes() == OLD_BYTES


def test_each_text_alone(tmp_path):
    # one text per table, so no other cell decides how it is quoted
    for text in TEXTS:
        check(tmp_path / "table.csv", ["s", "text"], [np.array([1.0, 2.0]), np.array([text, ""])])
        check(tmp_path / "table.csv", ["text", "s"], [np.array([text, text]), np.array([2.0, 2.0])])


def test_blocks_mix_row_types(tmp_path):
    # failed rows with blank cells on both sides of each block boundary, and
    # text cells that need quoting in one block only
    n = 2 * tables.BLOCK_ROWS + 7
    k = np.arange(n)
    failed = k % 97 == 0
    text = np.full(n, "", dtype=object)
    text[tables.BLOCK_ROWS + 3] = 'quoted "text"'
    errors = np.where(failed, np.char.add(np.char.add("Error: row ", k.astype(str)), ", failed"),
                      "")
    errors[tables.BLOCK_ROWS + 3] = "multi\nline"
    columns = [k / 7, scan_column(np.sin(k), failed), blanked(k, failed),
               text.astype(str), errors]
    check(tmp_path / "table.csv", ["s", "value", "count", "text", "errors"], columns)


def test_numeric_rows_and_empty_table(tmp_path):
    rng = np.random.default_rng(3)
    grid = rng.standard_normal((tables.BLOCK_ROWS + 1, 3)) * 10.0 ** rng.integers(
        -300, 300, (tables.BLOCK_ROWS + 1, 3))
    grid[0] = [-0.0, math.inf, math.nan]
    check(tmp_path / "table.csv", ["t", "x", "value"], list(grid.T))
    check(tmp_path / "table.csv", ["t", "x", "value"], [np.empty(0)] * 3)
    check(tmp_path / "table.csv", ["i", "label"], [np.array([], dtype=np.int64),
                                                    np.array([], dtype=str)])
    assert (tmp_path / "table.csv").read_bytes() == b"i,label\n"


def test_column_rows(tmp_path):
    # arrays are written as the rows of Python scalars their tolist() gives
    n = 2 * tables.BLOCK_ROWS + 5
    i = np.arange(n)
    label = np.where(i % 3 == 0, "causal", "spacelike")
    value = np.sin(i) * 1e-3
    header = ["i", "label", "value"]
    rows = list(zip(i.tolist(), label.tolist(), value.tolist()))
    path = tmp_path / "columns.csv"
    scenarios._write_rows(path, header, [i, label, value])
    assert path.read_bytes() == csv_writer_bytes(header, rows)


def test_signed_zeros_in_one_block(tmp_path):
    # -0.0 == 0.0, yet each keeps its own text in a block holding both
    z = np.array([0.0, -0.0, 0.0, -0.0, -0.0, 1.0, 0.0])
    path = tmp_path / "zeros.csv"
    check(path, ["z", "twice"], [z, z])
    assert path.read_text().splitlines()[1:3] == ["0,0", "-0,-0"]


def test_nan_payloads_and_signs(tmp_path):
    # every NaN bit pattern is its own cell, each written as csv.writer does
    nans = floats_from_bits(NAN_BITS * 3 + [0x7FF0000000000000, 0x8000000000000000])
    check(tmp_path / "nan.csv", ["v", "k"], [nans, np.arange(len(nans))])
    check(tmp_path / "nan.csv", ["v", "w"], [nans, nans[::-1].copy()])


def test_repeats_across_blocks_and_columns(tmp_path):
    # a value repeated on both sides of a block boundary and in other columns,
    # next to values that differ from it in the last bit only
    n = 3 * tables.BLOCK_ROWS + 2
    v = 0.1
    near = np.nextafter(v, 1.0)
    col = np.full(n, v)
    col[1::2] = near
    edge = slice(tables.BLOCK_ROWS - 3, tables.BLOCK_ROWS + 3)
    col[edge] = v
    other = col[::-1].copy()
    ints = np.full(n, 7)
    ints[edge] = 2**40
    text = np.where(np.arange(n) % 5 == 0, "a,b", "plain")
    check(tmp_path / "repeats.csv", ["a", "b", "k", "text", "k2"], [col, other, ints, text, ints])


def test_blank_cells(tmp_path):
    # blank cells (index -1) are empty even where the value of the row
    # equals a cell of the same block that is written; a fully blank row
    # keeps its commas, and a column of blank cells only takes an index of
    # -1 throughout, over no values or over values that no row takes
    n = tables.BLOCK_ROWS + 4
    k = np.arange(n)
    blank = (k % 3 == 0) | (k == tables.BLOCK_ROWS)
    value = blanked(np.full(n, 2.5), blank)
    count = blanked(k % 4, blank)
    flag = tables.Indexed(np.array(["False", "True"]), np.where(blank, -1, k % 2 == 0))
    label = blanked(np.where(k % 2 == 0, "x,y", "z"), blank)
    errors = np.where(blank, "ConvergenceError: failed", "")
    check(tmp_path / "blank.csv", ["s", "value", "count", "flag", "label", "errors"],
          [k * 0.5, value, count, flag, label, errors])
    check(tmp_path / "blank.csv", ["value", "count"], [value, count])
    none = np.full(n, -1, dtype=np.int8)
    all_blank = [tables.Indexed(values, none) for values in (
        np.empty(0), np.array([], dtype=np.int64), np.array([], dtype=str), np.array([2.5, -0.0]))]
    check(tmp_path / "blank.csv", ["k", "float", "int", "text", "unused"], [k, *all_blank])
    assert (tmp_path / "blank.csv").read_text().splitlines()[1:3] == ["0,,,,", "1,,,,"]


def labelled(mask, false, true):
    """A bool mask written as one of two texts."""
    return tables.Indexed(np.array([false, true]), mask.view(np.uint8))


def test_labelled_columns(tmp_path):
    # a bool mask written as two texts, each quoted as csv.writer quotes it,
    # on both sides of a block boundary; all true, all false and no rows
    n = tables.BLOCK_ROWS + 5
    k = np.arange(n)
    for false, true in (("spacelike", "causal"), ("", "dephasing_dominated"),
                        ("a,b", 'say "hi"'), ("two\nlines", "")):
        columns = [k, labelled(k % 3 == 0, false, true),
                   labelled(np.ones(n, dtype=bool), false, true),
                   labelled(np.zeros(n, dtype=bool), true, false)]
        check(tmp_path / "labelled.csv", ["k", "mixed", "true", "false"], columns)
    check(tmp_path / "labelled.csv", ["k", "label"],
          [k[:0], labelled(np.zeros(0, dtype=bool), "no", "yes")])


def test_indexed_columns_reuse_and_skip_values(tmp_path):
    # repeated and unused entries, int and float values, blank cells (an
    # index of -1, for a signed index), and an index of each integer dtype
    n = tables.BLOCK_ROWS + 5
    k = np.arange(n)
    floats = np.array([0.5, -0.0, 0.5, math.nan, 1e300, 0.0])
    ints = np.array([7, -3, 7, 2**62])
    texts = np.array(["a,b", "", "a,b", "plain"])
    for dtype in (np.int8, np.uint8, np.int32, np.uint64, np.intp):
        text_index = k % 4
        if np.issubdtype(dtype, np.signedinteger):
            text_index[k % 3 == 0] = -1
        columns = [k, tables.Indexed(floats, (k % 5).astype(dtype)),
                   tables.Indexed(ints, (k % 2 * 2 + 1).astype(dtype)),
                   tables.Indexed(texts, text_index.astype(dtype))]
        check(tmp_path / "indexed.csv", ["k", "float", "int", "text"], columns)
    check(tmp_path / "indexed.csv", ["k", "float"],
          [k[:0], tables.Indexed(floats, np.array([], dtype=np.int64))])
    assert (tmp_path / "indexed.csv").read_bytes() == b"k,float\n"


@pytest.mark.parametrize("index, match", [
    (np.array([0, 3]), "index runs outside its 3 values"),
    (np.array([0, -2]), "index runs outside its 3 values"),
    (np.array([2**63], dtype=np.uint64), "index runs outside its 3 values"),
    (np.array([0.0, 1.0]), "index must be a 1-D integer array, got float64"),
    (np.array([True, False]), "index must be a 1-D integer array, got bool"),
    (np.array([[0, 1]]), r"index must be a 1-D integer array, got int64 of shape \(1, 2\)"),
    ([0, 1], "index must be a 1-D integer array, got list"),
])
def test_bad_indexes_rejected(tmp_path, index, match):
    # refused before a new file is made or an existing one is touched
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError, match=match):
        tables.write_columns(path, ["v"], [tables.Indexed(np.array([1.0, 2.0, 3.0]), index)])
    assert not path.exists()
    path.write_bytes(OLD_BYTES)
    with pytest.raises(ValueError, match=match):
        tables.write_columns(path, ["v"], [tables.Indexed(np.array([1.0, 2.0, 3.0]), index)])
    assert path.read_bytes() == OLD_BYTES


@pytest.mark.parametrize("values", [
    np.array([True, False]), np.array([1 + 2j, 0j]), np.array([1, None], dtype=object),
    np.zeros((2, 1)), [1.0, 2.0]])
def test_bad_indexed_values_rejected(tmp_path, values):
    # an Indexed column's values are a 1-D float, int or text array; a bool
    # mask is written as the index of its two texts
    with pytest.raises(ValueError, match="Indexed column's values must be a 1-D float, int or text"):
        tables.write_columns(tmp_path / "bad.csv", ["v"],
                             [tables.Indexed(values, np.array([0, 1]))])
    assert not (tmp_path / "bad.csv").exists()


def test_distinct_by_bit_pattern_or_value():
    # -0.0 and 0.0 stay apart, and so does each NaN payload and sign; a
    # float32 array is taken as float64
    nans = floats_from_bits(NAN_BITS)
    cases = [(np.concatenate([[0.0, -0.0, 1.5, 0.0, -0.0, 1.5], nans, nans[::-1]]),
              3 + len(NAN_BITS)),
             (np.array([0.5, -0.0, 0.5, 0.0], dtype=np.float32), 3),
             (np.zeros(0), 0)]
    for values, n_distinct in cases:
        column = tables.Indexed.distinct(values)
        assert isinstance(column, tables.Indexed) and column.index.dtype.kind == "i"
        assert len(column.values) == n_distinct
        want = values.astype(np.float64)
        assert column.values.dtype == np.float64
        assert len(set(column.values.view(np.uint64).tolist())) == n_distinct
        assert column.values[column.index].tobytes() == want.tobytes()
        assert [v.tobytes() for v in bitwise_unique(want)] == [v.tobytes() for v in column]


def test_mismatched_columns_rejected(tmp_path):
    # refused before a new file is made or an existing one is touched
    missing, existing = tmp_path / "bad.csv", tmp_path / "old.csv"
    existing.write_bytes(OLD_BYTES)
    for path in (missing, existing):
        with pytest.raises(ValueError, match="equal lengths"):
            tables.write_columns(path, ["a", "b"], [np.zeros(2), np.zeros(3)])
        with pytest.raises(ValueError, match="header"):
            tables.write_columns(path, ["a", "b"], [np.zeros(2)])
        with pytest.raises(ValueError, match="equal lengths"):
            tables.write_columns(path, ["a", "b"],
                                 [np.zeros(2), tables.Indexed(np.zeros(2), np.zeros(3, int))])
        with pytest.raises(ValueError, match="equal lengths"):
            tables.write_columns(path, ["a", "b"],
                                 [np.zeros(2), tables.Indexed(np.zeros(0), np.full(3, -1))])
    assert not missing.exists()
    assert existing.read_bytes() == OLD_BYTES


def _table(n):
    """A header and ``n`` rows of float, int and text columns."""
    k = np.arange(n)
    return ["s", "value", "k", "label"], [k * 0.25, np.sin(k), k % 7,
                                          np.where(k % 2 == 0, "even", "odd,quoted")]


@pytest.mark.parametrize("old_rows", [3 * tables.BLOCK_ROWS, 4, tables.BLOCK_ROWS + 3],
                         ids=["longer", "shorter", "identical"])
def test_rewrite_over_existing_file(tmp_path, old_rows):
    # a file is written over the old bytes and cut at its own length
    path = tmp_path / "table.csv"
    tables.write_columns(path, *_table(old_rows))
    old_size = path.stat().st_size
    check(path, *_table(tables.BLOCK_ROWS + 3))
    assert (path.stat().st_size > old_size) == (old_rows < tables.BLOCK_ROWS + 3)


def _raise_in_second_block(monkeypatch, path):
    # a write of BLOCK_ROWS + 5 rows whose last block raises TypeError
    k = np.arange(tables.BLOCK_ROWS + 5)
    float_texts = tables._float_texts

    def unjoinable_last(values, sep):
        texts = float_texts(values, sep)
        texts[-1] = None   # the largest value, the last row's, in the last block
        return texts

    monkeypatch.setattr(tables, "_float_texts", unjoinable_last)
    with pytest.raises(TypeError):
        tables.write_columns(path, ["k", "v"], [k, k + 0.5])


def test_error_in_second_block_cuts_the_old_file(tmp_path, monkeypatch):
    # a block that raises over a longer existing file leaves it empty: no
    # header and first block that parse as a complete table, and none of
    # the old file's bytes
    path = tmp_path / "table.csv"
    tables.write_columns(path, *_table(3 * tables.BLOCK_ROWS))
    _raise_in_second_block(monkeypatch, path)
    assert path.read_bytes() == b""


def test_error_in_second_block_leaves_a_new_file_empty(tmp_path, monkeypatch):
    path = tmp_path / "table.csv"
    _raise_in_second_block(monkeypatch, path)
    assert path.exists() and path.read_bytes() == b""


def test_symlinked_output_is_written_through(tmp_path):
    # the link stays a link and its target holds the table; a link to the
    # null device is written and, having no length, not cut
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_bytes(OLD_BYTES * 1000)
    link.symlink_to(target)
    check(link, *_table(tables.BLOCK_ROWS + 3))
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_bytes() == link.read_bytes()
    null = tmp_path / "null.csv"
    null.symlink_to(os.devnull)
    tables.write_columns(null, *_table(5))
    assert null.is_symlink() and null.read_bytes() == b""


def test_existing_file_keeps_its_mode(tmp_path):
    # an existing file keeps its permission bits; a new one gets those of
    # open(path, "w")
    path = tmp_path / "table.csv"
    path.write_bytes(OLD_BYTES * 1000)
    path.chmod(0o640)
    check(path, *_table(5))
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    (tmp_path / "reference").write_bytes(b"")
    check(tmp_path / "new.csv", *_table(5))
    assert (stat.S_IMODE((tmp_path / "new.csv").stat().st_mode)
            == stat.S_IMODE((tmp_path / "reference").stat().st_mode))


# each 10^k as the float nearest to it
POWERS_OF_TEN = np.array([float(f"1e{k}") for k in range(-300, 301)])


def _ties(rng):
    # q / 2^e whose exact decimal expansion has 18 significant digits, the
    # last a 5: an exact tie at the 18th digit (exact by decimal's expansion)
    ties = []
    for e in range(3, 26):
        digits = 18 - math.ceil(math.log10(5) * e)
        q = rng.integers(10 ** (digits - 1), 10 ** digits, 500) | 1
        for v in (q / 2.0 ** e).tolist():
            expansion = format(decimal.Decimal(v), "f").replace(".", "").strip("0")
            if len(expansion) == 18 and expansion[-1] == "5":
                ties.append(v)
    return np.array(ties)


def _near_tie(x):
    """Whether the digits of ``x`` after its 17th are within 1e-7 of 1/2."""
    exact = decimal.Decimal(abs(x))
    scaled = exact.scaleb(16 - exact.adjusted(), decimal.Context(prec=800))
    return abs(scaled - int(scaled) - decimal.Decimal("0.5")) <= decimal.Decimal("1e-7")


def _decade_carries():
    # each float(1ek) and the four floats below it: where one lies below 10^k
    # by less than half a 17th digit, %.17g rounds it up into the next decade
    below = [POWERS_OF_TEN]
    for _ in range(4):
        below.append(np.nextafter(below[-1], 0))
    return np.concatenate(below)


def _carried(v):
    """The values of ``v`` whose 17 digits round up to a power of ten."""
    carried = []
    for x in np.abs(v).tolist():
        text = decimal.Decimal("%.17g" % x).normalize()
        if text.as_tuple().digits == (1,) and decimal.Decimal(x) < text:
            carried.append(x)
    return carried


EXACT_SETS = {
    "powers of ten": lambda rng: np.concatenate([POWERS_OF_TEN, np.nextafter(POWERS_OF_TEN, 0),
                                                 np.nextafter(POWERS_OF_TEN, np.inf)]),
    "powers of two": lambda rng: 2.0 ** np.arange(-1074, 1024),
    "subnormals": lambda rng: floats_from_bits(rng.integers(1, 2**52, 1000, dtype=np.uint64)),
    "1e250 edges": lambda rng: np.array([1e250, np.nextafter(1e250, 0), 1e-250,
                                         np.nextafter(1e-250, 0), np.nextafter(1e-250, 1)]),
    "18th-digit ties": _ties,
    "decade carries": lambda rng: _decade_carries(),
    "random bits": lambda rng: floats_from_bits(rng.integers(0, 2**64, 10**5, dtype=np.uint64)),
    "1e-12 to 1e4": lambda rng: 10.0 ** rng.uniform(-12, 4, 10**5),
}


@pytest.mark.parametrize("name", list(EXACT_SETS))
def test_array_pass_is_printf_exact(name):
    # every text the array pass settles is "%.17g" % v, and it settles every
    # value in [1e-250, 1e250) except near-ties; negatives likewise
    rng = np.random.default_rng(20)
    v = EXACT_SETS[name](rng)
    v = np.concatenate([v, -v])
    texts, ok = tables._array_texts(v, b",")
    ref = [b"%.17g," % x for x in v.tolist()]
    assert [t for t, settled in zip(texts, ok) if settled] == [r for r, settled in zip(ref, ok)
                                                             if settled]
    in_range = (np.abs(v) >= 1e-250) & (np.abs(v) < 1e250)
    assert not (ok & ~in_range).any()
    unsettled = v[in_range & ~ok].tolist()
    assert all(_near_tie(x) for x in unsettled)
    if name == "18th-digit ties":
        assert len(v) > 10**4 and len(unsettled) == len(v)
    if name == "decade carries":
        assert len(_carried(v)) == 2 * 13         # 1e-243, ..., 1e-14, ..., 1e+220
    assert tables._float_texts(v, b",") == ref


@pytest.mark.parametrize("extra", [-1, 0], ids=["below-threshold", "at-threshold"])
def test_each_side_of_the_array_threshold(tmp_path, monkeypatch, extra):
    # float columns one distinct value short of the threshold are formatted
    # value by value, columns that reach it by the array pass; csv.writer's
    # bytes either way, each value twice (declared by Indexed.distinct), zeros,
    # NaN, inf and out-of-range magnitudes among them
    n = tables._ARRAY_MIN_FLOATS + extra
    rng = np.random.default_rng(7)
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    v[:8] = [-0.0, 0.0, math.nan, -math.inf, 1e-300, -1e280, 12.5, 1e16]
    v = np.concatenate([v, v[::-1]])
    calls = []
    array_texts = tables._array_texts
    monkeypatch.setattr(tables, "_array_texts", lambda *a: calls.append(1) or array_texts(*a))
    check(tmp_path / "threshold.csv", ["v", "w", "k"],
          [tables.Indexed.distinct(v), blanked(-v, np.arange(2 * n) % 7 == 0), np.arange(2 * n)])
    assert len(calls) == (2 if extra == 0 else 0)


@pytest.mark.parametrize("n", [0, 1, 15, 16])
def test_short_plain_columns_match_csv_writer(tmp_path, monkeypatch, n):
    # a plain column is formatted row by row at any length, with no np.unique:
    # csv.writer's bytes, with signed zeros, NaN payloads, infinities,
    # repeats, ints and text among the rows
    pool = np.concatenate([[-0.0, 0.0, -0.0, math.inf, -math.inf, 0.5, 0.5, 1 / 3, -2.5e-17],
                           floats_from_bits(NAN_BITS)])
    floats = pool[np.arange(n) % len(pool)]
    ints = np.array([7, -2**63, 7, 2**40, 0] * 4)[:n]
    words = np.array(TEXTS * 2)[:n]
    uniques = []
    unique = np.unique
    monkeypatch.setattr(np, "unique", lambda *a, **k: uniques.append(1) or unique(*a, **k))
    check(tmp_path / "short.csv", ["v", "k", "text", "w"], [floats, ints, words, floats[::-1]])
    assert not uniques


SHORT_DECIMALS = st.integers(-10**20, 10**20).flatmap(
    lambda k: st.sampled_from([k / 10**d for d in range(7)]))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_property_short_decimals_match_printf(data):
    # short decimals (k / 10^d, d <= 6), such as scan coordinates, alone or
    # mixed with any float, take the array pass like any other column of its
    # size: the texts are "%.17g" % v
    values = data.draw(st.lists(SHORT_DECIMALS, min_size=1, max_size=12), label="short")
    if data.draw(st.booleans(), label="mixed"):
        values += floats_from_bits(data.draw(
            st.lists(float_bits, min_size=1, max_size=4), label="any")).tolist()
    v = np.array(data.draw(st.permutations(values), label="order"), dtype=np.float64)
    with mock.patch.object(tables, "_ARRAY_MIN_FLOATS", 0):
        assert tables._float_texts(v, b";") == [b"%.17g;" % x for x in v.tolist()]


def test_array_pass_across_block_boundaries(tmp_path):
    # values the pass settles and values b"%.17g" formats (zeros, NaN, inf,
    # ties, magnitudes out of range) on both sides of each chunk boundary,
    # with each separator; in a table, the same floats in the first column
    # (",") and the last ("\n") across row-block boundaries
    rng = np.random.default_rng(11)
    n = 2 * tables.BLOCK_ROWS + 5
    v = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    ties = _ties(rng)
    for k, edge in enumerate((tables.BLOCK_ROWS, 2 * tables.BLOCK_ROWS)):
        v[edge - 4:edge + 4] = [-0.0, math.nan, ties[2 * k], 1e-300, -ties[2 * k + 1], math.inf,
                                -1e280, 12.5]
    for sep in (b",", b"\n", b";"):
        assert tables._float_texts(v, sep) == [b"%.17g" % x + sep for x in v.tolist()]
    check(tmp_path / "blocks.csv", ["v", "k", "w"], [v, np.arange(n), -v[::-1].copy()])


def test_non_ascii_text_is_utf8(tmp_path):
    # a header cell and an errors cell outside ASCII, some needing quotes,
    # are the bytes of csv.writer encoded as UTF-8
    n = tables.BLOCK_ROWS + 3
    k = np.arange(n)
    errors = np.where(k % 5 == 0, "RuntimeError: Δt ≤ 0 for région «α»", "")
    errors[tables.BLOCK_ROWS + 1] = 'ValueError: "ħ", ∞\n€'
    header = ["s_über_ℓ", 'wert "φ", ψ', "errors"]
    check(tmp_path / "utf8.csv", header, [k / 3, np.sin(k), errors])
    assert "région «α»".encode() in (tmp_path / "utf8.csv").read_bytes()


def test_array_pass_holds_one_block_at_a_time():
    # formatting 10^5 floats holds, beyond its output, at most one chunk's
    # work arrays: the gather index (200 B a value), the row and the texts'
    # bytes (57 B) and some 30 float64 and int64 temporaries; the whole
    # column at once would take over 20 MB
    rng = np.random.default_rng(4)
    v = rng.standard_normal(10**5) * 10.0 ** rng.integers(-30, 30, 10**5)
    tables._float_texts(v[:tables.BLOCK_ROWS], b",")
    tracemalloc.start()
    try:
        texts = tables._float_texts(v, b",")
        output, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(texts) == len(v)
    assert peak - output <= 512 * tables.BLOCK_ROWS


SMALL_BLOCK = 4
EDGE_BITS = [0, 1 << 63, 1, (1 << 63) | 1, 0x000FFFFFFFFFFFFF, 0x0010000000000000,
             0x7FF0000000000000, 0xFFF0000000000000, *NAN_BITS]
float_bits = st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(EDGE_BITS))
texts = st.text(alphabet=',"\r\n a\té', max_size=5)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_property_matches_csv_writer(tmp_path_factory, data):
    # lengths straddle the block size, shrunk so that one example spans blocks
    n = data.draw(st.integers(0, 3 * SMALL_BLOCK + 1), label="rows")
    pool = data.draw(st.lists(float_bits, min_size=1, max_size=4), label="pool")
    repeated = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    distinct = data.draw(st.lists(float_bits, min_size=n, max_size=n))
    ints = data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n))
    words = data.draw(st.lists(texts, min_size=n, max_size=n))
    blank = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    columns = [floats_from_bits(repeated), floats_from_bits(distinct),
               blanked(floats_from_bits(repeated), blank),
               np.array(ints, dtype=np.int64), np.array(words, dtype=str),
               blanked(np.array(words, dtype=str), blank)]
    path = tmp_path_factory.getbasetemp() / "property.csv"
    with mock.patch.object(tables, "BLOCK_ROWS", SMALL_BLOCK):
        check(path, ["repeated", "distinct", "blanked", "int", "text", "blanked_text"], columns)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_property_indexed_matches_csv_writer(tmp_path_factory, data):
    # Indexed float, int and text columns whose values repeat entries and
    # leave some unused (no rows at all: an empty index), with blank cells
    # (index -1; no values at all: every cell blank), beside a plain float
    # column and a scan's column over the same floats; floats go value by
    # value or all through the array pass
    n = data.draw(st.integers(0, 3 * SMALL_BLOCK + 1), label="rows")

    def indexed(elements, dtype):
        pool = data.draw(st.lists(elements, min_size=1, max_size=4))
        values = data.draw(st.lists(st.sampled_from(pool), min_size=0, max_size=8))
        index = data.draw(st.lists(st.integers(-1, len(values) - 1), min_size=n, max_size=n))
        values = (floats_from_bits(values) if dtype == np.float64
                  else np.array(values, dtype=dtype))
        return tables.Indexed(values, np.array(index, dtype=np.intp))

    blank = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    distinct = floats_from_bits(data.draw(st.lists(float_bits, min_size=n, max_size=n)))
    columns = [indexed(float_bits, np.float64), indexed(st.integers(-2**63, 2**63 - 1), np.int64),
               indexed(texts, str), indexed(float_bits, np.float64),
               distinct, scan_column(distinct, blank)]
    threshold = data.draw(st.sampled_from([1, tables._ARRAY_MIN_FLOATS]), label="threshold")
    path = tmp_path_factory.getbasetemp() / "property_indexed.csv"
    with mock.patch.multiple(tables, BLOCK_ROWS=SMALL_BLOCK, _ARRAY_MIN_FLOATS=threshold):
        check(path, ["float", "int", "text", "blanked", "distinct", "blanked_distinct"], columns)


def _captured_writes(monkeypatch):
    """Record each header and column list a scenario writes."""
    writes = []

    def capture(path, header, columns):
        writes.append((header, columns))
        tables.write_columns(path, header, columns)

    monkeypatch.setattr(scenarios, "_write_rows", capture)
    return writes


def expanded(column):
    """The cells of an ``Indexed`` column, row by row."""
    return column.values[column.index]


@pytest.mark.parametrize("sid", ["coherent_field_grid", "oneparticle_diff_grid"])
def test_grid_files_match_csv_writer(sid, tmp_path, monkeypatch):
    # t and x are written over their axes and the value over the distinct
    # (t, |x|); expanded, they are the full grid's cells, the value bit for
    # bit the field at every (t, x), in the default window (symmetric in x)
    # and in one shifted so that no two x share an |x|
    writes = _captured_writes(monkeypatch)
    default = scenarios.validate_config({"scenario_id": sid})
    (t0, t1, nt), (x0, x1, nx) = default.grid_t, default.grid_x
    for shift, events in ((0.0, nt * (nx + 1) // 2), (0.37, nt * nx)):
        raw = {"scenario_id": sid, "output_dir": str(tmp_path / str(shift)),
               "grid": {"t": {"start": t0, "stop": t1, "n": nt},
                        "x": {"start": x0 + shift, "stop": x1 + shift, "n": nx}}}
        [path] = scenarios.run(raw)
        [(header, (t, x, value))] = writes
        writes.clear()
        assert len(value.values) == events
        cfg = scenarios.validate_config(raw)
        grid_t, grid_x = (g.ravel() for g in np.meshgrid(
            np.linspace(t0, t1, nt), np.linspace(x0 + shift, x1 + shift, nx), indexing="ij"))
        assert expanded(t).tobytes() == grid_t.tobytes()
        assert expanded(x).tobytes() == grid_x.tobytes()
        coords = np.zeros((grid_t.size, 4))
        coords[:, 0], coords[:, 1] = grid_t * cfg.ell, grid_x * cfg.ell
        if sid == "coherent_field_grid":
            field = kernels.phi0_coherent_array(cfg.delta, coords)
        else:
            field = kernels._source_term(
                kernels.FieldState.one_particle(cfg.delta),
                kernels.F_oneparticle_array(cfg.delta, cfg.anchor.coords()),
                kernels.F_oneparticle_array(cfg.delta, coords))
        assert expanded(value).tobytes() == field.tobytes()
        rows = zip(grid_t.tolist(), grid_x.tolist(), field.tolist())
        assert path.read_bytes() == csv_writer_bytes(["t", "x", "value"], rows)


def test_each_dedupe_site_takes_indexed_distinct(tmp_path, monkeypatch):
    # the reconstruction's H and Re W, its true H, C and Im W, and the grids'
    # distinct |x| get the values and index of one bitwise np.unique over
    # their rows; a scan's errors column is the empty text and each failure's
    # text once
    writes = _captured_writes(monkeypatch)
    raw = {"scenario_id": "tomography_roundtrip", "output_dir": str(tmp_path / "roundtrip")}
    scenarios.run(raw)
    (_, (i, j, _, h, h_true, c, re_w, im_w, _)), _ = writes
    km, exact, want_h_true = scenarios._lattice(scenarios.validate_config(raw))
    rec = tomography.reconstruct_table(exact)
    distinct, index = bitwise_unique(rec.H)
    assert h.values.tobytes() == distinct.tobytes() and h.index.tolist() == index.tolist()
    assert re_w.values.tobytes() == (0.5 * distinct).tobytes()
    assert re_w.index.tolist() == index.tolist()
    im_w_rows = 0.5 * km.E[expanded(i) - 1, expanded(j) - 1]
    for column, rows in ((h_true, want_h_true), (c, rec.C), (im_w, im_w_rows)):
        assert isinstance(column, tables.Indexed) and len(column.values) < len(rows)
        assert [v.tobytes() for v in column] == [v.tobytes() for v in bitwise_unique(rows)]

    raw = {"scenario_id": "thermal_curves", "beta": 50.0, "s_over_ell": [1e-5, 3.0, 8.0],
           "output_dir": str(tmp_path / "scan")}
    writes.clear()
    scenarios.run(raw)
    [(_, (s, *_, errors))] = writes
    failed = np.abs(s) == 1e-5
    assert errors.values[0] == "" and len(errors.values) == 1 + np.count_nonzero(failed)
    assert len(set(errors.values.tolist())) == len(errors.values)
    assert errors.index.tolist() == np.where(failed, np.cumsum(failed), 0).tolist()

    for x in ({"start": -12.0, "stop": 12.0, "n": 41}, {"start": -11.63, "stop": 12.37, "n": 41}):
        cfg = scenarios.validate_config({"scenario_id": "coherent_field_grid",
                                         "grid": {"t": {"start": -3.0, "stop": 3.0, "n": 5},
                                                  "x": x}})
        t, x, coords, event = scenarios._grid(cfg)
        radius, radius_index = bitwise_unique(np.abs(x.values))
        assert coords.reshape(5, -1, 4)[0, :, 1].tobytes() == radius.tobytes()
        assert event.tolist() == (t.index * len(radius) + radius_index[x.index]).tolist()


def test_scan_with_failed_point_matches_csv_writer(tmp_path, monkeypatch, capsys):
    # the lightlike points (|s| = 1e-5 ell) fail in the kernels: their rows
    # keep s and the error text, every other cell blank, the quadrature
    # column's included
    raw = {"scenario_id": "thermal_curves", "beta": 50.0, "s_over_ell": [1e-5, 3.0, 8.0],
           "enable_quadrature_columns": True, "output_dir": str(tmp_path / "scan")}
    writes = _captured_writes(monkeypatch)
    [path] = scenarios.run(raw)
    [(header, (s, *columns, errors))] = writes
    # the errors column, indexed over the empty text and each failure's text
    assert isinstance(errors, tables.Indexed) and errors.values[0] == ""
    errors = expanded(errors)
    assert [bool(e) for e in errors.tolist()] == [abs(s_k) == 1e-5 for s_k in s.tolist()]
    # each column holds the points off the lightcone, in order, and its
    # index is -1 at the lightlike ones
    ok = errors == ""
    for c in columns:
        assert c.index.tolist() == np.where(ok, np.cumsum(ok) - 1, -1).tolist()
        assert len(c.values) == np.count_nonzero(ok)
    rows = []
    for k, (s_k, error) in enumerate(zip(s.tolist(), errors.tolist())):
        if error:
            assert error.startswith("LightconeSingularityError: ")
            rows.append([s_k, *[""] * len(columns), error])
        else:
            rows.append([s_k, *(float(c.values[c.index[k]]) for c in columns), ""])
    assert path.read_bytes() == csv_writer_bytes(header, rows)

    # an uncertified quadrature pass writes no file: run raises, and the CLI
    # exits 3 with the numerical failure on one line
    def uncertified(state, ell, a, b, tol):
        raise ConvergenceError("accumulated quadrature error exceeds tolerance")

    monkeypatch.setattr(scenarios, "_smeared_quadrature", uncertified)
    raw["output_dir"] = str(tmp_path / "uncertified")
    with pytest.raises(ConvergenceError, match="accumulated quadrature error"):
        scenarios.run(raw)
    assert len(writes) == 1
    cfg = tmp_path / "uncertified.json"
    cfg.write_text(json.dumps(raw))
    assert cli.main(["run", str(cfg)]) == cli.EXIT_NUMERICAL == 3
    assert capsys.readouterr().err == (
        "numerical failure: accumulated quadrature error exceeds tolerance\n")
    assert len(writes) == 1
