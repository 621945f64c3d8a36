"""The block CSV writer against csv.writer, byte for byte."""

import csv
import io
import math

import numpy as np

from udwtomo import scenarios, tables

SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
                  math.inf, -math.inf, math.nan, 0.1, 1 / 3, -2.5e-17, 12.0]
TEXTS = ["", "plain", "a,b", 'say "hi"', "two\nlines", "cr\rreturn", '",\n"',
         " padded ", "tab\there", "é ünïcode"]


def csv_writer_bytes(header, rows):
    # the reference: csv.writer fed with 17-significant-digit floats
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode("utf-8")


def check(tmp_path, header, rows):
    path = tmp_path / "table.csv"
    scenarios._write_rows(path, header, rows)
    assert path.read_bytes() == csv_writer_bytes(header, rows)


def test_special_floats_ints_and_text(tmp_path):
    rows = [[v, k, TEXTS[k % len(TEXTS)]] for k, v in enumerate(SPECIAL_FLOATS)]
    rows += [[k, -k, 2**70, ""] for k in range(3)]
    rows += [[text, 1.5, text] for text in TEXTS]
    rows += [[np.float64(0.1), np.int64(7), True, "x"]]
    check(tmp_path, ["a", "b,c", 'd"e', "f"], rows)


def test_each_text_alone(tmp_path):
    # one text per table, so no other cell decides whether the block is quoted
    for text in TEXTS:
        check(tmp_path, ["s", "text"], [[1.0, text], [2.0, ""]])


def test_blocks_mix_row_types(tmp_path):
    # rows of several line formats on both sides of each block boundary, and
    # a text cell that needs quoting in one block only
    n = 2 * tables.BLOCK_ROWS + 7
    rows = []
    for k in range(n):
        if k % 97 == 0:
            rows.append([k / 7, "", "", f"Error: row {k}, failed"])
        elif k == tables.BLOCK_ROWS + 3:
            rows.append([k / 7, 'quoted "text"', "", "multi\nline"])
        else:
            rows.append([k / 7, math.sin(k), k, ""])
    check(tmp_path, ["s", "value", "count", "errors"], rows)


def test_numeric_rows_and_empty_table(tmp_path):
    rng = np.random.default_rng(3)
    grid = rng.standard_normal((tables.BLOCK_ROWS + 1, 3)) * 10.0 ** rng.integers(
        -300, 300, (tables.BLOCK_ROWS + 1, 3))
    grid[0] = [-0.0, math.inf, math.nan]
    check(tmp_path, ["t", "x", "value"], grid.tolist())
    check(tmp_path, ["t", "x", "value"], [])


def test_column_rows(tmp_path):
    # arrays become the rows of Python scalars their tolist() would give,
    # written the same through a generator as from a list
    n = 2 * tables.BLOCK_ROWS + 5
    i = np.arange(n)
    label = np.where(i % 3 == 0, "causal", "spacelike")
    value = np.sin(i) * 1e-3
    rows = list(zip(i.tolist(), label.tolist(), value.tolist()))
    assert list(tables.column_rows(i, label, value)) == rows
    assert all(type(v) in (int, str, float) for v in rows[0])
    path = tmp_path / "columns.csv"
    scenarios._write_rows(path, ["i", "label", "value"], tables.column_rows(i, label, value))
    assert path.read_bytes() == csv_writer_bytes(["i", "label", "value"], rows)
