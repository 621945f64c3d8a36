"""CSV tables as every scenario writes them.

UTF-8, a header row, LF line endings, floats as ``%.17g`` (17 significant
digits, so each float reads back exactly), ints in decimal, and every other
cell as its ``str``, quoted the way ``csv.writer`` quotes it
(``QUOTE_MINIMAL``).  The bytes are those of ``csv.writer`` fed with
``f"{v:.17g}"`` for the floats, for rows of two or more cells (csv.writer
writes a lone empty cell as ``""``).

Rows are read and formatted in blocks of ``BLOCK_ROWS``, with one ``%``
operation per block: a row's line format follows the types of its cells,
and a block's format joins those of its rows.  Blocks stay bounded, so no
whole-file string is built, and ``column_rows`` turns a table held as
arrays into rows one block at a time.
"""

from __future__ import annotations

import csv
import io
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["BLOCK_ROWS", "column_rows", "write_rows"]

# 256 rows of the 9-column reconstruction table format to ~40 kB; blocks of
# 1024 rows were as fast but raised the lattice roundtrip's peak RSS by ~0.3 MiB
BLOCK_ROWS = 256

# csv.writer quotes a field only if it holds one of these (which of them
# depends on the Python version, so such fields go through csv.writer)
_SPECIAL = frozenset(',"\r\n')


def _cell_format(kind: type) -> str:
    if issubclass(kind, float):
        return "%.17g"
    if kind is int:  # not bool, which csv.writer writes as True/False
        return "%d"
    return "%s"


class _Formats(dict):
    """Line format of a row, keyed by its cells' types."""

    def __missing__(self, kinds: tuple[type, ...]) -> str:
        line = self[kinds] = ",".join(map(_cell_format, kinds)) + "\n"
        return line


_LINE_FORMATS = _Formats()


def _text_cell(v):
    """A cell as its line format takes it: numbers as they are, anything
    else as its csv.writer text."""
    if _cell_format(type(v)) != "%s":
        return v
    text = str(v)
    if _SPECIAL.isdisjoint(text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _format_block(rows: Sequence[Sequence]) -> str:
    line = "".join([_LINE_FORMATS[tuple(map(type, row))] for row in rows])
    cells = tuple(chain.from_iterable(rows))
    block = line % cells
    # numbers never format to a special character, so unless a text cell
    # brought one in, no cell needs quoting
    if "%s" in line and (block.count(",") != line.count(",")
                         or block.count("\n") != line.count("\n")
                         or '"' in block or "\r" in block):
        block = line % tuple(map(_text_cell, cells))
    return block


def column_rows(*columns: np.ndarray) -> Iterator[tuple]:
    """The rows of equal-length 1-D arrays as tuples of Python scalars,
    converted one block at a time, so that a table held as arrays never
    exists as Python objects all at once."""
    for start in range(0, len(columns[0]), BLOCK_ROWS):
        yield from zip(*(c[start:start + BLOCK_ROWS].tolist() for c in columns))


def write_rows(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows``, an iterable of rows of cells read one
    block at a time, to ``path``."""
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_format_block([header]))
        while block := list(islice(rows, BLOCK_ROWS)):
            fh.write(_format_block(block))
