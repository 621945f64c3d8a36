"""CSV tables as every scenario writes them.

UTF-8, a header row, LF line endings, floats as ``%.17g`` (17 significant
digits, so each float reads back exactly), ints in decimal, bools as
``True``/``False``, and text quoted the way ``csv.writer`` quotes it
(``QUOTE_MINIMAL``).  The bytes are those of ``csv.writer`` fed with
``f"{v:.17g}"`` for the floats, for rows of two or more cells (csv.writer
writes a lone empty cell as ``""``).

``write_columns`` takes a table as equal-length 1-D float, int, bool or
text arrays (an object array, or anything that is not an ndarray, raises
``ValueError``) and writes it in blocks of ``BLOCK_ROWS`` rows.  Within a
block each column formats each of its distinct cells once and gathers the
texts back to its rows by the inverse index: a float column by its values'
bit patterns (so ``-0.0`` stays ``-0`` next to ``0``, and every NaN is its
own cell), an int, bool or text column by its values.  Each distinct text
carries the separator that follows it in its column, so a block is one
``"".join`` over its ``(rows, columns)`` cells.  A ``Blanked`` column is
written blank where its ``blank`` mask is true (a failed row's cells).
Only one block's texts exist at a time, so no whole-file string is built.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

__all__ = ["BLOCK_ROWS", "Blanked", "write_columns"]

# the two default grid tables (~10^4 rows each) write in 14.5 and 16.9 ms at
# 256 rows per block, 9.6 and 12.2 ms at 1024 and 8.4 and 10.8 ms at 4096
# (2 cores, Python 3.11, numpy 2.4); larger blocks hold more texts at once
BLOCK_ROWS = 1024

# csv.writer quotes a field only if it holds one of these (which of them
# depends on the Python version, so such fields go through csv.writer)
_SPECIAL = frozenset(',"\r\n')


class Blanked(NamedTuple):
    """A column whose cells are blank where ``blank`` is true."""

    values: np.ndarray
    blank: np.ndarray


def _quoted(text: str) -> str:
    """``text`` as csv.writer writes it in a row of two or more cells."""
    if _SPECIAL.isdisjoint(text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _column(values) -> tuple[np.ndarray, np.ndarray | None]:
    """A column's cells as a 1-D array, and its mask of blank cells."""
    blank = None
    if isinstance(values, Blanked):
        values, blank = values
    if not isinstance(values, np.ndarray) or values.dtype.kind not in "fiubU":
        raise ValueError("columns must be float, int, bool or text arrays, got "
                         f"{getattr(values, 'dtype', type(values).__name__)}")
    if values.dtype.kind == "f":
        values = values.astype(np.float64, copy=False)
    if values.ndim != 1:
        raise ValueError(f"columns must be 1-D, got shape {values.shape}")
    if blank is not None:
        blank = np.asarray(blank, dtype=bool)
        if blank.shape != values.shape:
            raise ValueError(f"blank mask of shape {blank.shape} for {len(values)} cells")
    return values, blank


def _texts(block: np.ndarray, sep: str) -> np.ndarray:
    """The cells of a column block as texts followed by ``sep``, each
    distinct cell formatted once."""
    kind = block.dtype.kind
    if kind == "b":
        return np.array(["False" + sep, "True" + sep], dtype=object)[block.view(np.uint8)]
    key = block.view(np.int64) if kind == "f" else block
    distinct, inverse = np.unique(key, return_inverse=True)
    if kind == "f":
        fmt = "%.17g" + sep
        texts = [fmt % v for v in distinct.view(np.float64).tolist()]
    elif kind == "U":
        texts = [_quoted(v) + sep for v in distinct.tolist()]
    else:
        fmt = "%d" + sep
        texts = [fmt % v for v in distinct.tolist()]
    return np.array(texts, dtype=object)[inverse]


def write_columns(path: str | Path, header: Sequence[str], columns: Sequence) -> None:
    """Write ``header`` and the equal-length 1-D ``columns`` below it, one
    column per header cell, to ``path``."""
    columns = [_column(c) for c in columns]
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header cells but {len(columns)} columns")
    n_rows = len(columns[0][0]) if columns else 0
    if any(len(values) != n_rows for values, _ in columns):
        raise ValueError("columns must have equal lengths")
    seps = [","] * (len(columns) - 1) + ["\n"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(map(_quoted, header)) + "\n")
        for start in range(0, n_rows, BLOCK_ROWS):
            stop = min(start + BLOCK_ROWS, n_rows)
            cells = np.empty((stop - start, len(columns)), dtype=object)
            for c, ((values, blank), sep) in enumerate(zip(columns, seps)):
                cells[:, c] = _texts(values[start:stop], sep)
                if blank is not None:
                    cells[blank[start:stop], c] = sep
            fh.write("".join(cells.ravel().tolist()))
