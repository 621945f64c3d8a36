"""CSV tables as every scenario writes them.

UTF-8, a header row, LF line endings, floats as ``%.17g`` (17 significant
digits, so each float reads back exactly), ints in decimal, and text quoted
the way ``csv.writer`` quotes it (``QUOTE_MINIMAL``).  The bytes are those
of ``csv.writer`` fed with ``f"{v:.17g}"`` for the floats, for rows of two
or more cells (csv.writer writes a lone empty cell as ``""``).

``write_columns`` takes a table as equal-length 1-D float, int or text
arrays (a bool or object array, or anything that is not an ndarray, raises
``ValueError``) and ``Indexed`` columns, the one column wrapper: row r is
``values[index[r]]``, ``values`` a 1-D float, int or text array and
``index`` a 1-D integer array within range, -1 for a blank cell (a failed
row's).  A plain column is formatted row by row and an ``Indexed`` column
once per value: the caller declares what repeats, and the writer looks for
no repeats of its own.  ``Indexed.distinct`` makes one over a float
array's distinct entries, told apart by bit pattern (so ``-0.0`` stays
``-0`` next to ``0``, and NaNs of different payloads stay apart).  Every
text is UTF-8 bytes from the start (``b"%.17g" % v``, ``b"%d" % v``,
quoted text encoded once) and carries the separator that follows it in its
column; the rows are written to a file opened ``"wb"`` in blocks of at most
``BLOCK_ROWS`` cells (``BLOCK_ROWS // columns`` rows), each block one
``b"".join``.

A float column of fewer than ``_ARRAY_MIN_FLOATS`` values to format is
formatted by ``b"%.17g" % v``, one value at a time; a longer one goes
through an exact array pass (``_array_texts``) in chunks of at most
``BLOCK_ROWS`` values: each value is scaled to a 17-digit integer D by a
double-double power of ten and given one 32-byte row of eight uint32 words
(D's leading digit, its 16 other digits four to a word from one table of
10^4 words, ``.0-e``, the exponent's sign and three digits, the separator
and NULs).  A template of byte offsets for the value's sign, layout and
number of significant digits gathers its text from the row in one ``take``,
read back as ``S25`` bytes.  The pass certifies each rounding, and
``b"%.17g" % v`` formats whatever it does not settle: near-ties, zeros,
NaNs, infinities and magnitudes outside [1e-250, 1e250).  Either way the
texts are those of ``"%.17g" % v``, encoded.

A file is opened without ``O_TRUNC`` (created with mode ``0o666`` less the
umask if it does not exist; an existing one keeps its mode, and a symlink
is written through), written over its old bytes, and then cut at the
written length.  A new file, and one that is not a regular file
(``/dev/null``, a pipe), is not cut.  A table that raises mid-write (a
block that fails, an interrupt) leaves a regular file, new or old, empty,
so no header and leading blocks parse as a complete table; the exception
propagates unchanged, and a device or a pipe is left alone.  Truncating
on open is what an existing file costs: over a 95 B, 141 kB and 473 kB
file, ``open(path, "w")`` took 0.074, 0.15 and 0.33 ms and its close
0.028-0.058 ms, against 0.013-0.027 ms for the open and 0.012-0.014 ms for
the cut and close without ``O_TRUNC`` (ext4, 2 cores, Python 3.11).  A hard
kill mid-write (SIGKILL, a power loss) runs no handler and can leave the
new bytes followed by the old file's tail, where a truncating open left a
short file: a table is complete only once ``write_columns`` has returned,
and the package never calls ``fsync``.
"""

from __future__ import annotations

import csv
import functools
import io
import os
import stat
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

__all__ = ["BLOCK_ROWS", "Indexed", "write_columns"]

# the array pass's chunk of values and the writer's block of cells: the
# gallery's two grid tables (9409 and 5151 rows of 3 cells) write in 2.9-3.2
# and 2.1-2.3 ms at 1024, 2.6-2.8 and 1.8-2.0 ms at 2048 and 2.4-2.7 and
# 1.7-1.9 ms at 4096 (2 cores, Python 3.11, numpy 2.4); a chunk holds 32 B
# of row and 200 B of gather index per value, and 4096 raised the gallery's
# peak RSS by 0.4-0.8 MiB over 2048
BLOCK_ROWS = 2048

# the array pass costs ~60 us per chunk before its ~0.1 us per value,
# b"%.17g" 0.45-0.55 us per full-precision value: the two break even at
# 136-176 distinct values (2 cores, Python 3.11, numpy 2.4), and the thermal
# scan's five 158-value columns take 320-340 us by b"%.17g" against ~390 us
# by the pass.  Short decimals such as scan coordinates (~0.2 us each by
# b"%.17g") take the pass too: the one-particle scan's 520 s values cost
# ~125 us there against ~100 us by b"%.17g" (same machine), ~0.25 % of the
# gallery's run, too small a gap for a rule of their own
_ARRAY_MIN_FLOATS = 160

# no O_TRUNC (see the module docstring); O_BINARY, on Windows only, keeps the
# LF line endings
_OPEN_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)

# csv.writer quotes a field only if it holds one of these (which of them
# depends on the Python version, so such fields go through csv.writer)
_SPECIAL = frozenset(',"\r\n')


class Indexed(NamedTuple):
    """A column whose row r is ``values[index[r]]``, blank where
    ``index[r]`` is -1."""

    values: np.ndarray
    index: np.ndarray

    @classmethod
    def distinct(cls, values: np.ndarray) -> Indexed:
        """The 1-D float ``values`` (as float64) over their distinct
        entries, told apart by bit pattern."""
        keys = values.astype(np.float64, copy=False).view(np.int64)
        distinct, index = np.unique(keys, return_inverse=True)
        return cls(distinct.view(np.float64), index)


def _quoted(text: str) -> str:
    """``text`` as csv.writer writes it in a row of two or more cells."""
    if _SPECIAL.isdisjoint(text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _dtype(values) -> str:
    return str(getattr(values, "dtype", type(values).__name__))


def _column(column) -> tuple[np.ndarray, np.ndarray]:
    """A column's values to format and the index of each row's value (-1
    for a blank cell)."""
    index = None
    if isinstance(column, Indexed):
        values, index = column
        if (not isinstance(values, np.ndarray) or values.dtype.kind not in "fiuU"
                or values.ndim != 1):
            raise ValueError("an Indexed column's values must be a 1-D float, int or text "
                             f"array, got {_dtype(values)} of shape {np.shape(values)}")
        if not isinstance(index, np.ndarray) or index.dtype.kind not in "iu" or index.ndim != 1:
            raise ValueError("an Indexed column's index must be a 1-D integer array, got "
                             f"{_dtype(index)} of shape {np.shape(index)}")
        if len(index) and (index.min() < -1 or index.max() >= len(values)):
            raise ValueError(f"an Indexed column's index runs outside its {len(values)} values")
    else:
        values = column
        if not isinstance(values, np.ndarray) or values.dtype.kind not in "fiuU":
            raise ValueError(f"columns must be float, int or text arrays, got {_dtype(values)}")
        if values.ndim != 1:
            raise ValueError(f"columns must be 1-D, got shape {values.shape}")
    if values.dtype.kind == "f":
        values = values.astype(np.float64, copy=False)
    return values, np.arange(len(values)) if index is None else index


# ---------------------------------------------------------------------------
# the array pass: "%.17g" % v for many floats at once
# ---------------------------------------------------------------------------

# |v| in [1e-250, 1e250) has decimal exponent X in [-250, 249]; v 10^(16 - X)
# is its 17-digit integer, and X may move by one at a decade boundary
_MIN_ABS, _MAX_ABS = 1e-250, 1e250
_X_MAX = 251
_K_MIN, _K_MAX = 16 - _X_MAX, 16 + _X_MAX
_SPLITTER = 134217729.0   # 2^27 + 1: Veltkamp's split into two 26-bit halves


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a`` as hi + lo, each with at most 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _pow10_table() -> np.ndarray:
    """Rows hi, lo and hi's two halves, columns k in [_K_MIN, _K_MAX]:
    hi is 10^k correctly rounded and lo the rest correctly rounded, both
    from exact int arithmetic (int / int rounds correctly in Python), so
    hi + lo = 10^k to ~2^-107 relative."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            p = 10 ** k
            hi.append(float(p))
            lo.append(float(p - int(hi[-1])))
        else:
            q = 10 ** -k
            hi.append(1 / q)
            num, den = hi[-1].as_integer_ratio()
            lo.append((den - num * q) / (den * q))
    hi = np.array(hi)
    return np.stack([hi, np.array(lo), *_split(hi)])


_POW10 = _pow10_table()


def _scaled(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a 10^(16 - x) as s + e, s the nearest float to it: Dekker's exact
    product of a and hi, plus a lo (error ~1e-14 for s in [1e16, 1e17))."""
    hi, lo, h_hi, h_lo = _POW10.take(16 - x - _K_MIN, axis=1)
    a_hi, a_lo = _split(a)
    p = a * hi
    r = (((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo) + a * lo
    s = p + r
    return s, r - (s - p)


# A value's row is 32 bytes, eight uint32 words: its leading digit, the 16
# other digits of D four to a word, ".0-e", the exponent's sign and three
# digits, and the separator followed by NULs (numpy's bytes drop NULs from
# the end of a text).  A text gathers its bytes from the row by a template
# of byte offsets.
_ROW = 32
_DIGITS = [0, *range(4, 20)]   # the offset of each of D's 17 digits
_DOT, _ZERO, _MINUS, _E, _EXP_SIGN, _SEP, _NUL = 20, 21, 22, 23, 24, 28, 29
_WIDTH = 25   # "-d.dddddddddddddddde-ddd" and the separator
# layouts: fixed point for X in [-4, 16] (layout X + 4), then exponent
# notation with two and with three exponent digits
_FIXED = 21
_LAYOUTS = _FIXED + 2


def _template(neg: bool, layout: int, m: int) -> list[int]:
    """The offsets a text takes, in order: sign ``neg``, ``layout``, and
    ``m`` significant digits (%g drops the 17 - m zeros after them)."""
    out = [_MINUS] if neg else []
    if 4 <= layout < _FIXED:                     # X >= 0: ddd.ddd, or ddd
        x = layout - 4
        out += _DIGITS[:x + 1]
        if m > x + 1:
            out += [_DOT, *_DIGITS[x + 1:m]]
    elif layout < _FIXED:                        # X < 0: 0.000ddd
        out += [_ZERO, _DOT, *[_ZERO] * (3 - layout), *_DIGITS[:m]]
    else:                                        # d.ddde+dd, d.ddde-ddd
        out += [0, *([_DOT, *_DIGITS[1:m]] if m > 1 else [])]
        out += [_E, _EXP_SIGN, *range(_SEP - (2 if layout == _FIXED else 3), _SEP)]
    out.append(_SEP)
    return out + [_NUL] * (_WIDTH - len(out))


def _templates() -> np.ndarray:
    """Every template, row (neg * _LAYOUTS + layout) * 17 + m - 1."""
    rows = [(neg, layout, m) for neg in (False, True) for layout in range(_LAYOUTS)
            for m in range(1, 18)]
    out = np.empty((len(rows), _WIDTH), dtype=np.intp)
    for row, args in zip(out, rows):
        row[:] = _template(*args)
    return out


def _words(codes: np.ndarray) -> np.ndarray:
    """Rows of four byte codes as uint32 words, in memory order."""
    return np.ascontiguousarray(codes, dtype=np.uint8).view(np.uint32).ravel()


@functools.cache
def _lookups() -> tuple[np.ndarray, ...]:
    """The array pass's tables, built at its first call (a run that formats
    no long float column, such as the lattice roundtrip, never holds them):
    the templates; the word of each 4-digit group and the rank (1-4) of its
    last nonzero digit; the word of each exponent X in [-_X_MAX, _X_MAX]
    (sign and three digits) and its layout."""
    # the codes of the four digits of each int below 10^4, one column per int
    codes = (np.arange(10 ** 4, dtype=np.uint16)
             // np.array([1000, 100, 10, 1], dtype=np.uint16)[:, None] % 10 + ord("0")
             ).astype(np.uint8)
    # 4 less a group's trailing zeros; a group of zeros gets -16, below any
    # rank m can take
    ranks = np.max((codes != ord("0")) * np.arange(1, 5, dtype=np.int8)[:, None], axis=0)
    ranks[0] = -16
    x = np.arange(-_X_MAX, _X_MAX + 1)
    exp_codes = np.vstack([np.where(x < 0, ord("-"), ord("+")), codes[1:, np.abs(x)]])
    layouts = np.where((x >= -4) & (x <= 16), x + 4,
                       np.where(np.abs(x) < 100, _FIXED, _FIXED + 1))
    return _templates(), _words(codes.T), ranks, _words(exp_codes.T), layouts.astype(np.intp)


_POINT_WORD = np.frombuffer(b".0-e", dtype=np.uint32)[0]


def _array_texts(v: np.ndarray, sep: bytes) -> tuple[list[bytes], np.ndarray]:
    """``b"%.17g" % x + sep`` for each float64 x in ``v``, and the mask of
    the texts that hold it; the others are placeholders."""
    n = len(v)
    a = np.abs(v)
    ok = (a >= _MIN_ABS) & (a < _MAX_ABS)
    a[~ok] = 1.0
    x = np.floor(np.log10(a)).astype(np.intp)
    s, e = _scaled(a, x)
    # next to a power of ten log10 can miss the decade by one; the side is
    # read off s + e, because s alone can round onto 1e16 or 1e17
    shift = (((s > 1e17) | ((s == 1e17) & (e >= 0))).astype(np.intp)
             - ((s < 1e16) | ((s == 1e16) & (e < 0))))
    moved = np.flatnonzero(shift)
    if len(moved):
        x[moved] += shift[moved]
        s[moved], e[moved] = _scaled(a[moved], x[moved])
    # s is an integer, so s + e rounds to D = s + round(e); a fraction within
    # 1e-7 of 1/2 (far above the ~1e-14 error) may be a tie: left unsettled
    whole = np.floor(e)
    frac = e - whole
    ok &= np.abs(frac - 0.5) > 1e-7
    d = s.astype(np.int64) + (whole + (frac > 0.5)).astype(np.int64)
    carry = d == 10 ** 17                        # rounded up into the next decade
    d[carry] = 10 ** 16
    x[carry] += 1
    # D's leading digit and four 4-digit groups: int32 past the first divmod
    high, low = (part.astype(np.int32) for part in np.divmod(d, 10 ** 8))
    high, g2 = np.divmod(high, 10 ** 4)
    lead, g1 = np.divmod(high, 10 ** 4)
    g3, g4 = np.divmod(low, 10 ** 4)
    templates, group_words, ranks, exp_words, layouts = _lookups()
    rows = np.empty((n, _ROW // 4), dtype=np.uint32)
    rows.view(np.uint8)[:, 0] = lead + ord("0")
    for word, group in enumerate((g1, g2, g3, g4), 1):
        rows[:, word] = group_words.take(group)
    rows[:, 5] = _POINT_WORD
    x += _X_MAX
    rows[:, 6] = exp_words.take(x)
    rows[:, 7] = np.frombuffer(sep.ljust(4, b"\0"), dtype=np.uint32)[0]
    # significant digits: the rank of the last nonzero digit
    m = np.maximum(np.maximum(ranks.take(g1) + 1, ranks.take(g2) + 5),
                   np.maximum(ranks.take(g3) + 9, ranks.take(g4) + 13))
    np.maximum(m, 1, out=m)
    template = (np.signbit(v) * _LAYOUTS + layouts.take(x)) * 17 + m - 1
    index = templates.take(template, axis=0)
    index += np.arange(0, _ROW * n, _ROW)[:, None]
    texts = rows.view(np.uint8).ravel().take(index).view(f"S{_WIDTH}").ravel().tolist()
    return texts, ok


def _float_texts(v: np.ndarray, sep: bytes) -> list[bytes]:
    """``b"%.17g" % x + sep`` for each float64 x in ``v``."""
    fmt = b"%.17g" + sep
    if len(v) < _ARRAY_MIN_FLOATS:
        return [fmt % x for x in v.tolist()]
    texts = []
    for start in range(0, len(v), BLOCK_ROWS):
        chunk = v[start:start + BLOCK_ROWS]
        out, ok = _array_texts(chunk, sep)
        for i in np.flatnonzero(~ok).tolist():
            out[i] = fmt % float(chunk[i])
        texts += out
    return texts


# ---------------------------------------------------------------------------
# the writer
# ---------------------------------------------------------------------------

def _texts(values: np.ndarray, sep: bytes) -> np.ndarray:
    """The UTF-8 text of each entry of ``values``, followed by ``sep``, and
    last the blank cell's text, ``sep`` alone (index -1)."""
    if values.dtype.kind == "f":
        texts = _float_texts(values, sep)
    elif values.dtype.kind == "U":
        texts = [_quoted(v).encode() + sep for v in values.tolist()]
    else:
        fmt = b"%d" + sep
        texts = [fmt % v for v in values.tolist()]
    texts.append(sep)
    return np.array(texts, dtype=object)


def write_columns(path: str | Path, header: Sequence[str], columns: Sequence) -> None:
    """Write ``header`` and the equal-length 1-D ``columns`` below it, one
    column per header cell, to ``path``."""
    columns = [_column(c) for c in columns]
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} header cells but {len(columns)} columns")
    n_rows = len(columns[0][1]) if columns else 0
    if any(len(index) != n_rows for _, index in columns):
        raise ValueError("columns must have equal lengths")
    seps = [b","] * (len(columns) - 1) + [b"\n"]
    cells = [(_texts(values, sep), index) for (values, index), sep in zip(columns, seps)]
    with open(os.open(path, _OPEN_FLAGS, 0o666), "wb") as fh:
        old = os.fstat(fh.fileno())
        regular = stat.S_ISREG(old.st_mode)
        try:
            fh.write((",".join(map(_quoted, header)) + "\n").encode())
            # b"".join takes an 80-byte buffer record per item: 1431 rows of 9
            # cells at once (the lattice roundtrip's table) took 1 MB
            rows = max(1, BLOCK_ROWS // len(columns))
            for start in range(0, n_rows, rows):
                stop = min(start + rows, n_rows)
                block = np.empty((stop - start, len(columns)), dtype=object)
                for c, (texts, index) in enumerate(cells):
                    block[:, c] = texts[index[start:stop]]
                fh.write(b"".join(block.ravel().tolist()))
            # an old file's bytes past the written ones go; a new file, a
            # device or a pipe has nothing to cut
            if regular and old.st_size > 0:
                fh.truncate()
        except BaseException:
            # a table cut short must not parse as complete: a regular file is
            # left empty (truncate flushes pending texts before the cut)
            if regular:
                fh.truncate(0)
            raise
