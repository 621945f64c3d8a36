"""Inversion of detector correlators into the smeared field two-point function.

All correlators are read from one ``CorrelatorTable`` per lattice.  For a
spacelike-isolated pair the anticommutator kernel follows from two
correlators alone,

    H_ij = (1/2) arctanh(<sy_i sy_j> / <sz_i sz_j>),

while pairs with causally connected third detectors pick up a correction

    C_ij = (1/2) sum_k arctanh[ (<sy_i sx_k>/<sz_i>) (<sx_k sy_j>/<sz_j>) ],

each ratio being -tan(2 G) of the corresponding retarded entry, so that
H_ij = (1/2) arctanh(yy/zz) - C_ij in general.  Combining with the known
commutator part gives back the complex two-point value W = H/2 + i E/2.

``reconstruct_table`` forms the ratios yx / z once per table (or stack),
inverts every pair i < j in one array pass over the pair blocks of
``detector.pair_blocks`` (row-major, the order of the table's ``zz`` and
``yy`` vectors), and collects the failures of the pairs that cannot be
inverted; a single pair is read off at its row-major position q, where it
also sits in ``table.zz`` and ``table.yy``.  A stack of sampled tables is
inverted in the same pass, over all its (table, pair) rows; each table comes
out bitwise as when it is inverted alone.

The commutator entries E_ij are consumed as known inputs (they depend only on
the classical equation of motion, not on the state) and are never re-derived
from the correlators here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .detector import CorrelatorTable, pair_blocks
from .errors import (DephasingError, NoiseDominatedError, TangentDomainError,
                     UdwTomoError)
from .tables import Labelled, write_columns

__all__ = [
    "TableReconstruction",
    "reconstruct_table",
    "write_reconstruction_results",
]

_DEPHASING_HARD = 1e-300   # |zz| below this: no information survives
_DEPHASING_FLAG = 1e-6     # |zz| below this: result returned but flagged


@dataclass(frozen=True)
class TableReconstruction:
    """Every pair i < j of a table, row-major, with 1-based labels ``i``, ``j``.

    Every array has the shape of the table's ``zz``: (n(n-1)/2,) for one
    table, (R, n(n-1)/2) for a stack of R.  ``H`` and ``C`` are NaN for the
    pairs in ``failures``, which maps a pair's flat position in ``H.ravel()``
    (for one table, its row-major position q) to the error that stopped its
    inversion, in ascending positions.
    """

    i: np.ndarray
    j: np.ndarray
    H: np.ndarray
    C: np.ndarray
    causal: np.ndarray
    dephasing_dominated: np.ndarray
    failures: dict[int, UdwTomoError]

    @property
    def ok(self) -> np.ndarray:
        mask = np.ones(self.H.size, dtype=bool)
        mask[list(self.failures)] = False
        return mask.reshape(self.H.shape)


def _invert(table: CorrelatorTable, ratios: np.ndarray, counts: np.ndarray,
            start: int, a: np.ndarray, b: np.ndarray):
    """H, C, causal mask, dephasing flag and {position: error} of the 0-based
    pairs (a[p], b[p]), a[p] < b[p], at flat positions start + p of the table
    or stack (``detector.pair_blocks``).

    ``ratios`` holds yx / z and ``counts`` each row's number of nonzero yx
    off the diagonal, one row per detector of the stack, both formed once
    per table or stack.  A pair is causal if row i or row j of yx is nonzero
    outside columns i and j.  Its x_k = (yx_ik/z_i)(yx_jk/z_j) are the
    products of the gathered ratio rows, kept at the third detectors k in
    ascending order, so the arctanh terms of C add up in that order; arctanh
    is evaluated only where x_k != 0 (arctanh(+-0) = +-0).  A failing pair
    reports the first of: zero <sz> on a causal pair, a product outside the
    arctanh domain (first k), a fully dephased zz, a noise-dominated yy/zz.
    """
    n, stop = table.n, start + len(a)
    # detectors a and b of each row's own table, numbered over the whole stack
    first = np.arange(start, stop) // max(1, n * (n - 1) // 2) * n
    ra, rb = first + a, first + b
    yx = table.yx.reshape(-1)
    causal = (counts[ra] > (yx[ra * n + b] != 0.0)) | (counts[rb] > (yx[rb * n + a] != 0.0))
    rows = np.arange(len(a))
    third = np.ones((len(a), n), dtype=bool)  # k != a, b
    third[rows, a] = third[rows, b] = False
    z = table.z.reshape(-1)
    zi, zj = z[ra], z[rb]
    zz, yy = table.zz.reshape(-1)[start:stop], table.yy.reshape(-1)[start:stop]
    with np.errstate(divide="ignore", invalid="ignore"):
        x = (ratios[ra] * ratios[rb])[third].reshape(len(a), max(0, n - 2))
        nonzero = x != 0.0
        terms = x.copy()  # arctanh(+-0) = +-0
        terms[nonzero] = np.arctanh(x[nonzero])
        c = np.where(causal, 0.5 * np.sum(terms, axis=1), 0.0)
        ratio = yy / zz
    # libm's atanh: numpy's vectorised arctanh differs from it in the last
    # 1-2 bits of about one value in five, and H would move with it
    noisy = np.abs(ratio) >= 1.0
    inside = np.where(noisy, np.nan, ratio).tolist()
    h = 0.5 * np.fromiter(map(math.atanh, inside), float, len(inside)) - c

    zero_z = causal & ((zi == 0.0) | (zj == 0.0))
    outside = np.abs(x) >= 1.0
    tangent = causal & np.any(outside, axis=1)
    dephased = np.abs(zz) < _DEPHASING_HARD
    failures: dict[int, UdwTomoError] = {}
    for q in np.flatnonzero(zero_z | tangent | dephased | noisy).tolist():
        pair = f"pair ({a[q] + 1},{b[q] + 1})"
        if zero_z[q]:
            failures[q] = DephasingError(f"{pair}: vanishing <sz> denominator")
        elif tangent[q]:
            col = int(np.argmax(outside[q]))
            k = int(np.flatnonzero(third[q])[col]) + 1
            failures[q] = TangentDomainError(
                f"{pair}, correction term k={k}: |product| = "
                f"{abs(x[q, col]):.6g} >= 1 (some 2G approaches pi/2)", k=k)
        elif dephased[q]:
            failures[q] = DephasingError(f"{pair}: <sz sz> = {zz[q]:g} is fully dephased")
        else:
            failures[q] = NoiseDominatedError(
                f"{pair}: |yy/zz| = {abs(ratio[q]):.6g} >= 1, "
                "sampled correlators are noise dominated", ratio=float(ratio[q]))
    bad = list(failures)
    h[bad] = c[bad] = np.nan
    return h, c, causal, np.abs(zz) < _DEPHASING_FLAG, failures


def reconstruct_table(table: CorrelatorTable) -> TableReconstruction:
    """Invert every pair i < j of ``table``: H_ij = (1/2) arctanh(yy/zz) - C_ij.

    A stack of tables is inverted in the same pass, every (table, pair) row
    at once.  The rows are taken in the blocks of ``detector.pair_blocks``,
    so the work arrays stay small however large the lattice or the stack,
    and each table's pairs come out bitwise as when it is inverted alone.  A
    pair that cannot be inverted gets NaN and its error in ``failures``; the
    other pairs are unaffected.
    """
    shape, n = np.shape(table.zz), table.n
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = (table.yx / table.z[..., None]).reshape(-1, n)
    counts = np.count_nonzero((table.yx != 0.0) & ~np.eye(n, dtype=bool), axis=-1).reshape(-1)
    parts, failures = [], {}
    for start, a, b in pair_blocks(n, math.prod(shape[:-1])):
        *arrays, fails = _invert(table, ratios, counts, start, a, b)
        parts.append((a + 1, b + 1, *arrays))
        failures.update((start + q, err) for q, err in fails.items())
    i, j, h, c, causal, flagged = (np.concatenate(col).reshape(shape) for col in zip(*parts))
    return TableReconstruction(i=i, j=j, H=h, C=c, causal=causal,
                               dephasing_dominated=flagged, failures=failures)


def write_reconstruction_results(rec: TableReconstruction, E: np.ndarray,
                                 path: str | Path, h_true: np.ndarray) -> None:
    """Persist the inverted pairs of ``rec`` (failed pairs are left out), with
    W = H/2 + i E/2 from the commutator matrix ``E`` and the true H of each
    pair from ``h_true``."""
    ok = rec.ok
    i, j, h = rec.i[ok], rec.j[ok], rec.H[ok]
    regime = Labelled(rec.causal[ok], "spacelike", "causal")
    flags = Labelled(rec.dephasing_dominated[ok], "", "dephasing_dominated")
    write_columns(path, ["i", "j", "regime", "H_reconstructed", "H_true_if_known",
                         "C_ij", "Re_W", "Im_W", "flags"],
                  [i, j, regime, h, h_true[i - 1, j - 1], rec.C[ok], 0.5 * h,
                   0.5 * E[i - 1, j - 1], flags])
