"""Inversion of detector correlators into the smeared field two-point function.

All correlators are read from one ``CorrelatorTable`` per lattice.  For a
spacelike-isolated pair the anticommutator kernel follows from two
correlators alone,

    H_ij = (1/2) arctanh(<sy_i sy_j> / <sz_i sz_j>),

while pairs with causally connected third detectors pick up a correction

    C_ij = (1/2) sum_k arctanh[ (<sy_i sx_k>/<sz_i>) (<sx_k sy_j>/<sz_j>) ],

each ratio being -tan(2 G) of the corresponding retarded entry, so that
H_ij = (1/2) arctanh(yy/zz) - C_ij in general.  Combined with the known
commutator part E_ij, which depends only on the classical equation of motion
and is never re-derived from the correlators, H gives back the complex
two-point value W = H/2 + i E/2 (the scenarios' reconstruction CSV).

``reconstruct_table`` forms the ratios T = yx / z once per table (or
stack) and inverts every pair i < j in one array pass, in row-major order
(``detector.pair_blocks``, the order of the table's ``zz`` and ``yy``
vectors), collecting the failures of the pairs that cannot be inverted; a
single pair is read off at its row-major position q, where it also sits in
``table.zz`` and ``table.yy``.  C is a power series in x_k = T_ik T_jk,
(1/2) sum_m S_(2m+1) / (2m+1) with S_p = T^(o p) (T^(o p))^T, so the pairs
under the series radius take C from a few n x n matrix products
(``detector._power_sums``); the others -- a bound on |x_k| past the radius,
or a ratio row that is not finite or reaches 1 -- take
C = (1/4) ln(prod_k (1 + x_k) / prod_k (1 - x_k)) over blocks of pairs, from
the products that the table's per-pair path multiplies out too
(``detector._pair_products``), and only they can meet the <sz> and
arctanh-domain errors.  A stack of sampled tables is inverted in the same
pass, over all its (table, pair) rows, with one batched product per power;
each table comes out bitwise as when it is inverted alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import CorrelatorTable, _pair_products, _pairs, _power_sums
from .errors import (DephasingError, NoiseDominatedError, TangentDomainError,
                     UdwTomoError)

__all__ = ["TableReconstruction", "reconstruct_table"]

_DEPHASING_HARD = 1e-300   # |zz| below this: no information survives
_DEPHASING_FLAG = 1e-6     # |zz| below this: result returned but flagged
# condition number kappa = |zz| / (|zz| - |yy|) above this: kappa eps (eps =
# 2^-52) passes 1e-8, and H's rounding error may with it; flagged
_CONDITION_FLAG = 1e-8 * 2.0**52


@dataclass(frozen=True)
class TableReconstruction:
    """Every pair i < j of a table, row-major, with 1-based labels ``i``, ``j``.

    Every array has the shape of the table's ``zz``: (n(n-1)/2,) for one
    table, (R, n(n-1)/2) for a stack of R.  ``H`` and ``C`` are NaN for the
    pairs in ``failures``, which maps a pair's flat position in ``H.ravel()``
    (for one table, its row-major position q) to the error that stopped its
    inversion, in ascending positions.  ``condition`` is the condition number
    kappa = |zz| / (|zz| - |yy|) of the arctanh term (inf where |yy| >= |zz|):
    a relative error eps in yy/zz moves H by about kappa eps / 4, so a pair
    is ``ill_conditioned`` where kappa eps > 1e-8 (eps = 2^-52), and
    ``dephasing_dominated`` where |zz| < 1e-6.
    """

    i: np.ndarray
    j: np.ndarray
    H: np.ndarray
    C: np.ndarray
    causal: np.ndarray
    dephasing_dominated: np.ndarray
    condition: np.ndarray
    ill_conditioned: np.ndarray
    failures: dict[int, UdwTomoError]

    @property
    def ok(self) -> np.ndarray:
        mask = np.ones(self.H.size, dtype=bool)
        mask[list(self.failures)] = False
        return mask.reshape(self.H.shape)


def reconstruct_table(table: CorrelatorTable) -> TableReconstruction:
    """Invert every pair i < j of ``table``: H_ij = (1/2) arctanh(yy/zz) - C_ij.

    A stack of tables is inverted in the same pass, every (table, pair) row
    at once, and each table's pairs come out bitwise as when it is inverted
    alone.  C_ij of the series pairs comes from ``detector._power_sums`` over
    T = yx / z with a zero diagonal, odd powers only, one batched product per
    power for the whole stack.  Every other pair takes
    C = (1/4) ln(P+ / P-), P+- = prod_k (1 +- x_k), over the x_k that
    ``detector._pair_products`` gathers one block of pairs at a time, so
    those work arrays stay small however large the lattice or the stack; a
    pair with some |x_k| >= 1 takes no logarithm and fails on the first
    such k.

    A pair is causal if row i or row j of yx is nonzero outside columns i and
    j; a spacelike pair has C = 0.  A pair that cannot be inverted gets NaN
    and its error in ``failures``, the first of: a vanishing <sz> on a
    causal pair (zero, or so small that some yx_ik / z_i overflows),
    a product outside the arctanh domain (first k), a fully dephased zz, a
    noise-dominated yy/zz.  A series pair has finite ratio rows and every
    |x_k| < 1, so only the last two can stop it.  The other pairs are
    unaffected.
    """
    shape, n = np.shape(table.zz), table.n
    tables = math.prod(shape[:-1])
    off = ~np.eye(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = np.where(off, table.yx / table.z[..., None], 0.0).reshape(tables, n, n)
    # <sz_i> vanishes for the inversion where it is zero or so small (a
    # subnormal) that some yx_ik / z_i overflows
    vanishing = (table.z == 0.0).reshape(-1) | np.any(np.isinf(t), axis=-1).reshape(-1)
    c = 0.5 * _power_sums(t, 2)[0].reshape(-1)
    # every (table, pair) row, its detectors numbered over the whole stack
    a, b = (np.tile(v, tables) for v in _pairs(n))
    first = np.repeat(np.arange(tables) * n, n * (n - 1) // 2)
    ra, rb = first + a, first + b
    counts = np.count_nonzero((table.yx != 0.0) & off, axis=-1).reshape(-1)
    yx = table.yx.reshape(-1)
    causal = (counts[ra] > (yx[ra * n + b] != 0.0)) | (counts[rb] > (yx[rb * n + a] != 0.0))

    k_out, x_out = np.zeros(len(c), dtype=int), np.zeros(len(c))
    for at, _, _, x, k in _pair_products(t, np.isnan(c)):
        col = np.argmax(np.abs(x) >= 1.0, axis=1)  # the first k outside the domain, or 0
        k_out[at], x_out[at] = k[col] + 1, np.abs(x[np.arange(len(at)), col])
        inside = x_out[at] < 1.0
        x = x[inside]  # C = (1/2) sum_k arctanh x_k = (1/4) ln(P+ / P-)
        c[at[inside]] = 0.25 * np.log(np.prod(1.0 + x, axis=1) / np.prod(1.0 - x, axis=1))
    c = np.where(causal, c, 0.0)

    zz, yy = table.zz.reshape(-1), table.yy.reshape(-1)
    margin = np.abs(zz) - np.abs(yy)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = yy / zz
        condition = np.where(margin > 0.0, np.abs(zz) / margin, np.inf)
    # libm's atanh: numpy's vectorised arctanh differs from it in the last
    # 1-2 bits of about one value in five, and H would move with it
    noisy = np.abs(ratio) >= 1.0
    inside = np.where(noisy, np.nan, ratio).tolist()
    h = 0.5 * np.fromiter(map(math.atanh, inside), float, len(inside)) - c

    zero_z = causal & (vanishing[ra] | vanishing[rb])
    tangent = causal & (x_out >= 1.0)
    dephased = np.abs(zz) < _DEPHASING_HARD
    failures: dict[int, UdwTomoError] = {}
    for q in np.flatnonzero(zero_z | tangent | dephased | noisy).tolist():
        pair = f"pair ({a[q] + 1},{b[q] + 1})"
        if zero_z[q]:
            failures[q] = DephasingError(f"{pair}: vanishing <sz> denominator")
        elif tangent[q]:
            k = int(k_out[q])
            failures[q] = TangentDomainError(
                f"{pair}, correction term k={k}: |product| = "
                f"{x_out[q]:.6g} >= 1 (some 2G approaches pi/2)", k=k)
        elif dephased[q]:
            failures[q] = DephasingError(f"{pair}: <sz sz> = {zz[q]:g} is fully dephased")
        else:
            failures[q] = NoiseDominatedError(
                f"{pair}: |yy/zz| = {abs(ratio[q]):.6g} >= 1, "
                "sampled correlators are noise dominated", ratio=float(ratio[q]))
    bad = list(failures)
    h[bad] = c[bad] = np.nan
    i, j, h, c, causal, flagged, condition, ill = (v.reshape(shape) for v in (
        a + 1, b + 1, h, c, causal, np.abs(zz) < _DEPHASING_FLAG, condition,
        condition > _CONDITION_FLAG))
    return TableReconstruction(i=i, j=j, H=h, C=c, causal=causal, dephasing_dominated=flagged,
                               condition=condition, ill_conditioned=ill, failures=failures)
