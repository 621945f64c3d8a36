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

The commutator entries E_ij are consumed as known inputs (they depend only on
the classical equation of motion, not on the state) and are never re-derived
from the correlators here.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .detector import CorrelatorTable
from .errors import DephasingError, NoiseDominatedError, TangentDomainError

__all__ = [
    "ReconstructionResult",
    "reconstruct_spacelike",
    "causal_correction",
    "assemble_wightman",
    "reconstruct_record",
    "write_reconstruction_results",
]

_DEPHASING_HARD = 1e-300   # |zz| below this: no information survives
_DEPHASING_FLAG = 1e-6     # |zz| below this: result returned but flagged


def _pair_index(table: CorrelatorTable, i: int, j: int) -> tuple[int, int, np.ndarray]:
    """0-based (a, b) of the 1-based pair (i, j), and the third detectors' indices."""
    n = table.n
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise ValueError(f"need distinct 1-based indices in [1, {n}], got i={i}, j={j}")
    a, b = i - 1, j - 1
    idx = np.arange(n)
    return a, b, idx[(idx != a) & (idx != b)]


def reconstruct_spacelike(table: CorrelatorTable, i: int, j: int) -> float:
    """H_ij from the yy/zz ratio alone (valid when no third-party causal links)."""
    a, b, _ = _pair_index(table, i, j)
    return _spacelike(table, i, j, a, b)


def _spacelike(table: CorrelatorTable, i: int, j: int, a: int, b: int) -> float:
    zz, yy = float(table.zz[a, b]), float(table.yy[a, b])
    if abs(zz) < _DEPHASING_HARD:
        raise DephasingError(f"pair ({i},{j}): <sz sz> = {zz:g} is fully dephased")
    ratio = yy / zz
    if abs(ratio) >= 1.0:
        raise NoiseDominatedError(
            f"pair ({i},{j}): |yy/zz| = {abs(ratio):.6g} >= 1, "
            "sampled correlators are noise dominated", ratio=ratio)
    return 0.5 * math.atanh(ratio)


def causal_correction(table: CorrelatorTable, i: int, j: int) -> float:
    """C_ij = (1/2) sum_{k != i,j} arctanh[(<sy_i sx_k>/<sz_i>)(<sx_k sy_j>/<sz_j>)].

    A ``TangentDomainError`` names the 1-based third detector k whose
    product left the arctanh domain.
    """
    return _correction(table, i, j, *_pair_index(table, i, j))


def _correction(table: CorrelatorTable, i: int, j: int, a: int, b: int,
                others: np.ndarray) -> float:
    zi, zj = float(table.z[a]), float(table.z[b])
    if zi == 0.0 or zj == 0.0:
        raise DephasingError(f"pair ({i},{j}): vanishing <sz> denominator")
    x = (table.yx[a, others] / zi) * (table.xy[others, b] / zj)
    outside = np.flatnonzero(np.abs(x) >= 1.0)
    if outside.size:
        k = int(others[outside[0]]) + 1
        raise TangentDomainError(
            f"pair ({i},{j}), correction term k={k}: |product| = "
            f"{abs(x[outside[0]]):.6g} >= 1 (some 2G approaches pi/2)", k=k)
    return float(0.5 * np.sum(np.arctanh(x)))


def assemble_wightman(h_ij: float, e_ij: float) -> complex:
    """W_ij = H_ij/2 + i E_ij/2."""
    return complex(0.5 * h_ij, 0.5 * e_ij)


@dataclass
class ReconstructionResult:
    """Reconstructed pair data plus diagnostics."""

    i: int
    j: int
    H_ij_reconstructed: float
    C_ij: float
    W_ij: complex
    regime: str                      # "spacelike" | "causal"
    condition_flags: list[str] = field(default_factory=list)


def reconstruct_record(table: CorrelatorTable, i: int, j: int,
                       e_ij: float) -> ReconstructionResult:
    """Invert pair (i, j) of a correlator table: H_ij = (1/2) arctanh(yy/zz) - C_ij.

    Consumes the known commutator entry e_ij.  The regime is data driven: a
    pair whose cross correlators with every third detector vanish uses the
    pure spacelike branch.  Heavily dephased pairs are flagged rather than
    rejected.
    """
    a, b, others = _pair_index(table, i, j)
    flags: list[str] = []
    if abs(table.zz[a, b]) < _DEPHASING_FLAG:
        flags.append("dephasing_dominated")
    if np.any(table.yx[a, others] != 0.0) or np.any(table.xy[others, b] != 0.0):
        regime = "causal"
        c = _correction(table, i, j, a, b, others)
    else:
        regime = "spacelike"
        c = 0.0
    h = _spacelike(table, i, j, a, b) - c
    return ReconstructionResult(
        i=i, j=j, H_ij_reconstructed=h, C_ij=c,
        W_ij=assemble_wightman(h, e_ij), regime=regime, condition_flags=flags)


def write_reconstruction_results(results: Sequence[ReconstructionResult],
                                 path: str | Path,
                                 h_true: np.ndarray | None = None) -> None:
    """Persist results; ``h_true`` (1-based pairs via [i-1, j-1]) is optional."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["i", "j", "regime", "H_reconstructed", "H_true_if_known",
                         "C_ij", "Re_W", "Im_W", "flags"])
        for r in results:
            true_s = ""
            if h_true is not None:
                true_s = f"{h_true[r.i - 1, r.j - 1]:.17g}"
            writer.writerow([
                r.i, r.j, r.regime,
                f"{r.H_ij_reconstructed:.17g}", true_s, f"{r.C_ij:.17g}",
                f"{r.W_ij.real:.17g}", f"{r.W_ij.imag:.17g}",
                ";".join(r.condition_flags),
            ])
