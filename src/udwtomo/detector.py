"""Exact simulation of N gapless two-level detectors after coupling to the field.

The final detector state has a closed form in the monopole eigenbasis: for
sign vectors mu, mu' in {+1,-1}^N the matrix element of rho is

    2^{-N} exp[(i/2) sum_{i<j} (mu'_i mu'_j - mu_i mu_j) Delta_ij]
         * exp[(i/2) sum_{i,j} mu'_i mu_j E_ij]
         * exp[-(1/4) (mu - mu')^T H (mu - mu')]

(the commutator part of the Gaussian norm cancels by antisymmetry, leaving
the anticommutator matrix H).  ``density_matrix`` builds this state exactly
and is the single source of truth for operator expectation values; the
closed-form correlators of ``correlator_table`` are pinned against it.

Conventions pinned against that oracle (the cross correlators' sign, index
order and exponent are all easy to get wrong, and plausible-looking
alternatives fail the comparison at O(0.1)):

    <sz_i sz_j> = (1/2) e^{-H_ii - H_jj} [ e^{+2 H_ij} prod_k cos(2G_ik - 2G_jk)
                                         + e^{-2 H_ij} prod_k cos(2G_ik + 2G_jk) ]
    <sy_i sy_j> = same with a minus between the two terms
    <sz_i>      = e^{-H_ii} prod_{k != i} cos(2 G_ik)
    <sy_i sx_j> = -e^{-H_ii} sin(2 G_ij) prod_{k != i,j} cos(2 G_ik)
    <sx_i sy_j> = -e^{-H_jj} sin(2 G_ji) prod_{k != i,j} cos(2 G_jk)

with G the lambda^2-scaled retarded matrix.  Detector indices are 1-based in
the public API, matching lattice/CSV numbering.

The inversion reads only these observables, and ``CorrelatorTable`` holds
each of them once per lattice: Z_i = <sz_i> is shared by every pair, ZZ and
YY are vectors over the unordered pairs i < j, and the second cross family
needs no storage because <sx_k sy_j> = YX_jk, i.e. XY = YX^T.

The pairs i < j are taken row-major, pair (i, j) at position
q = (i-1)(2n-i)/2 + j-i-1 (1-based i, j), the order of every per-pair array
downstream.  ``pair_blocks`` is the one owner of that order and of the block
size that bounds the per-pair work arrays.

Both O(n^3) lattice passes sum a function of x_k = T_ik T_jk over the third
detectors k: with T = tan 2G and c = cos 2G,

    prod_{k != i,j} cos(2G_ik -+ 2G_jk)
        = z_i z_j e^(H_ii + H_jj) / (c_ij c_ji) * exp(sum_k log(1 +- x_k)),

and the inversion's correction is (1/2) sum_k arctanh x_k
= (1/4) ln(prod_k (1 + x_k) / prod_k (1 - x_k)) with T = yx / z, where the
table has yx = -z T.  ``_power_sums`` expands both in powers of x: sum_k
x_k^p is the pair's entry of S_p = T^(o p) (T^(o p))^T, one n x n matrix
product per power, and T's zero diagonal drops the k = i and k = j terms.
A pair joins the series when r_ij = max_k |T_ik| max_k |T_jk|, which bounds
every |x_k|, is below ``_SERIES_RADIUS``; each table takes as many powers
as its largest r_ij needs to bring the remainder under 2^-53 sum_k |x_k|.
The table and the inversion share this rule.  Every other pair -- r_ij
past the radius, or a row of T with an entry that is not finite or of
magnitude 1 or more -- takes the per-pair path, one pass for both too:
``_pair_products`` gathers its x_k block by block of ``pair_blocks``, and
each caller reduces the products P+- = prod_k (1 +- x_k),
``correlator_table`` as above and ``tomography.reconstruct_table`` as
(1/4) ln(P+ / P-).

``sample_table`` draws one table, or a stack of tables (one per shot count
and seed) that carries a leading axis on every array.  ``pair_blocks`` then
runs over the stack's (table, pair) rows, so one inversion pass takes the
whole stack, and ``stack_size`` bounds a stack by the same element budget.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .config import MAX_SHOTS
from .errors import CapacityError, ConsistencyError
from .kernels import KernelMatrix, _triu_indices

__all__ = [
    "MAX_QUBITS",
    "DensityMatrix",
    "PauliLabel",
    "CorrelatorTable",
    "density_matrix",
    "pauli_ev_oracle",
    "correlator_table",
    "pair_blocks",
    "stack_size",
    "sample_table",
    "random_kernel_matrix",
]

MAX_QUBITS = 12  # 4^N-term sums and 2^N x 2^N dense storage beyond this

_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-12
_PSD_TOL = -1e-10

# Basis change (g, e) -> mu eigenbasis: |+> = (|g>+|e>)/sqrt2, |-> = (|g>-|e>)/sqrt2.
_U_MU = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
_PAULI_GE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
PAULI_MU = {name: _U_MU.conj().T @ mat @ _U_MU for name, mat in _PAULI_GE.items()}


@dataclass(frozen=True)
class PauliLabel:
    """Single-qubit Pauli operator acting on a 1-based qubit index."""

    axis: str
    qubit_index: int

    def __post_init__(self):
        if self.axis not in "IXYZ" or len(self.axis) != 1:
            raise ValueError(f"axis must be one of I, X, Y, Z, got {self.axis!r}")
        if self.qubit_index < 1:
            raise ValueError("qubit_index is 1-based and must be >= 1")


@dataclass(frozen=True)
class DensityMatrix:
    """Dense detector state in the mu eigenbasis.

    Row/column index bits run from qubit 1 (most significant) down, with
    mu = +1 before mu = -1.  Raises ConsistencyError unless the entries are
    a finite 2^n x 2^n matrix, Hermitian and of unit trace to 1e-12 and
    positive semidefinite to 1e-10.
    """

    entries: np.ndarray

    @property
    def n_qubits(self) -> int:
        return len(self.entries).bit_length() - 1

    def __post_init__(self):
        rho = self.entries
        shape = np.shape(rho)
        if len(shape) != 2 or shape[0] != shape[1] or not shape[0] or shape[0] & (shape[0] - 1):
            raise ConsistencyError(f"density matrix of shape {shape}, need 2^n x 2^n")
        if not np.isfinite(rho).all():  # a NaN makes every comparison below false
            raise ConsistencyError("density matrix has entries that are not finite")
        herm = float(np.max(np.abs(rho - rho.conj().T)))
        if herm > _HERMITICITY_TOL:
            raise ConsistencyError(f"density matrix not Hermitian: deviation {herm:.3e}")
        tr = complex(np.trace(rho))
        if abs(tr - 1.0) > _TRACE_TOL:
            raise ConsistencyError(f"density matrix trace {tr} != 1")
        min_eig = float(np.linalg.eigvalsh(rho).min())
        if min_eig < _PSD_TOL:
            raise ConsistencyError(f"density matrix not PSD: min eigenvalue {min_eig:.3e}")


def _sign_table(n: int) -> np.ndarray:
    """All 2^n sign vectors; row index bit (n-1-q) encodes qubit q+1, + first."""
    idx = np.arange(2**n)
    return 1.0 - 2.0 * ((idx[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1)


def density_matrix(kernels: KernelMatrix) -> DensityMatrix:
    """Exact final state of n ground-state detectors given their kernel matrix."""
    n = kernels.n
    if n > MAX_QUBITS:
        raise CapacityError(f"n = {n} detectors exceeds the dense-simulation cap {MAX_QUBITS}")
    H, E, Delta = kernels.H, kernels.E, kernels.Delta
    M = _sign_table(n)

    # quadratic forms over sign vectors
    qH = np.einsum("ai,ij,aj->a", M, H, M)
    cH = M @ H @ M.T
    # (mu - mu')^T H (mu - mu') at (row=mu, col=mu')
    norm_term = -0.25 * (qH[:, None] + qH[None, :] - cH - cH.T)

    # sum_{i<j} mu_i mu_j Delta_ij = (mu Delta mu^T - tr Delta) / 2
    s_delta = 0.5 * (np.einsum("ai,ij,aj->a", M, Delta, M) - np.trace(Delta))
    delta_term = 0.5 * (s_delta[None, :] - s_delta[:, None])

    # sum_{i,j} mu'_i mu_j E_ij at (row=mu, col=mu')
    cE = M @ E @ M.T
    e_term = 0.5 * cE.T

    rho = np.exp(norm_term + 1j * (delta_term + e_term)) / 2**n
    return DensityMatrix(entries=rho)


def pauli_ev_oracle(rho: DensityMatrix, ops: list[PauliLabel]) -> float:
    """Tr(rho * tensor(ops)) evaluated directly on the dense state.

    The brute-force reference for the closed forms; the imaginary part must
    vanish and is checked before being discarded.
    """
    n = rho.n_qubits
    seen = set()
    for op in ops:
        if op.qubit_index > n:
            raise ValueError(f"qubit index {op.qubit_index} exceeds n = {n}")
        if op.axis != "I" and op.qubit_index in seen:
            raise ValueError(f"duplicate qubit index {op.qubit_index} in operator list")
        seen.add(op.qubit_index)
    full = np.eye(1, dtype=complex)
    by_qubit = {op.qubit_index: PAULI_MU[op.axis] for op in ops if op.axis != "I"}
    for q in range(1, n + 1):
        full = np.kron(full, by_qubit.get(q, PAULI_MU["I"]))
    val = complex(np.trace(rho.entries @ full))
    if abs(val.imag) > 1e-12:
        raise ConsistencyError(f"expectation value has imaginary part {val.imag:.3e}")
    return val.real


@dataclass(frozen=True)
class CorrelatorTable:
    """Every detector correlator the inversion reads, each observable stored once.

    ``z[i]`` is <sz_i>; ``zz[q]`` and ``yy[q]`` are <sz_i sz_j> and
    <sy_i sy_j> of the q-th pair i < j in row-major order (``pair_blocks``),
    shape (n(n-1)/2,); ``yx[i, k]`` is <sy_i sx_k>, with a zero diagonal (the
    real part of <sy_i sx_i>).  Array indices are 0-based.

    A stack of R tables (``sample_table`` with R shot counts) is the same
    class with a leading axis on every array: ``z`` (R, n), ``zz`` and ``yy``
    (R, n(n-1)/2), ``yx`` (R, n, n), table r at index r.
    """

    z: np.ndarray
    zz: np.ndarray
    yy: np.ndarray
    yx: np.ndarray

    def __post_init__(self):
        n, stack = self.n, np.shape(self.z)[:-1]
        pairs = stack + (n * (n - 1) // 2,)
        for name, want in (("zz", pairs), ("yy", pairs), ("yx", stack + (n, n))):
            got = np.shape(getattr(self, name))
            if got != want:
                raise ValueError(f"{name} of shape {got} for {n} detectors, need {want}")

    @property
    def n(self) -> int:
        return np.shape(self.z)[-1]

    @property
    def xy(self) -> np.ndarray:
        """``xy[k, j]`` = <sx_k sy_j> = ``yx[j, k]`` (per table of a stack)."""
        return np.swapaxes(self.yx, -1, -2)


# One budget for every per-pair work array: pair blocks keep each float array
# of the per-pair path -- the products x_k and the factors 1 +- x_k over
# (pairs, nonzero columns of T), in the table and the inversion alike --
# within 128 KiB, and ``stack_size`` keeps each stack of
# sampled tables within it.  The series path holds a few n x n arrays per
# table of a stack instead (T, its running power, the product and two sums).
# On the 54- and 81-region thermal lattices (2 cores, numpy 2.4), before the
# series took over their pairs, 2^12 and 2^13 elements were slower, 2^15
# inverted 10-13 % faster but raised the peak resident memory of a 54-region
# roundtrip by 0.3 MiB, and 2^16 was slower again (+1.4 MiB).
_CHUNK_ELEMENTS = 1 << 14


def pair_blocks(n: int, marked: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The pairs i < j of n detectors that the flat mask ``marked`` marks, in
    row-major order, as blocks ``(at, a, b)``: ``marked`` runs over the pairs
    of one table or of a stack's flattened (tables, n(n-1)/2) pair arrays,
    ``at`` holds the marked positions among one block of at most
    ``_CHUNK_ELEMENTS // n`` positions (at least one; it may span two tables),
    and 0-based ``a[p] < b[p]`` is the pair at ``at[p]``.  Blocks with no
    marked pair are skipped."""
    a, b = _pairs(n)
    at = np.flatnonzero(marked)
    block = at // max(1, _CHUNK_ELEMENTS // max(1, n))
    for part in np.split(at, np.flatnonzero(np.diff(block)) + 1) if len(at) else ():
        q = part % len(a)  # the position within its table
        yield part, a[q], b[q]


def stack_size(n: int) -> int:
    """How many sampled tables of n detectors (2n^2 stored elements each) one
    stack holds within ``_CHUNK_ELEMENTS``, at least one."""
    return max(1, _CHUNK_ELEMENTS // max(1, 2 * n * n))


# A pair is summed as a power series when r_ij, its bound on every |x_k|, is
# below this radius; just below it a table takes 49 matrix products (every
# power up to 49) and the inversion 24 (the odd powers up to 47).
_SERIES_RADIUS = 0.5
_SERIES_TOL = 2.0**-53  # remainder bound, relative to sum_k |x_k|
# entries of a power t^(o p) of |t| < 1 below this are dropped, at p = 1 and
# then at the first power past twice the last such p: the entries kept stay
# above 2^-510 up to the next drop, so no product of two of them is subnormal
# (a subnormal operand slows a matrix product many times over)
_FLUSH = 2.0**-255


def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """0-based a < b of the pairs of n detectors, row-major (read-only,
    computed once per n)."""
    return _triu_indices(n, 1)


@functools.lru_cache(maxsize=8)
def _flat_pairs(n: int) -> np.ndarray:
    """The position a n + b of each pair of ``_pairs(n)`` in a flattened
    (n, n) matrix (read-only)."""
    a, b = _pairs(n)
    flat = a * n + b
    flat.flags.writeable = False
    return flat


def _last_power(r: float, step: int) -> int:
    """The highest power p = 1, 1 + step, ... a series with bound r < 1 on
    every |x_k| needs: the first P whose remainder bound over the powers past
    it, r^(P+step-1) / ((P+step)(1 - r^step)) sum_k |x_k| (each term weighs
    1/p <= 1/(P+step)), is at most ``_SERIES_TOL`` sum_k |x_k|; 0 when r = 0."""
    if r == 0.0:
        return 0
    last = 1
    while r ** (last + step - 1) / ((last + step) * (1.0 - r**step)) > _SERIES_TOL:
        last += step
    return last


def _power_sums(t: np.ndarray, step: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_k x_k^p / p over the odd and over the even powers p = 1, 1 + step,
    ..., x_k = t_ik t_jk, for every pair i < j of each table of the stack
    ``t`` (tables, n, n), which must have a zero diagonal: one batched matrix
    product S_p = t^(o p) (t^(o p))^T per power.

    A row is left out unless every |t_ik| < 1 (so a non-finite row is left
    out too).  A pair is in the series when both its rows are kept and
    r_ij = R_i R_j < ``_SERIES_RADIUS``, with R_i = max_k |t_ik|.  Each table
    takes the powers up to ``_last_power`` of the largest r_ij among its
    series pairs, so its sums stay bitwise the same whatever else is stacked
    with it.  Entries of t^(o p) below ``_FLUSH`` are dropped, which moves
    each S_p of a pair by less than n 2^-255, on top of the truncation
    bound.  Returns the odd and the even sums, each (tables, n(n-1)/2)
    row-major, NaN at the pairs outside the series; the even sums are zero
    when ``step`` is 2.
    """
    tables, n = t.shape[0], t.shape[-1]
    a, b = _pairs(n)
    size = np.abs(t)
    kept = np.all(size < 1.0, axis=-1)
    bound = np.max(size, axis=-1, where=kept[..., None], initial=0.0)
    r = bound[:, a] * bound[:, b]
    series = kept[:, a] & kept[:, b] & (r < _SERIES_RADIUS)
    last = np.array([_last_power(v, step)
                     for v in np.max(r, axis=-1, where=series, initial=0.0).tolist()])
    power_of_t = np.where(kept[..., None], t, 0.0)
    factor = power_of_t if step == 1 else power_of_t * power_of_t
    sums = np.zeros((2, tables, n, n))  # even, odd
    drop_at = 1
    for power in range(1, int(np.max(last, initial=0)) + 1, step):
        if power >= drop_at:
            power_of_t[np.abs(power_of_t) < _FLUSH] = 0.0
            drop_at = 2 * power
        live = last >= power
        every = live.all()
        q = power_of_t if every else power_of_t[live]
        s = np.matmul(q, q.swapaxes(-1, -2))
        s /= power
        if every:
            sums[power % 2] += s
        else:
            sums[power % 2, live] += s
        power_of_t = power_of_t * factor
    even, odd = sums.reshape(2, tables, n * n)[:, :, _flat_pairs(n)]
    return np.where(series, odd, np.nan), np.where(series, even, np.nan)


def _pair_products(t: np.ndarray, marked: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """x_k = t_ik t_jk of the pairs i < j that ``marked`` marks, block by block
    of ``pair_blocks``: ``t`` is a stack (tables, n, n) with a zero diagonal
    and ``marked`` runs over its flattened (tables, n(n-1)/2) pairs.

    Yields ``(at, a, b, x, k)`` per block: ``at``, ``a`` and ``b`` as
    ``pair_blocks`` gives them, and x[p, m] the x_k of pair ``at[p]`` at the
    m-th column k[m] (0-based, ascending) with a nonzero entry anywhere in
    the stack.  Every other x_k is 0, and so is x_i = x_j of a finite row,
    so a factor 1 +- x_k there is exactly 1: a product over the columns kept
    is bitwise the one over the third detectors k != i, j, whatever tables
    share the stack.  Builds nothing when no pair is marked.
    """
    if not marked.any():
        return
    n = t.shape[-1]
    k = np.flatnonzero(np.any(t != 0.0, axis=(0, 1)))
    rows = t[..., k]
    for at, a, b in pair_blocks(n, marked):
        r = at // (n * (n - 1) // 2)  # the pair's table
        with np.errstate(invalid="ignore"):  # 0 * inf in a row that is not finite
            x = rows[r, a] * rows[r, b]
        yield at, a, b, x, k


def correlator_table(kernels: KernelMatrix) -> CorrelatorTable:
    """Exact correlator table from the closed forms, in O(n^3) array work.

    cos 2G and sin 2G are taken once, n^2 values each, and every observable
    follows from z, c = cos 2G, T = tan 2G (zero diagonal) and H:
    yx_ik = -z_i T_ik, and the pair products prod_{k != i,j} cos(2G_ik -+
    2G_jk) (module docstring) come from x_k = T_ik T_jk.  The series pairs
    take ``_power_sums`` over T, all powers:

        zz = A cosh(2 H_ij + O),   yy = A sinh(2 H_ij + O),
        A = z_i z_j e^(-E) / (c_ij c_ji),

    with O and E the sums over the odd and the even powers.  Every other
    pair multiplies out P+- = prod_k (1 +- x_k) over ``_pair_products``:

        zz, yy = (1/2) z_i z_j / (c_ij c_ji) (e^(2 H_ij) P+ +- e^(-2 H_ij) P-).

    At strong coupling z_i z_j can underflow to 0 where cosh or e^(2 H_ij)
    overflows.  A cell that these direct forms leave non-finite is taken
    again with the amplitude's exponent joined to the pair's before the
    exponential, ln|z_i| = -H_ii + sum_{k != i} ln|c_ik|, its sign carried
    apart; every cell they get finite keeps its value.
    """
    n = kernels.n
    H, G2 = kernels.H, 2.0 * kernels.GR
    off = ~np.eye(n, dtype=bool)
    c = np.cos(G2)
    c_off = np.where(off, c, 1.0)  # k = i never enters z_i
    z = np.exp(-np.diag(H)) * np.prod(c_off, axis=1)
    t = np.where(off, np.sin(G2) / c, 0.0)
    yx = -z[:, None] * t

    odd, even = (v[0] for v in _power_sums(t[None], 1))
    series = ~np.isnan(odd)
    zz, yy = np.empty(n * (n - 1) // 2), np.empty(n * (n - 1) // 2)
    products = np.ones((2, len(zz)))  # P+- of each pair, 1 on the series
    a, b = (v[series] for v in _pairs(n))
    with np.errstate(over="ignore", invalid="ignore"):  # z_i z_j = 0 against e^(2 H_ij) = inf
        amp = z[a] * z[b] * np.exp(-even[series]) / (c[a, b] * c[b, a])
        u = 2.0 * H[a, b] + odd[series]
        zz[series], yy[series] = amp * np.cosh(u), amp * np.sinh(u)
        for at, a, b, x, _ in _pair_products(t[None], ~series):
            products[:, at] = np.prod(1.0 + x, axis=1), np.prod(1.0 - x, axis=1)
            plus = np.exp(2.0 * H[a, b]) * products[0, at]
            minus = np.exp(-2.0 * H[a, b]) * products[1, at]
            amp = 0.5 * z[a] * z[b] / (c[a, b] * c[b, a])
            zz[at], yy[at] = amp * (plus + minus), amp * (plus - minus)

    redo = np.flatnonzero(~np.isfinite(zz) | ~np.isfinite(yy))
    if len(redo):
        log_c, sign_c = np.log(np.abs(c_off)), np.sign(c_off)
        log_z, sign_z = np.sum(log_c, axis=1) - np.diag(H), np.prod(sign_c, axis=1)
        a, b = (v[redo] for v in _pairs(n))
        log_amp = log_z[a] + log_z[b] - log_c[a, b] - log_c[b, a]
        half = 0.5 * sign_z[a] * sign_z[b] * sign_c[a, b] * sign_c[b, a]
        u = 2.0 * H[a, b] + np.where(series[redo], odd[redo], 0.0)
        e = np.where(series[redo], even[redo], 0.0)
        plus = half * np.exp(log_amp + u - e) * products[0, redo]
        minus = half * np.exp(log_amp - u - e) * products[1, redo]
        zz[redo], yy[redo] = plus + minus, plus - minus
    return CorrelatorTable(z=z, zz=zz, yy=yy, yx=yx)


def sample_table(exact: CorrelatorTable, shots: int | Sequence[int],
                 seed: int | np.random.SeedSequence | Sequence) -> CorrelatorTable:
    """Shot-noise sample of every observable in ``exact``: one table, or a stack.

    Each observable is a +-1 measurement whose number of +1 outcomes is drawn
    binomially (distribution-identical to averaging ``shots`` outcomes).
    An int ``shots`` and one ``seed`` give one table.  A sequence of R shot
    counts and a sequence of R seeds give a stack of R tables, table r
    bitwise the one table of ``sample_table(exact, shots[r], seed[r])``.
    Each table has a generator of its own and one binomial draw over z, zz,
    yy and yx off the diagonal, in that order, so its seed fixes it; the yx
    diagonal stays zero.  The probabilities and the |ev| <= 1 check of
    ``exact`` (one table) are computed once for the whole stack.
    """
    stack = np.shape(shots)  # () for one table, (R,) for a stack of R
    shot_list = list(shots) if stack else [shots]
    for k in shot_list:
        if (isinstance(k, (bool, np.bool_)) or not isinstance(k, (int, np.integer))
                or not 1 <= k <= MAX_SHOTS):
            raise ValueError(f"shots must be integers in [1, 2^63 - 1], got {k!r}")
    seeds = list(seed) if stack else [seed]
    if len(seeds) != len(shot_list):
        raise ValueError(f"{len(shot_list)} shot counts need as many seeds, got {len(seeds)}")
    n = exact.n
    if np.ndim(exact.z) != 1:
        raise ValueError("exact must be one table, not a stack")
    off = ~np.eye(n, dtype=bool)
    ev = np.concatenate((exact.z, exact.zz, exact.yy, exact.yx[off]))
    worst = float(np.max(np.abs(ev), initial=0.0))
    if worst > 1.0:
        raise ValueError(f"|exact_ev| must be <= 1, got {worst}")
    p = np.clip((1.0 + ev) / 2.0, 0.0, 1.0)

    ups = np.empty((len(shot_list), len(p)), dtype=np.int64)  # +1 outcomes
    for r, (k, s) in enumerate(zip(shot_list, seeds)):
        ups[r] = np.random.default_rng(s).binomial(k, p)
    n_shots = np.array(shot_list, dtype=np.int64)[:, None]
    values = (2.0 * ups / n_shots - 1.0).reshape(stack + (len(p),))
    m = n + n * (n - 1) // 2
    z, zz, yy = (np.ascontiguousarray(values[..., lo:hi])
                 for lo, hi in ((0, n), (n, m), (m, 2 * m - n)))
    yx = np.zeros(stack + (n, n))
    yx[..., off] = values[..., 2 * m - n:]
    return CorrelatorTable(z=z, zz=zz, yy=yy, yx=yx)


def random_kernel_matrix(n: int, seed: int | np.random.Generator) -> KernelMatrix:
    """Random physically valid kernel matrix for tests and sweeps.

    GR is drawn strictly lower triangular (index order = time order) with
    entries in [-0.3, 0.3]; E and Delta follow from it.  H starts from a
    Wishart draw and its diagonal is boosted until both |H_ij| <=
    min(H_ii, H_jj) and the Gram matrix (H + iE)/2 is positive semidefinite,
    which is exactly the condition for the detector state to be physical.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    GR = np.zeros((n, n))
    GR[np.tril_indices(n, -1)] = rng.uniform(-0.3, 0.3, n * (n - 1) // 2)
    E = GR - GR.T
    A = rng.normal(size=(n, n))
    H = A @ A.T / n
    d = np.diag(H)
    need = np.abs(H) - np.minimum(d[:, None], d[None, :])
    boost = np.max(need[~np.eye(n, dtype=bool)] + 0.05, initial=0.0)
    H += boost * np.eye(n)
    w_min = float(np.linalg.eigvalsh(0.5 * (H + 1j * E)).min())
    if w_min < 1e-6:
        H += 2.0 * (1e-6 - w_min) * np.eye(n)
    return KernelMatrix(H=H, GR=GR)
