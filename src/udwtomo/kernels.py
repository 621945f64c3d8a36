"""Two-point functions of a massless scalar field and their Gaussian smearings.

Four field states are supported: the Minkowski vacuum, a thermal state of
inverse temperature beta, a coherent state sourced by a spacetime Gaussian of
width delta, and a one-particle Gaussian wavepacket of width delta (spatial
source centered at the origin event for the latter two).

All smeared quantities are computed in momentum space as 1D radial integrals:
each width-ell Gaussian region contributes an on-shell factor exp(-ell^2 k^2),
so the full complex smeared two-point value between regions i, j is

    W_ij = (1/(4 pi^2 dr)) int_0^inf dk e^{-2 ell^2 k^2} e^{-i k dt} sin(k dr)

for the vacuum (dr -> 0 handled by the sin(k dr)/dr -> k limit), with thermal
occupation weights (n_k + 1) and n_k on the positive/negative frequency parts
for the KMS state.  This quadrature route is the independent oracle; every
state and separation also has a closed form (Faddeeva / Dawson, summed over
imaginary-time images for the KMS state), which is used everywhere else.
W at width ell is ell^-2 times W at unit width: the closed forms and
``assemble_kernels`` take lengths in units of ell, the quadrature oracle
keeps ell and checks that covariance in physical units.  Every quadrature
here goes through ``numerics.integrate_semi_infinite``, whose integrand
takes an array of k and returns every component's value at each k, so each
refinement round is one call.  ``_smeared_quadrature`` is the one pair
integrand: one pass gives the Re W of a whole array of pairs (the scans'
quadrature column) or their complex W, and the oracle
``wightman_smeared_quadrature`` is the complex pass over its one pair.
``_region_amplitudes_quadrature`` integrates a sourced state's region
amplitudes, and ``_coth`` holds the occupation's small-argument series and
saturation once.

Sign conventions: W = H/2 + i E/2, so the smeared commutator function
satisfies E = 2 Im W, and the retarded propagator between regions is read off
from E on the future side (dt > 0) of the pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, LightconeSingularityError
from .numerics import integrate_semi_infinite
from .smearing import GaussianRegion
from .spacetime import Interval, default_lightcone_tol, intervals

__all__ = [
    "FieldState",
    "KernelMatrix",
    "hadamard_array",
    "hadamard_dtt_array",
    "phi0_coherent_array",
    "F_oneparticle_array",
    "wightman_smeared_quadrature",
    "wightman_smeared_closed",
    "assemble_kernels",
]

_SQRT_PI = math.sqrt(math.pi)
_SQRT_2PI = math.sqrt(2.0 * math.pi)

_VALID_TAGS = ("vacuum", "thermal", "coherent", "one_particle")


@dataclass(frozen=True)
class FieldState:
    """Tagged field state; beta only for thermal, delta only for the sourced states."""

    tag: str
    beta: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if self.tag not in _VALID_TAGS:
            raise ValueError(f"unknown field state tag {self.tag!r}")
        if self.tag == "thermal":
            if self.beta is None or not (math.isfinite(self.beta) and self.beta > 0):
                raise ValueError("thermal state requires finite beta > 0")
            if self.delta is not None:
                raise ValueError("thermal state takes no delta")
        elif self.tag in ("coherent", "one_particle"):
            if self.delta is None or not (math.isfinite(self.delta) and self.delta > 0):
                raise ValueError(f"{self.tag} state requires finite delta > 0")
            if self.beta is not None:
                raise ValueError(f"{self.tag} state takes no beta")
        else:
            if self.beta is not None or self.delta is not None:
                raise ValueError("vacuum state takes no parameters")

    @classmethod
    def vacuum(cls) -> "FieldState":
        return cls("vacuum")

    @classmethod
    def thermal(cls, beta: float) -> "FieldState":
        return cls("thermal", beta=beta)

    @classmethod
    def coherent(cls, delta: float) -> "FieldState":
        return cls("coherent", delta=delta)

    @classmethod
    def one_particle(cls, delta: float) -> "FieldState":
        return cls("one_particle", delta=delta)


# ---------------------------------------------------------------------------
# pointlike kernels
#
# Each kernel evaluates whole coordinate arrays in one numpy pass, and its
# special branches (small-r series, thermal saturation, the sinhc limit) are
# masks over the points; a single event (pair) is an array of shape (4,).
# ---------------------------------------------------------------------------

def _coth(x: np.ndarray) -> np.ndarray:
    """coth x elementwise for x > 0 (every caller passes beta k / 2 with
    k > 0): the two-term series below 1e-6, 1 above 350."""
    return np.where(x < 1e-6, 1.0 / x + x / 3.0, np.where(x > 350.0, 1.0, 1.0 / np.tanh(x)))


def _time_radius(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # t and the distance from the spatial origin of coordinates (..., 4)
    x = np.asarray(x, dtype=float)
    return x[..., 0], np.sqrt(x[..., 1] ** 2 + x[..., 2] ** 2 + x[..., 3] ** 2)


def _thermal_real(beta: float, dt: np.ndarray, dr: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Re W for the KMS state and its second dt derivative, in the
    cancellation-free product form.

    coth(a) + coth(b) = sinh(a+b) / (sinh(a) sinh(b)) turns the textbook sum
    into a form that is regular as dr -> 0 and loses no precision there.  Of
    (coth a + coth b) / (8 pi beta dr) the second dt derivative is
    W (pi/beta)^2 [csch^2 a + csch^2 b + (coth b - coth a)^2], and
    coth b - coth a = sinh(a - b) / (sinh(a) sinh(b)) is regular there too.
    """
    a = math.pi * (dr + dt) / beta
    b = math.pi * (dr - dt) / beta
    k2 = (math.pi / beta) ** 2
    out, out_tt = np.empty(a.shape), np.empty(a.shape)
    large = np.maximum(np.abs(a), np.abs(b)) > 300.0
    if large.any():
        saturated = np.minimum(np.abs(a), np.abs(b)) > 300.0
        # deep timelike saturation: value ~ e^{-2 min(|a|,|b|)}, below double range
        out[saturated] = 0.0
        plateau = saturated & ~(a * b < 0)
        out[plateau] = 2.0 / (8.0 * math.pi * beta * dr[plateau])
        # both csch^2 below double range: the value is flat in dt
        out_tt[saturated] = 0.0
        # one argument beyond 300: its coth is 1 to double precision, and the
        # product form would overflow; the other argument s enters through
        # q = coth|s| - 1 (a + b >= 0, so the larger-magnitude argument is positive)
        far = large & ~saturated
        s = np.where(np.abs(a[far]) < np.abs(b[far]), a[far], b[far])
        q = 2.0 * np.exp(-2.0 * np.abs(s)) / -np.expm1(-2.0 * np.abs(s))
        c = 8.0 * math.pi * beta * dr[far]
        out[far] = np.where(s > 0, 2.0 + q, -q) / c
        # (coth s)'' = 2 coth s csch^2 s = 2 sign(s) (1 + q) q (2 + q)
        out_tt[far] = 2.0 * k2 * np.sign(s) * (1.0 + q) * q * (2.0 + q) / c
    rest = ~large
    a, b = a[rest], b[rest]
    w = a + b  # = 2 pi dr / beta
    small = np.abs(w) < 1e-6
    sinhc = np.empty(w.shape)
    sinhc[small] = 1.0 + w[small] * w[small] / 6.0
    sinhc[~small] = np.sinh(w[~small]) / w[~small]
    sa, sb = np.sinh(a), np.sinh(b)
    val = sinhc * (2.0 * math.pi / beta) / (8.0 * math.pi * beta * sa * sb)
    out[rest] = val
    out_tt[rest] = val * k2 * (1.0 / sa**2 + 1.0 / sb**2 + (np.sinh(a - b) / (sa * sb)) ** 2)
    return out, out_tt


def _hermite_chain(x: np.ndarray, f0: np.ndarray, f1: np.ndarray, n: int,
                   c: float) -> list[np.ndarray]:
    """[f0, f1, ..., f_n] by f_{k+1} = -c (x f_k + k f_{k-1}).

    With f0 = exp(-c x^2 / 2) and f1 = -c x f0 these are the x derivatives
    of that Gaussian (Hermite functions).  With c = 2, f0 = D(x) the Dawson
    integral and f1 = D' = 1 - 2 x D, they are the derivatives of D, which
    obey the same recurrence from the second on.
    """
    out = [f0, f1]
    for k in range(1, n):
        out.append(-c * (x * out[k] + k * out[k - 1]))
    return out


def _gaussian_wave_pair(t, r, s2: float, dtt: bool = False
                        ) -> tuple[np.ndarray, np.ndarray | None]:
    """(exp(-(r+t)^2/(4 s2)) - exp(-(r-t)^2/(4 s2))) / r with the r -> 0 limit,
    and, if ``dtt``, its second t derivative (else None).

    This odd-in-r combination underlies the sourced classical wave, the
    smeared commutator function and their region-smeared versions.  With
    G(x) = exp(-x^2/(4 s2)) it is (G(r + t) - G(r - t)) / r, so its second
    t derivative is the same difference of G''; below r = 1e-4 sqrt(s2) the
    n-th t derivative is the series 2 G^(n+1)(t) + r^2 G^(n+3)(t) / 3.
    """
    t, r = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(r, dtype=float))
    out = np.empty(t.shape)
    out_tt = np.empty(t.shape) if dtt else None
    c = 0.5 / s2
    small = r < 1e-4 * math.sqrt(s2)
    if small.any():
        ts, rs = t[small], r[small]
        e = np.exp(-ts * ts / (4.0 * s2))
        g = _hermite_chain(ts, e, -c * ts * e, 5 if dtt else 3, c)
        out[small] = 2.0 * g[1] + g[3] * rs * rs / 3.0
        if dtt:
            out_tt[small] = 2.0 * g[3] + g[5] * rs * rs / 3.0
    rg = r[~small]
    x = np.stack([rg + t[~small], rg - t[~small]])
    e = np.exp(-x**2 / (4.0 * s2))
    out[~small] = (e[0] - e[1]) / rg
    if dtt:
        g = _hermite_chain(x, e, -c * x * e, 2, c)
        out_tt[~small] = (g[2][0] - g[2][1]) / rg
    return out, out_tt


def _phi0(delta: float, x: np.ndarray, dtt: bool = False
          ) -> tuple[np.ndarray, np.ndarray | None]:
    # the classical wave at coordinates x and, if dtt, its second time derivative
    t, r = _time_radius(x)
    norm = 4.0 * math.sqrt(2.0) * math.pi
    value, value_tt = _gaussian_wave_pair(t, r, delta * delta, dtt)
    return value / norm, value_tt / norm if dtt else None


def phi0_coherent_array(delta: float, x: np.ndarray) -> np.ndarray:
    """Classical wave of the Gaussian-sourced coherent state at coordinates x.

    x has shape (..., 4), ordered (t, x, y, z).  An incoming positive
    spherical wave from past null infinity that re-emerges with flipped sign
    toward future null infinity; the r -> 0 singularity is removable and
    handled by series.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    return _phi0(delta, x)[0]


def _F(delta: float, x: np.ndarray, dtt: bool = False
       ) -> tuple[np.ndarray, np.ndarray | None]:
    """F and, if ``dtt``, its second time derivative (else None) at
    coordinates x (..., 4).

    With s = sqrt(2) delta, v_-/+ = (r -/+ t) / s and D the Dawson integral,
    F = [h(v_-) + conj h(v_+)] / (2 sqrt(2 pi) r) for
    h(v) = v e^{-v^2} + i (2/sqrt(pi)) v D(v), and F_tt is the same
    combination of h''/s^2; h^(n) = -g_(n+1)/2 - i D^(n+1)/sqrt(pi) for
    n >= 1, g_n the derivatives of e^{-v^2}.  Below r = 1e-3 delta, F and
    F_tt are the series [h^(n)(u) + (r/s)^2 h^(n+2)(u)/6] / (s^n sqrt(2 pi))
    at u = t/s, n = 1 and 3, with the imaginary part negated.

    Real and imaginary parts are kept apart: numpy's complex division
    multiplies by a reciprocal and rounds differently from these formulas.
    """
    from scipy.special import dawsn  # here, not at import: it takes ~0.25 s to load

    t, r = _time_radius(x)
    s = math.sqrt(2.0) * delta
    re, im = np.empty(t.shape), np.empty(t.shape)
    re_tt, im_tt = (np.empty(t.shape), np.empty(t.shape)) if dtt else (None, None)
    small = r < 1e-3 * delta
    if small.any():
        u, q = t[small] / s, (r[small] / s) ** 2 / 6.0
        ev, d = np.exp(-u * u), dawsn(u)
        g = _hermite_chain(u, ev, -2.0 * u * ev, 6 if dtt else 4, 2.0)
        dd = _hermite_chain(u, d, 1.0 - 2.0 * u * d, 6 if dtt else 4, 2.0)
        re[small] = -(g[2] + q * g[4]) / (2.0 * s * _SQRT_2PI)
        im[small] = (dd[2] + q * dd[4]) / (s * _SQRT_PI * _SQRT_2PI)
        if dtt:
            re_tt[small] = -(g[4] + q * g[6]) / (2.0 * s**3 * _SQRT_2PI)
            im_tt[small] = (dd[4] + q * dd[6]) / (s**3 * _SQRT_PI * _SQRT_2PI)
    rg, tg = r[~small], t[~small]
    v = np.stack([rg - tg, rg + tg]) / s
    ev, d = np.exp(-v * v), dawsn(v)
    g1 = -2.0 * v * ev
    h_re = -0.5 * g1 / _SQRT_2PI  # v e^{-v^2}
    h_im = v * (2.0 * d / _SQRT_PI) / _SQRT_2PI
    re[~small] = (h_re[0] + h_re[1]) / (2.0 * rg)
    im[~small] = (h_im[0] - h_im[1]) / (2.0 * rg)
    if not dtt:
        return re + 1j * im, None
    g = _hermite_chain(v, ev, g1, 3, 2.0)
    dd = _hermite_chain(v, d, 1.0 - 2.0 * v * d, 3, 2.0)
    h_re_tt = -0.5 * g[3] / (s * s * _SQRT_2PI)
    h_im_tt = -dd[3] / (s * s * _SQRT_PI * _SQRT_2PI)
    re_tt[~small] = (h_re_tt[0] + h_re_tt[1]) / (2.0 * rg)
    im_tt[~small] = (h_im_tt[0] - h_im_tt[1]) / (2.0 * rg)
    return re + 1j * im, re_tt + 1j * im_tt


def F_oneparticle_array(delta: float, x: np.ndarray) -> np.ndarray:
    """Positive-frequency wavepacket amplitude F at coordinates x (..., 4).

    Matches the radial mode integral of the Gaussian momentum profile.  The
    conjugate convention is equally self-consistent (the imaginary part drops
    out of every anticommutator); this implementation follows the mode
    integral.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    return _F(delta, x)[0]


def _lightcone_errors(itv: Interval) -> dict[int, LightconeSingularityError]:
    """The error of each (numerically) lightlike pair of ``itv``, where the
    pointlike kernels are singular, keyed by its flat position (ascending)."""
    lightlike = np.flatnonzero(np.abs(itv.sigma) <= default_lightcone_tol(itv))
    return {k: LightconeSingularityError(
                f"pointlike kernel singular at dt={itv.dt.flat[k]:g}, "
                f"dr={itv.dr.flat[k]:g}; use the smeared/quadrature path")
            for k in lightlike.tolist()}


def _source_term(state: FieldState, amp_a, amp_b):
    """The sourced state's part of Re W between regions (or points) with
    amplitudes amp_a and amp_b: phi0_a phi0_b, or 2 Re(F_a conj F_b)."""
    if state.tag == "coherent":
        return amp_a * amp_b
    return 2.0 * (amp_a.real * amp_b.real + amp_a.imag * amp_b.imag)


def hadamard_dtt_array(state: FieldState, a: np.ndarray, b: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re W = H/2 between coordinate arrays a, b of shape (..., 4), ordered
    (t, x, y, z), with its second derivatives in the time of a and in the
    time of b, for any of the four states: the one pointlike pass.

    Raises if any pair is (numerically) lightlike, where the pointlike
    kernels are singular; callers should use the smeared kernels
    (``wightman_smeared_closed``) there.
    """
    itv = intervals(a, b)
    errors = _lightcone_errors(itv)
    if errors:
        raise next(iter(errors.values()))
    if state.tag == "thermal":
        w, w_tt = _thermal_real(state.beta, itv.dt, itv.dr)
        return w, w_tt, w_tt
    d = -itv.dt**2 + itv.dr**2
    vac = 1.0 / (4.0 * math.pi**2 * d)
    vac_tt = vac * (2.0 / d + 8.0 * itv.dt**2 / d**2)
    if state.tag == "vacuum":
        return vac, vac_tt, vac_tt
    both = np.stack(np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float)))
    (amp_a, amp_b), amp_tt = (_phi0 if state.tag == "coherent" else _F)(state.delta, both, True)
    return (vac + _source_term(state, amp_a, amp_b),
            vac_tt + _source_term(state, amp_tt[0], amp_b),
            vac_tt + _source_term(state, amp_a, amp_tt[1]))


def hadamard_array(state: FieldState, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re W = H/2 between coordinate arrays a, b: the value that
    ``hadamard_dtt_array`` returns.  Raises on (numerically) lightlike
    pairs."""
    return hadamard_dtt_array(state, a, b)[0]


# ---------------------------------------------------------------------------
# smeared kernels
# ---------------------------------------------------------------------------

def _check_equal_widths(ri: GaussianRegion, rj: GaussianRegion) -> float:
    if abs(ri.ell - rj.ell) > 1e-12 * max(ri.ell, rj.ell):
        raise ValueError(f"regions must share the same width, got {ri.ell} and {rj.ell}")
    return ri.ell


def _radial_factors(dr: np.ndarray):
    # k -> sin(k dr)/dr for every dr of an array, continued through dr = 0
    zero = dr < 1e-300
    safe = np.where(zero, 1.0, dr)
    return lambda k: np.where(zero, k, np.sin(k * safe) / safe)


def _region_amplitudes_quadrature(state: FieldState, ell: float, t: np.ndarray,
                                  r: np.ndarray, tol: float) -> np.ndarray:
    """The sourced state's amplitude smeared over the width-ell regions at
    (t, r), r the distance from the source (phi0 for the coherent state, F
    for the one-particle one), by its radial momentum integral: every region
    in one ``integrate_semi_infinite`` pass."""
    delta, radial = state.delta, _radial_factors(r)
    if state.tag == "coherent":
        a, pref = delta * delta + ell * ell, -delta / (_SQRT_2PI * math.pi)

        def f(k: np.ndarray) -> np.ndarray:
            k = k[:, None]
            return pref * np.exp(-a * k * k) * np.sin(k * t) * radial(k)
    else:
        a, pref = 0.5 * delta * delta + ell * ell, delta * delta / (math.pi * math.sqrt(2.0))

        def f(k: np.ndarray) -> np.ndarray:
            k = k[:, None]
            return pref * k * np.exp(-a * k * k) * radial(k) * np.exp(-1j * k * t)

    osc = float(np.max(r + np.abs(t))) + 1.0
    return integrate_semi_infinite(f, tol, decay_scale=a, osc_scale=osc).value


# the KMS integrand turns over at k ~ 1/beta, far below the cutoff when
# beta >> ell; panel edges at these multiples of 1/beta resolve it
_KMS_KNOTS = (0.01, 0.1, 1.0, 10.0, 100.0)


def _smeared_quadrature(state: FieldState, ell: float, a: np.ndarray, b: np.ndarray,
                        tol: float, imag: bool = False) -> np.ndarray:
    """W between the width-ell regions centred at coordinate arrays a, b of
    shape (n, 4), every pair from one adaptive pass over the radial momentum
    integral: Re W, or with ``imag`` the complex W.  The one pair integrand
    of the package, behind the scans' quadrature column (Re) and the oracle
    ``wightman_smeared_quadrature`` (one pair, complex).  A sourced state
    adds its region amplitudes, one more pass over the distinct regions.
    Raises ConvergenceError when a certificate exceeds 10 tol."""
    itv = intervals(a, b)
    dt, dr = itv.dt, itv.dr
    dtype = complex if imag else float
    if dt.size == 0:
        return np.zeros(0, dtype)
    a2, beta = 2.0 * ell * ell, state.beta
    # cos(k dt) is 1 and sin(k dt) 0 where dt = 0, and sin(k dr)/dr is k
    # where dr = 0 (an anchored scan point has one or the other).  The pairs
    # run in the order dt = dr = 0, then dr = 0, then both nonzero, then
    # dt = 0, so each factor is taken on one slice, where it is not trivial;
    # each pair's integral is independent of the others' order, bit for bit
    timed, on_axis = dt != 0.0, dr < 1e-300
    order = np.argsort(np.array([0, 1, 3, 2])[timed + 2 * ~on_axis], kind="stable")
    dt, dr = dt[order], dr[order]
    first_timed, first_moved = np.count_nonzero(on_axis & ~timed), np.count_nonzero(on_axis)
    timed_part = slice(first_timed, first_timed + np.count_nonzero(timed))
    dt_timed, dr_moved = dt[timed_part], dr[first_moved:]

    def f(k: np.ndarray) -> np.ndarray:
        # w cos(k dt) - i w0 sin(k dt), times radial(k): the occupation weighs
        # the cosine only (the integrator samples k > 0, where coth is finite)
        w0 = np.exp(-a2 * k * k) / (4.0 * math.pi**2)
        w = w0 if beta is None else w0 * _coth(0.5 * beta * k)
        k = k[:, None]
        out = np.repeat(w[:, None], len(dt), axis=1).astype(dtype, copy=False)
        out[:, timed_part] *= np.cos(k * dt_timed)
        if imag:
            out.imag[:, timed_part] = -w0[:, None] * np.sin(k * dt_timed)
        out[:, :first_moved] *= k
        out[:, first_moved:] *= np.sin(k * dr_moved) / dr_moved
        return out

    knots = [c / beta for c in _KMS_KNOTS] if beta is not None else ()
    osc = float(np.max(dr + np.abs(dt))) + 1.0
    w = np.empty(len(dt), dtype)
    w[order] = integrate_semi_infinite(f, tol, a2, osc, knots).value
    if state.tag in ("vacuum", "thermal"):
        return w
    centers, index = np.unique(np.concatenate([a, b]), axis=0, return_inverse=True)
    # amplitudes go as 1/ell and W as 1/ell^2: tol ell errs by the same share
    amp = _region_amplitudes_quadrature(state, ell, *_time_radius(centers), tol * ell)
    return w + _source_term(state, amp[index[:len(dt)]], amp[index[len(dt):]])


def wightman_smeared_quadrature(state: FieldState, ri: GaussianRegion,
                                rj: GaussianRegion, tol: float) -> complex:
    """Full complex smeared two-point value via the radial momentum integral.

    This is the independent oracle for every closed form in this module:
    ``_smeared_quadrature``'s pass over the one pair, Im W included.
    """
    ell = _check_equal_widths(ri, rj)
    return complex(_smeared_quadrature(state, ell, ri.center.coords()[None],
                                       rj.center.coords()[None], tol, imag=True)[0])


# Smearing over unit-width Gaussians is a heat flow exp(a d^2/dt^2), a = 2,
# which turns the vacuum's pole pair into the Faddeeva function w.  The KMS
# kernel sums vacuum images at dt + i n beta: exactly up to n = N, beyond it
# their heat-flow series to order M = 3 by Euler-Maclaurin with K = 4 terms.
# Relative to the vacuum diagonal, r = 2 / beta^2, these cuts err by at
# most 4 (2M+2)!/(M+1)! r^(M+2) / N^(2M+3) = 6720 r^5 / N^9 and
# 8 zeta(2K) (2K)!/(2 pi)^(2K) r / N^(2K+1) = 0.134 r / N^9.
_HEAT_ORDER = 3
_EULER_MACLAURIN = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)  # B_2k/(2k)!
# -2 i^k of the k-th derivative f^(k) = Re[-2 i^k sum_j (a^j/j!) q^(2j+k)]
_TAIL_FACTORS = np.array([-2.0 * 1j**k for k in range(2 * len(_EULER_MACLAURIN))])


def _faddeeva_pair(z: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Im[w(z + h) - w(z - h)] / h for complex z (Im z >= 0) and real h >= 0;
    where h max(1, |z|) < 1e-2 the series 2 Im[w' + h^2 w'''/6 + h^4 w^(5)/120],
    w' = 2i/sqrt(pi) - 2 z w and ``_hermite_chain``'s recurrence carried as
    g_k = h^(k-1) w^(k), which stays finite at large |z|."""
    from scipy.special import wofz  # here, not at import: it takes ~0.25 s to load

    out = np.empty(z.shape)
    small = h * np.maximum(1.0, np.abs(z)) < 1e-2
    if small.any():
        zs, hs = z[small], h[small]
        w = wofz(zs)
        g = [None, 2j / _SQRT_PI - 2.0 * zs * w]
        g.append(-2.0 * hs * (zs * g[1] + w))
        for k in range(2, 5):
            g.append(-2.0 * hs * (zs * g[k] + k * hs * g[k - 1]))
        out[small] = 2.0 * (g[1] + g[3] / 6.0 + g[5] / 120.0).imag
    zb, hb = z[~small], h[~small]
    out[~small] = (wofz(zb + hb) - wofz(zb - hb)).imag / hb
    return out


def _image_tail(beta: float, dt: np.ndarray, dr: np.ndarray, n: int) -> np.ndarray:
    """Sum over images m > n of the pair's heat-flow series
    f(m) = Re[-2 sum_j (a^j/j!) q^(2j)(dt + i m beta)], q = 1/(zeta^2 - dr^2),
    a = 2, by Euler-Maclaurin in units of beta: d/dm = i d/dzeta, and the
    integral from n is Re[i G], G = 2 artanh(dr/zeta)/dr - 2 sum_{j>=1} (a^j/j!) q^(2j-1)."""
    a, dr, zeta = 2.0 / beta / beta, dr / beta, dt / beta + 1j * n
    den = zeta * zeta - dr * dr
    # q^(k) stacked on a leading axis, by Leibniz on q (zeta^2 - dr^2) = 1
    q = np.empty((len(_TAIL_FACTORS) + 2 * _HEAT_ORDER,) + np.shape(den), dtype=complex)
    q[0], q[1] = 1.0 / den, -2.0 * zeta / den**2
    for k in range(2, len(q)):
        q[k] = -(2.0 * k * zeta * q[k - 1] + k * (k - 1) * q[k - 2]) / den
    heat = [a**j / math.factorial(j) for j in range(_HEAT_ORDER + 1)]
    # f^(k) for every k at once: one stacked term per heat order, summed in
    # order j = 0, 1, ... as a per-k sum would be
    f = (_TAIL_FACTORS.reshape((-1,) + (1,) * np.ndim(den))
         * sum(c * q[2 * j:2 * j + len(_TAIL_FACTORS)] for j, c in enumerate(heat))).real
    t = dr / zeta
    tiny = np.abs(t) < 1e-8  # numpy's complex arctanh underflows far below
    artanh = np.where(tiny, 1.0 + t * t / 3.0, np.arctanh(np.where(tiny, 0.5, t))
                      / np.where(tiny, 0.5, t)) / zeta
    g = 2.0 * artanh - 2.0 * sum(c * q[2 * j - 1] for j, c in enumerate(heat) if j)
    total = (1j * g).real - 0.5 * f[0] - sum(c * f[2 * k + 1]
                                             for k, c in enumerate(_EULER_MACLAURIN))
    return total / beta / beta


def _smeared_real(beta: float | None, dt, dr) -> np.ndarray:
    """Re W between unit-width regions at (dt, dr), dr = 0 included, for the
    vacuum (beta None) or KMS state; even in dt bit for bit.  The vacuum is
    sqrt(pi)/(32 pi^2 a) Im[w(z + h) - w(z - h)]/h at z = dt/(2 sqrt a),
    h = dr/(2 sqrt a), i.e. [D(u+) + D(u-)]/(8 pi^2 sqrt(a) dr) with D the
    Dawson integral, u+- = (dr +- dt)/(2 sqrt a); the KMS state adds twice
    the pair at z = (|dt| + i n beta)/(2 sqrt a) for each n >= 1."""
    dt, dr = np.abs(np.asarray(dt, dtype=float)), np.asarray(dr, dtype=float)
    a = 2.0
    s, norm = 2.0 * math.sqrt(a), _SQRT_PI / (32.0 * math.pi**2 * a)
    h = dr / s
    acc = _faddeeva_pair(dt / s + 0j, h)
    if beta is None:
        return norm * acc
    # 1/beta held at 1e4 (3.3e6 images, above the cap) before the powers
    r = 2.0 * min(1.0 / beta, 1e4) ** 2
    n_images = math.ceil(max((max(6720.0 * r**5, 0.134 * r) / 5e-14) ** (1.0 / 9.0), 1.0))
    if n_images > 10**6:
        raise CapacityError(f"beta/ell = {beta:g} needs more than 10^6 KMS images")
    # chunks of 64 images keep work arrays O(geometries) and each geometry's
    # sums independent of what else is evaluated with it
    for n in np.array_split(np.arange(1, n_images + 1), range(64, n_images, 64)):
        z = (dt[..., None] + 1j * beta * n) / s
        acc = acc + 2.0 * _faddeeva_pair(z, np.broadcast_to(h[..., None], z.shape)).sum(-1)
    return norm * acc + _image_tail(beta, dt, dr, n_images) / (4.0 * math.pi**2)


def _region_amplitudes(state: FieldState, x: np.ndarray) -> np.ndarray:
    """The sourced state's amplitude smeared over the unit-width regions
    centred at coordinates x (..., 4), all in units of ell, in closed form:
    smearing widens the source, so it is the pointlike amplitude at the
    width delta', scaled; coherent (delta/delta') phi0(delta', x) with
    delta'^2 = delta^2 + 1, one-particle (delta^2/delta'^2) F(delta', x) with
    delta'^2 = delta^2 + 2."""
    delta = state.delta
    if state.tag == "coherent":
        wide = math.sqrt(delta * delta + 1.0)
        return delta / wide * _phi0(wide, x)[0]
    wide2 = delta**2 + 2.0
    return delta**2 / wide2 * _F(math.sqrt(wide2), x)[0]


def wightman_smeared_closed(state: FieldState, ri: GaussianRegion,
                            rj: GaussianRegion) -> complex:
    """Smeared two-point value in closed form, for any of the four states at
    any separation: the vacuum or KMS Re W, plus the sourced states' term
    from their ``_region_amplitudes``, and Im W = E/2; in units of the
    regions' ell, then scaled by ell^-2."""
    ell = _check_equal_widths(ri, rj)
    unit = FieldState(state.tag, *(None if v is None else v / ell
                                   for v in (state.beta, state.delta)))
    x = np.array([ri.center.coords(), rj.center.coords()]) / ell
    itv = intervals(x[0], x[1])
    re = float(_smeared_real(unit.beta, itv.dt, itv.dr))
    if unit.tag in ("coherent", "one_particle"):
        amp = _region_amplitudes(unit, x)
        re += _source_term(unit, amp[0], amp[1])
    scale = 1.0 / ell / ell
    return complex(re * scale, float(_commutator(itv.dt, itv.dr)) / 2.0 * scale)


def _commutator(dt, dr) -> np.ndarray:
    """The smeared commutator E = 2 Im W between unit-width regions at
    (dt, dr) (closed form): odd in dt, Gaussian-suppressed off the lightcone."""
    return _gaussian_wave_pair(dt, dr, 2.0)[0] / (8.0 * math.sqrt(2.0) * math.pi**1.5)


# ---------------------------------------------------------------------------
# kernel matrix assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelMatrix:
    """Coupling-scaled smeared kernels for a set of regions.

    Stores H, the symmetric (anticommutator) part, and GR, the retarded
    part; the commutator E = GR - GR^T and the symmetric propagator
    Delta = GR + GR^T are derived.  All entries carry the coupling squared,
    (lambda/ell)^2, so they are dimensionless.  Raises ValueError unless H
    and GR are square matrices of one shape with finite entries and H is
    symmetric to 1e-12 relative to the largest entry (at least 1).
    """

    H: np.ndarray
    GR: np.ndarray

    @property
    def n(self) -> int:
        return len(self.H)

    @property
    def E(self) -> np.ndarray:
        # lower triangle negated from the upper one, so E_ji = -E_ij holds
        # bitwise, signed zeros included
        upper = self.GR - self.GR.T
        return np.where(np.tri(self.n, k=-1, dtype=bool), -upper.T, upper)

    @property
    def Delta(self) -> np.ndarray:
        return self.GR + self.GR.T

    def __post_init__(self):
        shape = np.shape(self.H)
        if len(shape) != 2 or shape[0] != shape[1] or np.shape(self.GR) != shape:
            raise ValueError(f"kernel invariant violated: H {shape} and GR "
                             f"{np.shape(self.GR)} must be square and of one shape")
        if not (np.isfinite(self.H).all() and np.isfinite(self.GR).all()):
            # a NaN makes every comparison below false, so none would catch it
            raise ValueError("kernel invariant violated: H and GR must be finite")
        scale = max(1.0, float(np.max(np.abs(self.H))), float(np.max(np.abs(self.GR))))
        dev = float(np.max(np.abs(self.H - self.H.T)))
        if dev > 1e-12 * scale:
            raise ValueError(f"kernel invariant violated: H symmetric (deviation {dev:.3e})")


@functools.lru_cache(maxsize=16)
def _triu_indices(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(n, k)``, computed once per (n, k) and read-only: the
    pairs i <= j (k = 0) or i < j (k = 1) of n regions, row-major."""
    i, j = np.triu_indices(n, k)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def assemble_kernels(state: FieldState, centers: np.ndarray, lam: float) -> KernelMatrix:
    """Populate the full kernel matrix for the unit-width regions centred at
    the rows of ``centers``, an (n, 4) array of (t, x, y, z) in units of
    ell, at the coupling ``lam`` = lambda/ell.

    Only zero-mean quasifree states (vacuum, thermal) are admissible: the
    exact detector state formula presupposes a vanishing one-point function.
    Intervals are taken once per pair i <= j.  An entry depends on its pair
    only through the geometry (|dt|, dr): Re W is even in dt bit for bit and
    the closed commutator form (state independent) odd, so the distinct
    geometries (exact floats, the diagonal's (0, 0) included) go to one
    closed evaluation of each, scattered to every pair that has them.  The
    retarded part is filled from the commutator on the future side of each
    pair.
    """
    if state.tag not in ("vacuum", "thermal"):
        raise ValueError(
            f"assemble_kernels requires a zero-mean quasifree state, got {state.tag!r}")
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError("coupling lambda must be positive and finite")
    centers = np.asarray(centers, dtype=float)
    if not (centers.ndim == 2 and centers.shape[1] == 4 and len(centers)
            and np.isfinite(centers).all()):
        raise ValueError(f"centers must be a non-empty finite (n, 4) array, got shape "
                         f"{centers.shape}")
    n = len(centers)

    lam2 = lam * lam
    H = np.zeros((n, n))
    GR = np.zeros((n, n))

    # every quantity below is taken once per pair i <= j
    iu, ju = _triu_indices(n, 0)
    itv = intervals(centers[iu], centers[ju])

    # one evaluation of the distinct (|dt|, dr), keyed on exact floats: the
    # complex key |dt| + i dr sorts them as (|dt|, dr) pairs in one 1-D pass
    geometry, index = np.unique(np.abs(itv.dt) + 1j * itv.dr, return_inverse=True)
    values = lam2 * 2.0 * _smeared_real(state.beta, geometry.real, geometry.imag)
    H[iu, ju] = H[ju, iu] = values[index]

    # G_R from the (state independent) commutator on the future side of each
    # pair, the transposed entry -E(dt) when dt < 0 (dt = 0 pairs stay zero),
    # taken on the same distinct geometries: E(-|dt|) is 0 - E(|dt|) bit for
    # bit, an exact zero (both Gaussians underflowed) +0 on either side
    e = (lam2 * _commutator(geometry.real, geometry.imag))[index]
    fut, past = itv.dt > 0.0, itv.dt < 0.0
    GR[iu[fut], ju[fut]] = e[fut]
    GR[ju[past], iu[past]] = -(0.0 - e[past])

    return KernelMatrix(H=H, GR=GR)
