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
``_smeared_quadrature_real`` integrates the oracle's Re W for a whole array
of pairs in one adaptive pass, for the scans' quadrature column.

Sign conventions: W = H/2 + i E/2, so the smeared commutator function
satisfies E = 2 Im W, and the retarded propagator between regions is read off
from E on the future side (dt > 0) of the pair.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, LightconeSingularityError, PrecisionWarning
from .numerics import (_integrate_panels, integrate_semi_infinite,
                       integrate_semi_infinite_array)
from .smearing import GaussianRegion
from .spacetime import Event, Interval, default_lightcone_tol, interval, intervals

__all__ = [
    "FieldState",
    "KernelMatrix",
    "hadamard_point",
    "hadamard_array",
    "hadamard_dtt_array",
    "phi0_coherent",
    "phi0_coherent_array",
    "phi0_coherent_region",
    "F_oneparticle",
    "F_oneparticle_array",
    "wightman_smeared_quadrature",
    "wightman_smeared_closed",
    "commutator_smeared",
    "retarded_smeared",
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

    def to_dict(self) -> dict:
        d = {"tag": self.tag}
        if self.beta is not None:
            d["beta"] = self.beta
        if self.delta is not None:
            d["delta"] = self.delta
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FieldState":
        return cls(d["tag"], beta=d.get("beta"), delta=d.get("delta"))


# ---------------------------------------------------------------------------
# pointlike kernels
#
# Each kernel evaluates whole coordinate arrays in one numpy pass, and its
# special branches (small-r series, thermal saturation, the sinhc limit) are
# masks over the points.  hadamard_point, phi0_coherent and F_oneparticle
# evaluate a single event (pair) through the same code.
# ---------------------------------------------------------------------------

def _coth(x: float) -> float:
    if x < 0:
        return -_coth(-x)
    if x < 1e-6:
        return 1.0 / x + x / 3.0
    if x > 350.0:
        return 1.0
    return 1.0 / math.tanh(x)


def _time_radius(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # t and the distance from the spatial origin of coordinates (..., 4)
    x = np.asarray(x, dtype=float)
    return x[..., 0], np.sqrt(x[..., 1] ** 2 + x[..., 2] ** 2 + x[..., 3] ** 2)


def _thermal_real(beta: float, dt: np.ndarray, dr: np.ndarray, dtt: bool
                  ) -> tuple[np.ndarray, np.ndarray | None]:
    """Re W for the KMS state and, if ``dtt``, its second dt derivative (else
    None), in the cancellation-free product form.

    coth(a) + coth(b) = sinh(a+b) / (sinh(a) sinh(b)) turns the textbook sum
    into a form that is regular as dr -> 0 and loses no precision there.  Of
    (coth a + coth b) / (8 pi beta dr) the second dt derivative is
    W (pi/beta)^2 [csch^2 a + csch^2 b + (coth b - coth a)^2], and
    coth b - coth a = sinh(a - b) / (sinh(a) sinh(b)) is regular there too.
    """
    a = math.pi * (dr + dt) / beta
    b = math.pi * (dr - dt) / beta
    k2 = (math.pi / beta) ** 2
    out = np.empty(a.shape)
    out_tt = np.empty(a.shape) if dtt else None
    large = np.maximum(np.abs(a), np.abs(b)) > 300.0
    if large.any():
        saturated = np.minimum(np.abs(a), np.abs(b)) > 300.0
        # deep timelike saturation: value ~ e^{-2 min(|a|,|b|)}, below double range
        out[saturated] = 0.0
        plateau = saturated & ~(a * b < 0)
        out[plateau] = 2.0 / (8.0 * math.pi * beta * dr[plateau])
        if dtt:
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
        if dtt:
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
    if dtt:
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


def phi0_coherent(delta: float, x: Event) -> float:
    """Classical wave of the Gaussian-sourced coherent state at event x."""
    return float(phi0_coherent_array(delta, x.coords()))


def phi0_coherent_region(delta: float, region: GaussianRegion) -> float:
    """Classical wave smeared over a width-ell Gaussian region (closed form)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    c = region.center
    r = math.sqrt(c.x**2 + c.y**2 + c.z**2)
    s2 = delta * delta + region.ell**2
    return float(delta * _gaussian_wave_pair(c.t, r, s2)[0] / (
        4.0 * math.sqrt(2.0) * math.pi * math.sqrt(s2)))


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


def F_oneparticle(delta: float, x: Event) -> complex:
    """Positive-frequency wavepacket amplitude F(x) for the one-particle state."""
    return complex(F_oneparticle_array(delta, x.coords()))


def _lightcone_errors(itv: Interval) -> dict[int, LightconeSingularityError]:
    """The error of each (numerically) lightlike pair of ``itv``, where the
    pointlike kernels are singular, keyed by its flat position (ascending)."""
    lightlike = np.flatnonzero(np.abs(itv.sigma) <= default_lightcone_tol(itv))
    return {k: LightconeSingularityError(
                f"pointlike kernel singular at dt={itv.dt.flat[k]:g}, "
                f"dr={itv.dr.flat[k]:g}; use the smeared/quadrature path")
            for k in lightlike.tolist()}


def _hadamard(state: FieldState, a: np.ndarray, b: np.ndarray, dtt: bool
              ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    """(Re W, d^2/dt_a^2 Re W, d^2/dt_b^2 Re W), the derivatives None unless
    ``dtt``; the value entries do not depend on ``dtt``."""
    itv = intervals(a, b)
    errors = _lightcone_errors(itv)
    if errors:
        raise next(iter(errors.values()))
    if state.tag == "thermal":
        w, w_tt = _thermal_real(state.beta, itv.dt, itv.dr, dtt)
        return w, w_tt, w_tt
    d = -itv.dt**2 + itv.dr**2
    vac = 1.0 / (4.0 * math.pi**2 * d)
    vac_tt = vac * (2.0 / d + 8.0 * itv.dt**2 / d**2) if dtt else None
    if state.tag == "vacuum":
        return vac, vac_tt, vac_tt
    both = np.stack(np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float)))
    if state.tag == "coherent":
        (pa, pb), p_tt = _phi0(state.delta, both, dtt)
        w = vac + pa * pb
        if not dtt:
            return w, None, None
        return w, vac_tt + p_tt[0] * pb, vac_tt + pa * p_tt[1]
    # one-particle wavepacket: vac + 2 Re(F(a) conj(F(b)))
    (fa, fb), f_tt = _F(state.delta, both, dtt)
    w = vac + 2.0 * (fa.real * fb.real + fa.imag * fb.imag)
    if not dtt:
        return w, None, None
    fa_tt, fb_tt = f_tt
    return (w, vac_tt + 2.0 * (fa_tt.real * fb.real + fa_tt.imag * fb.imag),
            vac_tt + 2.0 * (fa.real * fb_tt.real + fa.imag * fb_tt.imag))


def hadamard_dtt_array(state: FieldState, a: np.ndarray, b: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Re W = H/2 between coordinate arrays a, b of shape (..., 4), ordered
    (t, x, y, z), with its second derivatives in the time of a and in the
    time of b, for any of the four states, from one pass.

    Raises if any pair is (numerically) lightlike, where the pointlike
    kernels are singular; callers should use the smeared kernels
    (``wightman_smeared_closed``) there.
    """
    return _hadamard(state, a, b, dtt=True)


def hadamard_array(state: FieldState, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re W = H/2 between coordinate arrays a, b: the value part of
    ``hadamard_dtt_array``, bit for bit, without its derivatives.  Raises on
    (numerically) lightlike pairs."""
    return _hadamard(state, a, b, dtt=False)[0]


def hadamard_point(state: FieldState, a: Event, b: Event) -> float:
    """Re W(a, b) = H(a, b)/2 between two events, for any of the four states.

    Raises on (numerically) lightlike pairs, where the pointlike kernels are
    singular; callers should use ``wightman_smeared_closed`` there.
    """
    return float(hadamard_array(state, a.coords(), b.coords()))


# ---------------------------------------------------------------------------
# smeared kernels
# ---------------------------------------------------------------------------

def _check_equal_widths(ri: GaussianRegion, rj: GaussianRegion) -> float:
    if abs(ri.ell - rj.ell) > 1e-12 * max(ri.ell, rj.ell):
        raise ValueError(f"regions must share the same width, got {ri.ell} and {rj.ell}")
    return ri.ell


def _pair_geometry(ri: GaussianRegion, rj: GaussianRegion) -> tuple[float, float]:
    itv = interval(ri.center, rj.center)
    return itv.dt, itv.dr


def _radial_factor(k: float, dr: float) -> float:
    # sin(k dr)/dr, continued through dr = 0
    return k if dr < 1e-300 else math.sin(k * dr) / dr


def _radial_factors(dr: np.ndarray):
    # k -> sin(k dr)/dr for every dr of an array, continued through dr = 0
    zero = dr < 1e-300
    safe = np.where(zero, 1.0, dr)
    return lambda k: np.where(zero, k, np.sin(k * safe) / safe)


# the KMS integrand turns over at k ~ 1/beta, far below the cutoff when
# beta >> ell; panel edges at these multiples of 1/beta resolve it
_KMS_KNOTS = (0.01, 0.1, 1.0, 10.0, 100.0)


def _F_region_quadrature(delta: float, ell: float, region: GaussianRegion,
                         tol: float) -> complex:
    c = region.center
    r = math.sqrt(c.x**2 + c.y**2 + c.z**2)
    t = c.t
    a = 0.5 * delta * delta + ell * ell
    pref = delta * delta / (math.pi * math.sqrt(2.0))

    def f(k: float) -> complex:
        return (pref * k * math.exp(-a * k * k) * _radial_factor(k, r)
                * complex(math.cos(k * t), -math.sin(k * t)))

    res = integrate_semi_infinite(f, tol, decay_scale=a, osc_scale=r + abs(t) + 1.0)
    return complex(res.value)


def _phi0_region_quadrature(delta: float, ell: float, region: GaussianRegion,
                            tol: float) -> float:
    c = region.center
    r = math.sqrt(c.x**2 + c.y**2 + c.z**2)
    t = c.t
    a = delta * delta + ell * ell
    pref = -delta / (_SQRT_2PI * math.pi)

    def f(k: float) -> float:
        return pref * math.exp(-a * k * k) * math.sin(k * t) * _radial_factor(k, r)

    res = integrate_semi_infinite(f, tol, decay_scale=a, osc_scale=r + abs(t) + 1.0)
    return float(res.value.real if isinstance(res.value, complex) else res.value)


def wightman_smeared_quadrature(state: FieldState, ri: GaussianRegion,
                                rj: GaussianRegion, tol: float = 1e-10) -> complex:
    """Full complex smeared two-point value via the radial momentum integral.

    This is the independent oracle for every closed form in this module.
    """
    ell = _check_equal_widths(ri, rj)
    dt, dr = _pair_geometry(ri, rj)
    a = 2.0 * ell * ell
    osc = dr + abs(dt) + 1.0

    if state.tag == "thermal":
        beta = state.beta

        def f(k: float) -> complex:
            if k <= 0.0:
                return complex(2.0 / beta / (4.0 * math.pi**2), 0.0)
            re_w = _coth(0.5 * beta * k) * math.cos(k * dt)
            return (math.exp(-a * k * k) * _radial_factor(k, dr)
                    * complex(re_w, -math.sin(k * dt)) / (4.0 * math.pi**2))

        knots = [c / beta for c in _KMS_KNOTS]
        return complex(_integrate_panels(f, tol, a, osc, knots).value)

    def f_vac(k: float) -> complex:
        return (math.exp(-a * k * k) * _radial_factor(k, dr)
                * complex(math.cos(k * dt), -math.sin(k * dt)) / (4.0 * math.pi**2))

    w = complex(integrate_semi_infinite(f_vac, tol, decay_scale=a, osc_scale=osc).value)
    if state.tag == "vacuum":
        return w
    if state.tag == "coherent":
        pi_ = _phi0_region_quadrature(state.delta, ell, ri, tol)
        pj_ = _phi0_region_quadrature(state.delta, ell, rj, tol)
        return w + pi_ * pj_
    fi = _F_region_quadrature(state.delta, ell, ri, tol)
    fj = _F_region_quadrature(state.delta, ell, rj, tol)
    return w + 2.0 * (fi * fj.conjugate()).real


def _region_amplitudes_quadrature(state: FieldState, ell: float, t: np.ndarray,
                                  r: np.ndarray, tol: float) -> np.ndarray:
    """The sourced state's region-smeared amplitude at every region (t, r),
    r the distance from the source: ``_phi0_region_quadrature`` (coherent)
    or ``_F_region_quadrature`` (one-particle) from one array pass."""
    delta, radial = state.delta, _radial_factors(r)
    if state.tag == "coherent":
        a, pref = delta * delta + ell * ell, -delta / (_SQRT_2PI * math.pi)

        def f(k: float) -> np.ndarray:
            return pref * math.exp(-a * k * k) * np.sin(k * t) * radial(k)
    else:
        a, pref = 0.5 * delta * delta + ell * ell, delta * delta / (math.pi * math.sqrt(2.0))

        def f(k: float) -> np.ndarray:
            return pref * k * math.exp(-a * k * k) * radial(k) * np.exp(-1j * k * t)

    osc = float(np.max(r + np.abs(t))) + 1.0
    return integrate_semi_infinite_array(f, tol, decay_scale=a, osc_scale=osc).value


def _smeared_quadrature_real(state: FieldState, ell: float, a: np.ndarray,
                             b: np.ndarray, tol: float) -> np.ndarray:
    """Re W between the width-ell regions centred at coordinate arrays a, b
    of shape (n, 4): ``wightman_smeared_quadrature(...).real`` of every pair
    from one adaptive pass over the radial momentum integral, Im W left out.
    A sourced state adds its region amplitudes, one more pass over the
    distinct regions.  Raises ConvergenceError when a certificate exceeds
    10 tol."""
    itv = intervals(a, b)
    dt, dr = itv.dt, itv.dr
    if dt.size == 0:
        return np.zeros(0)
    a2, beta, radial = 2.0 * ell * ell, state.beta, _radial_factors(dr)

    def f(k: float) -> np.ndarray:
        w = math.exp(-a2 * k * k) / (4.0 * math.pi**2)
        if beta is not None:
            if k <= 0.0:
                return np.full(dt.shape, 2.0 / beta / (4.0 * math.pi**2))
            w *= _coth(0.5 * beta * k)
        return w * np.cos(k * dt) * radial(k)

    knots = [c / beta for c in _KMS_KNOTS] if beta is not None else ()
    osc = float(np.max(dr + np.abs(dt))) + 1.0
    re = integrate_semi_infinite_array(f, tol, a2, osc, knots).value
    if state.tag in ("vacuum", "thermal"):
        return re
    centers, index = np.unique(np.concatenate([a, b]), axis=0, return_inverse=True)
    amp = _region_amplitudes_quadrature(state, ell, *_time_radius(centers), tol)
    amp_a, amp_b = amp[index[:len(dt)]], amp[index[len(dt):]]
    if state.tag == "coherent":
        return re + amp_a * amp_b
    return re + 2.0 * (amp_a.real * amp_b.real + amp_a.imag * amp_b.imag)


# Smearing over width-ell Gaussians is a heat flow exp(a d^2/dt^2), a = 2 ell^2,
# which turns the vacuum's pole pair into the Faddeeva function w.  The KMS
# kernel sums vacuum images at dt + i n beta: exactly up to n = N, beyond it
# their heat-flow series to order M = 3 by Euler-Maclaurin with K = 4 terms.
# Relative to the vacuum diagonal, r = 2 ell^2 / beta^2, these cuts err by at
# most 4 (2M+2)!/(M+1)! r^(M+2) / N^(2M+3) = 6720 r^5 / N^9 and
# 8 zeta(2K) (2K)!/(2 pi)^(2K) r / N^(2K+1) = 0.134 r / N^9.
_HEAT_ORDER = 3
_EULER_MACLAURIN = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)  # B_2k/(2k)!


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


def _image_tail(beta: float, a: float, dt: np.ndarray, dr: np.ndarray,
                n: int) -> np.ndarray:
    """Sum over images m > n of the pair's heat-flow series
    f(m) = Re[-2 sum_j (a^j/j!) q^(2j)(dt + i m beta)], q = 1/(zeta^2 - dr^2),
    by Euler-Maclaurin in units of beta: d/dm = i d/dzeta, and the integral
    from n is Re[i G], G = 2 artanh(dr/zeta)/dr - 2 sum_{j>=1} (a^j/j!) q^(2j-1)."""
    a, dr, zeta = a / beta / beta, dr / beta, dt / beta + 1j * n
    den = zeta * zeta - dr * dr
    q = [1.0 / den, -2.0 * zeta / den**2]  # q^(k), by Leibniz on q (zeta^2 - dr^2) = 1
    for k in range(2, 2 * _HEAT_ORDER + 2 * len(_EULER_MACLAURIN)):
        q.append(-(2.0 * k * zeta * q[k - 1] + k * (k - 1) * q[k - 2]) / den)
    heat = [a**j / math.factorial(j) for j in range(_HEAT_ORDER + 1)]
    f = [(-2.0 * 1j**k * sum(c * q[2 * j + k] for j, c in enumerate(heat))).real
         for k in range(2 * len(_EULER_MACLAURIN))]
    t = dr / zeta
    tiny = np.abs(t) < 1e-8  # numpy's complex arctanh underflows far below
    artanh = np.where(tiny, 1.0 + t * t / 3.0, np.arctanh(np.where(tiny, 0.5, t))
                      / np.where(tiny, 0.5, t)) / zeta
    g = 2.0 * artanh - 2.0 * sum(c * q[2 * j - 1] for j, c in enumerate(heat) if j)
    total = (1j * g).real - 0.5 * f[0] - sum(c * f[2 * k + 1]
                                             for k, c in enumerate(_EULER_MACLAURIN))
    return total / beta / beta


def _smeared_real(beta: float | None, ell: float, dt, dr) -> np.ndarray:
    """Re W between width-ell regions at (dt, dr), dr = 0 included, for the
    vacuum (beta None) or KMS state; even in dt bit for bit.  The vacuum is
    sqrt(pi)/(32 pi^2 a) Im[w(z + h) - w(z - h)]/h at z = dt/(2 sqrt a),
    h = dr/(2 sqrt a), i.e. [D(u+) + D(u-)]/(8 pi^2 sqrt(a) dr) with D the
    Dawson integral, u+- = (dr +- dt)/(2 sqrt a); the KMS state adds twice
    the pair at z = (|dt| + i n beta)/(2 sqrt a) for each n >= 1."""
    dt, dr = np.abs(np.asarray(dt, dtype=float)), np.asarray(dr, dtype=float)
    a = 2.0 * ell * ell
    s, norm = 2.0 * math.sqrt(a), _SQRT_PI / (32.0 * math.pi**2 * a)
    h = dr / s
    acc = _faddeeva_pair(dt / s + 0j, h)
    if beta is None:
        return norm * acc
    r = 2.0 * (ell / beta) ** 2
    n_images = math.ceil(max((max(6720.0 * r**5, 0.134 * r) / 5e-14) ** (1.0 / 9.0), 1.0))
    if n_images > 10**6:
        raise CapacityError(f"beta/ell = {beta / ell:g} needs {n_images} KMS images")
    # chunks of 64 images keep work arrays O(geometries) and each geometry's
    # sums independent of what else is evaluated with it
    for n in np.array_split(np.arange(1, n_images + 1), range(64, n_images, 64)):
        z = (dt[..., None] + 1j * beta * n) / s
        acc = acc + 2.0 * _faddeeva_pair(z, np.broadcast_to(h[..., None], z.shape)).sum(-1)
    return norm * acc + _image_tail(beta, a, dt, dr, n_images) / (4.0 * math.pi**2)


def wightman_smeared_closed(state: FieldState, ri: GaussianRegion,
                            rj: GaussianRegion) -> complex:
    """Smeared two-point value in closed form, for any of the four states at
    any separation: the vacuum or KMS Re W, plus the product of the sourced
    states' region-smeared amplitudes (the one-particle one is
    (delta^2/delta'^2) F(delta', center), delta'^2 = delta^2 + 2 ell^2), and
    Im W = E/2."""
    ell = _check_equal_widths(ri, rj)
    dt, dr = _pair_geometry(ri, rj)
    re = float(_smeared_real(state.beta, ell, dt, dr))
    if state.tag == "coherent":
        re += phi0_coherent_region(state.delta, ri) * phi0_coherent_region(state.delta, rj)
    elif state.tag == "one_particle":
        wide2 = state.delta**2 + 2.0 * ell * ell
        fi, fj = (state.delta**2 / wide2 * complex(_F(math.sqrt(wide2), r.center.coords())[0])
                  for r in (ri, rj))
        re += 2.0 * (fi.real * fj.real + fi.imag * fj.imag)
    return complex(re, float(_commutator(dt, dr, ell)) / 2.0)


def commutator_smeared(ri: GaussianRegion, rj: GaussianRegion) -> float:
    """Smeared commutator function E(Lambda_i, Lambda_j) = 2 Im W_ij (closed form).

    Antisymmetric under i <-> j; Gaussian-suppressed away from the lightcone
    of the two centers.
    """
    ell = _check_equal_widths(ri, rj)
    dt, dr = _pair_geometry(ri, rj)
    return float(_commutator(dt, dr, ell))


def _commutator(dt, dr, ell: float) -> np.ndarray:
    return _gaussian_wave_pair(dt, dr, 2.0 * ell * ell)[0] / (
        8.0 * math.sqrt(2.0) * math.pi**1.5 * ell)


def retarded_smeared(ri: GaussianRegion, rj: GaussianRegion) -> float:
    """Smeared retarded propagator G_R(Lambda_i, Lambda_j), read off from E.

    Equals E(Lambda_i, Lambda_j) when region i lies to the future of region j
    (dt > 0) and zero otherwise; warns when the two regions straddle the
    cone/time-order boundary so closely that this identification degrades.
    """
    ell = _check_equal_widths(ri, rj)
    dt, dr = _pair_geometry(ri, rj)
    if dt != 0.0 and abs(dt) < 5.0 * ell and abs(abs(dt) - dr) < 5.0 * ell:
        warnings.warn(
            f"retarded/commutator identification degraded at dt={dt:g}, dr={dr:g} "
            f"(within 5 ell = {5 * ell:g} of the boundary)", PrecisionWarning,
            stacklevel=2)
    if dt <= 0.0:
        return 0.0
    return commutator_smeared(ri, rj)


# ---------------------------------------------------------------------------
# kernel matrix assembly
# ---------------------------------------------------------------------------

@dataclass
class KernelMatrix:
    """Coupling-scaled smeared kernels for a set of regions.

    Stores H, the symmetric (anticommutator) part, and GR, the retarded
    part; the commutator E = GR - GR^T, the symmetric propagator
    Delta = GR + GR^T and the local noise Wdiag = H_ii / 2 are derived.  All
    entries carry the lambda^2 scaling, so they are dimensionless.
    """

    n: int
    H: np.ndarray
    GR: np.ndarray
    lam: float
    state: FieldState | None = None

    @property
    def E(self) -> np.ndarray:
        # lower triangle negated from the upper one, so E_ji = -E_ij holds
        # bitwise, signed zeros included
        upper = self.GR - self.GR.T
        return np.where(np.tri(self.n, k=-1, dtype=bool), -upper.T, upper)

    @property
    def Delta(self) -> np.ndarray:
        return self.GR + self.GR.T

    @property
    def Wdiag(self) -> np.ndarray:
        return np.diag(self.H) / 2.0

    def validate(self, atol: float = 1e-12) -> None:
        """Raise ValueError unless H is symmetric to ``atol`` relative to the
        largest entry (at least 1)."""
        scale = max(1.0, float(np.max(np.abs(self.H))), float(np.max(np.abs(self.GR))))
        dev = float(np.max(np.abs(self.H - self.H.T)))
        if dev > atol * scale:
            raise ValueError(f"kernel invariant violated: H symmetric (deviation {dev:.3e})")


def assemble_kernels(state: FieldState, regions: list[GaussianRegion],
                     lam: float) -> KernelMatrix:
    """Populate the full kernel matrix for a list of equal-width regions.

    Only zero-mean quasifree states (vacuum, thermal) are admissible: the
    exact detector state formula presupposes a vanishing one-point function.
    The retarded part is filled from the closed commutator form (it is state
    independent) on the future side of each pair.  An H entry depends on its
    pair only through the geometry (|dt|, dr), and Re W is even in dt bit for
    bit, so the distinct geometries (exact floats, the diagonal's (0, 0)
    included) go to one closed evaluation, scattered to every pair that has
    them.
    """
    if state.tag not in ("vacuum", "thermal"):
        raise ValueError(
            f"assemble_kernels requires a zero-mean quasifree state, got {state.tag!r}")
    if not (math.isfinite(lam) and lam > 0):
        raise ValueError("coupling lambda must be positive and finite")
    n = len(regions)
    if n == 0:
        raise ValueError("need at least one region")
    for r in regions[1:]:
        _check_equal_widths(regions[0], r)

    lam2 = lam * lam
    H = np.zeros((n, n))
    GR = np.zeros((n, n))

    # the commutator is state independent: every pair in one array pass
    centers = np.array([r.center.coords() for r in regions])
    itv = intervals(centers[:, None], centers[None, :])
    E = lam2 * _commutator(itv.dt, itv.dr, regions[0].ell)

    # one evaluation of the distinct (|dt|, dr), keyed on exact floats
    iu, ju = np.triu_indices(n)
    dt = itv.dt[iu, ju]
    geometry, index = np.unique(np.stack([np.abs(dt), itv.dr[iu, ju]]), axis=1,
                                return_inverse=True)
    values = lam2 * 2.0 * _smeared_real(state.beta, regions[0].ell, *geometry)
    H[iu, ju] = H[ju, iu] = values[index]

    # G_R from E on the future side of each pair; dt = 0 pairs stay zero
    fut, past = dt > 0.0, dt < 0.0
    GR[iu[fut], ju[fut]] = E[iu[fut], ju[fut]]
    GR[ju[past], iu[past]] = -E[iu[past], ju[past]]

    km = KernelMatrix(n=n, H=H, GR=GR, lam=lam, state=state)
    km.validate()
    return km
