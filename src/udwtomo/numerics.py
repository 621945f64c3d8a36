"""Quadrature and fitting primitives.

``integrate_semi_infinite`` is the one scalar oracle integrator: panelised
adaptive Gauss-Kronrod on [0, K] with the cutoff K chosen from the
integrand's Gaussian decay, plus an explicit tail certificate.  All the
radial momentum integrands in this package carry an exp(-a k^2) factor, so
every caller passes that decay scale a, and the truncation error is bounded
analytically; the oscillation scale sets the panels and optional knots add
panel edges.  ``integrate_semi_infinite_array`` takes the same arguments
for a vector of integrands (one per pair of a scan) under the same cutoff
and panel rules, integrated by ``scipy.integrate.quad_vec`` in one adaptive
pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, InsufficientDataError

__all__ = [
    "QuadratureResult",
    "SlopeFit",
    "integrate_semi_infinite",
    "integrate_semi_infinite_array",
    "fit_loglog_slope",
]


@dataclass(frozen=True)
class QuadratureResult:
    """Value + absolute error certificate of a semi-infinite integral (for
    the array integrator: the integrals and the largest certificate)."""

    value: complex | np.ndarray
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line through (log scale, log magnitude) points."""

    slope: float
    residual: float  # RMS residual in log-log space


def _probe_is_complex(f: Callable[[float], complex], points: Sequence[float]) -> bool:
    return any(isinstance(f(p), complex) for p in points)


def _plan(f, tol: float, decay_scale: float, osc_scale: float,
          knots: Sequence[float]) -> tuple[float, np.ndarray, np.ndarray, int]:
    """(K, tail_bound, edges, limit) of both integrators: the cutoff K with
    |int_K^inf f| <= tail_bound <~ tol/10, the panel edges on [0, K] and
    each panel's subdivision budget.

    For a vector-valued f one K serves every component (the largest |f|
    sets it) and the tail bound is per component.  ``knots`` are extra
    edges where the integrand changes on a scale the panels would not
    resolve (the thermal occupation at k ~ 1/beta); those outside (0, K)
    are dropped."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not (decay_scale > 0 and osc_scale > 0):
        raise ValueError("decay_scale and osc_scale must be positive")
    a = decay_scale
    probes = np.linspace(0.0, 3.0 / math.sqrt(a), 25)[1:]
    mag = max(np.max(np.abs(f(p))) for p in probes)
    if not math.isfinite(mag):
        raise ConvergenceError(f"integrand is not finite on [0, {probes[-1]:g}]")
    mag = max(mag, 1e-300)
    cutoff = math.sqrt((max(math.log(mag / (tol / 10.0)), 0.0) + 5.0) / a)
    # |f| <= |f(K)| e^{-a(k^2-K^2)} beyond K, so the tail is <= |f(K)|/(2aK)
    fk = np.maximum.reduce([np.abs(f(cutoff)), np.abs(f(1.02 * cutoff)),
                            np.abs(f(1.1 * cutoff))])
    # aim for <= 50 oscillation periods per panel, capping the panel count;
    # heavily oscillatory panels get a proportionally larger subdivision budget
    width = max(50.0 * 2.0 * math.pi / osc_scale, cutoff / 512.0)
    periods_per_panel = width * osc_scale / (2.0 * math.pi)
    limit = max(100, min(5000, int(3.0 * periods_per_panel) + 50))
    edges = np.linspace(0.0, cutoff, max(1, math.ceil(cutoff / width)) + 1)
    inner = [x for x in knots if 0.0 < x < cutoff]
    return (cutoff, fk / (2.0 * a * cutoff),
            np.union1d(edges, inner) if inner else edges, limit)


def integrate_semi_infinite(
    f: Callable[[float], complex],
    tol: float,
    decay_scale: float,
    osc_scale: float,
    knots: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate f over [0, infinity) to absolute tolerance ``tol``.

    ``decay_scale`` is the Gaussian decay rate a of |f(k)| ~ exp(-a k^2); it
    makes the truncation bound analytic.  ``osc_scale`` is the dominant
    oscillation frequency (rad per unit k) and ``knots`` are extra panel
    edges; both only affect how the finite range is panelised.  Each panel
    of a real f, or of the real and imaginary parts of a complex one, is
    integrated by ``scipy.integrate.quad``.  Deterministic for fixed inputs.
    """
    from scipy import integrate  # here, not at import: it takes ~0.5 s to load

    cutoff, tail_bound, edges, limit = _plan(f, tol, decay_scale, osc_scale, knots)
    n_panels = len(edges) - 1

    is_complex = _probe_is_complex(f, [cutoff * 0.31, cutoff * 0.07])
    parts = [(lambda k: f(k).real), (lambda k: f(k).imag)] if is_complex else [f]

    eps = tol / (2.0 * len(parts) * n_panels)
    totals, abserr, evals = [], 0.0, 0
    for part in parts:
        acc = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            out = integrate.quad(part, lo, hi, epsabs=eps, epsrel=1e-12,
                                 limit=limit, full_output=1)
            if len(out) > 3:
                raise ConvergenceError(f"quadrature failed on panel [{lo:g}, {hi:g}] "
                                       f"(error estimate {out[1]:.3e}): {out[3]}")
            acc += out[0]
            abserr += out[1]
            evals += out[2]["neval"]
        totals.append(acc)

    err = abserr + tail_bound
    if err > 10.0 * tol:
        raise ConvergenceError(
            f"accumulated quadrature error {err:.3e} exceeds tolerance {tol:.3e}")
    value = complex(totals[0], totals[1]) if is_complex else totals[0]
    return QuadratureResult(value=value, error_estimate=err, evaluations=evals)


def integrate_semi_infinite_array(
    f: Callable[[float], np.ndarray],
    tol: float,
    decay_scale: float,
    osc_scale: float,
    knots: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate every component of a vector-valued f over [0, infinity) to
    absolute tolerance ``tol``, in one adaptive pass.

    The array sibling of ``integrate_semi_infinite``, with its cutoff and
    panel rules: one cutoff K serves every component, ``osc_scale`` is the
    largest component frequency and ``knots`` are extra panel edges.  The
    panels are the initial intervals of ``scipy.integrate.quad_vec``, which
    bisects whichever interval has the largest error in the max norm over
    components.  The result's value is the array of integrals and its error
    estimate the largest per-component certificate: quad_vec's error sum
    plus that component's tail bound.  Raises ConvergenceError when it
    exceeds 10 tol or is not finite.
    """
    from scipy import integrate  # here, not at import: it takes ~0.5 s to load

    cutoff, tail_bound, edges, limit = _plan(f, tol, decay_scale, osc_scale, knots)
    # quad_vec stops once its error sum is below epsabs / 8: this asks for
    # the tol / 2 that the scalar integrator's panel tolerances add up to.
    # workers=map is the serial default without importing multiprocessing,
    # which workers=1 does (~0.4 MiB of peak RSS)
    value, abserr, info = integrate.quad_vec(
        f, 0.0, cutoff, epsabs=4.0 * tol, epsrel=1e-12, norm="max",
        limit=limit * (len(edges) - 1), points=edges[1:-1], full_output=True,
        workers=map)
    err = float(np.max(abserr + tail_bound))
    if not err <= 10.0 * tol:
        raise ConvergenceError(
            f"accumulated quadrature error {err:.3e} exceeds tolerance {tol:.3e}")
    return QuadratureResult(value=value, error_estimate=err, evaluations=info.neval)


def fit_loglog_slope(points: Sequence[tuple[float, float]]) -> SlopeFit:
    """Least-squares slope of log(magnitude) against log(scale)."""
    if len(points) < 3:
        raise InsufficientDataError(f"need >= 3 points for a slope fit, got {len(points)}")
    scales = np.asarray([p[0] for p in points], dtype=float)
    mags = np.asarray([p[1] for p in points], dtype=float)
    if np.any(scales <= 0) or np.any(mags <= 0):
        raise ValueError("all scales and magnitudes must be strictly positive")
    lx, ly = np.log(scales), np.log(mags)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    return SlopeFit(slope=float(slope), residual=float(np.sqrt(np.mean(resid**2))))
