"""Quadrature and fitting primitives.

``integrate_semi_infinite`` is the workhorse oracle integrator: panelised
adaptive Gauss-Kronrod on [0, K] with the cutoff K chosen from the
integrand's Gaussian decay, plus an explicit tail certificate.  All the
radial momentum integrands in this package carry an exp(-a k^2) factor, so
truncation error is bounded analytically when the decay scale is supplied.
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
    "fit_loglog_slope",
]


@dataclass(frozen=True)
class QuadratureResult:
    """Value + absolute error certificate of a semi-infinite integral."""

    value: complex
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line through (log scale, log magnitude) points."""

    slope: float
    intercept: float
    residual: float  # RMS residual in log-log space


def _probe_is_complex(f: Callable[[float], complex], points: Sequence[float]) -> bool:
    return any(isinstance(f(p), complex) for p in points)


def _choose_cutoff(f, tol: float, decay_scale: float | None) -> tuple[float, float]:
    """Return (K, tail_bound) such that |int_K^inf f| <= tail_bound <~ tol/10."""
    tail_target = tol / 10.0
    if decay_scale is not None and decay_scale > 0:
        a = decay_scale
        probes = np.linspace(0.0, 3.0 / math.sqrt(a), 25)[1:]
        mag = max(abs(f(p)) for p in probes)
        mag = max(mag, 1e-300)
        k = math.sqrt((max(math.log(mag / tail_target), 0.0) + 5.0) / a)
        # |f| <= |f(K)| e^{-a(k^2-K^2)} beyond K, so the tail is <= |f(K)|/(2aK)
        fk = max(abs(f(k)), abs(f(1.02 * k)), abs(f(1.1 * k)))
        return k, fk / (2.0 * a * k)
    # no decay hint: geometric scan until the integrand looks dead
    k = 1.0
    for _ in range(60):
        samples = [abs(f(k * (1.0 + 0.13 * i))) for i in range(8)]
        if max(samples) * 4.0 * k < tail_target:
            return 2.0 * k, max(samples) * 4.0 * k
        k *= 2.0
    raise ConvergenceError(
        "integrand does not decay within the scanned range [0, 2^60]")


def integrate_semi_infinite(
    f: Callable[[float], complex],
    tol: float,
    decay_scale: float | None = None,
    osc_scale: float | None = None,
) -> QuadratureResult:
    """Integrate f over [0, infinity) to absolute tolerance ``tol``.

    ``decay_scale`` is the Gaussian decay rate a when |f(k)| ~ exp(-a k^2)
    eventually; it makes the truncation bound analytic.  ``osc_scale`` is the
    dominant oscillation frequency (rad per unit k) and only affects how the
    finite range is panelised.  Deterministic for fixed inputs.
    """
    from scipy import integrate  # here, not at import: it takes ~0.5 s to load

    if tol <= 0:
        raise ValueError("tol must be positive")
    cutoff, tail_bound = _choose_cutoff(f, tol, decay_scale)

    if osc_scale is not None and osc_scale > 0:
        # aim for <= 50 oscillation periods per panel, capping the panel count;
        # heavily oscillatory panels get a proportionally larger subdivision budget
        width = max(50.0 * 2.0 * math.pi / osc_scale, cutoff / 512.0)
        periods_per_panel = width * osc_scale / (2.0 * math.pi)
        limit = max(100, min(5000, int(3.0 * periods_per_panel) + 50))
    else:
        width = cutoff / 8.0
        limit = 200
    n_panels = max(1, math.ceil(cutoff / width))
    edges = np.linspace(0.0, cutoff, n_panels + 1)

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
                raise ConvergenceError(
                    f"quadrature failed on panel [{lo:g}, {hi:g}]: {out[3]}",
                    best_estimate=out[0], error_estimate=out[1])
            acc += out[0]
            abserr += out[1]
            evals += out[2]["neval"]
        totals.append(acc)

    err = abserr + tail_bound
    if err > 10.0 * tol:
        raise ConvergenceError(
            f"accumulated quadrature error {err:.3e} exceeds tolerance {tol:.3e}",
            best_estimate=totals[0] if len(totals) == 1 else complex(*totals),
            error_estimate=err)
    value = complex(totals[0], totals[1]) if is_complex else totals[0]
    return QuadratureResult(value=value, error_estimate=err, evaluations=evals)


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
    return SlopeFit(slope=float(slope), intercept=float(intercept),
                    residual=float(np.sqrt(np.mean(resid**2))))
