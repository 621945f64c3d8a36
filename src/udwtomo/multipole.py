"""Spacetime multipole expansion of the smeared two-point function.

For width-ell Gaussian regions the dipole vanishes and the quadrupole is
ell^2 times the identity, so to second order

    W(region_i, region_j) = W(x_i, x_j)
        - (ell^2/6) W(x_i, x_j) (tr R(x_i) + tr R(x_j))
        + (ell^2/2) (tr Hess_i W + tr Hess_j W) + O(ell^4),

with Euclidean traces (Kronecker delta, not the metric), so only the
diagonal of each event's Hessian enters.  For the vacuum that diagonal is
closed form, with sep = x - x' and sigma = (-dt^2 + dr^2)/2,

    d^2 W / (dx^mu)^2 = (W/sigma) (2 sep_mu^2 / sigma - eta_{mu mu})

(no sum over mu), which makes the vacuum correction factor exactly

    1 + ell^2 (12 dt^2 + 4 dr^2) / (-dt^2 + dr^2)^2.

The equal-time and equal-position limits (4 ell^2/dr^2 and 12 ell^2/dt^2)
and direct comparison against the quadrature oracle pin this coefficient; a
candidate with half this value is excluded by both.  Non-vacuum states are
differentiated by 5-point central differences along each axis with
Richardson refinement; the 65 stencil points of both events and both step
sizes are evaluated in one array call of the pointlike kernel per estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, LightconeSingularityError, StencilError
from .kernels import FieldState, hadamard_array, wightman_smeared_quadrature
from .numerics import SlopeFit, fit_loglog_slope
from .smearing import GaussianRegion
from .spacetime import Event, Separation, classify, interval, intervals

__all__ = [
    "DerivativeBundle",
    "MultipoleEstimate",
    "derivatives",
    "estimate",
    "convergence_order",
    "vacuum_quadrupole_factor",
    "thermal_expansion_temporal",
    "thermal_expansion_spatial",
]

_ETA_DIAG = np.array([-1.0, 1.0, 1.0, 1.0])
# unit-step offsets of one event's 5-point stencil, shape (16, 4): axis, then offset
_OFFSETS = np.array([s * e for e in np.eye(4) for s in (-2, -1, 1, 2)])


@dataclass(frozen=True)
class DerivativeBundle:
    """Pointlike value plus the Hessian diagonal d^2 W / (dx^mu)^2 at both events."""

    w: float
    hess_diag_i: np.ndarray  # shape (4,), in the first event
    hess_diag_j: np.ndarray  # shape (4,), in the second event


@dataclass(frozen=True)
class MultipoleEstimate:
    """Second-order multipole estimate of the smeared two-point value."""

    value: float
    pointlike_term: float
    quadrupole_term: float
    ricci_term: float


def _vacuum_bundle(a: Event, b: Event) -> DerivativeBundle:
    sigma = interval(a, b).sigma
    w = 1.0 / (8.0 * math.pi**2 * sigma)
    sep = a.coords() - b.coords()
    diag = (w / sigma) * (2.0 * (sep * sep) / sigma - _ETA_DIAG)
    return DerivativeBundle(w=w, hess_diag_i=diag, hess_diag_j=diag.copy())


def _fd_bundles(state: FieldState, a: Event, b: Event,
                steps: tuple[float, ...]) -> list[DerivativeBundle]:
    """5-point central-difference bundles at (a, b), one per step size.

    The stencil points of both events for all steps go to the kernel in one
    call.  A stencil whose sigma changes sign anywhere raises StencilError
    before the kernel can report a lightlike point.
    """
    h = np.asarray(steps, dtype=float)
    ca, cb = a.coords(), b.coords()
    shifts = (h[:, None, None] * _OFFSETS).reshape(-1, 4)
    # row 0 is (a, b); then a shifted against b, then a against b shifted
    first = np.concatenate([ca[None], ca + shifts, np.broadcast_to(ca, shifts.shape)])
    second = np.concatenate([cb[None], np.broadcast_to(cb, shifts.shape), cb + shifts])
    sigma = intervals(first, second).sigma
    crossed = np.flatnonzero(sigma * sigma[0] <= 0.0)
    if crossed.size:
        raise StencilError(
            f"finite-difference stencil crossed the lightcone "
            f"(sigma went from {sigma[0]:g} to {sigma[crossed[0]]:g})")
    vals = hadamard_array(state, first, second)
    w0 = vals[0]
    f = vals[1:].reshape(2, len(h), 4, 4)  # (event, step, axis, offset)
    hh = h[:, None]
    diag = (-f[..., 3] + 16.0 * f[..., 2] - 30.0 * w0
            + 16.0 * f[..., 1] - f[..., 0]) / (12.0 * hh * hh)
    return [DerivativeBundle(w=float(w0), hess_diag_i=diag[0, k], hess_diag_j=diag[1, k])
            for k in range(len(h))]


def _refine(coarse: np.ndarray, fine: np.ndarray, rel_tol: float = 1e-6) -> np.ndarray:
    scale = max(float(np.max(np.abs(fine))), 1e-300)
    if float(np.max(np.abs(fine - coarse))) / scale > rel_tol:
        return (16.0 * fine - coarse) / 15.0  # both stencils are 4th order
    return fine


def derivatives(state: FieldState, a: Event, b: Event) -> DerivativeBundle:
    """Hessian diagonals of Re W at (a, b): closed form for the vacuum,
    Richardson-refined central differences with step 1e-4 (|dt| + dr) for
    the other states."""
    if classify(a, b) is Separation.LIGHTLIKE:
        raise LightconeSingularityError("derivative kernels singular on the lightcone")
    if state.tag == "vacuum":
        return _vacuum_bundle(a, b)
    itv = interval(a, b)
    h = (abs(itv.dt) + itv.dr) * 1e-4
    coarse, fine = _fd_bundles(state, a, b, (h, h / 2.0))
    return DerivativeBundle(w=fine.w,
                            hess_diag_i=_refine(coarse.hess_diag_i, fine.hess_diag_i),
                            hess_diag_j=_refine(coarse.hess_diag_j, fine.hess_diag_j))


def estimate(state: FieldState, ri: GaussianRegion, rj: GaussianRegion,
             ricci_i: np.ndarray | None = None,
             ricci_j: np.ndarray | None = None) -> MultipoleEstimate:
    """Second-order multipole estimate of Re W(region_i, region_j)."""
    if abs(ri.ell - rj.ell) > 1e-12 * max(ri.ell, rj.ell):
        raise ValueError("regions must share the same width")
    ell2 = ri.ell**2
    bundle = derivatives(state, ri.center, rj.center)
    quad = 0.5 * ell2 * (float(np.sum(bundle.hess_diag_i)) + float(np.sum(bundle.hess_diag_j)))
    ricci = 0.0
    for mat in (ricci_i, ricci_j):
        if mat is not None:
            m = np.asarray(mat, dtype=float)
            if m.shape != (4, 4):
                raise ValueError("ricci matrices must be 4x4")
            ricci -= ell2 / 6.0 * bundle.w * float(np.trace(m))
    return MultipoleEstimate(value=bundle.w + ricci + quad,
                             pointlike_term=bundle.w,
                             quadrupole_term=quad,
                             ricci_term=ricci)


def vacuum_quadrupole_factor(dt: float, dr: float, ell: float) -> float:
    """Exact vacuum correction factor 1 + ell^2 (12 dt^2 + 4 dr^2)/(-dt^2+dr^2)^2."""
    return 1.0 + ell**2 * (12.0 * dt**2 + 4.0 * dr**2) / (-dt**2 + dr**2) ** 2


def thermal_expansion_temporal(beta: float, dt: float, ell: float) -> float:
    """Closed second-order thermal expansion at zero spatial separation."""
    s = math.sinh(math.pi * dt / beta)
    return (-1.0 / (4.0 * beta**2 * s**2)
            - math.pi**2 * ell**2 * (2.0 + math.cosh(2.0 * math.pi * dt / beta))
            / (beta**4 * s**4))


def thermal_expansion_spatial(beta: float, dr: float, ell: float) -> float:
    """Second-order thermal expansion at equal time, as verified numerically.

    The 1/(4 pi beta dr) leading prefactor is fixed by the beta -> infinity
    vacuum limit and by the finite-difference quadrupole oracle; a pi-less
    variant of that prefactor is excluded by both.
    """
    c = 1.0 / math.tanh(math.pi * dr / beta)
    s = math.sinh(math.pi * dr / beta)
    return (c / (4.0 * math.pi * beta * dr)
            + math.pi * ell**2 * c / (dr * beta**3 * s**2))


def residual_table(state: FieldState, base_config: tuple[float, float],
                   ell_grid: list[float], tol: float = 1e-12,
                   include_quadrupole: bool = True) -> list[tuple[float, float]]:
    """Per-width residuals |Re W_quadrature - estimate| at a fixed separation.

    Residuals below the 1e-13 quadrature noise floor are dropped.
    """
    dt, dr = base_config
    sep = math.sqrt(abs(-dt * dt + dr * dr))
    grid = sorted(ell_grid)
    if not grid or grid[0] <= 0:
        raise ValueError("ell grid must be strictly positive")
    if grid[-1] > sep / 10.0:
        raise ValueError(f"max(ell) = {grid[-1]:g} exceeds separation/10 = {sep / 10:g}")
    a = Event(dt, dr, 0.0, 0.0)
    b = Event(0.0, 0.0, 0.0, 0.0)
    points = []
    for ell in grid:
        ri, rj = GaussianRegion(a, ell), GaussianRegion(b, ell)
        w = wightman_smeared_quadrature(state, ri, rj, tol).real
        est = estimate(state, ri, rj)
        model = est.value if include_quadrupole else est.pointlike_term
        resid = abs(w - model)
        if resid >= 1e-13:
            points.append((ell, resid))
    return points


def convergence_order(state: FieldState, base_config: tuple[float, float],
                      ell_grid: list[float], tol: float = 1e-12,
                      include_quadrupole: bool = True) -> SlopeFit:
    """Fit the log-log slope of |W_quadrature - estimate| against ell.

    With the quadrupole term included the residual is O(ell^4); truncating
    the estimate to the pointlike term exposes the O(ell^2) error instead.
    """
    points = residual_table(state, base_config, ell_grid, tol, include_quadrupole)
    if len(points) < 3:
        raise InsufficientDataError(
            f"only {len(points)} residuals above the noise floor; refine the grid")
    return fit_loglog_slope(points)
