"""Spacetime multipole expansion of the smeared two-point function.

For width-ell Gaussian regions in flat spacetime the dipole vanishes and
the quadrupole is ell^2 times the identity, so to second order

    W(region_i, region_j) = W(x_i, x_j)
        + (ell^2/2) (tr Hess_i W + tr Hess_j W) + O(ell^4),

with Euclidean traces (Kronecker delta, not the metric).  Every pointlike
kernel here (vacuum, thermal, coherent, one-particle) solves the massless
wave equation in each argument, so each trace is d_t^2 + laplacian = 2 d_t^2
and the quadrupole term is ell^2 (d^2 W/dt_i^2 + d^2 W/dt_j^2).  The kernels
supply those second time derivatives in closed form, in the same array pass
as the value (``kernels.hadamard_dtt_array``), so ``estimate_array`` gives
the estimates of whole arrays of region centers from one kernel call.  For
the vacuum, W = 1/(4 pi^2 D) with D = dr^2 - dt^2 and
d^2 W/dt^2 = W (2/D + 8 dt^2/D^2), which makes the vacuum correction factor
exactly

    1 + ell^2 (12 dt^2 + 4 dr^2) / (-dt^2 + dr^2)^2.

The equal-time and equal-position limits (4 ell^2/dr^2 and 12 ell^2/dt^2)
and direct comparison against the quadrature oracle pin this coefficient; a
candidate with half this value is excluded by both.
"""

from __future__ import annotations

import math

import numpy as np

from .kernels import FieldState, hadamard_dtt_array, wightman_smeared_quadrature
from .numerics import SlopeFit, fit_loglog_slope
from .smearing import GaussianRegion
from .spacetime import Event, checked_widths

__all__ = [
    "estimate_array",
    "convergence_order",
    "vacuum_quadrupole_factor",
    "thermal_expansion_temporal",
    "thermal_expansion_spatial",
]


def estimate_array(state: FieldState, a: np.ndarray, b: np.ndarray, ell: float
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second-order multipole estimates of Re W between width-``ell`` regions
    centered at the coordinate arrays a, b of shape (..., 4), in flat
    spacetime: (value, pointlike term, quadrupole term), from one
    ``hadamard_dtt_array`` call.

    Raises LightconeSingularityError if any pair is (numerically) lightlike.
    """
    w, dtt_a, dtt_b = hadamard_dtt_array(state, a, b)
    quad = ell * ell * (dtt_a + dtt_b)
    return w + quad, w, quad


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
    vacuum limit and by the closed second-time-derivative estimate; a
    pi-less variant of that prefactor is excluded by both.
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
    grid = checked_widths(base_config, ell_grid)
    dt, dr = base_config
    a = Event(dt, dr, 0.0, 0.0)
    b = Event(0.0, 0.0, 0.0, 0.0)
    points = []
    for ell in grid:
        ri, rj = GaussianRegion(a, ell), GaussianRegion(b, ell)
        w = wightman_smeared_quadrature(state, ri, rj, tol).real
        value, pointlike, _ = estimate_array(state, a.coords(), b.coords(), ell)
        model = value if include_quadrupole else pointlike
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
    Fewer than 3 residuals above the noise floor raise InsufficientDataError.
    """
    return fit_loglog_slope(residual_table(state, base_config, ell_grid, tol,
                                           include_quadrupole))
