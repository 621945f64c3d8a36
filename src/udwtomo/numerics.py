"""Quadrature and fitting primitives.

``integrate_semi_infinite`` is the one integrator, the smeared-kernel
oracle's and the scans' quadrature column's: panelised adaptive
Gauss-Kronrod on [0, K] for a vector of integrands (one per pair of a scan,
or the one pair of the oracle), with the cutoff K chosen from the
integrands' Gaussian decay, plus an explicit tail certificate.  All the
radial momentum integrands in this package carry an exp(-a k^2) factor, so
every caller passes that decay scale a, and the truncation error is bounded
analytically; the oscillation scale sets the panels and optional knots add
panel edges.  It runs the adaptive 21-point Gauss-Kronrod algorithm of
``scipy.integrate.quad_vec`` in numpy, one integrand call per refinement
round over every node of every interval the round bisects, so it needs no
scipy at all.
"""

from __future__ import annotations

import heapq
import math
import sys
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
    """The integrals of a vector integrand over [0, infinity), the largest
    absolute error certificate among them, and the number of k at which
    the integrand was evaluated."""

    value: np.ndarray
    error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class SlopeFit:
    """Least-squares line through (log scale, log magnitude) points."""

    slope: float
    residual: float  # RMS residual in log-log space


def _plan(f, tol: float, decay_scale: float, osc_scale: float,
          knots: Sequence[float]) -> tuple[float, np.ndarray, np.ndarray, int]:
    """(K, tail_bound, edges, limit) of the integrator: the cutoff K with
    |int_K^inf f| <= tail_bound <~ tol/10, the panel edges on [0, K] and
    each panel's subdivision budget.

    f takes a 1-D array of k and returns an array of shape (len(k), n),
    whose components share one K (the largest |f| sets it) and have a tail
    bound each.  It is called on the 24 magnitude probes and on the 3
    points past K, and on 3 more where K moves out.  ``knots`` are extra
    edges where the integrand changes on a scale the panels would not
    resolve (the thermal occupation at k ~ 1/beta); those outside (0, K)
    are dropped."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not (decay_scale > 0 and osc_scale > 0):
        raise ValueError("decay_scale and osc_scale must be positive")
    a = decay_scale
    probes = np.linspace(0.0, 3.0 / math.sqrt(a), 25)[1:]
    mag = np.max(np.abs(f(probes)))
    if not math.isfinite(mag):
        raise ConvergenceError(f"integrand is not finite on [0, {probes[-1]:g}]")
    mag = max(mag, 1e-300)
    cutoff = math.sqrt((max(math.log(mag / (tol / 10.0)), 0.0) + 5.0) / a)
    # |f| <= |f(K)| e^{-a(k^2-K^2)} beyond K, so the tail is <= |f(K)|/(2aK)
    fk = np.max(np.abs(f(cutoff * np.array([1.0, 1.02, 1.1]))), axis=0)
    # a small 2aK (narrow regions in physical units) can take that past tol/10:
    # K moves out once by the decay the excess needs
    if np.max(fk) / (2.0 * a * cutoff) > tol / 10.0:
        cutoff = math.sqrt(cutoff * cutoff + (math.log(
            np.max(fk) / (2.0 * a * cutoff) / (tol / 10.0)) + 1.0) / a)
        fk = np.max(np.abs(f(cutoff * np.array([1.0, 1.02, 1.1]))), axis=0)
    # aim for <= 50 oscillation periods per panel, capping the panel count;
    # heavily oscillatory panels get a proportionally larger subdivision budget
    width = max(50.0 * 2.0 * math.pi / osc_scale, cutoff / 512.0)
    periods_per_panel = width * osc_scale / (2.0 * math.pi)
    limit = max(100, min(5000, int(3.0 * periods_per_panel) + 50))
    edges = np.linspace(0.0, cutoff, max(1, math.ceil(cutoff / width)) + 1)
    inner = [x for x in knots if 0.0 < x < cutoff]
    return (cutoff, fk / (2.0 * a * cutoff),
            np.union1d(edges, inner) if inner else edges, limit)


# QUADPACK's 21-point Gauss-Kronrod rule on [-1, 1], the one quad_vec uses:
# the positive Kronrod nodes and their weights, and the weights of the
# embedded 10-point Gauss rule, whose nodes are the odd-indexed Kronrod ones
_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
# the 21 nodes in quad_vec's order, descending, and the weights along them
_GK_NODES = np.array([*_XK, 0.0, *(-x for x in reversed(_XK))])
_GK_KRONROD = np.array([*_WK, 0.149445554002916905664936468389821, *reversed(_WK)])
_GK_GAUSS = np.array([*_WG, *reversed(_WG)])
_GK_POINTS = len(_GK_NODES)

_MAX_BISECTIONS = 128  # per round, as in quad_vec

# at most this many integrand values per call of f, in whole intervals (one
# at least).  Measured on one round of the thermal scan integrand (2 cores):
# calls of ~2^12 values take 37 ns per value, the call overhead showing;
# 2^14 to 2^18 values take 23-29 ns; from 2^20 values the blocks leave the
# cache (28-43 ns per value) and the round's traced peak memory grows from
# 3-10 MiB to 34 MiB at 2^20 and 129 MiB at 2^24 values per call
_CHUNK_VALUES = 1 << 16


def _nodes_sum(weights: np.ndarray, fv: np.ndarray) -> np.ndarray:
    # sum_i weights_i fv[:, i] of values fv (intervals, nodes, components),
    # added from 0.0 term after term in node order as quad_vec's running sums
    # add them (einsum keeps that order from two components on; matmul and
    # add.reduce pair the terms up, which moves the last bit)
    return np.einsum("i,mik->mk", weights, fv)


def _add_in_order(total, terms):
    # the running sum over the pairs and the panels, in quad_vec's order
    for term in terms:
        total = total + term
    return total


def _gk21(f, lo: np.ndarray, hi: np.ndarray, chunk: int
          ) -> tuple[np.ndarray, list[float], list[float]]:
    """quad_vec's GK21 estimate on every interval [lo_j, hi_j]: the
    integrals, shape (len(lo), n), and the errors and rounding errors in
    the max norm over the components.  The intervals go to f ``chunk`` at
    a time, all their nodes in one call, and each chunk is reduced to its
    intervals' estimates before the next call."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    integrals, err, dabs, rnd = [], [], [], []
    for i in range(0, len(lo), chunk):
        hc = h[i:i + chunk, None]
        k = (c[i:i + chunk, None] + hc * _GK_NODES).ravel()
        fv = np.asarray(f(k)).reshape(len(hc), _GK_POINTS, -1)
        s_k = _nodes_sum(_GK_KRONROD, fv)
        s_g = _nodes_sum(_GK_GAUSS, fv[:, 1::2])
        s_abs = _nodes_sum(_GK_KRONROD, np.abs(fv))
        s_dev = _nodes_sum(_GK_KRONROD, np.abs(fv - (s_k / 2.0)[:, None]))
        integrals.append(hc * s_k)
        err += np.max(np.abs((s_k - s_g) * hc), axis=1).tolist()
        dabs += np.max(np.abs(s_dev * hc), axis=1).tolist()
        rnd += np.max(np.abs(50.0 * sys.float_info.epsilon * hc * s_abs), axis=1).tolist()
    for j, (e, d, r) in enumerate(zip(err, dabs, rnd)):
        # QUADPACK's error heuristic and the rounding floor, in Python floats
        if d != 0 and e != 0:
            e = d * min(1.0, (200 * e / d) ** 1.5)
        err[j] = max(e, r) if r > sys.float_info.min else e
    return np.concatenate(integrals), err, rnd


def integrate_semi_infinite(
    f: Callable[[np.ndarray], np.ndarray],
    tol: float,
    decay_scale: float,
    osc_scale: float,
    knots: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate every component of a vector-valued f over [0, infinity) to
    absolute tolerance ``tol``, in one adaptive pass.

    ``decay_scale`` is the Gaussian decay rate a of |f(k)| ~ exp(-a k^2); it
    makes the truncation bound analytic.  One cutoff K serves every
    component.  ``osc_scale`` is the largest component frequency (rad per
    unit k) and ``knots`` are extra panel edges; both only affect how the
    finite range is panelised.  f takes a 1-D array of k and returns an
    array of shape (len(k), n), real or complex, whose row i holds every
    component at k_i.  Deterministic for fixed inputs.

    The pass is the algorithm of ``scipy.integrate.quad_vec`` with
    ``norm="max"``, in numpy.  The panels are the initial intervals.  Each
    interval is integrated by the 21-point Gauss-Kronrod rule with
    QUADPACK's error estimate in the max norm over the components.  Each
    round bisects the intervals of largest error, in error order, until
    their error sum reaches the global error less tol'/8, at most 128 of
    them, where tol' = max(4 tol, 1e-12 max|I|).  It evaluates the nodes
    of every new half in one call of f; a round of more than ~2^16 values
    (``_CHUNK_VALUES``) is split into calls of whole intervals, with the
    same result.  The rounds stop once the error sum is below tol'/8 or
    below the rounding error, or is not finite, or at ``limit`` intervals
    per panel.  The result's value is the array of integrals and its error
    estimate the largest per-component certificate: the error sum and the
    rounding error plus that component's tail bound.  Raises
    ConvergenceError when it exceeds 10 tol or is not finite.
    """
    cutoff, tail_bound, edges, limit = _plan(f, tol, decay_scale, osc_scale, knots)
    chunk = max(1, _CHUNK_VALUES // (_GK_POINTS * tail_bound.size))
    cap = limit * (len(edges) - 1)
    # 4 tol: the rounds stop at an error sum below tol / 2
    epsabs, epsrel = 4.0 * tol, 1e-12

    ig, err, rnd = _gk21(f, edges[:-1], edges[1:], chunk)
    evals = _GK_POINTS * len(err)
    total = _add_in_order(ig[0], ig[1:])
    error, rounding = _add_in_order(err[0], err[1:]), _add_in_order(rnd[0], rnd[1:])
    bounds = list(zip(edges[:-1].tolist(), edges[1:].tolist()))
    integrals = dict(zip(bounds, ig))
    heap = [(-e, lo, hi) for e, (lo, hi) in zip(err, bounds)]
    heapq.heapify(heap)

    while len(heap) < cap:
        target = max(epsabs, epsrel * np.max(np.abs(total)))
        picked, err_sum = [], 0.0
        while heap and len(picked) < _MAX_BISECTIONS:
            if picked and err_sum > error - target / 8:
                break
            picked.append(heapq.heappop(heap))
            err_sum += -picked[-1][0]
        halves = []
        for _, a, b in picked:
            c = 0.5 * (a + b)
            halves += [(a, c), (c, b)]
        lo, hi = np.array(halves).T
        ig, err, rnd = _gk21(f, lo, hi, chunk)
        evals += _GK_POINTS * len(err)
        # the running sums take each bisection's change in pick order
        old = np.array([integrals.pop((a, b)) for _, a, b in picked])
        total = _add_in_order(total, ig[0::2] + ig[1::2] - old)
        error = _add_in_order(error, [e1 + e2 - (-neg_old) for (neg_old, _, _), e1, e2
                                      in zip(picked, err[0::2], err[1::2])])
        rounding = _add_in_order(rounding, [r1 + r2 for r1, r2 in zip(rnd[0::2], rnd[1::2])])
        for half, s, e in zip(halves, ig, err):
            integrals[half] = s
            heapq.heappush(heap, (-e, *half))
        if len(heap) >= 2:
            target = max(epsabs, epsrel * np.max(np.abs(total)))
            if error < target / 8 or error < rounding:
                break
        if not (math.isfinite(error) and math.isfinite(rounding)):
            break

    err = float(np.max(error + rounding + tail_bound))
    if not err <= 10.0 * tol:
        raise ConvergenceError(
            f"accumulated quadrature error {err:.3e} exceeds tolerance {tol:.3e} "
            f"({len(heap)} intervals, cap {cap})")
    return QuadratureResult(value=total, error_estimate=err, evaluations=evals)


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
