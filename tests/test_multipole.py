"""Multipole expansion: derivative kernels, correction factors, convergence order."""

import math

import numpy as np
import pytest

from udwtomo.errors import InsufficientDataError, LightconeSingularityError
from udwtomo.kernels import (FieldState, hadamard_array, hadamard_dtt_array,
                             wightman_smeared_quadrature)
from udwtomo.multipole import (convergence_order, estimate_array,
                               thermal_expansion_spatial,
                               thermal_expansion_temporal,
                               vacuum_quadrupole_factor)
from udwtomo.smearing import GaussianRegion
from udwtomo.spacetime import Event

O = Event(0.0, 0.0, 0.0, 0.0)
ORIGIN = O.coords()
VAC = FieldState.vacuum()


def regions(dt, dr, ell):
    return GaussianRegion(Event(dt, dr, 0.0, 0.0), ell), GaussianRegion(O, ell)


def multipole_value(state, dt, dr, ell):
    """The estimate's value and pointlike term between width-ell regions
    centred at (dt, dr, 0, 0) and the origin."""
    value, pointlike, _ = estimate_array(state, [dt, dr, 0.0, 0.0], ORIGIN, ell)
    return float(value), float(pointlike)


class TestVacuumDerivatives:
    def test_hessian_trace_reproduces_spatial_coefficient(self):
        s = 3.0
        w, dtt_i, dtt_j = (float(v) for v in hadamard_dtt_array(VAC, [0.0, s, 0, 0], ORIGIN))
        # (ell^2/2)(tr_i + tr_j) = ell^2 (d_tt_i + d_tt_j) = W * 4 ell^2 / s^2 at equal time
        assert dtt_i + dtt_j == pytest.approx(w * 4.0 / s**2, rel=1e-13)

    def test_lightlike_rejected(self):
        for state in (VAC, FieldState.thermal(5.0), FieldState.coherent(1.5),
                      FieldState.one_particle(4.0)):
            with pytest.raises(LightconeSingularityError):
                hadamard_dtt_array(state, [1.0, 1.0, 0, 0], ORIGIN)


def _mp_pair(state):
    """Re W(a, b) at working precision as a function of the eight coordinates
    of a and b: the vacuum term, the textbook coth sum of the thermal state
    (its dr = 0 limit in closed form), or the vacuum term plus phi0(a) phi0(b)
    (coherent) or 2 Re F(a) conj F(b) (one-particle), each amplitude in its
    closed mpmath form."""
    import mpmath as mp

    def phi0(t, r):
        s2 = mp.mpf(state.delta) ** 2
        return (mp.exp(-(r + t) ** 2 / (4 * s2)) - mp.exp(-(r - t) ** 2 / (4 * s2))) / (
            r * 4 * mp.sqrt(2) * mp.pi)

    def F(t, r):
        def h(v, sign):
            return v * mp.exp(-v * v) * (1 + sign * 1j * mp.erfi(v)) / mp.sqrt(2 * mp.pi)
        s = mp.sqrt(2) * mp.mpf(state.delta)
        return (h((r - t) / s, 1) + h((r + t) / s, -1)) / (2 * r)

    def w(ta, xa, ya, za, tb, xb, yb, zb):
        dt = ta - tb
        dr = mp.sqrt((xa - xb) ** 2 + (ya - yb) ** 2 + (za - zb) ** 2)
        if state.tag == "thermal":
            beta = mp.mpf(state.beta)
            if dr == 0:
                return -1 / (4 * beta**2 * mp.sinh(mp.pi * dt / beta) ** 2)
            return (mp.coth(mp.pi * (dr + dt) / beta) + mp.coth(mp.pi * (dr - dt) / beta)) / (
                8 * mp.pi * beta * dr)
        vac = 1 / (4 * mp.pi**2 * (dr**2 - dt**2))
        if state.tag == "vacuum":
            return vac
        ra, rb = mp.sqrt(xa**2 + ya**2 + za**2), mp.sqrt(xb**2 + yb**2 + zb**2)
        if state.tag == "coherent":
            return vac + phi0(ta, ra) * phi0(tb, rb)
        return vac + 2 * mp.re(F(ta, ra) * mp.conj(F(tb, rb)))
    return w


def _mp_second_derivatives(state, a, b, axes):
    """mpmath.diff second derivatives of Re W along each of ``axes`` (0-3 in
    a, 4-7 in b), at 30 digits."""
    import mpmath as mp

    w = _mp_pair(state)
    with mp.workdps(30):
        point = [mp.mpf(v) for v in (*a, *b)]
        return [float(mp.diff(w, point, tuple(2 if k == axis else 0 for k in range(8))))
                for axis in axes]


def _mp_multipole(state, a, b, ell):
    """W + (ell^2/2)(tr Hess_a W + tr Hess_b W), Hessians by mpmath.diff."""
    import mpmath as mp

    a, b = a.coords(), b.coords()
    with mp.workdps(30):
        w = float(_mp_pair(state)(*[mp.mpf(v) for v in (*a, *b)]))
    return w + ell**2 / 2 * sum(_mp_second_derivatives(state, a, b, range(8)))


class TestStateDerivatives:
    """Closed second time derivatives against mpmath.diff, across every branch
    of the pointlike kernels."""

    def test_thermal_hessian_vs_analytic_second_derivative(self):
        # analytic d^2/ddt^2 of the reduced coth kernel as the oracle
        beta, dt, dr = 7.0, 1.0, 3.0
        _, dtt_i, dtt_j = hadamard_dtt_array(FieldState.thermal(beta), [dt, dr, 0, 0], ORIGIN)
        k = math.pi / beta
        coth = lambda z: 1.0 / math.tanh(z)
        csch2 = lambda z: 1.0 / math.sinh(z) ** 2
        ana = (1.0 / (8 * math.pi * beta * dr)) * k**2 * (
            2 * coth(k * (dr + dt)) * csch2(k * (dr + dt))
            + 2 * coth(k * (dr - dt)) * csch2(k * (dr - dt)))
        assert float(dtt_i) == pytest.approx(ana, rel=1e-6)
        assert float(dtt_j) == pytest.approx(ana, rel=1e-6)

    @pytest.mark.parametrize("state, a, b", [
        pytest.param(VAC, (0.7, 2.5, 0.4, -0.3), (-0.1, 0.2, 0.0, 0.1), id="vacuum"),
        pytest.param(VAC, (3.0, 0.0, 0.0, 0.0), (-1.0, 0.0, 0.0, 1.0), id="vacuum-timelike"),
        pytest.param(FieldState.thermal(7.0), (1.0, 3.0, 0.0, 0.0), O.coords(),
                     id="thermal"),
        pytest.param(FieldState.thermal(1.0), (2.0, 0.3, 0.4, 0.0), O.coords(),
                     id="thermal-timelike"),
        pytest.param(FieldState.thermal(1.0), (0.7, 0.0, 0.0, 0.0), O.coords(),
                     id="thermal-dr0"),
        pytest.param(FieldState.thermal(1.0), (0.7, 1e-9, 0.0, 0.0), O.coords(),
                     id="thermal-sinhc"),
        # one argument of coth beyond 300, the other near the cone on either side
        pytest.param(FieldState.thermal(1.0), (100.0, 100.5, 0.0, 0.0), O.coords(),
                     id="thermal-one-saturated-spacelike"),
        pytest.param(FieldState.thermal(1.0), (100.5, 100.0, 0.0, 0.0), O.coords(),
                     id="thermal-one-saturated-timelike"),
        pytest.param(FieldState.thermal(1.0), (5.0, 200.0, 0.0, 0.0), O.coords(),
                     id="thermal-saturated-plateau"),
        pytest.param(FieldState.thermal(1.0), (500.0, 100.0, 0.0, 0.0), O.coords(),
                     id="thermal-saturated-timelike"),
        # 1e-6 outside the lightcone, where W is large and steep
        pytest.param(FieldState.thermal(5.0), (1.0, 1.0 + 1e-6, 0.0, 0.0), O.coords(),
                     id="thermal-near-lightcone"),
        # one event on either side of the small-r series switch of phi0
        # (r = 1e-4 delta), the other where the source term dominates d_tt W
        pytest.param(FieldState.coherent(1.5), (1.5, 0.5e-4 * 1.5, 0.0, 0.0),
                     (-4.0, 2.0, 0.5, 0.0), id="coherent-series"),
        pytest.param(FieldState.coherent(1.5), (1.5, 2e-4 * 1.5, 0.0, 0.0),
                     (-4.0, 2.0, 0.5, 0.0), id="coherent-direct"),
        pytest.param(FieldState.coherent(1.5), (1.0, 6.0, 0.5, 0.0),
                     (-0.5, 1.0, -2.0, 0.3), id="coherent"),
        # one event on either side of the small-r series switch of F (r = 1e-3 delta)
        pytest.param(FieldState.one_particle(4.0), (0.8, 0.5e-3 * 4.0, 0.0, 0.0),
                     (-1.0, 3.0, 1.0, 0.0), id="one-particle-series"),
        pytest.param(FieldState.one_particle(4.0), (0.8, 2e-3 * 4.0, 0.0, 0.0),
                     (-1.0, 3.0, 1.0, 0.0), id="one-particle-direct"),
        pytest.param(FieldState.one_particle(4.0), (-3.0, 1.0, 2.0, 0.0),
                     (2.0, -5.0, 0.0, 1.0), id="one-particle"),
    ])
    def test_matches_mpmath(self, state, a, b):
        _, dtt_i, dtt_j = hadamard_dtt_array(state, a, b)
        want = _mp_second_derivatives(state, a, b, (0, 4))
        for value, ref in zip((float(dtt_i), float(dtt_j)), want):
            assert abs(value - ref) <= 1e-10 * abs(ref)

    @pytest.mark.parametrize("state", [VAC, FieldState.thermal(7.0),
                                       FieldState.coherent(1.5),
                                       FieldState.one_particle(4.0)])
    def test_wave_equation_trace(self, state):
        # 2 d_tt W is the Euclidean Hessian trace at each event, sources included
        a, b = (1.0, 6.0, 0.5, 0.0), (-0.5, 1.0, -2.0, 0.3)
        _, dtt_i, dtt_j = hadamard_dtt_array(state, a, b)
        diag = _mp_second_derivatives(state, a, b, range(8))
        assert 2.0 * float(dtt_i) == pytest.approx(sum(diag[:4]), rel=1e-10)
        assert 2.0 * float(dtt_j) == pytest.approx(sum(diag[4:]), rel=1e-10)


class TestEstimate:
    def test_spatial_factor_exact(self):
        s, ell = 10.0, 1.0
        value, pointlike = multipole_value(VAC, 0.0, s, ell)
        w0 = float(hadamard_array(VAC, [0.0, s, 0.0, 0.0], ORIGIN))
        assert value / w0 == pytest.approx(1.0 + 4.0 * ell**2 / s**2, rel=1e-12)
        assert pointlike == w0

    def test_temporal_factor_exact(self):
        s, ell = 10.0, 1.0
        value, _ = multipole_value(VAC, s, 0.0, ell)
        w0 = float(hadamard_array(VAC, [s, 0.0, 0.0, 0.0], ORIGIN))
        assert value / w0 == pytest.approx(1.0 + 12.0 * ell**2 / s**2, rel=1e-12)

    def test_general_factorisation(self):
        # the generic pipeline factorises as W0 * (1 + ell^2 (12 dt^2 + 4 dr^2)/(..)^2);
        # a candidate with half this coefficient is excluded by the quadrature
        # oracle (see the measured-coefficient test below).
        ell = 0.05
        for (dt, dr) in ((0.0, 1.0), (1.0, 0.0), (1.0, 2.0), (2.0, 1.0)):
            value, _ = multipole_value(VAC, dt, dr, ell)
            w0 = float(hadamard_array(VAC, [dt, dr, 0.0, 0.0], ORIGIN))
            assert value == pytest.approx(
                w0 * vacuum_quadrupole_factor(dt, dr, ell), rel=1e-12)

    def test_measured_coefficient_matches_quadrature(self):
        # direct adjudication: the ell^2 coefficient measured from the
        # quadrature oracle (Richardson-extrapolated in ell) equals the full
        # (12 dt^2 + 4 dr^2) combination, not half of it
        dt, dr = 1.0, 2.0
        w0 = float(hadamard_array(VAC, [dt, dr, 0, 0], ORIGIN))
        measured = {}
        for ell in (0.02, 0.01):
            ri, rj = regions(dt, dr, ell)
            w = wightman_smeared_quadrature(VAC, ri, rj, 1e-13).real
            measured[ell] = (w / w0 - 1.0) / ell**2
        rich = (4.0 * measured[0.01] - measured[0.02]) / 3.0
        full = (12 * dt**2 + 4 * dr**2) / (-dt**2 + dr**2) ** 2
        assert rich == pytest.approx(full, rel=1e-3)
        assert abs(rich - 0.5 * full) > 0.4 * full

    def test_thermal_temporal_expansion(self):
        beta, ell = 50.0, 1.0
        for dt in (5.0, 10.0, 20.0):
            value, _ = multipole_value(FieldState.thermal(beta), dt, 0.0, ell)
            want = thermal_expansion_temporal(beta, dt, ell)
            assert value == pytest.approx(want, rel=1e-6)

    def test_thermal_spatial_expansion_measured(self):
        # equal-time counterpart with the numerically verified prefactor
        beta, ell = 50.0, 1.0
        for dr in (5.0, 10.0):
            value, _ = multipole_value(FieldState.thermal(beta), 0.0, dr, ell)
            want = thermal_expansion_spatial(beta, dr, ell)
            assert value == pytest.approx(want, rel=1e-6)

    def test_thermal_spatial_expansion_vs_oracle(self):
        # the oracle adjudicates both pieces of the equal-time expansion: the
        # leading term carries the 1/(4 pi beta dr) prefactor (its pi-less
        # variant is excluded) and the ell^2 term matches to a few percent
        beta, ell, dr = 50.0, 0.2, 5.0
        ri, rj = regions(0.0, dr, ell)
        w = wightman_smeared_quadrature(FieldState.thermal(beta), ri, rj, 1e-12).real
        lead = 1.0 / math.tanh(math.pi * dr / beta) / (4 * math.pi * beta * dr)
        ell2_term = thermal_expansion_spatial(beta, dr, ell) - lead
        assert abs(w - thermal_expansion_spatial(beta, dr, ell)) <= 0.05 * ell2_term
        assert w - lead == pytest.approx(ell2_term, rel=0.05)
        # the pi-less leading term misses the oracle by far more than ell^2
        assert abs(w - math.pi * lead) > 100 * ell2_term

    def test_symmetry_i_j(self):
        for state in (VAC, FieldState.thermal(40.0), FieldState.coherent(1.5),
                      FieldState.one_particle(4.0)):
            a = estimate_array(state, [3.0, 7.0, 0.0, 0.0], ORIGIN, 0.3)[0]
            b = estimate_array(state, ORIGIN, [3.0, 7.0, 0.0, 0.0], 0.3)[0]
            assert a == pytest.approx(b, rel=1e-9)


class TestSourcedOracle:
    """Coherent and one-particle estimates against mpmath Hessian traces."""

    @pytest.mark.parametrize("state, a, b", [
        (FieldState.coherent(1.5), Event(1.0, 6.0, 0.5, 0.0), Event(-0.5, 1.0, -2.0, 0.3)),
        (FieldState.coherent(1.5), Event(2.0, -4.0, 1.0, 0.0), Event(-1.0, 0.5, 0.0, 2.0)),
        # one event 1e-4 from the source centre, beside the small-r series
        # switch of phi0 (r = 1e-4 delta)
        (FieldState.coherent(1.5), Event(0.8, 1e-4, 0.0, 0.0), Event(-1.0, 3.0, 1.0, 0.0)),
        (FieldState.one_particle(4.0), Event(1.0, 6.0, 0.5, 0.0), Event(-0.5, 1.0, -2.0, 0.3)),
        (FieldState.one_particle(4.0), Event(-3.0, 1.0, 2.0, 0.0), Event(2.0, -5.0, 0.0, 1.0)),
        # within 1e-3 delta of the source centre, inside the small-r series
        # of F (r = 1e-3 delta)
        (FieldState.one_particle(4.0), Event(0.8, 3e-3, 0.0, 0.0), Event(-1.0, 3.0, 1.0, 0.0)),
    ])
    def test_estimate_matches_mpmath(self, state, a, b):
        ell = 0.3
        value = float(estimate_array(state, a.coords(), b.coords(), ell)[0])
        assert value == pytest.approx(_mp_multipole(state, a, b, ell), rel=1e-5)


class TestConvergenceOrder:
    def test_vacuum_fourth_order(self):
        grid = list(np.geomspace(0.02, 0.1, 7))
        fit = convergence_order(VAC, (0.0, 1.0), grid, tol=1e-12)
        assert fit.slope == pytest.approx(4.0, abs=0.3)

    def test_pointlike_only_second_order(self):
        grid = list(np.geomspace(0.02, 0.1, 7))
        fit = convergence_order(VAC, (0.0, 1.0), grid, tol=1e-12,
                                include_quadrupole=False)
        assert fit.slope == pytest.approx(2.0, abs=0.3)

    def test_grid_guard(self):
        with pytest.raises(ValueError):
            convergence_order(VAC, (0.0, 1.0), [0.05, 0.2, 0.5])

    def test_insufficient_data(self):
        # at widths this small the true residual is ~ W0 * 48 ell^4 ~ 1e-16,
        # so what survives is quadrature noise around the 1e-13 floor and
        # fewer than 3 points remain usable
        with pytest.raises(InsufficientDataError):
            convergence_order(VAC, (0.0, 1.0), [1e-4, 1.2e-4, 1.5e-4], tol=1e-10)
