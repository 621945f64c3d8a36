"""Pointlike and smeared two-point kernels for the four field states.

The momentum-space quadrature route is the independent oracle throughout;
closed forms are validated against it rather than against themselves.
"""

import math
import random
import re

import numpy as np
import pytest

from udwtomo import config, kernels
from udwtomo.config import validate_config
from udwtomo.errors import CapacityError, ConfigError, LightconeSingularityError
from udwtomo.kernels import (FieldState, KernelMatrix, assemble_kernels,
                             F_oneparticle_array, hadamard_array, phi0_coherent_array,
                             wightman_smeared_closed, wightman_smeared_quadrature)
from udwtomo.smearing import GaussianRegion
from udwtomo.spacetime import Event, LatticeSpec, build_lattice, intervals

O = Event(0.0, 0.0, 0.0, 0.0)
ORIGIN = O.coords()


def region(t, x, ell=1.0):
    return GaussianRegion(Event(t, x, 0.0, 0.0), ell)


def region_amplitudes(state, *regions):
    """The closed region amplitudes of unit-width regions, one array call."""
    return kernels._region_amplitudes(state, np.array([r.center.coords() for r in regions]))


def points(*tx):
    """Region centers (t, x, 0, 0) as an (n, 4) array."""
    return np.array([(t, x, 0.0, 0.0) for t, x in tx], dtype=float)


def lattice_centers(origin=O):
    # 3^3 x 2 sites at 10 ell spacing: 54 regions, 1431 pairs
    return build_lattice(LatticeSpec(3, 2, 10.0, 10.0, origin))


def per_pair_reference(state, centers, lam):
    """H and GR filled pair by pair, H from one wightman_smeared_closed call
    per pair of unit-width regions, the diagonal included."""
    n, lam2 = len(centers), lam * lam
    H, GR = np.zeros((n, n)), np.zeros((n, n))
    regions = [GaussianRegion(Event(*c), 1.0) for c in centers.tolist()]
    itv = intervals(centers[:, None], centers[None, :])
    E = lam2 * kernels._commutator(itv.dt, itv.dr)
    for i in range(n):
        for j in range(i, n):
            w = wightman_smeared_closed(state, regions[i], regions[j])
            H[i, j] = H[j, i] = lam2 * 2.0 * w.real
            if itv.dt[i, j] > 0.0:
                GR[i, j] = E[i, j]
            elif itv.dt[i, j] < 0.0:
                GR[j, i] = -E[i, j]
    return H, GR


def shuffled(centers, seed):
    """The rows of ``centers`` in the order ``random.Random(seed).shuffle`` gives."""
    order = list(range(len(centers)))
    random.Random(seed).shuffle(order)
    return centers[order]


def pair_intervals(centers):
    """The intervals of every pair i < j of ``centers``, row-major."""
    iu, ju = np.triu_indices(len(centers), 1)
    return intervals(centers[iu], centers[ju])


def assert_bitwise(a, b):
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


class TestFieldState:
    def test_constructors(self):
        assert FieldState.vacuum().tag == "vacuum"
        assert FieldState.thermal(50.0).beta == 50.0
        assert FieldState.coherent(1.5).delta == 1.5
        assert FieldState.one_particle(10.0).delta == 10.0

    @pytest.mark.parametrize("bad", [
        lambda: FieldState("thermal"),
        lambda: FieldState("thermal", beta=-1.0),
        lambda: FieldState("coherent"),
        lambda: FieldState("vacuum", beta=1.0),
        lambda: FieldState("coherent", delta=1.0, beta=1.0),
        lambda: FieldState("squeezed"),
    ])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            bad()


class TestHadamardPoint:
    def test_vacuum_spacelike(self):
        val = float(hadamard_array(FieldState.vacuum(), [0, 1, 0, 0], ORIGIN))
        assert val == pytest.approx(1.0 / (4 * math.pi**2), rel=1e-15)

    def test_vacuum_timelike_sign_flip(self):
        val = float(hadamard_array(FieldState.vacuum(), [1, 0, 0, 0], ORIGIN))
        assert val == pytest.approx(-1.0 / (4 * math.pi**2), rel=1e-15)

    def test_lightlike_raises(self):
        for state in (FieldState.vacuum(), FieldState.thermal(5.0),
                      FieldState.coherent(1.0), FieldState.one_particle(1.0)):
            with pytest.raises(LightconeSingularityError):
                hadamard_array(state, [1, 1, 0, 0], ORIGIN)

    def test_thermal_approaches_vacuum(self):
        # coth small-argument expansion: relative deviation ~ (pi dr / beta)^2 / 3
        dr = 1.0
        vac = float(hadamard_array(FieldState.vacuum(), [0, dr, 0, 0], ORIGIN))
        for beta in (50.0, 200.0, 1000.0):
            th = float(hadamard_array(FieldState.thermal(beta), [0, dr, 0, 0], ORIGIN))
            rel = abs(th - vac) / vac
            expect = (math.pi * dr / beta) ** 2 / 3.0
            assert rel == pytest.approx(expect, rel=0.05)

    def test_thermal_stable_form_equals_coth_sum(self):
        # the product form used internally is algebraically the textbook
        # coth(pi(dr+dt)/beta) + coth(pi(dr-dt)/beta) expression
        beta = 13.0
        geometries = [(0.0, 1.0), (2.0, 5.0), (-4.0, 1.5), (7.0, 2.0)]
        got = hadamard_array(FieldState.thermal(beta),
                             [[dt, dr, 0, 0] for dt, dr in geometries], ORIGIN)
        k = math.pi / beta
        want = [(1.0 / math.tanh(k * (dr + dt)) + 1.0 / math.tanh(k * (dr - dt))) / (
                 8.0 * math.pi * beta * dr) for dt, dr in geometries]
        assert got == pytest.approx(want, rel=1e-13)

    def test_thermal_extreme_arguments(self):
        # saturation branches: deep spacelike plateau and underflowing timelike
        beta = 1.0
        deep_space, deep_time, mixed = hadamard_array(
            FieldState.thermal(beta), [[0, 200.0, 0, 0], [200.0, 0, 0, 0], [500.0, 100.0, 0, 0]],
            ORIGIN).tolist()
        assert deep_space == pytest.approx(1.0 / (4 * math.pi * beta * 200.0), rel=1e-12)
        assert deep_time == 0.0  # true value ~ -e^{-400 pi}, below double range
        assert mixed == 0.0 and not math.isnan(mixed)

    def test_thermal_one_argument_saturated(self):
        # one of pi (dr +- dt) / beta beyond 300, the other not: the product
        # form would overflow there; the textbook coth sum at 30 digits decides
        import mpmath as mp
        beta = 1.0
        geometries = [(100.0, 150.0), (110.0, 100.0), (-110.0, 100.0), (50.0, 60.0)]
        got = hadamard_array(FieldState.thermal(beta),
                             [[dt, dr, 0, 0] for dt, dr in geometries], ORIGIN)
        with mp.workdps(30):
            k = mp.pi / beta
            want = [float((mp.coth(k * (dr + dt)) + mp.coth(k * (dr - dt))) / (
                        8 * mp.pi * beta * dr)) for dt, dr in geometries]
        assert got == pytest.approx(want, rel=1e-12)

    def test_thermal_pure_temporal_limit(self):
        # dr -> 0 analytic limit -1/(4 beta^2 sinh^2(pi dt / beta))
        beta, dt = 50.0, 5.0
        want = -1.0 / (4 * beta**2 * math.sinh(math.pi * dt / beta) ** 2)
        got, near = hadamard_array(FieldState.thermal(beta),
                                   [[dt, 0, 0, 0], [dt, 1e-9, 0, 0]], ORIGIN).tolist()
        assert got == pytest.approx(want, rel=1e-13)
        # and continuity from tiny dr
        assert near == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("state", [FieldState.vacuum(), FieldState.thermal(37.0),
                                       FieldState.coherent(1.5),
                                       FieldState.one_particle(4.0)])
    def test_symmetry_in_arguments(self, state):
        a, b = [0.7, 3.0, -1.0, 0.5], [-0.4, -2.0, 0.3, 1.0]
        assert float(hadamard_array(state, a, b)) == pytest.approx(
            float(hadamard_array(state, b, a)), rel=1e-13)

    def test_coherent_additivity_is_exact(self):
        # state kernel minus vacuum kernel equals the classical-wave product
        a, b = [2.0, 5.0, 0, 0], [-1.0, -3.0, 1.0, 0]
        delta = 1.5
        diff = float(hadamard_array(FieldState.coherent(delta), a, b)
                     - hadamard_array(FieldState.vacuum(), a, b))
        phi_a, phi_b = phi0_coherent_array(delta, [a, b]).tolist()
        assert diff == pytest.approx(phi_a * phi_b, abs=1e-12)


class TestPhi0:
    def test_zero_at_t0(self):
        values = phi0_coherent_array(1.0, [[0.0, r, 0, 0] for r in (0.3, 1.0, 7.0)])
        assert values.tolist() == [0.0, 0.0, 0.0]

    def test_odd_in_t(self):
        v1, v2 = phi0_coherent_array(2.0, [[1.3, 0.8, 0.2, 0], [-1.3, 0.8, 0.2, 0]]).tolist()
        assert v1 == pytest.approx(-v2, rel=1e-14)

    def test_direct_substitution(self):
        # r = t = delta = 1: (e^{-1} - 1) / (4 sqrt2 pi)
        want = (math.exp(-1.0) - 1.0) / (4 * math.sqrt(2) * math.pi)
        assert float(phi0_coherent_array(1.0, [1.0, 1.0, 0, 0])) == pytest.approx(
            want, rel=1e-14)

    def test_origin_limit_matches_series(self):
        delta, t = 1.5, 2.0
        want = -t * math.exp(-t * t / (4 * delta**2)) / (
            4 * math.sqrt(2) * math.pi * delta**2)
        center, lo, hi = phi0_coherent_array(
            delta, [[t, 0.0, 0, 0], [t, 1e-8, 0, 0], [t, 1e-3, 0, 0]]).tolist()
        assert center == pytest.approx(want, rel=1e-12)
        # continuity across the series switch radius
        assert lo == pytest.approx(want, rel=1e-10)
        assert hi == pytest.approx(want, rel=1e-5)

    def test_series_matches_direct_form_below_switch(self):
        # just inside the series radius (1e-4 delta) the r^2 term is ~1e-9 of
        # the value; the direct form at 30 digits pins it
        import mpmath as mp
        delta = 1.5
        with mp.workdps(30):
            for t in (0.8, -2.0, 4.0):
                r = 0.9e-4 * delta
                tm, rm, s2 = mp.mpf(t), mp.mpf(r), mp.mpf(delta) ** 2
                want = (mp.exp(-(rm + tm) ** 2 / (4 * s2)) - mp.exp(-(rm - tm) ** 2 / (4 * s2))) / (
                    rm * 4 * mp.sqrt(2) * mp.pi)
                got = float(phi0_coherent_array(delta, [t, r, 0, 0]))
                assert got == pytest.approx(float(want), rel=1e-13)

    def test_smeared_region_against_radial_quadrature(self):
        delta, ell = 1.5, 1.0
        state = FieldState.coherent(delta)
        x = np.array([[6.0, 6.0, 0.0, 0.0], [-3.0, 8.0, 0.0, 0.0], [5.0, 0.0, 0.0, 0.0]])
        closed = kernels._region_amplitudes(state, x)
        quad = kernels._region_amplitudes_quadrature(state, ell, *kernels._time_radius(x), 1e-13)
        for c, q in zip(closed.tolist(), quad.tolist()):
            assert c == pytest.approx(q, abs=1e-12)

    def test_smeared_region_zero_at_equal_time(self):
        # region centered on the t = 0 slice: in/out Gaussians coincide
        assert region_amplitudes(FieldState.coherent(1.5), region(0.0, 4.0))[0] == 0.0


def f_mode_integral(delta, t, r):
    """F at time t and distance r > 0 from the source by the radial momentum
    integral of u_k f(k), the defining expression."""
    from scipy.integrate import quad
    c = delta**2 / (math.pi * math.sqrt(2.0) * r)
    re, _ = quad(lambda k: k * math.exp(-delta**2 * k**2 / 2)
                 * math.cos(k * t) * math.sin(k * r), 0, 40 / delta,
                 epsabs=1e-14, limit=400)
    im, _ = quad(lambda k: -k * math.exp(-delta**2 * k**2 / 2)
                 * math.sin(k * t) * math.sin(k * r), 0, 40 / delta,
                 epsabs=1e-14, limit=400)
    return complex(c * re, c * im)


class TestOneParticleF:
    def test_origin_value(self):
        # t = 0, r -> 0: F = 1 / (2 delta sqrt(pi)), purely real
        delta = 1.0
        f = complex(F_oneparticle_array(delta, ORIGIN))
        assert f.real == pytest.approx(1.0 / (2 * delta * math.sqrt(math.pi)), rel=1e-12)
        assert f.imag == pytest.approx(0.0, abs=1e-14)

    def test_t_reflection_invariance_of_hadamard_term(self):
        delta = 2.0
        fa, fb, fam, fbm = F_oneparticle_array(
            delta, [[1.0, 3.0, 0, 0], [-0.5, 1.0, 2.0, 0],
                    [-1.0, 3.0, 0, 0], [0.5, 1.0, 2.0, 0]]).tolist()
        fwd = 2 * (fa * fb.conjugate()).real
        bwd = 2 * (fam * fbm.conjugate()).real
        assert fwd == pytest.approx(bwd, rel=1e-13)

    def test_against_mode_integral(self):
        for (delta, t, r) in ((10.0, -60.0, 60.0), (1.0, 0.5, 0.7), (2.0, 3.0, 5.0)):
            want = f_mode_integral(delta, t, r)
            got = complex(F_oneparticle_array(delta, [t, r, 0, 0]))
            assert got.real == pytest.approx(want.real, abs=1e-13)
            assert got.imag == pytest.approx(want.imag, abs=1e-13)

    def test_small_r_series_consistency(self):
        # the small-r series branch must join the direct formula smoothly
        delta, t = 10.0, -60.0
        inside, outside, center = F_oneparticle_array(
            delta, [[t, 5e-3 * delta, 0, 0], [t, 2e-3 * delta, 0, 0], [t, 0.0, 0, 0]]).tolist()
        assert abs(inside - center) < 1e-4 * abs(center) + 1e-15
        assert abs(outside - center) < 1e-4 * abs(center) + 1e-15


class TestArrayKernels:
    """Batched kernels pick a branch per point: each element of one array that
    mixes every branch equals the same kernel evaluated one point at a time."""

    # (dt, dr) at beta = 1
    THERMAL = [(0.3, 2.0), (2.0, 0.5), (-1.5, 3.0),   # generic
               (0.0, 200.0), (5.0, 200.0),          # saturated, spacelike plateau
               (200.0, 0.0), (500.0, 100.0),        # saturated, timelike underflow
               (100.0, 150.0), (110.0, 100.0),      # one argument saturated
               (0.7, 0.0), (0.7, 1e-9)]             # dr -> 0 sinhc limit
    # (t, r) about the source centre, delta = 1.5: phi0 switches to its series
    # below r = 1.5e-4, F below r = 1.5e-3
    SOURCED = [(1.0, 3.0), (-2.0, 0.5), (0.4, 7.0),   # generic
               (1.0, 0.0), (-0.5, 1e-7),            # both series
               (2.0, 1e-3), (-3.0, 1.2e-3)]         # F series only

    @staticmethod
    def coords(pairs):
        return np.array([[t, 0.6 * r, 0.8 * r, 0.0] for t, r in pairs])

    def test_thermal_branches(self):
        state = FieldState.thermal(1.0)
        a = self.coords(self.THERMAL)
        got = kernels.hadamard_array(state, a, np.zeros(4))
        assert got.tolist() == [float(kernels.hadamard_array(state, p, np.zeros(4))) for p in a]
        # the second time derivatives follow the same branch masks
        got = np.array(kernels.hadamard_dtt_array(state, a, np.zeros(4))).T
        assert got.tolist() == [
            np.array(kernels.hadamard_dtt_array(state, p, np.zeros(4))).tolist() for p in a]

    def test_source_amplitude_branches(self):
        x = self.coords(self.SOURCED)
        assert kernels.phi0_coherent_array(1.5, x).tolist() == [
            float(kernels.phi0_coherent_array(1.5, p)) for p in x]
        assert kernels.F_oneparticle_array(1.5, x).tolist() == [
            complex(kernels.F_oneparticle_array(1.5, p)) for p in x]

    @pytest.mark.parametrize("state", [FieldState.coherent(1.5),
                                       FieldState.one_particle(1.5)])
    def test_sourced_hadamard_branches(self, state):
        a = self.coords(self.SOURCED)
        b = np.roll(a, 1, axis=0) + [0.0, 0.0, 0.0, 9.0]
        got = kernels.hadamard_array(state, a, b)
        assert got.tolist() == [float(kernels.hadamard_array(state, p, q))
                                for p, q in zip(a, b)]
        got = np.array(kernels.hadamard_dtt_array(state, a, b)).T
        assert got.tolist() == [np.array(kernels.hadamard_dtt_array(state, p, q)).tolist()
                                for p, q in zip(a, b)]

    @staticmethod
    def with_cloud(pairs, seed):
        # the branch points plus random (t, r): a tenth inside the series radii
        rng = np.random.default_rng(seed)
        r = rng.uniform(0.0, 10.0, 400) * np.where(rng.random(400) < 0.1, 1e-4, 1.0)
        return list(pairs) + list(zip(rng.uniform(-10.0, 10.0, 400), r))

    @pytest.mark.parametrize("state", [FieldState.vacuum(), FieldState.thermal(1.0),
                                       FieldState.coherent(1.5),
                                       FieldState.one_particle(1.5)])
    def test_value_paths_match_derivative_paths(self, state):
        # the value-only paths stop the Hermite/Dawson chains early; the
        # entries they keep are the same operations, so the values are bitwise
        if state.tag in ("vacuum", "thermal"):
            a, b = self.coords(self.with_cloud(self.THERMAL, 1)), np.zeros(4)
        else:
            a = self.coords(self.with_cloud(self.SOURCED, 2))
            b = np.roll(a, 1, axis=0) + [0.0, 0.0, 0.0, 9.0]
        got = kernels.hadamard_array(state, a, b)
        assert got.tolist() == kernels.hadamard_dtt_array(state, a, b)[0].tolist()

    def test_source_value_paths_match_derivative_paths(self):
        pairs = self.with_cloud(self.SOURCED, 3)
        delta, x = 1.5, self.coords(pairs)
        assert (kernels.phi0_coherent_array(delta, x).tolist()
                == kernels._phi0(delta, x, dtt=True)[0].tolist())
        assert (kernels.F_oneparticle_array(delta, x).tolist()
                == kernels._F(delta, x, dtt=True)[0].tolist())
        wide = math.sqrt(delta * delta + 1.0)
        assert kernels._region_amplitudes(FieldState.coherent(delta), x).tolist() == (
            delta / wide * kernels._phi0(wide, x, dtt=True)[0]).tolist()
        wide2 = delta**2 + 2.0
        assert kernels._region_amplitudes(FieldState.one_particle(delta), x).tolist() == (
            delta**2 / wide2 * kernels._F(math.sqrt(wide2), x, dtt=True)[0]).tolist()
        t, r = np.array(pairs).T
        value = kernels._gaussian_wave_pair(t, r, 2.0, dtt=True)[0]
        assert kernels._commutator(t, r).tolist() == (
            value / (8.0 * math.sqrt(2.0) * math.pi**1.5)).tolist()

    def test_lightlike_point_raises(self):
        a = self.coords([(0.3, 2.0), (1.0, 1.0)])
        with pytest.raises(LightconeSingularityError):
            kernels.hadamard_array(FieldState.vacuum(), a, np.zeros(4))


def thermal_excess(beta, dt, dr):
    """(1/(4 pi^2)) int dk e^{-2k^2} 2 n(k) cos(k dt) sin(k dr)/dr at ell = 1,
    n(k) = 1/(e^{beta k} - 1): the KMS kernel minus the vacuum one, from
    its own k <~ 1/beta range."""
    from scipy.integrate import quad

    def f(k):
        radial = math.sin(k * dr) / dr if dr > 0.0 else k
        return math.exp(-2.0 * k * k) * 2.0 / math.expm1(beta * k) * math.cos(k * dt) * radial

    return quad(f, 0.0, 60.0 / beta, epsabs=1e-18, epsrel=1e-13, limit=200)[0] / (
        4.0 * math.pi**2)


def scipy_quad(f, points=()):
    """int_0^8 f by ``scipy.integrate.quad``, real and imaginary parts apart,
    broken at ``points``, for an f of one scalar k that carries e^{-a k^2}
    with a >= 1, below 1e-27 past k = 8."""
    from scipy.integrate import quad

    points = [p for p in points if p < 8.0] or None
    re, im = (quad(g, 0.0, 8.0, points=points, epsabs=1e-15, epsrel=1e-13, limit=2000)[0]
              for g in (lambda k: f(k).real, lambda k: f(k).imag))
    return complex(re, im)


def radial(k, r):
    return math.sin(k * r) / r if r > 0.0 else k


def raw_wightman(beta, dt, dr):
    """W at ell = 1 from its radial integrand, (1/(4 pi^2)) e^{-2k^2}
    [coth(beta k/2) cos(k dt) - i sin(k dt)] sin(k dr)/dr, coth -> 1 for the
    vacuum (beta None)."""
    def f(k):
        occupation = 1.0 if beta is None else 1.0 / math.tanh(0.5 * beta * k)
        return (math.exp(-2.0 * k * k) * radial(k, dr)
                * complex(occupation * math.cos(k * dt), -math.sin(k * dt)) / (4.0 * math.pi**2))

    return scipy_quad(f, [] if beta is None else [c / beta for c in (0.01, 0.1, 1, 10, 100)])


def raw_amplitude(state, t, r):
    """A sourced state's amplitude smeared over a unit-width region at (t, r)
    from its radial integrand: phi0 = -delta/(sqrt(2 pi) pi) int e^{-(delta^2 +
    1) k^2} sin(k t) sin(k r)/r, F = delta^2/(sqrt2 pi) int k e^{-(delta^2/2 +
    1) k^2} e^{-i k t} sin(k r)/r."""
    delta = state.delta
    if state.tag == "coherent":
        return -delta / (math.sqrt(2.0 * math.pi) * math.pi) * scipy_quad(
            lambda k: math.exp(-(delta**2 + 1.0) * k * k) * math.sin(k * t) * radial(k, r)).real
    return delta**2 / (math.sqrt(2.0) * math.pi) * scipy_quad(
        lambda k: k * math.exp(-(0.5 * delta**2 + 1.0) * k * k) * radial(k, r)
        * complex(math.cos(k * t), -math.sin(k * t)))


# (dt, dr) in units of ell: equal time, equal place, dr = 1e-6, lightlike,
# |sigma| = 1e-3 next to the cone, the lattice's mixed separations, and
# |dt|, dr up to 100
ORACLE_GEOMETRIES = [(0.0, 3.0), (0.0, 100.0), (4.0, 0.0), (-100.0, 0.0), (0.0, 1e-6),
                     (2.5, 1e-6), (10.0, 10.0), (-3.0, 3.0), (10.0, math.sqrt(100.0 + 2e-3)),
                     (100.0, 100.0), (10.0, 10.0 * math.sqrt(2.0)), (3.0, 5.0),
                     (-60.0, 100.0), (100.0, 37.0)]


class TestSmearedOracle:
    @pytest.mark.parametrize("state", [
        FieldState.vacuum(), FieldState.thermal(0.3), FieldState.thermal(1.0),
        FieldState.thermal(5.0), FieldState.thermal(50.0), FieldState.thermal(1e4),
        FieldState.coherent(1.5), FieldState.one_particle(2.0)],
        ids=["vacuum", "beta0.3", "beta1", "beta5", "beta50", "beta1e4", "coherent",
             "one_particle"])
    def test_closed_matches_quadrature_everywhere(self, state):
        # both parts within 1e-10 of the state's diagonal kernel Re W(L, L);
        # the one-pass array quadrature of every geometry within its tol of
        # the oracle's real part
        anchor = GaussianRegion(Event(-1.5, 2.0, 0.0, 0.0), 1.0)
        diag = wightman_smeared_quadrature(state, anchor, anchor, 1e-12).real
        c = anchor.center
        others = [GaussianRegion(Event(c.t + dt, c.x + 0.6 * dr, c.y + 0.8 * dr, 0.0), 1.0)
                  for dt, dr in [(0.0, 0.0)] + ORACLE_GEOMETRIES]
        one_pass = kernels._smeared_quadrature(
            state, 1.0, np.array([ri.center.coords() for ri in others]),
            np.tile(c.coords(), (len(others), 1)), 1e-12)
        for ri, re_array, (dt, dr) in zip(others, one_pass, [(0.0, 0.0)] + ORACLE_GEOMETRIES):
            wc = wightman_smeared_closed(state, ri, anchor)
            wq = wightman_smeared_quadrature(state, ri, anchor, 1e-12)
            assert abs(wc.real - wq.real) <= 1e-10 * diag, (dt, dr)
            assert abs(wc.imag - wq.imag) <= 1e-10 * diag, (dt, dr)
            assert abs(re_array - wq.real) <= 1e-12, (dt, dr)

    @pytest.mark.parametrize("state, calls", [
        (FieldState.vacuum(), 1), (FieldState.thermal(50.0), 1),
        (FieldState.coherent(1.5), 2), (FieldState.one_particle(2.0), 2)],
        ids=["vacuum", "beta50", "coherent", "one_particle"])
    def test_every_quadrature_goes_through_one_integrator(self, state, calls, monkeypatch):
        # the two-point integral (the KMS one with its knots at multiples of
        # 1/beta), then one pass over both region amplitudes of a sourced state
        seen = []

        def counted(f, tol, decay_scale, osc_scale, knots=()):
            seen.append(list(knots))
            return integrate(f, tol, decay_scale, osc_scale, knots)

        integrate = kernels.integrate_semi_infinite
        ri, rj = region(2.0, 5.0), region(-1.0, 0.5)
        want = wightman_smeared_quadrature(state, ri, rj, 1e-10)
        monkeypatch.setattr(kernels, "integrate_semi_infinite", counted)
        assert wightman_smeared_quadrature(state, ri, rj, 1e-10) == want
        assert len(seen) == calls
        knots = [c / state.beta for c in kernels._KMS_KNOTS] if state.beta else []
        assert seen[0] == knots
        assert all(k == [] for k in seen[1:])

    @pytest.mark.parametrize("state", [FieldState.coherent(1.5), FieldState.one_particle(2.0)],
                             ids=["coherent", "one_particle"])
    def test_region_amplitudes_match_quadrature(self, state):
        # centres on the source (r = 0), on its t = 0 slice, next to its
        # lightcone r = |t| and generic, at unit width
        x = np.array([[0.0, 0.0, 0.0, 0.0], [3.0, 0.0, 0.0, 0.0], [-8.0, 1e-7, 0.0, 0.0],
                      [0.0, 4.0, 0.0, 0.0], [0.0, 1.2, -0.5, 2.0], [6.0, 6.0, 0.0, 0.0],
                      [6.0, 6.0 + 1e-9, 0.0, 0.0], [-5.0, 3.0, 4.0, 0.0],
                      [2.0, 0.3, 0.0, 0.0], [12.0, -7.0, 3.0, 1.0]])
        closed = kernels._region_amplitudes(state, x)
        quad = kernels._region_amplitudes_quadrature(state, 1.0, *kernels._time_radius(x), 1e-13)
        assert np.max(np.abs(closed - quad)) <= 1e-12

    @pytest.mark.parametrize("beta", [None, 0.3, 50.0, 1e4],
                             ids=["vacuum", "beta0.3", "beta50", "beta1e4"])
    def test_oracle_matches_scipy_quad(self, beta):
        # an independent reference: scipy's quad of the raw integrand
        state = FieldState.vacuum() if beta is None else FieldState.thermal(beta)
        for dt, dr in [(0.0, 3.0), (4.0, 0.0), (0.0, 1e-6), (10.0, 10.0), (3.0, 5.0),
                       (-60.0, 100.0)]:
            wq = wightman_smeared_quadrature(state, region(dt, dr), region(0, 0), 1e-12)
            assert abs(wq - raw_wightman(beta, dt, dr)) <= 2e-12, (dt, dr)

    @pytest.mark.parametrize("state", [FieldState.coherent(1.5), FieldState.one_particle(2.0)],
                             ids=["coherent", "one_particle"])
    def test_sourced_oracle_matches_scipy_quad(self, state):
        # the vacuum integral plus the source term of both raw amplitudes
        ri, rj = region(2.0, 5.0), region(-1.0, 0.5)
        amp_i, amp_j = raw_amplitude(state, 2.0, 5.0), raw_amplitude(state, -1.0, 0.5)
        if state.tag == "coherent":
            source = amp_i * amp_j
        else:
            source = 2.0 * (amp_i * amp_j.conjugate()).real
        want = raw_wightman(None, 3.0, 4.5) + source
        assert abs(wightman_smeared_quadrature(state, ri, rj, 1e-12) - want) <= 2e-12

    def test_image_count_capped(self):
        # beta/ell ~ 1e-4 would need ~3e6 KMS images: refused before any work
        with pytest.raises(CapacityError, match="KMS images"):
            wightman_smeared_closed(FieldState.thermal(1e-4), region(0, 5), region(0, 0))

    def test_image_count_capped_down_to_the_length_bound(self):
        # the image count takes r^5, r = 2/beta^2: at beta = 1e-30 it used to
        # overflow (OverflowError, then math.ceil(inf)); every beta from the
        # cap down to the config's bound, and below it, is a CapacityError
        dt, dr = np.array([0.0, 3.0]), np.array([5.0, 0.0])
        for beta in [*np.geomspace(1e-4, 1.0 / config.LENGTH_BOUND, 53).tolist(), 1e-70, 1e-300]:
            with pytest.raises(CapacityError, match="KMS images"):
                kernels._smeared_real(beta, dt, dr)
        with pytest.raises(CapacityError, match="KMS images"):
            wightman_smeared_closed(FieldState.thermal(1e-70), region(0, 5), region(0, 0))

    def test_closed_vs_quadrature_spatial(self):
        vac = FieldState.vacuum()
        for s in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
            wc = wightman_smeared_closed(vac, region(0, s), region(0, 0))
            wq = wightman_smeared_quadrature(vac, region(0, s), region(0, 0), 1e-12)
            assert abs(wc - wq) <= max(1e-8 * abs(wc), 1e-12)

    def test_closed_vs_quadrature_temporal(self):
        vac = FieldState.vacuum()
        for s in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0):
            wc = wightman_smeared_closed(vac, region(s, 0), region(0, 0))
            wq = wightman_smeared_quadrature(vac, region(s, 0), region(0, 0), 1e-12)
            assert abs(wc - wq) <= max(1e-8 * abs(wc), 1e-12)

    def test_imaginary_part_vanishes_at_equal_time(self):
        w = wightman_smeared_quadrature(FieldState.vacuum(), region(0, 3), region(0, 0),
                                        1e-12)
        assert abs(w.imag) < 1e-12

    def test_thermal_large_beta_matches_vacuum_oracle(self):
        # close to the vacuum, and above it by the thermal excess (about
        # 1/(12 beta^2) = 8.3e-10 at dt = 0), which lives at k <~ 1/beta
        cold = FieldState.thermal(1e4)
        vac = FieldState.vacuum()
        for (t, x) in ((0.0, 3.0), (2.0, 5.0)):
            wt = wightman_smeared_quadrature(cold, region(t, x), region(0, 0), 1e-12)
            wv = wightman_smeared_quadrature(vac, region(t, x), region(0, 0), 1e-12)
            assert abs(wt - wv) <= 1e-5 * abs(wv)
            assert abs((wt - wv).real - thermal_excess(1e4, t, x)) <= 1e-15
            assert abs((wt - wv).imag) <= 1e-12

    @pytest.mark.parametrize("beta", [1e4, 1e5])
    def test_thermal_oracle_large_beta_matches_mpmath(self, beta):
        # both quadrature routes resolve the k ~ 1/beta range; the mpmath
        # integral splits at the same scale independently
        import mpmath as mp

        mp.mp.dps = 30
        geometries = [(0.0, 3.0), (2.0, 5.0), (4.0, 0.0), (0.0, 0.0)]
        splits = [mp.mpf(c) / beta for c in (0.01, 0.1, 1, 10, 100)] + [1, 2, 4, 8, mp.inf]
        want = []
        for dt, dr in geometries:
            def f(k):
                radial = mp.sin(k * dr) / dr if dr else k
                return (mp.exp(-2 * k * k) * mp.coth(beta * k / 2) * mp.cos(k * dt) * radial
                        / (4 * mp.pi**2))
            want.append(float(mp.quad(f, [0] + splits)))
        state = FieldState.thermal(beta)
        one_pass = kernels._smeared_quadrature(
            state, 1.0, np.array([[dt, dr, 0.0, 0.0] for dt, dr in geometries]),
            np.zeros((len(geometries), 4)), 1e-12)
        for (dt, dr), w, re_array in zip(geometries, want, one_pass):
            wq = wightman_smeared_quadrature(state, region(dt, dr), region(0, 0), 1e-12)
            assert abs(wq.real - w) <= 1e-12, (dt, dr)
            assert abs(re_array - w) <= 1e-12, (dt, dr)
            assert abs(wightman_smeared_closed(state, region(dt, dr), region(0, 0)).real
                       - w) <= 1e-12, (dt, dr)

    def test_closed_unavailable_cases(self):
        # the three cases that had no closed form while only dt = 0 or dr = 0
        # vacuum pairs were closed
        for state, ri in ((FieldState.thermal(50.0), region(0, 5)),
                          (FieldState.one_particle(1.0), region(0, 5)),
                          (FieldState.vacuum(), region(3, 5))):
            wc = wightman_smeared_closed(state, ri, region(0, 0))
            wq = wightman_smeared_quadrature(state, ri, region(0, 0), 1e-12)
            assert isinstance(wc, complex)
            assert abs(wc - wq) <= max(1e-8 * abs(wc), 1e-12)

    def test_closed_small_separation_limit(self):
        # s -> 0 of the equal-time form tends to 1/(16 pi^2 ell^2)
        vac = FieldState.vacuum()
        limit = 1.0 / (16 * math.pi**2)
        assert wightman_smeared_closed(vac, region(0, 0), region(0, 0)).real == (
            pytest.approx(limit, rel=1e-14))
        small = wightman_smeared_closed(vac, region(0, 1e-7), region(0, 0)).real
        assert small == pytest.approx(limit, rel=1e-13)

    def test_closed_matches_pointlike_at_large_separation(self):
        vac = FieldState.vacuum()
        s = 30.0
        wc = wightman_smeared_closed(vac, region(0, s), region(0, 0)).real
        point = 1.0 / (4 * math.pi**2 * s * s)
        assert wc == pytest.approx(point * (1 + 4 / s**2), rel=1e-4)

    def test_coherent_closed_additivity(self):
        coh = FieldState.coherent(1.5)
        vac = FieldState.vacuum()
        ri, rj = region(0, 8), region(0, 0)
        wc = wightman_smeared_closed(coh, ri, rj)
        wv = wightman_smeared_closed(vac, ri, rj)
        prod = np.prod(region_amplitudes(coh, ri, rj))
        assert wc - wv == pytest.approx(prod, abs=1e-15)

    def test_coherent_quadrature_additivity(self):
        # independent quadratures must also reproduce the additivity
        coh = FieldState.coherent(1.5)
        vac = FieldState.vacuum()
        ri, rj = region(2.0, 8.0), region(0, 0)
        wc = wightman_smeared_quadrature(coh, ri, rj, 1e-12)
        wv = wightman_smeared_quadrature(vac, ri, rj, 1e-12)
        prod = np.prod(region_amplitudes(coh, ri, rj))
        assert (wc - wv).real == pytest.approx(prod, abs=1e-10)

    @pytest.mark.parametrize("entry", [
        lambda ri, rj: wightman_smeared_quadrature(FieldState.vacuum(), ri, rj, 1e-10),
        lambda ri, rj: wightman_smeared_closed(FieldState.vacuum(), ri, rj)],
        ids=["wightman_smeared_quadrature", "wightman_smeared_closed"])
    def test_width_mismatch_rejected(self, entry):
        with pytest.raises(ValueError, match="same width"):
            entry(region(0, 5, ell=1.0), region(0, 0, ell=2.0))


def image_tail_per_term(beta, a, dt, dr, n):
    """``kernels._image_tail`` one (k, j) term at a time: the reference its
    stacked sums must match bit for bit."""
    a, dr, zeta = a / beta / beta, dr / beta, dt / beta + 1j * n
    den = zeta * zeta - dr * dr
    q = [1.0 / den, -2.0 * zeta / den**2]
    for k in range(2, 2 * kernels._HEAT_ORDER + 2 * len(kernels._EULER_MACLAURIN)):
        q.append(-(2.0 * k * zeta * q[k - 1] + k * (k - 1) * q[k - 2]) / den)
    heat = [a**j / math.factorial(j) for j in range(kernels._HEAT_ORDER + 1)]
    f = [(-2.0 * 1j**k * sum(c * q[2 * j + k] for j, c in enumerate(heat))).real
         for k in range(2 * len(kernels._EULER_MACLAURIN))]
    t = dr / zeta
    tiny = np.abs(t) < 1e-8
    artanh = np.where(tiny, 1.0 + t * t / 3.0, np.arctanh(np.where(tiny, 0.5, t))
                      / np.where(tiny, 0.5, t)) / zeta
    g = 2.0 * artanh - 2.0 * sum(c * q[2 * j - 1] for j, c in enumerate(heat) if j)
    total = (1j * g).real - 0.5 * f[0] - sum(c * f[2 * k + 1]
                                             for k, c in enumerate(kernels._EULER_MACLAURIN))
    return total / beta / beta


class TestImageTail:
    """The KMS image tail's heat-flow and Euler-Maclaurin terms, summed as
    one stacked array op per heat order, against the per-term sums."""

    @pytest.mark.parametrize("shape", [(), (17,), (3, 5)], ids=["0d", "1d", "2d"])
    @pytest.mark.parametrize("seed", range(4))
    def test_stacked_sums_match_per_term_bitwise(self, shape, seed):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            beta = float(np.exp(rng.uniform(math.log(0.5), math.log(500.0))))
            n = int(rng.integers(1, 61))
            dt = np.where(rng.uniform(size=shape) < 0.3, 0.0,
                          np.abs(rng.uniform(-40.0, 40.0, shape)))
            zeta = np.abs(dt / beta + 1j * n)
            # dr = 0, dr far below zeta (the artanh series), and dr of order dt
            dr = rng.choice(np.array([0.0, 1.0, 1.0]), size=shape) * rng.uniform(0.0, 40.0, shape)
            small = rng.uniform(size=shape) < 0.3
            dr = np.where(small, beta * zeta * rng.uniform(0.0, 1e-8, shape), dr)
            got = kernels._image_tail(beta, dt, dr, n)
            want = image_tail_per_term(beta, 2.0, dt, dr, n)
            assert np.shape(got) == np.shape(want) == shape
            assert_bitwise(got, want)

    @pytest.mark.parametrize("wrap", [np.float64, np.asarray], ids=["scalar", "0d-array"])
    def test_zero_dimensional_inputs(self, wrap):
        # wightman_smeared_closed takes one pair, so _smeared_real passes
        # the tail numpy scalars (0-d after np.abs)
        rng = np.random.default_rng(11)
        for beta in (0.3, 0.5, 2.0, 47.0, 500.0):
            for dt, dr in ((0.0, 0.0), (3.0, 0.0), (0.0, 4.5), (2.5, 7.25),
                           (1.0, 1e-9 * beta), tuple(rng.uniform(0.0, 30.0, 2))):
                for n in (1, 7, 60):
                    args = (wrap(dt), wrap(dr), n)
                    got = kernels._image_tail(beta, *args)
                    want = image_tail_per_term(beta, 2.0, *args)
                    assert type(got) is type(want)
                    assert_bitwise(got, want)


class TestSmearedQuadratureArray:
    """The one-pass pair quadrature behind the scans' quadrature column and
    the oracle: the Re pass of a whole scan against the complex pass of one
    pair at tol 1e-12, and the complex pass of many pairs against scipy's
    quad of the raw integrand."""

    @pytest.mark.parametrize("state, anchor", [
        (FieldState.thermal(0.3), (1.3, -2.2)), (FieldState.thermal(5.0), (1.3, -2.2)),
        (FieldState.thermal(50.0), (1.3, -2.2)), (FieldState.thermal(1e4), (1.3, -2.2)),
        (FieldState.coherent(1.5), (6.0, -6.0)), (FieldState.one_particle(10.0), (-60.0, -60.0))],
        ids=["beta0.3", "beta5", "beta50", "beta1e4", "coherent", "one_particle"])
    def test_scan_through_anchor_matches_oracle(self, state, anchor):
        # temporal (dr = 0) and spatial points on both sides of the anchor,
        # the anchor itself, and |sigma| = 1e-3 next to its lightcone
        a = Event(*anchor, 0.0, 0.0)
        others = [Event(a.t + s, a.x, 0.0, 0.0) for s in (-12.0, -3.0, -0.5, 0.5, 6.0)]
        others += [Event(a.t, a.x + s, 0.0, 0.0) for s in (-12.0, -0.5, 0.0, 0.5, 3.0, 12.0)]
        others.append(Event(a.t + 10.0, a.x + math.sqrt(100.0 + 2e-3), 0.0, 0.0))
        itv = intervals(np.array([b.coords() for b in others]), a.coords())
        assert np.any((itv.dr == 0.0) & (itv.dt != 0.0))
        assert np.min(np.abs(itv.sigma[itv.sigma != 0.0])) == pytest.approx(1e-3, rel=1e-9)
        one_pass = kernels._smeared_quadrature(
            state, 1.0, np.tile(a.coords(), (len(others), 1)),
            np.array([b.coords() for b in others]), 1e-12)
        for b, re_array in zip(others, one_pass):
            wq = wightman_smeared_quadrature(state, GaussianRegion(a, 1.0),
                                             GaussianRegion(b, 1.0), 1e-12)
            assert abs(re_array - wq.real) <= 1e-12, b

    @pytest.mark.parametrize("beta", [None, 0.3, 50.0, 1e4],
                             ids=["vacuum", "beta0.3", "beta50", "beta1e4"])
    def test_complex_pass_matches_scipy_quad(self, beta):
        # coincident, dr = 0, dt = 0 and general pairs, dt of both signs, in
        # one pass; both parts against scipy's quad of the raw integrand
        state = FieldState.vacuum() if beta is None else FieldState.thermal(beta)
        steps = [(0.0, 0.0), (4.0, 0.0), (-4.0, 0.0), (0.0, 3.0), (0.0, 1e-6), (3.0, 5.0),
                 (-3.0, 5.0), (10.0, 10.0), (-60.0, 100.0)]
        a = np.array([[dt, dr, 0.0, 0.0] for dt, dr in steps])
        got = kernels._smeared_quadrature(state, 1.0, a, np.zeros_like(a), 1e-12, imag=True)
        for (dt, dr), w in zip(steps, got):
            want = raw_wightman(beta, dt, dr)
            assert abs(w.real - want.real) <= 2e-12, (dt, dr)
            assert abs(w.imag - want.imag) <= 2e-12, (dt, dr)

    @pytest.mark.parametrize("beta", [None, 0.3, 50.0])
    def test_trivial_factors_skipped_bit_for_bit(self, beta):
        # coincident, temporal, spatial and general pairs in mixed order: the
        # pass takes cos(k dt) and sin(k dt) only where dt != 0 and
        # sin(k dr)/dr only where dr != 0, and gives the bits of the
        # integrand that takes them everywhere; Re W to the byte, the complex
        # W up to the sign of a zero imaginary part
        from udwtomo.numerics import integrate_semi_infinite

        state = FieldState.vacuum() if beta is None else FieldState.thermal(beta)
        steps = [(3.0, 0.0), (0.0, 2.5), (0.0, 0.0), (4.0, 1.5), (-6.0, 0.0), (0.0, 9.0),
                 (-2.0, 7.0), (0.5, 0.0), (0.0, 0.0), (0.0, -0.5)]
        a = np.tile(Event(1.3, -2.2, 0.0, 0.0).coords(), (len(steps), 1))
        b = a + np.array([[dt, dx, 0.0, 0.0] for dt, dx in steps])
        itv = intervals(a, b)
        radial = kernels._radial_factors(itv.dr)
        knots = [c / beta for c in kernels._KMS_KNOTS] if beta is not None else ()
        osc = float(np.max(itv.dr + np.abs(itv.dt))) + 1.0

        for imag in (False, True):
            def f(k):
                w0 = np.exp(-2.0 * k * k) / (4.0 * math.pi**2)
                w = w0 if beta is None else w0 * kernels._coth(0.5 * beta * k)
                k = k[:, None]
                out = w[:, None] * np.cos(k * itv.dt)
                if imag:
                    out = out - 1j * (w0[:, None] * np.sin(k * itv.dt))
                return out * radial(k)

            want = integrate_semi_infinite(f, 1e-10, 2.0, osc, knots).value
            got = kernels._smeared_quadrature(state, 1.0, a, b, 1e-10, imag=imag)
            if imag:
                assert got.dtype == complex and np.array_equal(got, want)
            else:
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("state", [FieldState.coherent(1.5), FieldState.one_particle(2.0)],
                             ids=["coherent", "one_particle"])
    def test_sourced_scan_takes_two_integrator_calls(self, state, monkeypatch):
        # 40 pairs over 41 distinct regions: one pass over the pairs' vacuum
        # integrals, one over the regions' amplitudes
        seen = []

        def counted(f, tol, decay_scale, osc_scale, knots=()):
            seen.append(decay_scale)
            return integrate(f, tol, decay_scale, osc_scale, knots)

        integrate = kernels.integrate_semi_infinite
        monkeypatch.setattr(kernels, "integrate_semi_infinite", counted)
        s = np.linspace(-12.0, 12.0, 40)
        a = np.tile([1.3, -2.2, 0.0, 0.0], (len(s), 1))
        b = a + np.stack([0.3 * s, s, 0.5 * s, np.zeros_like(s)], axis=1)
        out = kernels._smeared_quadrature(state, 1.0, a, b, 1e-10)
        assert out.shape == (40,) and np.all(np.isfinite(out))
        assert len(seen) == 2 and seen[0] == 2.0


class TestCommutatorAndRetarded:
    """The closed commutator E(dt, dr) that assembly evaluates, and the
    retarded part GR that assembly reads off from it."""

    def test_zero_at_equal_time(self):
        assert kernels._commutator(0.0, 5.0) == 0.0
        km = assemble_kernels(FieldState.vacuum(), points((0, 5), (0, 0)), 1.0)
        assert km.GR[0, 1] == km.GR[1, 0] == 0.0

    def test_spacelike_tail_bound(self):
        dt, dr = 2.0, 12.0
        e = float(kernels._commutator(dt, dr))
        assert abs(e) <= math.exp(-((dr - abs(dt)) ** 2) / 8.0)

    def test_matches_2_im_quadrature(self):
        vac = FieldState.vacuum()
        geometries = [(10.0, 10.0), (3.0, 2.0), (-6.0, 4.0), (5.0, 0.0)]
        dt, dr = np.array(geometries).T
        for (t, x), e in zip(geometries, kernels._commutator(dt, dr).tolist()):
            w = wightman_smeared_quadrature(vac, region(t, x), region(0, 0), 1e-12)
            assert e == pytest.approx(2.0 * w.imag, abs=1e-8 * max(abs(e), 1e-4))

    def test_antisymmetry(self):
        a, b = region(7.0, 3.0).center.coords(), region(-1.0, -2.0).center.coords()
        itv = intervals([a, b], [b, a])
        e_ab, e_ba = kernels._commutator(itv.dt, itv.dr).tolist()
        assert e_ab == pytest.approx(-e_ba, rel=1e-15)

    def test_retarded_time_order(self):
        km = assemble_kernels(FieldState.vacuum(), points((0, 0), (10.0, 10.0)), 1.0)
        assert km.GR[1, 0] == kernels._commutator(10.0, 10.0)
        assert km.GR[0, 1] == 0.0


class TestAssemble:
    def test_single_region_vacuum(self):
        lam = 2.0
        km = assemble_kernels(FieldState.vacuum(), points((0, 0)), lam)
        assert km.H[0, 0] == pytest.approx(lam**2 / (8 * math.pi**2), rel=1e-14)
        assert km.E[0, 0] == 0.0
        assert km.GR[0, 0] == 0.0

    def test_two_spacelike_regions(self):
        km = assemble_kernels(FieldState.vacuum(), points((0, 0), (0, 12)), 1.0)
        assert abs(km.E[0, 1]) <= math.exp(-144.0 / 8.0)
        KernelMatrix(H=km.H, GR=km.GR)

    def test_identities_exact(self):
        km = assemble_kernels(FieldState.vacuum(), points((0, 0), (10, 10), (10, 0), (20, 5)),
                              2 * math.pi)
        assert np.array_equal(km.E, km.GR - km.GR.T)
        # antisymmetric bit for bit off the diagonal, signed zeros included
        off = ~np.eye(4, dtype=bool)
        assert np.array_equal(np.signbit(km.E)[off], np.signbit(-km.E.T)[off])
        assert np.array_equal(km.Delta, km.GR + km.GR.T)
        assert np.array_equal(km.H, km.H.T)

    def test_e_consistent_with_quadrature(self):
        km = assemble_kernels(FieldState.vacuum(), points((0, 0), (10, 10)), 1.0)
        w = wightman_smeared_quadrature(FieldState.vacuum(), region(0, 0), region(10, 10),
                                        1e-12)
        assert km.E[0, 1] == pytest.approx(2 * w.imag, abs=1e-8)

    def test_thermal_assembly(self):
        centers = points((0, 0), (0, 10), (10, 0))
        km = assemble_kernels(FieldState.thermal(50.0), centers, 1.0)
        KernelMatrix(H=km.H, GR=km.GR)
        assert km.H[0, 0] > 0
        # thermal local noise exceeds the vacuum one
        kv = assemble_kernels(FieldState.vacuum(), centers, 1.0)
        assert km.H[0, 0] > kv.H[0, 0]

    def test_rejects_non_quasifree(self):
        with pytest.raises(ValueError):
            assemble_kernels(FieldState.coherent(1.0), points((0, 0)), 1.0)
        with pytest.raises(ValueError):
            assemble_kernels(FieldState.one_particle(1.0), points((0, 0)), 1.0)

    @pytest.mark.parametrize("ell", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_width(self, ell):
        # the assembly takes its centres in units of ell, so a lattice's width
        # is refused by its config, before any assembly, and a one-pair
        # region's by GaussianRegion
        with pytest.raises(ConfigError) as exc:
            validate_config({"scenario_id": "tomography_roundtrip", "ell": ell})
        assert exc.value.field == "ell"
        with pytest.raises(ValueError, match="ell must be positive and finite"):
            GaussianRegion(O, ell)

    @pytest.mark.parametrize("centers", [
        np.zeros((0, 4)), np.zeros(4), np.zeros((2, 3)), np.zeros((2, 4, 1)),
        points((0, 0), (math.nan, 10)), points((0, 0), (0, -math.inf))],
        ids=["empty", "one-row", "three-columns", "three-axes", "nan", "inf"])
    def test_rejects_centers(self, centers):
        with pytest.raises(ValueError, match=re.escape("non-empty finite (n, 4) array")):
            assemble_kernels(FieldState.vacuum(), centers, 1.0)

    @pytest.mark.parametrize("state, layout", [
        (FieldState.thermal(50.0), "lattice"),
        (FieldState.vacuum(), "lattice"),
        (FieldState.thermal(50.0), "shuffled"),
        (FieldState.vacuum(), "far"),
        (FieldState.thermal(43.073227), "ulp"),
    ], ids=["thermal", "vacuum", "thermal-shuffled", "vacuum-far", "thermal-ulp"])
    def test_matches_per_pair_reference_bitwise(self, state, layout):
        if layout == "far":
            # commutators that underflow to zero on both sides of dt
            centers = points((0, 0), (10, 200), (-10, 400), (5, 600))
        elif layout == "ulp":
            # no coordinate of the origin is round, so pairs of one physical
            # geometry differ in the last bits of dt or dr: 27 exact-float
            # geometries where rounding leaves 19, each a key of its own
            centers = lattice_centers(Event(-3.306967, 0.059643, 1.581189, 2.675809))
            pairs = pair_intervals(centers)
            exact = set(zip(np.abs(pairs.dt).tolist(), pairs.dr.tolist()))
            rounded = {(round(dt, 9), round(dr, 9)) for dt, dr in exact}
            assert (len(exact), len(rounded)) == (27, 19)
        else:
            centers = lattice_centers(Event(1.234567, -3.5, 2.25, 0.1))
        if layout != "lattice":
            centers = shuffled(centers, 3)
            # upper-triangle pairs now carry both signs of dt
            dts = pair_intervals(centers).dt
            assert dts.min() < 0.0 < dts.max()
        km = assemble_kernels(state, centers, 2 * math.pi)
        H, GR = per_pair_reference(state, centers, 2 * math.pi)
        assert_bitwise(km.H, H)
        assert_bitwise(km.GR, GR)
        assert_bitwise(km.E, KernelMatrix(H, GR).E)

    @pytest.mark.parametrize("spacing, origin", [
        (3.3, Event(-3.306967, 0.059643, 1.581189, 2.675809)),
        (45.0, Event(1.234567, -3.5, 2.25, 0.1)),
    ], ids=["3.3ell", "45ell"])
    def test_retarded_part_matches_per_pair_commutator(self, spacing, origin):
        # a shuffled 4^3 x 3 lattice, so upper-triangle pairs i < j carry
        # both signs of dt: G_R_ij is E at the pair's own dt where dt > 0,
        # and G_R_ji is -E where dt < 0, bit for bit.  At 45 ell the far
        # pairs' Gaussians both underflow and E is an exact zero, whose past
        # side is -0
        centers = build_lattice(LatticeSpec(4, 3, spacing, spacing, origin))
        centers = shuffled(centers, 5)
        km = assemble_kernels(FieldState.thermal(43.07), centers, 2 * math.pi)
        pairs = pair_intervals(centers)
        e = (2 * math.pi) ** 2 * kernels._commutator(pairs.dt, pairs.dr)
        iu, ju = np.triu_indices(len(centers), 1)
        fut, past = pairs.dt > 0.0, pairs.dt < 0.0
        GR = np.zeros_like(km.GR)
        GR[iu[fut], ju[fut]] = e[fut]
        GR[ju[past], iu[past]] = -e[past]
        assert_bitwise(km.GR, GR)
        assert fut.any() and past.any()
        if spacing == 45.0:
            assert np.count_nonzero(e[fut] == 0.0) and np.count_nonzero(e[past] == 0.0)

    @pytest.mark.parametrize("shuffle", [False, True], ids=["ordered", "shuffled"])
    def test_one_evaluation_per_distinct_geometry(self, monkeypatch, shuffle):
        centers = lattice_centers()
        if shuffle:
            centers = shuffled(centers, 3)
        calls, commutator_calls = [], []
        real, commutator = kernels._smeared_real, kernels._commutator

        def counting(beta, dt, dr):
            calls.append(list(zip(np.abs(dt).tolist(), np.asarray(dr).tolist())))
            return real(beta, dt, dr)

        def counting_commutator(dt, dr):
            commutator_calls.append(list(zip(np.asarray(dt).tolist(), np.asarray(dr).tolist())))
            return commutator(dt, dr)

        monkeypatch.setattr(kernels, "_smeared_real", counting)
        monkeypatch.setattr(kernels, "_commutator", counting_commutator)
        assemble_kernels(FieldState.vacuum(), centers, 1.0)
        pairs = pair_intervals(centers)
        geometries = set(zip(np.abs(pairs.dt).tolist(), pairs.dr.tolist()))
        assert len(pairs.dt) == 1431
        assert len(geometries) == 19
        # one array call each: each off-diagonal geometry once, and the
        # diagonal's (0, 0); the commutator at dt = |dt| >= 0, on the same
        # geometries as Re W
        assert len(calls) == 1
        assert len(calls[0]) == 20
        assert set(calls[0]) == geometries | {(0.0, 0.0)}
        assert commutator_calls == calls

    def test_validate_rejects_asymmetric_h(self):
        km = assemble_kernels(FieldState.vacuum(), points((0, 0), (10, 10)), 1.0)
        H = km.H.copy()
        H[0, 1] += 1.0
        with pytest.raises(ValueError, match="H symmetric"):
            KernelMatrix(H=H, GR=km.GR)

    def test_construction_refuses_invalid_matrices(self):
        # a hand-built matrix is checked as an assembled one is, so the
        # correlator table never reads one triangle of an asymmetric H and no
        # shape mismatch surfaces later as a broadcast error
        with pytest.raises(ValueError, match="H symmetric"):
            KernelMatrix(H=np.array([[0.5, 0.1], [0.3, 0.5]]), GR=np.zeros((2, 2)))
        with pytest.raises(ValueError, match=re.escape("H (4, 4) and GR (3, 3)")):
            KernelMatrix(H=0.5 * np.eye(4), GR=np.zeros((3, 3)))
        # a NaN fails no comparison and max(1.0, nan) is 1.0, so these passed
        for H, GR in (([[0.5, np.nan], [np.nan, 0.5]], np.zeros((2, 2))),
                      (0.5 * np.eye(2), [[0.0, 0.0], [np.inf, 0.0]]),
                      (np.full((2, 2), np.nan), np.full((2, 2), np.nan))):
            with pytest.raises(ValueError, match="must be finite"):
                KernelMatrix(H=np.array(H), GR=np.array(GR))

    def test_n_and_shapes(self):
        # n is the size of H; construction refuses H and GR that are not
        # square matrices of one shape before any array work broadcasts them
        assert KernelMatrix(H=0.5 * np.eye(3), GR=np.zeros((3, 3))).n == 3
        for H, GR in ((0.5 * np.eye(3), np.zeros((4, 4))),
                      (0.5 * np.eye(4), np.zeros((4, 3))),
                      (np.zeros((3, 4)), np.zeros((3, 4))),
                      (np.zeros(3), np.zeros(3))):
            with pytest.raises(ValueError, match=re.escape(f"H {H.shape} and GR {GR.shape}")):
                KernelMatrix(H=H, GR=GR)


class TestLimits:
    def test_thermal_to_vacuum_rate(self):
        # pointwise convergence with observed O((s/beta)^2) rate
        from udwtomo.numerics import fit_loglog_slope
        dr = 1.0
        a = [0, dr, 0, 0]
        vac = float(hadamard_array(FieldState.vacuum(), a, ORIGIN))
        pts = []
        for beta in (50.0, 100.0, 200.0, 400.0, 800.0):
            th = float(hadamard_array(FieldState.thermal(beta), a, ORIGIN))
            pts.append((dr / beta, abs(th - vac) / vac))
        fit = fit_loglog_slope(pts)
        assert fit.slope == pytest.approx(2.0, abs=0.1)

    def test_smeared_to_pointlike_spatial_bound(self):
        # relative deviation <= 5 (ell/s)^2 on the equal-time branch
        vac = FieldState.vacuum()
        for s in (10.0, 12.5, 16.0, 20.0):
            w = wightman_smeared_closed(vac, region(0, s), region(0, 0)).real
            p = float(hadamard_array(vac, [0, s, 0, 0], ORIGIN))
            assert abs(w - p) / abs(p) <= 5.0 / s**2

    def test_smeared_to_pointlike_temporal_coefficient(self):
        # the equal-position branch carries the coefficient 12, not 5: the
        # quadrupole trace contributes 12 ell^2/dt^2 there, which the closed
        # form reproduces up to its higher orders (+ 240/s^2 + ...)
        vac = FieldState.vacuum()
        for s in (10.0, 16.0, 20.0):
            w = wightman_smeared_closed(vac, region(s, 0), region(0, 0)).real
            p = float(hadamard_array(vac, [s, 0, 0, 0], ORIGIN))
            rel = abs(w - p) / abs(p)
            assert 12.0 / s**2 <= rel <= (12.0 + 400.0 / s**2) / s**2
