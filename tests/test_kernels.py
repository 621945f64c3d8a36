"""Pointlike and smeared two-point kernels for the four field states.

The momentum-space quadrature route is the independent oracle throughout;
closed forms are validated against it rather than against themselves.
"""

import math
import random
import warnings

import numpy as np
import pytest

from udwtomo import kernels
from udwtomo.errors import CapacityError, LightconeSingularityError, PrecisionWarning
from udwtomo.kernels import (FieldState, KernelMatrix, assemble_kernels,
                             commutator_smeared, hadamard_point, phi0_coherent,
                             phi0_coherent_region, F_oneparticle, retarded_smeared,
                             wightman_smeared_closed, wightman_smeared_quadrature)
from udwtomo.smearing import GaussianRegion
from udwtomo.spacetime import (Event, LatticeSpec, build_lattice, interval,
                               intervals)

O = Event(0.0, 0.0, 0.0, 0.0)


def region(t, x, ell=1.0):
    return GaussianRegion(Event(t, x, 0.0, 0.0), ell)


def lattice_regions(origin=O, ell=1.0):
    # 3^3 x 2 sites at 10 ell spacing: 54 regions, 1431 pairs
    spec = LatticeSpec(3, 2, 10.0 * ell, 10.0 * ell, origin)
    return [GaussianRegion(e, ell) for e in build_lattice(spec)]


def per_pair_reference(state, regions, lam):
    """H and GR filled pair by pair, H from one wightman_smeared_closed call
    per pair, the diagonal included."""
    n, lam2 = len(regions), lam * lam
    H, GR = np.zeros((n, n)), np.zeros((n, n))
    centers = np.array([r.center.coords() for r in regions])
    itv = intervals(centers[:, None], centers[None, :])
    E = lam2 * kernels._commutator(itv.dt, itv.dr, regions[0].ell)
    for i in range(n):
        for j in range(i, n):
            w = wightman_smeared_closed(state, regions[i], regions[j])
            H[i, j] = H[j, i] = lam2 * 2.0 * w.real
            if itv.dt[i, j] > 0.0:
                GR[i, j] = E[i, j]
            elif itv.dt[i, j] < 0.0:
                GR[j, i] = -E[i, j]
    return H, GR


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

    def test_dict_roundtrip(self):
        for s in (FieldState.vacuum(), FieldState.thermal(2.0), FieldState.coherent(0.5)):
            assert FieldState.from_dict(s.to_dict()) == s


class TestHadamardPoint:
    def test_vacuum_spacelike(self):
        val = hadamard_point(FieldState.vacuum(), Event(0, 1, 0, 0), O)
        assert val == pytest.approx(1.0 / (4 * math.pi**2), rel=1e-15)

    def test_vacuum_timelike_sign_flip(self):
        val = hadamard_point(FieldState.vacuum(), Event(1, 0, 0, 0), O)
        assert val == pytest.approx(-1.0 / (4 * math.pi**2), rel=1e-15)

    def test_lightlike_raises(self):
        for state in (FieldState.vacuum(), FieldState.thermal(5.0),
                      FieldState.coherent(1.0), FieldState.one_particle(1.0)):
            with pytest.raises(LightconeSingularityError):
                hadamard_point(state, Event(1, 1, 0, 0), O)

    def test_thermal_approaches_vacuum(self):
        # coth small-argument expansion: relative deviation ~ (pi dr / beta)^2 / 3
        dr = 1.0
        vac = hadamard_point(FieldState.vacuum(), Event(0, dr, 0, 0), O)
        for beta in (50.0, 200.0, 1000.0):
            th = hadamard_point(FieldState.thermal(beta), Event(0, dr, 0, 0), O)
            rel = abs(th - vac) / vac
            expect = (math.pi * dr / beta) ** 2 / 3.0
            assert rel == pytest.approx(expect, rel=0.05)

    def test_thermal_stable_form_equals_coth_sum(self):
        # the product form used internally is algebraically the textbook
        # coth(pi(dr+dt)/beta) + coth(pi(dr-dt)/beta) expression
        beta = 13.0
        for (dt, dr) in ((0.0, 1.0), (2.0, 5.0), (-4.0, 1.5), (7.0, 2.0)):
            got = hadamard_point(FieldState.thermal(beta), Event(dt, dr, 0, 0), O)
            k = math.pi / beta
            want = (1.0 / math.tanh(k * (dr + dt)) + 1.0 / math.tanh(k * (dr - dt))) / (
                8.0 * math.pi * beta * dr)
            assert got == pytest.approx(want, rel=1e-13)

    def test_thermal_extreme_arguments(self):
        # saturation branches: deep spacelike plateau and underflowing timelike
        beta = 1.0
        deep_space = hadamard_point(FieldState.thermal(beta), Event(0, 200.0, 0, 0), O)
        assert deep_space == pytest.approx(1.0 / (4 * math.pi * beta * 200.0), rel=1e-12)
        deep_time = hadamard_point(FieldState.thermal(beta), Event(200.0, 0, 0, 0), O)
        assert deep_time == 0.0  # true value ~ -e^{-400 pi}, below double range
        mixed = hadamard_point(FieldState.thermal(beta), Event(500.0, 100.0, 0, 0), O)
        assert mixed == 0.0 and not math.isnan(mixed)

    def test_thermal_one_argument_saturated(self):
        # one of pi (dr +- dt) / beta beyond 300, the other not: the product
        # form would overflow there; the textbook coth sum at 30 digits decides
        import mpmath as mp
        beta = 1.0
        with mp.workdps(30):
            for (dt, dr) in ((100.0, 150.0), (110.0, 100.0), (-110.0, 100.0), (50.0, 60.0)):
                got = hadamard_point(FieldState.thermal(beta), Event(dt, dr, 0, 0), O)
                k = mp.pi / beta
                want = (mp.coth(k * (dr + dt)) + mp.coth(k * (dr - dt))) / (
                    8 * mp.pi * beta * dr)
                assert got == pytest.approx(float(want), rel=1e-12)

    def test_thermal_pure_temporal_limit(self):
        # dr -> 0 analytic limit -1/(4 beta^2 sinh^2(pi dt / beta))
        beta, dt = 50.0, 5.0
        want = -1.0 / (4 * beta**2 * math.sinh(math.pi * dt / beta) ** 2)
        got = hadamard_point(FieldState.thermal(beta), Event(dt, 0, 0, 0), O)
        assert got == pytest.approx(want, rel=1e-13)
        # and continuity from tiny dr
        near = hadamard_point(FieldState.thermal(beta), Event(dt, 1e-9, 0, 0), O)
        assert near == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("state", [FieldState.vacuum(), FieldState.thermal(37.0),
                                       FieldState.coherent(1.5),
                                       FieldState.one_particle(4.0)])
    def test_symmetry_in_arguments(self, state):
        a, b = Event(0.7, 3.0, -1.0, 0.5), Event(-0.4, -2.0, 0.3, 1.0)
        assert hadamard_point(state, a, b) == pytest.approx(
            hadamard_point(state, b, a), rel=1e-13)

    def test_coherent_additivity_is_exact(self):
        # state kernel minus vacuum kernel equals the classical-wave product
        a, b = Event(2.0, 5.0, 0, 0), Event(-1.0, -3.0, 1.0, 0)
        delta = 1.5
        diff = (hadamard_point(FieldState.coherent(delta), a, b)
                - hadamard_point(FieldState.vacuum(), a, b))
        assert diff == pytest.approx(
            phi0_coherent(delta, a) * phi0_coherent(delta, b), abs=1e-12)


class TestPhi0:
    def test_zero_at_t0(self):
        for r in (0.3, 1.0, 7.0):
            assert phi0_coherent(1.0, Event(0.0, r, 0, 0)) == 0.0

    def test_odd_in_t(self):
        v1 = phi0_coherent(2.0, Event(1.3, 0.8, 0.2, 0))
        v2 = phi0_coherent(2.0, Event(-1.3, 0.8, 0.2, 0))
        assert v1 == pytest.approx(-v2, rel=1e-14)

    def test_direct_substitution(self):
        # r = t = delta = 1: (e^{-1} - 1) / (4 sqrt2 pi)
        want = (math.exp(-1.0) - 1.0) / (4 * math.sqrt(2) * math.pi)
        assert phi0_coherent(1.0, Event(1.0, 1.0, 0, 0)) == pytest.approx(want, rel=1e-14)

    def test_origin_limit_matches_series(self):
        delta, t = 1.5, 2.0
        want = -t * math.exp(-t * t / (4 * delta**2)) / (
            4 * math.sqrt(2) * math.pi * delta**2)
        assert phi0_coherent(delta, Event(t, 0.0, 0, 0)) == pytest.approx(want, rel=1e-12)
        # continuity across the series switch radius
        lo = phi0_coherent(delta, Event(t, 1e-8, 0, 0))
        hi = phi0_coherent(delta, Event(t, 1e-3, 0, 0))
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
                got = phi0_coherent(delta, Event(t, r, 0, 0))
                assert got == pytest.approx(float(want), rel=1e-13)

    def test_smeared_region_against_radial_quadrature(self):
        delta, ell = 1.5, 1.0
        for (t, x) in ((6.0, 6.0), (-3.0, 8.0), (5.0, 0.0)):
            closed = phi0_coherent_region(delta, region(t, x, ell))
            quad = kernels._phi0_region_quadrature(delta, ell, region(t, x, ell), 1e-13)
            assert closed == pytest.approx(quad, abs=1e-12)

    def test_smeared_region_zero_at_equal_time(self):
        # region centered on the t = 0 slice: in/out Gaussians coincide
        assert phi0_coherent_region(1.5, region(0.0, 4.0)) == 0.0


class TestOneParticleF:
    def test_origin_value(self):
        # t = 0, r -> 0: F = 1 / (2 delta sqrt(pi)), purely real
        delta = 1.0
        f = F_oneparticle(delta, Event(0.0, 0.0, 0, 0))
        assert f.real == pytest.approx(1.0 / (2 * delta * math.sqrt(math.pi)), rel=1e-12)
        assert f.imag == pytest.approx(0.0, abs=1e-14)

    def test_t_reflection_invariance_of_hadamard_term(self):
        delta = 2.0
        a, b = Event(1.0, 3.0, 0, 0), Event(-0.5, 1.0, 2.0, 0)
        am, bm = Event(-1.0, 3.0, 0, 0), Event(0.5, 1.0, 2.0, 0)
        fwd = 2 * (F_oneparticle(delta, a) * F_oneparticle(delta, b).conjugate()).real
        bwd = 2 * (F_oneparticle(delta, am) * F_oneparticle(delta, bm).conjugate()).real
        assert fwd == pytest.approx(bwd, rel=1e-13)

    def test_against_mode_integral(self):
        # radial momentum integral of u_k f(k), the defining expression
        from scipy.integrate import quad
        for (delta, t, r) in ((10.0, -60.0, 60.0), (1.0, 0.5, 0.7), (2.0, 3.0, 5.0)):
            c = delta**2 / (math.pi * math.sqrt(2.0) * r)
            re, _ = quad(lambda k: k * math.exp(-delta**2 * k**2 / 2)
                         * math.cos(k * t) * math.sin(k * r), 0, 40 / delta,
                         epsabs=1e-14, limit=400)
            im, _ = quad(lambda k: -k * math.exp(-delta**2 * k**2 / 2)
                         * math.sin(k * t) * math.sin(k * r), 0, 40 / delta,
                         epsabs=1e-14, limit=400)
            got = F_oneparticle(delta, Event(t, r, 0, 0))
            assert got.real == pytest.approx(c * re, abs=1e-13)
            assert got.imag == pytest.approx(c * im, abs=1e-13)

    def test_small_r_series_consistency(self):
        # the small-r series branch must join the direct formula smoothly
        delta, t = 10.0, -60.0
        inside = F_oneparticle(delta, Event(t, 5e-3 * delta, 0, 0))
        outside = F_oneparticle(delta, Event(t, 2e-3 * delta, 0, 0))
        center = F_oneparticle(delta, Event(t, 0.0, 0, 0))
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
        assert got.tolist() == [hadamard_point(state, Event(*p), O) for p in a]
        # the second time derivatives follow the same branch masks
        got = np.array(kernels.hadamard_dtt_array(state, a, np.zeros(4))).T
        assert got.tolist() == [
            np.array(kernels.hadamard_dtt_array(state, p, np.zeros(4))).tolist() for p in a]

    def test_source_amplitude_branches(self):
        x = self.coords(self.SOURCED)
        events = [Event(*p) for p in x]
        assert kernels.phi0_coherent_array(1.5, x).tolist() == [
            phi0_coherent(1.5, e) for e in events]
        assert kernels.F_oneparticle_array(1.5, x).tolist() == [
            F_oneparticle(1.5, e) for e in events]

    @pytest.mark.parametrize("state", [FieldState.coherent(1.5),
                                       FieldState.one_particle(1.5)])
    def test_sourced_hadamard_branches(self, state):
        a = self.coords(self.SOURCED)
        b = np.roll(a, 1, axis=0) + [0.0, 0.0, 0.0, 9.0]
        got = kernels.hadamard_array(state, a, b)
        assert got.tolist() == [hadamard_point(state, Event(*p), Event(*q))
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
        ell = 0.5
        s2 = delta**2 + ell**2
        for t, r in pairs:
            value = kernels._gaussian_wave_pair(t, r, s2, dtt=True)[0]
            assert kernels.phi0_coherent_region(delta, region(t, r, ell)) == float(
                delta * value / (4.0 * math.sqrt(2.0) * math.pi * math.sqrt(s2)))
        t, r = np.array(pairs).T
        value = kernels._gaussian_wave_pair(t, r, 2.0 * ell * ell, dtt=True)[0]
        assert kernels._commutator(t, r, ell).tolist() == (
            value / (8.0 * math.sqrt(2.0) * math.pi**1.5 * ell)).tolist()

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


# (dt, dr) in units of ell: equal time, equal place, dr = 1e-6, lightlike,
# the lattice's mixed separations, and |dt|, dr up to 100
ORACLE_GEOMETRIES = [(0.0, 3.0), (0.0, 100.0), (4.0, 0.0), (-100.0, 0.0), (0.0, 1e-6),
                     (2.5, 1e-6), (10.0, 10.0), (-3.0, 3.0), (100.0, 100.0),
                     (10.0, 10.0 * math.sqrt(2.0)), (3.0, 5.0), (-60.0, 100.0),
                     (100.0, 37.0)]


class TestSmearedOracle:
    @pytest.mark.parametrize("state", [
        FieldState.vacuum(), FieldState.thermal(0.3), FieldState.thermal(1.0),
        FieldState.thermal(5.0), FieldState.thermal(50.0), FieldState.thermal(1e4),
        FieldState.coherent(1.5), FieldState.one_particle(2.0)],
        ids=["vacuum", "beta0.3", "beta1", "beta5", "beta50", "beta1e4", "coherent",
             "one_particle"])
    def test_closed_matches_quadrature_everywhere(self, state):
        # both parts within 1e-10 of the state's diagonal kernel Re W(L, L)
        vac = FieldState.vacuum()
        anchor = GaussianRegion(Event(-1.5, 2.0, 0.0, 0.0), 1.0)
        diag = wightman_smeared_quadrature(state, anchor, anchor, 1e-12).real
        for dt, dr in [(0.0, 0.0)] + ORACLE_GEOMETRIES:
            c = anchor.center
            ri = GaussianRegion(Event(c.t + dt, c.x + 0.6 * dr, c.y + 0.8 * dr, 0.0), 1.0)
            wc = wightman_smeared_closed(state, ri, anchor)
            if state.tag == "thermal" and state.beta > 1e3:
                # the quadrature oracle misses the thermal excess, which lives
                # at k <~ 1/beta; the vacuum oracle plus that excess alone
                wq = (wightman_smeared_quadrature(vac, ri, anchor, 1e-12)
                      + thermal_excess(state.beta, dt, dr))
            else:
                wq = wightman_smeared_quadrature(state, ri, anchor, 1e-12)
            assert abs(wc.real - wq.real) <= 1e-10 * diag, (dt, dr)
            assert abs(wc.imag - wq.imag) <= 1e-10 * diag, (dt, dr)

    def test_image_count_capped(self):
        # beta/ell ~ 1e-4 would need ~3e6 KMS images: refused before any work
        with pytest.raises(CapacityError, match="KMS images"):
            wightman_smeared_closed(FieldState.thermal(1e-4), region(0, 5), region(0, 0))

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
        cold = FieldState.thermal(1e4)
        vac = FieldState.vacuum()
        for (t, x) in ((0.0, 3.0), (2.0, 5.0)):
            wt = wightman_smeared_quadrature(cold, region(t, x), region(0, 0), 1e-12)
            wv = wightman_smeared_quadrature(vac, region(t, x), region(0, 0), 1e-12)
            assert abs(wt - wv) <= 1e-5 * abs(wv)

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
        prod = (phi0_coherent_region(1.5, ri) * phi0_coherent_region(1.5, rj))
        assert wc - wv == pytest.approx(prod, abs=1e-15)

    def test_coherent_quadrature_additivity(self):
        # independent quadratures must also reproduce the additivity
        coh = FieldState.coherent(1.5)
        vac = FieldState.vacuum()
        ri, rj = region(2.0, 8.0), region(0, 0)
        wc = wightman_smeared_quadrature(coh, ri, rj, 1e-12)
        wv = wightman_smeared_quadrature(vac, ri, rj, 1e-12)
        prod = (phi0_coherent_region(1.5, ri) * phi0_coherent_region(1.5, rj))
        assert (wc - wv).real == pytest.approx(prod, abs=1e-10)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            wightman_smeared_quadrature(FieldState.vacuum(), region(0, 5, ell=1.0),
                                        region(0, 0, ell=2.0), 1e-10)


class TestCommutatorAndRetarded:
    def test_zero_at_equal_time(self):
        assert commutator_smeared(region(0, 5), region(0, 0)) == 0.0
        assert retarded_smeared(region(0, 5), region(0, 0)) == 0.0

    def test_spacelike_tail_bound(self):
        dt, dr = 2.0, 12.0
        e = commutator_smeared(region(dt, dr), region(0, 0))
        assert abs(e) <= math.exp(-((dr - abs(dt)) ** 2) / 8.0)

    def test_matches_2_im_quadrature(self):
        vac = FieldState.vacuum()
        for (dt, dr) in ((10.0, 10.0), (3.0, 2.0), (-6.0, 4.0), (5.0, 0.0)):
            e = commutator_smeared(region(dt, dr), region(0, 0))
            w = wightman_smeared_quadrature(vac, region(dt, dr), region(0, 0), 1e-12)
            assert e == pytest.approx(2.0 * w.imag, abs=1e-8 * max(abs(e), 1e-4))

    def test_antisymmetry(self):
        a, b = region(7.0, 3.0), region(-1.0, -2.0)
        assert commutator_smeared(a, b) == pytest.approx(-commutator_smeared(b, a),
                                                         rel=1e-15)

    def test_retarded_time_order(self):
        future, past = region(10.0, 10.0), region(0, 0)
        assert retarded_smeared(future, past) == commutator_smeared(future, past)
        assert retarded_smeared(past, future) == 0.0

    def test_precision_warning_near_boundary(self):
        with pytest.warns(PrecisionWarning):
            retarded_smeared(region(2.0, 3.0), region(0, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            retarded_smeared(region(10.0, 10.0), region(0, 0))  # clean region


class TestAssemble:
    def test_single_region_vacuum(self):
        lam = 2.0
        km = assemble_kernels(FieldState.vacuum(), [region(0, 0)], lam)
        assert km.H[0, 0] == pytest.approx(lam**2 / (8 * math.pi**2), rel=1e-14)
        assert km.E[0, 0] == 0.0
        assert km.GR[0, 0] == 0.0
        assert km.Wdiag[0] == km.H[0, 0] / 2

    def test_two_spacelike_regions(self):
        km = assemble_kernels(FieldState.vacuum(), [region(0, 0), region(0, 12)], 1.0)
        assert abs(km.E[0, 1]) <= math.exp(-144.0 / 8.0)
        km.validate()

    def test_identities_exact(self):
        regions = [region(0, 0), region(10, 10), region(10, 0), region(20, 5)]
        km = assemble_kernels(FieldState.vacuum(), regions, 2 * math.pi)
        assert np.array_equal(km.E, km.GR - km.GR.T)
        # antisymmetric bit for bit off the diagonal, signed zeros included,
        # as saved kernelmatrix-v1 files hold it
        off = ~np.eye(4, dtype=bool)
        assert np.array_equal(np.signbit(km.E)[off], np.signbit(-km.E.T)[off])
        assert np.array_equal(km.Delta, km.GR + km.GR.T)
        assert np.array_equal(km.H, km.H.T)
        assert np.array_equal(km.Wdiag, np.diag(km.H) / 2)

    def test_e_consistent_with_quadrature(self):
        regions = [region(0, 0), region(10, 10)]
        km = assemble_kernels(FieldState.vacuum(), regions, 1.0)
        w = wightman_smeared_quadrature(FieldState.vacuum(), regions[0], regions[1],
                                        1e-12)
        assert km.E[0, 1] == pytest.approx(2 * w.imag, abs=1e-8)

    def test_thermal_assembly(self):
        regions = [region(0, 0), region(0, 10), region(10, 0)]
        km = assemble_kernels(FieldState.thermal(50.0), regions, 1.0)
        km.validate()
        assert km.H[0, 0] > 0
        # thermal local noise exceeds the vacuum one
        kv = assemble_kernels(FieldState.vacuum(), regions, 1.0)
        assert km.H[0, 0] > kv.H[0, 0]

    def test_rejects_non_quasifree(self):
        with pytest.raises(ValueError):
            assemble_kernels(FieldState.coherent(1.0), [region(0, 0)], 1.0)
        with pytest.raises(ValueError):
            assemble_kernels(FieldState.one_particle(1.0), [region(0, 0)], 1.0)

    @pytest.mark.parametrize("state, layout", [
        (FieldState.thermal(50.0), "lattice"),
        (FieldState.vacuum(), "lattice"),
        (FieldState.thermal(50.0), "shuffled"),
        (FieldState.vacuum(), "far"),
    ], ids=["thermal", "vacuum", "thermal-shuffled", "vacuum-far"])
    def test_matches_per_pair_reference_bitwise(self, state, layout):
        if layout == "far":
            # commutators that underflow to zero on both sides of dt
            regions = [region(0, 0), region(10, 200), region(-10, 400), region(5, 600)]
        else:
            regions = lattice_regions(Event(1.234567, -3.5, 2.25, 0.1))
        if layout != "lattice":
            random.Random(3).shuffle(regions)
            # upper-triangle pairs now carry both signs of dt
            dts = [interval(a.center, b.center).dt
                   for k, a in enumerate(regions) for b in regions[k + 1:]]
            assert min(dts) < 0.0 < max(dts)
        km = assemble_kernels(state, regions, 2 * math.pi)
        H, GR = per_pair_reference(state, regions, 2 * math.pi)
        assert_bitwise(km.H, H)
        assert_bitwise(km.GR, GR)
        assert_bitwise(km.E, KernelMatrix(km.n, H, GR, km.lam).E)

    @pytest.mark.parametrize("shuffle", [False, True], ids=["ordered", "shuffled"])
    def test_one_evaluation_per_distinct_geometry(self, monkeypatch, shuffle):
        regions = lattice_regions()
        if shuffle:
            random.Random(3).shuffle(regions)
        calls = []
        real = kernels._smeared_real

        def counting(beta, ell, dt, dr):
            calls.append(list(zip(np.abs(dt).tolist(), np.asarray(dr).tolist())))
            return real(beta, ell, dt, dr)

        monkeypatch.setattr(kernels, "_smeared_real", counting)
        assemble_kernels(FieldState.vacuum(), regions, 1.0)
        pairs = [interval(a.center, b.center)
                 for k, a in enumerate(regions) for b in regions[k + 1:]]
        geometries = {(abs(itv.dt), itv.dr) for itv in pairs}
        assert len(pairs) == 1431
        assert len(geometries) == 19
        # one array call: each off-diagonal geometry once, and the diagonal's (0, 0)
        assert len(calls) == 1
        assert len(calls[0]) == 20
        assert set(calls[0]) == geometries | {(0.0, 0.0)}

    def test_load_rejects_corrupted_matrices(self, tmp_path):
        regions = [region(0, 0), region(10, 10)]
        km = assemble_kernels(FieldState.vacuum(), regions, 1.0)
        km.save(tmp_path / "k")
        h_path = tmp_path / "k" / "H.csv"
        rows = h_path.read_text().splitlines()
        cells = rows[0].split(",")
        cells[1] = f"{float(cells[1]) + 1.0:.17g}"  # break H symmetry
        h_path.write_text(",".join(cells) + "\n" + rows[1] + "\n")
        with pytest.raises(ValueError, match="H symmetric"):
            KernelMatrix.load(tmp_path / "k")
        # the stored derived matrices are outside input too
        km.save(tmp_path / "k")
        for name, bad, match in (("E", "0,1\n-1,0\n", r"E = GR - GR\^T"),
                                 ("Delta", "0,1\n1,0\n", r"Delta = GR \+ GR\^T"),
                                 ("Wdiag", "1,1\n", r"Wdiag = H_ii / 2")):
            path = tmp_path / "k" / f"{name}.csv"
            good = path.read_text()
            path.write_text(bad)
            with pytest.raises(ValueError, match=match):
                KernelMatrix.load(tmp_path / "k")
            path.write_text(good)
        KernelMatrix.load(tmp_path / "k")

    def test_serialisation_roundtrip(self, tmp_path):
        regions = [region(0, 0), region(10, 10), region(10, 0)]
        km = assemble_kernels(FieldState.thermal(50.0), regions, 1.5)
        km.save(tmp_path / "k")
        back = KernelMatrix.load(tmp_path / "k")
        assert back.n == km.n
        assert back.lam == km.lam
        assert back.state == km.state
        assert np.array_equal(back.H, km.H)
        assert np.array_equal(back.GR, km.GR)
        assert np.array_equal(back.Wdiag, km.Wdiag)


class TestLimits:
    def test_thermal_to_vacuum_rate(self):
        # pointwise convergence with observed O((s/beta)^2) rate
        from udwtomo.numerics import fit_loglog_slope
        dr = 1.0
        a, b = Event(0, dr, 0, 0), O
        vac = hadamard_point(FieldState.vacuum(), a, b)
        pts = []
        for beta in (50.0, 100.0, 200.0, 400.0, 800.0):
            th = hadamard_point(FieldState.thermal(beta), a, b)
            pts.append((dr / beta, abs(th - vac) / vac))
        fit = fit_loglog_slope(pts)
        assert fit.slope == pytest.approx(2.0, abs=0.1)

    def test_smeared_to_pointlike_spatial_bound(self):
        # relative deviation <= 5 (ell/s)^2 on the equal-time branch
        vac = FieldState.vacuum()
        for s in (10.0, 12.5, 16.0, 20.0):
            w = wightman_smeared_closed(vac, region(0, s), region(0, 0)).real
            p = hadamard_point(vac, Event(0, s, 0, 0), O)
            assert abs(w - p) / abs(p) <= 5.0 / s**2

    def test_smeared_to_pointlike_temporal_coefficient(self):
        # the equal-position branch carries the coefficient 12, not 5: the
        # quadrupole trace contributes 12 ell^2/dt^2 there, which the closed
        # form reproduces up to its higher orders (+ 240/s^2 + ...)
        vac = FieldState.vacuum()
        for s in (10.0, 16.0, 20.0):
            w = wightman_smeared_closed(vac, region(s, 0), region(0, 0)).real
            p = hadamard_point(vac, Event(s, 0, 0, 0), O)
            rel = abs(w - p) / abs(p)
            assert 12.0 / s**2 <= rel <= (12.0 + 400.0 / s**2) / s**2
