"""The scaled imaginary error function inside the closed vacuum kernel, and
the semi-infinite integrator.

At equal times the smeared vacuum kernel is
exp(-x^2) erfi(x) / x / (32 pi^(3/2) ell^2) at x = dr / (2 sqrt2 ell), so
these tests read exp(-x^2) erfi(x) / x off ``wightman_smeared_closed``.
Expected values are recomputed inside the tests from independent
quadratures of erfi's defining integral or from mpmath, not from the
implementation.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import dawsn, erfi

from udwtomo import numerics
from udwtomo.errors import ConvergenceError, InsufficientDataError
from udwtomo.kernels import FieldState, wightman_smeared_closed
from udwtomo.smearing import GaussianRegion
from udwtomo.spacetime import Event


def _erfi_scaled_over_x(x):
    """exp(-x^2) erfi(x) / x from the dt = 0 vacuum kernel at ell = 1."""
    a = GaussianRegion(Event(0.0, 2.0 * math.sqrt(2.0) * x, 0.0, 0.0), 1.0)
    b = GaussianRegion(Event(0.0, 0.0, 0.0, 0.0), 1.0)
    return 32.0 * math.pi**1.5 * wightman_smeared_closed(FieldState.vacuum(), a, b).real


def _erfi(x):
    """erfi(x) rebuilt from the scaled form."""
    return x * math.exp(x * x) * _erfi_scaled_over_x(x)


def test_erfi_examples():
    assert _erfi(0.0) == 0.0
    for x in (1.0, 3.0):
        oracle, err = quad(lambda t: 2.0 / math.sqrt(math.pi) * math.exp(t * t), 0.0, x,
                           epsabs=1e-13, epsrel=1e-13)
        assert _erfi(x) == pytest.approx(oracle, rel=1e-12)
    assert _erfi(1.0) == pytest.approx(1.6504257587975429, rel=1e-12)


def test_erfi_full_admissible_range():
    # independent high-precision oracle; the scaled form never overflows, so
    # the range runs past x = 26.6, where erfi itself leaves double range
    import mpmath as mp
    mp.mp.dps = 40
    for x in (1e-7, 0.5, 2.0, 5.0, 10.0, 20.0, 26.0, 30.0, 1e3):
        want = float(mp.exp(-x * x) * mp.erfi(x) / x)
        assert _erfi_scaled_over_x(x) == pytest.approx(want, rel=1e-12)


def test_erfi_scaled():
    # x -> 0 limit 2/sqrt(pi), continuous across the kernel's small-dr series
    # switch, which sits at x = 1e-2 on this branch
    assert _erfi_scaled_over_x(0.0) == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-15)
    assert _erfi_scaled_over_x(1e-2) == pytest.approx(
        _erfi_scaled_over_x(1e-2 * (1.0 - 1e-12)), rel=1e-12)
    # 3-term asymptotic series oracle at large argument
    x = 30.0
    asym = (1.0 + 1.0 / (2 * x * x) + 3.0 / (4 * x**4)) / (x * x * math.sqrt(math.pi))
    assert _erfi_scaled_over_x(x) == pytest.approx(asym, rel=1e-3)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0, 5.0])
def test_erfi_scaled_consistent_with_erfi(x):
    assert _erfi(x) == pytest.approx(float(erfi(x)), rel=1e-10)


class TestIntegrateSemiInfinite:
    def test_gaussian(self):
        res = numerics.integrate_semi_infinite(lambda k: math.exp(-k * k), 1e-12,
                                               decay_scale=1.0)
        assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-12)
        assert res.error_estimate <= 1e-12
        assert res.evaluations >= 1

    def test_gaussian_times_sinc(self):
        # oracle: (1/5) int_0^inf e^{-2k^2} sin(5k) dk = D(5/(2 sqrt2)) / (5 sqrt2)
        target = float(dawsn(5.0 / (2.0 * math.sqrt(2.0)))) / (5.0 * math.sqrt(2.0))
        f = lambda k: k * math.exp(-2.0 * k * k) * (math.sin(5.0 * k) / (5.0 * k)
                                                    if k > 0 else 1.0)
        res = numerics.integrate_semi_infinite(f, 1e-10, decay_scale=2.0, osc_scale=5.0)
        assert res.value == pytest.approx(target, abs=1e-10)

    def test_exponential_no_hint(self):
        res = numerics.integrate_semi_infinite(lambda k: math.exp(-k), 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-9)

    def test_complex_integrand(self):
        # the scalar integrator, and the array one on a two-component vector
        f = lambda k: math.exp(-k * k) * complex(math.cos(k), -math.sin(k))
        res = numerics.integrate_semi_infinite(f, 1e-11, decay_scale=1.0, osc_scale=1.0)
        vec = numerics.integrate_semi_infinite_array(
            lambda k: math.exp(-k * k) * np.exp(-1j * k * np.array([1.0, 2.0])), 1e-11,
            decay_scale=1.0, osc_scale=2.0)
        for value, w in ((res.value, 1.0), (vec.value[0], 1.0), (vec.value[1], 2.0)):
            re_t, _ = quad(lambda k: math.exp(-k * k) * math.cos(w * k), 0, 20, epsabs=1e-14)
            im_t, _ = quad(lambda k: -math.exp(-k * k) * math.sin(w * k), 0, 20, epsabs=1e-14)
            assert value.real == pytest.approx(re_t, abs=1e-11)
            assert value.imag == pytest.approx(im_t, abs=1e-11)

    def test_deterministic(self):
        f = lambda k: k * math.exp(-0.3 * k * k) * math.sin(7.0 * k)
        a = numerics.integrate_semi_infinite(f, 1e-11, decay_scale=0.3, osc_scale=7.0)
        b = numerics.integrate_semi_infinite(f, 1e-11, decay_scale=0.3, osc_scale=7.0)
        assert a.value == b.value  # bit-identical
        assert a.evaluations == b.evaluations
        g = lambda k: k * math.exp(-0.3 * k * k) * np.sin(k * np.array([7.0, 1.0]))
        a = numerics.integrate_semi_infinite_array(g, 1e-11, decay_scale=0.3, osc_scale=7.0)
        b = numerics.integrate_semi_infinite_array(g, 1e-11, decay_scale=0.3, osc_scale=7.0)
        assert a.value.tolist() == b.value.tolist()
        assert a.evaluations == b.evaluations

    def test_nondecaying_integrand_raises(self):
        with pytest.raises(ConvergenceError):
            numerics.integrate_semi_infinite(lambda k: 1.0 / (1.0 + k), 1e-10)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            numerics.integrate_semi_infinite(lambda k: math.exp(-k * k), 0.0)
        with pytest.raises(ValueError):
            numerics.integrate_semi_infinite_array(lambda k: np.ones(2), 0.0)


class TestIntegrateSemiInfiniteArray:
    def test_components_match_scalar_integrator(self):
        # e^{-a k^2} cos(w k) sin(k r)/r for several (w, r), r = 0 included
        w = np.array([0.0, 3.0, 7.0, 0.5])
        r = np.array([0.0, 2.0, 0.5, 9.0])
        safe = np.where(r > 0.0, r, 1.0)

        def f(k):
            return math.exp(-2.0 * k * k) * np.cos(k * w) * np.where(
                r > 0.0, np.sin(k * safe) / safe, k)

        res = numerics.integrate_semi_infinite_array(f, 1e-12, decay_scale=2.0,
                                                     osc_scale=17.0)
        assert res.value.shape == (4,)
        assert res.error_estimate <= 1e-11
        for j in range(4):
            one = numerics.integrate_semi_infinite(lambda k: float(f(k)[j]), 1e-12,
                                                   decay_scale=2.0, osc_scale=17.0)
            assert abs(res.value[j] - one.value) <= 1e-12

    def test_knots_resolve_a_narrow_feature(self):
        # a spike of width 1e-4 at k = 0 next to a unit Gaussian: both
        # integrators find it once knots sit at its scale
        def f(k):
            return math.exp(-k * k) + math.exp(-(k * 1e4) ** 2)

        want = math.sqrt(math.pi) / 2.0 * (1.0 + 1e-4)
        knots = [c * 1e-4 for c in (0.01, 0.1, 1.0, 10.0, 100.0)]
        scalar = numerics._integrate_panels(f, 1e-12, 1.0, None, knots)
        vector = numerics.integrate_semi_infinite_array(
            lambda k: np.array([f(k), math.exp(-k * k)]), 1e-12, decay_scale=1.0,
            knots=knots)
        assert scalar.value == pytest.approx(want, abs=1e-12)
        assert vector.value[0] == pytest.approx(want, abs=1e-12)
        assert vector.value[1] == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-12)

    def test_uncertified_component_raises(self):
        # one component decays too slowly for the hinted Gaussian cutoff: its
        # tail bound fails the whole pass
        f = lambda k: np.array([math.exp(-k * k), 1.0 / (1.0 + k * k)])
        with pytest.raises(ConvergenceError, match="exceeds tolerance"):
            numerics.integrate_semi_infinite_array(f, 1e-10, decay_scale=1.0)

    def test_non_finite_component_raises(self):
        # NaN everywhere, and NaN only between the cutoff probes (0.5, 0.625)
        for bad in (lambda k: math.nan, lambda k: math.nan if 0.51 < k < 0.6 else 0.0):
            f = lambda k: np.array([math.exp(-k * k), bad(k)])
            with pytest.raises(ConvergenceError):
                numerics.integrate_semi_infinite_array(f, 1e-10, decay_scale=1.0)


class TestFitLoglogSlope:
    def test_exact_quadratic(self):
        fit = numerics.fit_loglog_slope([(1.0, 1.0), (2.0, 4.0), (4.0, 16.0)])
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.residual == pytest.approx(0.0, abs=1e-12)

    def test_exact_quartic(self):
        fit = numerics.fit_loglog_slope([(1.0, 1.0), (2.0, 16.0), (4.0, 256.0)])
        assert fit.slope == pytest.approx(4.0, abs=1e-12)

    def test_jittered_quartic(self):
        rng = np.random.default_rng(3)
        pts = [(s, 0.7 * s**4 * (1.0 + 0.01 * rng.standard_normal()))
               for s in np.geomspace(0.5, 8.0, 12)]
        fit = numerics.fit_loglog_slope(pts)
        assert fit.slope == pytest.approx(4.0, abs=0.05)
        assert fit.residual < 0.05

    def test_domain_errors(self):
        with pytest.raises(InsufficientDataError):
            numerics.fit_loglog_slope([(1.0, 1.0), (2.0, 4.0)])
        with pytest.raises(ValueError):
            numerics.fit_loglog_slope([(1.0, 1.0), (2.0, 4.0), (-1.0, 9.0)])
