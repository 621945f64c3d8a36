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
import re

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import dawsn, erfi

from udwtomo import numerics
from udwtomo.errors import ConvergenceError, InsufficientDataError
from udwtomo.kernels import FieldState, wightman_smeared_closed
from udwtomo.smearing import GaussianRegion
from udwtomo.spacetime import Event

from test_kernels import scipy_quad


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
        res = numerics.integrate_semi_infinite(lambda k: np.exp(-k * k)[:, None], 1e-12,
                                               decay_scale=1.0, osc_scale=1.0)
        assert res.value.shape == (1,)
        assert res.value[0] == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-12)
        assert res.error_estimate <= 1e-12
        assert res.evaluations >= 1

    def test_gaussian_times_sinc(self):
        # oracle: (1/5) int_0^inf e^{-2k^2} sin(5k) dk = D(5/(2 sqrt2)) / (5 sqrt2)
        target = float(dawsn(5.0 / (2.0 * math.sqrt(2.0)))) / (5.0 * math.sqrt(2.0))
        f = lambda k: (np.exp(-2.0 * k * k) * np.sin(5.0 * k) / 5.0)[:, None]
        res = numerics.integrate_semi_infinite(f, 1e-10, decay_scale=2.0, osc_scale=5.0)
        assert res.value[0] == pytest.approx(target, abs=1e-10)

    def test_complex_integrand(self):
        # a two-component complex vector, each component against scipy's quad
        res = numerics.integrate_semi_infinite(
            lambda k: np.exp(-k * k)[:, None] * np.exp(-1j * k[:, None] * np.array([1.0, 2.0])),
            1e-11, decay_scale=1.0, osc_scale=2.0)
        for value, w in zip(res.value, (1.0, 2.0)):
            want = scipy_quad(lambda k: math.exp(-k * k) * complex(math.cos(w * k),
                                                                  -math.sin(w * k)))
            assert value.real == pytest.approx(want.real, abs=1e-11)
            assert value.imag == pytest.approx(want.imag, abs=1e-11)

    def test_deterministic(self):
        g = lambda k: ((k * np.exp(-0.3 * k * k))[:, None]
                       * np.sin(k[:, None] * np.array([7.0, 1.0])))
        a = numerics.integrate_semi_infinite(g, 1e-11, decay_scale=0.3, osc_scale=7.0)
        b = numerics.integrate_semi_infinite(g, 1e-11, decay_scale=0.3, osc_scale=7.0)
        assert a.value.tolist() == b.value.tolist()  # bit-identical
        assert a.evaluations == b.evaluations

    def test_nondecaying_integrand_raises(self):
        with pytest.raises(ConvergenceError):
            numerics.integrate_semi_infinite(lambda k: (1.0 / (1.0 + k))[:, None], 1e-10,
                                             decay_scale=1.0, osc_scale=1.0)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            numerics.integrate_semi_infinite(lambda k: np.ones((k.size, 2)), 0.0, 1.0, 1.0)

    @pytest.mark.parametrize("scales", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (math.nan, 1.0)])
    def test_scales_must_be_positive(self, scales):
        with pytest.raises(ValueError, match="decay_scale and osc_scale"):
            numerics.integrate_semi_infinite(lambda k: np.exp(-k * k)[:, None], 1e-10, *scales)


class TestIntegrateSemiInfiniteArray:
    def test_components_match_scalar_integrator(self):
        # e^{-a k^2} cos(w k) sin(k r)/r for several (w, r), r = 0 included,
        # each component against scipy's quad of the same scalar integrand
        w = np.array([0.0, 3.0, 7.0, 0.5])
        r = np.array([0.0, 2.0, 0.5, 9.0])
        safe = np.where(r > 0.0, r, 1.0)

        def f(k):
            k = k[:, None]
            return np.exp(-2.0 * k * k) * np.cos(k * w) * np.where(
                r > 0.0, np.sin(k * safe) / safe, k)

        res = numerics.integrate_semi_infinite(f, 1e-12, decay_scale=2.0, osc_scale=17.0)
        assert res.value.shape == (4,)
        assert res.error_estimate <= 1e-11
        for j in range(4):
            want = scipy_quad(lambda k: float(f(np.array([k]))[0, j]))
            assert abs(res.value[j] - want.real) <= 1e-12

    def test_knots_resolve_a_narrow_feature(self):
        # a spike of width 1e-4 at k = 0 next to a unit Gaussian: the pass
        # finds it once knots sit at its scale, as scipy's quad does with
        # the same knots as break points
        knots = [c * 1e-4 for c in (0.01, 0.1, 1.0, 10.0, 100.0)]
        res = numerics.integrate_semi_infinite(
            lambda k: np.stack([np.exp(-k * k) + np.exp(-(k * 1e4) ** 2), np.exp(-k * k)], 1),
            1e-12, decay_scale=1.0, osc_scale=1.0, knots=knots)
        want = math.sqrt(math.pi) / 2.0 * (1.0 + 1e-4)
        reference = scipy_quad(lambda k: math.exp(-k * k) + math.exp(-(k * 1e4) ** 2), knots)
        assert reference.real == pytest.approx(want, abs=1e-12)
        assert res.value[0] == pytest.approx(want, abs=1e-12)
        assert res.value[1] == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-12)

    def test_uncertified_component_raises(self):
        # one component decays too slowly for the hinted Gaussian cutoff: its
        # tail bound fails the whole pass
        f = lambda k: np.stack([np.exp(-k * k), 1.0 / (1.0 + k * k)], 1)
        with pytest.raises(ConvergenceError, match="exceeds tolerance"):
            numerics.integrate_semi_infinite(f, 1e-10, decay_scale=1.0,
                                                   osc_scale=1.0)

    def test_non_finite_component_raises(self):
        # NaN everywhere, and NaN only between the cutoff probes (0.5, 0.625);
        # at osc_scale 100 the initial panels sample that window
        for bad in (lambda k: np.full(k.shape, math.nan),
                    lambda k: np.where((0.51 < k) & (k < 0.6), math.nan, 0.0)):
            f = lambda k: np.stack([np.exp(-k * k), bad(k)], 1)
            with pytest.raises(ConvergenceError):
                numerics.integrate_semi_infinite(f, 1e-10, decay_scale=1.0,
                                                       osc_scale=100.0)


def _quad_vec_reference(f, tol, decay_scale, osc_scale, knots=()):
    """(value, certificate, evaluations) of the reference algorithm,
    ``scipy.integrate.quad_vec`` with ``norm="max"``, given one scalar k per
    call and ``integrate_semi_infinite``'s cutoff, panels, tolerances
    and certificate.  Raises ConvergenceError where that certificate fails."""
    from scipy.integrate import quad_vec

    cutoff, tail_bound, edges, limit = numerics._plan(f, tol, decay_scale, osc_scale, knots)
    value, abserr, info = quad_vec(
        lambda k: f(np.array([k]))[0], 0.0, cutoff, epsabs=4.0 * tol, epsrel=1e-12,
        norm="max", limit=limit * (len(edges) - 1), points=edges[1:-1], full_output=True,
        workers=map)
    err = float(np.max(abserr + tail_bound))
    if not err <= 10.0 * tol:
        raise ConvergenceError(f"certificate {err:.3e}")
    return value, err, info.neval


def _counted(f):
    """f, and a list that records the number of k of each call."""
    sizes = []

    def g(k):
        sizes.append(k.size)
        return f(k)

    return g, sizes


def _oscillating(k):
    # e^{-k^2/2} cos(w k) at frequencies up to 60: panels of ~50 periods,
    # which take several refinement rounds
    k = k[:, None]
    return np.exp(-0.5 * k * k) * np.cos(k * np.array([0.0, 15.0, 40.0, 60.0]))


def _gallery_thermal_scan(tmp_path, monkeypatch):
    """The arguments of the array quadrature that the ``states_gallery``
    benchmark workload's thermal scan makes at seed 1."""
    from udwtomo import kernels, scenarios

    calls = []

    def record(*args):
        calls.append(args)
        return numerics.integrate_semi_infinite(*args)

    monkeypatch.setattr(kernels, "integrate_semi_infinite", record)
    scenarios.run({"scenario_id": "thermal_curves", "beta": 50.236432,
                   "enable_quadrature_columns": True,
                   "anchor": {"t": 4.504637, "x": -3.558404, "y": 0.0, "z": 0.0},
                   "s_over_ell": {"start": 0.5, "stop": 20.0, "step": 0.25},
                   "output_dir": str(tmp_path)})
    monkeypatch.undo()
    assert len(calls) == 1
    return calls[0]


class TestBatchedGaussKronrod:
    """The integrator against quad_vec, the algorithm it runs."""

    CASES = {
        # the integrands of TestIntegrateSemiInfiniteArray and TestIntegrateSemiInfinite
        "components": (lambda k: np.exp(-2.0 * k[:, None] ** 2) * np.cos(
            k[:, None] * np.array([0.0, 3.0, 7.0, 0.5])) * np.where(
            np.array([False, True, True, True]),
            np.sin(k[:, None] * np.array([1.0, 2.0, 0.5, 9.0])) / np.array([1.0, 2.0, 0.5, 9.0]),
            k[:, None]), 1e-12, 2.0, 17.0, ()),
        "knots": (lambda k: np.stack([np.exp(-k * k) + np.exp(-(k * 1e4) ** 2),
                                      np.exp(-k * k)], 1),
                  1e-12, 1.0, 1.0, [c * 1e-4 for c in (0.01, 0.1, 1.0, 10.0, 100.0)]),
        "complex": (lambda k: np.exp(-k * k)[:, None] * np.exp(
            -1j * k[:, None] * np.array([1.0, 2.0])), 1e-11, 1.0, 2.0, ()),
        "deterministic": (lambda k: (k * np.exp(-0.3 * k * k))[:, None] * np.sin(
            k[:, None] * np.array([7.0, 1.0])), 1e-11, 0.3, 7.0, ()),
        "uncertified": (lambda k: np.stack([np.exp(-k * k), 1.0 / (1.0 + k * k)], 1),
                        1e-10, 1.0, 1.0, ()),
        "narrow-nan": (lambda k: np.stack([np.exp(-k * k), np.where(
            (0.51 < k) & (k < 0.6), math.nan, 0.0)], 1), 1e-10, 1.0, 100.0, ()),
        "high-osc": (_oscillating, 1e-12, 0.5, 60.0, ()),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_quad_vec(self, case):
        f, *args = self.CASES[case]
        try:
            want = _quad_vec_reference(f, *args)
        except ConvergenceError:
            with pytest.raises(ConvergenceError):
                numerics.integrate_semi_infinite(f, *args)
            return
        got = numerics.integrate_semi_infinite(f, *args)
        assert got.evaluations == want[2]
        assert got.error_estimate == pytest.approx(want[1], rel=1e-12)
        np.testing.assert_allclose(got.value, want[0], rtol=1e-14, atol=1e-17)

    def test_high_osc_case_takes_several_rounds(self):
        f, sizes = _counted(_oscillating)
        numerics.integrate_semi_infinite(f, 1e-12, 0.5, 60.0)
        # the magnitude probes, the cutoff points, the panels, then the rounds
        assert sizes[:2] == [24, 3]
        assert len(sizes) - 3 >= 3

    def test_gallery_thermal_scan_matches_quad_vec(self, tmp_path, monkeypatch):
        f, *args = _gallery_thermal_scan(tmp_path, monkeypatch)
        counted, sizes = _counted(f)
        got = numerics.integrate_semi_infinite(counted, *args)
        value, err, neval = _quad_vec_reference(f, *args)
        assert got.evaluations == neval == sum(sizes[2:])
        assert got.error_estimate == pytest.approx(err, rel=1e-12)
        np.testing.assert_allclose(got.value, value, rtol=1e-14, atol=1e-17)
        # one call per round: the panels, then each refinement round
        assert len(sizes) < 10 and sizes[:2] == [24, 3]

    @pytest.mark.parametrize("case", ["components", "complex", "high-osc"])
    def test_chunked_rounds_give_the_same_bits(self, case, monkeypatch):
        f, *args = self.CASES[case]
        whole_f, whole_sizes = _counted(f)
        whole = numerics.integrate_semi_infinite(whole_f, *args)
        # one interval per call
        monkeypatch.setattr(numerics, "_CHUNK_VALUES", 1)
        split_f, split_sizes = _counted(f)
        split = numerics.integrate_semi_infinite(split_f, *args)
        assert max(split_sizes[2:]) == 21 < max(whole_sizes[2:])
        assert split.value.tolist() == whole.value.tolist()
        assert split.error_estimate == whole.error_estimate
        assert split.evaluations == whole.evaluations

    def test_nan_in_a_refinement_round_raises(self):
        # finite at the probes and on the panels; the first round's nodes
        # are NaN in one component
        sizes = []

        def f(k):
            sizes.append(k.size)
            out = np.stack([np.exp(-k * k), np.exp(-2.0 * k * k)], 1)
            if len(sizes) > 3:
                out[:, 1] = math.nan
            return out

        with pytest.raises(ConvergenceError):
            numerics.integrate_semi_infinite(f, 1e-10, 1.0, 1.0)
        assert len(sizes) == 4

    def test_interval_cap_raises(self):
        # cos(1e4 k) has ~1e4 periods on [0, K]: no interval the cap allows
        # resolves it, so the rounds stop at the cap with the error near 1
        f = lambda k: np.stack([np.exp(-k * k), np.exp(-k * k) * np.cos(1e4 * k)], 1)
        with pytest.raises(ConvergenceError, match="exceeds tolerance") as exc:
            numerics.integrate_semi_infinite(f, 1e-10, 1.0, 1.0)
        intervals, cap = map(int, re.search(r"\((\d+) intervals, cap (\d+)\)",
                                            str(exc.value)).groups())
        assert intervals >= cap == 200


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
