"""Gaussian regions: the width check, and the profile's normalisation and
multipoles that the multipole expansion assumes, cross-checked by quadrature."""

import math

import pytest
from scipy.integrate import quad

from udwtomo.smearing import GaussianRegion
from udwtomo.spacetime import Event


def gauss1d_moment(power: int, ell: float, halfwidth: float) -> float:
    val, _ = quad(lambda u: u**power * math.exp(-u * u / (2 * ell * ell)),
                  -halfwidth, halfwidth, epsabs=1e-14, limit=200,
                  points=[0.0])
    return val


def test_unit_normalisation_by_quadrature():
    # 4D integral factorises into identical 1D Gaussians; halfwidth 10 ell
    # keeps the truncated tail below 1e-10
    for ell in (0.5, 1.0, 2.0):
        one_d = gauss1d_moment(0, ell, 10.0 * ell)
        total = one_d**4 / ((2 * math.pi) ** 2 * ell**4)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_odd_moments_vanish():
    ell = 0.8
    for power in (1, 3):
        m = gauss1d_moment(power, ell, 10.0 * ell)
        norm = gauss1d_moment(0, ell, 10.0 * ell)
        assert abs(m) / norm < 1e-12


def test_quadrupole_matches_quadrature():
    for ell in (0.3, 1.0, 1.7):
        second = gauss1d_moment(2, ell, 8.0 * ell)
        norm = gauss1d_moment(0, ell, 8.0 * ell)
        assert second / norm == pytest.approx(ell * ell, rel=1e-10)


def test_bad_inputs():
    with pytest.raises(ValueError):
        GaussianRegion(Event(0, 0, 0, 0), 0.0)
