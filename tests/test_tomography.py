"""Inversion of correlators into the anticommutator kernel, and its failure modes."""

import math

import numpy as np
import pytest

from udwtomo import tomography
from udwtomo.detector import (CorrelatorTable, correlator_table,
                              random_kernel_matrix, sample_table)
from udwtomo.errors import (DephasingError, NoiseDominatedError, TangentDomainError)
from udwtomo.kernels import KernelMatrix
from udwtomo.numerics import fit_loglog_slope
from udwtomo.tomography import (assemble_wightman, causal_correction,
                                reconstruct_record, reconstruct_spacelike)


def table(n=2, zz=1.0, yy=0.0, z=1.0, yx=None):
    """Correlator table built by hand: every pair has the given zz and yy,
    ``z`` is shared or per detector, and ``yx`` maps 1-based (i, k) to
    <sy_i sx_k>, zero elsewhere."""
    off = ~np.eye(n, dtype=bool)
    yx_m = np.zeros((n, n))
    for (i, k), v in (yx or {}).items():
        yx_m[i - 1, k - 1] = v
    return CorrelatorTable(z=np.broadcast_to(np.asarray(z, float), (n,)).copy(),
                           zz=np.where(off, zz, 1.0), yy=np.where(off, yy, 1.0), yx=yx_m)


class TestSpacelike:
    def test_zero(self):
        assert reconstruct_spacelike(table(), 1, 2) == 0.0

    def test_arctanh_of_tanh(self):
        t = table(zz=math.exp(-0.2) * math.cosh(0.1), yy=math.exp(-0.2) * math.sinh(0.1))
        assert reconstruct_spacelike(t, 1, 2) == pytest.approx(0.05, rel=1e-14)

    def test_noise_dominated(self):
        with pytest.raises(NoiseDominatedError) as ei:
            reconstruct_spacelike(table(zz=0.5, yy=0.6), 1, 2)
        assert ei.value.ratio == pytest.approx(1.2)

    def test_dephasing(self):
        with pytest.raises(DephasingError):
            reconstruct_spacelike(table(zz=0.0, yy=0.0), 1, 2)

    def test_sampled_error_propagation(self):
        # true H = 0.05 at N = 2; sampled reconstruction within 3 propagated sigma
        h = [[0.3, 0.05], [0.05, 0.3]]
        km = KernelMatrix(n=2, H=np.array(h), GR=np.zeros((2, 2)), lam=1.0)
        shots = 10**6
        exact = correlator_table(km)
        got = reconstruct_spacelike(sample_table(exact, shots, seed=31), 1, 2)
        zz, yy = exact.zz[0, 1], exact.yy[0, 1]
        ratio = yy / zz
        # binomial sigma propagated through (1/2) arctanh(y/z)
        sig = 0.5 / (1 - ratio**2) * math.sqrt(
            (1 - yy**2) / shots + ratio**2 * (1 - zz**2) / shots) / abs(zz)
        assert abs(got - 0.05) <= 3 * sig


class TestCausalCorrection:
    def test_all_zero(self):
        assert causal_correction(table(n=5), 1, 2) == 0.0

    def test_single_term(self):
        # ratios -tan(2G_13) = 0.1, -tan(2G_23) = 0.2 through third detector 3
        c = causal_correction(table(n=3, yx={(1, 3): 0.1, (2, 3): 0.2}), 1, 2)
        assert c == pytest.approx(0.5 * math.atanh(0.02), rel=1e-14)

    def test_tangent_domain_error_names_k(self):
        with pytest.raises(TangentDomainError) as ei:
            causal_correction(table(n=4, yx={(1, 4): 1.1, (2, 4): 1.0}), 1, 2)
        assert ei.value.k == 4

    def test_zero_denominator(self):
        with pytest.raises(DephasingError):
            causal_correction(table(n=3, z=[0.0, 1.0, 1.0],
                                    yx={(1, 3): 0.1, (2, 3): 0.1}), 1, 2)


class TestGeneral:
    def test_reduces_to_spacelike(self):
        for n in (2, 4):
            t = table(n=n, zz=0.8, yy=0.2)
            res = reconstruct_record(t, 1, 2, 0.0)
            assert res.regime == "spacelike" and res.C_ij == 0.0
            assert res.H_ij_reconstructed == reconstruct_spacelike(t, 1, 2)

    def test_log_form_identity(self):
        # (1/2) arctanh(yy/zz) == (1/4) ln((zz+yy)/(zz-yy))
        direct = reconstruct_record(table(zz=0.7, yy=0.3), 1, 2, 0.0).H_ij_reconstructed
        logform = 0.25 * math.log((0.7 + 0.3) / (0.7 - 0.3))
        assert direct == pytest.approx(logform, rel=1e-14)

    def test_roundtrip_causal_chain_n4(self):
        km = random_kernel_matrix(4, seed=21)
        t = correlator_table(km)
        for i in range(1, 5):
            for j in range(i + 1, 5):
                h = reconstruct_record(t, i, j, 0.0).H_ij_reconstructed
                assert h == pytest.approx(km.H[i - 1, j - 1], abs=1e-9)

    def test_roundtrip_mixed_n6(self):
        for seed in (3, 4, 5):
            km = random_kernel_matrix(6, seed=seed)
            if np.max(np.abs(2 * km.GR)) > 0.7:
                continue
            t = correlator_table(km)
            for i in range(1, 7):
                for j in range(i + 1, 7):
                    h = reconstruct_record(t, i, j, 0.0).H_ij_reconstructed
                    assert h == pytest.approx(km.H[i - 1, j - 1], abs=1e-8)

    def test_exact_records_never_leave_arctanh_domain(self):
        for seed in range(15):
            t = correlator_table(random_kernel_matrix(5, seed=seed))
            for i in range(1, 6):
                for j in range(i + 1, 6):
                    reconstruct_record(t, i, j, 0.0)


class TestAssembleWightman:
    def test_values(self):
        assert assemble_wightman(0.0, 0.0) == 0.0
        assert assemble_wightman(2.0, 0.0) == 1.0 + 0.0j
        w = assemble_wightman(0.4, -0.6)
        assert (w.real, w.imag) == (0.2, -0.3)

    def test_roundtrip(self):
        h = 0.123
        assert 2 * assemble_wightman(h, 0.9).real == pytest.approx(h, rel=1e-15)


class TestReconstructRecord:
    def test_regime_detection(self):
        km = random_kernel_matrix(4, seed=2)
        t = correlator_table(km)
        res = reconstruct_record(t, 1, 2, km.E[0, 1])
        assert res.regime in ("spacelike", "causal")
        has_link = np.any(t.yx[0, 2:] != 0.0) or np.any(t.xy[2:, 1] != 0.0)
        assert res.regime == ("causal" if has_link else "spacelike")
        assert res.W_ij == assemble_wightman(res.H_ij_reconstructed, km.E[0, 1])
        # a causal link through a third detector switches the regime
        assert reconstruct_record(table(n=3, yx={(1, 3): 0.1}), 1, 2, 0.0).regime == "causal"

    def test_dephasing_flag(self):
        res = reconstruct_record(table(zz=5e-7, yy=1e-7), 1, 2, 0.0)
        assert "dephasing_dominated" in res.condition_flags

    def test_pair_index_validation(self):
        t = table(n=3)
        for i, j in ((1, 1), (0, 2), (1, 4)):
            with pytest.raises(ValueError):
                reconstruct_record(t, i, j, 0.0)

    def test_csv_output(self, tmp_path):
        km = random_kernel_matrix(3, seed=8)
        t = correlator_table(km)
        results = []
        for i in range(1, 4):
            for j in range(i + 1, 4):
                results.append(reconstruct_record(t, i, j, km.E[i - 1, j - 1]))
        path = tmp_path / "recon.csv"
        tomography.write_reconstruction_results(results, path, h_true=km.H)
        lines = path.read_text().splitlines()
        assert lines[0].split(",")[:4] == ["i", "j", "regime", "H_reconstructed"]
        assert len(lines) == 1 + len(results)


def test_noise_scaling_slope():
    # RMS reconstruction error scales like shots^(-1/2); use a benign fixed
    # kernel (moderate local noise, weak causal links) so no sampled table
    # leaves the arctanh domain even at 10^3 shots
    n = 4
    H = 0.05 * np.ones((n, n)) + 0.35 * np.eye(n)
    GR = np.zeros((n, n))
    GR[2, 0] = GR[3, 1] = 0.05
    exact = correlator_table(KernelMatrix(n=n, H=H, GR=GR, lam=1.0))
    pts = []
    for shots in (10**3, 10**4, 10**5, 10**6):
        errs = []
        for rep in range(6):
            t = sample_table(exact, shots, seed=1000 + rep)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    h = reconstruct_record(t, i, j, 0.0).H_ij_reconstructed
                    errs.append((h - H[i - 1, j - 1]) ** 2)
        pts.append((float(shots), math.sqrt(sum(errs) / len(errs))))
    fit = fit_loglog_slope(pts)
    assert fit.slope == pytest.approx(-0.5, abs=0.1)
