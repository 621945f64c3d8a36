"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with its measured figure of merit.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from test_detector import KIND_OPS, table_entry
from udwtomo import scenarios
from udwtomo.detector import (correlator_table, density_matrix, pauli_ev_oracle,
                              random_kernel_matrix)
from udwtomo.kernels import (FieldState, assemble_kernels, hadamard_array,
                             phi0_coherent_array, wightman_smeared_closed,
                             wightman_smeared_quadrature)
from udwtomo.multipole import (convergence_order, estimate_array,
                               thermal_expansion_temporal)
from udwtomo.numerics import fit_loglog_slope
from udwtomo.smearing import GaussianRegion
from udwtomo.spacetime import Event, LatticeSpec, build_lattice
from udwtomo.tomography import reconstruct_table

O = Event(0.0, 0.0, 0.0, 0.0)
ORIGIN = O.coords()
VAC = FieldState.vacuum()

def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def oracle_sweep():
    """Shared sweep for criteria 1 and 2: 100 random kernel draws per size."""
    t0 = time.time()
    worst_dev = 0.0
    worst_herm = 0.0
    worst_trace = 0.0
    min_eig = np.inf
    for n in range(2, 7):
        for draw in range(100):
            km = random_kernel_matrix(n, seed=1000 * n + draw)
            table, rho = correlator_table(km), density_matrix(km)
            ent = rho.entries
            worst_herm = max(worst_herm, float(np.max(np.abs(ent - ent.conj().T))))
            worst_trace = max(worst_trace, abs(complex(np.trace(ent)) - 1.0))
            min_eig = min(min_eig, float(np.linalg.eigvalsh(ent).min()))
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    for kind, ops in KIND_OPS.items():
                        dev = abs(table_entry(table, i, j, kind)
                                  - pauli_ev_oracle(rho, ops(i, j)))
                        worst_dev = max(worst_dev, dev)
    return {"worst_dev": worst_dev, "worst_herm": worst_herm,
            "worst_trace": worst_trace, "min_eig": min_eig,
            "elapsed": time.time() - t0}


def test_criterion_1_closed_form_oracle_equivalence(oracle_sweep):
    s = oracle_sweep
    ok = s["worst_dev"] <= 1e-10 and s["elapsed"] <= 60.0
    _report(1, ok, f"closed vs density-matrix oracle, n=2..6 x100 draws x6 kinds: "
                   f"max |dev| = {s['worst_dev']:.2e} (<= 1e-10), "
                   f"runtime {s['elapsed']:.1f}s (<= 60s)")


def test_criterion_2_density_matrix_physicality(oracle_sweep):
    s = oracle_sweep
    ok = (s["worst_herm"] <= 1e-12 and s["worst_trace"] <= 1e-12
          and s["min_eig"] >= -1e-10)
    _report(2, ok, f"hermiticity {s['worst_herm']:.2e} (<= 1e-12), "
                   f"trace dev {s['worst_trace']:.2e} (<= 1e-12), "
                   f"min eigenvalue {s['min_eig']:.2e} (>= -1e-10)")


def test_criterion_3_tomography_roundtrip():
    t0 = time.time()
    km = assemble_kernels(VAC, build_lattice(LatticeSpec(2, 2, 10.0, 10.0)), 2.0 * math.pi)
    rec = reconstruct_table(correlator_table(km))
    # a failed pair's NaN would fail the max; no pair may fail
    max_err = float(np.max(np.abs(rec.H - km.H[rec.i - 1, rec.j - 1])))
    n_causal = int(np.count_nonzero(rec.causal))
    n_spacelike = len(rec.H) - n_causal
    elapsed = time.time() - t0
    ok = (not rec.failures and len(rec.H) == 120 and max_err <= 1e-8 and n_causal > 0
          and n_spacelike > 0 and elapsed <= 30.0)
    _report(3, ok, f"16-region vacuum lattice roundtrip: max |H_rec - H_true| = "
                   f"{max_err:.2e} (<= 1e-8), branches causal={n_causal}/"
                   f"spacelike={n_spacelike}, runtime {elapsed:.1f}s (<= 30s)")


def test_criterion_4_smeared_kernel_cross_validation():
    worst = 0.0
    pairs = [(a, O) for s in (0.5, 1.0, 2.0, 5.0, 10.0, 20.0)
             for a in (Event(0, s, 0, 0), Event(s, 0, 0, 0))]
    # mixed separations, dt and dr both nonzero: lightlike, lattice diagonal, timelike
    pairs += [(Event(dt, dr, 0, 0), O)
              for dt, dr in ((10.0, 10.0), (10.0, 10.0 * math.sqrt(2.0)), (3.0, 5.0))]
    for a, b in pairs:
        ri, rj = GaussianRegion(a, 1.0), GaussianRegion(b, 1.0)
        wc = wightman_smeared_closed(VAC, ri, rj)
        wq = wightman_smeared_quadrature(VAC, ri, rj, 1e-12)
        worst = max(worst, abs(wc - wq) / abs(wc))
    ok = worst <= 1e-8
    _report(4, ok, f"vacuum closed forms vs quadrature oracle over s/ell in "
                   f"{{0.5..20}}, both configs, and three mixed (dt, dr): "
                   f"max rel dev = {worst:.2e} (<= 1e-8)")


def test_criterion_5_multipole_order():
    grid = list(np.geomspace(0.02, 0.1, 7))
    full = convergence_order(VAC, (0.0, 1.0), grid, tol=1e-12).slope
    trunc = convergence_order(VAC, (0.0, 1.0), grid, tol=1e-12,
                              include_quadrupole=False).slope
    ok = abs(full - 4.0) <= 0.3 and abs(trunc - 2.0) <= 0.3
    _report(5, ok, f"residual order at s=1, ell in [0.02, 0.1]: full estimate slope "
                   f"{full:.3f} (4 +- 0.3), pointlike-only slope {trunc:.3f} (2 +- 0.3)")


def test_criterion_6_correction_coefficients():
    s, ell = 10.0, 1.0
    value = float(estimate_array(VAC, [0, s, 0, 0], ORIGIN, ell)[0])
    spatial = value / float(hadamard_array(VAC, [0, s, 0, 0], ORIGIN))
    dev_sp = abs(spatial - (1 + 4 * ell**2 / s**2))
    value = float(estimate_array(VAC, [s, 0, 0, 0], ORIGIN, ell)[0])
    temporal = value / float(hadamard_array(VAC, [s, 0, 0, 0], ORIGIN))
    dev_tp = abs(temporal - (1 + 12 * ell**2 / s**2))
    worst_th = 0.0
    beta = 50.0
    for dt in (5.0, 10.0, 20.0):
        got = float(estimate_array(FieldState.thermal(beta), [dt, 0, 0, 0], ORIGIN, ell)[0])
        want = thermal_expansion_temporal(beta, dt, ell)
        worst_th = max(worst_th, abs(got - want) / abs(want))
    ok = dev_sp <= 1e-12 and dev_tp <= 1e-12 and worst_th <= 1e-6
    _report(6, ok, f"correction factors: spatial dev {dev_sp:.2e}, temporal dev "
                   f"{dev_tp:.2e} (<= 1e-12); thermal temporal expansion at beta=50 "
                   f"max rel dev {worst_th:.2e} (<= 1e-6)")


def test_criterion_7_limits():
    # thermal -> vacuum with measured O((s/beta)^2) rate
    dr = 1.0
    vac_val = float(hadamard_array(VAC, [0, dr, 0, 0], ORIGIN))
    pts = []
    for beta in (50.0, 100.0, 200.0, 400.0, 800.0):
        th = float(hadamard_array(FieldState.thermal(beta), [0, dr, 0, 0], ORIGIN))
        pts.append((dr / beta, abs(th - vac_val) / vac_val))
    rate = fit_loglog_slope(pts).slope

    # smeared -> pointlike, equal-time branch: rel dev <= 5 (ell/s)^2.
    # The equal-position branch has exact coefficient 12 (criterion 6), so the
    # 5 (ell/s)^2 bound can only apply spatially; temporally we pin the
    # measured coefficient against 12 instead.
    worst_margin = -np.inf
    temporal_coeffs = []
    for s in (10.0, 12.5, 16.0, 20.0):
        w = wightman_smeared_closed(VAC, GaussianRegion(Event(0, s, 0, 0), 1.0),
                                    GaussianRegion(O, 1.0)).real
        p = float(hadamard_array(VAC, [0, s, 0, 0], ORIGIN))
        rel = abs(w - p) / abs(p)
        worst_margin = max(worst_margin, rel * s**2)
        wt = wightman_smeared_closed(VAC, GaussianRegion(Event(s, 0, 0, 0), 1.0),
                                     GaussianRegion(O, 1.0)).real
        pt = float(hadamard_array(VAC, [s, 0, 0, 0], ORIGIN))
        temporal_coeffs.append(abs(wt - pt) / abs(pt) * s**2)
    t_lo, t_hi = min(temporal_coeffs), max(temporal_coeffs)
    # exact temporal asymptotics: 12 + 240/s^2 + 6720/s^4 + ..., so the
    # coefficient sits in (12, 16] over s in [10, 20] and can never satisfy 5
    ok = abs(rate - 2.0) <= 0.2 and worst_margin <= 5.0 and 11.5 <= t_lo and t_hi <= 16.0
    _report(7, ok, f"thermal->vacuum measured rate {rate:.3f} (2 +- 0.2); "
                   f"smeared->pointlike spatial coeff {worst_margin:.3f} (<= 5); "
                   f"temporal coeff in [{t_lo:.2f}, {t_hi:.2f}] "
                   f"(brackets its exact value 12, not 5)")


def test_criterion_8_symmetry_suite():
    worst = 0.0
    configs = [
        (VAC, [Event(0, 0, 0, 0), Event(10, 10, 0, 0), Event(10, 0, 0, 0),
               Event(0, 10, 0, 0), Event(20, 5, 3, 0)]),
        (FieldState.thermal(50.0), [Event(0, 0, 0, 0), Event(10, 10, 0, 0),
                                    Event(0, 10, 0, 0)]),
    ]
    for state, events in configs:
        km = assemble_kernels(state, np.array([e.coords() for e in events]), 2.0)
        worst = max(worst, float(np.max(np.abs(km.H - km.H.T))))
        worst = max(worst, float(np.max(np.abs(km.E + km.E.T))))
        worst = max(worst, float(np.max(np.abs(km.Delta - (km.GR + km.GR.T)))))
        worst = max(worst, float(np.max(np.abs(km.E - (km.GR - km.GR.T)))))
    # E(Lambda, Lambda) = 2 Im W(Lambda, Lambda) = 0 for a region against itself
    self_e = abs(2.0 * wightman_smeared_closed(VAC, GaussianRegion(O, 1.0),
                                               GaussianRegion(O, 1.0)).imag)
    # coherent kernel - vacuum kernel = phi0(a) phi0(b)
    delta = 1.5
    a, b = [2.0, 5.0, 0, 0], [-1.0, 3.0, 1.0, 0]
    phi_a, phi_b = phi0_coherent_array(delta, [a, b]).tolist()
    add_dev = abs(float(hadamard_array(FieldState.coherent(delta), a, b))
                  - float(hadamard_array(VAC, a, b)) - phi_a * phi_b)
    ok = worst == 0.0 and self_e == 0.0 and add_dev <= 1e-12
    _report(8, ok, f"kernel matrix identities exact (max dev {worst:.1e}), "
                   f"E(L, L) = {self_e:.1e}, coherent additivity dev {add_dev:.2e} "
                   f"(<= 1e-12)")


def test_criterion_9_shot_noise_scaling(tmp_path):
    t0 = time.time()
    paths = scenarios.run({"scenario_id": "shot_noise_study",
                           "output_dir": str(tmp_path), "seed": 418})
    import csv
    with open(paths[0], encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    pts = [(float(r["shots"]), float(r["rms_error"])) for r in rows]
    slope = fit_loglog_slope(pts).slope
    elapsed = time.time() - t0
    ok = abs(slope + 0.5) <= 0.1 and elapsed <= 120.0
    _report(9, ok, f"reconstruction RMS error vs shots 1e3..1e7: log-log slope "
                   f"{slope:.3f} (-0.5 +- 0.1), runtime {elapsed:.1f}s (<= 2min)")


def test_criterion_10_determinism(tmp_path):
    identical = True
    for cfg in ({"scenario_id": "vacuum_curves", "s_over_ell": [2.0, 5.0, 9.0]},
                {"scenario_id": "shot_noise_study", "shots_list": [1000, 10000],
                 "repeats": 2, "seed": 7},
                {"scenario_id": "tomography_roundtrip"}):
        p1 = scenarios.run({**cfg, "output_dir": str(tmp_path / "a")})
        p2 = scenarios.run({**cfg, "output_dir": str(tmp_path / "b")})
        for f1, f2 in zip(p1, p2):
            identical = identical and f1.read_bytes() == f2.read_bytes()
    _report(10, identical, "byte-identical outputs across reruns of three scenarios "
                           "with fixed config + seed")
