"""Correctness gates, run on a workload's outputs outside the timed region.

Each gate returns a list of failure messages; an empty list means the
outputs passed.  Reference values come from routes independent of the
code under test where possible:

* ``lattice_thermal``: the stored true H entries of a seeded sample of pairs
  are recomputed with the quadrature oracle at tol 1e-12 on regions placed
  by this module, and the roundtrip error must stay below 1e-8.
* ``shot_noise``: the log-log slope of RMS error against shots is
  -0.5 +- 0.1 (acceptance criterion 9), fitted here with numpy.
* ``states_gallery``: a seeded sample of pointlike cells is recomputed with
  mpmath (closed thermal forms, and the radial mode integrals of the
  coherent and one-particle amplitudes), and multipole cells as
  W + (ell^2/2)(tr Hess_a W + tr Hess_b W) with ``mpmath.diff`` Hessians.
"""

from __future__ import annotations

from pathlib import Path

import mpmath as mp
import numpy as np

from workloads import n_regions, read_rows

H_ORACLE_TOL = 1e-12     # quadrature tolerance of the H oracle
H_MATCH = 1e-8           # |H - oracle| allowed, the package's smeared-kernel oracle bound
ROUNDTRIP_MAX = 1e-8     # max |H_reconstructed - H_true| of an exact-correlator roundtrip
SLOPE, SLOPE_TOL = -0.5, 0.1
POINT_RTOL = 1e-9        # pointlike cells against mpmath
MULTIPOLE_RTOL = 1e-5    # multipole cells: the package differentiates by finite differences
ABS_FLOOR = 1e-15
DPS = 30


def _close(value: float, ref, rtol: float) -> bool:
    return abs(value - float(ref)) <= rtol * abs(float(ref)) + ABS_FLOOR


def _sample(rng: np.random.Generator, items: list, k: int) -> list:
    idx = sorted(rng.choice(len(items), size=min(k, len(items)), replace=False))
    return [items[i] for i in idx]


# ---------------------------------------------------------------------------
# lattice_thermal
# ---------------------------------------------------------------------------

def _lattice_centers(lat: dict) -> list[tuple[float, float, float, float]]:
    """Region centers in the scenario's index order: time slice outermost,
    then z, y, x."""
    o = {c: lat["origin"].get(c, 0.0) for c in "txyz"}
    n, a, dt = lat["n_space"], lat["spacing_space"], lat["spacing_time"]
    return [(o["t"] + it * dt, o["x"] + ix * a, o["y"] + iy * a, o["z"] + iz * a)
            for it in range(lat["n_time"]) for iz in range(n)
            for iy in range(n) for ix in range(n)]


def gate_lattice_thermal(cfgs: list[dict], outs: list[Path], seed: int) -> list[str]:
    from udwtomo import Event, FieldState, GaussianRegion, wightman_smeared_quadrature

    (cfg,), (out,) = cfgs, outs
    fails = []
    n = n_regions(cfg)
    n_pairs = n * (n - 1) // 2
    summary = read_rows(out / "summary.csv")[0]
    if (int(summary["n_regions"]), int(summary["n_pairs"])) != (n, n_pairs):
        fails.append(f"summary counts {summary['n_regions']}/{summary['n_pairs']}, "
                     f"expected {n}/{n_pairs}")
    max_err = float(summary["max_abs_H_error"])
    if not max_err <= ROUNDTRIP_MAX:
        fails.append(f"max_abs_H_error {max_err:.3e} > {ROUNDTRIP_MAX:g}")
    rows = read_rows(out / "reconstruction.csv")
    pairs = [(int(r["i"]), int(r["j"])) for r in rows]
    if pairs != [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]:
        fails.append("reconstruction.csv does not list every pair i < j once, in order")
        return fails
    for r in rows:
        err = abs(float(r["H_reconstructed"]) - float(r["H_true_if_known"]))
        if not err <= ROUNDTRIP_MAX:
            fails.append(f"pair ({r['i']},{r['j']}): |H_rec - H_true| = {err:.3e}")
            break
    centers = _lattice_centers(cfg["lattice"])
    state = FieldState.thermal(cfg["beta"])
    lam2 = cfg["lambda"] ** 2
    for r in _sample(np.random.default_rng([seed, 1]), rows, 6):
        i, j = int(r["i"]), int(r["j"])
        ri, rj = (GaussianRegion(Event(*centers[k - 1]), 1.0) for k in (i, j))
        ref = lam2 * 2.0 * wightman_smeared_quadrature(state, ri, rj, H_ORACLE_TOL).real
        got = float(r["H_true_if_known"])
        if not abs(got - ref) <= H_MATCH:
            fails.append(f"H[{i},{j}] = {got!r}, quadrature oracle {ref!r}")
    return fails


# ---------------------------------------------------------------------------
# shot_noise
# ---------------------------------------------------------------------------

def gate_shot_noise(cfgs: list[dict], outs: list[Path], seed: int) -> list[str]:
    (cfg,), (out,) = cfgs, outs
    rows = read_rows(out / "shot_noise_study.csv")
    shots = [int(r["shots"]) for r in rows]
    if shots != cfg["shots_list"]:
        return [f"shots column {shots}, expected {cfg['shots_list']}"]
    rms = np.array([float(r["rms_error"]) for r in rows])
    if not np.all(np.isfinite(rms) & (rms > 0)):
        return [f"rms_error not finite and positive: {rms.tolist()}"]
    slope = float(np.polyfit(np.log(shots), np.log(rms), 1)[0])
    if not abs(slope - SLOPE) <= SLOPE_TOL:
        return [f"RMS-vs-shots slope {slope:.3f}, expected {SLOPE} +- {SLOPE_TOL}"]
    return []


# ---------------------------------------------------------------------------
# states_gallery: mpmath references
# ---------------------------------------------------------------------------

def vacuum_point(dt, dr):
    return 1 / (4 * mp.pi**2 * (dr**2 - dt**2))


def thermal_point(beta, dt, dr):
    """Re W of the KMS state, textbook coth sum; its dr -> 0 limit in closed form."""
    if dr == 0:
        return -1 / (4 * beta**2 * mp.sinh(mp.pi * dt / beta) ** 2)
    return (mp.coth(mp.pi * (dr + dt) / beta) + mp.coth(mp.pi * (dr - dt) / beta)) / (
        8 * mp.pi * beta * dr)


def _radial_modes(integrand, decay, r, t):
    """int_0^inf integrand(k) dk for a Gaussian decay exp(-decay k^2),
    split into panels of about one oscillation period."""
    cutoff = mp.sqrt(80 / decay)
    panels = max(8, int(cutoff * (r + abs(t)) / (2 * mp.pi)) + 1)
    return mp.quad(integrand, mp.linspace(0, cutoff, panels + 1) + [mp.inf])


def oneparticle_F_modes(delta, t, r):
    """Wavepacket amplitude from its radial mode integral."""
    pref = delta**2 / (mp.pi * mp.sqrt(2))

    def g(k):
        radial = k if r == 0 else mp.sin(k * r) / r
        return pref * k * mp.exp(-delta**2 * k**2 / 2) * radial * mp.expj(-k * t)
    return _radial_modes(g, delta**2 / 2, r, t)


def oneparticle_F_closed(delta, t, r):
    """Wavepacket amplitude in closed form (imaginary error function)."""
    if r == 0:
        return oneparticle_F_modes(delta, t, r)

    def h(v, sign):
        return v * mp.exp(-v * v) * (1 + sign * 1j * mp.erfi(v)) / mp.sqrt(2 * mp.pi)
    s = mp.sqrt(2) * delta
    return (h((r - t) / s, 1) + h((r + t) / s, -1)) / (2 * r)


def coherent_phi0_modes(delta, t, r):
    """Classical wave of the Gaussian-sourced coherent state, radial mode integral."""
    pref = -delta / (mp.sqrt(2 * mp.pi) * mp.pi)

    def g(k):
        radial = k if r == 0 else mp.sin(k * r) / r
        return pref * mp.exp(-delta**2 * k**2) * mp.sin(k * t) * radial
    return _radial_modes(g, delta**2, r, t)


def _split(c):
    """(dt, dr, (t_a, r_a), (t_b, r_b)) of the event pair c = (t, x, y, z, t', x', y', z');
    r is the distance from the spatial origin, where the sources sit."""
    ta, xa, ya, za, tb, xb, yb, zb = c
    dr = mp.sqrt((xa - xb) ** 2 + (ya - yb) ** 2 + (za - zb) ** 2)
    return (ta - tb, dr, (ta, mp.sqrt(xa**2 + ya**2 + za**2)),
            (tb, mp.sqrt(xb**2 + yb**2 + zb**2)))


def thermal_pair(beta):
    def w(*c):
        dt, dr, _, _ = _split(c)
        return thermal_point(beta, dt, dr)
    return w


def oneparticle_pair(delta):
    def w(*c):
        dt, dr, (ta, ra), (tb, rb) = _split(c)
        fa, fb = oneparticle_F_closed(delta, ta, ra), oneparticle_F_closed(delta, tb, rb)
        return vacuum_point(dt, dr) + 2 * mp.re(fa * mp.conj(fb))
    return w


def multipole_reference(w, a, b, ell=1):
    """W + (ell^2 / 2) (tr Hess_a W + tr Hess_b W) with Euclidean traces."""
    point = [mp.mpf(v) for v in (*a, *b)]
    trace = 0
    for axis in range(8):
        orders = [0] * 8
        orders[axis] = 2
        trace += mp.diff(w, point, tuple(orders))
    return w(*point) + mp.mpf(ell) ** 2 / 2 * trace


def scan_events(anchor: dict, s: float) -> tuple[tuple, tuple]:
    """Curve-scan geometry: s < 0 moves |s| forward in time from the anchor,
    s > 0 moves s along x."""
    a = tuple(float(anchor.get(c, 0.0)) for c in "txyz")
    b = (a[0] + abs(s), *a[1:]) if s < 0 else (a[0], a[1] + s, *a[2:])
    return a, b


def _branch_sample(rng, rows, k):
    temporal = [r for r in rows if float(r["s_over_ell"]) < 0]
    spatial = [r for r in rows if float(r["s_over_ell"]) > 0]
    return _sample(rng, temporal, k) + _sample(rng, spatial, k)


def _check_curves(rows, expected_rows, name) -> list[str]:
    if len(rows) != expected_rows:
        return [f"{name}: {len(rows)} rows, expected {expected_rows}"]
    bad = [r["s_over_ell"] for r in rows if r["errors"]]
    return [f"{name}: errors on rows s = {bad[:5]}"] if bad else []


def _n_scan(spec: dict) -> int:
    return 2 * (int(round((spec["stop"] - spec["start"]) / spec["step"])) + 1)


def _gate_thermal_curves(cfg, out, rng) -> list[str]:
    rows = read_rows(out / "thermal_curves.csv")
    fails = _check_curves(rows, _n_scan(cfg["s_over_ell"]), "thermal_curves")
    beta = mp.mpf(cfg["beta"])
    w = thermal_pair(beta)
    for r in _branch_sample(rng, rows, 2):
        s = float(r["s_over_ell"])
        a, b = scan_events(cfg["anchor"], s)
        dt, dr, _, _ = _split([mp.mpf(v) for v in (*a, *b)])
        checks = [("vacuum_pointlike", vacuum_point(dt, dr), POINT_RTOL),
                  ("thermal_pointlike", thermal_point(beta, dt, dr), POINT_RTOL),
                  ("thermal_multipole", multipole_reference(w, a, b), MULTIPOLE_RTOL)]
        for col, ref, rtol in checks:
            if not _close(float(r[col]), ref, rtol):
                fails.append(f"thermal_curves s={s}: {col} {r[col]}, mpmath {mp.nstr(ref, 17)}")
    return fails


def _gate_oneparticle_curves(cfg, out, rng) -> list[str]:
    rows = read_rows(out / "oneparticle_curves.csv")
    fails = _check_curves(rows, _n_scan(cfg["s_over_ell"]), "oneparticle_curves")
    delta = mp.mpf(cfg["delta"])
    w = oneparticle_pair(delta)
    a0 = tuple(float(cfg["anchor"].get(c, 0.0)) for c in "txyz")
    f_anchor = oneparticle_F_modes(delta, mp.mpf(a0[0]), mp.norm(a0[1:]))
    for r in _branch_sample(rng, rows, 2):
        s = float(r["s_over_ell"])
        a, b = scan_events(cfg["anchor"], s)
        dt, dr, _, (tb, rb) = _split([mp.mpf(v) for v in (*a, *b)])
        f_b = oneparticle_F_modes(delta, tb, rb)
        point = vacuum_point(dt, dr) + 2 * mp.re(f_anchor * mp.conj(f_b))
        checks = [("state_kernel", point, POINT_RTOL),
                  ("multipole", multipole_reference(w, a, b), MULTIPOLE_RTOL)]
        for col, ref, rtol in checks:
            if not _close(float(r[col]), ref, rtol):
                fails.append(f"oneparticle_curves s={s}: {col} {r[col]}, "
                             f"mpmath {mp.nstr(ref, 17)}")
    return fails


def _grid_rows(out, name, cfg) -> tuple[list[dict], list[str]]:
    rows = read_rows(out / f"{name}.csv")
    expected = cfg["grid"]["t"]["n"] * cfg["grid"]["x"]["n"]
    return rows, ([f"{name}: {len(rows)} rows, expected {expected}"]
                  if len(rows) != expected else [])


def _gate_coherent_grid(cfg, out, rng) -> list[str]:
    rows, fails = _grid_rows(out, "coherent_field_grid", cfg)
    delta = mp.mpf(cfg["delta"])
    for r in _sample(rng, rows, 3):
        t, x = mp.mpf(r["t"]), mp.mpf(r["x"])
        ref = coherent_phi0_modes(delta, t, abs(x))
        if not _close(float(r["value"]), ref, POINT_RTOL):
            fails.append(f"coherent_field_grid ({r['t']}, {r['x']}): {r['value']}, "
                         f"mpmath {mp.nstr(ref, 17)}")
    return fails


def _gate_oneparticle_grid(cfg, out, rng) -> list[str]:
    rows, fails = _grid_rows(out, "oneparticle_diff_grid", cfg)
    delta = mp.mpf(cfg["delta"])
    a0 = tuple(float(cfg["anchor"].get(c, 0.0)) for c in "txyz")
    f_anchor = oneparticle_F_modes(delta, mp.mpf(a0[0]), mp.norm(a0[1:]))
    for r in _sample(rng, rows, 3):
        t, x = mp.mpf(r["t"]), mp.mpf(r["x"])
        ref = 2 * mp.re(f_anchor * mp.conj(oneparticle_F_modes(delta, t, abs(x))))
        if not _close(float(r["value"]), ref, POINT_RTOL):
            fails.append(f"oneparticle_diff_grid ({r['t']}, {r['x']}): {r['value']}, "
                         f"mpmath {mp.nstr(ref, 17)}")
    return fails


_GALLERY = {
    "thermal_curves": _gate_thermal_curves,
    "oneparticle_curves": _gate_oneparticle_curves,
    "coherent_field_grid": _gate_coherent_grid,
    "oneparticle_diff_grid": _gate_oneparticle_grid,
}


def gate_states_gallery(cfgs: list[dict], outs: list[Path], seed: int) -> list[str]:
    rng = np.random.default_rng([seed, 1])
    fails = []
    with mp.workdps(DPS):
        for cfg, out in zip(cfgs, outs):
            fails += _GALLERY[cfg["scenario_id"]](cfg, out, rng)
    return fails


GATES = {
    "lattice_thermal": gate_lattice_thermal,
    "shot_noise": gate_shot_noise,
    "states_gallery": gate_states_gallery,
}


def check(workload: str, cfgs: list[dict], outs: list[Path], seed: int) -> list[str]:
    """Run the workload's gate; a missing or unreadable output is a failure."""
    try:
        return GATES[workload](cfgs, outs, seed)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
