"""Quantifying the finite-probe error with the spacetime multipole expansion.

For Gaussian regions of width ell the smeared correlator differs from the
pointlike one at order ell^2 with a computable coefficient; this script
checks the vacuum correction factors against the exact smeared value and
prints the thermal second-order expansions.
"""

import numpy as np

from udwtomo import Event, FieldState, GaussianRegion, wightman_smeared_closed
from udwtomo.multipole import (estimate_array, thermal_expansion_spatial,
                               thermal_expansion_temporal,
                               vacuum_quadrupole_factor)

O = Event(0.0, 0.0, 0.0, 0.0)
VAC = FieldState.vacuum()


def main():
    ell = 1.0
    print("vacuum correction factor (smeared / pointlike) at separation s:")
    print(f"{'config':>10} {'s/ell':>6} {'exact':>10} {'multipole':>10} {'model':>10}")
    configs = [(0.0, 10.0, "spatial"), (10.0, 0.0, "temporal"),
               (0.0, 15.0, "spatial"), (15.0, 0.0, "temporal")]
    # the multipole estimate and its pointlike term W0 at every config at once
    a = np.array([[dt, dr, 0.0, 0.0] for dt, dr, _ in configs])
    mult, w0, _ = estimate_array(VAC, a, O.coords(), ell)
    for (dt, dr, label), mult_k, w0_k in zip(configs, mult.tolist(), w0.tolist()):
        ri, rj = GaussianRegion(Event(dt, dr, 0.0, 0.0), ell), GaussianRegion(O, ell)
        exact = wightman_smeared_closed(VAC, ri, rj).real / w0_k
        model = vacuum_quadrupole_factor(dt, dr, ell)
        print(f"{label:>10} {max(dt, dr):6.1f} {exact:10.5f} {mult_k / w0_k:10.5f} "
              f"{model:10.5f}")

    beta = 50.0
    print(f"\nthermal second-order expansions at beta = {beta} ell:")
    th = FieldState.thermal(beta)
    seps = [5.0, 10.0, 20.0]
    temporal = estimate_array(th, [[s, 0.0, 0.0, 0.0] for s in seps], O.coords(), ell)[0]
    spatial = estimate_array(th, [[0.0, s, 0.0, 0.0] for s in seps], O.coords(), ell)[0]
    for dt, est in zip(seps, temporal.tolist()):
        print(f"  temporal dt = {dt:4.1f}: pipeline {est:12.5e}  "
              f"closed form {thermal_expansion_temporal(beta, dt, ell):12.5e}")
    for dr, est in zip(seps, spatial.tolist()):
        print(f"  spatial  dr = {dr:4.1f}: pipeline {est:12.5e}  "
              f"closed form {thermal_expansion_spatial(beta, dr, ell):12.5e}")


if __name__ == "__main__":
    main()
