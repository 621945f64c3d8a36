"""How well do finite-sized probes see the vacuum two-point function?

Sweeps the separation between two Gaussian coupling regions of width ell and
compares three evaluations of the vacuum correlator: the pointlike kernel,
the exact smeared closed form, and the second-order multipole estimate.
Positive s/ell is a purely spatial separation, negative is purely temporal.
Finishes by measuring the multipole expansion's convergence order in ell.
"""

import numpy as np

from udwtomo import (Event, FieldState, GaussianRegion, convergence_order,
                     wightman_smeared_closed)
from udwtomo.multipole import estimate_array

ELL = 1.0
ORIGIN = Event(0.0, 0.0, 0.0, 0.0)


def main():
    print(f"{'s/ell':>7} {'pointlike':>13} {'smeared':>13} {'multipole':>13} "
          f"{'sm/pt - 1':>10}")
    vac = FieldState.vacuum()
    s_over_ell = [-20, -15, -10, -5, -2, 2, 5, 10, 15, 20]
    # temporal separation for negative s/ell, spatial for positive
    a = np.array([[abs(s) * ELL, 0.0, 0.0, 0.0] if s < 0 else [0.0, s * ELL, 0.0, 0.0]
                  for s in s_over_ell])
    # the multipole estimate and its pointlike term at every separation at once
    mult, point, _ = estimate_array(vac, a, ORIGIN.coords(), ELL)
    for s, a_k, point_k, mult_k in zip(s_over_ell, a, point.tolist(), mult.tolist()):
        ri, rj = GaussianRegion(Event(*a_k), ELL), GaussianRegion(ORIGIN, ELL)
        smeared = wightman_smeared_closed(vac, ri, rj).real
        print(f"{s:7.1f} {point_k:13.6e} {smeared:13.6e} {mult_k:13.6e} "
              f"{smeared / point_k - 1:10.4f}")

    print("\nThe smeared value converges to the pointlike one like (ell/s)^2,")
    print("with coefficient 4 spatially and 12 temporally; after subtracting")
    print("the quadrupole correction the residual falls like ell^4:")
    grid = list(np.geomspace(0.02, 0.1, 7))
    full = convergence_order(FieldState.vacuum(), (0.0, 1.0), grid, tol=1e-12)
    bare = convergence_order(FieldState.vacuum(), (0.0, 1.0), grid, tol=1e-12,
                             include_quadrupole=False)
    print(f"  residual order, full estimate:      {full.slope:+.3f}")
    print(f"  residual order, pointlike only:     {bare.slope:+.3f}")


if __name__ == "__main__":
    main()
