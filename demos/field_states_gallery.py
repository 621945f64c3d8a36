"""Two-point functions of the four supported field states, side by side.

Evaluates the correlator against separation for the vacuum, a thermal state
(beta = 50 ell), a Gaussian-sourced coherent state and a one-particle
wavepacket, illustrating where each state departs from the vacuum: thermal
enhancement at large separation, and lightcone-localised excess correlation
for the sourced states.
"""

import numpy as np

from udwtomo import FieldState, F_oneparticle_array, hadamard_array, phi0_coherent_array

O = np.zeros(4)


def scan(anchor, s):
    """The events (t, x, y, z) reached from ``anchor`` by moving s along x."""
    b = np.tile(anchor, (len(s), 1))
    b[:, 1] += s
    return b


def main():
    vac = FieldState.vacuum()
    th = FieldState.thermal(50.0)
    print("thermal vs vacuum at equal time (beta = 50 ell):")
    print(f"{'s/ell':>6} {'vacuum':>12} {'thermal':>12} {'ratio':>7}")
    s = [1.0, 5.0, 10.0, 20.0, 40.0]
    a = scan(O, s)
    vacuum, thermal = hadamard_array(vac, a, O), hadamard_array(th, a, O)
    for s_k, v, t in zip(s, vacuum.tolist(), thermal.tolist()):
        print(f"{s_k:6.1f} {v:12.5e} {t:12.5e} {t / v:7.3f}")

    print("\ncoherent state (delta = 1.5 ell): classical wave along a scan")
    print("from the anchor (t, x) = (6, -6) ell; the product phi0(a) phi0(b)")
    print("is the whole departure from the vacuum:")
    coh = FieldState.coherent(1.5)
    anchor = np.array([6.0, -6.0, 0.0, 0.0])
    print(f"{'s/ell':>6} {'vacuum':>12} {'coherent':>12} {'phi0(b)':>12}")
    s = [2.0, 6.0, 11.0, 12.0, 13.0, 18.0]
    b = scan(anchor, s)
    columns = (hadamard_array(vac, anchor, b), hadamard_array(coh, anchor, b),
               phi0_coherent_array(1.5, b))
    for s_k, v, c, p in zip(s, *(col.tolist() for col in columns)):
        print(f"{s_k:6.1f} {v:12.5e} {c:12.5e} {p:12.5e}")

    print("\none-particle wavepacket (delta = 10 ell): excess correlation")
    print("peaks where the scan meets the wavepacket's lightcone (s ~ 120):")
    one = FieldState.one_particle(10.0)
    anchor = np.array([-60.0, -60.0, 0.0, 0.0])
    print(f"{'s/ell':>6} {'vacuum':>12} {'one-particle':>13} {'|F(b)|':>10}")
    s = [40.0, 80.0, 110.0, 120.0, 130.0]
    b = scan(anchor, s)
    columns = (hadamard_array(vac, anchor, b), hadamard_array(one, anchor, b),
               np.abs(F_oneparticle_array(10.0, b)))
    for s_k, v, w, f in zip(s, *(col.tolist() for col in columns)):
        print(f"{s_k:6.1f} {v:12.5e} {w:13.5e} {f:10.3e}")


if __name__ == "__main__":
    main()
