"""Full tomography protocol on a 16-region detector lattice, end to end.

Builds a 2x2x2 spatial lattice of gapless detectors that couple twice (two
time slices 10 ell apart), computes their exact post-interaction correlators
from the closed forms, and inverts those correlators back into the smeared
anticommutator kernel -- first exactly, then under shot noise.
"""

import math

import numpy as np

from udwtomo import (FieldState, LatticeSpec, assemble_kernels, build_lattice,
                     correlator_table, reconstruct_table, sample_table)

SEED = 12

def main():
    # lengths in units of the region width ell
    spec = LatticeSpec(n_space=2, n_time=2, spacing_space=10.0, spacing_time=10.0)
    # coupling chosen so the local noise H_ii is 0.5: correlators stay well
    # inside the invertible regime
    km = assemble_kernels(FieldState.vacuum(), build_lattice(spec), lam=2 * math.pi)
    print(f"{km.n} regions, H_ii = {km.H[0, 0]:.3f}, "
          f"strongest cross kernel |H_ij| = {np.abs(km.H - np.diag(np.diag(km.H))).max():.4f}, "
          f"strongest causal link |G_ij| = {np.abs(km.GR).max():.4f}")

    # every correlator the inversion reads, each stored once for the lattice,
    # and every pair i < j inverted from it in one array pass
    exact = correlator_table(km)
    rec = reconstruct_table(exact)
    h_true = km.H[rec.i - 1, rec.j - 1]
    print(f"exact correlators: {len(rec.H)} pairs ({np.count_nonzero(rec.causal)} causal), "
          f"max |H_rec - H_true| = {np.abs(rec.H - h_true).max():.2e}")

    print("\nwith shot noise (RMS error over the inverted pairs, one sampled table "
          "per shot count):")
    for shots in (10**3, 10**4, 10**5, 10**6):
        noisy = reconstruct_table(sample_table(exact, shots, seed=SEED))
        ok = noisy.ok
        rms = math.sqrt(np.mean((noisy.H[ok] - h_true[ok]) ** 2))
        print(f"  shots = {shots:>8}: rms = {rms:.2e} ({len(noisy.failures)} pairs failed)")

if __name__ == "__main__":
    main()
