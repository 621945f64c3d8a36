"""Full tomography protocol on a 16-region detector lattice, end to end.

Builds a 2x2x2 spatial lattice of gapless detectors that couple twice (two
time slices 10 ell apart), computes their exact post-interaction correlators
from the closed forms, and inverts those correlators back into the smeared
anticommutator kernel -- first exactly, then under shot noise.
"""

import math

import numpy as np

from udwtomo import (FieldState, GaussianRegion, LatticeSpec, assemble_kernels,
                     build_lattice, correlator_table, reconstruct_record,
                     sample_table)

ELL = 1.0
SEED = 12

def main():
    spec = LatticeSpec(n_space=2, n_time=2, spacing_space=10 * ELL,
                       spacing_time=10 * ELL)
    regions = [GaussianRegion(e, ELL) for e in build_lattice(spec)]
    # coupling chosen so the local noise H_ii is 0.5: correlators stay well
    # inside the invertible regime
    km = assemble_kernels(FieldState.vacuum(), regions, lam=2 * math.pi, tol=1e-12)
    E = km.E
    print(f"{km.n} regions, H_ii = {km.H[0, 0]:.3f}, "
          f"strongest cross kernel |H_ij| = {np.abs(km.H - np.diag(np.diag(km.H))).max():.4f}, "
          f"strongest causal link |G_ij| = {np.abs(km.GR).max():.4f}")

    # every correlator the inversion reads, each stored once for the lattice
    exact = correlator_table(km)
    pairs = [(i, j) for i in range(1, km.n + 1) for j in range(i + 1, km.n + 1)]
    errs, causal = [], 0
    for i, j in pairs:
        res = reconstruct_record(exact, i, j, E[i - 1, j - 1])
        errs.append(abs(res.H_ij_reconstructed - km.H[i - 1, j - 1]))
        causal += res.regime == "causal"
    print(f"exact correlators: {len(errs)} pairs ({causal} causal), "
          f"max |H_rec - H_true| = {max(errs):.2e}")

    print("\nwith shot noise (RMS error over all pairs, one sampled table per shot count):")
    for shots in (10**3, 10**4, 10**5, 10**6):
        noisy = sample_table(exact, shots, seed=SEED)
        sq = [(reconstruct_record(noisy, i, j, E[i - 1, j - 1]).H_ij_reconstructed
               - km.H[i - 1, j - 1]) ** 2 for i, j in pairs]
        print(f"  shots = {shots:>8}: rms = {math.sqrt(sum(sq) / len(sq)):.2e}")


if __name__ == "__main__":
    main()
