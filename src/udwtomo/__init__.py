"""udwtomo: non-perturbative detector-lattice tomography of scalar-field correlators.

A numpy/scipy toolkit that simulates lattices of gapless two-level detectors
coupled to a massless scalar field in 3+1 Minkowski spacetime, evaluates the
field's smeared two-point functions for vacuum, thermal, coherent and
one-particle states, inverts exact detector correlators back into the
anticommutator kernel, and quantifies finite-region effects through a
spacetime multipole expansion.
"""

from . import (detector, errors, kernels, multipole, numerics, scenarios,
               smearing, spacetime, tomography)
from .detector import (CorrelatorTable, DensityMatrix, PauliLabel,
                       correlator_table, density_matrix, pauli_ev_closed,
                       pauli_ev_oracle, random_kernel_matrix, sample_table)
from .kernels import (FieldState, KernelMatrix, assemble_kernels,
                      F_oneparticle_array, hadamard_array, phi0_coherent_array,
                      wightman_smeared_closed, wightman_smeared_quadrature)
from .multipole import MultipoleEstimate, convergence_order, estimate
from .numerics import (QuadratureResult, SlopeFit, fit_loglog_slope,
                       integrate_semi_infinite)
from .smearing import GaussianRegion, MomentSet, evaluate, moments
from .spacetime import Event, Interval, LatticeSpec, build_lattice, intervals
from .tomography import TableReconstruction, reconstruct_table

__version__ = "0.1.0"

__all__ = [
    "detector", "errors", "kernels", "multipole", "numerics", "scenarios",
    "smearing", "spacetime", "tomography",
    "CorrelatorTable", "DensityMatrix", "PauliLabel", "correlator_table",
    "density_matrix", "pauli_ev_closed", "pauli_ev_oracle",
    "random_kernel_matrix", "sample_table",
    "FieldState", "KernelMatrix", "assemble_kernels", "F_oneparticle_array",
    "hadamard_array", "phi0_coherent_array",
    "wightman_smeared_closed", "wightman_smeared_quadrature",
    "MultipoleEstimate", "convergence_order", "estimate",
    "QuadratureResult", "SlopeFit", "fit_loglog_slope", "integrate_semi_infinite",
    "GaussianRegion", "MomentSet", "evaluate", "moments",
    "Event", "Interval", "LatticeSpec", "build_lattice", "intervals",
    "TableReconstruction", "reconstruct_table",
    "__version__",
]
