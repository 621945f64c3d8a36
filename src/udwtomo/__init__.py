"""udwtomo: non-perturbative detector-lattice tomography of scalar-field correlators.

A numpy/scipy toolkit that simulates lattices of gapless two-level detectors
coupled to a massless scalar field in 3+1 Minkowski spacetime, evaluates the
field's smeared two-point functions for vacuum, thermal, coherent and
one-particle states, inverts exact detector correlators back into the
anticommutator kernel, and quantifies finite-region effects through a
spacetime multipole expansion.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("config", "detector", "errors", "kernels", "multipole", "numerics",
               "scenarios", "smearing", "spacetime", "tomography")

# each exported name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "detector": "CorrelatorTable DensityMatrix PauliLabel correlator_table density_matrix "
                "pauli_ev_oracle random_kernel_matrix sample_table",
    "kernels": "FieldState KernelMatrix assemble_kernels F_oneparticle_array hadamard_array "
               "phi0_coherent_array wightman_smeared_closed wightman_smeared_quadrature",
    "multipole": "convergence_order",
    "numerics": "QuadratureResult SlopeFit fit_loglog_slope integrate_semi_infinite",
    "smearing": "GaussianRegion",
    "spacetime": "Event Interval LatticeSpec build_lattice intervals",
    "tomography": "TableReconstruction reconstruct_table",
}.items() for name in names.split()}

__all__ = [*_SUBMODULES, *_EXPORTS, "__version__"]


def __getattr__(name: str):
    """Import a submodule, or the one defining an exported name, on first access
    (PEP 562), so ``import udwtomo`` loads neither numpy nor scipy."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
