"""Gaussian spacetime coupling regions.

A region is an isotropic spacetime Gaussian of width ell in both time and
space, normalised to unit 4-volume integral:

    Lambda(x) = exp(-((t - t_c)^2 + |x - x_c|^2) / (2 ell^2)) / ((2 pi)^2 ell^4).

Its odd multipoles vanish, its monopole is 1 and its quadrupole is ell^2 times
the 4x4 identity; ``multipole`` builds its second-order estimates on these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spacetime import Event

__all__ = ["GaussianRegion"]


@dataclass(frozen=True)
class GaussianRegion:
    """Detector coupling region: center event + spacetime width ell."""

    center: Event
    ell: float

    def __post_init__(self):
        if not (math.isfinite(self.ell) and self.ell > 0):
            raise ValueError(f"region width ell must be positive and finite, got {self.ell!r}")
