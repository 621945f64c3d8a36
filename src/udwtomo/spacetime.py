"""Events, intervals and lattices in 3+1 Minkowski spacetime.

Signature is (-,+,+,+), so the Synge world function

    sigma = (1/2) (x - x')^mu (x - x')_mu = (-dt^2 + dr^2) / 2

is positive for spacelike separation and negative for timelike separation;
a pair counts as lightlike where |sigma| is within ``default_lightcone_tol``.
A lattice of interaction centers is one (n, 4) coordinate array, ordered
with the time index outermost so that, for each fixed spatial site, earlier
couplings precede later ones in index order.

Importing the module loads neither numpy nor ``dataclasses``: ``Event`` and
``LatticeSpec``, named tuples, serve config checking, and the array helpers
load numpy at first use.
"""

from __future__ import annotations

import math
from collections import namedtuple

__all__ = [
    "Event",
    "Interval",
    "LatticeSpec",
    "intervals",
    "default_lightcone_tol",
    "build_lattice",
    "checked_widths",
]


class Event(namedtuple("Event", "t x y z")):
    """A spacetime point (t, x, y, z) in natural units (c = 1)."""

    __slots__ = ()

    def __new__(cls, t: float, x: float, y: float, z: float = 0.0) -> Event:
        self = super().__new__(cls, t, x, y, z)
        for name, v in zip(self._fields, self):
            if not math.isfinite(v):
                raise ValueError(f"Event.{name} must be finite")
        return self

    def coords(self) -> np.ndarray:
        """The coordinates as a length-4 array ordered (t, x, y, z)."""
        import numpy as np
        return np.array((self.t, self.x, self.y, self.z))


Interval = namedtuple("Interval", "dt dr sigma")
Interval.__doc__ = """Relative separation data for arrays of event pairs, from
``intervals``: three arrays of the pairs' broadcast shape (0-d for a single
pair), dt = t_a - t_b, the spatial distance dr >= 0 and sigma = (-dt^2 +
dr^2) / 2."""


def intervals(a: np.ndarray, b: np.ndarray) -> Interval:
    """Interval of coordinate arrays a, b of shape (..., 4), ordered (t, x, y, z)."""
    import numpy as np
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    dt = d[..., 0]
    dr = np.sqrt(d[..., 1] ** 2 + d[..., 2] ** 2 + d[..., 3] ** 2)
    return Interval(dt=dt, dr=dr, sigma=0.5 * (-dt * dt + dr * dr))


def default_lightcone_tol(itv: Interval) -> np.ndarray:
    import numpy as np
    return 1e-9 * np.maximum(np.maximum(np.abs(itv.dt), itv.dr), 1.0)


class LatticeSpec(namedtuple("LatticeSpec",
                             "n_space n_time spacing_space spacing_time origin")):
    """Regular grid of interaction centers: n_space^3 sites x n_time slices."""

    __slots__ = ()

    def __new__(cls, n_space: int, n_time: int, spacing_space: float, spacing_time: float,
                origin: Event = Event(0.0, 0.0, 0.0, 0.0)) -> LatticeSpec:
        if n_space < 1 or n_time < 1:
            raise ValueError("lattice counts must be >= 1")
        if spacing_space <= 0 or spacing_time <= 0:
            raise ValueError("lattice spacings must be strictly positive")
        return super().__new__(cls, n_space, n_time, spacing_space, spacing_time, origin)

    @property
    def n_events(self) -> int:
        return self.n_space**3 * self.n_time


def build_lattice(spec: LatticeSpec) -> np.ndarray:
    """The centers as one (n_events, 4) array of (t, x, y, z) rows, row-major
    in (time, z, y, x), time index outermost; each coordinate is origin +
    index * spacing.  Within each spatial site, index order therefore follows
    time order, so a site's earlier coupling is in the causal past of its
    later ones."""
    import numpy as np
    o, n = spec.origin, spec.n_space
    space = np.arange(n) * spec.spacing_space
    centers = np.empty((spec.n_time, n, n, n, 4))
    centers[..., 0] = (o.t + np.arange(spec.n_time) * spec.spacing_time)[:, None, None, None]
    centers[..., 1] = o.x + space
    centers[..., 2] = (o.y + space)[:, None]
    centers[..., 3] = (o.z + space)[:, None, None]
    return centers.reshape(-1, 4)


def checked_widths(base_config: tuple[float, float], ell_grid: list[float]) -> list[float]:
    """The region widths in ascending order; ValueError unless they are
    positive and the largest is at most a tenth of the separation at
    (dt, dr) = base_config, where a multipole expansion in ell holds."""
    dt, dr = base_config
    sep = math.sqrt(abs(-dt * dt + dr * dr))
    grid = sorted(ell_grid)
    if not grid or grid[0] <= 0:
        raise ValueError("ell grid must be strictly positive")
    if grid[-1] > sep / 10.0:
        raise ValueError(f"max(ell) = {grid[-1]:g} exceeds separation/10 = {sep / 10:g}")
    return grid
