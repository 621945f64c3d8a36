"""Events, intervals and causal structure in 3+1 Minkowski spacetime.

Signature is (-,+,+,+), so the Synge world function

    sigma = (1/2) (x - x')^mu (x - x')_mu = (-dt^2 + dr^2) / 2

is positive for spacelike separation.  Lattices of interaction centers are
ordered with the time index outermost so that, for each fixed spatial site,
earlier couplings precede later ones in index order.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Event",
    "Interval",
    "LatticeSpec",
    "Separation",
    "interval",
    "intervals",
    "classify",
    "default_lightcone_tol",
    "build_lattice",
]


@dataclass(frozen=True)
class Event:
    """A spacetime point (t, x, y, z) in natural units (c = 1)."""

    t: float
    x: float
    y: float
    z: float = 0.0

    def __post_init__(self):
        for name in ("t", "x", "y", "z"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"Event.{name} must be finite")

    def spatial_distance(self, other: "Event") -> float:
        return math.sqrt((self.x - other.x) ** 2 + (self.y - other.y) ** 2
                         + (self.z - other.z) ** 2)

    def coords(self) -> np.ndarray:
        """The coordinates as a length-4 array ordered (t, x, y, z)."""
        return np.array((self.t, self.x, self.y, self.z))


@dataclass(frozen=True)
class Interval:
    """Relative separation data for an ordered pair of events (floats), or
    for arrays of event pairs (arrays of one shape, from ``intervals``)."""

    dt: float     # t_a - t_b
    dr: float     # spatial distance, >= 0
    sigma: float  # (-dt^2 + dr^2) / 2


class Separation(enum.Enum):
    SPACELIKE = "spacelike"
    TIMELIKE_FUTURE = "timelike_future"
    TIMELIKE_PAST = "timelike_past"
    LIGHTLIKE = "lightlike"


def interval(a: Event, b: Event) -> Interval:
    dt = a.t - b.t
    dr = a.spatial_distance(b)
    return Interval(dt=dt, dr=dr, sigma=0.5 * (-dt * dt + dr * dr))


def intervals(a: np.ndarray, b: np.ndarray) -> Interval:
    """Interval of coordinate arrays a, b of shape (..., 4), ordered (t, x, y, z).

    Elementwise the same arithmetic as ``interval``.
    """
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    dt = d[..., 0]
    dr = np.sqrt(d[..., 1] ** 2 + d[..., 2] ** 2 + d[..., 3] ** 2)
    return Interval(dt=dt, dr=dr, sigma=0.5 * (-dt * dt + dr * dr))


def default_lightcone_tol(itv: Interval) -> float:
    return 1e-9 * np.maximum(np.maximum(np.abs(itv.dt), itv.dr), 1.0)


def classify(a: Event, b: Event, lightcone_tol: float | None = None) -> Separation:
    """Causal classification of a relative to b.

    TIMELIKE_FUTURE means a lies in the chronological future of b.
    """
    itv = interval(a, b)
    tol = default_lightcone_tol(itv) if lightcone_tol is None else lightcone_tol
    if tol < 0:
        raise ValueError("lightcone_tol must be >= 0")
    if abs(itv.sigma) <= tol:
        return Separation.LIGHTLIKE
    if itv.sigma > 0:
        return Separation.SPACELIKE
    return Separation.TIMELIKE_FUTURE if itv.dt > 0 else Separation.TIMELIKE_PAST


@dataclass(frozen=True)
class LatticeSpec:
    """Regular grid of interaction centers: n_space^3 sites x n_time slices."""

    n_space: int
    n_time: int
    spacing_space: float
    spacing_time: float
    origin: Event = Event(0.0, 0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.n_space < 1 or self.n_time < 1:
            raise ValueError("lattice counts must be >= 1")
        if self.spacing_space <= 0 or self.spacing_time <= 0:
            raise ValueError("lattice spacings must be strictly positive")

    @property
    def n_events(self) -> int:
        return self.n_space**3 * self.n_time


def build_lattice(spec: LatticeSpec) -> list[Event]:
    """Events in row-major (time, z, y, x) order, time index outermost.

    Within each spatial site, index order therefore follows time order, so a
    site's earlier coupling is always in the causal past of its later ones.
    """
    o = spec.origin
    events = []
    for it in range(spec.n_time):
        t = o.t + it * spec.spacing_time
        for iz in range(spec.n_space):
            for iy in range(spec.n_space):
                for ix in range(spec.n_space):
                    events.append(Event(
                        t,
                        o.x + ix * spec.spacing_space,
                        o.y + iy * spec.spacing_space,
                        o.z + iz * spec.spacing_space,
                    ))
    return events
