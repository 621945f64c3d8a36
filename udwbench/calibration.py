"""Calibration loops: fixed work that measures how fast the host runs right now.

On a shared host (measured on a 2-vCPU KVM guest) CPU speed drifts between
regimes about 1.5x apart that last tens of seconds, so raw wall times of
identical runs spread by a third.  Every reported time is therefore put at a
fixed reference speed: a workload's calibration loop is timed before the
first measurement and after each one, and a measurement is scaled by
REF_S over the mean of the two loop times around it.

The regimes do not slow every kind of work alike, so each workload uses the
loop closest to its own hot path; each loop takes about REF_S.  The loops
touch nothing of the package, so a slower package still reads slower.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from typing import Callable

import numpy as np
from scipy import integrate

REF_S = 0.25   # loop time that defines the reference speed


def _integrand(u: float, k: int) -> float:
    return math.exp(-u * u) * math.cos(k * u)


def scalar_loop() -> None:
    """Scalar float math and scipy quadratures over a Python integrand: the
    kernel assembly, correlator and stencil work of the package."""
    acc = 0.0
    for i in range(1, 1_200_000):
        x = i * 1e-4
        acc += math.exp(-x) * math.cos(x) + math.sqrt(x)
    for k in range(240):
        acc += integrate.quad(_integrand, 0.0, 5.0, args=(k % 20,))[0]


def sampling_loop() -> None:
    """Seeded generator construction with one binomial draw each, plus
    products of cosines: shot-noise sampling and correlator recomputation,
    in about their shares of the shot-noise study."""
    acc = 0
    for k in range(8000):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=12345,
                                                           spawn_key=(k, 3, 1, 7)))
        acc += int(rng.binomial(100_000, 0.3))
    angles = [0.1 * i for i in range(14)]
    for _ in range(40_000):
        acc += math.prod(math.cos(2.0 * a - 0.5) for a in angles)


def timed(loop: Callable[[], None]) -> float:
    """Wall time of one loop, with the collector off so heap size cannot matter."""
    gc.disable()
    try:
        start = time.perf_counter()
        loop()
        return time.perf_counter() - start
    finally:
        gc.enable()


class Speed:
    """Scale factors to the reference speed, one per measurement."""

    def __init__(self, loop: Callable[[], None]):
        self.loop = loop
        self.loop_s = [timed(loop)]

    def factor(self) -> float:
        """Call right after a measurement: REF_S over the mean loop time just
        before and just after it."""
        self.loop_s.append(timed(self.loop))
        return REF_S / statistics.fmean(self.loop_s[-2:])
