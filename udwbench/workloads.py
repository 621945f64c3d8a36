"""Benchmark workloads: scenario configs made from a seed, and operation counts.

Each workload is a list of ``udwtomo.scenarios`` configs.  The seed moves
physical parameters (inverse temperature, lattice origin, scan anchors, grid
window) inside fixed ranges; pair, row and shot counts never depend on it,
so every seed asks for the same amount of work.  Every parameter the
workload depends on is spelled out, so a change of scenario defaults does
not silently change the workload.  The ``threads`` key is left unset.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from calibration import sampling_loop, scalar_loop

LAMBDA = 2.0 * math.pi
BETA_RANGE = (40.0, 60.0)        # inverse temperature, units of ell
ORIGIN_SHIFT = 5.0               # lattice origin and scan anchors move by up to this, in ell
GRID_SHIFT = 2.0                 # coherent grid window moves by up to this, in ell
SHOTS = [10**3, 10**4, 10**5, 10**6, 10**7]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: Callable[[int], list[dict]]
    calibration: Callable[[], None]     # loop closest to the workload's hot path


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return round(float(rng.uniform(lo, hi)), 6)


def _lattice(n_space: int, n_time: int, origin: dict) -> dict:
    return {"n_space": n_space, "n_time": n_time, "spacing_space": 10.0,
            "spacing_time": 10.0, "origin": origin}


def lattice_thermal(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    beta = _uniform(rng, *BETA_RANGE)
    origin = {c: _uniform(rng, -ORIGIN_SHIFT, ORIGIN_SHIFT) for c in "txyz"}
    return [{"scenario_id": "tomography_roundtrip", "state": "thermal",
             "beta": beta, "lambda": LAMBDA, "lattice": _lattice(3, 2, origin)}]


def shot_noise(seed: int) -> list[dict]:
    origin = {"t": 0.0, "x": 0.0, "y": 0.0, "z": 0.0}
    return [{"scenario_id": "shot_noise_study", "seed": seed, "state": "vacuum",
             "lambda": LAMBDA, "lattice": _lattice(2, 2, origin),
             "shots_list": list(SHOTS), "repeats": 4}]


def states_gallery(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    beta = _uniform(rng, *BETA_RANGE)
    th_anchor = {"t": _uniform(rng, -ORIGIN_SHIFT, ORIGIN_SHIFT),
                 "x": _uniform(rng, -ORIGIN_SHIFT, ORIGIN_SHIFT), "y": 0.0, "z": 0.0}
    op_anchor = {"t": -60.0 + _uniform(rng, -ORIGIN_SHIFT, ORIGIN_SHIFT),
                 "x": -60.0 + _uniform(rng, -ORIGIN_SHIFT, ORIGIN_SHIFT), "y": 0.0, "z": 0.0}
    gt, gx = (_uniform(rng, -GRID_SHIFT, GRID_SHIFT) for _ in range(2))
    return [
        {"scenario_id": "thermal_curves", "beta": beta,
         "enable_quadrature_columns": True, "anchor": th_anchor,
         "s_over_ell": {"start": 0.5, "stop": 20.0, "step": 0.25}},
        {"scenario_id": "oneparticle_curves", "delta": 10.0,
         "anchor": op_anchor, "s_over_ell": {"start": 0.5, "stop": 130.0, "step": 0.5}},
        {"scenario_id": "coherent_field_grid", "delta": 1.5,
         "grid": {"t": {"start": -12.0 + gt, "stop": 12.0 + gt, "n": 97},
                  "x": {"start": -12.0 + gx, "stop": 12.0 + gx, "n": 97}}},
        {"scenario_id": "oneparticle_diff_grid", "delta": 10.0,
         "anchor": op_anchor,
         "grid": {"t": {"start": -150.0, "stop": 150.0, "n": 101},
                  "x": {"start": -150.0, "stop": 150.0, "n": 101}}},
    ]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("lattice_thermal",
             "thermal roundtrip on a 3^3x2 lattice: 1431 pairs all by quadrature, the only "
             "workload where kernel assembly and correlator evaluation dominate",
             lattice_thermal, scalar_loop),
    Workload("shot_noise",
             "shot-noise study, 16 vacuum regions, 2400 sampled records: binomial sampling "
             "and correlator recomputation dominate, assembly is ~3%",
             shot_noise, sampling_loop),
    Workload("states_gallery",
             "thermal/one-particle curves and two field grids: ~90% multipole stencils over "
             "pointlike kernels, no detector or inversion work, ~20k CSV rows",
             states_gallery, scalar_loop),
)}


# ---------------------------------------------------------------------------
# operations: what one scenario run attempted and how much of it failed
# ---------------------------------------------------------------------------

def read_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def n_regions(cfg: dict) -> int:
    lat = cfg["lattice"]
    return lat["n_space"] ** 3 * lat["n_time"]


def _pairs(cfg: dict) -> int:
    n = n_regions(cfg)
    return n * (n - 1) // 2


def operations(cfg: dict, out: Path) -> tuple[int, int]:
    """(attempted, failed) of a scenario run that returned normally.

    An operation is a pair inversion, or a curve row (failed when its
    ``errors`` cell is set); a grid scenario counts as one operation.
    """
    sid = cfg["scenario_id"]
    if sid == "tomography_roundtrip":
        attempted = _pairs(cfg)
        return attempted, attempted - len(read_rows(out / "reconstruction.csv"))
    if sid == "shot_noise_study":
        rows = read_rows(out / "shot_noise_study.csv")
        attempted = len(cfg["shots_list"]) * cfg["repeats"] * _pairs(cfg)
        return attempted, sum(int(r["n_failed"]) for r in rows)
    if sid.endswith("_curves"):
        rows = read_rows(out / f"{sid}.csv")
        return len(rows), sum(1 for r in rows if r["errors"])
    return 1, 0
