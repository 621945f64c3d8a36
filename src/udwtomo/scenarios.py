"""End-to-end experiment pipelines emitting deterministic CSV artifacts.

Each scenario reproduces one of the study's figures or protocol checks at
desk scale: two-point-function curves against separation for the four field
states, classical-wave and wavepacket spacetime grids, the full
forward-simulate/invert tomography roundtrip on a 16-region lattice, the
multipole convergence sweep, and the shot-noise scaling study.

Each curve scan evaluates all of its points in one array pass per column:
the vacuum pointlike kernel, the state's multipole estimate
(``multipole.estimate_array``, whose pointlike term is the state's kernel)
and, for the vacuum, the closed smeared kernel.  Lightlike points are masked
out first and keep their error text in the ``errors`` column.  The optional
quadrature column integrates the oracle's radial momentum integrals for
every point in one adaptive pass (``kernels._smeared_quadrature_real``);
only if that pass cannot certify the tolerance does the scan fall back to
one ``wightman_smeared_quadrature`` call per point, where a failing point
loses its row.

All lengths are quoted in units of the region width ell.  Output CSVs are
written by ``tables.write_rows``: UTF-8 with header row, LF line endings and
17-significant-digit floats; identical config + seed reproduces
byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path
from typing import Callable

import numpy as np

from . import multipole, tomography
from .detector import correlator_table, sample_table
from .errors import ConfigError, UdwTomoError
from .kernels import (FieldState, _lightcone_errors, _smeared_quadrature_real,
                      _smeared_real, assemble_kernels, hadamard_array,
                      phi0_coherent_array, F_oneparticle, F_oneparticle_array,
                      wightman_smeared_quadrature)
from .numerics import fit_loglog_slope
from .smearing import GaussianRegion
from .spacetime import Event, LatticeSpec, build_lattice, intervals
# the one CSV writer, under the name the scenario runners call
from .tables import column_rows, write_rows as _write_rows

__all__ = ["ScenarioConfig", "SCENARIO_IDS", "validate_config", "run", "list_scenarios"]


@dataclass
class ScenarioConfig:
    """Resolved, validated scenario parameters."""

    scenario_id: str
    output_dir: str
    seed: int
    ell: float
    tol: float  # quadrature cells and convergence_sweep only
    enable_quadrature_columns: bool
    beta: float | None = None
    delta: float | None = None
    s_values: list[float] = dc_field(default_factory=list)
    anchor: Event | None = None
    lattice: LatticeSpec | None = None
    lam: float | None = None
    state_tag: str = "vacuum"
    shots_list: list[int] = dc_field(default_factory=list)
    repeats: int = 4
    grid_t: tuple[float, float, int] | None = None
    grid_x: tuple[float, float, int] | None = None
    ell_grid: list[float] = dc_field(default_factory=list)
    base_config: tuple[float, float] | None = None


_GLOBAL_DEFAULTS: dict = {
    "output_dir": "out",
    "seed": 20250810,
    "ell": 1.0,
    "tol": 1e-10,
    "enable_quadrature_columns": False,
}

_S_DEFAULT = {"start": 0.5, "stop": 20.0, "step": 0.25}
_LATTICE_DEFAULT = {"n_space": 2, "n_time": 2, "spacing_space": 10.0,
                    "spacing_time": 10.0, "origin": {"t": 0.0, "x": 0.0, "y": 0.0, "z": 0.0}}

_SCENARIO_DEFAULTS: dict[str, dict] = {
    "vacuum_curves": {"s_over_ell": dict(_S_DEFAULT)},
    "thermal_curves": {"s_over_ell": dict(_S_DEFAULT), "beta": 50.0},
    # delta = 3/2 ell and the (t, x) = (6, -6) ell anchor follow the figure
    # caption; the body text quotes delta = 4 ell for the same plot, so the
    # width is left configurable.
    "coherent_curves": {"s_over_ell": dict(_S_DEFAULT), "delta": 1.5,
                        "anchor": {"t": 6.0, "x": -6.0, "y": 0.0, "z": 0.0}},
    "coherent_field_grid": {"delta": 1.5,
                            "grid": {"t": {"start": -12.0, "stop": 12.0, "n": 97},
                                     "x": {"start": -12.0, "stop": 12.0, "n": 97}}},
    "oneparticle_curves": {"s_over_ell": {"start": 0.5, "stop": 130.0, "step": 0.5},
                           "delta": 10.0,
                           "anchor": {"t": -60.0, "x": -60.0, "y": 0.0, "z": 0.0}},
    "oneparticle_diff_grid": {"delta": 10.0,
                              "anchor": {"t": -60.0, "x": -60.0, "y": 0.0, "z": 0.0},
                              "grid": {"t": {"start": -150.0, "stop": 150.0, "n": 101},
                                       "x": {"start": -150.0, "stop": 150.0, "n": 101}}},
    "tomography_roundtrip": {"lattice": dict(_LATTICE_DEFAULT),
                             "lambda": 2.0 * math.pi, "state": "vacuum"},
    "convergence_sweep": {"base_config": {"dt": 0.0, "dr": 1.0},
                          "ell_grid": [round(v, 10) for v in
                                       np.geomspace(0.02, 0.1, 7).tolist()],
                          "state": "vacuum", "tol": 1e-12},
    "shot_noise_study": {"lattice": dict(_LATTICE_DEFAULT), "lambda": 2.0 * math.pi,
                         "shots_list": [10**3, 10**4, 10**5, 10**6, 10**7],
                         "repeats": 4},
}

_KNOWN_KEYS = {
    "scenario_id", "output_dir", "seed", "ell", "tol",
    "enable_quadrature_columns", "beta", "delta", "s_over_ell", "anchor",
    "lattice", "lambda", "state", "shots_list", "repeats", "grid",
    "ell_grid", "base_config",
}

SCENARIO_IDS = tuple(_SCENARIO_DEFAULTS)


def _number(v, name: str, field: str | None = None) -> float:
    """v as a float; a ConfigError on ``field`` (default ``name``) unless v is
    a finite number."""
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
        raise ConfigError(f"field {name!r} must be a finite number, got {v!r}",
                          field=field or name)
    return float(v)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _require_number(raw: dict, key: str, positive: bool = False) -> float:
    v = _number(raw.get(key), key)
    if positive and v <= 0:
        raise ConfigError(f"field {key!r} must be positive, got {v!r}", field=key)
    return v


def _parse_event(d: dict, key: str) -> Event:
    if not isinstance(d, dict):
        raise ConfigError(f"field {key!r} must be an object with t/x/y/z", field=key)
    return Event(*(_number(d.get(c, 0.0), f"{key}.{c}", key) for c in "txyz"))


def _parse_s_values(raw: dict) -> list[float]:
    spec = raw["s_over_ell"]
    if isinstance(spec, list):
        vals = [_number(v, "s_over_ell") for v in spec]
    elif isinstance(spec, dict):
        try:
            start, stop, step = (_number(spec[k], f"s_over_ell.{k}", "s_over_ell")
                                 for k in ("start", "stop", "step"))
        except KeyError as exc:
            raise ConfigError("field 's_over_ell' needs start/stop/step",
                              field="s_over_ell") from exc
        if step <= 0 or stop < start:
            raise ConfigError("field 's_over_ell' range must be increasing",
                              field="s_over_ell")
        n = int(round((stop - start) / step))
        vals = [start + k * step for k in range(n + 1) if start + k * step <= stop + 1e-9]
    else:
        raise ConfigError("field 's_over_ell' must be a range object or list",
                          field="s_over_ell")
    if not vals:
        raise ConfigError("field 's_over_ell' is an empty list", field="s_over_ell")
    if any(v <= 0 for v in vals):
        raise ConfigError("field 's_over_ell' values must be strictly positive",
                          field="s_over_ell")
    return vals


def _parse_grid(raw: dict) -> tuple[tuple[float, float, int], tuple[float, float, int]]:
    grid = raw["grid"]
    out = []
    for axis in ("t", "x"):
        ax = grid.get(axis) if isinstance(grid, dict) else None
        if not isinstance(ax, dict) or not {"start", "stop", "n"} <= set(ax):
            raise ConfigError(f"field 'grid.{axis}' needs start/stop/n", field="grid")
        n = ax["n"]
        if not _is_int(n) or n < 2:
            raise ConfigError(f"field 'grid.{axis}.n' must be an integer >= 2", field="grid")
        out.append((_number(ax["start"], f"grid.{axis}.start", "grid"),
                    _number(ax["stop"], f"grid.{axis}.stop", "grid"), n))
    return out[0], out[1]


def _parse_lattice(raw: dict, ell: float) -> LatticeSpec:
    lat = raw["lattice"]
    if not isinstance(lat, dict):
        raise ConfigError("field 'lattice' must be an object", field="lattice")
    try:
        counts = [lat[k] for k in ("n_space", "n_time")]
        if not all(_is_int(n) for n in counts):
            raise TypeError(f"site counts must be integers, got {counts}")
        spec = LatticeSpec(
            n_space=counts[0], n_time=counts[1],
            spacing_space=_number(lat["spacing_space"], "lattice.spacing_space") * ell,
            spacing_time=_number(lat["spacing_time"], "lattice.spacing_time") * ell,
            origin=_parse_event(lat.get("origin", {}), "lattice.origin"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"field 'lattice': {exc}", field="lattice") from exc
    # both lattice scenarios reconstruct region pairs
    if spec.n_space**3 * spec.n_time < 2:
        raise ConfigError("field 'lattice' must have at least 2 regions, got 1",
                          field="lattice")
    return spec


def validate_config(raw: dict) -> ScenarioConfig:
    """Resolve a raw config dict (snake_case keys) against scenario defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object", field=None)
    sid = raw.get("scenario_id")
    if sid not in _SCENARIO_DEFAULTS:
        raise ConfigError(
            f"field 'scenario_id' must be one of {sorted(_SCENARIO_DEFAULTS)}, got {sid!r}",
            field="scenario_id")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}",
                          field=sorted(unknown)[0])
    merged = dict(_GLOBAL_DEFAULTS)
    merged.update(_SCENARIO_DEFAULTS[sid])
    merged.update({k: v for k, v in raw.items() if v is not None})

    seed = merged["seed"]
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"field 'seed' must be a non-negative integer, got {seed!r}",
                          field="seed")
    if not isinstance(merged["output_dir"], str):
        raise ConfigError(f"field 'output_dir' must be a string, got {merged['output_dir']!r}",
                          field="output_dir")
    quadrature_columns = merged["enable_quadrature_columns"]
    if not isinstance(quadrature_columns, bool):
        raise ConfigError("field 'enable_quadrature_columns' must be true or false, "
                          f"got {quadrature_columns!r}", field="enable_quadrature_columns")
    cfg = ScenarioConfig(
        scenario_id=sid,
        output_dir=merged["output_dir"],
        seed=seed,
        ell=_require_number(merged, "ell", positive=True),
        tol=_require_number(merged, "tol", positive=True),
        enable_quadrature_columns=quadrature_columns,
    )
    ell = cfg.ell
    if "beta" in merged and merged.get("beta") is not None:
        cfg.beta = _require_number(merged, "beta", positive=True) * ell
    if "delta" in merged and merged.get("delta") is not None:
        cfg.delta = _require_number(merged, "delta", positive=True) * ell
    if "s_over_ell" in merged:
        cfg.s_values = _parse_s_values(merged)
    if "anchor" in merged:
        a = _parse_event(merged["anchor"], "anchor")
        cfg.anchor = Event(a.t * ell, a.x * ell, a.y * ell, a.z * ell)
    if "lattice" in merged:
        cfg.lattice = _parse_lattice(merged, ell)
    if "lambda" in merged:
        cfg.lam = _require_number(merged, "lambda", positive=True)
    if "state" in merged:
        if merged["state"] not in ("vacuum", "thermal"):
            raise ConfigError("field 'state' must be 'vacuum' or 'thermal'", field="state")
        cfg.state_tag = merged["state"]
        if cfg.state_tag == "thermal" and cfg.beta is None:
            raise ConfigError("thermal state requires field 'beta'", field="beta")
    if "shots_list" in merged:
        shots = merged["shots_list"]
        if (not isinstance(shots, list) or not shots
                or any(not _is_int(s) or s < 1 for s in shots)):
            raise ConfigError("field 'shots_list' must be a non-empty list of ints >= 1",
                              field="shots_list")
        cfg.shots_list = list(shots)
    if "repeats" in merged:
        if not _is_int(merged["repeats"]) or merged["repeats"] < 1:
            raise ConfigError("field 'repeats' must be an integer >= 1", field="repeats")
        cfg.repeats = merged["repeats"]
    if "grid" in merged:
        cfg.grid_t, cfg.grid_x = _parse_grid(merged)
    if "ell_grid" in merged:
        grid = merged["ell_grid"]
        widths = sorted(_number(v, "ell_grid") for v in grid) if isinstance(grid, list) else []
        if len(widths) < 3 or widths[0] <= 0:
            raise ConfigError("field 'ell_grid' must list >= 3 positive widths",
                              field="ell_grid")
        cfg.ell_grid = [v * ell for v in widths]
    if "base_config" in merged:
        bc = merged["base_config"]
        if not isinstance(bc, dict) or not {"dt", "dr"} <= set(bc):
            raise ConfigError("field 'base_config' needs dt and dr", field="base_config")
        cfg.base_config = tuple(_number(bc[k], f"base_config.{k}", "base_config") * ell
                                for k in ("dt", "dr"))
    return cfg


def _field_state(cfg: ScenarioConfig) -> FieldState:
    if cfg.state_tag == "thermal":
        return FieldState.thermal(cfg.beta)
    return FieldState.vacuum()


# ---------------------------------------------------------------------------
# scenario runners
# ---------------------------------------------------------------------------

def _scan(cfg: ScenarioConfig, temporal_sign: float = 1.0
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray,
                     dict[int, UdwTomoError]]:
    """Anchored scan geometry: the signed s values (negative = temporal
    branch, positive = spatial), the mask of the points off the lightcone,
    those points' events as coordinate arrays (n_ok, 4) -- the anchor, and
    the anchor moved by |s| ell in time (times ``temporal_sign``) or along
    x -- and the lightlike points' errors by position."""
    s = np.array([-v for v in reversed(cfg.s_values)] + list(cfg.s_values))
    anchor = cfg.anchor if cfg.anchor is not None else Event(0.0, 0.0, 0.0, 0.0)
    a = np.tile(anchor.coords(), (len(s), 1))
    b = a.copy()
    step, temporal = np.abs(s) * cfg.ell, s < 0
    b[temporal, 0] += temporal_sign * step[temporal]
    b[~temporal, 1] += step[~temporal]
    failures: dict[int, UdwTomoError] = _lightcone_errors(intervals(a, b))
    ok = np.ones(len(s), dtype=bool)
    ok[list(failures)] = False
    return s, ok, a[ok], b[ok], failures


def _scattered(ok: np.ndarray, values: np.ndarray) -> list[float]:
    # a column over every scan point; the masked points' cells are never written
    full = np.full(len(ok), np.nan)
    full[ok] = values
    return full.tolist()


def _scan_rows(s: np.ndarray, columns: list[list], failures: dict[int, UdwTomoError]
               ) -> list[list]:
    """One row per scan point: s, the columns' cells and an empty errors
    cell, or, for a failed point, blank cells and the error's text."""
    rows = []
    for k, (s_k, *cells) in enumerate(zip(s.tolist(), *columns)):
        exc = failures.get(k)
        rows.append([s_k, *cells, ""] if exc is None else
                    [s_k, *[""] * len(cells), f"{type(exc).__name__}: {exc}"])
    return rows


def _run_vacuum_curves(cfg: ScenarioConfig, out: Path) -> list[Path]:
    s, ok, a, b, failures = _scan(cfg)
    itv = intervals(a, b)
    value, pointlike, _ = multipole.estimate_array(FieldState.vacuum(), a, b, cfg.ell)
    smeared = _smeared_real(None, cfg.ell, itv.dt, itv.dr)
    columns = [_scattered(ok, v) for v in (pointlike, smeared, value)]
    path = out / "vacuum_curves.csv"
    _write_rows(path, ["s_over_ell", "pointlike", "smeared_closed", "multipole", "errors"],
                _scan_rows(s, columns, failures))
    return [path]


_STATE_COLUMNS = ("state_kernel", "multipole", "smeared_quadrature")
_THERMAL_COLUMNS = ("thermal_pointlike", "thermal_multipole", "thermal_smeared_quadrature")


def _run_state_curves(cfg: ScenarioConfig, out: Path, state: FieldState,
                      temporal_sign: float, columns: tuple[str, str, str]) -> list[Path]:
    """Vacuum and state pointlike kernels plus the state's multipole estimate
    (and optionally its smeared quadrature) along the anchored scan."""
    kernel_col, multipole_col, quadrature_col = columns
    header = ["s_over_ell", "vacuum_pointlike", kernel_col, multipole_col]
    s, ok, a, b, failures = _scan(cfg, temporal_sign)
    vacuum = hadamard_array(FieldState.vacuum(), a, b)
    value, pointlike, _ = multipole.estimate_array(state, a, b, cfg.ell)
    cells = [_scattered(ok, v) for v in (vacuum, pointlike, value)]
    if cfg.enable_quadrature_columns:
        header.append(quadrature_col)
        try:
            # the oracle's integrals for every pair in one certified pass
            quadrature = _scattered(ok, _smeared_quadrature_real(state, cfg.ell, a, b, cfg.tol))
        except UdwTomoError:
            # uncertified: one oracle call per pair, a failing pair fails its row
            quadrature = [None] * len(s)
            for k, a_k, b_k in zip(np.flatnonzero(ok).tolist(), a.tolist(), b.tolist()):
                ri = GaussianRegion(Event(*a_k), cfg.ell)
                rj = GaussianRegion(Event(*b_k), cfg.ell)
                try:
                    quadrature[k] = wightman_smeared_quadrature(state, ri, rj, cfg.tol).real
                except UdwTomoError as exc:
                    failures[k] = exc
        cells.append(quadrature)
    header.append("errors")
    path = out / f"{cfg.scenario_id}.csv"
    _write_rows(path, header, _scan_rows(s, cells, failures))
    return [path]


def _grid(cfg: ScenarioConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(t, x) grid values in units of ell, row-major in t, and the events
    (t ell, x ell, 0, 0) as one coordinate array."""
    axes = [np.linspace(start, stop, n) for start, stop, n in (cfg.grid_t, cfg.grid_x)]
    t, x = (g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
    coords = np.zeros((t.size, 4))
    coords[:, 0] = t * cfg.ell
    coords[:, 1] = x * cfg.ell
    return t, x, coords


def _run_coherent_field_grid(cfg: ScenarioConfig, out: Path) -> list[Path]:
    t, x, coords = _grid(cfg)
    value = phi0_coherent_array(cfg.delta, coords)
    path = out / "coherent_field_grid.csv"
    _write_rows(path, ["t", "x", "value"], column_rows(t, x, value))
    return [path]


def _run_oneparticle_diff_grid(cfg: ScenarioConfig, out: Path) -> list[Path]:
    f_anchor = F_oneparticle(cfg.delta, cfg.anchor)
    t, x, coords = _grid(cfg)
    f = F_oneparticle_array(cfg.delta, coords)
    # 2 Re(F(anchor) conj(F(x)))
    value = 2.0 * (f_anchor.real * f.real + f_anchor.imag * f.imag)
    path = out / "oneparticle_diff_grid.csv"
    _write_rows(path, ["t", "x", "value"], column_rows(t, x, value))
    return [path]


def _lattice_kernels(cfg: ScenarioConfig):
    events = build_lattice(cfg.lattice)
    regions = [GaussianRegion(e, cfg.ell) for e in events]
    return assemble_kernels(_field_state(cfg), regions, cfg.lam)


def _run_tomography_roundtrip(cfg: ScenarioConfig, out: Path) -> list[Path]:
    km = _lattice_kernels(cfg)
    rec = tomography.reconstruct_table(correlator_table(km))
    if rec.failures:
        raise next(iter(rec.failures.values()))
    max_err = float(np.max(np.abs(rec.H - km.H[rec.i - 1, rec.j - 1]), initial=0.0))
    rec_path = out / "reconstruction.csv"
    tomography.write_reconstruction_results(rec, km.E, rec_path, h_true=km.H)
    n_pairs, n_causal = len(rec.H), int(np.count_nonzero(rec.causal))
    sum_path = out / "summary.csv"
    _write_rows(sum_path, ["n_regions", "n_pairs", "n_causal", "n_spacelike",
                           "max_abs_H_error"],
                [[km.n, n_pairs, n_causal, n_pairs - n_causal, max_err]])
    return [rec_path, sum_path]


def _run_convergence_sweep(cfg: ScenarioConfig, out: Path) -> list[Path]:
    state = _field_state(cfg)
    table = multipole.residual_table(state, cfg.base_config, cfg.ell_grid, cfg.tol)
    fit = fit_loglog_slope(table)
    rows = [[ell, resid, fit.slope] for ell, resid in table]
    path = out / "convergence_sweep.csv"
    _write_rows(path, ["ell", "residual", "slope"], rows)
    return [path]


def _run_shot_noise_study(cfg: ScenarioConfig, out: Path) -> list[Path]:
    km = _lattice_kernels(cfg)
    exact = correlator_table(km)
    a, b = np.triu_indices(km.n, 1)
    h_true = km.H[a, b]
    rows = []
    for shots in cfg.shots_list:
        sq_errors, n_failed = [], 0
        for rep in range(cfg.repeats):
            # one sampled table per repeat, shared by all of its pairs
            seq = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(shots, rep))
            rec = tomography.reconstruct_table(sample_table(exact, shots, seq))
            ok = rec.ok
            n_failed += len(rec.failures)
            sq_errors += ((rec.H[ok] - h_true[ok]) ** 2).tolist()
        rms = math.sqrt(sum(sq_errors) / len(sq_errors)) if sq_errors else float("nan")
        rows.append([shots, rms, n_failed])
    path = out / "shot_noise_study.csv"
    _write_rows(path, ["shots", "rms_error", "n_failed"], rows)
    return [path]


_RUNNERS: dict[str, tuple[Callable, str]] = {
    "vacuum_curves": (_run_vacuum_curves,
                      "vacuum two-point curves: pointlike vs smeared vs multipole"),
    "thermal_curves": (lambda cfg, out: _run_state_curves(
                           cfg, out, FieldState.thermal(cfg.beta), 1.0, _THERMAL_COLUMNS),
                       "thermal-state curves at inverse temperature beta"),
    "coherent_curves": (lambda cfg, out: _run_state_curves(
                            cfg, out, FieldState.coherent(cfg.delta), -1.0, _STATE_COLUMNS),
                        "coherent-state curves scanned from a fixed anchor event"),
    "coherent_field_grid": (_run_coherent_field_grid,
                            "classical source wave on a (t, x) grid"),
    "oneparticle_curves": (lambda cfg, out: _run_state_curves(
                               cfg, out, FieldState.one_particle(cfg.delta), 1.0,
                               _STATE_COLUMNS),
                           "one-particle wavepacket curves from a fixed anchor event"),
    "oneparticle_diff_grid": (_run_oneparticle_diff_grid,
                              "wavepacket minus vacuum correlation on a (t, x) grid"),
    "tomography_roundtrip": (_run_tomography_roundtrip,
                             "forward-simulate a detector lattice and invert it"),
    "convergence_sweep": (_run_convergence_sweep,
                          "multipole residual vs region width with fitted order"),
    "shot_noise_study": (_run_shot_noise_study,
                         "reconstruction RMS error against measurement shots"),
}


def list_scenarios() -> list[tuple[str, str]]:
    return [(sid, _RUNNERS[sid][1]) for sid in SCENARIO_IDS]


def run(config: dict | ScenarioConfig) -> list[Path]:
    """Validate (if needed) and execute a scenario; returns the written paths."""
    cfg = config if isinstance(config, ScenarioConfig) else validate_config(config)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner, _ = _RUNNERS[cfg.scenario_id]
    return runner(cfg, out)
