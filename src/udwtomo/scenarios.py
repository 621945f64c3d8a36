"""End-to-end experiment pipelines emitting deterministic CSV artifacts.

This module holds the scenario runners and ``run``.  Configs are defaulted
and checked by ``config`` (no numpy), whose names it re-exports;
``_RUNNERS`` maps each scenario id to its runner.

Each scenario reproduces one of the study's figures or protocol checks at
desk scale: two-point-function curves against separation for the four field
states, classical-wave and wavepacket spacetime grids, the full
forward-simulate/invert tomography roundtrip on a 16-region lattice, the
multipole convergence sweep, and the shot-noise scaling study.  The lattice
scenarios share one chain: ``_lattice`` (kernels, exact table, true H per
pair), then ``_sampled_errors`` for the sampled (shots, repeat) runs.

Each curve scan evaluates all of its points in one array pass per column:
the vacuum pointlike kernel, the state's multipole estimate
(``multipole.estimate_array``, whose pointlike term is the state's kernel)
and, for the vacuum, the closed smeared kernel.  Lightlike points are masked
out first and keep their error text in the ``errors`` column.  The optional
quadrature column is the Re W of the oracle's own pair integrand
(``kernels._smeared_quadrature``, whose complex pass over one pair is
``wightman_smeared_quadrature``), every point in one adaptive pass whose
integrand is evaluated once per refinement round over every node and
point, without scipy; if that pass cannot certify the tolerance, ``run``
raises its ``ConvergenceError``.

The field grids (``_grid``) evaluate their field once per distinct
(t, |x|) and write t, x and the value as ``tables.Indexed`` columns over the
two axes and those values.

A runner computes in units of the region width ell and applies ell once on
the way out: ell^-2 on W-like cells, ell^-1 on the phi0 grid, ell on the
sweep's widths and lambda/ell as the lattice coupling.  Every output CSV
is written from its columns by ``tables.write_columns``: UTF-8 with header
row, LF line endings and 17-significant-digit floats, each distinct cell of
a column (or each value of an ``Indexed`` one) formatted once.  A curve
scan writes each kernel column as ``tables.Indexed`` over its points off
the lightcone, so a lightlike point keeps its s value and error text and
its other cells are blank (index -1).  Identical config + seed reproduces
byte-identical files.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable

import numpy as np

from . import multipole, tables, tomography
from .config import SCENARIO_IDS, ScenarioConfig, list_scenarios, validate_config
from .detector import CorrelatorTable, _pairs, correlator_table, sample_table, stack_size
from .errors import ConfigError, UdwTomoError
from .kernels import (FieldState, _lightcone_errors, _smeared_quadrature,
                      _smeared_real, _source_term, assemble_kernels, hadamard_array,
                      phi0_coherent_array, F_oneparticle_array)
from .numerics import fit_loglog_slope
from .spacetime import Event, build_lattice, intervals
from .tables import Indexed

__all__ = ["ScenarioConfig", "SCENARIO_IDS", "validate_config", "run", "list_scenarios"]

# the one CSV writer, under the name every scenario runner calls (and
# udwbench wraps): path first, then the header and the columns
_write_rows = tables.write_columns


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
    those points' events as coordinate arrays (n_ok, 4) in units of ell --
    the anchor, and the anchor moved by |s| in time (times ``temporal_sign``)
    or along x -- and the lightlike points' errors by position."""
    s = np.array([-v for v in reversed(cfg.s_values)] + list(cfg.s_values))
    anchor = cfg.anchor if cfg.anchor is not None else Event(0.0, 0.0, 0.0, 0.0)
    a = np.tile(anchor.coords(), (len(s), 1))
    b = a.copy()
    step, temporal = np.abs(s), s < 0
    b[temporal, 0] += temporal_sign * step[temporal]
    b[~temporal, 1] += step[~temporal]
    failures: dict[int, UdwTomoError] = _lightcone_errors(intervals(a, b))
    ok = np.ones(len(s), dtype=bool)
    ok[list(failures)] = False
    return s, ok, a[ok], b[ok], failures


def _write_scan(path: Path, header: list[str], s: np.ndarray, ok: np.ndarray,
                columns: list[np.ndarray], failures: dict[int, UdwTomoError]) -> None:
    """One row per scan point: s, the cells of the columns (each holding
    the points off the lightcone, in order) and an empty errors cell, or,
    for a failed point, blank cells and the error's text."""
    index = np.full(len(ok), -1)
    index[ok] = np.arange(np.count_nonzero(ok))
    errors = [""] * len(s)
    for k, exc in failures.items():
        errors[k] = f"{type(exc).__name__}: {exc}"
    _write_rows(path, header, [s, *(Indexed(values, index) for values in columns),
                               np.array(errors)])


def _run_vacuum_curves(cfg: ScenarioConfig, out: Path) -> list[Path]:
    s, ok, a, b, failures = _scan(cfg)
    itv = intervals(a, b)
    value, pointlike, _ = multipole.estimate_array(FieldState.vacuum(), a, b, 1.0)
    smeared = _smeared_real(None, itv.dt, itv.dr)
    path = out / "vacuum_curves.csv"
    _write_scan(path, ["s_over_ell", "pointlike", "smeared_closed", "multipole", "errors"],
                s, ok, [c / cfg.ell**2 for c in (pointlike, smeared, value)], failures)
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
    value, pointlike, _ = multipole.estimate_array(state, a, b, 1.0)
    cells = [vacuum, pointlike, value]
    if cfg.enable_quadrature_columns:
        header.append(quadrature_col)
        # the oracle's integrals for every pair in one certified pass
        cells.append(_smeared_quadrature(state, 1.0, a, b, cfg.tol))
    header.append("errors")
    path = out / f"{cfg.scenario_id}.csv"
    _write_scan(path, header, s, ok, [c / cfg.ell**2 for c in cells], failures)
    return [path]


def _grid(cfg: ScenarioConfig) -> tuple[Indexed, Indexed, np.ndarray, np.ndarray]:
    """The (t, x) grid in units of ell, row-major in t: its t and x columns
    as ``Indexed`` over the two axes, the events (t, |x|, 0, 0) of
    the grid of t and the distinct |x| (``Indexed.distinct`` of the x axis's
    absolute values) as one coordinate array, and the index of each
    (t, x) row's event.  The fields depend on x only through x^2, which
    takes the same bits at x and -x, so an event stands for both rows."""
    t_axis, x_axis = (np.linspace(start, stop, n) for start, stop, n in (cfg.grid_t, cfg.grid_x))
    t = Indexed(t_axis, np.repeat(np.arange(len(t_axis)), len(x_axis)))
    x = Indexed(x_axis, np.tile(np.arange(len(x_axis)), len(t_axis)))
    radius = Indexed.distinct(np.abs(x_axis))
    coords = np.zeros((len(t_axis), len(radius.values), 4))
    coords[..., 0] = t_axis[:, None]
    coords[..., 1] = radius.values
    return t, x, coords.reshape(-1, 4), t.index * len(radius.values) + radius.index[x.index]


def _run_coherent_field_grid(cfg: ScenarioConfig, out: Path) -> list[Path]:
    t, x, coords, event = _grid(cfg)
    value = phi0_coherent_array(cfg.delta, coords) / cfg.ell
    path = out / "coherent_field_grid.csv"
    _write_rows(path, ["t", "x", "value"], [t, x, Indexed(value, event)])
    return [path]


def _run_oneparticle_diff_grid(cfg: ScenarioConfig, out: Path) -> list[Path]:
    f_anchor = F_oneparticle_array(cfg.delta, cfg.anchor.coords())
    t, x, coords, event = _grid(cfg)
    value = _source_term(FieldState.one_particle(cfg.delta), f_anchor,
                         F_oneparticle_array(cfg.delta, coords)) / cfg.ell**2
    path = out / "oneparticle_diff_grid.csv"
    _write_rows(path, ["t", "x", "value"], [t, x, Indexed(value, event)])
    return [path]


def _lattice(cfg: ScenarioConfig):
    """The lattice's kernels, its exact correlator table and the true H of
    every pair i < j, row-major (the order of the table's pair vectors)."""
    km = assemble_kernels(_field_state(cfg), build_lattice(cfg.lattice), cfg.lam / cfg.ell)
    return km, correlator_table(km), km.H[_pairs(km.n)]


def _sampled_errors(exact: CorrelatorTable, h_true: np.ndarray, runs: list[tuple[int, int]],
                    seed: int) -> np.ndarray:
    """H - H_true of every pair, NaN where the inversion failed, one row per
    (shots, repeat) run: one table each, seeded by ``SeedSequence(entropy=
    seed, spawn_key=run)``, sampled and inverted in stacks of ``stack_size``."""
    errors, step = [], stack_size(exact.n)
    for first in range(0, len(runs), step):
        stack = runs[first:first + step]
        seeds = [np.random.SeedSequence(entropy=seed, spawn_key=run) for run in stack]
        rec = tomography.reconstruct_table(
            sample_table(exact, [shots for shots, _ in stack], seeds))
        errors.append(rec.H - h_true)  # H is NaN at the failed pairs
    return np.concatenate(errors)


# the flags cell of a pair, indexed by dephasing_dominated + 2 ill_conditioned
_FLAGS = np.array(["", "dephasing_dominated", "ill_conditioned",
                   "dephasing_dominated;ill_conditioned"])


def _write_reconstruction(path: Path, rec: tomography.TableReconstruction, E: np.ndarray,
                          h_true: np.ndarray) -> None:
    """One row per pair of ``rec`` (one table, every pair inverted), beside its
    true H, with W = H/2 + i E/2 from the commutator matrix ``E``.  H and Re W
    are written over one ``Indexed.distinct`` of H: its distinct values and
    their halves."""
    a, b = rec.i - 1, rec.j - 1
    labels = np.arange(1, len(E) + 1)
    h = Indexed.distinct(rec.H)
    _write_rows(path, ["i", "j", "regime", "H_reconstructed", "H_true_if_known", "C_ij",
                       "Re_W", "Im_W", "flags"],
                [Indexed(labels, a), Indexed(labels, b),
                 Indexed(np.array(["spacelike", "causal"]), rec.causal.view(np.uint8)),
                 h, h_true, rec.C, Indexed(0.5 * h.values, h.index), 0.5 * E[a, b],
                 Indexed(_FLAGS, rec.dephasing_dominated + 2 * rec.ill_conditioned)])


def _run_tomography_roundtrip(cfg: ScenarioConfig, out: Path) -> list[Path]:
    km, exact, h_true = _lattice(cfg)
    rec = tomography.reconstruct_table(exact)
    if rec.failures:
        raise next(iter(rec.failures.values()))
    rec_path = out / "reconstruction.csv"
    _write_reconstruction(rec_path, rec, km.E, h_true)
    n_pairs, n_causal = len(rec.H), int(np.count_nonzero(rec.causal))
    error, ill = np.abs(rec.H - h_true), rec.ill_conditioned
    cells = (km.n, n_pairs, n_causal, n_pairs - n_causal, np.max(error, initial=0.0),
             int(np.count_nonzero(ill)), np.max(error, initial=0.0, where=~ill))
    sum_path = out / "summary.csv"
    _write_rows(sum_path, ["n_regions", "n_pairs", "n_causal", "n_spacelike", "max_abs_H_error",
                           "n_ill_conditioned", "max_abs_H_error_unflagged"],
                [np.array([cell]) for cell in cells])
    return [rec_path, sum_path]


def _run_convergence_sweep(cfg: ScenarioConfig, out: Path) -> list[Path]:
    state = _field_state(cfg)
    table = multipole.residual_table(state, cfg.base_config, cfg.ell_grid, cfg.tol)
    fit = fit_loglog_slope(table)
    ell, resid = np.array(table).T
    path = out / "convergence_sweep.csv"
    _write_rows(path, ["ell", "residual", "slope"],
                [ell * cfg.ell, resid / cfg.ell**2, np.full(len(ell), fit.slope)])
    return [path]


def _run_shot_noise_study(cfg: ScenarioConfig, out: Path) -> list[Path]:
    _, exact, h_true = _lattice(cfg)
    runs = [(shots, rep) for shots in cfg.shots_list for rep in range(cfg.repeats)]
    rms, failed = [], []
    # each shot count's survivors, their squares summed in (repeat, pair) order
    for errors in _sampled_errors(exact, h_true, runs, cfg.seed).reshape(len(cfg.shots_list), -1):
        sq = (errors[~np.isnan(errors)] ** 2).tolist()
        rms.append(math.sqrt(sum(sq) / len(sq)) if sq else float("nan"))
        failed.append(errors.size - len(sq))
    path = out / "shot_noise_study.csv"
    _write_rows(path, ["shots", "rms_error", "n_failed"],
                [np.array(cfg.shots_list), np.array(rms), np.array(failed)])
    return [path]


_RUNNERS: dict[str, Callable[[ScenarioConfig, Path], list[Path]]] = {
    "vacuum_curves": _run_vacuum_curves,
    "thermal_curves": lambda cfg, out: _run_state_curves(
        cfg, out, FieldState.thermal(cfg.beta), 1.0, _THERMAL_COLUMNS),
    "coherent_curves": lambda cfg, out: _run_state_curves(
        cfg, out, FieldState.coherent(cfg.delta), -1.0, _STATE_COLUMNS),
    "coherent_field_grid": _run_coherent_field_grid,
    "oneparticle_curves": lambda cfg, out: _run_state_curves(
        cfg, out, FieldState.one_particle(cfg.delta), 1.0, _STATE_COLUMNS),
    "oneparticle_diff_grid": _run_oneparticle_diff_grid,
    "tomography_roundtrip": _run_tomography_roundtrip,
    "convergence_sweep": _run_convergence_sweep,
    "shot_noise_study": _run_shot_noise_study,
}


def run(config: dict | ScenarioConfig) -> list[Path]:
    """Validate (if needed) and execute a scenario; returns the written paths."""
    cfg = config if isinstance(config, ScenarioConfig) else validate_config(config)
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in its place or on its path, or no permission
        raise ConfigError(f"field 'output_dir' names no directory that can be created: {exc}",
                          field="output_dir") from exc
    try:
        return _RUNNERS[cfg.scenario_id](cfg, out)
    except OSError as exc:  # the runners open only their output files
        raise ConfigError(f"field 'output_dir' holds an output file that cannot be written: "
                          f"{exc}", field="output_dir") from exc
