"""Scenario configs: defaults, parsing and validation, without numpy.

A config is a JSON object naming one of ``SCENARIO_IDS`` and overriding its
defaults; ``validate_config`` resolves it into a ``ScenarioConfig``, lengths
in units of the region width ell as written, or raises ``ConfigError``
naming the field.
Checking a config and listing the scenarios import only the standard
library, and not ``dataclasses`` nor the ``inspect`` it loads (the records
are a namespace and named tuples); ``scenarios.run`` brings in numpy.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

from .errors import ConfigError
from .spacetime import Event, LatticeSpec, checked_widths

__all__ = ["ScenarioConfig", "SCENARIO_IDS", "validate_config", "list_scenarios"]


class ScenarioConfig(SimpleNamespace):
    """Resolved, validated scenario parameters; ``validate_config`` sets the
    fields past the six global ones that a scenario reads."""

    def __init__(self, scenario_id: str, output_dir: str, seed: int, ell: float, tol: float,
                 enable_quadrature_columns: bool):
        self.scenario_id = scenario_id
        self.output_dir = output_dir
        self.seed = seed
        self.ell = ell
        self.tol = tol  # quadrature cells and convergence_sweep only
        self.enable_quadrature_columns = enable_quadrature_columns
        self.beta: float | None = None
        self.delta: float | None = None
        self.s_values: list[float] = []
        self.anchor: Event | None = None
        self.lattice: LatticeSpec | None = None
        self.lam: float | None = None
        self.state_tag = "vacuum"
        self.shots_list: list[int] = []
        self.repeats = 4
        self.grid_t: tuple[float, float, int] | None = None
        self.grid_x: tuple[float, float, int] | None = None
        self.ell_grid: list[float] = []
        self.base_config: tuple[float, float] | None = None


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
    # seven widths geometric from 0.02 to 0.1 ell, the values of
    # np.geomspace(0.02, 0.1, 7) rounded to 10 decimals
    "convergence_sweep": {"base_config": {"dt": 0.0, "dr": 1.0},
                          "ell_grid": [round(0.02 * 5 ** (k / 6), 10) for k in range(7)],
                          "state": "vacuum", "tol": 1e-12},
    "shot_noise_study": {"lattice": dict(_LATTICE_DEFAULT), "lambda": 2.0 * math.pi,
                         "shots_list": [10**3, 10**4, 10**5, 10**6, 10**7],
                         "repeats": 4, "state": "vacuum"},
}

_DESCRIPTIONS = {
    "vacuum_curves": "vacuum two-point curves: pointlike vs smeared vs multipole",
    "thermal_curves": "thermal-state curves at inverse temperature beta",
    "coherent_curves": "coherent-state curves scanned from a fixed anchor event",
    "coherent_field_grid": "classical source wave on a (t, x) grid",
    "oneparticle_curves": "one-particle wavepacket curves from a fixed anchor event",
    "oneparticle_diff_grid": "wavepacket minus vacuum correlation on a (t, x) grid",
    "tomography_roundtrip": "forward-simulate a detector lattice and invert it",
    "convergence_sweep": "multipole residual vs region width with fitted order",
    "shot_noise_study": "reconstruction RMS error against measurement shots",
}


def _allowed_keys(sid: str) -> set[str]:
    """The keys a scenario reads: the global ones and its own defaults; a
    curve scan (an ``s_over_ell`` default) also takes an ``anchor``, and a
    scenario with a ``state`` takes ``beta``, for the thermal state only."""
    defaults = _SCENARIO_DEFAULTS[sid]
    return {"scenario_id", *_GLOBAL_DEFAULTS, *defaults,
            *(["anchor"] if "s_over_ell" in defaults else []),
            *(["beta"] if "state" in defaults else [])}


SCENARIO_IDS = tuple(_SCENARIO_DEFAULTS)


def list_scenarios() -> list[tuple[str, str]]:
    return [(sid, _DESCRIPTIONS[sid]) for sid in SCENARIO_IDS]


def _number(v, name: str, field: str | None = None) -> float:
    """v as a float; a ConfigError on ``field`` (default ``name``) unless v is
    a finite number."""
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
        raise ConfigError(f"field {name!r} must be a finite number, got {v!r}",
                          field=field or name)
    return float(v)


# the largest shot count a binomial draw takes (its count is an int64)
MAX_SHOTS = (1 << 63) - 1
# the most points a curve scan or a field grid takes, and the most region
# pairs a lattice has: a run holds arrays over all of them at once, so a
# larger count is refused here rather than failing for memory mid-run
MAX_POINTS = 10**6


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _require_number(raw: dict, key: str) -> float:
    v = _number(raw.get(key), key)
    if v <= 0:
        raise ConfigError(f"field {key!r} must be positive, got {v!r}", field=key)
    return v


# The bound on every length of a config (units of ell), and on the inverse
# widths 1/beta and 1/delta.  No kernel takes more than a fourth power of a
# length or its inverse (1/(dr^2 - dt^2)^2 in the second time derivatives,
# 1/delta^4 in the sourced products), and coordinates stay within ~1.4e3
# bounds (lattice sites per axis), so those powers stay below ~1e135.  The
# thermal image count, ~(1/beta)^10, is capped before that power is taken.
# ell itself (in the config's own unit) has the widths' range, so the
# prefactor ell^-2 a run applies stays within 1e+-60 and its outputs finite.
LENGTH_BOUND = 1e30


def _length(v, name: str, field: str | None = None, width: bool = False) -> float:
    """v as a float within the length bound: |v| at most ``LENGTH_BOUND``, and
    a ``width`` at least its reciprocal (so positive).  A ConfigError on
    ``field`` (default ``name``) otherwise."""
    v = _number(v, name, field)
    low = 1.0 / LENGTH_BOUND if width else 0.0
    if not low <= (v if width else abs(v)) <= LENGTH_BOUND:
        raise ConfigError(f"field {name!r} must lie in [{low:g}, {LENGTH_BOUND:g}]"
                          f"{'' if width else ' in magnitude'}, got {v!r}", field=field or name)
    return v


def _check_keys(d: dict, allowed: tuple[str, ...], name: str,
                field: str | None = None) -> None:
    # an unknown key inside the object ``name`` is a ConfigError on ``field``
    # (default ``name``)
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"field {name!r} takes only {list(allowed)}, got unknown "
                          f"{unknown}", field=field or name)


def _parse_event(d: dict, key: str) -> Event:
    if not isinstance(d, dict):
        raise ConfigError(f"field {key!r} must be an object with t/x/y/z", field=key)
    _check_keys(d, ("t", "x", "y", "z"), key)
    return Event(*(_length(d.get(c, 0.0), f"{key}.{c}", key) for c in "txyz"))


def _parse_s_values(raw: dict) -> list[float]:
    spec = raw["s_over_ell"]
    if isinstance(spec, list):
        vals = [_number(v, "s_over_ell") for v in spec]
    elif isinstance(spec, dict):
        _check_keys(spec, ("start", "stop", "step"), "s_over_ell")
        try:
            start, stop, step = (_number(spec[k], f"s_over_ell.{k}", "s_over_ell")
                                 for k in ("start", "stop", "step"))
        except KeyError as exc:
            raise ConfigError("field 's_over_ell' needs start/stop/step",
                              field="s_over_ell") from exc
        if step <= 0 or stop < start:
            raise ConfigError("field 's_over_ell' range must be increasing",
                              field="s_over_ell")
        span = (stop - start) / step  # inf when step underflows it
        if not span < MAX_POINTS:  # before a value is built
            raise ConfigError(f"field 's_over_ell' range has more than {MAX_POINTS} points",
                              field="s_over_ell")
        n = int(round(span))
        vals = [start + k * step for k in range(n + 1) if start + k * step <= stop + 1e-9]
    else:
        raise ConfigError("field 's_over_ell' must be a range object or list",
                          field="s_over_ell")
    if not vals:
        raise ConfigError("field 's_over_ell' is an empty list", field="s_over_ell")
    _length(max(vals), "s_over_ell")
    if len(vals) > MAX_POINTS:
        raise ConfigError(f"field 's_over_ell' has {len(vals)} points, more than {MAX_POINTS}",
                          field="s_over_ell")
    if any(v <= 0 for v in vals):
        raise ConfigError("field 's_over_ell' values must be strictly positive",
                          field="s_over_ell")
    return vals


def _parse_grid(raw: dict) -> tuple[tuple[float, float, int], tuple[float, float, int]]:
    grid = raw["grid"]
    if isinstance(grid, dict):
        _check_keys(grid, ("t", "x"), "grid")
    out = []
    for axis in ("t", "x"):
        ax = grid.get(axis) if isinstance(grid, dict) else None
        if not isinstance(ax, dict) or not {"start", "stop", "n"} <= set(ax):
            raise ConfigError(f"field 'grid.{axis}' needs start/stop/n", field="grid")
        _check_keys(ax, ("start", "stop", "n"), f"grid.{axis}", "grid")
        n = ax["n"]
        if not _is_int(n) or n < 2:
            raise ConfigError(f"field 'grid.{axis}.n' must be an integer >= 2", field="grid")
        out.append((_length(ax["start"], f"grid.{axis}.start", "grid"),
                    _length(ax["stop"], f"grid.{axis}.stop", "grid"), n))
    if out[0][2] * out[1][2] > MAX_POINTS:
        raise ConfigError(f"field 'grid' has {out[0][2]} x {out[1][2]} points, more than "
                          f"{MAX_POINTS}", field="grid")
    return out[0], out[1]


def _parse_lattice(raw: dict) -> LatticeSpec:
    lat = raw["lattice"]
    if not isinstance(lat, dict):
        raise ConfigError("field 'lattice' must be an object", field="lattice")
    _check_keys(lat, ("n_space", "n_time", "spacing_space", "spacing_time", "origin"),
                "lattice")
    try:
        counts = [lat[k] for k in ("n_space", "n_time")]
        if not all(_is_int(n) for n in counts):
            raise TypeError(f"site counts must be integers, got {counts}")
        spec = LatticeSpec(
            n_space=counts[0], n_time=counts[1],
            spacing_space=_length(lat["spacing_space"], "lattice.spacing_space"),
            spacing_time=_length(lat["spacing_time"], "lattice.spacing_time"),
            origin=_parse_event(lat.get("origin", {}), "lattice.origin"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"field 'lattice': {exc}", field="lattice") from exc
    # both lattice scenarios reconstruct region pairs
    n = spec.n_events  # from the integers, before a region is built
    if n < 2:
        raise ConfigError("field 'lattice' must have at least 2 regions, got 1",
                          field="lattice")
    pairs = n * (n - 1) // 2
    if pairs > MAX_POINTS:
        raise ConfigError(f"field 'lattice' has {n} regions, {pairs} pairs, more than "
                          f"{MAX_POINTS}", field="lattice")
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
    unknown = set(raw) - _allowed_keys(sid)
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
        ell=_length(merged["ell"], "ell", width=True),
        tol=_require_number(merged, "tol"),
        enable_quadrature_columns=quadrature_columns,
    )
    for key in ("beta", "delta"):
        if merged.get(key) is not None:
            setattr(cfg, key, _length(merged[key], key, width=True))
    if "s_over_ell" in merged:
        cfg.s_values = _parse_s_values(merged)
    if "anchor" in merged:
        cfg.anchor = _parse_event(merged["anchor"], "anchor")
    if cfg.s_values:
        # the smallest step must move the anchor, or every point of the scan
        # would sit on the anchor itself, at dt = dr = 0
        a, s_min = cfg.anchor or Event(0.0, 0.0, 0.0, 0.0), min(cfg.s_values)
        if a.t + s_min == a.t or a.t - s_min == a.t or a.x + s_min == a.x:
            raise ConfigError(f"field 'anchor' at (t, x) = ({a.t:g}, {a.x:g}) rounds away the "
                              f"scan's smallest step {s_min:g}", field="anchor")
    if "lattice" in merged:
        cfg.lattice = _parse_lattice(merged)
    if "lambda" in merged:
        cfg.lam = _require_number(merged, "lambda")
        # the lattice's coupling lambda/ell, squared in H, finite and nonzero
        for key, coupling in (("lambda", cfg.lam), ("ell", cfg.lam / cfg.ell)):
            if not 0.0 < coupling * coupling < math.inf:
                raise ConfigError(f"field {key!r} gives the lattice a coupling lambda/ell = "
                                  f"{coupling:g} whose square is zero or overflows a float",
                                  field=key)
    if "state" in merged:
        if merged["state"] not in ("vacuum", "thermal"):
            raise ConfigError("field 'state' must be 'vacuum' or 'thermal'", field="state")
        cfg.state_tag = merged["state"]
        if cfg.state_tag == "thermal" and cfg.beta is None:
            raise ConfigError("thermal state requires field 'beta'", field="beta")
        if cfg.state_tag != "thermal" and cfg.beta is not None:
            raise ConfigError("field 'beta' applies to the thermal state only", field="beta")
    if "shots_list" in merged:
        shots = merged["shots_list"]
        if (not isinstance(shots, list) or not shots
                or any(not _is_int(s) or not 1 <= s <= MAX_SHOTS for s in shots)):
            raise ConfigError("field 'shots_list' must be a non-empty list of ints in "
                              "[1, 2^63 - 1]", field="shots_list")
        if len(set(shots)) < len(shots):  # a repeat would redraw the same tables
            raise ConfigError(f"field 'shots_list' must not repeat a shot count, got {shots}",
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
        cfg.ell_grid = widths
    if "base_config" in merged:
        bc = merged["base_config"]
        if not isinstance(bc, dict) or not {"dt", "dr"} <= set(bc):
            raise ConfigError("field 'base_config' needs dt and dr", field="base_config")
        _check_keys(bc, ("dt", "dr"), "base_config")
        cfg.base_config = tuple(_length(bc[k], f"base_config.{k}", "base_config")
                                for k in ("dt", "dr"))
    if cfg.ell_grid and cfg.base_config is not None:
        # the widths convergence_sweep's residual table accepts at this separation
        try:
            checked_widths(cfg.base_config, cfg.ell_grid)
        except ValueError as exc:
            raise ConfigError(f"field 'ell_grid': {exc}", field="ell_grid") from exc
    return cfg
