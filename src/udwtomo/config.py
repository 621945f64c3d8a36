"""Scenario configs: defaults, parsing and validation, without numpy.

A config is a JSON object naming one of ``SCENARIO_IDS`` and overriding its
defaults; ``validate_config`` resolves it into a ``ScenarioConfig``, lengths
in units of the region width ell, or raises ``ConfigError`` naming the field.
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


def _check_span(field: str, *corners: tuple[float, float, float, float]) -> None:
    """ConfigError on ``field`` unless every event in the box the corners
    (t, x, y, z) span, and the difference of any two, has a finite t^2 and
    x^2 + y^2 + z^2, the squares a run takes of its coordinates and pair
    separations; a length l alone is the corner (l, 0, 0, 0)."""
    axes = list(zip(*corners))
    for t, x, y, z in ([max(map(abs, a)) for a in axes], [max(a) - min(a) for a in axes]):
        if not (math.isfinite(t * t) and math.isfinite(x * x + y * y + z * z)):
            raise ConfigError(f"field {field!r} gives the run a length whose square "
                              "overflows a float", field=field)


def _check_keys(d: dict, allowed: tuple[str, ...], name: str,
                field: str | None = None) -> None:
    # an unknown key inside the object ``name`` is a ConfigError on ``field``
    # (default ``name``)
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ConfigError(f"field {name!r} takes only {list(allowed)}, got unknown "
                          f"{unknown}", field=field or name)


def _parse_event(d: dict, key: str, ell: float) -> Event:
    if not isinstance(d, dict):
        raise ConfigError(f"field {key!r} must be an object with t/x/y/z", field=key)
    _check_keys(d, ("t", "x", "y", "z"), key)
    coords = tuple(_number(d.get(c, 0.0), f"{key}.{c}", key) * ell for c in "txyz")
    _check_span(key, coords)
    return Event(*coords)


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
        out.append((_number(ax["start"], f"grid.{axis}.start", "grid"),
                    _number(ax["stop"], f"grid.{axis}.stop", "grid"), n))
    if out[0][2] * out[1][2] > MAX_POINTS:
        raise ConfigError(f"field 'grid' has {out[0][2]} x {out[1][2]} points, more than "
                          f"{MAX_POINTS}", field="grid")
    return out[0], out[1]


def _parse_lattice(raw: dict, ell: float) -> LatticeSpec:
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
            spacing_space=_number(lat["spacing_space"], "lattice.spacing_space") * ell,
            spacing_time=_number(lat["spacing_time"], "lattice.spacing_time") * ell,
            origin=_parse_event(lat.get("origin", {}), "lattice.origin", ell))
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
    # the box from the origin to the last site, or a spacing on where a count
    # is 1 (origin + 0 spacing is nan for an infinite spacing)
    o = (spec.origin.t, spec.origin.x, spec.origin.y, spec.origin.z)
    sites = [(spec.n_time, spec.spacing_time)] + [(spec.n_space, spec.spacing_space)] * 3
    _check_span("lattice", o, tuple(c + max(k - 1, 1) * d for c, (k, d) in zip(o, sites)))
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
        ell=_require_number(merged, "ell"),
        tol=_require_number(merged, "tol"),
        enable_quadrature_columns=quadrature_columns,
    )
    ell = cfg.ell
    if "beta" in merged and merged.get("beta") is not None:
        cfg.beta = _require_number(merged, "beta") * ell
    if "delta" in merged and merged.get("delta") is not None:
        cfg.delta = _require_number(merged, "delta") * ell
    for key, length in (("ell", ell), ("beta", cfg.beta), ("delta", cfg.delta)):
        if length is not None:
            _check_span(key, (length, 0.0, 0.0, 0.0))
    if "s_over_ell" in merged:
        cfg.s_values = _parse_s_values(merged)
    if "anchor" in merged:
        cfg.anchor = _parse_event(merged["anchor"], "anchor", ell)
    if cfg.s_values:  # the anchor moved up to max(s) ell along x, or forward or back in time
        a, step = cfg.anchor or Event(0.0, 0.0, 0.0, 0.0), max(cfg.s_values) * ell
        _check_span("s_over_ell", (a.t - step, a.x, a.y, a.z), (a.t + step, a.x + step, a.y, a.z))
        # the smallest step must move the anchor, or every point of the scan
        # would sit on the anchor itself, at dt = dr = 0
        s_min = min(cfg.s_values) * ell
        if a.t + s_min == a.t or a.t - s_min == a.t or a.x + s_min == a.x:
            raise ConfigError(f"field 'anchor' at (t, x) = ({a.t:g}, {a.x:g}) rounds away the "
                              f"scan's smallest step {s_min:g}", field="anchor")
    if "lattice" in merged:
        cfg.lattice = _parse_lattice(merged, ell)
    if "lambda" in merged:
        cfg.lam = _require_number(merged, "lambda")
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
        (t0, t1, _), (x0, x1, _) = cfg.grid_t, cfg.grid_x
        _check_span("grid", (t0 * ell, x0 * ell, 0.0, 0.0), (t1 * ell, x1 * ell, 0.0, 0.0))
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
        _check_keys(bc, ("dt", "dr"), "base_config")
        cfg.base_config = tuple(_number(bc[k], f"base_config.{k}", "base_config") * ell
                                for k in ("dt", "dr"))
        _check_span("base_config", (0.0, 0.0, 0.0, 0.0), (*cfg.base_config, 0.0, 0.0))
    if cfg.ell_grid and cfg.base_config is not None:
        # the widths convergence_sweep's residual table accepts at this separation
        try:
            checked_widths(cfg.base_config, cfg.ell_grid)
        except ValueError as exc:
            raise ConfigError(f"field 'ell_grid': {exc}", field="ell_grid") from exc
    return cfg
