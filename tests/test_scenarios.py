"""Scenario configs, CSV artifacts, CLI surface and determinism."""

import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from udwtomo import cli, config, detector, multipole, scenarios
from udwtomo.detector import correlator_table, sample_table
from udwtomo.errors import (ConfigError, ConvergenceError, LightconeSingularityError,
                            TangentDomainError)
from udwtomo.kernels import (F_oneparticle_array, FieldState, assemble_kernels, hadamard_array,
                             wightman_smeared_closed, wightman_smeared_quadrature)
from udwtomo.scenarios import validate_config
from udwtomo.smearing import GaussianRegion
from udwtomo.spacetime import Event, build_lattice
from udwtomo.tables import write_columns
from udwtomo.tomography import reconstruct_table

from test_kernels import f_mode_integral

SMALL_S = {"start": 1.0, "stop": 12.0, "step": 1.0}
SMALL_GRID = {"t": {"start": -10.0, "stop": 10.0, "n": 5},
              "x": {"start": -10.0, "stop": 10.0, "n": 5}}
LATTICE = {"n_space": 2, "n_time": 2, "spacing_space": 10.0, "spacing_time": 10.0}


VAC = FieldState.vacuum()


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# one-pair references for the scan columns, called as f(state, ri, rj)
def _vacuum_kernel(state, ri, rj):
    return float(hadamard_array(VAC, ri.center.coords(), rj.center.coords()))


def _state_kernel(state, ri, rj):
    return float(hadamard_array(state, ri.center.coords(), rj.center.coords()))


def _multipole(state, ri, rj):
    value, _, _ = multipole.estimate_array(state, ri.center.coords(), rj.center.coords(), ri.ell)
    return float(value)


def _smeared_closed(state, ri, rj):
    return wightman_smeared_closed(state, ri, rj).real


class TestValidation:
    def test_unknown_scenario(self):
        with pytest.raises(ConfigError) as ei:
            validate_config({"scenario_id": "nope"})
        assert ei.value.field == "scenario_id"

    def test_unknown_key(self):
        with pytest.raises(ConfigError) as ei:
            validate_config({"scenario_id": "vacuum_curves", "betta": 50})
        assert ei.value.field == "betta"
        with pytest.raises(ConfigError) as ei:
            validate_config({"scenario_id": "tomography_roundtrip", "threads": 2})
        assert ei.value.field == "threads"

    def test_bad_range(self):
        with pytest.raises(ConfigError) as ei:
            validate_config({"scenario_id": "vacuum_curves",
                             "s_over_ell": {"start": 5.0, "stop": 1.0, "step": 1.0}})
        assert ei.value.field == "s_over_ell"

    def test_nonpositive_s(self):
        with pytest.raises(ConfigError):
            validate_config({"scenario_id": "vacuum_curves", "s_over_ell": [0.0, 1.0]})

    def test_thermal_needs_beta(self):
        with pytest.raises(ConfigError) as ei:
            validate_config({"scenario_id": "tomography_roundtrip", "state": "thermal"})
        assert ei.value.field == "beta"

    def test_bad_shots(self):
        with pytest.raises(ConfigError):
            validate_config({"scenario_id": "shot_noise_study", "shots_list": [0]})

    @pytest.mark.parametrize("raw, field", [
        ({"scenario_id": "vacuum_curves", "s_over_ell": ["a", 1]}, "s_over_ell"),
        ({"scenario_id": "vacuum_curves", "s_over_ell": [1.0, math.nan]}, "s_over_ell"),
        ({"scenario_id": "vacuum_curves",
          "s_over_ell": {"start": "a", "stop": 2.0, "step": 0.5}}, "s_over_ell"),
        ({"scenario_id": "vacuum_curves",
          "s_over_ell": {"start": 0.5, "stop": "a", "step": 0.5}}, "s_over_ell"),
        ({"scenario_id": "vacuum_curves",
          "s_over_ell": {"start": 0.5, "stop": 2.0, "step": "a"}}, "s_over_ell"),
        ({"scenario_id": "coherent_field_grid",
          "grid": {**SMALL_GRID, "x": {"start": "a", "stop": 1.0, "n": 3}}}, "grid"),
        ({"scenario_id": "convergence_sweep", "ell_grid": ["a", 1, 2]}, "ell_grid"),
        ({"scenario_id": "convergence_sweep",
          "base_config": {"dt": 0.0, "dr": "a"}}, "base_config"),
        ({"scenario_id": "tomography_roundtrip",
          "lattice": {"n_space": 2, "n_time": 2, "spacing_space": math.nan,
                      "spacing_time": 10.0}}, "lattice"),
        ({"scenario_id": "tomography_roundtrip",
          "lattice": {"n_space": 2.7, "n_time": 2, "spacing_space": 10.0,
                      "spacing_time": 10.0}}, "lattice"),
        ({"scenario_id": "vacuum_curves", "seed": "abc"}, "seed"),
        ({"scenario_id": "shot_noise_study", "seed": -1}, "seed"),
        ({"scenario_id": "thermal_curves", "enable_quadrature_columns": "no"},
         "enable_quadrature_columns"),
        ({"scenario_id": "shot_noise_study", "repeats": True}, "repeats"),
        ({"scenario_id": "shot_noise_study", "shots_list": [True, 10]}, "shots_list"),
        ({"scenario_id": "coherent_curves",
          "anchor": {"t": "6", "x": -6.0, "y": 0.0, "z": 0.0}}, "anchor"),
        ({"scenario_id": "oneparticle_curves",
          "anchor": {"t": -60.0, "x": False, "y": 0.0, "z": 0.0}}, "anchor"),
        ({"scenario_id": "tomography_roundtrip",
          "lattice": {"n_space": 2, "n_time": 2, "spacing_space": 10.0,
                      "spacing_time": 10.0, "origin": {"t": "6"}}}, "lattice"),
        ({"scenario_id": "tomography_roundtrip",
          "lattice": {"n_space": 2, "n_time": 2, "spacing_space": 10.0,
                      "spacing_time": 10.0, "origin": {"z": True}}}, "lattice"),
        # these three validated, and the run wrote into ./5/, reported 0
        # pairs or reported rms_error = nan
        ({"scenario_id": "vacuum_curves", "output_dir": 5}, "output_dir"),
        ({"scenario_id": "tomography_roundtrip",
          "lattice": {"n_space": 1, "n_time": 1, "spacing_space": 10.0,
                      "spacing_time": 10.0}}, "lattice"),
        ({"scenario_id": "shot_noise_study",
          "lattice": {"n_space": 1, "n_time": 1, "spacing_space": 10.0,
                      "spacing_time": 10.0}}, "lattice"),
        # validated, and the run raised from the sampler's int64 shot count
        ({"scenario_id": "shot_noise_study", "shots_list": [10, 2**63]}, "shots_list"),
        # validated, and both 1000-shot rows drew the same tables
        ({"scenario_id": "shot_noise_study", "shots_list": [1000, 1000, 10000]}, "shots_list"),
        # each of these validated and was then ignored: a key the scenario
        # never reads, beta on a vacuum state, an unknown key in a nested object
        ({"scenario_id": "vacuum_curves", "lattice": dict(LATTICE)}, "lattice"),
        ({"scenario_id": "coherent_field_grid", "s_over_ell": [1.0, 2.0]}, "s_over_ell"),
        ({"scenario_id": "coherent_field_grid", "repeats": 2}, "repeats"),
        ({"scenario_id": "thermal_curves", "shots_list": [1000]}, "shots_list"),
        ({"scenario_id": "convergence_sweep", "lambda": 1.0}, "lambda"),
        ({"scenario_id": "shot_noise_study", "beta": 50.0}, "beta"),
        ({"scenario_id": "tomography_roundtrip", "state": "vacuum", "beta": 50.0}, "beta"),
        ({"scenario_id": "convergence_sweep", "beta": 50.0}, "beta"),
        ({"scenario_id": "tomography_roundtrip",
          "lattice": {**LATTICE, "spacing": 5.0}}, "lattice"),
        ({"scenario_id": "shot_noise_study",
          "lattice": {**LATTICE, "origin": {"t": 0.0, "w": 1.0}}}, "lattice"),
        ({"scenario_id": "coherent_curves",
          "anchor": {"t": 6.0, "x": -6.0, "w": 0.0}}, "anchor"),
        ({"scenario_id": "vacuum_curves",
          "s_over_ell": {"start": 0.5, "stop": 2.0, "step": 0.5, "count": 4}}, "s_over_ell"),
        ({"scenario_id": "coherent_field_grid",
          "grid": {**SMALL_GRID, "t": {"start": -1.0, "stop": 1.0, "n": 3, "step": 1.0}}},
         "grid"),
        ({"scenario_id": "coherent_field_grid",
          "grid": {**SMALL_GRID, "y": {"start": -1.0, "stop": 1.0, "n": 3}}}, "grid"),
        ({"scenario_id": "convergence_sweep",
          "base_config": {"dt": 0.0, "dr": 1.0, "dx": 2.0}}, "base_config"),
        # more than config.MAX_POINTS points: validate built the ~2e10 values
        # of the tiny step until it was killed (a subnormal step makes the
        # count inf), and run died on the 10^6 x 10^6 grid with a numpy
        # MemoryError traceback (exit 1)
        ({"scenario_id": "vacuum_curves",
          "s_over_ell": {"start": 0.5, "stop": 20.0, "step": 1e-9}}, "s_over_ell"),
        ({"scenario_id": "vacuum_curves",
          "s_over_ell": {"start": 0.5, "stop": 20.0, "step": 5e-324}}, "s_over_ell"),
        ({"scenario_id": "vacuum_curves",
          "s_over_ell": {"start": 1.0, "stop": 1e6 + 1.0, "step": 1.0}}, "s_over_ell"),
        ({"scenario_id": "vacuum_curves", "s_over_ell": [1.0] * (10**6 + 1)}, "s_over_ell"),
        ({"scenario_id": "coherent_field_grid",
          "grid": {"t": {"start": -12.0, "stop": 12.0, "n": 10**6},
                   "x": {"start": -12.0, "stop": 12.0, "n": 10**6}}}, "grid"),
        ({"scenario_id": "oneparticle_diff_grid",
          "grid": {"t": {"start": -1.0, "stop": 1.0, "n": 1001},
                   "x": {"start": -1.0, "stop": 1.0, "n": 1000}}}, "grid"),
        # more than config.MAX_POINTS region pairs: 10^12 regions validated
        # (exit 0) and run would have looped building them; 1415 regions have
        # 1000405 pairs
        ({"scenario_id": "tomography_roundtrip",
          "lattice": {**LATTICE, "n_space": 1000, "n_time": 1000}}, "lattice"),
        ({"scenario_id": "shot_noise_study",
          "lattice": {**LATTICE, "n_space": 1, "n_time": 1415}}, "lattice"),
        ({"scenario_id": "tomography_roundtrip",
          "lattice": {**LATTICE, "n_space": 12, "n_time": 1}}, "lattice"),
        # a length times ell, a coordinate or a pair separation whose square
        # overflows: the anchor failed validate with an Event traceback (exit
        # 1); the next six validated, then ended in a traceback from a state,
        # an Event or a non-finite kernel matrix, or exited 0 with every
        # value a lightcone error or nan
        ({"scenario_id": "vacuum_curves", "ell": 10, "anchor": {"t": 1e308}}, "anchor"),
        ({"scenario_id": "thermal_curves", "ell": 10, "beta": 1e308}, "beta"),
        ({"scenario_id": "coherent_curves", "ell": 10, "delta": 1e308}, "delta"),
        ({"scenario_id": "tomography_roundtrip", "ell": 10,
          "lattice": {**LATTICE, "spacing_space": 1e308}}, "lattice"),
        ({"scenario_id": "tomography_roundtrip", "ell": 1,
          "lattice": {**LATTICE, "spacing_space": 1e200}}, "lattice"),
        ({"scenario_id": "vacuum_curves", "ell": 1e300, "s_over_ell": [1e10, 2.0]}, "ell"),
        ({"scenario_id": "coherent_field_grid", "ell": 1e300}, "ell"),
        # the same check at the other fields that place an event of the run
        ({"scenario_id": "vacuum_curves", "s_over_ell": [2.0, 1e200]}, "s_over_ell"),
        ({"scenario_id": "coherent_curves", "anchor": {"t": 1e155}}, "anchor"),
        ({"scenario_id": "oneparticle_diff_grid", "anchor": {"x": -1e200}}, "anchor"),
        ({"scenario_id": "coherent_field_grid",
          "grid": {**SMALL_GRID, "x": {"start": -1e200, "stop": 1.0, "n": 3}}}, "grid"),
        ({"scenario_id": "shot_noise_study",
          "lattice": {**LATTICE, "origin": {"z": 1e200}}}, "lattice"),
        # squares that overflow only between two events: dt between the two
        # time slices (run warned of an overflow in the commutator), and the
        # coherent scan's backward step (its multipole cell was nan)
        ({"scenario_id": "tomography_roundtrip",
          "lattice": {**LATTICE, "spacing_time": 2e154, "origin": {"t": -1e154}}}, "lattice"),
        ({"scenario_id": "coherent_curves", "anchor": {"t": -1e154}, "s_over_ell": [1e154]},
         "s_over_ell"),
        # a lone site sits at origin + 0 spacing, nan for an infinite one
        ({"scenario_id": "tomography_roundtrip", "ell": 10,
          "lattice": {**LATTICE, "n_time": 1, "spacing_time": 1e308}}, "lattice"),
        ({"scenario_id": "convergence_sweep", "base_config": {"dt": 0.0, "dr": 1e200}},
         "base_config"),
        ({"scenario_id": "convergence_sweep", "ell": 10,
          "ell_grid": [1e306, 1e307, 1e308]}, "ell_grid"),
        # an anchor so far out that the smallest scan step rounds away: the
        # first validated and exited 0 from run, every row a lightcone error
        # at dt = dr = 0; then the step lost forward in t only (the tie
        # 1 + 2^-53 rounds to even), backward in t only, and along x only
        ({"scenario_id": "coherent_curves", "anchor": {"t": 1e154, "x": 1e154}}, "anchor"),
        ({"scenario_id": "vacuum_curves", "anchor": {"t": 1.0}, "s_over_ell": [2.0**-53]},
         "anchor"),
        ({"scenario_id": "vacuum_curves", "anchor": {"t": -1.0}, "s_over_ell": [2.0**-53]},
         "anchor"),
        ({"scenario_id": "oneparticle_curves", "anchor": {"x": 1e154}}, "anchor"),
        # widths below the length bound, whose squares underflow: the
        # coherent scan died with a ZeroDivisionError (exit 1), the
        # one-particle scan exited 0 with every multipole cell nan; and
        # lengths past the bound, a prefactor ell^-2 that overflows, a
        # coupling (lambda/ell)^2 that overflows, and a beta whose image
        # count overflowed (exit 1)
        ({"scenario_id": "coherent_curves", "delta": 1e-200}, "delta"),
        ({"scenario_id": "oneparticle_curves", "delta": 1e-200}, "delta"),
        ({"scenario_id": "oneparticle_curves", "delta": 1e150}, "delta"),
        ({"scenario_id": "tomography_roundtrip", "state": "thermal", "beta": 50.0,
          "lattice": {**LATTICE, "spacing_space": 1e150, "spacing_time": 1e150}}, "lattice"),
        ({"scenario_id": "vacuum_curves", "ell": 1e-200}, "ell"),
        ({"scenario_id": "tomography_roundtrip", "ell": 1e-200}, "ell"),
        ({"scenario_id": "tomography_roundtrip", "ell": 1e-154}, "ell"),
        ({"scenario_id": "tomography_roundtrip", "lambda": 1e200}, "lambda"),
        ({"scenario_id": "tomography_roundtrip", "state": "thermal", "beta": 1e-70}, "beta"),
    ])
    def test_malformed_values(self, raw, field, tmp_path, capsys):
        # each is a ConfigError naming the field, and the CLI exits 2
        with pytest.raises(ConfigError) as ei:
            validate_config(raw)
        assert ei.value.field == field
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        assert cli.main(["validate", str(path)]) == 2
        assert field in capsys.readouterr().err

    def test_keys_a_scenario_reads(self):
        # every curve scan takes an anchor, and every scenario with a state
        # takes beta for the thermal state
        anchor = {"t": 1.0, "x": -2.0, "y": 0.0, "z": 0.5}
        for sid in ("vacuum_curves", "thermal_curves", "coherent_curves", "oneparticle_curves"):
            assert validate_config({"scenario_id": sid, "anchor": anchor}).anchor == Event(
                1.0, -2.0, 0.0, 0.5)
        for sid in ("tomography_roundtrip", "convergence_sweep", "shot_noise_study"):
            cfg = validate_config({"scenario_id": sid, "state": "thermal", "beta": 50.0})
            assert (cfg.state_tag, cfg.beta) == ("thermal", 50.0)
        assert validate_config({"scenario_id": "shot_noise_study"}).state_tag == "vacuum"

    def test_point_count_bound_is_inclusive(self):
        # a scan or a grid of exactly MAX_POINTS points is accepted
        top = float(config.MAX_POINTS)
        cfg = validate_config({"scenario_id": "vacuum_curves",
                               "s_over_ell": {"start": 1.0, "stop": top, "step": 1.0}})
        assert len(cfg.s_values) == config.MAX_POINTS and cfg.s_values[-1] == top
        cfg = validate_config({"scenario_id": "coherent_field_grid",
                               "grid": {"t": {"start": -1.0, "stop": 1.0, "n": 1000},
                                        "x": {"start": -1.0, "stop": 1.0, "n": 1000}}})
        assert cfg.grid_t[2] * cfg.grid_x[2] == config.MAX_POINTS
        # a lattice of 1414 regions has 998991 pairs (1415 regions, refused,
        # have 1000405); the 5^3 x 8 lattice of the CI roundtrip has 1000
        assert 1414 * 1413 // 2 <= config.MAX_POINTS < 1415 * 1414 // 2
        for sid in ("tomography_roundtrip", "shot_noise_study"):
            for n_space, n_time in ((1, 1414), (5, 8)):
                cfg = validate_config({"scenario_id": sid, "lattice": {
                    **LATTICE, "n_space": n_space, "n_time": n_time}})
                assert cfg.lattice.n_events == n_space**3 * n_time

    def test_lengths_with_finite_squares_accepted(self):
        # up to the length bound (1e30 ell, and down to 1e-30 ell for beta,
        # delta and ell itself) every length validates, as written: no
        # length is multiplied by ell
        bound = config.LENGTH_BOUND
        for ell in (bound, 1.0 / bound):
            big = {"ell": ell, "s_over_ell": [1.0, bound], "anchor": {"t": 1e-150}}
            cfg = validate_config({"scenario_id": "vacuum_curves", **big})
            assert (cfg.ell, cfg.anchor.t, cfg.s_values[-1]) == (ell, 1e-150, bound)
        cfg = validate_config({"scenario_id": "tomography_roundtrip", "lattice": {
            **LATTICE, "spacing_space": bound, "spacing_time": bound,
            "origin": {"t": -bound}}})
        assert (cfg.lattice.spacing_space, cfg.lattice.origin.t) == (bound, -bound)
        for width in (bound, 1.0 / bound):
            cfg = validate_config({"scenario_id": "coherent_curves", "delta": width})
            assert cfg.delta == width
            assert validate_config({"scenario_id": "thermal_curves", "beta": width}).beta == width
        axis = {"start": -bound, "stop": bound, "n": 3}
        cfg = validate_config({"scenario_id": "coherent_field_grid", "grid": {"t": axis, "x": axis}})
        assert cfg.grid_t == cfg.grid_x == (-bound, bound, 3)

    def test_scan_steps_that_move_the_anchor_accepted(self):
        # the lightlike scan at the origin, an anchor at the length bound with
        # steps that still move it, and the smallest step that moves t = 1
        # both ways
        cfg = validate_config({"scenario_id": "thermal_curves",
                               "s_over_ell": [1e-7, 1e-6, 0.5, 3.0]})
        assert cfg.s_values[0] == 1e-7
        bound = config.LENGTH_BOUND
        cfg = validate_config({"scenario_id": "coherent_curves",
                               "anchor": {"t": bound, "x": bound}, "s_over_ell": [1e16]})
        assert cfg.anchor.t == bound
        cfg = validate_config({"scenario_id": "vacuum_curves", "anchor": {"t": 1.0},
                               "s_over_ell": [2.0**-52]})
        assert cfg.anchor.t - cfg.s_values[0] < 1.0 < cfg.anchor.t + cfg.s_values[0]

    def test_lattice_origin_in_units_of_ell(self):
        # the origin is in units of ell as the spacings and the anchor are,
        # and like them it stays as written: the run applies ell once, to
        # the coupling
        cfg = validate_config({"scenario_id": "tomography_roundtrip", "ell": 2.0,
                               "lattice": {**LATTICE, "origin": {"t": 1.0}}})
        assert cfg.lattice.origin == Event(1.0, 0.0, 0.0, 0.0)
        assert build_lattice(cfg.lattice)[0].tolist() == [1.0, 0.0, 0.0, 0.0]
        assert build_lattice(cfg.lattice)[-1].tolist() == [11.0, 10.0, 10.0, 10.0]

    def test_empty_s_list_named(self):
        # used to be reported as "values must be strictly positive"
        with pytest.raises(ConfigError, match="empty list"):
            validate_config({"scenario_id": "vacuum_curves", "s_over_ell": []})

    def test_two_regions_suffice(self):
        cfg = validate_config({"scenario_id": "tomography_roundtrip",
                               "lattice": {"n_space": 1, "n_time": 2, "spacing_space": 10.0,
                                           "spacing_time": 10.0}})
        assert cfg.lattice.n_events == 2

    def test_defaults_fill_in(self):
        cfg = validate_config({"scenario_id": "thermal_curves"})
        assert cfg.beta == 50.0
        assert cfg.s_values[0] == 0.5
        cfg = validate_config({"scenario_id": "tomography_roundtrip"})
        assert cfg.lattice.n_events == 16
        assert cfg.lam == pytest.approx(2 * math.pi)

    def test_default_ell_grid_is_the_geometric_grid(self):
        # config builds the seven widths without numpy; they are the
        # rounded values of the geometric grid they replaced
        cfg = validate_config({"scenario_id": "convergence_sweep"})
        assert cfg.ell_grid == [round(v, 10) for v in np.geomspace(0.02, 0.1, 7).tolist()]


class TestScenarioConfig:
    # the defaults of every field past the six global ones
    DEFAULTS = {"beta": None, "delta": None, "s_values": [], "anchor": None, "lattice": None,
                "lam": None, "state_tag": "vacuum", "shots_list": [], "repeats": 4,
                "grid_t": None, "grid_x": None, "ell_grid": [], "base_config": None}

    def test_defaults(self):
        cfg = config.ScenarioConfig("vacuum_curves", "out", 7, 2.0, 1e-10, False)
        assert vars(cfg) == {"scenario_id": "vacuum_curves", "output_dir": "out", "seed": 7,
                             "ell": 2.0, "tol": 1e-10, "enable_quadrature_columns": False,
                             **self.DEFAULTS}

    def test_no_shared_default_lists(self):
        for a, b in ([config.ScenarioConfig("vacuum_curves", "out", 7, 1.0, 1e-10, False)
                      for _ in range(2)],
                     [validate_config({"scenario_id": "coherent_field_grid"}) for _ in range(2)]):
            for name in ("s_values", "shots_list", "ell_grid"):
                assert getattr(a, name) == [] and getattr(a, name) is not getattr(b, name)
            a.s_values.append(1.0)
            assert b.s_values == []

    @pytest.mark.parametrize("sid", config.SCENARIO_IDS)
    def test_validating_twice_compares_equal(self, sid):
        a, b = validate_config({"scenario_id": sid}), validate_config({"scenario_id": sid})
        assert a == b and a is not b
        b.seed += 1
        assert a != b


class TestConfigSplit:
    """``config`` holds the ids, defaults and descriptions; ``scenarios``
    holds one runner per id and re-exports the config names."""

    def test_one_runner_per_scenario_id(self):
        assert set(scenarios._RUNNERS) == set(config.SCENARIO_IDS)

    def test_every_scenario_id_has_a_description(self):
        listed = config.list_scenarios()
        assert [sid for sid, _ in listed] == list(config.SCENARIO_IDS)
        assert all(isinstance(desc, str) and desc for _, desc in listed)

    def test_scenarios_reexports_the_config_names(self):
        for name in config.__all__:
            assert getattr(scenarios, name) is getattr(config, name)


class TestScenarioOutputs:
    def test_vacuum_curves(self, tmp_path):
        paths = scenarios.run({"scenario_id": "vacuum_curves", "s_over_ell": SMALL_S,
                               "output_dir": str(tmp_path)})
        rows = read_csv(paths[0])
        assert len(rows) == 24  # both branches
        svals = [float(r["s_over_ell"]) for r in rows]
        assert svals == sorted(svals)
        # spatial s/ell = 20 regime: smeared within 2% of pointlike
        by_s = {float(r["s_over_ell"]): r for r in rows}
        row = by_s[12.0]
        point, smear = float(row["pointlike"]), float(row["smeared_closed"])
        assert abs(smear - point) / abs(point) < 4.5 / 144 * 1.3
        assert all(r["errors"] == "" for r in rows)

    def test_vacuum_curve_20(self, tmp_path):
        paths = scenarios.run({"scenario_id": "vacuum_curves",
                               "s_over_ell": [20.0], "output_dir": str(tmp_path)})
        rows = read_csv(paths[0])
        spatial = [r for r in rows if float(r["s_over_ell"]) > 0][0]
        point, smear = float(spatial["pointlike"]), float(spatial["smeared_closed"])
        assert abs(smear - point) / abs(point) < 0.02

    def test_thermal_curves_approach_vacuum(self, tmp_path):
        paths = scenarios.run({"scenario_id": "thermal_curves", "s_over_ell": SMALL_S,
                               "beta": 50.0, "output_dir": str(tmp_path)})
        rows = read_csv(paths[0])
        for r in rows:
            s = float(r["s_over_ell"])
            vac, th = float(r["vacuum_pointlike"]), float(r["thermal_pointlike"])
            if 0 < s <= 5.0:  # s << beta: deviation ~ (pi s / beta)^2 / 3 < 4%
                assert abs(th - vac) / abs(vac) < 0.04
        far = [r for r in rows if float(r["s_over_ell"]) == 12.0][0]
        vac, th = float(far["vacuum_pointlike"]), float(far["thermal_pointlike"])
        assert th > vac  # thermal enhancement grows with separation

    def test_coherent_curves(self, tmp_path):
        paths = scenarios.run({"scenario_id": "coherent_curves", "s_over_ell": SMALL_S,
                               "output_dir": str(tmp_path)})
        rows = read_csv(paths[0])
        assert {"vacuum_pointlike", "state_kernel", "multipole"} <= set(rows[0])
        # the state kernel departs from the vacuum near the source lightcone
        devs = [abs(float(r["state_kernel"]) - float(r["vacuum_pointlike"]))
                for r in rows]
        assert max(devs) > 0

    @pytest.mark.parametrize("raw, state, columns, temporal_sign", [
        ({"scenario_id": "vacuum_curves", "s_over_ell": [1e-5, 0.5, 3.0, 12.0]},
         VAC, {"pointlike": _state_kernel, "smeared_closed": _smeared_closed,
               "multipole": _multipole}, 1.0),
        ({"scenario_id": "thermal_curves", "s_over_ell": [1e-5, 0.5, 3.0, 12.0]},
         FieldState.thermal(50.0), {"vacuum_pointlike": _vacuum_kernel,
                                    "thermal_pointlike": _state_kernel,
                                    "thermal_multipole": _multipole}, 1.0),
        ({"scenario_id": "thermal_curves", "beta": 0.3, "s_over_ell": [1e-5, 0.5, 3.0, 12.0]},
         FieldState.thermal(0.3), {"vacuum_pointlike": _vacuum_kernel,
                                   "thermal_pointlike": _state_kernel,
                                   "thermal_multipole": _multipole}, 1.0),
        ({"scenario_id": "thermal_curves", "beta": 1e4, "s_over_ell": [1e-5, 0.5, 3.0, 12.0]},
         FieldState.thermal(1e4), {"vacuum_pointlike": _vacuum_kernel,
                                   "thermal_pointlike": _state_kernel,
                                   "thermal_multipole": _multipole}, 1.0),
        ({"scenario_id": "coherent_curves", "s_over_ell": [1e-5, 0.5, 6.0, 12.0]},
         FieldState.coherent(1.5), {"vacuum_pointlike": _vacuum_kernel,
                                    "state_kernel": _state_kernel,
                                    "multipole": _multipole}, -1.0),
        ({"scenario_id": "oneparticle_curves", "s_over_ell": [1e-5, 0.5, 60.0, 120.0]},
         FieldState.one_particle(10.0), {"vacuum_pointlike": _vacuum_kernel,
                                         "state_kernel": _state_kernel,
                                         "multipole": _multipole}, 1.0),
    ], ids=["vacuum", "thermal", "thermal_beta0.3", "thermal_beta1e4", "coherent",
            "oneparticle"])
    def test_state_kernel_cells_are_pointlike_values(self, raw, state, columns,
                                                     temporal_sign, tmp_path):
        # each scan column comes from one array pass; every cell must equal
        # the one-pair function at the row's regions to the last bit, and a
        # lightlike row (|s| = 1e-5 ell, |sigma| <= 1e-9) must carry the
        # one-pair kernel's error text instead.  The quadrature column, where
        # the scan has one, comes from one certified pass and lies within tol
        # of the one-pair oracle.
        raw = {**raw, "enable_quadrature_columns": True}
        paths = scenarios.run({**raw, "output_dir": str(tmp_path)})
        rows = read_csv(paths[0])
        assert len(rows) == 8
        cfg = validate_config(raw)
        quadrature = [c for c in rows[0] if c.endswith("smeared_quadrature")]
        anchor = cfg.anchor or Event(0.0, 0.0, 0.0, 0.0)
        for r in rows:
            s = float(r["s_over_ell"])
            if s < 0:
                b = Event(anchor.t + temporal_sign * abs(s), anchor.x, anchor.y, anchor.z)
            else:
                b = Event(anchor.t, anchor.x + s, anchor.y, anchor.z)
            ri, rj = GaussianRegion(anchor, cfg.ell), GaussianRegion(b, cfg.ell)
            if abs(s) == 1e-5:
                with pytest.raises(LightconeSingularityError) as exc:
                    hadamard_array(state, anchor.coords(), b.coords())
                assert r["errors"] == f"LightconeSingularityError: {exc.value}"
                assert all(r[column] == "" for column in [*columns, *quadrature])
                continue
            assert r["errors"] == ""
            for column, one_pair in columns.items():
                assert repr(float(r[column])) == repr(one_pair(state, ri, rj)), column
            for column in quadrature:
                oracle = wightman_smeared_quadrature(state, ri, rj, cfg.tol).real
                assert abs(float(r[column]) - oracle) <= cfg.tol

    def test_oneparticle_grid_peak_on_lightcone(self, tmp_path):
        paths = scenarios.run({"scenario_id": "oneparticle_diff_grid",
                               "grid": {"t": {"start": -120.0, "stop": 120.0, "n": 9},
                                        "x": {"start": -120.0, "stop": 120.0, "n": 9}},
                               "output_dir": str(tmp_path)})
        rows = read_csv(paths[0])
        assert len(rows) == 81
        vals = {(float(r["t"]), float(r["x"])): float(r["value"]) for r in rows}
        # largest magnitude sits near the wavepacket lightcone, not at the origin
        peak = max(vals.items(), key=lambda kv: abs(kv[1]))
        assert abs(peak[0][0]) + abs(peak[0][1]) > 30.0

    def test_oneparticle_grid_values(self, tmp_path):
        # each cell is 2 Re(F(anchor) conj F(x)); the three largest also
        # against F from its radial mode integral
        delta, anchor = 10.0, [-60.0, -60.0, 0.0, 0.0]
        paths = scenarios.run({"scenario_id": "oneparticle_diff_grid", "ell": 1.0,
                               "delta": delta, "anchor": dict(zip("txyz", anchor)),
                               "grid": {"t": {"start": -120.0, "stop": 120.0, "n": 9},
                                        "x": {"start": -90.0, "stop": 90.0, "n": 7}},
                               "output_dir": str(tmp_path)})
        rows = read_csv(paths[0])
        assert len(rows) == 63
        t, x, value = (np.array([float(r[c]) for r in rows]) for c in ("t", "x", "value"))
        fa = complex(F_oneparticle_array(delta, anchor))
        f = F_oneparticle_array(delta, np.stack([t, x, 0 * t, 0 * t], axis=1))
        want = 2.0 * (fa.real * f.real + fa.imag * f.imag)
        assert [repr(v) for v in value.tolist()] == [repr(v) for v in want.tolist()]
        fa_modes = f_mode_integral(delta, anchor[0], math.hypot(*anchor[1:]))
        for k in np.argsort(-np.abs(value))[:3]:
            fx_modes = f_mode_integral(delta, t[k], abs(x[k]))
            assert value[k] == pytest.approx(2.0 * (fa_modes * fx_modes.conjugate()).real,
                                             rel=1e-10)

    def test_tomography_roundtrip_other_lattices(self, tmp_path):
        # a purely temporal 4-coupling chain and a mixed 12-region lattice
        for lat in ({"n_space": 1, "n_time": 4, "spacing_space": 8.0,
                     "spacing_time": 8.0},
                    {"n_space": 2, "n_time": 3, "spacing_space": 12.0,
                     "spacing_time": 9.0}):
            paths = scenarios.run({"scenario_id": "tomography_roundtrip",
                                   "lattice": lat, "output_dir": str(tmp_path)})
            srow = read_csv(paths[1])[0]
            assert float(srow["max_abs_H_error"]) <= 1e-9

    def test_tomography_roundtrip_outputs(self, tmp_path):
        paths = scenarios.run({"scenario_id": "tomography_roundtrip",
                               "output_dir": str(tmp_path)})
        recon, summary = paths
        srow = read_csv(summary)[0]
        assert int(srow["n_pairs"]) == 120
        assert float(srow["max_abs_H_error"]) <= 1e-8
        assert int(srow["n_causal"]) > 0 and int(srow["n_spacelike"]) > 0
        rrows = read_csv(recon)
        assert len(rrows) == 120
        regimes = {r["regime"] for r in rrows}
        assert regimes == {"spacelike", "causal"}

    @pytest.mark.parametrize("spacing, flagged, unflagged", [
        (1.5, 197, 9.41e-10), (10.0, 0, None)])
    def test_roundtrip_summary_counts_ill_conditioned_pairs(self, tmp_path, spacing, flagged,
                                                            unflagged):
        # the 81-region 3^3 x 3 vacuum lattice at lambda = 2 pi: at 1.5 ell
        # 197 pairs are flagged and max_abs_H_error (2.96e-4) is theirs, at
        # 10 ell none is and the two maxima agree; both cells match a recount
        # of reconstruction.csv
        recon, summary = scenarios.run({
            "scenario_id": "tomography_roundtrip", "lambda": 2 * math.pi,
            "lattice": {"n_space": 3, "n_time": 3, "spacing_space": spacing,
                        "spacing_time": spacing}, "output_dir": str(tmp_path)})
        [srow] = read_csv(summary)
        assert list(srow) == ["n_regions", "n_pairs", "n_causal", "n_spacelike",
                              "max_abs_H_error", "n_ill_conditioned", "max_abs_H_error_unflagged"]
        rows = read_csv(recon)
        ill = ["ill_conditioned" in r["flags"].split(";") for r in rows]
        errors = [abs(float(r["H_reconstructed"]) - float(r["H_true_if_known"])) for r in rows]
        assert int(srow["n_ill_conditioned"]) == sum(ill) == flagged
        worst = float(srow["max_abs_H_error_unflagged"])
        assert worst == max(e for e, f in zip(errors, ill) if not f)
        assert float(srow["max_abs_H_error"]) == max(errors)
        # H and Re W are written over one dedupe of H
        assert all(float(r["Re_W"]) == 0.5 * float(r["H_reconstructed"]) for r in rows)
        if flagged:
            assert worst == pytest.approx(unflagged, rel=0.01)
            assert 1e-4 < float(srow["max_abs_H_error"]) < 1e-3
        else:
            assert worst == float(srow["max_abs_H_error"]) <= 1e-8

    def test_convergence_sweep(self, tmp_path):
        paths = scenarios.run({"scenario_id": "convergence_sweep",
                               "output_dir": str(tmp_path)})
        rows = read_csv(paths[0])
        slope = float(rows[0]["slope"])
        assert slope == pytest.approx(4.0, abs=0.3)

    def test_per_point_errors_recorded(self, tmp_path, monkeypatch, capsys):
        # a lightlike point lands in the errors column with blank cells; the
        # run continues.  Lightlike points fail in the kernels: s = 1e-5 ell
        # gives |sigma| <= 1e-9 on both branches.
        paths = scenarios.run({"scenario_id": "vacuum_curves",
                               "s_over_ell": [1e-5, 3.0, 8.0],
                               "output_dir": str(tmp_path / "lightlike")})
        rows = read_csv(paths[0])
        assert len(rows) == 6
        bad = [r for r in rows if r["errors"]]
        assert [float(r["s_over_ell"]) for r in bad] == [-1e-5, 1e-5]
        assert [r["errors"] for r in bad] == [
            f"LightconeSingularityError: pointlike kernel singular at dt={dt}, dr={dr}; "
            "use the smeared/quadrature path" for dt, dr in (("-1e-05", "0"), ("0", "1e-05"))]
        for r in bad:
            assert r["pointlike"] == r["smeared_closed"] == r["multipole"] == ""
        good = [r for r in rows if not r["errors"]]
        assert all(r["pointlike"] and r["smeared_closed"] and r["multipole"]
                   for r in good)

        # an uncertified quadrature pass fails the whole run, before any file
        # is written, and the CLI reports it as a numerical failure (exit 3)
        def uncertified(state, ell, a, b, tol):
            raise ConvergenceError("accumulated quadrature error exceeds tolerance")

        monkeypatch.setattr(scenarios, "_smeared_quadrature", uncertified)
        raw = {"scenario_id": "thermal_curves", "beta": 50.0, "s_over_ell": [3.0, 5.0, 8.0],
               "enable_quadrature_columns": True, "output_dir": str(tmp_path / "quadrature")}
        with pytest.raises(ConvergenceError, match="accumulated quadrature error"):
            scenarios.run(raw)
        assert not (tmp_path / "quadrature" / "thermal_curves.csv").exists()
        cfg = tmp_path / "quadrature.json"
        cfg.write_text(json.dumps(raw))
        capsys.readouterr()
        assert cli.main(["run", str(cfg)]) == cli.EXIT_NUMERICAL == 3
        assert capsys.readouterr().err == (
            "numerical failure: accumulated quadrature error exceeds tolerance\n")

    @pytest.mark.parametrize("scenario_id", ["vacuum_curves", "thermal_curves",
                                             "coherent_curves", "oneparticle_curves"])
    def test_all_lightlike_scan(self, scenario_id, tmp_path):
        # every point masked: nothing raises, every row carries its error
        paths = scenarios.run({"scenario_id": scenario_id, "s_over_ell": [1e-5],
                               "enable_quadrature_columns": True,
                               "output_dir": str(tmp_path)})
        rows = read_csv(paths[0])
        assert len(rows) == 2
        for r in rows:
            assert r["errors"].startswith("LightconeSingularityError: ")
            assert all(v == "" for k, v in r.items() if k not in ("s_over_ell", "errors"))

    def test_shot_noise_table(self, tmp_path):
        paths = scenarios.run({"scenario_id": "shot_noise_study",
                               "shots_list": [1000, 10000], "repeats": 2,
                               "output_dir": str(tmp_path)})
        rows = read_csv(paths[0])
        assert len(rows) == 2
        assert float(rows[0]["rms_error"]) > float(rows[1]["rms_error"])

    def test_roundtrip_raises_first_failing_pair(self, tmp_path):
        # at lambda = 4 pi and 1 ell spacing 28 of the 120 pairs leave the
        # arctanh domain; the run stops at the row-major first of them
        with pytest.raises(TangentDomainError) as ei:
            scenarios.run({"scenario_id": "tomography_roundtrip", "lambda": 4 * math.pi,
                           "lattice": {"n_space": 2, "n_time": 2, "spacing_space": 1.0,
                                       "spacing_time": 1.0},
                           "output_dir": str(tmp_path)})
        assert str(ei.value).startswith("pair (9,10), correction term k=1: ")
        assert ei.value.k == 1
        assert not (tmp_path / "reconstruction.csv").exists()

    def test_shot_noise_failure_counts(self, tmp_path):
        # default 16-region lattice, seed and 4 repeats: failures are counted
        # and left out of the RMS, which stays finite
        paths = scenarios.run({"scenario_id": "shot_noise_study",
                               "shots_list": [10, 100], "output_dir": str(tmp_path)})
        rows = read_csv(paths[0])
        assert [int(r["n_failed"]) for r in rows] == [312, 7]
        assert all(math.isfinite(float(r["rms_error"])) for r in rows)


def shot_noise_reference(config_dict, path):
    """``shot_noise_study.csv`` written table by table: one sampled table and
    one inversion per (shots, repeat), the squared errors of the surviving
    pairs summed in (repeat, pair) order for each shot count; returns the bytes."""
    cfg = validate_config(config_dict)
    km = assemble_kernels(FieldState.vacuum(), build_lattice(cfg.lattice), cfg.lam / cfg.ell)
    exact = correlator_table(km)
    rms, failed = [], []
    for shots in cfg.shots_list:
        sq_errors, n_failed = [], 0
        for rep in range(cfg.repeats):
            seed = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(shots, rep))
            rec = reconstruct_table(sample_table(exact, shots, seed))
            n_failed += len(rec.failures)
            for q, (i, j) in enumerate(zip(rec.i.tolist(), rec.j.tolist())):
                if q not in rec.failures:
                    sq_errors.append((rec.H[q] - km.H[i - 1, j - 1]) ** 2)
        rms.append(math.sqrt(sum(sq_errors) / len(sq_errors)) if sq_errors else math.nan)
        failed.append(n_failed)
    write_columns(path, ["shots", "rms_error", "n_failed"],
                  [np.array(cfg.shots_list), np.array(rms), np.array(failed)])
    return path.read_bytes()


class TestShotNoiseStacks:
    """The study samples and inverts stacks of tables; its CSV is the
    table-by-table loop's, byte for byte."""

    @pytest.mark.parametrize("seed", [1, 2022])
    def test_csv_matches_per_table_loop(self, tmp_path, seed):
        cfg = {"scenario_id": "shot_noise_study", "shots_list": [10, 100, 10**3, 10**5],
               "repeats": 3, "seed": seed}
        [path] = scenarios.run({**cfg, "output_dir": str(tmp_path / "run")})
        assert path.read_bytes() == shot_noise_reference(cfg, tmp_path / "reference.csv")
        assert int(read_csv(path)[0]["n_failed"]) > 0

    def test_stacks_stay_within_budget(self, monkeypatch, tmp_path):
        # three 16-region tables (2 * 16^2 stored elements each) per stack:
        # 100 tables in 34 stacks, some of them spanning both shot counts
        budget = 3 * 2 * 16**2 + 100
        monkeypatch.setattr(detector, "_CHUNK_ELEMENTS", budget)
        stacks = []
        sample = scenarios.sample_table

        def recording(exact, shots, seed):
            stack = sample(exact, shots, seed)
            stacks.append((list(shots), sum(getattr(stack, name).size
                                            for name in ("z", "zz", "yy", "yx"))))
            return stack

        monkeypatch.setattr(scenarios, "sample_table", recording)
        cfg = {"scenario_id": "shot_noise_study", "shots_list": [100, 10**4],
               "repeats": 50, "seed": 3}
        [path] = scenarios.run({**cfg, "output_dir": str(tmp_path / "run")})
        assert len(stacks) == 34 and [k for shots, _ in stacks for k in shots] == (
            [100] * 50 + [10**4] * 50)
        assert max(size for _, size in stacks) <= budget
        assert stacks[16][0] == [100, 100, 10**4]
        assert path.read_bytes() == shot_noise_reference(cfg, tmp_path / "reference.csv")


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = {"scenario_id": "shot_noise_study", "shots_list": [1000, 10000],
               "repeats": 2, "seed": 99}
        p1 = scenarios.run({**cfg, "output_dir": str(tmp_path / "a")})
        p2 = scenarios.run({**cfg, "output_dir": str(tmp_path / "b")})
        assert p1[0].read_bytes() == p2[0].read_bytes()

    def test_seed_changes_samples(self, tmp_path):
        base = {"scenario_id": "shot_noise_study", "shots_list": [1000], "repeats": 1}
        p1 = scenarios.run({**base, "seed": 1, "output_dir": str(tmp_path / "a")})
        p2 = scenarios.run({**base, "seed": 2, "output_dir": str(tmp_path / "b")})
        assert p1[0].read_bytes() != p2[0].read_bytes()


# the kernel columns of each curve and grid scenario, and the power of ell
# that divides them
_SCALED = {
    "vacuum_curves": (("pointlike", "smeared_closed", "multipole"), 2),
    "thermal_curves": (("vacuum_pointlike", "thermal_pointlike", "thermal_multipole",
                        "thermal_smeared_quadrature"), 2),
    "coherent_curves": (("vacuum_pointlike", "state_kernel", "multipole"), 2),
    "oneparticle_curves": (("vacuum_pointlike", "state_kernel", "multipole"), 2),
    "coherent_field_grid": (("value",), 1),
    "oneparticle_diff_grid": (("value",), 2),
}


def run_rows(tmp_path, raw, name):
    [path] = scenarios.run({**raw, "output_dir": str(tmp_path / name)})
    return read_csv(path)


def assert_scaled(rows, unit, columns, factor, rel):
    """Every cell of ``columns`` is its twin in ``unit`` times ``factor``
    (exactly where rel is 0), blank where the twin is; the other cells equal."""
    assert len(rows) == len(unit)
    for r, u in zip(rows, unit):
        assert ({k: v for k, v in r.items() if k not in columns}
                == {k: v for k, v in u.items() if k not in columns})
        for c in columns:
            if u[c] == "":
                assert r[c] == ""
            elif rel:
                assert float(r[c]) == pytest.approx(float(u[c]) * factor, rel=rel, abs=0)
            else:
                assert float(r[c]) == float(u[c]) * factor


class TestUnitWidthCore:
    """A run computes in units of ell and applies ell once on the way out,
    so its outputs at any width are the unit-width ones times a power of ell."""

    @pytest.mark.parametrize("sid", sorted(_SCALED))
    def test_kernel_cells_scale_with_ell(self, sid, tmp_path):
        # at ell = 2 every kernel cell is exactly 1/4 of its ell = 1 twin
        # (1/2 on the phi0 grid), and at ell = 0.3 within 1e-15
        columns, power = _SCALED[sid]
        raw = {"scenario_id": sid, "enable_quadrature_columns": sid == "thermal_curves"}
        unit = run_rows(tmp_path, raw, "unit")
        for ell, rel in ((2.0, 0.0), (0.3, 1e-15)):
            rows = run_rows(tmp_path, {**raw, "ell": ell}, f"ell{ell}")
            assert_scaled(rows, unit, columns, ell**-power, rel)

    def test_convergence_sweep_scales_with_ell(self, tmp_path):
        # the widths column times ell, the residuals times ell^-2, one slope
        unit = run_rows(tmp_path, {"scenario_id": "convergence_sweep"}, "unit")
        rows = run_rows(tmp_path, {"scenario_id": "convergence_sweep", "ell": 2.0}, "ell2")
        assert [(2.0 * float(u["ell"]), float(u["residual"]) / 4.0, u["slope"]) for u in unit] \
            == [(float(r["ell"]), float(r["residual"]), r["slope"]) for r in rows]

    @pytest.mark.parametrize("ell, lam", [(2.0, 2.0 * math.pi), (0.3, 0.6 * math.pi)])
    def test_roundtrip_is_the_unit_roundtrip_at_lambda_over_ell(self, ell, lam, tmp_path):
        # the lattice's kernels go as (lambda/ell)^2: the roundtrip at ell is
        # the ell = 1 roundtrip at the coupling lambda/ell, byte for byte; the
        # default one at ell = 2 is the one at lambda = pi
        raw = {"scenario_id": "tomography_roundtrip"}
        at_ell = scenarios.run({**raw, "ell": ell, "lambda": lam,
                                "output_dir": str(tmp_path / "at_ell")})
        unit = scenarios.run({**raw, "lambda": lam / ell, "output_dir": str(tmp_path / "unit")})
        assert [p.read_bytes() for p in at_ell] == [p.read_bytes() for p in unit]
        if ell == 2.0:
            assert lam / ell == math.pi
            # lambda is not scaled: at one lambda, H is exactly 1/4 of the ell = 1 H
            default = read_csv(scenarios.run({**raw, "output_dir": str(tmp_path / "d")})[0])
            assert [float(r["H_true_if_known"]) / 4.0 for r in default] == [
                float(r["H_true_if_known"]) for r in read_csv(at_ell[0])]

    @pytest.mark.parametrize("sid", ["vacuum_curves", "thermal_curves"])
    def test_lightcone_tolerance_in_units_of_ell(self, sid, tmp_path):
        # the lightcone tolerance's floor of 1 is one ell, not an absolute
        # length: at ell = 1e-5 these scans wrote 32 of their 158 default
        # rows as LightconeSingularityError, and all of them at 1e-6, with
        # exit 0.  At any ell the failed rows are those at ell = 1 (here
        # |s| = 1e-7 and 1e-6), with the same text, and every kernel cell is
        # its ell = 1 twin times ell^-2
        raw = {"scenario_id": sid,
               "s_over_ell": [1e-7, 1e-6] + [0.5 + 0.25 * k for k in range(79)]}
        unit = run_rows(tmp_path, raw, "unit")
        assert sum(1 for u in unit if u["errors"]) == 4
        for ell in (1e-5, 1e-8):
            rows = run_rows(tmp_path, {**raw, "ell": ell}, f"ell{ell}")
            assert [r["errors"] for r in rows] == [u["errors"] for u in unit]
            assert_scaled(rows, unit, _SCALED[sid][0][:3], ell**-2, 1e-15)

    @pytest.mark.parametrize("ell", [0.3, 2.0, 1e-5])
    def test_closed_matches_oracle_at_any_width(self, ell):
        # the closed form divides its regions' ell out and scales by ell^-2;
        # the quadrature oracle integrates at the physical width, so the two
        # agree at any ell, within the oracle's tolerance (which scales as W)
        tol = 1e-12 / ell**2
        origin = GaussianRegion(Event(0.0, 0.0, 0.0, 0.0), ell)
        for state in (VAC, FieldState.thermal(5.0 * ell), FieldState.coherent(1.5 * ell),
                      FieldState.one_particle(2.0 * ell)):
            for dt, dr in ((0.0, 3.0), (2.0, 0.0), (1.5, 4.0), (5.0, 5.0)):
                ri = GaussianRegion(Event(dt * ell, dr * ell, 0.0, 0.0), ell)
                closed = wightman_smeared_closed(state, ri, origin)
                oracle = wightman_smeared_quadrature(state, ri, origin, tol)
                assert abs(closed - oracle) <= 2.0 * tol, (state, dt, dr)

    def test_thermal_roundtrip_at_small_beta(self, tmp_path, capsys):
        # beta = 1e-30 and 1e-70 ended in an OverflowError from the image
        # count (exit 1): inside the length bound it is a CapacityError
        # (exit 3), below it a config error (exit 2)
        for beta, code, text in ((1e-30, 3, "KMS images"), (1e-70, 2, "'beta'")):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"scenario_id": "tomography_roundtrip",
                                       "state": "thermal", "beta": beta}))
            assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == code
            assert text in capsys.readouterr().err


class TestCli:
    def test_list_scenarios(self, capsys):
        assert cli.main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "tomography_roundtrip" in out

    def test_validate_and_run(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario_id": "vacuum_curves",
                                   "s_over_ell": [5.0, 10.0]}))
        assert cli.main(["validate", str(cfg)]) == 0
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "vacuum_curves.csv" in out

    def test_thermal_lattice_roundtrip(self, tmp_path, capsys):
        # 1431 thermal pairs, none with a closed form: cheap because assembly
        # evaluates each distinct (|dt|, dr) once
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario_id": "tomography_roundtrip", "state": "thermal", "beta": 50.0,
            "lambda": 2.0 * math.pi,
            "lattice": {"n_space": 3, "n_time": 2, "spacing_space": 10.0,
                        "spacing_time": 10.0}}))
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        srow = read_csv(tmp_path / "out" / "summary.csv")[0]
        assert int(srow["n_regions"]) == 54
        assert int(srow["n_pairs"]) == 1431
        assert float(srow["max_abs_H_error"]) <= 1e-8

    @pytest.mark.parametrize("flag", [["--out", "out"], ["--seed", "3"],
                                      ["--enable-quadrature-columns"]],
                             ids=["out", "seed", "quadrature-columns"])
    def test_non_object_config_with_override(self, flag, tmp_path, capsys):
        # the override used to write into the list or string and crash with
        # a TypeError traceback (exit 1)
        for value in ([1, 2], "s"):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(value))
            for command in ("validate", "run"):
                assert cli.main([command, str(cfg), *flag]) == 2
                assert capsys.readouterr().err == (
                    "config error: config must be a JSON object\n")

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"scenario_id": "vacuum_curves", "ell": -1.0}))
        assert cli.main(["run", str(cfg)]) == 2
        assert cli.main(["run", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("out", ["file", "file/sub"], ids=["is-a-file", "under-a-file"])
    def test_uncreatable_output_dir_exit_code(self, out, tmp_path, capsys):
        # an output_dir that is a regular file, or lies under one, is a
        # config error on output_dir (exit 2, one line), not a traceback
        (tmp_path / "file").write_text("not a directory")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario_id": "vacuum_curves", "s_over_ell": [5.0],
                                   "output_dir": str(tmp_path / out)}))
        assert cli.main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: field 'output_dir'") and err.count("\n") == 1
        with pytest.raises(ConfigError) as ei:
            scenarios.run(json.loads(cfg.read_text()))
        assert ei.value.field == "output_dir"
        assert (tmp_path / "file").read_text() == "not a directory"

    def test_unwritable_output_file_exit_code(self, tmp_path, capsys):
        # a directory where an output file goes is a config error on
        # output_dir (exit 2, one line), not a traceback
        out = tmp_path / "out"
        (out / "coherent_field_grid.csv").mkdir(parents=True)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario_id": "coherent_field_grid",
                                   "output_dir": str(out)}))
        assert cli.main(["run", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: field 'output_dir'") and err.count("\n") == 1
        assert "coherent_field_grid.csv" in err
        with pytest.raises(ConfigError) as ei:
            scenarios.run(json.loads(cfg.read_text()))
        assert ei.value.field == "output_dir"
        assert (out / "coherent_field_grid.csv").is_dir()

    @pytest.mark.parametrize("raw", [
        {"scenario_id": "convergence_sweep", "ell_grid": [0.05, 0.1, 0.2]},
        {"scenario_id": "convergence_sweep", "base_config": {"dt": 1, "dr": 1}},
    ], ids=["ell-too-wide", "lightlike-base"])
    def test_convergence_sweep_widths_checked_before_run(self, raw, tmp_path, capsys):
        # widths the residual table refuses at this separation: both commands
        # exit 2 naming ell_grid, where they used to validate and then crash
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(raw))
        for command in ("validate", "run"):
            assert cli.main([command, str(cfg), "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert "field 'ell_grid'" in err and "exceeds separation/10" in err
        assert not (tmp_path / "out").exists()
        with pytest.raises(ConfigError) as ei:
            validate_config(raw)
        assert ei.value.field == "ell_grid"

    def test_console_script(self, tmp_path, src_env):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario_id": "vacuum_curves",
                                   "s_over_ell": [5.0]}))
        proc = subprocess.run(
            [sys.executable, "-m", "udwtomo.cli", "run", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=src_env)
        assert proc.returncode == 0, proc.stderr
