"""Scenario configs, CSV artifacts, CLI surface and determinism."""

import csv
import json
import math
import subprocess
import sys

import pytest

from udwtomo import cli, multipole, scenarios
from udwtomo.errors import (ConfigError, ConvergenceError, LightconeSingularityError,
                            TangentDomainError)
from udwtomo.kernels import (FieldState, hadamard_point, wightman_smeared_closed,
                             wightman_smeared_quadrature)
from udwtomo.scenarios import validate_config
from udwtomo.smearing import GaussianRegion
from udwtomo.spacetime import Event

SMALL_S = {"start": 1.0, "stop": 12.0, "step": 1.0}
SMALL_GRID = {"t": {"start": -10.0, "stop": 10.0, "n": 5},
              "x": {"start": -10.0, "stop": 10.0, "n": 5}}


VAC = FieldState.vacuum()


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# one-pair references for the scan columns, called as f(state, ri, rj)
def _vacuum_kernel(state, ri, rj):
    return hadamard_point(VAC, ri.center, rj.center)


def _state_kernel(state, ri, rj):
    return hadamard_point(state, ri.center, rj.center)


def _multipole(state, ri, rj):
    return multipole.estimate(state, ri, rj).value


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
                                                     temporal_sign, tmp_path, monkeypatch):
        # each scan column comes from one array pass; every cell must equal
        # the one-pair function at the row's regions to the last bit, and a
        # lightlike row (|s| = 1e-5 ell, |sigma| <= 1e-9) must carry the
        # one-pair kernel's error text instead.  The quadrature column, where
        # the scan has one, comes from one certified pass without a single
        # per-pair oracle call, and lies within tol of the one-pair oracle.
        per_pair_calls = []
        monkeypatch.setattr(scenarios, "wightman_smeared_quadrature",
                            lambda *args: per_pair_calls.append(args))
        raw = {**raw, "enable_quadrature_columns": True}
        paths = scenarios.run({**raw, "output_dir": str(tmp_path)})
        assert per_pair_calls == []
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
                    hadamard_point(state, anchor, b)
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

    def test_convergence_sweep(self, tmp_path):
        paths = scenarios.run({"scenario_id": "convergence_sweep",
                               "output_dir": str(tmp_path)})
        rows = read_csv(paths[0])
        slope = float(rows[0]["slope"])
        assert slope == pytest.approx(4.0, abs=0.3)

    def test_per_point_errors_recorded(self, tmp_path, monkeypatch):
        # a failing point lands in the errors column with blank cells; the run
        # continues.  Lightlike points fail in the kernels: s = 1e-5 ell gives
        # |sigma| <= 1e-9 on both branches.
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

        # a point whose oracle quadrature fails loses its whole row: when the
        # one-pass certificate fails, the scan falls back to one oracle call
        # per point, and only the failing point's row is lost
        def uncertified(state, ell, a, b, tol):
            raise ConvergenceError("accumulated quadrature error exceeds tolerance")

        monkeypatch.setattr(scenarios, "_smeared_quadrature_real", uncertified)
        real_quadrature = scenarios.wightman_smeared_quadrature

        def flaky(state, ri, rj, tol):
            if abs(abs(ri.center.x - rj.center.x) - 5.0) < 1e-9:
                raise ConvergenceError("synthetic point failure")
            return real_quadrature(state, ri, rj, tol)

        monkeypatch.setattr(scenarios, "wightman_smeared_quadrature", flaky)
        paths = scenarios.run({"scenario_id": "thermal_curves", "beta": 50.0,
                               "s_over_ell": [3.0, 5.0, 8.0],
                               "enable_quadrature_columns": True,
                               "output_dir": str(tmp_path / "quadrature")})
        rows = read_csv(paths[0])
        assert len(rows) == 6
        bad = [r for r in rows if r["errors"]]
        assert len(bad) == 1
        assert bad[0]["s_over_ell"] == "5"
        assert bad[0]["errors"] == "ConvergenceError: synthetic point failure"
        assert all(v == "" for k, v in bad[0].items() if k not in ("s_over_ell", "errors"))
        good = [r for r in rows if not r["errors"]]
        assert all(r["thermal_pointlike"] and r["thermal_smeared_quadrature"]
                   for r in good)

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

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"scenario_id": "vacuum_curves", "ell": -1.0}))
        assert cli.main(["run", str(cfg)]) == 2
        assert cli.main(["run", str(tmp_path / "missing.json")]) == 2

    def test_console_script(self, tmp_path, src_env):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario_id": "vacuum_curves",
                                   "s_over_ell": [5.0]}))
        proc = subprocess.run(
            [sys.executable, "-m", "udwtomo.cli", "run", str(cfg),
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=src_env)
        assert proc.returncode == 0, proc.stderr
