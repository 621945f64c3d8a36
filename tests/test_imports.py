"""Import hygiene: importing the package, checking a config, listing the
scenarios and ``--help`` load neither numpy nor scipy, nor ``dataclasses``
and ``inspect`` beyond what a bare interpreter loads; the scenarios that
need no quadrature or Dawson values run without loading scipy, and the
detector scenarios, the curve scans, their quadrature cells included, and
the convergence sweep, whose residuals come from the quadrature oracle,
never load ``scipy.integrate``.

Each test runs a fresh interpreter, since the test process itself has
loaded numpy and scipy long before."""

import json
import subprocess
import sys

import pytest

from udwtomo import scenarios

# runs the snippet, then prints the modules under the given top-level names
# that the interpreter has loaded
_PROBE = """
import sys
{body}
print("LOADED=" + ",".join(sorted(m for m in sys.modules if m.split(".")[0] in {roots!r})))
"""

# the config path's records are no dataclasses: ``dataclasses`` pulls in
# ``inspect``, ``ast``, ``dis`` and ``tokenize``, several milliseconds of a
# cold ``validate``
_NOT_ON_CONFIG_PATH = ("dataclasses", "inspect")


def loaded_modules(body, env, cwd, roots=("numpy", "scipy")):
    proc = subprocess.run([sys.executable, "-c", _PROBE.format(body=body, roots=roots)],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=120)
    assert proc.returncode == 0, proc.stderr
    line = proc.stdout.strip().splitlines()[-1]
    assert line.startswith("LOADED="), proc.stdout
    return [m for m in line.split("=", 1)[1].split(",") if m]


def config_path_extras(body, env, cwd):
    """The numpy and scipy modules the snippet loads, and the ``dataclasses``
    and ``inspect`` modules it loads that a bare interpreter in the same
    environment has not (a ``site`` hook may preload some)."""
    bare = set(loaded_modules("", env, cwd, _NOT_ON_CONFIG_PATH))
    roots = ("numpy", "scipy", *_NOT_ON_CONFIG_PATH)
    return [m for m in loaded_modules(body, env, cwd, roots) if m not in bare]


def loaded_scipy_modules(body, env, cwd):
    return [m for m in loaded_modules(body, env, cwd) if m.split(".")[0] == "scipy"]


def write_config(path, raw):
    path.write_text(json.dumps(raw))
    return str(path)


def test_import_package(src_env, tmp_path):
    assert config_path_extras("import udwtomo", src_env, tmp_path) == []


def test_import_config(src_env, tmp_path):
    assert config_path_extras("import udwtomo.config", src_env, tmp_path) == []


def test_validate_every_scenario(src_env, tmp_path):
    paths = [write_config(tmp_path / f"{sid}.json", {"scenario_id": sid})
             for sid in scenarios.SCENARIO_IDS]
    body = (f"from udwtomo import cli\n"
            f"assert all(cli.main(['validate', p]) == 0 for p in {paths!r})")
    assert config_path_extras(body, src_env, tmp_path) == []


def test_list_scenarios(src_env, tmp_path):
    body = "from udwtomo import cli\nassert cli.main(['list-scenarios']) == 0"
    assert config_path_extras(body, src_env, tmp_path) == []


def test_help(src_env, tmp_path):
    body = ("from udwtomo import cli\n"
            "try:\n"
            "    cli.main(['--help'])\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
            "else:\n"
            "    raise AssertionError('--help did not exit')")
    assert config_path_extras(body, src_env, tmp_path) == []


def test_coherent_field_grid_run(src_env, tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"scenario_id": "coherent_field_grid"})
    body = (f"from udwtomo import cli\n"
            f"assert cli.main(['run', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]) == 0")
    assert loaded_scipy_modules(body, src_env, tmp_path) == []
    assert (tmp_path / "out" / "coherent_field_grid.csv").stat().st_size > 0


@pytest.mark.parametrize("raw", [
    {"scenario_id": "tomography_roundtrip"},
    {"scenario_id": "tomography_roundtrip", "state": "thermal", "beta": 50.0},
    {"scenario_id": "shot_noise_study", "shots_list": [1000, 10000], "repeats": 2},
], ids=["roundtrip-vacuum", "roundtrip-thermal", "shot-noise"])
def test_detector_scenarios_skip_quadrature(src_env, tmp_path, raw):
    # smeared kernels are closed forms; the quadrature is the tests' oracle only
    cfg = write_config(tmp_path / "cfg.json", raw)
    body = (f"from udwtomo import cli\n"
            f"assert cli.main(['run', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]) == 0")
    loaded = loaded_scipy_modules(body, src_env, tmp_path)
    assert "scipy.special" in loaded
    assert not [m for m in loaded if m.startswith("scipy.integrate")]


@pytest.mark.parametrize("scenario_id", ["vacuum_curves", "thermal_curves",
                                         "coherent_curves", "oneparticle_curves"])
def test_curve_scenarios_skip_quadrature(src_env, tmp_path, scenario_id):
    # with the quadrature columns off (the default) a scan is closed forms only
    cfg = write_config(tmp_path / "cfg.json", {"scenario_id": scenario_id})
    body = (f"from udwtomo import cli\n"
            f"assert cli.main(['run', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]) == 0")
    loaded = loaded_scipy_modules(body, src_env, tmp_path)
    assert not [m for m in loaded if m.startswith("scipy.integrate")]


@pytest.mark.parametrize("scenario_id", ["thermal_curves", "coherent_curves",
                                         "oneparticle_curves"])
def test_quadrature_columns_skip_scipy_integrate(src_env, tmp_path, scenario_id):
    # the quadrature cells run the one integrator, which is numpy alone
    cfg = write_config(tmp_path / "cfg.json", {"scenario_id": scenario_id,
                                               "enable_quadrature_columns": True})
    body = (f"from udwtomo import cli\n"
            f"assert cli.main(['run', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]) == 0")
    loaded = loaded_scipy_modules(body, src_env, tmp_path)
    assert not [m for m in loaded if m.startswith("scipy.integrate")]
    header = (tmp_path / "out" / f"{scenario_id}.csv").read_text().splitlines()[0]
    assert "smeared_quadrature" in header


@pytest.mark.parametrize("raw", [
    {"scenario_id": "convergence_sweep"},
    {"scenario_id": "convergence_sweep", "state": "thermal", "beta": 50.0},
], ids=["vacuum", "thermal"])
def test_convergence_sweep_skips_scipy_integrate(src_env, tmp_path, raw):
    # the oracle's one-pair quadrature is numpy alone, with the KMS knots
    cfg = write_config(tmp_path / "cfg.json", raw)
    body = (f"from udwtomo import cli\n"
            f"assert cli.main(['run', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]) == 0")
    loaded = loaded_scipy_modules(body, src_env, tmp_path)
    assert not [m for m in loaded if m.startswith("scipy.integrate")]
    assert (tmp_path / "out" / "convergence_sweep.csv").stat().st_size > 0


def test_thermal_roundtrip_matches_in_process(src_env, tmp_path):
    # the child loads scipy.special at the first smeared thermal kernel
    raw = {"scenario_id": "tomography_roundtrip", "state": "thermal", "beta": 50.0}
    cfg = write_config(tmp_path / "cfg.json", raw)
    proc = subprocess.run([sys.executable, "-m", "udwtomo.cli", "run", cfg,
                           "--out", str(tmp_path / "child")],
                          capture_output=True, text=True, env=src_env, cwd=tmp_path,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    paths = scenarios.run({**raw, "output_dir": str(tmp_path / "here")})
    assert paths
    for p in paths:
        assert (tmp_path / "child" / p.name).read_bytes() == p.read_bytes()
