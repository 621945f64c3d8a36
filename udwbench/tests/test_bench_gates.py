"""The correctness gates pass on real outputs and trip on corrupted ones.

Each workload is shrunk (fewer regions, shots, rows) so the scenarios run in
about a second; the gates read sizes from the config, so the same code
paths run as in the benchmark.
"""

import csv
import shutil
from pathlib import Path

import pytest

from udwtomo import scenarios
import gates
from workloads import WORKLOADS

SEED = 5


def _shrink(name: str) -> list[dict]:
    cfgs = WORKLOADS[name].configs(SEED)
    if name == "lattice_thermal":
        cfgs[0]["lattice"].update(n_space=2, n_time=2)
    elif name == "shot_noise":
        cfgs[0]["lattice"].update(n_space=2, n_time=1)
        cfgs[0].update(shots_list=[10**4, 10**5, 10**6], repeats=2)
    else:
        for cfg in cfgs:
            if "s_over_ell" in cfg:
                scan = cfg["s_over_ell"]
                scan["stop"] = scan["start"] + 4 * scan["step"]
            if "grid" in cfg:
                for ax in cfg["grid"].values():
                    ax["n"] = 4
    return cfgs


@pytest.fixture(scope="module")
def produce(tmp_path_factory):
    """produce(name) -> (configs, output dirs) of one real run of the shrunk
    workload, made once per module."""
    made = {}

    def make(name):
        if name not in made:
            base = tmp_path_factory.mktemp(name)
            cfgs = _shrink(name)
            outs = []
            for k, cfg in enumerate(cfgs):
                outs.append(base / f"{k}-{cfg['scenario_id']}")
                cfg["output_dir"] = str(outs[-1])
                scenarios.run(dict(cfg))
            made[name] = cfgs, outs
        return made[name]
    return make


def _copy(produce, name, tmp_path):
    cfgs, outs = produce(name)
    new_outs = [tmp_path / out.name for out in outs]
    for src, dst in zip(outs, new_outs):
        shutil.copytree(src, dst)
    return cfgs, new_outs


def _edit(path: Path, column: str, change) -> None:
    """Rewrite one CSV column through ``change(row_index, value_text) -> value``."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for k, row in enumerate(rows):
        row[column] = repr(change(k, row[column]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _scale(factor):
    return lambda k, v: float(v) * factor


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_gates_pass_on_real_outputs(produce, name):
    cfgs, outs = produce(name)
    assert gates.check(name, cfgs, outs, SEED) == []


def _shift(delta):
    return lambda k, v: float(v) + delta


# (workload, file, column, change, text expected in a failure message)
CORRUPTIONS = [
    ("lattice_thermal", "summary.csv", "max_abs_H_error", lambda k, v: 1e-6, "max_abs_H_error"),
    ("lattice_thermal", "reconstruction.csv", "H_true_if_known", _scale(1 + 1e-4),
     "|H_rec - H_true|"),
    ("shot_noise", "shot_noise_study.csv", "rms_error", lambda k, v: 0.01 * 2.0 ** -k,
     "slope"),
    ("states_gallery", "thermal_curves.csv", "thermal_multipole", _scale(1 + 1e-4),
     "thermal_multipole"),
    ("states_gallery", "thermal_curves.csv", "thermal_pointlike", _scale(1 + 1e-7),
     "thermal_pointlike"),
    ("states_gallery", "thermal_curves.csv", "vacuum_pointlike", _scale(1 + 1e-7),
     "vacuum_pointlike"),
    ("states_gallery", "oneparticle_curves.csv", "multipole", _scale(1 - 1e-4), "multipole"),
    ("states_gallery", "oneparticle_curves.csv", "state_kernel", _scale(1 + 1e-7),
     "state_kernel"),
    ("states_gallery", "coherent_field_grid.csv", "value", _shift(1e-9), "coherent_field_grid"),
    ("states_gallery", "oneparticle_diff_grid.csv", "value", _shift(1e-12),
     "oneparticle_diff_grid"),
]


@pytest.mark.parametrize("name, filename, column, change, message", CORRUPTIONS)
def test_gates_trip_on_corrupted_outputs(produce, tmp_path, name, filename, column,
                                         change, message):
    cfgs, outs = _copy(produce, name, tmp_path)
    (path,) = [out / filename for out in outs if (out / filename).exists()]
    _edit(path, column, change)
    fails = gates.check(name, cfgs, outs, SEED)
    assert any(message in f for f in fails), fails


def test_oracle_mismatch_trips_the_lattice_gate(produce, tmp_path):
    """Scaling true and reconstructed H together keeps the roundtrip consistent;
    only the quadrature oracle can notice."""
    cfgs, outs = _copy(produce, "lattice_thermal", tmp_path)
    path = outs[0] / "reconstruction.csv"
    for column in ("H_true_if_known", "H_reconstructed"):
        _edit(path, column, _scale(1 + 1e-4))
    fails = gates.check("lattice_thermal", cfgs, outs, SEED)
    assert fails and all("quadrature oracle" in f for f in fails), fails


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_missing_output_fails_the_gate(produce, tmp_path, name):
    cfgs, outs = _copy(produce, name, tmp_path)
    shutil.rmtree(outs[0])
    assert gates.check(name, cfgs, outs, SEED)
