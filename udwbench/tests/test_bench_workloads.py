"""Seed-to-config determinism and the fixed amount of work per workload."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from udwtomo.scenarios import validate_config
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]


def _work_shape(cfg: dict) -> dict:
    """The parts of a config that fix how much work it is."""
    keys = ("scenario_id", "shots_list", "repeats", "lambda", "state", "delta",
            "s_over_ell", "enable_quadrature_columns")
    shape = {k: cfg[k] for k in keys if k in cfg}
    if "lattice" in cfg:
        shape["lattice"] = {k: v for k, v in cfg["lattice"].items() if k != "origin"}
    if "grid" in cfg:
        shape["grid"] = {ax: (round(g["stop"] - g["start"], 6), g["n"])
                          for ax, g in cfg["grid"].items()}
    return shape


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_configs(name):
    make = WORKLOADS[name].configs
    assert json.dumps(make(7)) == json.dumps(make(7))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_moves_parameters_not_work(name):
    make = WORKLOADS[name].configs
    configs = [make(seed) for seed in range(6)]
    assert len({json.dumps(c) for c in configs}) == 6
    shapes = {json.dumps([_work_shape(c) for c in cfgs]) for cfgs in configs}
    assert len(shapes) == 1


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_configs_validate_and_leave_threads_unset(name):
    for cfg in WORKLOADS[name].configs(3):
        assert "threads" not in cfg
        assert validate_config(dict(cfg)).threads is None


def test_parameters_stay_in_their_ranges():
    for seed in range(20):
        (lat,) = WORKLOADS["lattice_thermal"].configs(seed)
        assert 40.0 <= lat["beta"] <= 60.0
        assert all(abs(v) <= 5.0 for v in lat["lattice"]["origin"].values())
        thermal, oneparticle, _, diff = WORKLOADS["states_gallery"].configs(seed)
        assert 40.0 <= thermal["beta"] <= 60.0
        assert abs(oneparticle["anchor"]["t"] + 60.0) <= 5.0
        assert oneparticle["anchor"] == diff["anchor"]


def test_benchmark_json_lists_these_workloads():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}


def test_run_refuses_a_directory_without_the_package(tmp_path):
    copy = tmp_path / "udwbench"
    copy.mkdir()
    (copy / "run.py").write_bytes((BENCH / "run.py").read_bytes())
    proc = subprocess.run([sys.executable, "udwbench/run.py", "--workload", "shot_noise",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_lists_every_metric():
    import tracer as tr

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == ["run_s", "setup_s", "peak_rss_mib",
                                                       "ok_share"]
    assert [m["name"] for m in spec["per_layer"]] == (
        [m.name for m in tr.PER_LAYER] + ["trace.overhead_share", "trace.missing"])
