"""Closed-loop timing of one workload, set-up timing, gates and the result line.

Times are reported at a fixed reference speed (see ``calibration``); raw wall
times are printed alongside.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from udwtomo import scenarios

import tracer as tr
from calibration import REF_S, Speed
from workloads import Workload, operations

SETUP_REPEATS = 5


@dataclass
class Run:
    seconds: float          # raw wall time
    attempted: int
    failed: int
    digest: str
    raised: list[str]
    scale: float = 1.0      # to the reference speed

    @property
    def ref_s(self) -> float:
        return self.seconds * self.scale


def _digest(outs: list[Path]) -> str:
    h = hashlib.sha256()
    for out in outs:
        for path in sorted(out.glob("*")):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_once(cfgs: list[dict], outs: list[Path]) -> Run:
    """Run every scenario of the workload once; only the scenario calls are timed."""
    raised = []
    gc.collect()
    start = time.perf_counter()
    for cfg in cfgs:
        try:
            scenarios.run(dict(cfg))
        except Exception:  # a failing scenario is a counted failure, not a crash
            traceback.print_exc()
            raised.append(cfg["scenario_id"])
    seconds = time.perf_counter() - start
    attempted = failed = 0
    for cfg, out in zip(cfgs, outs):
        a, f = (1, 1) if cfg["scenario_id"] in raised else operations(cfg, out)
        attempted += a
        failed += f
    return Run(seconds, attempted, failed, _digest(outs), raised)


def setup_times(cfg_paths: list[Path], root: Path, repeats: int,
                speed: Speed) -> tuple[list[float], list[float], list[str]]:
    """Wall time of a fresh interpreter validating a config through the CLI,
    cycling through the workload's configs: (raw, at reference speed, failures)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"),
                                                    env.get("PYTHONPATH")) if p)
    raw, ref, fails = [], [], []
    for k in range(repeats):
        path = cfg_paths[k % len(cfg_paths)]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "udwtomo.cli", "validate", str(path)],
                              cwd=root, env=env, capture_output=True, text=True,
                              timeout=120)
        raw.append(time.perf_counter() - start)
        ref.append(raw[-1] * speed.factor())
        if proc.returncode != 0:
            fails.append(f"validate {path.name} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-300:]}")
    return raw, ref, fails


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _describe(name: str, ref: list[float], raw: list[float]) -> str:
    samples = ", ".join(f"{v:.4g}" for v in ref)
    return (f"{name:<14} {statistics.median(ref):.6g} s  (median of {len(ref)}: {samples}; "
            f"raw wall median {statistics.median(raw):.6g} s)")


def bench(workload: Workload, seed: int, seconds: float, trace: bool, root: Path) -> int:
    scratch = root / ".udwbench"
    work = scratch / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _bench(workload, seed, seconds, trace, root, scratch, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(workload, seed, seconds, trace, root, scratch, work) -> int:
    cfgs = workload.configs(seed)
    outs = [work / f"{k}-{cfg['scenario_id']}" for k, cfg in enumerate(cfgs)]
    cfgs = [dict(cfg, output_dir=str(out)) for cfg, out in zip(cfgs, outs)]
    print(f"workload {workload.name}, seed {seed}: {workload.why}")
    fails: list[str] = []

    speed = Speed(workload.calibration)
    if not trace:
        cfg_paths = []
        for k, cfg in enumerate(cfgs):
            cfg_paths.append(work / f"config-{k}.json")
            cfg_paths[-1].write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
        setup_raw, setup, setup_fails = setup_times(cfg_paths, root, SETUP_REPEATS, speed)
        fails += setup_fails

    runs, traced, layer_stats = [], [], []
    tracer = tr.Tracer()
    begin = time.perf_counter()
    while not runs or time.perf_counter() - begin < seconds:
        runs.append(run_once(cfgs, outs))
        runs[-1].scale = speed.factor()
        if trace:
            tracer.install()
            try:
                traced.append(run_once(cfgs, outs))
            finally:
                tracer.uninstall()
            traced[-1].scale = speed.factor()
            layer_stats.append(tracer.reset())
    print(f"calibration loop: median {statistics.median(speed.loop_s):.4g} s over "
          f"{len(speed.loop_s)} timings (reference {REF_S} s)")
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    every = runs + traced
    for r in every:
        fails += [f"scenario {sid} raised" for sid in r.raised]
    if len({r.digest for r in every}) > 1:
        fails.append("outputs differ between runs of the same config")
    import gates  # imported only now, so mpmath stays out of peak_rss_mib
    start = time.perf_counter()
    fails += gates.check(workload.name, cfgs, outs, seed)
    print(f"correctness gate took {time.perf_counter() - start:.3g} s")

    attempted = sum(r.attempted for r in every)
    failed = sum(r.failed for r in every)
    run_s = [r.ref_s for r in runs]
    if trace:
        metrics = _layer_metrics(workload, seed, tracer, runs, traced, layer_stats, scratch)
    else:
        timed_attempted = sum(r.attempted for r in runs)
        ok_share = 1.0 - sum(r.failed for r in runs) / timed_attempted
        print(_describe("run_s", run_s, [r.seconds for r in runs]))
        print(_describe("setup_s", setup, setup_raw))
        print(f"{'peak_rss_mib':<14} {peak_rss_mib:.6g} MiB")
        print(f"{'ok_share':<14} {ok_share:.6g}  ({timed_attempted} operations attempted)")
        metrics = {"run_s": _metric(statistics.median(run_s), "s"),
                   "setup_s": _metric(statistics.median(setup), "s"),
                   "peak_rss_mib": _metric(peak_rss_mib, "MiB"),
                   "ok_share": _metric(ok_share, "share")}
    for msg in fails:
        print(f"GATE FAILED: {msg}")
    print(f"correct: {not fails}; {attempted} operations attempted, {failed} failed")
    print(json.dumps({"correct": not fails, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if not fails else 1


def _layer_metrics(workload, seed, tracer, runs, traced, layer_stats, scratch) -> dict:
    untraced_s = statistics.median(r.ref_s for r in runs)
    traced_s = statistics.median(r.ref_s for r in traced)
    overhead = traced_s / untraced_s - 1.0
    last = layer_stats[-1]
    notes = tr.layer_notes(last, tracer.missing)
    per_run = [tr.layer_values(s, r.scale) for s, r in zip(layer_stats, traced)]
    metrics = {}
    print(f"{len(traced)} traced runs, median {traced_s:.6g} s against {untraced_s:.6g} s "
          f"untraced: tracing overhead {overhead:+.2%}")
    for m in tr.PER_LAYER:
        value = statistics.median(v[m.name] for v in per_run)
        metrics[m.name] = _metric(value, m.unit)
        note = f"  [{notes[m.name]}]" if m.name in notes else ""
        print(f"{m.name:<28} {value:.6g} {m.unit}{note}")
    for name in tracer.missing:
        print(f"missing: {name} (not found in the package; its metrics read 0)")
    metrics["trace.overhead_share"] = _metric(overhead, "share")
    metrics["trace.missing"] = _metric(len(tracer.missing), "count")
    path = scratch / f"trace-{workload.name}-{seed}.json"
    path.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "missing": tracer.missing,
        "untraced_s": [r.seconds for r in runs], "traced_s": [r.seconds for r in traced],
        "self_s": dict(last.self_s), "entries": dict(last.entries),
        "calls": dict(last.calls),
        "span_fields": ["id", "name", "start", "end", "parent"], "spans": last.spans,
    }) + "\n", encoding="utf-8")
    print(f"spans of the last traced run: {path.relative_to(scratch.parent)}")
    return metrics
