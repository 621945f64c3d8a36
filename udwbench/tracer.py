"""Per-layer tracing of udwtomo, done from outside the package.

The tracer replaces public layer functions with timing wrappers by
rebinding module attributes: every loaded ``udwtomo`` module that holds the
original function object (including names brought in with ``from x import
y``) gets the wrapper, and ``uninstall`` puts the originals back.  Nothing
in ``src/`` is edited.

Each wrapped call is a frame on one call stack.  A frame's self time is its
duration minus the durations of the wrapped calls made inside it, and is
credited to the frame's group (a layer stage such as ``kernels.pointlike``).
Calls of span targets, which run fewer than about 10^4 times per workload,
are also kept as spans (name, start, end, parent span); hot functions such
as ``interval`` or ``pauli_ev_closed`` are only aggregated.

A target whose module attribute no longer exists is reported as missing, so
a renamed function shows up in the report instead of crashing the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One module attribute to wrap, the group its time goes to, and an
    optional hook ``hook(stats, args, kwargs, result)`` run on normal return.
    ``span=False`` marks a function called too often to keep every call."""

    module: str
    attr: str
    group: str
    span: bool = True
    hook: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


@dataclass
class Stats:
    """What one traced stretch of work recorded."""

    self_s: defaultdict = field(default_factory=lambda: defaultdict(float))
    entries: Counter = field(default_factory=Counter)      # calls not nested in their own group
    failed: Counter = field(default_factory=Counter)       # entries that raised
    calls: Counter = field(default_factory=Counter)        # per target name
    nested: Counter = field(default_factory=Counter)       # (group, parent group) -> entries
    counts: Counter = field(default_factory=Counter)       # hook-maintained counts
    maxima: dict = field(default_factory=dict)             # hook-maintained maxima
    sets: defaultdict = field(default_factory=lambda: defaultdict(set))
    hook_errors: Counter = field(default_factory=Counter)  # per target name
    spans: list = field(default_factory=list)              # (id, name, start, end, parent id)

    def raise_max(self, key: str, value: float) -> None:
        if value > self.maxima.get(key, -math.inf):
            self.maxima[key] = value


# ---------------------------------------------------------------------------
# hooks: counts read from arguments and return values
# ---------------------------------------------------------------------------

def _pair_eval(stats: Stats, args, kwargs, result) -> None:
    # wightman_smeared_closed(state, ri, rj): one smeared pair evaluation
    ri, rj = args[1], args[2]
    a, b = ri.center, rj.center
    dr = math.sqrt((a.x - b.x) ** 2 + (a.y - b.y) ** 2 + (a.z - b.z) ** 2)
    stats.counts["pair_evals"] += 1
    stats.counts["pair_closed"] += result is not None
    stats.sets["geometries"].add((round(abs(a.t - b.t), 9), round(dr, 9)))


def _quadrature(stats: Stats, args, kwargs, result) -> None:
    stats.counts["quad_evals"] += result.evaluations
    stats.raise_max("quad_err", result.error_estimate)


def _record(stats: Stats, args, kwargs, result) -> None:
    stats.counts["records"] += 1


def _sampled_record(stats: Stats, args, kwargs, result) -> None:
    # one binomial draw per sampled correlator: zz, yy, zi, zj and the cross terms
    stats.counts["draws"] += 4 + len(result.yx_ik) + len(result.xy_kj)


def _sampled_correlator(stats: Stats, args, kwargs, result) -> None:
    stats.counts["draws"] += 1


def _written(stats: Stats, args, kwargs, result) -> None:
    # the CSV writers take the output path as their only path-like argument
    path = next(a for a in (*args, *kwargs.values()) if isinstance(a, (str, os.PathLike)))
    stats.counts["bytes_written"] += os.path.getsize(path)


TARGETS: tuple[Target, ...] = (
    Target("scenarios", "run", "scenarios.run"),
    Target("scenarios", "_write_rows", "scenarios.write", hook=_written),
    Target("tomography", "write_reconstruction_results", "scenarios.write", hook=_written),
    Target("kernels", "assemble_kernels", "kernels.assemble"),
    Target("kernels", "wightman_smeared_closed", "kernels.assemble", hook=_pair_eval),
    Target("kernels", "hadamard_point", "kernels.pointlike", span=False),
    Target("kernels", "phi0_coherent", "kernels.pointlike", span=False),
    Target("kernels", "F_oneparticle", "kernels.pointlike", span=False),
    Target("numerics", "integrate_semi_infinite", "numerics.quad", hook=_quadrature),
    Target("detector", "correlation_record", "detector.correlators", hook=_record),
    Target("detector", "pauli_ev_closed", "detector.correlators", span=False),
    Target("detector", "sample_record", "detector.sample", hook=_sampled_record),
    Target("detector", "sample_correlator", "detector.sample", span=False,
           hook=_sampled_correlator),
    Target("tomography", "reconstruct_record", "tomography.invert"),
    Target("tomography", "reconstruct_general", "tomography.invert"),
    Target("tomography", "reconstruct_spacelike", "tomography.invert"),
    Target("tomography", "causal_correction", "tomography.invert"),
    Target("multipole", "estimate", "multipole.estimate"),
    Target("multipole", "derivatives", "multipole.estimate"),
    Target("spacetime", "interval", "spacetime.interval", span=False),
    Target("spacetime", "classify", "spacetime.interval", span=False),
)


class Tracer:
    """Installs wrappers for ``targets`` and accumulates into ``stats``."""

    def __init__(self, targets=TARGETS, clock: Callable[[], float] = time.perf_counter,
                 package: str = "udwtomo"):
        self.targets = tuple(targets)
        self.clock = clock
        self.package = package
        self.stats = Stats()
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []
        self._next_span = 0

    def reset(self) -> Stats:
        """Start a fresh ``Stats`` and return the previous one."""
        old, self.stats = self.stats, Stats()
        return old

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        self.missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == self.package or n.startswith(self.package + "."))]
        for t in self.targets:
            try:
                mod = importlib.import_module(f"{self.package}.{t.module}")
            except ImportError:
                self.missing.append(t.name)
                continue
            original = getattr(mod, t.attr, None)
            if not callable(original):
                self.missing.append(t.name)
                continue
            wrapper = self._wrap(original, t)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._restore.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._restore):
            setattr(m, attr, original)
        self._restore = []
        self._stack = []

    def _wrap(self, fn: Callable, t: Target) -> Callable:
        tracer = self
        stack = self._stack
        group, name, hook, is_span = t.group, t.name, t.hook, t.span

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = tracer.stats
            parent = stack[-1] if stack else None
            parent_group = parent[0] if parent is not None else None
            parent_span = parent[3] if parent is not None else None
            outermost = parent_group != group
            span_id = parent_span
            if is_span:
                span_id = tracer._next_span
                tracer._next_span += 1
            stats.calls[name] += 1
            if outermost:
                stats.entries[group] += 1
                stats.nested[(group, parent_group)] += 1
            # frame: group, start, child time, span id
            frame = [group, 0.0, 0.0, span_id]
            stack.append(frame)
            frame[1] = start = tracer.clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = tracer.clock()
                stack.pop()
                duration = end - start
                stats.self_s[group] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                if is_span:
                    stats.spans.append((span_id, name, start, end, parent_span))
                if not ok and outermost:
                    stats.failed[group] += 1
            if hook is not None:
                try:
                    hook(stats, args, kwargs, result)
                except Exception:  # a changed signature must not break the traced program
                    stats.hook_errors[name] += 1
            return result

        return wrapper


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    value: Callable[[Stats], float]
    needs: tuple[str, ...]   # target names the value is read from


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


PER_LAYER: tuple[LayerMetric, ...] = (
    LayerMetric("kernels.assemble_s", "s", "lower",
                lambda s: s.self_s["kernels.assemble"],
                ("kernels.assemble_kernels", "kernels.wightman_smeared_closed")),
    LayerMetric("kernels.pair_evals", "count", "lower",
                lambda s: s.counts["pair_evals"], ("kernels.wightman_smeared_closed",)),
    LayerMetric("kernels.closed_share", "share", "higher",
                lambda s: _share(s.counts["pair_closed"], s.counts["pair_evals"]),
                ("kernels.wightman_smeared_closed",)),
    LayerMetric("kernels.distinct_geometries", "count", "lower",
                lambda s: len(s.sets["geometries"]), ("kernels.wightman_smeared_closed",)),
    LayerMetric("kernels.pointlike_calls", "count", "lower",
                lambda s: s.entries["kernels.pointlike"],
                ("kernels.hadamard_point", "kernels.phi0_coherent", "kernels.F_oneparticle")),
    LayerMetric("kernels.pointlike_s", "s", "lower",
                lambda s: s.self_s["kernels.pointlike"],
                ("kernels.hadamard_point", "kernels.phi0_coherent", "kernels.F_oneparticle")),
    LayerMetric("numerics.quad_calls", "count", "lower",
                lambda s: s.calls["numerics.integrate_semi_infinite"],
                ("numerics.integrate_semi_infinite",)),
    LayerMetric("numerics.quad_s", "s", "lower",
                lambda s: s.self_s["numerics.quad"], ("numerics.integrate_semi_infinite",)),
    LayerMetric("numerics.quad_evals", "count", "lower",
                lambda s: s.counts["quad_evals"], ("numerics.integrate_semi_infinite",)),
    LayerMetric("numerics.quad_err_max", "abs", "lower",
                lambda s: s.maxima.get("quad_err", 0.0),
                ("numerics.integrate_semi_infinite",)),
    LayerMetric("detector.correlators_s", "s", "lower",
                lambda s: s.self_s["detector.correlators"],
                ("detector.correlation_record", "detector.pauli_ev_closed")),
    LayerMetric("detector.records", "count", "lower",
                lambda s: s.counts["records"], ("detector.correlation_record",)),
    LayerMetric("detector.closed_calls", "count", "lower",
                lambda s: s.calls["detector.pauli_ev_closed"], ("detector.pauli_ev_closed",)),
    LayerMetric("detector.sample_s", "s", "lower",
                lambda s: s.self_s["detector.sample"],
                ("detector.sample_record", "detector.sample_correlator")),
    LayerMetric("detector.draws", "count", "lower",
                lambda s: s.counts["draws"],
                ("detector.sample_record", "detector.sample_correlator")),
    LayerMetric("tomography.invert_s", "s", "lower",
                lambda s: s.self_s["tomography.invert"],
                ("tomography.reconstruct_record", "tomography.reconstruct_general",
                 "tomography.reconstruct_spacelike", "tomography.causal_correction")),
    LayerMetric("tomography.inversions", "count", "higher",
                lambda s: s.entries["tomography.invert"], ("tomography.reconstruct_record",)),
    LayerMetric("tomography.failed", "count", "lower",
                lambda s: s.failed["tomography.invert"], ("tomography.reconstruct_record",)),
    LayerMetric("multipole.estimate_s", "s", "lower",
                lambda s: s.self_s["multipole.estimate"],
                ("multipole.estimate", "multipole.derivatives")),
    LayerMetric("multipole.estimates", "count", "higher",
                lambda s: s.calls["multipole.estimate"], ("multipole.estimate",)),
    LayerMetric("multipole.kernel_evals", "count", "lower",
                lambda s: s.nested[("kernels.pointlike", "multipole.estimate")],
                ("multipole.estimate", "kernels.hadamard_point")),
    LayerMetric("spacetime.interval_calls", "count", "lower",
                lambda s: s.calls["spacetime.interval"], ("spacetime.interval",)),
    LayerMetric("scenarios.write_s", "s", "lower",
                lambda s: s.self_s["scenarios.write"],
                ("scenarios._write_rows", "tomography.write_reconstruction_results")),
    LayerMetric("scenarios.bytes_written", "B", "lower",
                lambda s: s.counts["bytes_written"],
                ("scenarios._write_rows", "tomography.write_reconstruction_results")),
)


def layer_values(stats: Stats, time_scale: float = 1.0) -> dict[str, float]:
    """Every per-layer value; times (unit ``s``) are multiplied by ``time_scale``."""
    return {m.name: float(m.value(stats)) * (time_scale if m.unit == "s" else 1.0)
            for m in PER_LAYER}


def layer_notes(stats: Stats, missing: list[str]) -> dict[str, str]:
    """Why a per-layer value is zero or partial: a wrapped name that was not
    found, or a layer this workload never called."""
    notes = {}
    for m in PER_LAYER:
        gone = [n for n in m.needs if n in missing]
        broken = [n for n in m.needs if stats.hook_errors[n]]
        if gone:
            notes[m.name] = "missing: " + ", ".join(gone)
        elif broken:
            notes[m.name] = "count hook failed on: " + ", ".join(broken)
        elif not any(stats.calls[n] for n in m.needs):
            notes[m.name] = "layer not called"
    return notes
