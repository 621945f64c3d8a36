"""Self-time arithmetic, spans, failure counts and missing targets of the tracer."""

import sys
import types

import pytest

import tracer as tr


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture
def fake_package(monkeypatch):
    """A two-module package: ``layer.outer`` calls ``layer.inner`` twice, and
    ``inner`` calls ``leaf`` three times; ``user`` holds ``inner`` through a
    from-import.  Each function advances the clock by a known amount."""
    clock = Clock()
    pkg = types.ModuleType("fakepkg")
    layer = types.ModuleType("fakepkg.layer")
    user = types.ModuleType("fakepkg.user")

    def leaf(x):
        clock.now += 1.0
        return x

    def inner(x):
        clock.now += 10.0
        for _ in range(3):
            layer.leaf(x)
        return x

    def outer(x):
        clock.now += 100.0
        layer.inner(x)
        layer.inner(x)
        return x

    def boom():
        clock.now += 5.0
        raise ValueError("boom")

    layer.leaf, layer.inner, layer.outer, layer.boom = leaf, inner, outer, boom
    user.inner = inner
    pkg.layer, pkg.user = layer, user
    for name, mod in (("fakepkg", pkg), ("fakepkg.layer", layer), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return clock, layer, user


def _tracer(clock, hook=None):
    targets = [
        tr.Target("layer", "outer", "g.outer"),
        tr.Target("layer", "inner", "g.inner", hook=hook),
        tr.Target("layer", "leaf", "g.leaf", span=False),
        tr.Target("layer", "boom", "g.outer"),
        tr.Target("layer", "renamed_away", "g.gone"),
        tr.Target("nomodule", "f", "g.gone"),
    ]
    return tr.Tracer(targets, clock=clock, package="fakepkg")


def test_self_time_subtracts_wrapped_children(fake_package):
    clock, layer, _ = fake_package
    t = _tracer(clock)
    t.install()
    try:
        layer.outer(1)
    finally:
        t.uninstall()
    s = t.stats
    assert s.self_s["g.outer"] == pytest.approx(100.0)
    assert s.self_s["g.inner"] == pytest.approx(20.0)
    assert s.self_s["g.leaf"] == pytest.approx(6.0)
    assert sum(s.self_s.values()) == pytest.approx(126.0)   # = outer's wall time
    assert s.calls == {"layer.outer": 1, "layer.inner": 2, "layer.leaf": 6}
    assert s.nested[("g.leaf", "g.inner")] == 6
    assert s.nested[("g.inner", "g.outer")] == 2


def test_spans_record_parents_and_times(fake_package):
    clock, layer, _ = fake_package
    t = _tracer(clock)
    t.install()
    try:
        layer.outer(1)
    finally:
        t.uninstall()
    spans = {sid: (name, start, end, parent) for sid, name, start, end, parent in t.stats.spans}
    assert len(spans) == 3                       # leaf is aggregated, not a span
    (root,) = [sid for sid, v in spans.items() if v[0] == "layer.outer"]
    assert spans[root][1:] == (0.0, 126.0, None)
    inner = sorted(v[1:] for v in spans.values() if v[0] == "layer.inner")
    assert inner == [(100.0, 113.0, root), (113.0, 126.0, root)]


def test_nested_calls_of_one_group_count_as_one_entry(fake_package):
    clock, layer, _ = fake_package
    targets = [tr.Target("layer", "outer", "g"), tr.Target("layer", "inner", "g"),
               tr.Target("layer", "leaf", "g")]
    t = tr.Tracer(targets, clock=clock, package="fakepkg")
    t.install()
    try:
        layer.outer(1)
        layer.leaf(1)
    finally:
        t.uninstall()
    assert t.stats.entries["g"] == 2
    assert t.stats.self_s["g"] == pytest.approx(127.0)


def test_raising_entries_are_counted_and_propagate(fake_package):
    clock, layer, _ = fake_package
    t = _tracer(clock)
    t.install()
    try:
        with pytest.raises(ValueError):
            layer.boom()
    finally:
        t.uninstall()
    assert t.stats.failed["g.outer"] == 1
    assert t.stats.self_s["g.outer"] == pytest.approx(5.0)


def test_missing_targets_are_reported_not_fatal(fake_package):
    clock, layer, _ = fake_package
    t = _tracer(clock)
    t.install()
    t.uninstall()
    assert t.missing == ["layer.renamed_away", "nomodule.f"]


def test_from_imported_names_are_wrapped_and_restored(fake_package):
    clock, layer, user = fake_package
    original = user.inner
    t = _tracer(clock)
    t.install()
    try:
        assert user.inner is layer.inner is not original
        user.inner(1)
    finally:
        t.uninstall()
    assert user.inner is original and layer.inner is original
    assert t.stats.calls["layer.inner"] == 1


def test_failing_hook_does_not_break_the_call(fake_package):
    clock, layer, _ = fake_package

    def bad_hook(stats, args, kwargs, result):
        raise TypeError("signature changed")

    t = _tracer(clock, hook=bad_hook)
    t.install()
    try:
        assert layer.outer(7) == 7
    finally:
        t.uninstall()
    assert t.stats.hook_errors["layer.inner"] == 2


def test_layer_notes_flag_uncalled_and_missing():
    stats = tr.Stats()
    stats.calls["kernels.hadamard_point"] = 3
    notes = tr.layer_notes(stats, missing=["numerics.integrate_semi_infinite"])
    assert notes["numerics.quad_s"].startswith("missing")
    assert notes["detector.draws"] == "layer not called"
    assert "kernels.pointlike_calls" not in notes


def test_every_target_exists_in_the_package():
    import udwtomo  # noqa: F401  (load every module the targets name)

    t = tr.Tracer()
    t.install()
    t.uninstall()
    assert t.missing == []
