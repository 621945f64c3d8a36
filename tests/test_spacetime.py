"""Events, intervals, causal character and lattice construction."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from udwtomo import spacetime
from udwtomo.spacetime import Event, LatticeSpec, default_lightcone_tol, intervals

coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
events = st.builds(Event, coord, coord, coord, coord)


def causal_character(itv):
    """'lightlike' within the default lightcone tolerance, else 'spacelike'
    or 'timelike_future' / 'timelike_past' (the first event's time relative
    to the second's), for every pair of ``itv``."""
    return np.where(np.abs(itv.sigma) <= default_lightcone_tol(itv), "lightlike",
                    np.where(itv.sigma > 0, "spacelike",
                             np.where(itv.dt > 0, "timelike_future", "timelike_past")))


def test_interval_examples():
    o = np.zeros(4)
    itv = intervals([o, [1.0, 0.0, 0.0, 0.0], [0.0, 3.0, 4.0, 0.0]], o)
    assert itv.dt.tolist() == [0.0, 1.0, 0.0]
    assert itv.dr.tolist() == [0.0, 0.0, 5.0]
    assert itv.sigma.tolist() == [0.0, -0.5, 12.5]


def test_classify_examples():
    a = [[0.0, 1.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0], [-2.0, 1.0, 0.0, 0.0],
         [1.0, 1.0, 0.0, 0.0]]
    assert causal_character(intervals(a, np.zeros(4))).tolist() == [
        "spacelike", "timelike_future", "timelike_past", "lightlike"]


def test_event_requires_finite():
    # each refusal names the coordinate
    for name in "txyz":
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match=f"Event.{name} must be finite"):
                Event(**{**dict(t=1.0, x=2.0, y=3.0, z=4.0), name: bad})


def test_event_record():
    # equal coordinates are one event, as a set member too; z defaults to 0,
    # and an event is immutable
    a = Event(1.0, -2.0, 0.5)
    assert a.z == 0.0 and a == Event(t=1.0, x=-2.0, y=0.5, z=0.0)
    assert hash(a) == hash(Event(1.0, -2.0, 0.5, 0.0)) and len({a, Event(1.0, -2.0, 0.5)}) == 1
    assert a != Event(1.0, -2.0, 0.5, 1.0)
    with pytest.raises(AttributeError):
        a.t = 3.0
    with pytest.raises(AttributeError):
        a.w = 3.0
    assert a.coords().tolist() == [1.0, -2.0, 0.5, 0.0]


@given(events, events)
def test_interval_antisymmetry(a, b):
    ab = intervals(a.coords(), b.coords())
    ba = intervals(b.coords(), a.coords())
    assert ab.dt == -ba.dt
    assert ab.dr == ba.dr
    assert ab.sigma == ba.sigma


@given(events, events)
def test_classify_exchange(a, b):
    ab = causal_character(intervals(a.coords(), b.coords())).item()
    ba = causal_character(intervals(b.coords(), a.coords())).item()
    swapped = {"timelike_future": "timelike_past", "timelike_past": "timelike_future"}
    assert ba == swapped.get(ab, ab)


def lattice_reference(spec):
    """The lattice as the per-site loop of Events it replaced: row-major in
    (time, z, y, x), each coordinate origin + index * spacing."""
    o = spec.origin
    return [Event(o.t + it * spec.spacing_time, o.x + ix * spec.spacing_space,
                  o.y + iy * spec.spacing_space, o.z + iz * spec.spacing_space)
            for it in range(spec.n_time) for iz in range(spec.n_space)
            for iy in range(spec.n_space) for ix in range(spec.n_space)]


class TestLattice:
    def test_single(self):
        centers = spacetime.build_lattice(LatticeSpec(1, 1, 1.0, 1.0))
        assert centers.shape == (1, 4) and centers.dtype == np.float64
        assert centers.tolist() == [[0.0, 0.0, 0.0, 0.0]]

    def test_time_column(self):
        centers = spacetime.build_lattice(LatticeSpec(1, 3, 1.0, 2.0))
        assert centers[:, 0].tolist() == [0.0, 2.0, 4.0]
        assert not centers[:, 1:].any()

    def test_unit_cube(self):
        centers = spacetime.build_lattice(LatticeSpec(2, 1, 1.0, 1.0))
        assert centers.shape == (8, 4)
        assert {tuple(c) for c in centers[:, 1:].tolist()} == {
            (x, y, z) for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)}

    def test_count_and_uniqueness(self):
        spec = LatticeSpec(3, 2, 0.5, 0.25, origin=Event(1.0, -1.0, 2.0, 0.0))
        centers = spacetime.build_lattice(spec)
        assert centers.shape == (spec.n_events, 4) == (54, 4)
        assert len(np.unique(centers, axis=0)) == 54

    @pytest.mark.parametrize("origin", [Event(0.0, 0.0, 0.0, 0.0),
                                        Event(0.1, -2.7, 0.35, 1.9)], ids=["zero", "inexact"])
    @pytest.mark.parametrize("n_space", [1, 2, 3])
    @pytest.mark.parametrize("n_time", [1, 2, 3])
    def test_bitwise_equal_to_event_loop(self, origin, n_space, n_time):
        # spacings and an origin not exact in binary, so a different
        # evaluation order of any coordinate would move its last bits
        spec = LatticeSpec(n_space, n_time, 3.3, 0.7, origin)
        centers = spacetime.build_lattice(spec)
        reference = np.array([e.coords() for e in lattice_reference(spec)])
        assert centers.shape == reference.shape == (n_space**3 * n_time, 4)
        assert np.array_equal(centers.view(np.int64), reference.view(np.int64))

    def test_time_outermost_ordering(self):
        # x varies fastest, then y, z and time; for each spatial site, the
        # earlier coupling must come first in index order
        centers = spacetime.build_lattice(LatticeSpec(2, 3, 1.0, 1.0))
        grid = centers.reshape(3, 2, 2, 2, 4)
        assert (grid[..., 0] == np.arange(3.0)[:, None, None, None]).all()
        assert (grid[..., 3] == np.arange(2.0)[:, None, None]).all()
        assert (grid[..., 2] == np.arange(2.0)[:, None]).all()
        assert (grid[..., 1] == np.arange(2.0)).all()
        by_site = {}
        for idx, (t, *site) in enumerate(centers.tolist()):
            by_site.setdefault(tuple(site), []).append((idx, t))
        assert len(by_site) == 8
        for entries in by_site.values():
            ts = [t for _, t in sorted(entries)]
            assert ts == sorted(ts)

    def test_invalid_spec(self):
        for args, match in (((0, 1, 1.0, 1.0), "counts must be >= 1"),
                            ((1, 0, 1.0, 1.0), "counts must be >= 1"),
                            ((1, 1, 0.0, 1.0), "spacings must be strictly positive"),
                            ((1, 1, 1.0, -1.0), "spacings must be strictly positive")):
            with pytest.raises(ValueError, match=match):
                LatticeSpec(*args)

    def test_spec_record(self):
        spec = LatticeSpec(3, 2, 1.5, 2.5)
        assert spec.n_events == 54 and spec.origin == Event(0.0, 0.0, 0.0, 0.0)
        assert spec == LatticeSpec(n_space=3, n_time=2, spacing_space=1.5, spacing_time=2.5,
                                   origin=Event(0.0, 0.0, 0.0))
        assert hash(spec) == hash(LatticeSpec(3, 2, 1.5, 2.5))
        assert LatticeSpec(2, 5, 1.0, 1.0, Event(1.0, 2.0, 3.0)).n_events == 40
        with pytest.raises(AttributeError):
            spec.n_space = 4
