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
    with pytest.raises(ValueError):
        Event(math.inf, 0.0, 0.0, 0.0)


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


class TestLattice:
    def test_single(self):
        spec = LatticeSpec(1, 1, 1.0, 1.0)
        assert spacetime.build_lattice(spec) == [Event(0.0, 0.0, 0.0, 0.0)]

    def test_time_column(self):
        spec = LatticeSpec(1, 3, 1.0, 2.0)
        ev = spacetime.build_lattice(spec)
        assert [e.t for e in ev] == [0.0, 2.0, 4.0]
        assert all((e.x, e.y, e.z) == (0.0, 0.0, 0.0) for e in ev)

    def test_unit_cube(self):
        spec = LatticeSpec(2, 1, 1.0, 1.0)
        ev = spacetime.build_lattice(spec)
        assert len(ev) == 8
        assert {(e.x, e.y, e.z) for e in ev} == {
            (x, y, z) for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)}

    def test_count_and_uniqueness(self):
        spec = LatticeSpec(3, 2, 0.5, 0.25, origin=Event(1.0, -1.0, 2.0, 0.0))
        ev = spacetime.build_lattice(spec)
        assert len(ev) == spec.n_events == 54
        assert len(set(ev)) == 54

    def test_time_outermost_ordering(self):
        # for each spatial site, the earlier coupling must come first in index order
        spec = LatticeSpec(2, 3, 1.0, 1.0)
        ev = spacetime.build_lattice(spec)
        by_site = {}
        for idx, e in enumerate(ev):
            by_site.setdefault((e.x, e.y, e.z), []).append((idx, e.t))
        for entries in by_site.values():
            ts = [t for _, t in sorted(entries)]
            assert ts == sorted(ts)

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            LatticeSpec(0, 1, 1.0, 1.0)
        with pytest.raises(ValueError):
            LatticeSpec(1, 1, -1.0, 1.0)
