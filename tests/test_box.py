"""Box / periodic-boundary behaviour, including property-based invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.md.box import Box


class TestConstruction:
    def test_cubic(self):
        box = Box.cubic(10.0)
        assert box.volume == pytest.approx(1000.0)
        assert np.allclose(box.lengths, 10.0)
        assert box.periodic == (True, True, True)

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="positive extent"):
            Box(np.array([0.0, 0.0, 0.0]), np.array([1.0, -1.0, 1.0]))

    def test_nonzero_origin(self):
        box = Box(np.array([-5.0, 0.0, 2.0]), np.array([5.0, 8.0, 12.0]))
        assert np.allclose(box.lengths, [10.0, 8.0, 10.0])

    def test_check_cutoff_rejects_large(self):
        box = Box.cubic(10.0)
        with pytest.raises(ValueError, match="minimum image"):
            box.check_cutoff(5.1)
        box.check_cutoff(4.9)  # fine

    def test_check_cutoff_ignores_open_axes(self):
        box = Box.cubic(10.0, periodic=False)
        box.check_cutoff(100.0)  # no periodic axis -> no constraint


def wrapped(box, x):
    """`x` wrapped by `Box.wrap_inplace`, leaving the input alone."""
    y = np.array(x, dtype=np.float64)
    box.wrap_inplace(y)
    return y


def inside(box, x):
    return np.all((x >= box.lo) & (x < box.hi), axis=-1)


class TestWrap:
    def test_wrap_into_primary_cell(self):
        box = Box.cubic(10.0)
        x = np.array([[11.0, -1.0, 25.0]])
        assert np.allclose(wrapped(box, x), [[1.0, 9.0, 5.0]])

    def test_wrap_respects_origin(self):
        box = Box(np.array([-5.0, -5.0, -5.0]), np.array([5.0, 5.0, 5.0]))
        w = wrapped(box, np.array([[6.0, -6.0, 0.0]]))
        assert np.allclose(w, [[-4.0, 4.0, 0.0]])

    def test_wrap_nonperiodic_untouched(self):
        box = Box.cubic(10.0, periodic=False)
        x = np.array([[15.0, -3.0, 2.0]])
        assert np.array_equal(wrapped(box, x), x)

    def test_wrap_inplace_matches_wrap(self):
        """In place, the wrap is ``lo + (x - lo) mod L`` per periodic
        axis, with the one rounding case ``mod == L`` sent to 0."""
        box = Box(np.array([-1.5, 0.0, 2.0]), np.array([5.8, 7.3, 9.3]), (True, True, False))
        rng = np.random.default_rng(0)
        x = rng.uniform(-20, 20, size=(50, 3))
        x[0, 0] = np.nextafter(box.lo[0], -np.inf)  # (x - lo) mod L rounds to L
        expected = x.copy()
        for axis in (0, 1):
            col = np.mod(x[:, axis] - box.lo[axis], box.lengths[axis])
            expected[:, axis] = np.where(col >= box.lengths[axis], 0.0, col) + box.lo[axis]
        assert np.array_equal(wrapped(box, x), expected)
        assert wrapped(box, x)[0, 0] == box.lo[0]


class TestMinimumImage:
    def test_half_box_displacement(self):
        box = Box.cubic(10.0)
        d = box.minimum_image(np.array([[9.0, 0.0, 0.0]]))
        assert np.allclose(d, [[-1.0, 0.0, 0.0]])

    def test_distance_across_boundary(self):
        box = Box.cubic(10.0)
        a = np.array([[0.5, 5.0, 5.0]])
        b = np.array([[9.5, 5.0, 5.0]])
        assert box.distance(a, b)[0] == pytest.approx(1.0)

    def test_open_box_keeps_raw_displacement(self):
        box = Box.cubic(10.0, periodic=False)
        d = box.minimum_image(np.array([[9.0, 0.0, 0.0]]))
        assert np.allclose(d, [[9.0, 0.0, 0.0]])

    @given(
        edge=st.floats(min_value=2.0, max_value=100.0),
        coords=st.lists(st.floats(min_value=-500, max_value=500), min_size=3, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_minimum_image_within_half_box(self, edge, coords):
        box = Box.cubic(edge)
        d = box.minimum_image(np.array([coords]))
        assert np.all(np.abs(d) <= edge / 2 + 1e-9)

    @given(
        edge=st.floats(min_value=2.0, max_value=50.0),
        a=st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=3),
        b=st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_distance_symmetric_and_wrap_invariant(self, edge, a, b):
        box = Box.cubic(edge)
        a, b = np.array([a]), np.array([b])
        d_ab = box.distance(a, b)[0]
        d_ba = box.distance(b, a)[0]
        assert d_ab == pytest.approx(d_ba, rel=1e-9, abs=1e-9)
        # shifting either point by a lattice vector must not change it
        shift = np.array([[edge, -2 * edge, 3 * edge]])
        assert box.distance(a + shift, b)[0] == pytest.approx(d_ab, rel=1e-7, abs=1e-7)

    @given(edge=st.floats(min_value=2.0, max_value=50.0),
           pt=st.lists(st.floats(min_value=-200, max_value=200), min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_wrap_idempotent(self, edge, pt):
        box = Box.cubic(edge)
        once = wrapped(box, np.array([pt]))
        twice = wrapped(box, once)
        assert np.allclose(once, twice)
        assert np.all(inside(box, once))
