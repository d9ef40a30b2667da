"""Unit and property tests for half-space and hyperplane primitives."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drfeas.geometry import HalfSpace, Hyperplane, ReflectableConstraint, as_point

COORD = st.floats(-10, 10, allow_nan=False, allow_infinity=False)

# numpy reports the overflow of |p|^2 for coordinates beyond about 1e154
OVERFLOW_WARNING = "ignore:overflow encountered in dot:RuntimeWarning"


def vectors(n):
    return st.lists(COORD, min_size=n, max_size=n).map(np.array)


def halfspaces(n):
    return st.tuples(
        st.lists(st.floats(-5, 5), min_size=n, max_size=n).filter(
            lambda a: np.linalg.norm(a) > 1e-6
        ),
        st.floats(-5, 5),
    ).map(lambda ab: HalfSpace(np.array(ab[0]), ab[1]))


class TestHalfSpace:
    def test_normalization(self):
        h1 = HalfSpace(np.array([0.0, 2.0]), 4.0)
        h2 = HalfSpace(np.array([0.0, 1.0]), 2.0)
        assert np.allclose(h1.a, h2.a)
        assert h1.b == h2.b

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            HalfSpace(np.zeros(2), 0.0)

    @pytest.mark.filterwarnings(OVERFLOW_WARNING)
    @pytest.mark.parametrize("kind", [HalfSpace, Hyperplane])
    @pytest.mark.parametrize("a, b", [
        ([1e-160, 0.0], 1.0),   # a.a is subnormal: |a| was inexact
        ([1e-154, 0.0], 1e300), # b was rescaled to inf
        ([1e-150, 0.0], 1e300), # a normal a.a, but b / |a| overflows
        ([1e200, 0.0], 1.0),    # a.a overflows: a was scaled to zero
        ([0.0, 1.0], np.nan),
        ([0.0, 1.0], np.inf),
    ])
    def test_degenerate_normal_or_offset_rejected(self, kind, a, b):
        with pytest.raises(ValueError):
            kind(np.array(a), b)

    def test_short_normal_is_unit_after_normalizing(self):
        hs = HalfSpace([1e-150, 0.0], 1.0)
        assert hs.a.tolist() == [1.0, 0.0] and hs.b == pytest.approx(1e150)

    def test_project_inside_is_identity(self):
        hs = HalfSpace(np.array([0.0, 1.0]), 0.0)
        x = np.array([3.0, -1.0])
        assert np.array_equal(hs.project(x), x)

    def test_project_outside(self):
        hs = HalfSpace(np.array([0.0, 1.0]), 0.0)
        assert np.allclose(hs.project([2.0, 5.0]), [2.0, 0.0])

    def test_reflect_outside(self):
        hs = HalfSpace(np.array([0.0, 1.0]), 0.0)
        assert np.allclose(hs.reflect([2.0, 5.0]), [2.0, -5.0])

    def test_distance_signed_value(self):
        hs = HalfSpace(np.array([3.0, 4.0]), 1.0)
        x = np.array([1.0, 1.0])
        # value is the normalized signed excess; distance clips at zero
        assert hs.value(x) == pytest.approx((3 + 4 - 1) / 5)
        assert hs.distance(x) == pytest.approx(hs.value(x))
        assert hs.distance([-1.0, -1.0]) == 0.0

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(halfspaces(n), vectors(n))))
    @settings(max_examples=200, deadline=None)
    # Normalising a short normal scales b to about -2.7e6: the involution
    # below is then off by 1.9e-9, and the projection's value by 1.4e-9.
    @example((HalfSpace(np.array([1.7288148030820244e-06, -5.321132123046609e-07]),
                        -4.913355062972306), np.zeros(2)))
    @example((HalfSpace(np.array([-7.78814e-07, -8.77657e-07]), -4.661524),
              np.zeros(2)))
    def test_projection_properties(self, hv):
        hs, x = hv
        # Each reflection rounds <a,x> - b and the update at magnitudes up
        # to 2 max(|x|, |b|), so two of them (or a projection and its value)
        # are off by a few ulp of that scale: at most about 10 eps * scale
        # over 2e5 random cases with |b| up to 5e6.  The tolerances are
        # 1e-9 relative to the scale, and absolute below scale 1.
        tol = 1e-9 * max(1.0, float(np.abs(x).max()), abs(hs.b))
        p = hs.project(x)
        assert hs.contains(p, tol=tol)
        # projection is idempotent
        assert np.allclose(hs.project(p), p, atol=1e-9)
        # the piecewise reflector fixes interior points and mirrors the rest
        if hs.value(x) <= 0:
            assert np.array_equal(hs.reflect(x), x)
        else:
            assert np.allclose(hs.reflect(x), 2.0 * p - x, atol=1e-9)
        # the boundary reflector is an involution
        hp = hs.boundary()
        assert np.allclose(hp.reflect(hp.reflect(x)), x, atol=tol)

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(halfspaces(n), vectors(n))))
    @settings(max_examples=200, deadline=None)
    def test_distance_matches_projection(self, hv):
        hs, x = hv
        assert hs.distance(x) == pytest.approx(
            float(np.linalg.norm(x - hs.project(x))), abs=1e-9
        )


class TestHyperplane:
    def test_project_both_sides(self):
        hp = Hyperplane(np.array([0.0, 1.0]), 1.0)
        assert np.allclose(hp.project([5.0, 3.0]), [5.0, 1.0])
        assert np.allclose(hp.project([5.0, -3.0]), [5.0, 1.0])

    def test_reflect(self):
        hp = Hyperplane(np.array([0.0, 1.0]), 0.0)
        assert np.allclose(hp.reflect([2.0, 3.0]), [2.0, -3.0])
        assert np.allclose(hp.reflect([2.0, -3.0]), [2.0, 3.0])

    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(halfspaces(n), vectors(n))))
    @settings(max_examples=200, deadline=None)
    def test_boundary_agrees_with_halfspace(self, hv):
        hs, x = hv
        hp = hs.boundary()
        # the hyperplane distance equals the absolute half-space value
        assert hp.distance(x) == pytest.approx(abs(hs.value(x)), abs=1e-9)
        if hs.value(x) > 0:
            assert np.allclose(hp.project(x), hs.project(x), atol=1e-9)


def test_as_point_validates():
    assert np.array_equal(as_point([1, 2], 2), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        as_point([1, 2, 3], 2)
    with pytest.raises(ValueError):
        as_point([np.nan, 0.0], 2)


@pytest.mark.filterwarnings(OVERFLOW_WARNING)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_as_point_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        as_point([1.0, bad])
    with pytest.raises(ValueError, match="non-finite"):
        as_point([1e200, bad])  # |p|^2 overflows either way


@pytest.mark.filterwarnings(OVERFLOW_WARNING)
def test_as_point_accepts_finite_coordinates_whose_squares_overflow():
    p = as_point([1e200, -1e200], 2)
    assert p.tolist() == [1e200, -1e200]


def test_as_point_shapes():
    assert as_point(3).tolist() == [3.0]  # a 0-d value is a 1-D point
    with pytest.raises(ValueError, match="1-D"):
        as_point([[1.0, 2.0]])
    with pytest.raises(ValueError, match="dimension >= 1"):
        as_point([])


class TestReflectableConstraint:
    def test_projector_is_required(self):
        class NoProjector(ReflectableConstraint):
            dim = 1

            def key(self):
                return ()

        with pytest.raises(TypeError):
            NoProjector()
