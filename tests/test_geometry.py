"""Unit and property tests for half-space and hyperplane primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drfeas.geometry import HalfSpace, Hyperplane, ReflectableConstraint, as_point

COORD = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


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
    def test_projection_properties(self, hv):
        hs, x = hv
        p = hs.project(x)
        assert hs.contains(p, tol=1e-9)
        # projection is idempotent
        assert np.allclose(hs.project(p), p, atol=1e-9)
        # the piecewise reflector fixes interior points and mirrors the rest
        if hs.value(x) <= 0:
            assert np.array_equal(hs.reflect(x), x)
        else:
            assert np.allclose(hs.reflect(x), 2.0 * p - x, atol=1e-9)
        # the boundary reflector is an involution
        hp = hs.boundary()
        assert np.allclose(hp.reflect(hp.reflect(x)), x, atol=1e-9)

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


class TestReflectableConstraint:
    def test_projector_is_required(self):
        class NoProjector(ReflectableConstraint):
            dim = 1

            def key(self):
                return ()

        with pytest.raises(TypeError):
            NoProjector()
