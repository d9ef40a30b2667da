"""Unit and property tests for the projectable sets and constraints."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drfeas.geometry import HalfSpace
from drfeas.sets import (
    KNAPSACK_CAP,
    TIE_TOL,
    BinaryKnapsackSet,
    CapExceededError,
    DegenerateProjectionError,
    DiagonalSet,
    EmptySetError,
    FinitePointSet,
    PlanarCone,
    ProductSet,
    Slab,
    Sphere,
    TriadicSet,
)

COORD = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


class TestFinitePointSet:
    def test_single_nearest(self):
        Q = FinitePointSet([(0, 0), (3, 0), (0, 4)])
        (p,) = Q.project_all([0.5, 0.5])
        assert np.array_equal(p, [0, 0])

    def test_exact_tie_returns_all(self):
        Q = FinitePointSet([(-1, 0), (1, 0)])
        ties = Q.project_all([0.0, 5.0])
        assert len(ties) == 2
        assert np.array_equal(ties[0], [-1, 0])
        assert np.array_equal(ties[1], [1, 0])

    def test_near_tie_not_reported(self):
        Q = FinitePointSet([(-1, 0), (1 + 1e-5, 0)])
        ties = Q.project_all([0.0, 0.0])
        assert len(ties) == 1

    def test_deduplication(self):
        Q = FinitePointSet([(1, 1), (1, 1), (2, 2)])
        assert Q.points.shape == (2, 2)

    def test_empty_rejected(self):
        with pytest.raises(EmptySetError):
            FinitePointSet([])

    @given(
        st.lists(st.tuples(COORD, COORD), min_size=1, max_size=8),
        st.tuples(COORD, COORD),
    )
    @settings(max_examples=200, deadline=None)
    def test_projection_is_brute_force_argmin(self, pts, x):
        Q = FinitePointSet(pts)
        x = np.array(x)
        ties = Q.project_all(x)
        dists = [np.linalg.norm(np.array(p) - x) for p in Q.points]
        best = min(dists)
        for p in ties:
            assert np.linalg.norm(p - x) == pytest.approx(best, abs=1e-6)
        assert Q.distance(x) == pytest.approx(best, abs=1e-12)


class TestSphere:
    def test_radial_projection(self):
        S = Sphere([0, 0], 2.0)
        (p,) = S.project_all([3.0, 4.0])
        assert np.allclose(p, [1.2, 1.6])

    def test_inside_projects_outward(self):
        S = Sphere([1, 1], 1.0)
        (p,) = S.project_all([1.5, 1.0])
        assert np.allclose(p, [2.0, 1.0])

    def test_center_degenerate(self):
        S = Sphere([0, 0], 1.0)
        with pytest.raises(DegenerateProjectionError):
            S.project_all([0.0, 0.0])

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            Sphere([0, 0], 0.0)

    @pytest.mark.parametrize("radius", [np.nan, np.inf])
    def test_non_finite_radius_rejected(self, radius):
        # a NaN radius used to "solve" at q = (nan, nan)
        with pytest.raises(ValueError, match="finite"):
            Sphere([0, 0], radius)

    def test_distance(self):
        S = Sphere([0, 0], 1.0)
        assert S.distance([3.0, 4.0]) == pytest.approx(4.0)
        assert S.distance([0.5, 0.0]) == pytest.approx(0.5)


class TestBinaryKnapsack:
    def test_matches_itertools_enumeration(self):
        c = np.array([2.0, 1.0, 3.0, 0.5])
        ks = BinaryKnapsackSet(c, 3.5)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(-2, 3, size=4)
            feas = [
                np.array(y, float)
                for y in itertools.product((0, 1), repeat=4)
                if c @ np.array(y) >= 3.5
            ]
            best = min(np.sum((y - x) ** 2) for y in feas)
            ties = ks.project_all(x)
            assert ties, "feasible instance must produce a projection"
            for p in ties:
                assert np.sum((p - x) ** 2) == pytest.approx(best, abs=1e-9)

    def test_tie_order_is_bit_string_order(self):
        # both feasible corners are equidistant from the midpoint
        ks = BinaryKnapsackSet(np.array([1.0, 1.0]), 1.0)
        ties = ks.project_all([0.5, 0.5])
        as_tuples = [tuple(t) for t in ties]
        assert as_tuples == [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)] or as_tuples == [
            (0.0, 1.0),
            (1.0, 0.0),
        ]

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySetError):
            BinaryKnapsackSet(np.array([1.0, 1.0]), 5.0)

    def test_nan_threshold_rejected(self):
        # was accepted, and run_dr on it raised IndexError in _select
        with pytest.raises(ValueError, match="finite"):
            BinaryKnapsackSet(np.array([1.0, 2.0]), np.nan)

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            BinaryKnapsackSet(np.ones(KNAPSACK_CAP + 1), 1.0)

    def test_contains(self):
        ks = BinaryKnapsackSet(np.array([2.0, 1.0]), 2.0)
        assert ks.contains([1.0, 0.0])
        assert not ks.contains([0.0, 1.0])  # below threshold
        assert not ks.contains([0.5, 0.5])  # not a corner

    def test_contains_agrees_with_projection_at_rounding_edge(self):
        # thresholds equal to a corner's weight as rounded by two summation
        # orders: membership and projection must apply one rule to it
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = int(rng.integers(2, 13))
            c = np.round(rng.uniform(0.0, 3.0, m), 2)
            y = rng.integers(0, 2, m).astype(float)
            for threshold in (float(np.sum(c * y)), float(c @ y)):
                if c.sum() >= threshold:
                    ks = BinaryKnapsackSet(c, threshold)
                    on_itself = any(np.array_equal(p, y) for p in ks.project_all(y))
                    assert ks.contains(y) == on_itself


def _row_sum_corners(c, threshold):
    """Every corner of {0,1}^m feasible by row sums, in bit-string order."""
    m = c.size
    shifts = np.arange(m - 1, -1, -1)
    corners = ((np.arange(1 << m)[:, None] >> shifts) & 1).astype(float)
    return corners[np.sum(corners * c, axis=1) >= threshold]


def _scan(c, threshold, x):
    """Reference projection: every corner of {0,1}^m, in bit-string order."""
    corners = _row_sum_corners(c, threshold)
    d2 = np.sum((corners - x) ** 2, axis=1)
    return list(corners[d2 <= d2.min() + TIE_TOL])


def _knapsack_instance(family, m, rng):
    """(c, threshold, x) for one of the reference-test families."""
    if family in ("integer", "lattice"):
        c = rng.integers(0, 5, m).astype(float)
        c[rng.integers(m)] += 1.0
        threshold = float(c @ rng.integers(0, 2, m))  # reached exactly
    else:
        c = rng.uniform(0.0, 3.0, m)
        threshold = float(rng.uniform(0.0, c.sum()))
    if family == "zero-threshold":
        threshold = 0.0
    if family == "lattice":
        x = rng.integers(0, 3, m) / 2.0
    elif family == "scaled":
        # |x| ~ 1e7 makes squared distances ~1e14, whose rounding ties
        # corners that differ by a coordinate with x_i within 1e-3 of 1/2
        x = rng.uniform(-1.0, 1.0, m) * 1e7
        near_half = rng.random(m) < 0.5
        x[near_half] = 0.5 + rng.uniform(-1e-3, 1e-3, near_half.sum())
    else:
        x = rng.uniform(-2.0, 3.0, m)
    return c, threshold, x


def _assert_same_ties(ties, ref):
    assert len(ties) == len(ref)
    for p, r in zip(ties, ref):
        assert p.dtype == r.dtype and np.array_equal(p, r)


KNAPSACK_FAMILIES = ("random", "integer", "lattice", "scaled", "zero-threshold")


class TestBinaryKnapsackSplitSearch:
    @pytest.mark.parametrize("family", KNAPSACK_FAMILIES)
    def test_identical_to_full_scan(self, family):
        rng = np.random.default_rng(KNAPSACK_FAMILIES.index(family))
        most = 0
        for m in range(1, 17):
            for _ in range(3):
                c, threshold, x = _knapsack_instance(family, m, rng)
                ref = _scan(c, threshold, x)
                _assert_same_ties(BinaryKnapsackSet(c, threshold).project_all(x), ref)
                most = max(most, len(ref))
        if family in ("lattice", "scaled"):
            assert most > 20  # mass ties, exact or by rounding

    def test_corner_kept_out_by_rounding_only(self):
        # [1,1,0] weighs one ulp under the threshold, so only the far
        # all-ones corner is feasible although [1,1,0] is the cheapest
        c = np.array([1.0, 1.2e-16, 1.2e-16])
        ks = BinaryKnapsackSet(c, float(c.sum()))
        for x in ([1.0, 1.0, 0.0], [0.5, 1.0, 0.0], [1.0, 0.6, 0.6]):
            ref = _scan(ks.c, ks.threshold, np.array(x))
            _assert_same_ties(ks.project_all(x), ref)
            assert [p.tolist() for p in ref] == [[1.0, 1.0, 1.0]]

    def test_ties_beyond_a_rounded_out_corner(self):
        # the cheapest corner [1,1,0,0] is out by one ulp of weight; the
        # feasible tie [1,1,1,1] costs more than it by over the band width
        c = np.array([1.0, 1.2e-16, 1.2e-16, 0.0])
        ks = BinaryKnapsackSet(c, float(c.sum()))
        x = (1.0 - np.array([-1.0, -1.0, 0.9e-12, 0.5e-12])) / 2.0
        ref = _scan(ks.c, ks.threshold, x)
        _assert_same_ties(ks.project_all(x), ref)
        assert [p.tolist() for p in ref] == [[1.0, 1.0, 1.0, 0.0], [1.0, 1.0, 1.0, 1.0]]

    def test_projection_at_cap(self):
        # with unit weights the projection takes the coordinates of least
        # cost 1 - 2x_i: all negative ones, topped up to the threshold
        m, need = KNAPSACK_CAP, KNAPSACK_CAP // 2
        ks = BinaryKnapsackSet(np.ones(m), float(need))
        rng = np.random.default_rng(7)
        for _ in range(3):
            x = rng.uniform(-1.0, 2.0, m)
            cost = 1.0 - 2.0 * x
            order = np.argsort(cost)
            take = max(need, int(np.count_nonzero(cost < 0)))
            expected = np.zeros(m)
            expected[order[:take]] = 1.0
            (p,) = ks.project_all(x)
            assert np.array_equal(p, expected)


class TestTriadicSet:
    def test_values_and_projection(self):
        T = TriadicSet()
        (p,) = T.project_all([1.0])
        assert p[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        (p,) = T.project_all([10.0])
        assert p[0] == 2.0
        (p,) = T.project_all([-5.0])
        assert p[0] == 0.0

    def test_midpoint_tie(self):
        T = TriadicSet()
        mid = (2.0 + 2.0 / 3.0) / 2.0
        ties = T.project_all([mid])
        assert len(ties) == 2

    def test_matches_full_scan(self):
        T = TriadicSet(depth=20)
        rng = np.random.default_rng(1)
        for _ in range(200):
            x = rng.uniform(-1, 3)
            assert T.distance([x]) == pytest.approx(
                np.min(np.abs(T.values - x)), abs=0
            )
            (p, *_) = T.project_all([x])
            assert abs(p[0] - x) == pytest.approx(T.distance([x]), abs=1e-15)


class TestSlab:
    def test_project_clamps_both_sides(self):
        s = Slab(np.array([0.0, 1.0]), -1.0, 1.0)
        assert np.allclose(s.project([3.0, 5.0]), [3.0, 1.0])
        assert np.allclose(s.project([3.0, -5.0]), [3.0, -1.0])
        assert np.allclose(s.project([3.0, 0.5]), [3.0, 0.5])

    def test_reflect(self):
        s = Slab(np.array([0.0, 1.0]), -1.0, 1.0)
        assert np.allclose(s.reflect([0.0, 3.0]), [0.0, -1.0])

    def test_normalization(self):
        s = Slab(np.array([0.0, 2.0]), -2.0, 4.0)
        assert s.lower == -1.0 and s.upper == 2.0

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValueError):
            Slab(np.array([1.0]), 1.0, 1.0)

    @pytest.mark.parametrize("a, lower, upper", [
        ([1.0], np.nan, 1.0),
        ([1.0], -1.0, np.inf),
        ([1e-160], -1.0, 1.0),      # a.a is subnormal
        ([1e-150], -1.0, 1e300),    # upper / |a| overflows
    ])
    def test_non_finite_or_degenerate_rejected(self, a, lower, upper):
        with pytest.raises(ValueError):
            Slab(np.array(a), lower, upper)


class TestPlanarCone:
    def cone(self):
        return PlanarCone((0, 0), (1, 0), (0, 1))

    def test_interior_fixed(self):
        c = self.cone()
        assert np.array_equal(c.project([2.0, 3.0]), [2.0, 3.0])

    def test_projects_to_nearest_ray(self):
        c = self.cone()
        assert np.allclose(c.project([2.0, -1.0]), [2.0, 0.0])
        assert np.allclose(c.project([-1.0, 2.0]), [0.0, 2.0])

    def test_projects_to_apex(self):
        c = self.cone()
        assert np.allclose(c.project([-1.0, -1.0]), [0.0, 0.0])

    def test_from_boundary_points(self):
        c = PlanarCone.from_boundary_points((1, 1), (3, 1), (1, 4))
        assert np.allclose(c.apex, [1, 1])
        assert c.contains([2.0, 2.0])
        assert not c.contains([0.0, 0.0])

    def test_parallel_directions_rejected(self):
        with pytest.raises(ValueError):
            PlanarCone((0, 0), (1, 1), (2, 2))

    @given(st.tuples(COORD, COORD))
    @settings(max_examples=200, deadline=None)
    def test_projection_optimality(self, xy):
        c = self.cone()
        x = np.array(xy)
        p = c.project(x)
        assert c.contains(p, tol=1e-9)
        # no sampled member is closer than the projection
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.uniform(0, 10, size=2)  # members of the quadrant cone
            assert np.linalg.norm(x - p) <= np.linalg.norm(x - m) + 1e-9


class TestDiagonalSet:
    def test_project_averages_blocks(self):
        d = DiagonalSet(2)
        p = d.project([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(p, [2.0, 3.0, 2.0, 3.0])

    def test_reflect_swaps_blocks_exactly(self):
        d = DiagonalSet(2)
        r = d.reflect([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(r, [3.0, 4.0, 1.0, 2.0])


class TestProductSet:
    def test_blockwise_projection(self):
        P = ProductSet([FinitePointSet([(0,), (1,)]), Sphere([0, 0], 1.0)])
        (p,) = P.project_all([0.2, 3.0, 4.0])
        assert np.allclose(p, [0.0, 0.6, 0.8])

    def test_tie_sets_multiply(self):
        P = ProductSet(
            [FinitePointSet([(-1,), (1,)]), FinitePointSet([(-2,), (2,)])]
        )
        ties = P.project_all([0.0, 0.0])
        assert len(ties) == 4
        assert {tuple(t) for t in ties} == {
            (-1, -2), (-1, 2), (1, -2), (1, 2)
        }

    def test_constraint_component(self):
        hs = HalfSpace(np.array([0.0, 1.0]), 0.0)
        P = ProductSet([hs, FinitePointSet([(5.0,)])])
        (p,) = P.project_all([1.0, 2.0, 0.0])
        assert np.allclose(p, [1.0, 0.0, 5.0])
        assert P.dim == 3

    def test_distance_is_euclidean_combination(self):
        P = ProductSet([Sphere([0.0], 1.0), Sphere([0.0], 1.0)])
        assert P.distance([4.0, 5.0]) == pytest.approx(5.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ProductSet([])


class TestMinAlong:
    """min_along(a), the least <a,p> over the set, against brute force."""

    def test_finite_and_triadic(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pts = rng.uniform(-5.0, 5.0, (int(rng.integers(1, 8)), 3))
            a = rng.normal(size=3)
            low = min(float(p @ a) for p in pts)
            assert FinitePointSet(pts).min_along(a) == pytest.approx(low, abs=1e-12)
        T = TriadicSet(depth=20)
        for a0 in (-2.0, 0.0, 3.0):
            assert T.min_along(np.array([a0])) == min(v * a0 for v in T.values)

    def test_sphere(self):
        rng = np.random.default_rng(4)
        S = Sphere([1.0, -2.0, 0.5], 2.5)
        for _ in range(10):
            a = rng.normal(size=3)
            low = S.min_along(a)
            u = rng.normal(size=(4000, 3))
            sampled = S.center + S.radius * u / np.linalg.norm(u, axis=1)[:, None]
            along = sampled @ a
            assert along.min() >= low - 1e-12
            assert along.min() <= low + 0.05 * S.radius * np.linalg.norm(a)
            attained = S.center - S.radius * a / np.linalg.norm(a)
            assert float(attained @ a) == pytest.approx(low, abs=1e-12)

    def test_product_with_constraint_component(self):
        hs = HalfSpace(np.array([0.0, 1.0]), 0.0)
        Q = FinitePointSet([(5.0,), (-1.0,)])
        P = ProductSet([hs, Q, Sphere([0.0], 2.0)])
        # a is zero on the half-space's block: the sum of the other two
        a = np.array([0.0, 0.0, 3.0, -1.0])
        assert P.min_along(a) == Q.min_along(a[2:3]) + (-2.0) == -5.0
        # a nonzero block: the half-space is unbounded along it
        assert P.min_along(np.array([0.0, 1.0, 3.0, -1.0])) == -np.inf

    # c and t of a rounding edge: corner 11000011110011 is in Q by a
    # full-matrix product and out by a one-row product
    EDGE_C = [1.91, 0.81, 0.12, 0.05, 2.44, 2.74, 1.82, 2.19, 1.63, 2.81,
              2.45, 0.01, 2.57, 0.1]
    EDGE_T = 13.840000000000002

    def test_knapsack(self):
        rng = np.random.default_rng(5)
        edge = np.array([float(b) for b in "11000011110011"])
        cases = [(np.array(self.EDGE_C), self.EDGE_T, 1.0 - 2.0 * edge)]
        for m in range(1, 15):
            for _ in range(4):
                c = rng.uniform(0.0, 3.0, m)
                cases.append((c, float(rng.uniform(0.0, c.sum())),
                              rng.normal(size=m)))
        for c, threshold, a in cases:
            ks = BinaryKnapsackSet(c, threshold)
            low = float((_row_sum_corners(ks.c, ks.threshold) @ a).min())
            assert abs(ks.min_along(a) - low) <= 1e-12
