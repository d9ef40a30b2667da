"""Unit and property tests for the projectable sets and constraints."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drfeas.geometry import HalfSpace, Hyperplane
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
    _ray_tol,
)

COORD = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


# One member of every set and constraint type; an offset moves it out.
MEMBERS = [
    (FinitePointSet([(0, 0), (3, 1)]), [0.0, 0.0]),
    (Sphere([0, 0], 1.0), [1.0, 0.0]),
    (BinaryKnapsackSet([2.0, 1.0], 2.0), [1.0, 0.0]),
    (TriadicSet(20), [2 / 3]),
    (ProductSet([FinitePointSet([(0.0,)]), Sphere([0.0], 1.0)]), [0.0, 1.0]),
    (HalfSpace([0.0, -1.0], 0.0), [0.0, 0.0]),
    (Hyperplane([0.0, 1.0], 0.0), [0.0, 0.0]),
    (Slab([0.0, 1.0], -1.0, 1.0), [0.0, -1.0]),
    (PlanarCone([0, 0], [1, 0], [1, 1]), [1.0, 0.0]),
    (DiagonalSet(1), [1.0, 1.0]),
]


@pytest.mark.parametrize("obj, member", MEMBERS,
                         ids=[type(obj).__name__ for obj, _ in MEMBERS])
def test_contains_is_distance_within_tol(obj, member):
    # offsets of 0.6e-9 and 0.8e-9 per coordinate put a 2-D point just
    # inside and just outside the default band; each tol is tried at the
    # distance and one float either side of it
    for delta in (0.6e-9, 0.8e-9):
        x = np.asarray(member) + delta * (-1.0) ** np.arange(obj.dim)
        d = obj.distance(x)
        assert obj.contains(x) == (d <= 1e-9)
        for tol in (np.nextafter(d, 0.0), d, np.nextafter(d, np.inf)):
            assert obj.contains(x, tol) == (d <= tol)


def _assert_scan(ties, candidates, x, owners=()):
    """``ties`` is the reference scan of ``candidates`` at x, bit for bit
    and in order, and each row is a writable array of its own."""
    d2 = ((candidates - x) ** 2).sum(axis=1)
    ref = list(candidates[d2 <= float(d2.min()) + TIE_TOL])
    assert [(p.dtype, p.shape, p.tobytes()) for p in ties] == [
        (r.dtype, r.shape, r.tobytes()) for r in ref]
    for p in ties:
        assert p.flags.writeable
        assert not any(np.shares_memory(p, o) for o in owners)
    return ties


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

    def test_projection_is_the_reference_scan(self):
        # random points, integer-lattice points with exact ties at
        # half-integer x, and near-twins that tie within TIE_TOL
        rng = np.random.default_rng(0)
        cases = [(FinitePointSet(rng.normal(size=(6, d))),
                  rng.normal(size=(50, d))) for d in (1, 2, 3)]
        cases.append((FinitePointSet(list(itertools.product(range(3), repeat=2))),
                      rng.integers(-1, 6, (50, 2)) / 2.0))
        twins = FinitePointSet([(0, 0), (3e-7, 0), (0, 5e-7)])
        cases.append((twins, [[1e-8, 0.0]]))
        counts = set()
        for Q, xs in cases:
            for x in xs:
                x = np.asarray(x, float)
                counts.add(len(_assert_scan(Q.project_all(x), Q.points, x,
                                            (Q.points,))))
        assert counts == {1, 2, 3, 4}
        assert len(twins.project_all([1e-8, 0.0])) == 3

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
        ties = _assert_scan(Q.project_all(x), Q.points, x, (Q.points,))
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

    def test_degeneracy_is_relative_to_the_radius(self):
        # x is half a radius off the center of a tiny sphere: its nearest
        # point is unique, although |x - center| is below 1e-12
        S = Sphere([0, 0], 1e-13)
        (p,) = S.project_all([5e-14, 0.0])
        assert np.array_equal(p, [1e-13, 0.0])
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
        # all three feasible corners are equidistant from the midpoint
        ks = BinaryKnapsackSet(np.array([1.0, 1.0]), 1.0)
        x = np.array([0.5, 0.5])
        ties = _assert_scan(ks.project_all(x),
                            _row_sum_corners(ks.c, ks.threshold), x, (ks.c,))
        assert [tuple(t) for t in ties] == [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]

    def test_empty_set_rejected(self):
        with pytest.raises(EmptySetError):
            BinaryKnapsackSet(np.array([1.0, 1.0]), 5.0)

    def test_nan_threshold_rejected(self):
        # was accepted, and run_dr on it raised IndexError taking the
        # first of no nearest points
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
    elif family == "decimal":
        # a corner's decimal weight, which its float weight may round
        # below (0.3 + 0.6 < 0.9): the band then holds no feasible corner
        c = rng.integers(1, 10, m) / 10
        threshold = round(float(np.round(c * 10) @ rng.integers(0, 2, m)) / 10, 1)
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


KNAPSACK_FAMILIES = ("random", "integer", "lattice", "scaled", "zero-threshold",
                     "decimal")


class TestBinaryKnapsackSplitSearch:
    @pytest.mark.parametrize("family", KNAPSACK_FAMILIES)
    def test_identical_to_full_scan(self, family, monkeypatch):
        # and no search gathers its band more than twice
        band, gathers = BinaryKnapsackSet._band, []
        monkeypatch.setattr(BinaryKnapsackSet, "_band", lambda ks, *args: (
            gathers.append(None) or band(ks, *args)))
        rng = np.random.default_rng(KNAPSACK_FAMILIES.index(family))
        most = 0
        for m in range(1, 17):
            for _ in range(3):
                c, threshold, x = _knapsack_instance(family, m, rng)
                ref = _scan(c, threshold, x)
                gathers.clear()
                _assert_same_ties(BinaryKnapsackSet(c, threshold).project_all(x), ref)
                assert len(gathers) <= 2
                most = max(most, len(ref))
        if family in ("lattice", "scaled"):
            assert most > 20  # mass ties, exact or by rounding

    def test_costs_whose_squares_overflow_are_rejected(self):
        # |x|^2 is finite but |1 - 2x|^2 is not: the search's tolerance was
        # inf, and its band gathered nothing to concatenate
        ks = BinaryKnapsackSet([2.0, 1.0, 3.0], 3.0)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="overflow"):
                ks.project_all([8e153, 0.0, 0.0])

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
        # between every two neighbours: both, as a scan of the pair finds them
        T = TriadicSet()
        for k in range(T.values.size - 1):
            pair = T.points[k: k + 2]
            x = np.array([(pair[0, 0] + pair[1, 0]) / 2.0])
            ties = _assert_scan(T.project_all(x), pair, x, (T.values,))
            assert len(ties) == 2

    def test_matches_full_scan(self):
        # the tail, 1e-150 and up, and inside tie bands (both neighbours
        # within TIE_TOL), where the first nearest point is the farther
        T = TriadicSet(depth=20)
        rng = np.random.default_rng(1)
        tail = 10.0 ** rng.uniform(-150, 0.5, 200)
        for x in [*rng.uniform(-1, 3, 200), *tail, 1.65e-9, 1.2e-6,
                  4 / 3 + 2e-13]:
            assert T.distance([x]) == pytest.approx(
                np.min(np.abs(T.values - x)), abs=0
            )
            ties = T.project_all([x])
            assert min(abs(p[0] - x) for p in ties) == T.distance([x])


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
        x = np.zeros(2)
        grid = np.array(list(itertools.product((-1.0, 1.0), (-2.0, 2.0))))
        ties = _assert_scan(P.project_all(x), grid, x,
                            [c.points for c in P.components])
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
            for _ in range(6):
                # a with zeros and both signs, the threshold a corner's
                # weight exactly, so that corner is feasible with no slack
                c = rng.uniform(0.0, 3.0, m)
                c[rng.random(m) < 0.2] = 0.0
                corner = (rng.random((1, m)) < 0.5).astype(float)
                a = rng.normal(size=m)
                a[rng.random(m) < 0.3] = 0.0
                cases.append((c, float(np.sum(corner * c, axis=1)[0]), a))
        for c, threshold, a in cases:
            ks = BinaryKnapsackSet(c, threshold)
            low = float((_row_sum_corners(ks.c, ks.threshold) @ a).min())
            assert abs(ks.min_along(a) - low) <= 1e-12


def _crossing(points, q, a, tie=TIE_TOL, k=None):
    """Brute force: the least lam at which a point ahead of q (<a, q - p>
    > 0) enters a tie band of ``tie`` (``project_all``'s by default) at
    q - lam*a; inf if none is ahead.  For a = k/|k| with k and the points
    integers, ahead is the sign of the exact gain <k, q - p>: a float gain
    of an exact tie rounds to a few ulps either side of 0."""
    w = q - np.asarray(points, dtype=float)
    g = w @ a
    ahead = (g if k is None else w @ k) > 0
    if not ahead.any():
        return np.inf
    return float(((np.sum(w[ahead] ** 2, axis=1) - tie) / (2 * g[ahead])).min())


def _dinkelbach_hold(ks, q, a):
    """The least crossing |y - q|^2 / (2<a, q - y>) over ks's corners y by
    Dinkelbach (1967): from the corners attaining ``min_along(a)``, project
    at q - lam*a until no projection crosses sooner.  No cap, no shrink."""
    def least(points):
        w = q - np.asarray(points)
        g = w @ a
        return (np.sum(w[g > 0] ** 2, axis=1) / (2 * g[g > 0])).min(initial=np.inf)

    lam, r = np.inf, least(ks._cheapest(a))
    while r < lam:
        lam = float(r)
        r = least(ks.project_all(q - lam * a))
    return lam


def _split_rounds(monkeypatch):
    """The ``top`` of each ``_split_hold`` round the knapsack hold runs;
    a ``ray_hold`` call that runs more than two rounds fails."""
    search, hold = BinaryKnapsackSet._split_hold, BinaryKnapsackSet.ray_hold
    tops, rounds = [], []

    def held(ks, q, a):
        rounds.clear()
        return hold(ks, q, a)

    def searched(ks, q, gh, gt, top):
        tops.append(top)
        rounds.append(top)
        assert len(rounds) <= 2, rounds
        return search(ks, q, gh, gt, top)

    monkeypatch.setattr(BinaryKnapsackSet, "ray_hold", held)
    monkeypatch.setattr(BinaryKnapsackSet, "_split_hold", searched)
    return tops


def _workload_holds(seed, monkeypatch):
    """ray_hold's answers on the solve-knapsack workload's run_dr cases,
    the points ``project_all`` was asked for inside those calls, and each
    call's (set, q, a)."""
    import importlib.util
    import os

    from drfeas.engine import run_dr

    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    hold, project_all = BinaryKnapsackSet.ray_hold, BinaryKnapsackSet.project_all
    holds, inside, asked = [], [], []

    def recorded(ks, q, a):
        asked.append((ks, q.copy(), a))
        inside.append(None)
        holds.append(hold(ks, q, a))
        inside.remove(None)
        return holds[-1]

    projected = []
    monkeypatch.setattr(BinaryKnapsackSet, "ray_hold", recorded)
    monkeypatch.setattr(BinaryKnapsackSet, "project_all", lambda ks, x: (
        inside and projected.append(x)) or project_all(ks, x))
    inputs = workloads.generate("solve-knapsack", seed)
    for hs, Q, x0, cfg in workloads.build(inputs)["cases"]:
        run_dr(Q, hs, x0, cfg)
    return holds, projected, asked


# The hold of a q with no crossing at m = 14: the cap, where rounding could
# tie a corner behind q (``_assert_behind_hold``).
NO_CROSSING_14 = 3051798.8142029564
# 27 of the 33 holds of solve-knapsack's run_dr cases at seed 3, as the
# Dinkelbach search over projections answered them when run_dr asked for a
# hold only once a projection had found q again; its 4 infinite answers,
# no crossing, are capped.
KNAPSACK_WORKLOAD_HOLDS = (
    1.090220867182613, 3.0071071044539384, 3.582971860964181,
    3.8063670207562357, 3.0783397820555596, 3.6662002777051144,
    6.265294227751071, 6.536290481644708, 3.075093085278383,
    3.9446729266660636, 5.004288404025533, 11.050276526450633,
    36.422661638483646, 1.7404443142523356, 67.8627332722777, NO_CROSSING_14,
    2.4861854496091613, 7.169578334325724, 9.598973207095597, NO_CROSSING_14,
    4.554637824542572, 5.62128061989775, 16.515239010420288, NO_CROSSING_14,
    1.7024916243619814, 15.323622595444013, NO_CROSSING_14)
# The other 6, asked since run_dr asks on q's second step: each q is
# handed over there, its hold below that step's lam.
KNAPSACK_EARLY_HOLDS = (4, 9, 18, 23, 24, 25)


def _assert_behind_hold(Q, q, a, lam):
    """``lam`` is the hold of a q that no point crosses: it ends where
    rounding could first tie a point behind q that ``project_all``
    compares.  A finite set's ends where ``_ray_tol`` reaches the least
    |q - p|^2 over p != q; inf with no such p, or for a triadic set with
    a > 0, which compares only q and the point ahead.  A knapsack's
    corners are at least 1 apart: its hold is the cap where the rounding
    term reaches 1/4, shrunk by its tolerance as every hold is."""
    if isinstance(Q, BinaryKnapsackSet):
        s = 2.0 * np.sqrt(Q.dim)
        cap = lam / (0.75 - 2 * TIE_TOL)
        rounding = _ray_tol(cap, s, Q.dim) - 2 * TIE_TOL
        assert rounding == pytest.approx(0.25, rel=1e-9)
        return
    w = q - Q.points
    f = np.sum(w * w, axis=1)
    f = f[f > 0]
    if not f.size or (isinstance(Q, TriadicSet) and a[0] > 0):
        assert lam == np.inf
        return
    band = _ray_tol(lam, np.sqrt(q @ q) + np.sqrt(f), Q.dim)
    assert (band / f).max() == pytest.approx(1.0, rel=1e-9)


def _held_below(Q, q, a, hold, lams):
    """``project_all`` at q - lam*a returns [q] alone at each lam of
    ``lams`` below ``hold``, lam = 0 included."""
    for lam in lams:
        if lam < hold:
            ties = Q.project_all(q - lam * a)
            assert len(ties) == 1 and np.array_equal(ties[0], q), lam


class TestRayHold:
    """ray_hold(q, a) against brute-force crossings of the ray q - lam*a."""

    FRACTIONS = (0.0, 1e-3, 0.1, 0.5, 0.9, 0.99, 1 - 1e-6, 1 - 1e-12)

    def _check(self, Q, points, q, a, attains, rel=1e-6, tie=TIE_TOL, k=None):
        # ``tie``: the tie band the hold must reach within rel; ``k``: the
        # integers of a = k/|k|.  A twin that ties q at x = q leaves no lam
        # to hold q at, ahead or not.
        lam = Q.ray_hold(q, a)
        if len(Q.project_all(q)) > 1:
            assert lam == 0.0
            return
        cross = _crossing(points, q, a, k=k)
        assert attains == (cross == np.inf)
        assert 0.0 <= lam <= max(0.0, cross)
        if np.isfinite(cross) and cross > 0:
            assert lam >= _crossing(points, q, a, tie, k) * (1 - rel)
        elif cross == np.inf:
            _assert_behind_hold(Q, q, a, lam)
        if lam == np.inf:
            _held_below(Q, q, a, lam, [0.0, 1e-3, 1.0, 1e3, 1e6])
        else:   # the last lam below the hold too: run_dr holds q there, at
            # x rounded as q - lam*a
            _held_below(Q, q, a, lam, [t * lam for t in self.FRACTIONS]
                        + [np.nextafter(lam, 0.0)])

    def test_finite_against_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            Q = FinitePointSet(rng.uniform(-10, 10, (int(rng.integers(1, 9)), d)))
            a = rng.normal(size=d)
            a /= np.linalg.norm(a)
            along = Q.points @ a
            for i, q in enumerate(Q.points):
                self._check(Q, Q.points, q, a, along[i] == Q.min_along(a))

    def test_finite_exact_and_near_ties(self):
        # each point of ``near`` has a twin within 1e-6, which ties it from
        # lam = 0 on, also where the twin is not ahead: the hold is then 0
        rng = np.random.default_rng(13)
        near = FinitePointSet([(0, 0), (3e-7, 0), (0, 5e-7)])
        cases = [(near, a) for a in ([1.0, 0.0], [-1.0, 0.0], [0.0, -1.0],
                                     [-0.6, -0.8], [0.6, -0.8])]
        r = 1 / np.sqrt(2.0)
        for _ in range(40):
            pts = rng.integers(-3, 4, (int(rng.integers(2, 7)), 2))
            a = [(0.0, 1.0), (-1.0, 0.0), (r, r), (-r, r)][int(rng.integers(4))]
            cases.append((FinitePointSet(pts), a))
        for Q, a in cases:
            a = np.asarray(a)
            along = Q.points @ a
            for i, q in enumerate(Q.points):
                lam = Q.ray_hold(q, a)
                if len(Q.project_all(q)) > 1:
                    assert lam == 0.0
                else:
                    cross = _crossing(Q.points, q, a)
                    assert (cross == np.inf) == (along[i] == Q.min_along(a))
                    assert 0.0 <= lam <= max(0.0, cross)
                    if cross == np.inf:
                        _assert_behind_hold(Q, q, a, lam)
                top = min(lam, 1e3)
                _held_below(Q, q, a, lam, [t * top for t in self.FRACTIONS]
                            + [np.nextafter(top, 0.0)])

    def test_knapsack_against_all_corners(self, monkeypatch):
        # instances 3-8 of each m have zeros in a and c, and half of them a
        # threshold on a corner's row-sum weight; the relaxation's corner
        # (q with its best flip) is feasible on some calls and not on
        # others, and only then does the split search run
        searched = _split_rounds(monkeypatch)
        rng = np.random.default_rng(14)
        calls, searches = 0, 0
        for m in range(1, 11):
            for i in range(9):
                c = rng.uniform(0.0, 3.0, m)
                a = rng.normal(size=m)
                if i >= 3:
                    c[rng.random(m) < 0.2] = 0.0
                    a[rng.random(m) < 0.3] = 0.0
                corner = (rng.random((1, m)) < 0.5).astype(float)
                threshold = (float(np.sum(corner * c, axis=1)[0]) if i >= 6
                             else float(rng.uniform(0.0, c.sum())))
                if not a.any():
                    continue
                a /= np.linalg.norm(a)
                ks = BinaryKnapsackSet(c, threshold)
                corners = _row_sum_corners(ks.c, ks.threshold)
                low = ks.min_along(a)
                for q in corners[rng.permutation(len(corners))[:12]]:
                    before = len(searched)
                    self._check(ks, corners, q, a, float(np.sum(q * a)) <= low)
                    calls += 1
                    searches += len(searched) > before
        # 719 calls: 131 ran the search, and 588 had a feasible relaxation
        # corner or a q attaining the support
        assert (calls, searches) == (719, 131)

    def test_knapsack_relaxation_feasible_by_row_sums(self):
        # the relaxation's corner 11000011 weighs 8.440000000000001 by
        # y @ c and 8.44 by row sums, so at this threshold it is out of Q;
        # the hold is then the crossing of a corner with two flips
        c = [0.57, 2.38, 2.95, 1.4, 2.3, 0.05, 2.7, 2.79]
        ks = BinaryKnapsackSet(c, 8.440000000000001)
        q = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0])
        a = np.where(q == 1.0, -0.1, 0.1)
        a[2] = 1.0
        a /= np.linalg.norm(a)
        corners = _row_sum_corners(ks.c, ks.threshold)
        self._check(ks, corners, q, a, False)
        assert ks.ray_hold(q, a) > 1.0 / (2.0 * a[2])   # 11000011's crossing

    def test_knapsack_hit_makes_no_projection(self, monkeypatch):
        # the threshold is the row-sum weight of the relaxation's corner,
        # so that corner is feasible with no slack and answers alone
        project_all, calls = BinaryKnapsackSet.project_all, []
        monkeypatch.setattr(BinaryKnapsackSet, "project_all", lambda ks, x: (
            calls.append(x) or project_all(ks, x)))
        rng = np.random.default_rng(17)
        held = 0
        for m in range(1, 11):
            every = _row_sum_corners(np.zeros(m), 0.0)
            for _ in range(10):
                c = rng.uniform(0.0, 3.0, m)
                q = (rng.random(m) < 0.5).astype(float)
                a = rng.normal(size=m)
                a /= np.linalg.norm(a)
                g = (q - every) @ a
                ahead = every[g > 0]
                if not ahead.size:
                    continue
                crossing = np.sum((q - ahead) ** 2, axis=1) / (2 * g[g > 0])
                y = ahead[crossing.argmin()]
                threshold = float(np.sum(y[None] * c, axis=1)[0])
                if float(np.sum(q[None] * c, axis=1)[0]) < threshold:
                    continue
                ks = BinaryKnapsackSet(c, threshold)
                lam = ks.ray_hold(q, a)
                cross = _crossing(_row_sum_corners(ks.c, ks.threshold), q, a)
                assert cross * (1 - 1e-6) <= lam <= cross
                held += 1
        assert calls == [] and held == 46

    def test_knapsack_workload_holds_rarely_project(self, monkeypatch):
        # the 8 run_dr cases of solve-knapsack at seed 3 ask for 33 holds;
        # Dinkelbach alone projected 47 times inside 27 of them
        import importlib.util
        import os

        from drfeas.engine import run_dr

        path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                            "bench", "workloads.py")
        spec = importlib.util.spec_from_file_location("workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        hold = BinaryKnapsackSet.ray_hold
        project_all = BinaryKnapsackSet.project_all
        holds, inside, calls = [], [], []

        def counted_hold(ks, q, a):
            holds.append(q)
            inside.append(q)
            lam = hold(ks, q, a)
            inside.clear()
            return lam

        monkeypatch.setattr(BinaryKnapsackSet, "ray_hold", counted_hold)
        monkeypatch.setattr(BinaryKnapsackSet, "project_all", lambda ks, x: (
            inside and calls.append(x)) or project_all(ks, x))
        inputs = workloads.generate("solve-knapsack", 3)
        for hs, Q, x0, cfg in workloads.build(inputs)["cases"]:
            run_dr(Q, hs, x0, cfg)
        assert len(holds) == 33 and len(calls) <= 9

    @pytest.mark.parametrize("seed", [3, 20261017])
    def test_knapsack_workload_holds_never_project(self, seed, monkeypatch):
        # the seed draws only the cases' coordinate order and scales, so
        # both seeds hold as long as the search over projections did
        holds, projected, asked = _workload_holds(seed, monkeypatch)
        assert projected == [] and len(holds) == 33
        early = KNAPSACK_EARLY_HOLDS
        assert [h for i, h in enumerate(holds) if i not in early] == (
            pytest.approx(list(KNAPSACK_WORKLOAD_HOLDS), rel=1e-12))
        for i in early:
            ks, q, a = asked[i]
            ref, m = _dinkelbach_hold(ks, q, a), ks.dim
            shrunk = ref * (1.0 - _ray_tol(ref, 2.0 * np.sqrt(m), m))
            assert holds[i] == pytest.approx(shrunk, rel=1e-12)

    def test_knapsack_degenerate_weights_against_all_corners(self, monkeypatch):
        # unit and repeated weights on an integer threshold: every corner
        # of the threshold's weight is in the split search's slack band and
        # in Q; one ulp above it, such corners are in the band and out of Q
        searched = _split_rounds(monkeypatch)
        rng = np.random.default_rng(18)
        for m in range(2, 13):
            for c in (np.ones(m), rng.integers(1, 4, m).astype(float)):
                t = float(rng.integers(1, c.sum()))
                for threshold in (t, float(np.nextafter(t, np.inf))):
                    ks = BinaryKnapsackSet(c, threshold)
                    corners = _row_sum_corners(ks.c, ks.threshold)
                    a = rng.normal(size=m)
                    a /= np.linalg.norm(a)
                    low = ks.min_along(a)
                    for q in corners[rng.permutation(len(corners))[:8]]:
                        self._check(ks, corners, q, a, float(np.sum(q * a)) <= low)
        assert len(searched) > 50

    @pytest.mark.parametrize("m", [20, 32])
    def test_knapsack_split_search_against_dinkelbach(self, m, monkeypatch):
        # the search runs in rounds over the corners of few flips per half;
        # random weights, and unit weights on and one ulp above an integer
        # threshold
        searched = _split_rounds(monkeypatch)
        rng = np.random.default_rng(m)
        c = rng.uniform(0.5, 3.0, m)
        sets = [(c, float(rng.uniform(0.3, 0.6) * c.sum())),
                (np.ones(m), m // 2), (np.ones(m), float(np.nextafter(m // 2, np.inf)))]
        for c, threshold in sets:
            ks = BinaryKnapsackSet(c, threshold)
            for _ in range(4):
                q = ks.project_all(rng.uniform(-1.0, 2.0, m))[0]
                # taking a coordinate out of q gains, so that may leave Q
                a = rng.normal(size=m)
                a[q == 1.0] = np.abs(a[q == 1.0])
                a /= np.linalg.norm(a)
                lam, ref = ks.ray_hold(q, a), _dinkelbach_hold(ks, q, a)
                shrunk = ref * (1.0 - _ray_tol(ref, 2.0 * np.sqrt(m), m))
                assert lam == ref if ref == np.inf else lam == pytest.approx(shrunk, rel=1e-12)
        assert 2 in searched and max(searched) > 2

    @pytest.mark.parametrize("m", [20, 32])
    def test_knapsack_no_crossing_takes_no_round(self, m, monkeypatch):
        # q attains the least <a, y> over Q, so no corner crosses; with a > 0
        # taking a coordinate out of q gains, so the single flip's corner
        # leaves Q, and the support, not a search, says that none gains
        tops = _split_rounds(monkeypatch)
        rng = np.random.default_rng(5)
        for _ in range(4):
            c = rng.uniform(0.5, 3.0, m)
            ks = BinaryKnapsackSet(c, float(rng.uniform(0.3, 0.6) * c.sum()))
            a = np.abs(rng.normal(size=m))
            a /= np.linalg.norm(a)
            q = ks._cheapest(a)[0]
            _assert_behind_hold(ks, q, a, ks.ray_hold(q, a))
        assert tops == []

    def test_knapsack_exact_ties_do_not_cross(self):
        # a normal of small integers k/|k| ties corners exactly, but the
        # split gains of q's tied corners round to a few ulps either side
        # of 0; at the least k.y over Q, q has no crossing.  Over the 823
        # such q here the brute force's float gain of a tie rounds above 0
        # once, so it reads ahead from the integer gains
        rng = np.random.default_rng(0)
        for _ in range(500):
            m = int(rng.integers(3, 9))
            k = rng.integers(-3, 4, m).astype(float)
            if not k.any():
                continue
            c = rng.integers(1, 4, m).astype(float)
            threshold = float(rng.integers(1, c.sum() + 1))
            corners = _row_sum_corners(c, threshold)
            ks = BinaryKnapsackSet(c, threshold)
            for q in corners[corners @ k == (corners @ k).min()]:
                self._check(ks, corners, q, k / np.linalg.norm(k), True, k=k)

    def test_knapsack_search_stops_at_the_bound(self, monkeypatch):
        # every gain is a multiple of 1/4, so the first round's best corner
        # crosses at exactly the bound k/(2 S_k) = 2 of every flip count k:
        # no other count can cross sooner, and no second round runs
        tops = _split_rounds(monkeypatch)
        m = 20
        c = np.ones(m)
        c[0] = 10.0
        ks = BinaryKnapsackSet(c, float(c.sum() - 5.0))  # no flip of c[0]
        a = np.where(np.arange(m) < 16, 0.25, 0.0)
        lam = ks.ray_hold(np.ones(m), a)
        assert tops == [2]
        assert lam == 2.0 * (1.0 - _ray_tol(2.0, 2.0 * np.sqrt(m), m))

    def test_triadic_against_brute_force(self):
        # values 2/3^k lie within sqrt(TIE_TOL) of their neighbours, where
        # the hold's band of 2 TIE_TOL, not TIE_TOL, decides its length;
        # from 2/3^13 down, x = q ties q with the point below it, which is
        # behind q if a = -1
        for depth in (1, 5, 20, 60):
            Q = TriadicSet(depth)
            for a in (np.array([1.0]), np.array([-1.0])):
                for v in Q.values:
                    q = np.array([v])
                    self._check(Q, Q.values[:, None], q, a,
                                float(q @ a) == Q.min_along(a), tie=2 * TIE_TOL)

    def test_triadic_march_reuses_q(self):
        from drfeas.engine import run_dr

        calls = []
        Q, hs = TriadicSet(40), HalfSpace([1.0], -0.5)
        Q.project_all = lambda x: calls.append(x) or TriadicSet.project_all(Q, x)
        held = run_dr(Q, hs, [1.0])
        assert type(held[1]).__name__ == "Diverging"
        assert len(calls) < len(held[0])
        Q.ray_hold = lambda q, a: 0.0
        calls.clear()
        plain = run_dr(Q, hs, [1.0])
        assert len(calls) == len(plain[0])
        assert _same_run(held, plain)

    def test_other_sets_never_hold(self):
        a = np.array([1.0])
        for Q in (Sphere([0.0], 1.0), ProductSet([FinitePointSet([(0.0,)])])):
            assert Q.ray_hold(np.array([1.0]), a) == 0.0

    def test_scaled_instances_run_the_same_with_and_without_the_hold(
            self, same_decisions):
        # powers of two keep the arithmetic exact, so only the tie
        # tolerance differs between scales; at every scale reusing q must
        # take the decisions that projecting every step takes
        from drfeas.engine import SolverConfig, run_dr

        rng = np.random.default_rng(15)
        r = 1 / np.sqrt(2.0)
        cases = []
        for i in range(8):
            pts = rng.integers(-3, 4, (int(rng.integers(2, 6)), 2)).astype(float)
            a = np.array([(0.0, 1.0), (r, r), (0.6, 0.8), (-r, r)][i % 4])
            b = float((pts @ a).min()) - float(rng.integers(-1, 3))
            cases.append((pts, a, b, rng.integers(-4, 5, 2).astype(float)))
        cfg = SolverConfig(max_iter=150)
        for pts, a, b, x0 in cases:
            for k in range(-30, 31):
                s = 2.0 ** k
                Q = FinitePointSet(s * pts)
                hs = HalfSpace(a, s * b)
                held = run_dr(Q, hs, s * x0, cfg)
                Q.ray_hold = lambda q, a: 0.0
                plain = run_dr(Q, hs, s * x0, cfg)
                same_decisions(hs.b, held, plain, (pts.tolist(), a, b, k))
                assert held[0].fingerprint == plain[0].fingerprint


def _same_run(one, two):
    (t1, o1), (t2, o2) = one, two
    return (all(np.array_equal(getattr(t1, c), getattr(t2, c))
                for c in ("x", "q", "d_xH", "d_qH", "d_xL"))
            and t1.fingerprint == t2.fingerprint and repr(o1) == repr(o2))
