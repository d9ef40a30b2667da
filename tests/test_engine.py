"""Tests for the iteration drivers, cycle detection, and divergence logic."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drfeas import engine
from drfeas.engine import (
    NORM_CAP,
    CycleDetected,
    DegenerateProjection,
    Diverging,
    MaxIterations,
    Solved,
    SolverConfig,
    detect_cycle,
    detect_linear_divergence,
    dr_step,
    dr_step_generic,
    dr_step_rows,
    run_ap,
    run_dr,
    run_dr_generic,
)
from drfeas.geometry import DimensionMismatchError, HalfSpace, Hyperplane
from drfeas.sets import (BinaryKnapsackSet, FinitePointSet, Slab, Sphere,
                         TriadicSet)
from drfeas.verifier import _certificate_valid

COORD = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def vec2():
    return st.tuples(COORD, COORD).map(np.array)


def halfspaces2():
    return st.tuples(
        st.tuples(st.floats(-5, 5), st.floats(-5, 5)).filter(
            lambda a: np.linalg.norm(a) > 1e-6
        ),
        st.floats(-5, 5),
    ).map(lambda ab: HalfSpace(np.array(ab[0]), ab[1]))


class TestDrStep:
    def test_keeps_q_when_reflection_lands_inside(self):
        hs = HalfSpace(np.array([0.0, 1.0]), 0.0)
        x = np.array([0.0, 3.0])
        q = np.array([0.0, -2.0])  # 2q - x = (0,-7), inside
        assert np.array_equal(dr_step(x, q, hs), q)

    def test_shift_formula_when_reflection_outside(self):
        hs = HalfSpace(np.array([0.0, 1.0]), 0.0)
        x = np.array([0.0, 1.0])
        q = np.array([0.0, 2.0])  # 2q - x = (0,3), outside
        # q + (<a,x> + b - 2<a,q>) a = (0, 2 + (1 - 4)) = (0, -1)
        assert np.allclose(dr_step(x, q, hs), [0.0, -1.0])

    @given(st.tuples(halfspaces2(), vec2(), vec2()))
    @settings(max_examples=300, deadline=None)
    def test_matches_averaged_reflector_form(self, hxq):
        hs, x, q = hxq
        # the case split equals (x + R_H(2q - x)) / 2 wherever the
        # membership comparison is not within the tolerance band
        margin = float(hs.a @ (2 * q - x)) - hs.b
        if abs(margin) <= 1e-9:
            return
        averaged = 0.5 * (x + hs.reflect(2.0 * q - x))
        assert np.allclose(dr_step(x, q, hs), averaged, atol=1e-9)

    @given(st.tuples(halfspaces2(), vec2(), vec2()))
    @settings(max_examples=300, deadline=None)
    def test_result_stays_in_halfspace_when_x_inside(self, hxq):
        hs, x, q = hxq
        if hs.value(x) > 0:
            return
        nxt = dr_step(x, q, hs, eps_h=0.0)
        assert hs.value(nxt) <= 1e-9


def _bit_differences(u, v):
    """Rows of u whose bits differ from v's (0.0 and -0.0 differ)."""
    return np.flatnonzero((u.view(np.uint64) != v.view(np.uint64)).any(axis=1))


class TestDrStepRows:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_each_row_is_dr_step_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        k = 5000
        hss = [HalfSpace(a, b) for a, b in zip(rng.normal(size=(k, n)),
                                               rng.uniform(-5.0, 5.0, k))]
        a, b = np.array([hs.a for hs in hss]), np.array([hs.b for hs in hss])
        x, q = rng.uniform(-10.0, 10.0, (2, k, n))
        # a third of the rows put <a, 2q - x> within rounding of b + eps_h,
        # c = b + eps_h moved by up to 4 ulps, through x = 2q - c*a
        near = k // 3
        c = b[:near] + 1e-9
        c += rng.integers(-4, 5, near) * np.spacing(c)
        x[:near] = 2.0 * q[:near] - c[:, None] * a[:near]
        z = dr_step_rows(x, q, a, b)
        expect = np.array([dr_step(*row) for row in zip(x, q, hss)])
        assert list(_bit_differences(z, expect)) == []
        # both cases, among the rows at the threshold and among the others
        keep = (z == q).all(axis=1)
        for part in (keep[:near], keep[near:]):
            assert 0.3 < part.mean() < 0.7


class TestGenericStepAgreement:
    @given(st.tuples(halfspaces2(), vec2()))
    @settings(max_examples=200, deadline=None)
    def test_generic_set_first_matches_specialized(self, hx):
        hs, x = hx
        Q = FinitePointSet([(-2, -2), (0, 1), (3, 0)])
        cfg = SolverConfig()
        nxt, q = dr_step_generic(x, hs, Q, cfg)
        q2 = Q.project_all(x)[0]
        assert np.array_equal(q, q2)
        assert np.allclose(nxt, dr_step(x, q2, hs, eps_h=0.0), atol=1e-12)

    def test_run_dr_generic_delegates_for_halfspace(self):
        hs = HalfSpace(np.array([-2.0, 3.0]), 0.0)
        Q = FinitePointSet([(-2, -2), (-1, 0), (1, 1.5), (-1.2, 2)])
        t1, o1 = run_dr(Q, hs, [0.0, 3.0])
        t2, o2 = run_dr_generic(hs, Q, [0.0, 3.0])
        assert t1.fingerprint == t2.fingerprint
        assert len(t1) == len(t2)
        assert np.array_equal(t1.x, t2.x)
        assert np.array_equal(t1.q, t2.q)
        assert type(o1) is type(o2)


class TestDetectCycle:
    def test_constant_sequence(self):
        states = [np.zeros(2)] * 5
        assert detect_cycle(states) == (1, 0)

    def test_period_two(self):
        a, b = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        assert detect_cycle([a, b, a, b, a]) == (2, 0)

    def test_no_cycle(self):
        states = [np.array([float(i), 0.0]) for i in range(50)]
        assert detect_cycle(states) is None

    def test_pre_period_is_skipped(self):
        orbit = [np.array([9.0, 9.0])] + [
            np.array(v, float) for v in [(0, 0), (0, 1), (0, 0), (0, 1)]
        ]
        assert detect_cycle(orbit) == (2, 1)

    def test_confirmation_rejects_drifting_near_miss(self):
        # two states fall in one grid cell but the orbit moves on
        states = [
            np.array([0.0]),
            np.array([1e-12]),
            np.array([5.0]),
            np.array([6.0]),
            np.array([7.0]),
        ]
        assert detect_cycle(states, eps_cycle=1e-9, confirm=True) is None
        assert detect_cycle(states, eps_cycle=1e-9) == (1, 0)

    def test_confirmation_accepts_true_cycle(self):
        a, b = np.array([0.0, 1.0]), np.array([1.0, 0.0])
        assert detect_cycle([a, b] * 4, confirm=True) == (2, 0)

    def test_a_match_closes_the_shortest_loop(self):
        # 0 recurs at 2, 4, 5 and 6: matched against its first index 0
        # instead of its last, each recurrence tries a longer loop and fails
        states = [[0.0], [1.0], [0.0], [2.0], [0.0], [0.0], [0.0]]
        assert detect_cycle(states, confirm=True) == (1, 4)

    def test_overflowing_grid_keys_do_not_collide(self):
        # |state| / eps_cycle overflows to inf here; distinct states must
        # not share that key, while an exact repeat is still a cycle
        with np.errstate(over="ignore"):
            states = [[1e10, 0.0], [2e10, 0.0], [3e10, 5.0]]
            assert detect_cycle(states, eps_cycle=1e-300) is None
            assert detect_cycle([[1e10, 0.0], [1e10, 0.0]],
                                eps_cycle=1e-300) == (1, 0)


class TestRunDr:
    HS = HalfSpace(np.array([0.0, 1.0]), 0.0)

    def test_solved_immediately_from_feasible_projection(self):
        Q = FinitePointSet([(0, -1)])
        trace, outcome = run_dr(Q, self.HS, [5.0, 5.0])
        assert isinstance(outcome, Solved)
        assert outcome.iterations == 0
        assert len(trace) == 1

    def test_divergence_certificate_on_infeasible(self):
        Q = FinitePointSet([(0, 1)])
        trace, outcome = run_dr(Q, self.HS, [0.0, 1.0])
        assert isinstance(outcome, Diverging)
        cert = outcome.certificate
        assert cert.increment == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(cert.q_fixed, [0, 1])
        # the witness: min over Q of <a,p> is 1 > b = 0, attained by q
        assert outcome.support == 1.0
        # consecutive offsets grow by exactly the increment
        diffs = np.diff(cert.offsets)
        assert np.allclose(diffs, cert.increment, atol=1e-9)

    def test_no_certificate_for_transient_march(self):
        # the near point starts a constant-q march, but a far feasible
        # point eventually wins the nearest-point comparison: the run
        # must end Solved even though the march outlives the window.  The
        # set's min_along is computed once, at the march's first step, and
        # not at all for a one-step solve.
        Q = _CountingSet([(0, 1), (80, -1)])
        run_dr(Q, self.HS, [80.0, -1.0])
        assert Q.min_calls == 0
        trace, outcome = run_dr(Q, self.HS, [0.0, 1.0])
        assert isinstance(outcome, Solved)
        assert np.array_equal(outcome.q, [80, -1])
        assert Q.min_calls == 1
        # from (0, 5) q is held from step 1, outside H, before m is known;
        # m is still computed once, by the step that first has x in H
        trace, outcome = run_dr(Q, self.HS, [0.0, 5.0])
        assert isinstance(outcome, Solved) and trace.d_xH[1] > 0.0
        assert Q.min_calls == 2

    def test_far_handover_is_not_certified(self):
        # (1e4, -0.01) is in H but wins the nearest-point comparison only
        # about 5e7 down the ray: the march is transient on a feasible
        # instance, although a probe at 1e7 sees q stay nearest
        Q = FinitePointSet([(0, 1), (1e4, -0.01)])
        trace, outcome = run_dr(Q, self.HS, [0.0, 1.0], SolverConfig(max_iter=200))
        assert isinstance(outcome, MaxIterations)

    def test_march_after_a_handover_starts_at_the_handover(self):
        # x_1 = (2, 0) still lies on the ray of q_0 = (2, 3) when q hands
        # over to (0, 1), yet the step from it is already -d(q,H)*a: the
        # streak starts at k = 1, with the window's 25 offsets
        Q = FinitePointSet([(0, 1), (2, 3)])
        trace, outcome = run_dr(Q, self.HS, [2.0, 3.0])
        assert isinstance(outcome, Diverging)
        cert = outcome.certificate
        assert np.array_equal(cert.q_fixed, [0, 1])
        assert (cert.start_index, len(trace), len(cert.offsets)) == (1, 27, 25)

    def test_divergence_verdict_does_not_depend_on_scale(self):
        # infeasible oblique instances, scaled with b and x0 by s.  The
        # rounding of x's step and of <a,q> - m grows with s, far beyond
        # an absolute 1e-9 at 1e8; a witness step tests only <a,q> - m,
        # relative to |m|, with q a point of Q stored exactly.  At 1e8
        # only the outcome is pinned: eps_h is still absolute, and a
        # rounded x just outside H can delay the streak by a step.
        rng = np.random.default_rng(17)
        cfg = SolverConfig(max_iter=300)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            pts = rng.uniform(-10, 10, (int(rng.integers(1, 6)), d))
            a = rng.normal(size=d)
            a /= np.linalg.norm(a)
            b = float((pts @ a).min() - rng.uniform(0.5, 5.0))
            x0 = rng.uniform(-10, 10, d)
            runs = {s: run_dr(FinitePointSet(s * pts), HalfSpace(a, s * b),
                              s * x0, cfg) for s in (1.0, 1e4, 1e6, 1e8)}
            trace, outcome = runs[1.0]
            assert isinstance(outcome, Diverging)
            for s in (1e4, 1e6):
                tr_s, out_s = runs[s]
                assert isinstance(out_s, Diverging), (s, out_s)
                assert len(tr_s) == len(trace)
                assert (out_s.certificate.start_index
                        == outcome.certificate.start_index)
            assert isinstance(runs[1e8][1], Diverging)

    def test_sphere_divergence_does_not_depend_on_scale(self):
        # on a sphere q moves a little each march step: the march counts
        # steps whose q attains m up to WITNESS_TOL*max(1, |m|), so a scaled
        # run still ends Diverging, with a valid certificate.  Lengths are
        # not pinned: eps_h is still absolute.
        rng = np.random.default_rng(20)
        cases = [([0.3, 2.0], 1.0, [0.2, 1.0], 0.5, [1.0, 1.5])]
        for _ in range(20):
            d = int(rng.integers(2, 5))
            a = rng.normal(size=d)
            c, r = rng.uniform(-5, 5, d), rng.uniform(0.5, 3.0)
            b = float(a @ c - r * np.linalg.norm(a) - rng.uniform(0.5, 5.0))
            cases.append((c, r, a, b, rng.uniform(-10, 10, d)))
        cfg = SolverConfig(max_iter=300)
        for c, r, a, b, x0 in cases:
            for s in (1.0, 1e4, 1e6, 1e8):
                hs = HalfSpace(a, s * b)
                _, outcome = run_dr(Sphere(s * np.asarray(c), s * r), hs,
                                    s * np.asarray(x0), cfg)
                assert isinstance(outcome, Diverging), (s, outcome)
                assert _certificate_valid(outcome, hs), s

    def test_cycle_grid_does_not_change_a_half_space_run(self):
        # the witness tolerance is a constant: eps_cycle is only the cycle
        # grid of the two-set and AP runs
        Q, hs = Sphere([0.3, 2.0], 1.0), HalfSpace([0.2, 1.0], 0.5)
        runs = [run_dr(Q, hs, [1.0, 1.5], SolverConfig(eps_cycle=eps))
                for eps in (1e-300, 1e-3)]
        (t1, o1), (t2, o2) = runs
        assert isinstance(o1, Diverging) and repr(o1) == repr(o2)
        for col in ("x", "q", "d_xH", "d_qH", "d_xL"):
            assert np.array_equal(getattr(t1, col), getattr(t2, col))

    def test_fingerprint_holds_only_the_settings_a_run_reads(self):
        # a half-space run reads neither eps_cycle nor reflect_order; a
        # two-set run reads eps_cycle as its cycle grid
        Q, hs = Sphere([0.3, 2.0], 1.0), HalfSpace([0.2, 1.0], 0.5)
        one, two, capped = (run_dr(Q, hs, [1.0, 1.5], cfg)[0].fingerprint
                            for cfg in (SolverConfig(eps_cycle=1e-300),
                                        SolverConfig(eps_cycle=1e-3),
                                        SolverConfig(max_iter=7)))
        assert one == two != capped
        slab, P = Slab([0.0, 1.0], -1.0, 1.0), FinitePointSet([(0, 3), (1, 5)])
        one, two = (run_dr_generic(slab, P, [0.0, 4.0],
                                   SolverConfig(eps_cycle=eps))[0].fingerprint
                    for eps in (1e-300, 1e-3))
        assert one != two
        # an AP run reads the cycle grid but not reflect_order: its
        # fingerprint held reflect_order, so one run read as two
        Q, hs = FinitePointSet([(0, 2), (1, -2)]), HalfSpace([-2, 3], 0)
        first, second, grid = (
            run_ap(Q, hs, [-2, 2], cfg)[0].fingerprint
            for cfg in (SolverConfig(),
                        SolverConfig(reflect_order="constraint-first"),
                        SolverConfig(eps_cycle=1e-3)))
        assert first == second != grid

    def test_max_iterations(self):
        Q = TriadicSet()
        cfg = SolverConfig(max_iter=10, eps_h=1e-30, eps_cycle=1e-14)
        trace, outcome = run_dr(Q, HalfSpace(np.array([1.0]), 0.0), [1.0], cfg)
        assert isinstance(outcome, MaxIterations)
        assert len(trace) == 11

    def test_shrinking_orbit_is_not_a_cycle(self):
        # x_k = 3^-k never repeats, but from k = 20 on it shares one cell
        # of the default 1e-9 grid: a run against a half-space keeps no
        # cycle detector, so it runs to the cap instead of a false cycle
        cfg = SolverConfig(max_iter=40, eps_h=1e-30)
        trace, outcome = run_dr(TriadicSet(), HalfSpace([1.0], 0.0), [1.0], cfg)
        assert isinstance(outcome, MaxIterations)
        assert len(trace) == 41

    def test_degenerate_projection(self):
        S = Sphere([0.0, 0.0], 1.0)
        trace, outcome = run_dr(S, self.HS, [0.0, 0.0])
        assert isinstance(outcome, DegenerateProjection)
        assert outcome.at_index == 0

    def test_solved_point_is_feasible(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            pts = rng.uniform(-5, 5, size=(4, 3))
            hs = HalfSpace(rng.normal(size=3), rng.uniform(-2, 2))
            trace, outcome = run_dr(FinitePointSet(pts), hs, rng.uniform(-5, 5, 3))
            if isinstance(outcome, Solved):
                assert hs.contains(outcome.q)
                assert FinitePointSet(pts).contains(outcome.q)

    def test_same_inputs_same_fingerprint_and_trace(self):
        # ties at steps 0 and 1
        Q = FinitePointSet([(-1, -2), (1, 0), (0, -1), (-1, 2), (-2, 2)])
        hs = HalfSpace([2.0, 0.0], -1.0)
        t1, o1 = run_dr(Q, hs, [1.5, -1.5])
        t2, o2 = run_dr(Q, hs, [1.5, -1.5])
        assert [len(Q.project_all(x)) for x in t1.x] == [2, 2, 1, 1]
        assert t1.fingerprint == t2.fingerprint
        assert np.array_equal(t1.x, t2.x) and np.array_equal(t1.q, t2.q)
        assert repr(o1) == repr(o2)

    def test_tie_rules_are_validated(self):
        # a run takes the first nearest point and marches a fixed window: no
        # tie rule, seed or window is taken
        for retired in ("tie_rule", "seed", "window"):
            with pytest.raises(TypeError):
                SolverConfig(**{retired: 0})
        with pytest.raises(ValueError):
            SolverConfig(reflect_order="backwards")
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)

    @pytest.mark.parametrize("bad", [2.5, 1.0, True, "3"])
    def test_max_iter_must_be_an_integer(self, bad):
        # max_iter=2.5 used to run 4 steps: k >= 2.5 first holds at k = 3
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            SolverConfig(max_iter=bad)
        assert SolverConfig(max_iter=np.int64(3)).max_iter == 3

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("inf"), float("nan"),
                                     True])
    def test_tolerances_must_be_positive_and_finite(self, eps):
        # an infinite eps_h "solves" every run at k=0, an infinite
        # eps_cycle puts every state in one grid cell
        with pytest.raises(ValueError, match="tolerances"):
            SolverConfig(eps_h=eps)
        with pytest.raises(ValueError, match="tolerances"):
            SolverConfig(eps_cycle=eps)

    def test_norm_cap_ends_the_march(self):
        # q = (0, 1e11) stays outside H and x marches down by 1e11 a step:
        # |x| passes NORM_CAP long before a 25-step certificate could form
        trace, outcome = run_dr(FinitePointSet([[0.0, 1e11]]),
                                HalfSpace([0.0, 1.0], 0.0), [0.0, 0.0])
        assert len(trace) == 12
        assert outcome == MaxIterations(1e11, norm_capped=True)
        assert np.linalg.norm(trace.x[-1]) > NORM_CAP
        assert SolverConfig().key()[-1] == NORM_CAP

    def test_key_covers_every_setting(self):
        base = SolverConfig()
        other = {"max_iter": 7, "eps_h": 1e-6, "eps_cycle": 1e-6,
                 "reflect_order": "constraint-first"}
        assert sorted(other) == sorted(f.name for f in dataclasses.fields(base))
        assert base.key() == (10000, 1e-9, 1e-9, "set-first", NORM_CAP)
        for name, value in other.items():
            assert dataclasses.replace(base, **{name: value}).key() != base.key()

    @pytest.mark.parametrize("driver", [
        "run_dr", "run_dr_generic-set-first",
        "run_dr_generic-constraint-first", "run_ap"])
    def test_a_tie_takes_the_first_nearest_point(self, driver):
        # x0 lies in H, so every driver projects x0 itself at step 0; the
        # set lists its points unsorted
        Q, x0 = FinitePointSet([(1, 2), (-1, 2)]), np.array([0.0, 2.0])
        hs = HalfSpace([0.0, 1.0], 5.0)
        ties = Q.project_all(x0)
        if driver == "run_ap":
            trace, _ = run_ap(Q, hs, x0)
        elif driver == "run_dr":
            trace, _ = run_dr(Q, hs, x0)
        else:
            order = driver.removeprefix("run_dr_generic-")
            trace, _ = run_dr_generic(hs, Q, x0,
                                      SolverConfig(reflect_order=order))
        assert len(ties) == 2
        assert trace.q[0].tolist() == ties[0].tolist() == [1.0, 2.0]


class _CountingSet(FinitePointSet):
    def __init__(self, points):
        super().__init__(points)
        self.calls = self.min_calls = 0

    def project_all(self, x):
        self.calls += 1
        return super().project_all(x)

    def min_along(self, a):
        self.min_calls += 1
        return super().min_along(a)


def _drivers(Q, constraint, x0):
    """The three drivers on the same data, as zero-argument calls."""
    return [
        lambda: run_dr(Q, constraint, x0),
        lambda: run_dr_generic(constraint, Q, x0,
                               SolverConfig(reflect_order="constraint-first")),
        lambda: run_ap(Q, constraint, x0),
    ]


class TestRunBoundary:
    """Drivers check x0 and the dimensions once, before the first step."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_x0_is_rejected(self, bad):
        for run in _drivers(FinitePointSet([[1.0]]), HalfSpace([1.0], 0.0), [bad]):
            with pytest.raises(ValueError, match="non-finite"):
                run()

    def test_dimension_mismatch_raises_before_any_step(self):
        Q = _CountingSet([[1.0, 2.0]])
        for run in _drivers(Q, HalfSpace([1.0], 0.0), [0.0]):
            with pytest.raises(DimensionMismatchError):
                run()
        assert Q.calls == 0

    def test_start_point_whose_squared_norm_overflows_is_rejected(self):
        # every squared distance from x0 was inf, so every point tied and
        # the runs took q = 0, not the nearest point 1, as Solved at step 0
        Q = FinitePointSet([(0.0,), (1.0,)])
        with np.errstate(over="ignore"):
            for run in _drivers(Q, HalfSpace([1.0], 0.5), [1e200]):
                with pytest.raises(ValueError, match="squared norm overflows"):
                    run()

    def test_overflowing_iterate_ends_the_run(self):
        # the step from x0 = 0 toward q = (1.5e308, 1.5e308) overflows; the
        # run ends with q's d(q,H) before it projects the iterate, which
        # used to raise from the projection
        Q = _CountingSet([(1.5e308, 1.5e308)])
        with np.errstate(over="ignore", invalid="ignore"):
            for run in _drivers(Q, HalfSpace([1.0, 0.0], 0.0), [0.0, 0.0]):
                Q.calls = 0
                trace, outcome = run()
                assert outcome == MaxIterations(1.5e308, norm_capped=True)
                assert len(trace) == 1 and Q.calls == 1
                for col in (trace.x, trace.q, trace.d_xH, trace.d_qH,
                            trace.d_xL):
                    assert np.isfinite(col).all()

    def test_trace_does_not_depend_on_the_start_point_layout(self):
        # a start given as a matrix column used to step through other last
        # bits than its contiguous copy: 29 of these 300 runs differed
        rng = np.random.default_rng(0)
        cfg = SolverConfig(max_iter=200)
        for _ in range(300):
            Q = FinitePointSet(rng.uniform(-10, 10, (int(rng.integers(1, 6)), 5)))
            hs = HalfSpace(rng.normal(size=5), float(rng.uniform(-5, 5)))
            column = rng.uniform(-10, 10, (5, 5))[:, 0]
            strided, outcome = run_dr(Q, hs, column, cfg)
            plain, plain_outcome = run_dr(Q, hs, column.copy(), cfg)
            assert np.array_equal(strided.x, plain.x)
            assert np.array_equal(strided.q, plain.q)
            assert repr(outcome) == repr(plain_outcome)
            assert strided.fingerprint == plain.fingerprint


class TestRunCosts:
    """What a run keeps and builds beyond its steps."""

    def test_solved_q_owns_its_data(self):
        # Solved keeps the q project_all returned, with no copy: each
        # driver solved at step 0, and run_dr after holding q = (0, 1)
        # from step 1 on, handing over to (5, -1)
        Q = FinitePointSet([(0.0, 1.0), (2.0, 3.0)])
        runs = _drivers(Q, HalfSpace([0.0, 1.0], 2.0), [0.1, 1.0])
        held = FinitePointSet([(0.0, 1.0), (5.0, -1.0)])
        runs.append(lambda: run_dr(held, HalfSpace([0.0, 1.0], 0.0),
                                   [0.0, 1.0]))
        for run, points in zip(runs, [Q.points] * 3 + [held.points]):
            trace, outcome = run()
            assert isinstance(outcome, Solved)
            assert not np.shares_memory(outcome.q, points)
            q_col = trace.q.copy()
            outcome.q[:] = 7.0
            assert np.array_equal(trace.q, q_col)
        assert outcome.iterations > 4

    def test_a_run_solved_at_step_zero_builds_nothing_more(self,
                                                          monkeypatch):
        # no cycle detector, and no key until the fingerprint is read
        built, keyed = [], []

        class Detector(engine._CycleDetector):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(engine, "_CycleDetector", Detector)
        for cls in (FinitePointSet, HalfSpace, SolverConfig):
            monkeypatch.setattr(cls, "key", lambda self, key=cls.key:
                                keyed.append(type(self)) or key(self))
        Q = FinitePointSet([(0.0, 1.0), (2.0, 3.0)])
        for run, cfg_keyed in zip(
                _drivers(Q, HalfSpace([0.0, 1.0], 2.0), [0.1, 1.0]),
                (False, True, False)):
            trace, outcome = run()
            assert outcome.iterations == 0
            assert built == [] and keyed == []
            trace.fingerprint
            assert keyed == ([FinitePointSet, HalfSpace]
                             + [SolverConfig] * cfg_keyed)
            keyed.clear()
        # a run past step 0 builds its detector once
        run_ap(Q, HalfSpace([0.0, 1.0], 0.0), [0.1, 1.0])
        assert len(built) == 1


class _RecordingSet(FinitePointSet):
    """Records every point it is asked to project."""

    def __init__(self, points):
        super().__init__(points)
        self.asked = []

    def project_all(self, x):
        self.asked.append(np.array(x, dtype=float))
        return super().project_all(x)


class TestSegmentReuse:
    """run_dr reuses q along its ray while the set's ray_hold allows."""

    HS = HalfSpace([0.0, 1.0], 0.0)

    def test_step_zero_and_handovers_are_projected(self):
        # x0 lies off the ray of every point; q hands over from (2, 3) to
        # (0, 1) at step 1, then marches: only the first steps of the two
        # segments are projected, each q held from its second step on
        Q = _RecordingSet([(0, 1), (2, 3), (4, 6)])
        x0 = [2.5, 3.7]
        trace, outcome = run_dr(Q, self.HS, x0)
        assert isinstance(outcome, Diverging) and len(trace) == 28
        assert np.array_equal(Q.asked[0], x0)
        asked = {x.tobytes() for x in Q.asked}
        for k in range(1, len(trace)):
            if not np.array_equal(trace.q[k], trace.q[k - 1]):
                assert trace.x[k].tobytes() in asked
        assert len(Q.asked) == 2
        Q.ray_hold = lambda q, a: 0.0
        plain = run_dr(Q, self.HS, x0)
        assert len(Q.asked) == 2 + 28
        assert np.array_equal(plain[0].x, trace.x)
        assert np.array_equal(plain[0].q, trace.q)
        assert repr(plain[1]) == repr(outcome)

    def test_reuse_stops_before_the_crossing(self, same_decisions):
        # (80, -1) ties (0, 1) exactly at step 1601, lam = 1601 down the
        # ray, and is nearer from step 1602 on: the closed form's hold ends
        # before x = q - lam*a reaches the tie, the run projects there as
        # it would without reuse, and solves
        Q = _RecordingSet([(0, 1), (80, -1)])
        cfg = SolverConfig(max_iter=2000)
        held = run_dr(Q, self.HS, [0.0, 1.0], cfg)
        trace, outcome = held
        assert isinstance(outcome, Solved) and np.array_equal(outcome.q, [80, -1])
        assert len(trace) == 1603 and len(Q.asked) < 10
        assert len(Q.project_all(trace.x[1601])) == 2
        assert trace.x[1601].tobytes() in {x.tobytes() for x in Q.asked}
        assert trace.q[1601].tolist() == [0, 1] != trace.q[1602].tolist()
        Q.ray_hold = lambda q, a: 0.0
        same_decisions(self.HS.b, held, run_dr(Q, self.HS, [0.0, 1.0], cfg))
        # a hold of exactly lam = 1500 holds q up to step 1499 only
        Q.asked.clear()
        Q.ray_hold = lambda q, a: 1500.0
        run_dr(Q, self.HS, [0.0, 1.0], cfg)
        assert Q.asked[1].tolist() == [0.0, 1.0 - 1500]
        assert len(Q.asked) == 1 + 1603 - 1500
        # an oblique march whose step to x5 computes lam = -s one ulp below
        # <a, q - x5>: the hold decides on that lam, so a hold one ulp above
        # it holds q at step 5 and a hold at or below it projects there;
        # each run equals the run that projects every step, bit for bit
        Q, hs = _RecordingSet([(1.81, 0.49)]), HalfSpace([2.04, -2.56], 0.0)
        cfg = SolverConfig(max_iter=20)     # under the window of 25 steps
        Q.ray_hold = lambda q, a: 0.0
        plain = run_dr(Q, hs, [-2.44, -0.4], cfg)
        q, x4, x5 = plain[0].q[0], plain[0].x[4], plain[0].x[5]
        lam = -(float(hs.a.dot(x4)) + hs.b - 2.0 * float(hs.a.dot(q)))
        assert lam < float(hs.a.dot(q - x5))
        for hold, projected in [(np.nextafter(lam, np.inf), False),
                                (lam, True), (np.nextafter(lam, 0.0), True)]:
            Q.asked.clear()
            Q.ray_hold = lambda q, a: hold
            held = run_dr(Q, hs, [-2.44, -0.4], cfg)
            same_decisions(hs.b, held, plain)
            for col in ("x", "q", "d_xH", "d_qH", "d_xL"):
                assert (getattr(held[0], col).tobytes()
                        == getattr(plain[0], col).tobytes()), (hold, col)
            assert repr(held[1]) == repr(plain[1])
            # projected: steps 0 and 5 on, or steps 0 and 6 on
            first = 5 if projected else 6
            assert Q.asked[1].tobytes() == plain[0].x[first].tobytes()
            assert len(Q.asked) == 1 + len(plain[0]) - first

    def test_a_twin_not_ahead_is_projected(self, same_decisions):
        # (-5e-7, 1), listed first and within 1e-6 of q = (0, 1), is level
        # with q on q's ray, so project_all ties the two there and selects
        # the twin; q, found alone from x0, must not be held past step 0
        Q = _RecordingSet([(-5e-7, 1), (0, 1)])
        held = run_dr(Q, self.HS, [1.0, 1.5])
        assert held[0].q[0].tolist() == [0, 1] != held[0].q[1].tolist()
        Q.ray_hold = lambda q, a: 0.0
        plain = run_dr(Q, self.HS, [1.0, 1.5])
        same_decisions(self.HS.b, held, plain)
        for col in ("x", "q", "d_xH", "d_qH", "d_xL"):
            assert (getattr(held[0], col).tobytes()
                    == getattr(plain[0], col).tobytes()), col

    @pytest.mark.parametrize("make, hs, x0", [
        (lambda: FinitePointSet([(1e-4, 0), (0, 0)]),
         HalfSpace([0.0, 1.0], -1e5), [-1.0, 99999.0]),
        (lambda: FinitePointSet([(1e-4, 0), (0, 0)]),
         HalfSpace([0.0, 1.0], -1e5), [-1.0, 0.5]),
        (lambda: BinaryKnapsackSet([1.0, 1.0], 0.0),
         HalfSpace([1.0, 0.0], -1e9), [0.1, 0.9]),
    ], ids=["finite-march", "finite-second-step", "knapsack"])
    def test_a_point_behind_q_ties_it_by_rounding(self, make, hs, x0,
                                                  same_decisions):
        # no point is ahead of q, but one behind it ties q once lam^2
        # swamps |q - p|^2 in rounding, and project_all then selects it
        # where it comes first: the hold must end before that lam
        Q = make()
        held = run_dr(Q, hs, x0)
        Q.ray_hold = lambda q, a: 0.0
        same_decisions(hs.b, held, run_dr(Q, hs, x0))

    def test_x_equal_to_q_is_held_at_lam_zero(self, same_decisions):
        # step 0 finds q = (0, 10) from x0 = (0, 12) and leaves lam = 8,
        # past q's hold of 4.5; step 1 projects x1 = (0, 2), finds (0, 1)
        # and takes the inside case, x2 = q: on q's ray at lam = 0, below
        # the hold of 3.25 that (3, -1) sets, so step 2 holds q unprojected
        Q = _RecordingSet([(0, 10), (0, 1), (3, -1)])
        held = run_dr(Q, self.HS, [0.0, 12.0])
        assert isinstance(held[1], Solved) and len(held[0]) == 7
        assert held[0].x[2].tolist() == [0.0, 1.0]
        assert [x.tolist() for x in Q.asked] == [[0, 12], [0, 2], [0, -3]]
        Q.ray_hold = lambda q, a: 0.0
        same_decisions(self.HS.b, held, run_dr(Q, self.HS, [0.0, 12.0]))


def _instance(rng, kind: str, scale: float):
    """A random run_dr input of the kind, its set, b and x0 scaled by scale
    (triadic and knapsack sets keep their points: their b and x0 scale)."""
    if kind == "finite":
        d = int(rng.integers(1, 6))
        Q = FinitePointSet(rng.uniform(-4, 4, (int(rng.integers(1, 6)), d)) * scale)
    elif kind == "sphere":
        d = int(rng.integers(1, 4))
        Q = Sphere(rng.uniform(-3, 3, d) * scale, rng.uniform(0.5, 2) * scale)
    elif kind == "triadic":
        d, Q = 1, TriadicSet(int(rng.integers(3, 30)))
    else:
        d = int(rng.integers(1, 11))
        c = rng.uniform(0, 3, d)
        Q = BinaryKnapsackSet(c, rng.uniform(0, 1) * c.sum())
    hs = HalfSpace(rng.normal(size=d), float(rng.uniform(-3, 3)) * scale)
    return Q, hs, rng.uniform(-4, 4, d) * scale


class TestScalarDecisions:
    """run_dr decides a step's case and norm cap by the exact tests, also
    where a test from scalars rounds the other way; a closed-form segment
    ends before any decision within its rounding margin."""

    def test_default_runs_equal_the_exact_tests(self, monkeypatch, segments,
                                                same_decisions):
        # with an infinite margin no segment is appended in closed form:
        # every step takes the exact tests
        rng = np.random.default_rng(19)
        cfg = SolverConfig(max_iter=60)
        cases = [(kind, int(rng.integers(2**31)))
                 for kind in ("finite", "triadic", "knapsack", "sphere")
                 for _ in range(75)]
        for kind, seed in cases:
            for k in (-30, -10, 0, 10, 30):
                inputs = _instance(np.random.default_rng(seed), kind, 2.0**k)
                default = run_dr(*inputs, cfg)
                appended = len(segments)
                with monkeypatch.context() as m:
                    m.setattr(engine, "_ROUNDING", np.inf)
                    exact = run_dr(*inputs, cfg)
                assert len(segments) == appended
                same_decisions(inputs[1].b, default, exact, (kind, seed, k))
                assert default[0].fingerprint == exact[0].fingerprint
        assert len(segments) > 100

    def test_case_test_inside_the_margin(self):
        # <a, 2q - x0> and 2<a,q> - <a,x0> round to neighbouring floats;
        # with b + eps_h at the lower one the exact test keeps q
        hs, q, x0 = (HalfSpace([0.388, 0.922], 0.0), np.array([1.288, 2.897]),
                     np.array([1.517, 3.045]))
        exact = float(hs.a.dot(2.0 * q - x0))
        scalars = 2.0 * float(hs.a.dot(q)) - float(hs.a.dot(x0))
        assert exact < scalars
        cfg = SolverConfig(eps_h=exact, max_iter=1)
        trace, _ = run_dr(FinitePointSet([q]), hs, x0, cfg)
        assert trace.x[1].tobytes() == q.tobytes()

    def test_norm_cap_inside_the_margin(self):
        # x1 = q + s*a has |x1| one ulp past NORM_CAP though |q| + |s| is
        # NORM_CAP itself: the exact norm ends the run at step 1
        hs, q = HalfSpace([-1.26, -0.81], -5.0), np.array([1.49, 0.96])
        x0 = np.array([841178475375.2366, 540757591312.6521])
        trace, outcome = run_dr(FinitePointSet([q]), hs, x0)
        assert len(trace) == 2 and outcome.norm_capped
        s = float(hs.a.dot(x0)) + hs.b - 2.0 * float(hs.a.dot(q))
        assert np.linalg.norm(q) + abs(s) <= NORM_CAP < np.linalg.norm(trace.x[1])


class TestClosedFormSegments:
    """run_dr appends a held segment at once.  Stepped by hand, each run
    takes the same decisions, and its x is within rounding."""

    def test_instances_decide_as_stepped(self, segments, stepped,
                                         same_decisions):
        rng = np.random.default_rng(24)
        cfg = SolverConfig(max_iter=60)
        for kind in ("finite", "triadic", "knapsack", "sphere"):
            for _ in range(30):
                seed = int(rng.integers(2**31))
                for k in range(-30, 31, 10):
                    inputs = _instance(np.random.default_rng(seed), kind, 2.0**k)
                    same_decisions(inputs[1].b, run_dr(*inputs, cfg),
                                   stepped(*inputs, cfg), (kind, seed, k))
        assert len(segments) > 200

    HS = HalfSpace([0.0, 1.0], 0.0)

    @pytest.mark.parametrize("points, x0, max_iter, resumed, steps", [
        # the hold: (80, -1) ties q = (0, 1) at lam = 1601, step 1601
        ([(0, 1), (80, -1)], [0.0, 1.0], 2000, 1601, 1603),
        ([(0, 1), (1e6, -1)], [0.0, 1.0], 300, 300, 301),       # max_iter
        # the norm cap: |x_k| = k*1e9 reaches NORM_CAP at step 1000 and
        # passes it at step 1001
        ([(0, 1e9), (1e15, -1e9)], [0.0, 0.0], 10000, 1000, 1002),
        # the window: a witness march from step 1, Diverging at step 26
        ([(0, 1)], [0.0, 1.0], 10000, 26, 27),
    ])
    def test_a_segment_ends_at_each_bound(self, segments, stepped,
                                          same_decisions, points, x0,
                                          max_iter, resumed, steps):
        Q, cfg = FinitePointSet(points), SolverConfig(max_iter=max_iter)
        run = run_dr(Q, self.HS, x0, cfg)
        same_decisions(self.HS.b, run, stepped(Q, self.HS, x0, cfg))
        assert segments == [(2, resumed)] and len(run[0]) == steps


def _rounding_cases():
    """run_dr inputs whose first possible segment, at step 2, starts inside
    a margin: (points, hs, x0, max_iter, the margin, the segments).  x0 =
    q, so x1 is in H and q repeats there; a second point far along -a
    makes q held but not the witness."""
    a = HalfSpace([0.6, 0.8], 0.0).a
    q = np.array([0.8, -0.6]) * 2.0 ** 27   # |q| = 2^27, <a,q> near 0
    aq, far = float(a.dot(q)), [q, q - 1e3 * a]
    # (1 - 16c) NORM_CAP, c = 32 eps, is 0.057 below NORM_CAP: x2 to x4
    # lie between the two, lam below the lower cap root <a,q> - w
    edge = np.array([NORM_CAP - 0.01, 0.0])
    return [
        # d(q,H) = 1e-8 is under an ulp of q: x stays put, at lam ~ 6e-8
        (far, HalfSpace(a, aq - 1e-8), q, 100, "case", []),
        (far, HalfSpace(a, aq - 1e-7), q, 100, "case", [(14, 100)]),
        ([q], HalfSpace(a, aq - 1e-6), q, 10000, "membership", [(3, 26)]),
        ([edge, edge - [1e6, 0.0]], HalfSpace([1.0, 0.0], edge[0] - 0.01),
         edge, 60, "cap", [(5, 60)]),
    ]


class TestSegmentMargins:
    """A closed-form segment starts only outside every rounding margin:
    the case test and, for a witness q, the membership test clear by
    c(3|q| + lam), c = 8(n + 2) eps, and |x| at most (1 - 16c) NORM_CAP."""

    @staticmethod
    def _inside(hs, trace, k, eps_h, witness):
        """The margins step k's start lies inside, lam as the step to it
        computed."""
        q, a, b = trace.q[k], hs.a, hs.b
        lam = -(float(a.dot(trace.x[k - 1])) + b - 2.0 * float(a.dot(q)))
        v, c = float(a.dot(q)) - b, 8 * (hs.dim + 2) * 2.0 ** -53
        t = c * (3.0 * np.linalg.norm(q) + lam)
        return {name for name, inside in [
            ("case", v + lam - t <= eps_h),
            ("membership", witness and v - lam + t > eps_h),
            ("cap", np.linalg.norm(trace.x[k]) > (1.0 - 16.0 * c) * NORM_CAP),
        ] if inside}

    @pytest.mark.parametrize("points, hs, x0, max_iter, margin, appended",
                             _rounding_cases(), ids=["case-stalled", "case",
                                                     "membership", "cap"])
    def test_no_segment_starts_inside_a_margin(self, segments, stepped,
                                               same_decisions, points, hs,
                                               x0, max_iter, margin,
                                               appended):
        Q, cfg = FinitePointSet(points), SolverConfig(max_iter=max_iter)
        run = run_dr(Q, hs, x0, cfg)
        same_decisions(hs.b, run, stepped(Q, hs, x0, cfg))
        witness = len(points) == 1
        assert self._inside(hs, run[0], 2, cfg.eps_h, witness) == {margin}
        assert segments == appended
        for first, _ in segments:
            assert not self._inside(hs, run[0], first, cfg.eps_h, witness)


class TestColumnarTrace:
    """The trace stores columns; records and the fingerprint are built on read.

    The run meets ties at steps 0 and 1.
    """

    Q = FinitePointSet([(-1, -2), (1, 0), (0, -1), (-1, 2), (-2, 2)])
    HS = HalfSpace([2.0, 0.0], -1.0)

    def test_columns_match_records(self):
        trace, _ = run_dr(self.Q, self.HS, [1.5, -1.5])
        assert len(trace) == 4 and trace.dim == 2
        assert np.array_equal(trace.x, [r.x for r in trace.records])
        assert np.array_equal(trace.q, [r.q for r in trace.records])
        for name in ("d_xH", "d_qH", "d_xL"):
            assert getattr(trace, name).tolist() == [
                getattr(r, name) for r in trace.records]
        assert [r.k for r in trace.records] == list(range(4))
        assert trace.records is trace.records
        assert not trace.x.flags.writeable

    def test_mutating_inputs_and_records_leaves_the_trace_unchanged(self):
        x0 = np.array([1.5, -1.5])
        trace, _ = run_dr(self.Q, self.HS, x0)
        xs, qs = trace.x.copy(), trace.q.copy()
        x0[:] = 99.0
        trace.records[0].x[:] = 77.0
        trace.records[-1].x[:] = 55.0
        trace.records[-1].q[:] = 55.0
        assert np.array_equal(trace.x, xs) and np.array_equal(trace.q, qs)
        assert trace.x[0].tolist() == [1.5, -1.5]
        assert trace.q[-1].tolist() == [-1.0, -2.0]
        assert trace.fingerprint == "1749765a4059b596"

    def test_fingerprint_is_hashed_once_on_first_read(self, monkeypatch):
        calls = []

        def counting(*parts):
            calls.append(parts)
            return real(*parts)

        real = engine._fingerprint
        monkeypatch.setattr(engine, "_fingerprint", counting)
        trace, _ = run_dr(self.Q, self.HS, [1.5, -1.5])
        assert len(calls) == 0
        assert trace.fingerprint == "1749765a4059b596"
        assert trace.fingerprint == "1749765a4059b596"
        assert len(calls) == 1

    def test_long_march_memory_per_record(self):
        # a 20001-step constant-q march whose q never attains m, so it is
        # never a witness; a frozen IterateRecord per step held 478 B/record
        cfg = SolverConfig(max_iter=20000)
        Q = FinitePointSet([(0.0, 1.0), (1e6, -1.0)])
        hs = HalfSpace([0.0, 1.0], 0.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            trace, outcome = run_dr(Q, hs, [0.0, 1.0], cfg)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(outcome, MaxIterations) and len(trace) == 20001
        assert (held - base) / len(trace) <= 478 / 4
        # the run's peak too: no per-step state beyond the trace's columns
        assert (peak - base) / len(trace) <= 478 / 4


class TestRunAp:
    def test_two_point_bounce(self):
        Q = FinitePointSet([(0, 2), (1, -2)])
        hs = HalfSpace(np.array([-2.0, 3.0]), 0.0)
        trace, outcome = run_ap(Q, hs, [-2.0, 2.0])
        assert isinstance(outcome, CycleDetected)
        assert outcome.period == 2

    def test_solves_from_feasible_region(self):
        Q = FinitePointSet([(0, -1)])
        hs = HalfSpace(np.array([0.0, 1.0]), 0.0)
        trace, outcome = run_ap(Q, hs, [3.0, 3.0])
        assert isinstance(outcome, Solved)

    def test_x_and_q_in_one_grid_cell_are_different_states(self):
        # q = (0, 1e-4) and its foot x = (0, 0) share a 1e-3 cell; untagged,
        # the pair would read as a fixed point, period 1
        trace, outcome = run_ap(FinitePointSet([(0.0, 1e-4)]),
                                HalfSpace([0.0, 1.0], 0.0), [0.0, 1.0],
                                SolverConfig(eps_cycle=1e-3))
        assert outcome == CycleDetected(period=2, first_index=1)


class TestDivergenceScan:
    def test_structural_scan_agrees_with_driver(self):
        hs = HalfSpace(np.array([0.0, 1.0]), 0.0)
        Q = FinitePointSet([(0, 1)])
        cfg = SolverConfig()
        trace, outcome = run_dr(Q, hs, [0.0, 1.0], cfg)
        cert = detect_linear_divergence(trace.records, hs, window=cfg.window,
                                        support=outcome.support)
        assert cert is not None
        assert cert.increment == pytest.approx(
            outcome.certificate.increment, abs=1e-12
        )
        # an unknown support certifies nothing
        assert detect_linear_divergence(trace.records, hs,
                                        window=cfg.window) is None

    def test_scan_certificate_equals_driver_certificate(self):
        # an oblique march: the offsets are rounded dot products, so the
        # scan over records and the driver's raw-value detector must take
        # the same values in the same order.  On the sphere q moves a
        # little each march step, and the scan must count the same
        # witness steps as the driver.
        for Q, hs, x0 in [
            (FinitePointSet([(0.5, 0.9, 0.1)]),
             HalfSpace(np.array([0.3, 0.7, -0.2]), 0.1), [0.2, 0.3, 0.4]),
            (Sphere([0.3, 2.0], 1.0), HalfSpace([0.2, 1.0], 0.5), [1.0, 1.5]),
        ]:
            trace, outcome = run_dr(Q, hs, x0)
            assert isinstance(outcome, Diverging)
            cert = detect_linear_divergence(trace.records, hs,
                                            support=outcome.support)
            driver = outcome.certificate
            assert cert.offsets == driver.offsets
            assert (cert.increment, cert.start_index) == (
                driver.increment, driver.start_index)
            assert np.array_equal(cert.q_fixed, driver.q_fixed)

    def test_shrinking_march_yields_no_certificate(self):
        hs = HalfSpace(np.array([1.0]), 0.0)
        Q = TriadicSet()
        cfg = SolverConfig(max_iter=40, eps_h=1e-30, eps_cycle=1e-14)
        trace, _ = run_dr(Q, hs, [1.0], cfg)
        assert detect_linear_divergence(
            trace.records, hs, eps_h=cfg.eps_h, eps_cycle=cfg.eps_cycle,
            support=Q.min_along(hs.a),
        ) is None


class TestHyperplaneConstraint:
    def test_four_cycle(self):
        constraint = Hyperplane(np.array([0.0, 1.0]), 0.0)
        Q = FinitePointSet([(0, 1), (1, -1)])
        trace, outcome = run_dr_generic(
            constraint, Q, [-1.0, 1.0], SolverConfig(eps_cycle=1e-12)
        )
        assert isinstance(outcome, CycleDetected)
        assert (outcome.period, outcome.first_index) == (4, 1)
