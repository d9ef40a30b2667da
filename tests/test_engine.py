"""Tests for the iteration drivers, cycle detection, and divergence logic."""

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
    run_ap,
    run_dr,
    run_dr_generic,
)
from drfeas.geometry import DimensionMismatchError, HalfSpace, Hyperplane
from drfeas.sets import FinitePointSet, Sphere, TriadicSet

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
        for r1, r2 in zip(t1, t2):
            assert np.array_equal(r1.x, r2.x)
            assert np.array_equal(r1.q, r2.q)
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
        # set's min_along is computed once, when the march first outlasts
        # the window, and not at all for a one-step solve.
        Q = _CountingSet([(0, 1), (80, -1)])
        run_dr(Q, self.HS, [80.0, -1.0])
        assert Q.min_calls == 0
        trace, outcome = run_dr(Q, self.HS, [0.0, 1.0], SolverConfig(window=10))
        assert isinstance(outcome, Solved)
        assert np.array_equal(outcome.q, [80, -1])
        assert Q.min_calls == 1

    def test_far_handover_is_not_certified(self):
        # (1e4, -0.01) is in H but wins the nearest-point comparison only
        # about 5e7 down the ray: the march is transient on a feasible
        # instance, although a probe at 1e7 sees q stay nearest
        Q = FinitePointSet([(0, 1), (1e4, -0.01)])
        trace, outcome = run_dr(Q, self.HS, [0.0, 1.0], SolverConfig(max_iter=200))
        assert isinstance(outcome, MaxIterations)

    def test_max_iterations(self):
        Q = TriadicSet()
        cfg = SolverConfig(max_iter=10, eps_h=1e-30, eps_cycle=1e-14)
        trace, outcome = run_dr(Q, HalfSpace(np.array([1.0]), 0.0), [1.0], cfg)
        assert isinstance(outcome, MaxIterations)
        assert len(trace) == 11

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
        Q = FinitePointSet([(-1, 0), (1, 0), (0, 5)])
        cfg = SolverConfig(tie_rule="random", seed=42)
        t1, o1 = run_dr(Q, self.HS, [0.0, 5.0], cfg)
        t2, o2 = run_dr(Q, self.HS, [0.0, 5.0], cfg)
        assert t1.fingerprint == t2.fingerprint
        assert all(np.array_equal(a.x, b.x) for a, b in zip(t1, t2))
        assert type(o1) is type(o2)

    def test_tie_rules_are_validated(self):
        with pytest.raises(ValueError):
            SolverConfig(tie_rule="nonsense")
        with pytest.raises(ValueError):
            SolverConfig(reflect_order="backwards")
        with pytest.raises(ValueError):
            SolverConfig(max_iter=0)

    @pytest.mark.parametrize("eps", [0.0, -1.0, float("inf"), float("nan")])
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
        assert outcome == MaxIterations(1e11, 1e11, norm_capped=True)
        assert np.linalg.norm(trace[-1].x) > NORM_CAP
        assert SolverConfig().key()[-1] == NORM_CAP

    def test_rotate_tie_rule_alternates(self):
        Q = FinitePointSet([(-1, 2), (1, 2)])
        hs = HalfSpace(np.array([0.0, 1.0]), -10.0)
        cfg = SolverConfig(tie_rule="rotate", max_iter=3)
        trace, _ = run_dr(Q, hs, [0.0, 2.0], cfg)
        assert np.array_equal(trace[0].q, [-1, 2])


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

    def test_overflowing_iterate_raises(self):
        # the step from x0 = 0 toward q = 1.5e308 overflows; the next
        # projection rejects the non-finite iterate
        Q = FinitePointSet([[1.5e308]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                run_dr(Q, HalfSpace([1.0], 0.0), [0.0])
            with pytest.raises(ValueError, match="non-finite"):
                run_dr_generic(Hyperplane([1.0], 0.0), Q, [0.0])

    def test_random_tie_rule_trace_is_pinned(self):
        # ties at steps 0, 1 and 3; the seeded draws pick a path that the
        # "first" rule does not take
        Q = FinitePointSet([(-1, -2), (1, 0), (0, -1), (-1, 2), (-2, 2)])
        hs = HalfSpace([2.0, 0.0], -1.0)
        cfg = SolverConfig(tie_rule="random", seed=42)
        trace, outcome = run_dr(Q, hs, [1.5, -1.5], cfg)
        assert [r.x.tolist() for r in trace] == [
            [1.5, -1.5], [0.0, 0.0], [-0.5, -1.0], [-1.0, -1.0], [-1.5, -1.0]]
        assert [r.q.tolist() for r in trace] == [
            [1.0, 0.0], [0.0, -1.0], [0.0, -1.0], [0.0, -1.0], [-1.0, -2.0]]
        assert isinstance(outcome, Solved) and outcome.iterations == 4
        assert trace.fingerprint == "8e611811feccc340"


class TestColumnarTrace:
    """The trace stores columns; records and the fingerprint are built on read."""

    Q = FinitePointSet([(-1, -2), (1, 0), (0, -1), (-1, 2), (-2, 2)])
    HS = HalfSpace([2.0, 0.0], -1.0)
    CFG = SolverConfig(tie_rule="random", seed=42)

    def test_columns_match_records(self):
        trace, _ = run_dr(self.Q, self.HS, [1.5, -1.5], self.CFG)
        assert len(trace) == 5 and trace.dim == 2
        assert np.array_equal(trace.x, [r.x for r in trace.records])
        assert np.array_equal(trace.q, [r.q for r in trace.records])
        for name in ("d_xH", "d_qH", "d_xL"):
            assert getattr(trace, name).tolist() == [
                getattr(r, name) for r in trace.records]
        assert [r.k for r in trace] == list(range(5))
        assert trace.records is trace.records
        assert not trace.x.flags.writeable

    def test_single_record_equals_records_entry(self):
        trace, _ = run_dr(self.Q, self.HS, [1.5, -1.5], self.CFG)
        for i in (0, 2, -1):
            one, cached = trace[i], trace.records[i]
            assert one.k == cached.k
            assert np.array_equal(one.x, cached.x)
            assert np.array_equal(one.q, cached.q)
            assert (one.d_xH, one.d_qH, one.d_xL) == (
                cached.d_xH, cached.d_qH, cached.d_xL)
        assert [r.k for r in trace[1:4]] == [1, 2, 3]
        with pytest.raises(IndexError):
            trace[5]

    def test_mutating_inputs_and_records_leaves_the_trace_unchanged(self):
        x0 = np.array([1.5, -1.5])
        trace, _ = run_dr(self.Q, self.HS, x0, self.CFG)
        xs, qs = trace.x.copy(), trace.q.copy()
        x0[:] = 99.0
        trace[0].x[:] = 77.0
        trace.records[-1].x[:] = 55.0
        trace.records[-1].q[:] = 55.0
        assert np.array_equal(trace.x, xs) and np.array_equal(trace.q, qs)
        assert trace[0].x.tolist() == [1.5, -1.5]
        assert trace[-1].q.tolist() == [-1.0, -2.0]
        assert trace.fingerprint == "8e611811feccc340"

    def test_fingerprint_is_hashed_once_on_first_read(self, monkeypatch):
        calls = []

        def counting(*parts):
            calls.append(parts)
            return real(*parts)

        real = engine._fingerprint
        monkeypatch.setattr(engine, "_fingerprint", counting)
        trace, _ = run_dr(self.Q, self.HS, [1.5, -1.5], self.CFG)
        assert len(calls) == 0
        assert trace.fingerprint == "8e611811feccc340"
        assert trace.fingerprint == "8e611811feccc340"
        assert len(calls) == 1

    def test_long_march_memory_per_record(self):
        # a 20001-step constant-q march (the window is never reached);
        # a frozen IterateRecord per step held 478 B/record here
        cfg = SolverConfig(max_iter=20000, window=10**6)
        Q, hs = FinitePointSet([(0.0, 1.0)]), HalfSpace([0.0, 1.0], 0.0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            trace, outcome = run_dr(Q, hs, [0.0, 1.0], cfg)
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert isinstance(outcome, MaxIterations) and len(trace) == 20001
        assert held / len(trace) <= 478 / 4


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


class TestDivergenceScan:
    def test_structural_scan_agrees_with_driver(self):
        hs = HalfSpace(np.array([0.0, 1.0]), 0.0)
        Q = FinitePointSet([(0, 1)])
        cfg = SolverConfig()
        trace, outcome = run_dr(Q, hs, [0.0, 1.0], cfg)
        cert = detect_linear_divergence(trace.records, hs, window=cfg.window)
        assert cert is not None
        assert cert.increment == pytest.approx(
            outcome.certificate.increment, abs=1e-12
        )

    def test_scan_certificate_equals_driver_certificate(self):
        # an oblique march: the offsets are rounded dot products, so the
        # scan over records and the driver's raw-value detector must take
        # the same values in the same order
        hs = HalfSpace(np.array([0.3, 0.7, -0.2]), 0.1)
        Q = FinitePointSet([(0.5, 0.9, 0.1)])
        trace, outcome = run_dr(Q, hs, [0.2, 0.3, 0.4])
        assert isinstance(outcome, Diverging)
        cert = detect_linear_divergence(trace.records, hs)
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
            trace.records, hs, eps_h=cfg.eps_h, eps_cycle=cfg.eps_cycle
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
