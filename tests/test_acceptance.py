"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single pass/fail
line (visible with ``pytest -s`` or on failure) before asserting.
"""

import time

import numpy as np

from drfeas.engine import (
    CycleDetected,
    Diverging,
    MaxIterations,
    Solved,
    SolverConfig,
    detect_linear_divergence,
    run_ap,
    run_dr,
    run_dr_generic,
)
from drfeas.geometry import HalfSpace, Hyperplane
from drfeas.repro import run_experiment
from drfeas.sets import FinitePointSet, TriadicSet
from drfeas.verifier import (
    check_lemmas,
    check_prop1,
    check_prop2,
    check_prop3,
    check_prop4,
    check_theorems_finite,
    mutant_killed,
)

DIMS = (1, 2, 3, 4, 5)
FULL_TRIALS = 10000


def report(number: int, label: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {label}: {status}")
    assert ok, f"criterion {number} ({label}) failed"


def close(a, b, tol) -> bool:
    return bool(np.all(np.abs(np.asarray(a, float) - np.asarray(b, float)) <= tol))


def test_criterion_1_four_point_run():
    Q = FinitePointSet([(-2, -2), (-1, 0), (1, 1.5), (-1.2, 2)])
    hs = HalfSpace(np.array([-2.0, 3.0]), 0.0)
    trace, outcome = run_dr(Q, hs, [0.0, 3.0])
    ok = (
        close(trace.x[1], (0.0, 0.2), 1e-9)
        and isinstance(outcome, Solved)
        and close(outcome.q, (-2.0, -2.0), 1e-9)
        and outcome.iterations <= 8
    )
    elapsed = min(
        _timed(lambda: run_dr(Q, hs, [0.0, 3.0])) for _ in range(5)
    )
    ok = ok and elapsed < 1e-3
    report(1, f"four-point corner solve ({elapsed * 1e3:.2f} ms)", ok)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_geometric_closed_form():
    Q = TriadicSet()
    hs = HalfSpace(np.array([1.0]), 0.0)
    cfg = SolverConfig(max_iter=25, eps_h=1e-30, eps_cycle=1e-14)
    trace, outcome = run_dr(Q, hs, [1.0], cfg)
    forms = all(
        close(trace.x[k], 3.0 ** (-k), 1e-9)
        and close(trace.q[k], 2.0 * 3.0 ** (-(k + 1)), 1e-9)
        for k in range(16)
    )
    cert = detect_linear_divergence(
        trace.records, hs, window=cfg.window,
        eps_h=cfg.eps_h, eps_cycle=cfg.eps_cycle, support=Q.min_along(hs.a),
    )
    ok = forms and isinstance(outcome, MaxIterations) and cert is None
    report(2, "shrinking geometric family closed form", ok)


def test_criterion_3_exact_four_cycle():
    constraint = Hyperplane(np.array([0.0, 1.0]), 0.0)
    Q = FinitePointSet([(0, 1), (1, -1)])
    trace, outcome = run_dr_generic(
        constraint, Q, [-1.0, 1.0], SolverConfig(eps_cycle=1e-12)
    )
    orbit = [(0, 0), (0, -1), (1, 0), (1, 1)]
    ok = (
        isinstance(outcome, CycleDetected)
        and outcome.period == 4
        and all(close(trace.x[1 + i], orbit[i], 1e-12) for i in range(4))
        and all(
            close(trace.x[5 + i], orbit[i], 1e-12)
            for i in range(min(4, len(trace) - 5))
        )
    )
    report(3, "hyperplane exact 4-cycle", ok)


def test_criterion_4_product_space_two_cycles():
    result = run_experiment("pierra")
    needed = [
        "diag_first_cycle", "diag_first_values",
        "product_first_cycle", "product_first_values",
        "doubleton_cycle", "doubleton_values",
    ]
    ok = result.passed and all(result.details.get(k) for k in needed)
    report(4, "product-space exact 2-cycles (three variants)", ok)


def test_criterion_5_alternating_projections_failure():
    Q = FinitePointSet([(0, 2), (1, -2)])
    hs = HalfSpace(np.array([-2.0, 3.0]), 0.0)
    x0 = [-2.0, 2.0]
    ap_trace, ap_out = run_ap(Q, hs, x0)
    ap_ok = (
        isinstance(ap_out, CycleDetected)
        and ap_out.period == 2
        and close(ap_trace.q[-1], (0.0, 2.0), 1e-9)
        and close(ap_trace.x[-1], (12.0 / 13.0, 8.0 / 13.0), 1e-9)
    )
    _, dr_out = run_dr(Q, hs, x0)
    dr_ok = isinstance(dr_out, Solved) and close(dr_out.q, (1.0, -2.0), 1e-9)
    report(5, "alternating projections cycle vs split solve", ap_ok and dr_ok)


def test_criterion_6_divergence_certificate():
    Q = FinitePointSet([(0, 1)])
    hs = HalfSpace(np.array([0.0, 1.0]), 0.0)
    trace, outcome = run_dr(Q, hs, [0.0, 1.0])
    ok = isinstance(outcome, Diverging)
    if ok:
        cert = outcome.certificate
        ok = cert.increment == 1.0
        norms = [float(np.linalg.norm(r.x)) for r in trace.records]
        growth = np.diff(norms[1:])
        ok = ok and np.all(np.abs(growth - 1.0) <= 1e-12)
    report(6, "infeasible run certificate, unit growth per step", ok)


def test_criterion_7_sphere_limit_behavior():
    result = run_experiment("sphere")
    ok = result.passed and result.details.get("recursion_matches_operator")
    resolution = (
        "finite termination" if "finite_termination_feasible" in result.details
        else "asymptotic limit"
    )
    report(7, f"sphere against half-space ({resolution})", ok)


def test_criterion_8_property_suites_full_scale():
    t0 = time.perf_counter()
    reports = [
        check_prop1(FULL_TRIALS, DIMS, seed=0),
        check_prop2(FULL_TRIALS, DIMS, seed=0),
        check_prop3(FULL_TRIALS, DIMS, seed=0),
        check_prop4(FULL_TRIALS, seed=0),
        check_lemmas(FULL_TRIALS, DIMS, seed=0),
    ]
    kills = {
        sid: mutant_killed(sid, trials=300, seed=0)
        for sid in ("prop1", "prop2", "prop3", "prop4", "lemmas")
    }
    elapsed = time.perf_counter() - t0
    all_pass = all(r.passed and not r.failures for r in reports)
    ok = all_pass and all(kills.values()) and elapsed < 60.0
    report(
        8,
        f"property suites x{FULL_TRIALS}, mutants killed ({elapsed:.1f} s)",
        ok,
    )


def test_criterion_9_oracle_equivalence():
    result = check_theorems_finite(trials=100, dims=DIMS, seed=0)
    total = result.trials
    ok = (
        result.passed
        and not result.failures
        and result.vacuous <= max(1, total // 100)
    )
    report(
        9,
        f"oracle agreement on {total} instances "
        f"({result.vacuous} inconclusive)",
        ok,
    )


def test_criterion_10_counterexample_cycles():
    cone = run_experiment("fig3-cone")
    slab = run_experiment("fig5-slab")
    cone_ok = (
        cone.passed
        and cone.details.get("cycle_period_2")
        and cone.details.get("within_50_burn_in")
    )
    slab_ok = (
        slab.passed
        and slab.details.get("did_not_terminate")
        and slab.details.get("cycle_detected")
    )
    period = slab.details.get("observed_period")
    soft = "" if period == 4 else f"; soft: slab period {period}, drawn 4"
    report(10, f"cone and slab non-convergence{soft}", cone_ok and slab_ok)
