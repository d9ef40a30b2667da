"""Tests for the property-check suites and their mutation sensitivity.

The full 10^4-trial runs live in the acceptance tests; here each suite is
exercised at reduced trial counts so failures localize quickly.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from drfeas.engine import Diverging, SolverConfig, run_dr
from drfeas.geometry import HalfSpace
from drfeas.sets import FinitePointSet
from drfeas.verifier import (
    SUITES,
    _certificate_valid,
    check_lemmas,
    check_prop1,
    check_prop2,
    check_prop3,
    check_prop4,
    check_theorems_finite,
    mutant_killed,
    run_all_suites,
)

TRIALS = 500
DIMS = (1, 2, 3, 4, 5)


@pytest.mark.parametrize("check", [check_prop1, check_prop2, check_prop3])
def test_step_property_suites_pass(check):
    report = check(trials=TRIALS, dims=DIMS, seed=11)
    assert report.passed, report.failures[:3]
    assert report.trials == TRIALS
    assert report.vacuous == 0


def test_prop4_suite_passes_with_bounded_vacuity():
    report = check_prop4(trials=TRIALS, seed=11)
    assert report.passed, report.failures[:3]
    # a fraction of trials uses uncrafted comparison points and may be
    # vacuous, but the crafted majority must bite
    assert report.vacuous < report.trials / 2


def test_prop4_is_vacuous_in_one_dimension():
    # with one coordinate there is no room for a distinct comparison
    # point at equal distance, so the suite must not claim coverage
    report = check_prop4(trials=50, dims=(1,), seed=0)
    assert report.vacuous == report.trials


def test_lemma_suite_passes():
    report = check_lemmas(trials=TRIALS, dims=DIMS, seed=11)
    assert report.passed, report.failures[:3]


@pytest.mark.parametrize("seed", [11605531106, 1099])
def test_lemma_suite_keeps_outside_points_off_shallow_depths(seed):
    # A uniform "outside" point landed 2.9e-5 (resp. 4.1e-4) inside H, and
    # the trajectory outlived the 2000-step budget (by ~3e5 steps for the
    # first seed) before settling.
    report = check_lemmas(trials=100, dims=DIMS, seed=seed)
    assert report.passed, report.failures[:3]


def test_theorem_suite_agrees_with_oracles():
    report = check_theorems_finite(trials=40, dims=DIMS, seed=11,
                                   knapsack_trials=40)
    assert report.passed, report.failures[:3]
    assert report.vacuous <= report.trials * 0.01


def test_certificate_check_needs_the_support_witness():
    # the witness is checked from Q's support and H alone: a support that
    # q does not attain, or one inside H, is rejected
    hs = HalfSpace([0.0, 1.0], 0.0)
    _, outcome = run_dr(FinitePointSet([(0.0, 1.0), (3.0, 2.0)]), hs, [0.0, 1.0])
    assert isinstance(outcome, Diverging) and outcome.support == 1.0
    assert _certificate_valid(outcome, hs)
    for support in (1.0 - 1e-6, 0.0):
        assert not _certificate_valid(replace(outcome, support=support), hs)


def test_certificate_check_does_not_depend_on_scale():
    # the 20 infeasible oblique instances of the engine's scale test: each
    # Diverging certificate is valid at every scale, and one whose support,
    # increment or last offset step is off by 1e-6 relative is not
    rng = np.random.default_rng(17)
    cfg = SolverConfig(max_iter=300)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        pts = rng.uniform(-10, 10, (int(rng.integers(1, 6)), d))
        a = rng.normal(size=d)
        a /= np.linalg.norm(a)
        b = float((pts @ a).min() - rng.uniform(0.5, 5.0))
        x0 = rng.uniform(-10, 10, d)
        for s in (1.0, 1e4, 1e6, 1e8):
            hs = HalfSpace(a, s * b)
            _, outcome = run_dr(FinitePointSet(s * pts), hs, s * x0, cfg)
            assert isinstance(outcome, Diverging), (s, outcome)
            assert _certificate_valid(outcome, hs), s
            cert, m = outcome.certificate, outcome.support
            rel = 1e-6 * max(1.0, abs(m), abs(hs.b))
            offs = list(cert.offsets)
            # lowering the last (largest) offset also lowers the steps' scale
            offs[-1] -= 1e-6 * max(1.0, max(map(abs, offs)))
            for bad in (replace(outcome, support=m + rel),
                        replace(outcome, certificate=replace(
                            cert, increment=cert.increment + rel)),
                        replace(outcome, certificate=replace(
                            cert, offsets=tuple(offs)))):
                assert not _certificate_valid(bad, hs), s


@pytest.mark.parametrize("suite_id", ["prop1", "prop2", "prop3", "prop4", "lemmas"])
def test_documented_mutant_is_killed(suite_id):
    assert mutant_killed(suite_id, trials=300, seed=3)


def test_reports_serialize_to_json():
    report = check_prop1(trials=20, dims=(2,), seed=0)
    payload = json.loads(json.dumps(report.to_json_dict()))
    assert payload["passed"] is True
    assert payload["trials"] == 20
    assert payload["seed"] == 0


@pytest.mark.parametrize("counts", [(-3, 1), (1, -2)])
def test_run_all_suites_rejects_negative_trial_counts(counts):
    trials, oracle_trials = counts
    with pytest.raises(ValueError, match="at least 0"):
        run_all_suites(trials=trials, dims=(2,), oracle_trials=oracle_trials)


def test_run_all_suites_covers_registry():
    reports = run_all_suites(trials=50, dims=(2, 3), seed=5, oracle_trials=10)
    assert len(reports) == len(SUITES)
    assert all(r.passed for r in reports)
    ids = [r.property_id for r in reports]
    assert len(set(ids)) == len(ids)


def test_same_seed_reproduces_report():
    r1 = check_prop2(trials=100, dims=(2, 3), seed=9)
    r2 = check_prop2(trials=100, dims=(2, 3), seed=9)
    assert r1.to_json_dict() == r2.to_json_dict()
