"""Tests for the property-check suites and their mutation sensitivity.

The full 10^4-trial runs live in the acceptance tests; here each suite is
exercised at reduced trial counts so failures localize quickly.
"""

import json

import pytest

from drfeas.verifier import (
    SUITES,
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


@pytest.mark.parametrize("suite_id", ["prop1", "prop2", "prop3", "prop4", "lemmas"])
def test_documented_mutant_is_killed(suite_id):
    assert mutant_killed(suite_id, trials=300, seed=3)


def test_reports_serialize_to_json():
    report = check_prop1(trials=20, dims=(2,), seed=0)
    payload = json.loads(json.dumps(report.to_json_dict()))
    assert payload["passed"] is True
    assert payload["trials"] == 20
    assert payload["seed"] == 0


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
