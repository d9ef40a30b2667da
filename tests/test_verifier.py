"""Tests for the property-check suites and their mutation sensitivity.

The full 10^4-trial runs live in the acceptance tests; here each suite is
exercised at reduced trial counts so failures localize quickly.
"""

import hashlib
import inspect
import json
import operator
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from drfeas import verifier
from drfeas.engine import (Diverging, SolverConfig, Solved, dr_step,
                           dr_step_rows, run_dr)
from drfeas.geometry import HalfSpace
from drfeas.sets import FinitePointSet
from drfeas.verifier import (
    MUTANTS,
    SUITES,
    _certificate_valid,
    _halfspaces,
    _mutant,
    _nearest,
    _norms,
    _plain,
    _units,
    _x_settles_after,
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
    # run_all_suites draws it in the dimensions asked for, not in 2-D
    prop4 = run_all_suites(trials=10, dims=(1,), oracle_trials=0)[3]
    assert prop4.property_id == report.property_id
    assert prop4.vacuous == prop4.trials == 10


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
    report = check_theorems_finite(trials=40, dims=DIMS, seed=11)
    assert report.passed, report.failures[:3]
    assert report.vacuous <= report.trials * 0.01


@pytest.mark.parametrize("seed", range(10))
def test_theorem_suite_passes_at_the_cli_oracle_count(seed):
    # drfeas verify's default --oracle-trials 100, on each suite seed
    report = check_theorems_finite(100, seed=seed)
    assert report.passed, report.failures[:3]


def _theorem_instance(monkeypatch, seed, trial):
    """check_theorems_finite(100, seed)'s trial: its (Q, hs, x0) draws."""
    drawn = {}
    monkeypatch.setattr(verifier, "_judge", lambda report, t, Q, hs, x0, *_:
                        drawn.setdefault(t, (Q, hs, x0)))
    check_theorems_finite(100, seed=seed)
    return drawn[trial]


def test_solved_run_settles_past_any_step_budget(monkeypatch):
    # a knapsack trial whose x settles only after ~33000 steps: the solved
    # run is judged by its segment, not by stepping it out
    Q, hs, x0 = _theorem_instance(monkeypatch, 5, 145)
    trace, outcome = run_dr(Q, hs, x0, SolverConfig(max_iter=10000))
    assert isinstance(outcome, Solved)
    assert _x_settles_after(trace, Q, hs)


def _ends_at(x):
    return SimpleNamespace(x=np.array([x], dtype=float))


def test_settle_check_rejects_a_q_outside_h():
    # the continuation's nearest point lies 5 outside H = {x <= 0}
    Q, hs = FinitePointSet([(-1.0,), (5.0,)]), HalfSpace([1.0], 0.0)
    assert not _x_settles_after(_ends_at([4.0]), Q, hs)


def test_settle_check_rejects_a_repeat_just_outside_h():
    # q = 1e-13 is within TOL of H = {x <= 0} and repeats, but from x on its
    # ray the step moves x away by 1e-13 each time: x never settles
    Q, hs = FinitePointSet([(1e-13,), (-50.0,)]), HalfSpace([1.0], 0.0)
    assert not _x_settles_after(_ends_at([-5.0]), Q, hs)


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
    survived = [seed for seed in range(20)
                if not mutant_killed(suite_id, trials=300, seed=seed)]
    assert not survived


@pytest.mark.parametrize("suite_id", sorted(MUTANTS))
def test_each_mutant_is_an_operator_its_suite_takes(suite_id):
    # a mutant breaks the step the suite checks, never the claim it checks
    _, inject = MUTANTS[suite_id]
    accepted = inspect.signature(SUITES[suite_id]).parameters
    assert inject and set(inject) <= {"rows_fn", "step_fn"} & set(accepted)
    assert all(callable(fn) for fn in inject.values())


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


@pytest.mark.parametrize("counts", [
    {"trials": 2.5}, {"dims": (1.7, 2)}, {"oracle_trials": True},
    {"trials": "2"}])
def test_run_all_suites_rejects_non_integer_counts(counts):
    # int() truncated these: 2.5 trials ran 2, dims (1.7, 2) ran (1, 2)
    # and oracle_trials=True ran 1 oracle trial
    counts = {"trials": 2, "dims": (2,), "oracle_trials": 0, **counts}
    with pytest.raises(ValueError, match="must be an integer"):
        run_all_suites(**counts)


@pytest.mark.parametrize("seed", [True, 1.5, "3", -1])
def test_run_all_suites_rejects_a_bad_seed(seed):
    # seed=True ran seed 1 and reported "seed": true; 1.5 and "3" raised
    # numpy's TypeError
    with pytest.raises(ValueError, match="seed"):
        run_all_suites(trials=2, dims=(2,), seed=seed, oracle_trials=0)


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("bad", [{"seed": True}, {"dims": (1.7,)},
                                 {"trials": 2.5}])
def test_each_suite_checks_its_arguments(suite, bad):
    # check_prop1(5, seed=True) reported "seed": true, check_prop2(3,
    # dims=(1.7,)) ran and check_lemmas(2.5) raised numpy's TypeError
    with pytest.raises(ValueError, match="must be"):
        SUITES[suite](**{"trials": 3, "dims": (2,), **bad})


@pytest.mark.parametrize("bad", [{"trials": True}, {"seed": "3"}])
def test_mutant_killed_checks_its_arguments(bad):
    # mutant_killed("lemmas", trials=True) ran one trial
    with pytest.raises(ValueError, match="must be"):
        mutant_killed("lemmas", **bad)


def test_suites_report_a_numpy_integer_seed_as_an_int():
    for suite in SUITES.values():
        report = suite(trials=2, dims=[2], seed=np.int64(4))
        assert type(report.seed) is int and report.seed == 4


def test_run_all_suites_takes_a_numpy_integer_seed():
    reports = run_all_suites(trials=2, dims=(2,), seed=np.int64(4),
                             oracle_trials=0)
    assert {type(r.seed) for r in reports} == {int}
    assert [r.seed for r in reports] == [4] * len(SUITES)


@pytest.mark.parametrize("suite_id", ["theorems", "prop5"])
def test_mutant_killed_names_the_suites_that_have_a_mutant(suite_id):
    # a suite with no mutant, or none at all, used to raise a bare KeyError
    with pytest.raises(ValueError, match=repr(suite_id)) as info:
        mutant_killed(suite_id)
    assert ", ".join(MUTANTS) in str(info.value)


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


# Digests of the lemma and theorem reports, taken before these suites were
# made leaner: the leaner loops must draw and judge exactly the same.
REPORT_PINS = {
    0: ("cf35039201f65544", "e8782406697c923b"),
    11: ("ef05b50d8fe70987", "ebd0139a03fc2f75"),
    1099: ("46c8aff0241cf70f", "92a2c665cb5bc36d"),
    11605531106: ("7a70c1118019d800", "cf57f0e939786cb8"),
    30: ("12affb15f950acd6", "acad2a5e9b8432ef"),
    31: ("d618a9243ca43609", "5c221a1c2dcf465b"),
    32: ("bccbe300791bcd63", "8de1cfab144430eb"),
    33: ("a37978dda3b31fb3", "d14476b92d921990"),
    34: ("76e70045bb59d9a8", "5b5748bbee275db4"),
    35: ("b28a0b524f13401e", "17bbbfa247321e54"),
    36: ("4efc0f84284bef2a", "421fde61f214e4f3"),
    37: ("b37fc1b7c3f0e206", "c4f0377cefdf8ccf"),
    38: ("997b91263c95de1c", "1e630eb848a0390d"),
    39: ("a665d224f7aea9b8", "fd7aabea0c1ee6af"),
}


def _digest(report):
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("seed", sorted(REPORT_PINS))
def test_lemma_and_theorem_reports_are_pinned(seed):
    lemmas = check_lemmas(trials=200, dims=DIMS, seed=seed)
    theorems = check_theorems_finite(trials=20, dims=DIMS, seed=seed)
    assert (_digest(lemmas), _digest(theorems)) == REPORT_PINS[seed]


@pytest.mark.parametrize("seed", range(5))
def test_lemma_suite_reports_a_non_finite_step_as_such(seed):
    # a NaN iterate has no distance to H: max(0.0, nan) must not put it inside
    def step(x, q, hs):
        return np.full_like(x, np.nan) if x[0] > 3 else dr_step(x, q, hs)

    def step_rows(x, q, a, b):
        return np.where(x[:, :1] > 3, np.nan, dr_step_rows(x, q, a, b))

    report = check_lemmas(trials=300, seed=seed, step_fn=step,
                          rows_fn=step_rows)
    assert {f["reason"] for f in report.failures} == {"non-finite-step"}
    # both the never-entering batch (even) and entering trials (odd) fail
    assert {f["trial"] % 2 for f in report.failures} == {0, 1}


def test_lemma_mutant_report_is_pinned():
    _, inject = MUTANTS["lemmas"]
    report = check_lemmas(trials=300, seed=3, **inject)
    # every outside trial fails on its first step, and only those
    assert [f["trial"] for f in report.failures] == list(range(0, 300, 2))
    assert {f["reason"] for f in report.failures} == {"decrease-identity"}
    assert _digest(report) == "5bfbb450f5cc738b"


def _as_set(points):
    return {tuple(map(float, p)) for p in points}


@pytest.mark.parametrize("points, x", [
    ([(0.0, 0.0), (3e-7, 0.0), (0.0, 5e-7)], [1e-8, 0.0]),
    ([(1.0, 2.0), (1.0, 2.0), (3.0, 0.0), (1.0, 2.0)], [2.0, 1.0]),
    ([(0.0, 1.0), (-0.0, 1.0), (0.0, -1.0)], [0.0, 0.0]),
    ([(0.0, -0.0), (-0.0, 0.0), (2.0, 0.0)], [1.0, 0.0]),
])
def test_batch_nearest_follows_project_all(points, x):
    # near ties, exact duplicates and rows differing only by 0.0 and -0.0
    Q = FinitePointSet(points)
    pts, x = np.array(points), np.array(x)
    mask, d2 = _nearest(pts[None], x[None])
    assert _as_set(pts[mask[0]]) == _as_set(Q.project_all(x))
    assert mask[0].sum() == len(Q.project_all(x))
    assert np.sqrt(d2[0]) == Q.distance(x)


def test_batch_nearest_agrees_on_random_sets():
    rng = np.random.default_rng(5)
    pts = np.round(rng.uniform(-2, 2, (400, 6, 3)))  # lattice: ties, repeats
    pts[::3, 4] = pts[::3, 1]
    x = np.round(rng.uniform(-2, 2, (400, 3)) * 2) / 2
    mask, d2 = _nearest(pts, x)
    ties = 0
    for i in range(len(pts)):
        Q = FinitePointSet(pts[i])
        assert _as_set(pts[i][mask[i]]) == _as_set(Q.project_all(x[i]))
        assert mask[i].sum() == len(Q.project_all(x[i]))
        assert np.sqrt(d2[i]) == Q.distance(x[i])
        ties += mask[i].sum() > 1
    assert ties > 50


@pytest.mark.parametrize("n", range(1, 17))
def test_row_normaliser_gives_the_half_space_bits(n):
    # _halfspaces normalises the drawn rows as HalfSpace(a_i, b_i) does
    a, b = _halfspaces(np.random.default_rng(n), 5000, n)
    rng = np.random.default_rng(n)
    drawn = zip(_units(rng, 5000, n), rng.uniform(-5.0, 5.0, 5000))
    hss = [HalfSpace(ai, bi) for ai, bi in drawn]
    assert np.array([hs.a for hs in hss]).tobytes() == a.tobytes()
    assert np.array([hs.b for hs in hss]).tobytes() == b.tobytes()


# The per-row formula of each row mutant, in the lemma suite's per-row form
ROW_MUTANT_FORMULAS = {
    "prop1": _mutant(operator.gt, lambda ax, b, aq: ax + b - 2.0 * aq),
    "prop2": _mutant(operator.le, lambda ax, b, aq: ax - 2.0 * aq),
    "prop3": _mutant(operator.le, lambda ax, b, aq: -(ax + b - 2.0 * aq)),
    "prop4": _mutant(operator.le, lambda ax, b, aq: -(ax + b - 2.0 * aq)),
    "lemmas": _mutant(operator.le, lambda ax, b, aq: 0.5 * (ax + b - 2.0 * aq)),
}


@pytest.mark.parametrize("suite_id", sorted(ROW_MUTANT_FORMULAS))
def test_row_mutants_equal_their_per_row_formula(suite_id):
    rng = np.random.default_rng(2)
    for n in DIMS:
        a, b = _halfspaces(rng, 2000, n)
        x, q = rng.uniform(-10.0, 10.0, (2, 2000, n))
        hss = [SimpleNamespace(a=ai, b=bi) for ai, bi in zip(a, b)]
        z = MUTANTS[suite_id][1]["rows_fn"](x, q, a, b)
        expect = np.array([ROW_MUTANT_FORMULAS[suite_id](*row)
                           for row in zip(x, q, hss)])
        assert z.tobytes() == expect.tobytes()
        assert 0.3 < (z == q).all(axis=1).mean() < 0.7  # both cases


@pytest.mark.parametrize("check", [check_prop1, check_prop2, check_prop3,
                                   check_prop4])
def test_prop_suites_step_each_instance_once_on_its_half_space(check):
    calls = []

    def step(x, q, a, b):
        calls.append((a, b))
        return dr_step_rows(x, q, a, b)

    report = check(trials=200, dims=(2, 3), seed=4, rows_fn=step)
    assert report.passed
    # one call per dimension group, and prop2's two follow-ups per group
    assert [a.shape[1] for a, _ in calls] == (
        [2, 2, 2, 3, 3, 3] if check is check_prop2 else [2, 3])
    rows = [len(b) for _, b in calls]
    normals = {(ai.tobytes(), bi) for a, b in calls for ai, bi in zip(a, b)}
    assert all(np.allclose(_norms(a), 1.0) for a, _ in calls)
    if check is check_prop3:
        assert len(normals) == sum(rows) == 200
    else:
        # prop1 steps every nearest point, prop2 adds follow-up steps on
        # the same half-space, prop4 skips degenerate instances
        assert 150 <= len(normals) <= 200


@pytest.mark.parametrize("check", [check_prop1, check_prop2, check_prop3])
def test_failures_carry_the_original_trial_index(check):
    # a step pushed far out of H along the normal fails every check; one
    # pushed only in dimension 3 fails exactly the trials of that dimension
    def step(x, q, a, b):
        z = dr_step_rows(x, q, a, b)
        return z + 100.0 * a if a.shape[1] == 3 else z

    everywhere = check(trials=120, dims=DIMS, seed=8, rows_fn=lambda x, q, a, b:
                       dr_step_rows(x, q, a, b) + 100.0 * a)
    assert [f["trial"] for f in everywhere.failures] == list(range(120))
    dim3 = [f["trial"] for f in everywhere.failures if f["dim"] == 3]
    report = check(trials=120, dims=DIMS, seed=8, rows_fn=step)
    assert [f["trial"] for f in report.failures] == dim3 and dim3
    if check is check_prop2:
        assert all(f["case"] == ("i", "iia", "iibI", "iibII")[f["trial"] % 4]
                   for f in report.failures)


def test_failures_stay_the_suites_values_until_written_as_json():
    # the +100a step fails every trial; the report keeps the arrays and
    # numpy scalars the suite passed, and only its JSON form is plain
    report = check_prop1(trials=120, dims=DIMS, seed=8, rows_fn=lambda x, q,
                         a, b: dr_step_rows(x, q, a, b) + 100.0 * a)
    assert len(report.failures) == 120
    first = report.failures[0]
    assert isinstance(first["a"], np.ndarray)
    assert isinstance(first["trial"], np.integer)
    payload = report.to_json_dict()
    json.dumps(payload)
    assert payload["failures"] == [{k: _plain(v) for k, v in f.items()}
                                   for f in report.failures[:20]]
    assert payload["failure_count"] == 120


# Digests of the prop reports at 300 trials, taken before prop4's mutant
# became an operator and failures became plain data only in to_json_dict.
PROP_REPORT_PINS = {
    0: ("13f6576404f1a8a5", "c7ec5843edf488c7", "acc1b2e762e0a15b",
        "ae10cf5d6519ea41"),
    3: ("d22a0a6cea5e0b9f", "98bfcb322fa21b6d", "385930bb61c75786",
        "16b602afe6905eef"),
    11: ("a69e79558340ccb5", "6ef9d09722f2397c", "43d8688087e40c39",
         "f2360681388dfbab"),
}


@pytest.mark.parametrize("seed", sorted(PROP_REPORT_PINS))
def test_prop_reports_are_pinned(seed):
    reports = [check(trials=300, dims=DIMS, seed=seed) for check in
               (check_prop1, check_prop2, check_prop3, check_prop4)]
    assert tuple(map(_digest, reports)) == PROP_REPORT_PINS[seed]


def test_prop4_vacuity_stays_near_three_tenths():
    vacuous = sum(check_prop4(trials=1000, seed=s).vacuous for s in range(4))
    assert 0.26 < vacuous / 4000 < 0.35


def test_run_all_suites_records_suite_time():
    reports = run_all_suites(trials=20, dims=(2, 3), seed=1, oracle_trials=2)
    for report in reports:
        payload = report.to_json_dict()
        assert payload["seconds"] == report.seconds > 0
        assert payload["trials_per_s"] == report.trials / report.seconds
    # a direct suite call carries no timing, so equal seeds give equal reports
    assert "seconds" not in check_prop1(trials=5, seed=1).to_json_dict()


# The lemma suite's contract, pinned before it drew its trials in blocks
# and stepped them in batches: the same reports, the same step_fn calls for
# each trial, and each entering trial's set built just before its steps.
LEMMA_REPORT_PINS = {  # (dims, seed): digest of the reports at 0-3 and 57 trials
    ((1,), 0): "0ad4d90a0add1c91",
    ((1,), 7): "01c4916e61b61fd0",
    ((5,), 0): "e0b89e520443b4b0",
    ((5,), 7): "01c4916e61b61fd0",
    ((2, 4), 0): "0ad4d90a0add1c91",
    ((2, 4), 7): "01c4916e61b61fd0",
    ((1, 2, 3, 4, 5), 0): "11cf293c4ec33879",
    ((1, 2, 3, 4, 5), 7): "01c4916e61b61fd0",
}
LEMMA_MUTANT_PINS = {  # seed: digest of the mutant's report at 300 trials
    0: "5c03d8087d6b2570",  # (seed 3: test_lemma_mutant_report_is_pinned)
    1: "b300942aad6eeb4d",
    2: "4ead5186ce66ee65",
    4: "f62b9727aa448ec4",
}
LEMMA_STEP_PINS = {  # seed: (steps at 300 trials, digest per trial)
    0: (2276, "0f95e3eff95c5db3"),
    1: (2128, "0462084ce9aeb7fa"),  # re-taken when d(q,L) read H's own (a, b)
    2: (2076, "339bed17281a2d3d"),
}


@pytest.mark.parametrize("dims, seed", sorted(LEMMA_REPORT_PINS))
def test_lemma_reports_are_pinned_across_trial_counts(dims, seed):
    reports = [check_lemmas(t, dims, seed).to_json_dict()
               for t in (0, 1, 2, 3, 57)]
    text = json.dumps(reports, sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    assert digest == LEMMA_REPORT_PINS[dims, seed]


@pytest.mark.parametrize("seed", sorted(LEMMA_MUTANT_PINS))
def test_lemma_mutant_reports_are_pinned_across_seeds(seed):
    _, inject = MUTANTS["lemmas"]
    report = check_lemmas(trials=300, seed=seed, **inject)
    assert _digest(report) == LEMMA_MUTANT_PINS[seed]


def _steps_per_trial(seed):
    """check_lemmas(300)'s steps, each a step_fn call or a row of a rows_fn
    call, and for each trial (known by its half-space, as its offset and
    dimension) its step count and the digest of the x, q and result bytes
    of its steps in order."""
    calls = {}

    def record(x, q, a, b, z):
        calls.setdefault((b.hex(), a.size), []).append(
            np.concatenate([x, q, z]).tobytes())

    def step(x, q, hs):
        z = dr_step(x, q, hs)
        record(x, q, hs.a, hs.b, z)
        return z

    def step_rows(x, q, a, b):
        z = dr_step_rows(x, q, a, b)
        for row in zip(x, q, a, b, z):
            record(*row)
        return z

    check_lemmas(trials=300, seed=seed, step_fn=step, rows_fn=step_rows)
    rows = sorted((b, dim, len(seen), hashlib.sha256(b"".join(seen)).hexdigest())
                  for (b, dim), seen in calls.items())
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]
    return sum(row[2] for row in rows), len(rows), digest


@pytest.mark.parametrize("seed", sorted(LEMMA_STEP_PINS))
def test_lemma_suite_steps_each_trial_as_pinned(seed):
    total, trials, digest = _steps_per_trial(seed)
    assert trials == 300  # one half-space per trial
    assert (total, digest) == LEMMA_STEP_PINS[seed]


@pytest.mark.parametrize("seed", [0, 5])
def test_lemma_batch_steps_each_dimension_in_one_call_per_step(seed):
    calls, entering = [], set()

    def step(x, q, hs):
        entering.add(hs.b)
        return dr_step(x, q, hs)

    def step_rows(x, q, a, b):
        calls.append((a.shape[1], b))
        return dr_step_rows(x, q, a, b)

    report = check_lemmas(trials=40, dims=(2, 3), seed=seed, step_fn=step,
                          rows_fn=step_rows)
    assert report.passed
    # ten lockstep steps of every never-entering trial, one dimension after
    # the other, and none of them through step_fn
    dims = [n for n, _ in calls]
    assert dims == [2] * 10 + [3] * 10
    offsets = [b for _, b in calls]
    assert all(np.array_equal(b, offsets[0 if n == 2 else 10])
               for n, b in calls)
    assert len(offsets[0]) + len(offsets[10]) == 20
    assert not entering & {float(b) for b in np.concatenate(offsets)}


def _record_lemmas(monkeypatch, trials, seed):
    """check_lemmas' FinitePointSet builds, each with the number of steps
    taken before it, and its step_fn calls as (x, q, half-space)."""
    built, steps = [], []

    class Recorded(FinitePointSet):
        def __init__(self, points):
            super().__init__(points)
            built.append((self, len(steps)))

    def step(x, q, hs):
        steps.append((np.array(x), np.array(q), hs))
        return dr_step(x, q, hs)

    monkeypatch.setattr(verifier, "FinitePointSet", Recorded)
    check_lemmas(trials, DIMS, seed, step_fn=step)
    return built, steps


@pytest.mark.parametrize("seed", range(30, 35))
def test_entering_trial_builds_its_set_just_before_its_steps(monkeypatch,
                                                              seed):
    # what a rerun of check_lemmas(T + 1) relies on to recover odd trial T:
    # T's set is the last one built, and T's steps follow it directly
    built, steps = _record_lemmas(monkeypatch, 20, seed)
    assert len(built) == 10
    for trial, (Q, first) in zip(range(1, 20, 2), built):
        hs = steps[first][2]
        assert all(h is not hs for *_, h in steps[:first])
        own = [s for s in steps[first:] if s[2] is hs]
        x = own[0][0]
        for sx, sq, _ in own:
            assert np.array_equal(x, sx)
            assert np.array_equal(Q.project_all(x)[0], sq)
            x = dr_step(x, sq, hs)
        last, rerun = _record_lemmas(monkeypatch, trial + 1, seed)
        Q_last, first_last = last[-1]
        assert np.array_equal(Q_last.points, Q.points)
        assert len(rerun) - first_last == len(own)
        for (rx, rq, rh), (sx, sq, _) in zip(rerun[first_last:], own):
            assert np.array_equal(rx, sx) and np.array_equal(rq, sq)
            assert np.array_equal(rh.a, hs.a) and rh.b == hs.b
