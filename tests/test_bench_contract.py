"""The parts of the program that the benchmark's traced mode relies on.

``bench/spans.py`` wraps the public entry points of every layer by name,
and ``bench/layers.py`` calls the divergence scan positionally; a change
to either interface would break ``bench/run.py --trace 1``.
"""

import hashlib
import importlib.util
import os

import numpy as np
import pytest

import drfeas
from drfeas import engine, verifier
from drfeas.engine import Diverging, MaxIterations, SolverConfig
from drfeas.geometry import HalfSpace, Hyperplane, ReflectableConstraint, _Flat
from drfeas.sets import (BinaryKnapsackSet, DiagonalSet, FinitePointSet,
                         PlanarCone, ProductSet, Slab)

BENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")
DIMS = (1, 2, 3, 4, 5)


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(BENCH, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _spans():
    return _bench_module("spans")


def test_spans_instrument_and_uninstall():
    spans = _spans()
    run_dr = engine.run_dr
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        assert drfeas.run_dr is not run_dr
        hs = HalfSpace([0.0, 1.0], 0.0)
        trace, outcome = drfeas.run_dr(FinitePointSet([(0, 1)]), hs,
                                       [0.0, 1.0])
    finally:
        tracer.uninstall()
    assert engine.run_dr is run_dr and drfeas.run_dr is run_dr
    assert isinstance(outcome, Diverging)
    names = [tracer.names[i] for i in tracer.name]
    assert "engine.run_dr" in names and "sets.Finite.project_all" in names


def test_method_aliases_are_wrapped_and_restored():
    # the constraints' inherited checked methods are class-attribute
    # aliases, which spans.instrument finds in cls.__dict__
    spans = _spans()
    aliases = [(Slab, "project", ReflectableConstraint.project),
               (PlanarCone, "project", ReflectableConstraint.project),
               (DiagonalSet, "project", ReflectableConstraint.project),
               (DiagonalSet, "reflect", ReflectableConstraint.reflect),
               (HalfSpace, "value", _Flat.value),
               (Hyperplane, "value", _Flat.value)]
    square = FinitePointSet([(0, 0), (1, 0), (1, 1), (0, 1)])
    runs = [
        (Slab([0.0, 1.0], -0.59, -0.06),
         FinitePointSet([(0.01, -0.35), (-0.3, -0.78), (-0.43, 0.01)]),
         [-1.0, 1.0], SolverConfig()),
        (PlanarCone.from_boundary_points([-0.35, 0.5], [2.0, 1.7212],
                                         [2.0, -0.5868]),
         square, [-0.1693, 0.2624], SolverConfig()),
        (DiagonalSet(2), ProductSet([HalfSpace([0.0, 1.0], 1.0), square]),
         [0, 0.4, 0, 0.8], SolverConfig(eps_cycle=1e-12,
                                        reflect_order="constraint-first")),
    ]

    def outcomes():
        return [repr(engine.run_dr_generic(*run)[1]) for run in runs]

    plain = outcomes()
    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        traced = outcomes()
        values = (HalfSpace([0.0, 2.0], 1.0).value([3.0, 1.5]),
                  Hyperplane([0.0, 2.0], 1.0).value([3.0, 1.5]))
    finally:
        tracer.uninstall()
    assert traced == plain and values == (1.0, 1.0)
    names = [tracer.names[i] for i in tracer.name]
    assert {"geometry.HalfSpace.value",
            "geometry.Hyperplane.value"} <= set(names)
    for cls, attr, base in aliases:
        assert cls.__dict__[attr] is base, (cls, attr)


def test_divergence_scan_takes_five_positional_arguments():
    # as bench/layers.py replays it: no support, so nothing is certified
    cfg = SolverConfig()
    hs = HalfSpace(np.array([0.0, 1.0]), 0.0)
    trace, _ = engine.run_dr(FinitePointSet([(0, 1)]), hs, [0.0, 1.0], cfg)
    assert engine.detect_linear_divergence(
        trace.records, hs, cfg.window, cfg.eps_h, cfg.eps_cycle) is None


def test_segment_reuse_leaves_every_benchmark_run_unchanged(monkeypatch,
                                                           same_decisions):
    # every run_dr case of the two solve workloads at seed 3, as built and
    # with ray_hold forced to 0 on the instance (a projection every step):
    # the same decisions, and x within rounding
    workloads = _bench_module("workloads")
    calls = []
    project_all = BinaryKnapsackSet.project_all

    def counted(self, x):
        calls.append(x)
        return project_all(self, x)

    monkeypatch.setattr(BinaryKnapsackSet, "project_all", counted)
    runs, capped, knapsack_steps, knapsack_calls = 0, 0, 0, 0
    for name in ("solve-small", "solve-knapsack"):
        inputs = workloads.generate(name, 3)
        built = workloads.build(inputs)
        for case, (hs, Q, x0, cfg) in zip(inputs["cases"], built["cases"]):
            if case["driver"] != "dr":
                continue
            calls.clear()
            held = engine.run_dr(Q, hs, x0, cfg)
            if isinstance(Q, BinaryKnapsackSet):
                knapsack_steps += len(held[0])
                knapsack_calls += len(calls)
            Q.ray_hold = lambda q, a: 0.0
            plain = engine.run_dr(Q, hs, x0, cfg)
            del Q.ray_hold
            same_decisions(hs.b, held, plain, case["family"])
            assert held[0].fingerprint == plain[0].fingerprint
            if isinstance(held[1], MaxIterations):
                # run_dr stops at the first march the scan would certify
                assert engine.detect_linear_divergence(
                    held[0].records, hs, cfg.window, cfg.eps_h, cfg.eps_cycle,
                    support=Q.min_along(hs.a)) is None, case["family"]
                capped += 1
            runs += 1
    assert runs == 326 and capped == 8
    # the reuse must not silently switch off: 110 calls for 653 steps
    assert knapsack_calls <= 0.3 * knapsack_steps


def test_benchmark_runs_decide_as_stepped(segments, stepped, same_decisions):
    # the 652 run_dr cases of the 1172 solve-small and solve-knapsack driver
    # runs at seeds 3 and 20261017 (the generic and AP runs append no
    # segment), against run_dr stepped by hand
    workloads = _bench_module("workloads")
    runs = 0
    for seed in (3, 20261017):
        for name in ("solve-small", "solve-knapsack"):
            inputs = workloads.generate(name, seed)
            built = workloads.build(inputs)
            for case, (hs, Q, x0, cfg) in zip(inputs["cases"], built["cases"]):
                if case["driver"] == "dr":
                    same_decisions(hs.b, engine.run_dr(Q, hs, x0, cfg),
                                   stepped(Q, hs, x0, cfg),
                                   (seed, case["family"]))
                    runs += 1
    assert runs == 652 and len(segments) > 150


# sha256 of the eight run_dr cases of the solve-knapsack workload at seed
# 3.  Decisions: their q and d_qH columns and decided outcome fields, the
# same as when every held step was stepped.  Columns: their x, d_xH and
# d_xL columns and outcome reprs (certificate offsets are read from x),
# which carry the closed form's rounding.
KNAPSACK_DECISIONS_SHA256 = (
    "756b3700c5d94ead25856d55b1d4f3edd80d4a9c189d8ff3d0af61e0a9e990c2")
KNAPSACK_COLUMNS_SHA256 = (
    "f257760e63979dc71a25032ce6741fdaa45de7f48ea4ca33b3860fcc012b4c8c")


def test_knapsack_workload_runs_are_pinned(decided):
    workloads = _bench_module("workloads")
    inputs = workloads.generate("solve-knapsack", 3)
    built = workloads.build(inputs)
    decisions, columns, runs = hashlib.sha256(), hashlib.sha256(), 0
    for case, (hs, Q, x0, cfg) in zip(inputs["cases"], built["cases"]):
        assert case["driver"] == "dr"
        trace, outcome = engine.run_dr(Q, hs, x0, cfg)
        for col in ("q", "d_qH"):
            decisions.update(getattr(trace, col).tobytes())
        decisions.update(repr(decided(outcome)).encode())
        for col in ("x", "d_xH", "d_xL"):
            columns.update(getattr(trace, col).tobytes())
        columns.update(repr(outcome).encode())
        runs += 1
    assert runs == 8
    assert decisions.hexdigest() == KNAPSACK_DECISIONS_SHA256
    assert columns.hexdigest() == KNAPSACK_COLUMNS_SHA256


def _bench_run(monkeypatch):
    # bench/run.py imports its siblings by name and sets thread variables
    # in os.environ; both are undone after the test
    monkeypatch.syspath_prepend(BENCH)
    monkeypatch.setattr(os, "environ", dict(os.environ))
    return _bench_module("run")


def test_rerun_lemma_trial_returns_the_drawn_instance(monkeypatch):
    # trial 7 of seed 30 is an inside trial; its steps are those of the
    # first eight trials after those of the first seven
    run = _bench_run(monkeypatch)
    steps = []

    def step(x, q, hs):
        steps.append((np.array(x), np.array(q), hs))
        return verifier.dr_step(x, q, hs)

    verifier.check_lemmas(7, DIMS, 30, step_fn=step)
    first = len(steps)
    verifier.check_lemmas(8, DIMS, 30, step_fn=step)
    drawn = steps[2 * first:]
    assert drawn
    call = {"seed": 30, "dims": list(DIMS)}
    points, a, b, x0 = run._rerun_lemma_trial(call, 7)
    hs = drawn[0][2]
    assert np.array_equal(a, hs.a) and b == hs.b
    assert np.array_equal(x0, drawn[0][0])
    Q, x = FinitePointSet(points), x0
    for sx, sq, _ in drawn:
        assert np.array_equal(x, sx)
        assert np.array_equal(Q.project_all(x)[0], sq)
        x = engine.dr_step(x, sq, hs)


@pytest.mark.parametrize("seed", [3, 20261017])
def test_verify_workload_operations_pass(monkeypatch, tmp_path, seed):
    # every run_all_suites call of the verify workload passes with the
    # trial counts bench/run.py expects (a count it does not expect is a
    # failure there), and every mutant is killed
    run = _bench_run(monkeypatch)
    workload = run.Workload("verify", seed, str(tmp_path))
    workload.build()
    done = workload.run_pass()
    assert done.failures == [] and done.inconclusive == 0
    calls = workload.inputs["verify"]
    assert done.attempted == (len(calls) * len(verifier.SUITES)
                              + len(verifier.MUTANTS))
