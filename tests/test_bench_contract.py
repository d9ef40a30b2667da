"""The parts of the program that the benchmark's traced mode relies on.

``bench/spans.py`` wraps the public entry points of every layer by name,
and ``bench/layers.py`` calls the divergence scan positionally; a change
to either interface would break ``bench/run.py --trace 1``.
"""

import importlib.util
import os

import numpy as np

import drfeas
from drfeas import engine
from drfeas.engine import Diverging, SolverConfig
from drfeas.geometry import HalfSpace
from drfeas.sets import FinitePointSet

BENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")


def _spans():
    spec = importlib.util.spec_from_file_location(
        "spans", os.path.join(BENCH, "spans.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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


def test_divergence_scan_takes_five_positional_arguments():
    # as bench/layers.py replays it: no support, so nothing is certified
    cfg = SolverConfig()
    hs = HalfSpace(np.array([0.0, 1.0]), 0.0)
    trace, _ = engine.run_dr(FinitePointSet([(0, 1)]), hs, [0.0, 1.0], cfg)
    assert engine.detect_linear_divergence(
        trace.records, hs, cfg.window, cfg.eps_h, cfg.eps_cycle) is None
