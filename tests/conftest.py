"""What two runs of one input must share when x is rounded differently.

``run_dr`` appends a held segment in closed form, x_j = q - lam_j*a with
lam_j rounded once, where a step-by-step run rounds <a,x> at every step.
Every decision must be the same; x and the x distances may differ by the
rounding ``column_bound`` allows.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from drfeas import engine
from drfeas.engine import (NORM_CAP, WITNESS_TOL, DegenerateProjection,
                           DivergenceCertificate, Diverging, MaxIterations,
                           Solved, SolverConfig, dr_step)
from drfeas.sets import DegenerateProjectionError

EPS = 2.0 ** -53


def decisions(outcome) -> tuple:
    """The outcome's type and the fields the run decides: all of them but
    the certificate's offsets, which are read from the x column."""
    if isinstance(outcome, Diverging):
        cert = outcome.certificate
        return ("Diverging", cert.q_fixed.tobytes(), cert.increment,
                cert.start_index, len(cert.offsets), outcome.support)
    if isinstance(outcome, Solved):
        return ("Solved", outcome.q.tobytes(), outcome.iterations)
    return (repr(outcome),)


def column_bound(b: float, trace) -> np.ndarray:
    """Per row k, c * sum over rows i <= k of (|q_i| + |x_i| + |b|), c =
    8(n + 2) eps.  Each step rounds x and <a,x> - b within c(|q| + |x| +
    |b|), and a difference in x moves along a without growing, so the
    rows of two runs with the same decisions differ by at most the sum,
    in x and in d_xH and d_xL."""
    c = 8 * (trace.x.shape[1] + 2) * EPS
    return c * np.cumsum(np.linalg.norm(trace.q, axis=1)
                         + np.linalg.norm(trace.x, axis=1) + abs(b))


def assert_same_decisions(b, one, two, what=None):
    """Runs (trace, outcome) ``one`` and ``two`` of one input with
    constraint offset ``b``: the same step count, q and d_qH columns, bit
    for bit, and decisions; x, d_xH and d_xL within ``column_bound``.  A
    trace here is anything with the five columns of ``Trace``."""
    (t1, o1), (t2, o2) = one, two
    assert t1.d_qH.size == t2.d_qH.size, what
    for col in ("q", "d_qH"):
        one_col, two_col = getattr(t1, col), getattr(t2, col)
        assert one_col.tobytes() == two_col.tobytes(), (what, col)
    assert decisions(o1) == decisions(o2), what
    bound = column_bound(b, t2)
    assert np.all(np.linalg.norm(t1.x - t2.x, axis=1) <= bound), (what, "x")
    for col in ("d_xH", "d_xL"):
        gap = np.abs(getattr(t1, col) - getattr(t2, col))
        assert np.all(gap <= bound), (what, col)


def stepped_run(Q, hs, x0, cfg):
    """``run_dr`` by hand, one step at a time: q = project_all(x)[0], the
    stop rule, the march, ``max_iter`` and the norm cap in run_dr's order,
    then ``dr_step``.  Returns (columns, outcome)."""
    a, b, eps_h = hs.a, hs.b, cfg.eps_h
    x, rows, m, length = np.array(x0, dtype=float), [], None, 0
    for k in itertools.count():
        try:
            q = Q.project_all(x)[0]
        except DegenerateProjectionError:
            outcome = DegenerateProjection(k)
            break
        vx, aq = float(a.dot(x)) - b, float(a.dot(q))
        d_xH, d_qH = max(0.0, vx), max(0.0, aq - b)
        rows.append((x, q, d_xH, d_qH, abs(vx)))
        if d_qH <= eps_h:
            outcome = Solved(q, k)
            break
        if m is None and d_xH <= eps_h:
            m = Q.min_along(a)
        witness = (m is not None and d_xH <= eps_h
                   and aq - m <= WITNESS_TOL * max(1.0, abs(m)))
        if witness and length >= SolverConfig.window and m > b:
            offsets = tuple(float(a @ (q - row[0])) for row in rows[-length:])
            outcome = Diverging(DivergenceCertificate(q, d_qH, k - length,
                                                      offsets), m)
            break
        length = length + 1 if witness else 0
        if k >= cfg.max_iter:
            outcome = MaxIterations(d_qH)
            break
        if np.linalg.norm(x) > NORM_CAP:
            outcome = MaxIterations(d_qH, norm_capped=True)
            break
        x = dr_step(x, q, hs, eps_h)
    x, q, d_xH, d_qH, d_xL = ([np.array(col) for col in zip(*rows)]
                              or [np.zeros(0)] * 5)
    return SimpleNamespace(x=x.reshape(-1, a.size), q=q.reshape(-1, a.size),
                           d_xH=d_xH, d_qH=d_qH, d_xL=d_xL), outcome


@pytest.fixture
def segments(monkeypatch):
    """The (first, resumed) steps of each segment run_dr appends in closed
    form while the test runs: steps first to resumed - 1."""
    appended, segment = [], engine._HalfSpaceSplit._segment

    def counted(strategy, k, x, trace):
        resumed = segment(strategy, k, x, trace)
        if resumed[0] > k:
            appended.append((k, resumed[0]))
        return resumed

    monkeypatch.setattr(engine._HalfSpaceSplit, "_segment", counted)
    return appended


@pytest.fixture
def stepped():
    """``stepped_run``, the reference for run_dr's closed-form segments."""
    return stepped_run


@pytest.fixture
def same_decisions():
    """``assert_same_decisions``, for the test files that compare runs."""
    return assert_same_decisions


@pytest.fixture
def decided():
    """``decisions``, for the test files that pin runs."""
    return decisions
