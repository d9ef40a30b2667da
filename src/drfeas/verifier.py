"""Seeded property suites for the half-space Douglas-Rachford operator.

Each check samples random instances whose preconditions hold by
construction, evaluates the operator, and asserts the corresponding
structural identity or inequality.  Checks accept the operator (``rows_fn``
or ``step_fn``) so that a deliberately broken operator (see MUTANTS) can
be injected to demonstrate the checks have power.

The one-step suites (prop1-prop4) draw the dimension of every trial
first, then all instances of one dimension as arrays, and judge them as
arrays.  They step a dimension's rows, and each of prop2's follow-ups, in
one call ``rows_fn(x, q, a, b)`` on (k, n) stacks and the k unit normals
and offsets: ``dr_step_rows``, equal to ``dr_step`` bit for bit on every
row, or a row mutant.  The lemma suite works in blocks of trials and in
three passes.  It draws every trial of a block in trial order, with the
generator calls it has always made.  It steps the never-entering (even)
trajectories in lockstep, one batch per dimension, with one ``rows_fn``
call per step on the live rows.  Then it steps the entering (odd)
trajectories one at a time in trial order, calling ``step_fn(x, q, hs)``
(``engine._dr_step``: ``dr_step`` without input checks on the points the
suite built, or its mutant) once per step, each building its
FinitePointSet through this module's global name just before its first
step, from points placed in one row pass, and searching it once per
step.  So adding an odd trial T (``check_lemmas(T + 1)`` against
``check_lemmas(T)``) only appends T's ``step_fn`` calls, and the last set
built is T's, with T's start as the first step after it; a benchmark rerun
of one trial wraps ``step_fn`` and relies on this.  The theorem suite
draws one instance at a time, and judges whether a solved run's x settles
at the step where its q repeats, with no step budget.  The lemma suite
keeps its 2000-step budget: its stepping is the operator under test
(``rows_fn``, ``step_fn`` and the mutants).
``run_all_suites`` records each suite's wall time on its report.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import HalfSpace
from .engine import (dr_step, dr_step_rows, run_dr, SolverConfig, Solved,
                     Diverging, MaxIterations, _dots, _dr_step)
from .sets import TIE_TOL, BinaryKnapsackSet, FinitePointSet, _integer

__all__ = [
    "MUTANTS",
    "PropertyReport",
    "check_dims",
    "check_seed",
    "check_trials",
    "check_lemmas",
    "check_prop1",
    "check_prop2",
    "check_prop3",
    "check_prop4",
    "check_theorems_finite",
    "mutant_killed",
    "run_all_suites",
]

TOL = 1e-9
COORD_RANGE = 10.0


@dataclass
class PropertyReport:
    """Outcome of one property suite; failures hold the suite's values."""

    property_id: str
    trials: int
    failures: list = field(default_factory=list)
    seed: int = 0
    vacuous: int = 0
    seconds: float | None = None  # wall time, when run by run_all_suites

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        out = {
            "property_id": self.property_id,
            "trials": self.trials,
            "seed": self.seed,
            "vacuous": self.vacuous,
            "passed": self.passed,
            "failures": [{k: _plain(v) for k, v in f.items()}
                         for f in self.failures[:20]],
            "failure_count": len(self.failures),
        }
        if self.seconds is not None:
            out["seconds"] = self.seconds
            out["trials_per_s"] = self.trials / self.seconds
        return out


# ---------------------------------------------------------------------------
# Deliberately broken operators.  Each suite must report failures when run
# with its mutant, otherwise the suite is vacuous.  MUTANTS maps a suite to
# (mutant name, the operator keyword arguments that inject it).

def _mutant(keep_q, shift):
    """dr_step with its case test keep_q(<a,2q-x>, b + 1e-9) and its shift
    coefficient shift(<a,x>, b, <a,q>) along a replaced, on float arrays."""
    def step(x, q, hs):
        if keep_q(float(hs.a @ (2.0 * q - x)), hs.b + 1e-9):
            return q.copy()
        return q + shift(float(hs.a @ x), hs.b, float(hs.a @ q)) * hs.a
    return step


def _row_mutant(keep_q, shift):
    """dr_step_rows with the same two replacements, on every row."""
    def step(x, q, a, b):
        keep = keep_q(_dots(a, 2.0 * q - x), b + 1e-9)
        s = shift(_dots(a, x), b, _dots(a, q))
        return np.where(keep[:, None], q, q + s[:, None] * a)
    return step


_WRONG_SIGN = _row_mutant(operator.le, lambda ax, b, aq: -(ax + b - 2.0 * aq))

MUTANTS = {
    "prop1": ("flipped-case-condition", {"rows_fn": _row_mutant(
        operator.gt, lambda ax, b, aq: ax + b - 2.0 * aq)}),
    "prop2": ("dropped-offset-term", {"rows_fn": _row_mutant(
        operator.le, lambda ax, b, aq: ax - 2.0 * aq)}),
    "prop3": ("wrong-sign-shift", {"rows_fn": _WRONG_SIGN}),
    "prop4": ("wrong-sign-shift", {"rows_fn": _WRONG_SIGN}),
    "lemmas": ("half-length-shift", {
        fn: form(operator.le, lambda ax, b, aq: 0.5 * (ax + b - 2.0 * aq))
        for fn, form in (("step_fn", _mutant), ("rows_fn", _row_mutant))}),
}


# ---------------------------------------------------------------------------
# Batch samplers.  A prop suite draws its trial dimensions once per call,
# then every instance of one dimension as arrays (rows).  Coordinates stay
# in a benign range so the identities hold to near machine precision at
# the 1e-9 tolerance.

def _groups(rng, trials, dims):
    """(n, trial indices) for each distinct dimension drawn."""
    drawn = np.asarray(dims)[rng.integers(len(dims), size=trials)]
    for n in sorted(set(dims)):
        idx = np.flatnonzero(drawn == n)
        if idx.size:
            yield int(n), idx


def _units(rng, k, n):
    """k random unit rows; a draw of norm <= 1e-6 is redrawn."""
    v = rng.normal(size=(k, n))
    while True:
        norm = _norms(v)
        bad = norm <= 1e-6
        if not bad.any():
            return v / norm[:, None]
        v[bad] = rng.normal(size=(int(bad.sum()), n))


def _halfspaces(rng, k, n):
    """k half-spaces as unit normals and offsets, rows of arrays: those of
    ``HalfSpace(a_i, b_i)`` bit for bit (``unit_normal`` per row)."""
    a, b = _units(rng, k, n), rng.uniform(-5.0, 5.0, k)
    norm = np.sqrt(_dots(a, a))
    return a / norm[:, None], b / norm


def _values(a, b, x):
    """<a_i, x_i> - b_i for each row."""
    return np.add.reduce(a * x, 1) - b


def _tangents(rng, a):
    """A random unit vector orthogonal to each row of a (dim >= 2); a draw
    whose orthogonal part has norm < 1e-6 is redrawn."""
    v = _units(rng, *a.shape)
    v -= (v * a).sum(axis=1)[:, None] * a
    norm = _norms(v)
    bad = norm < 1e-6
    v[~bad] /= norm[~bad, None]
    if bad.any():
        v[bad] = _tangents(rng, a[bad])
    return v


def _tangent_offsets(rng, a):
    """tau * t, tau ~ U(0, 3) and t a unit tangent, per row; 0 on a line."""
    if a.shape[1] < 2:
        return np.zeros_like(a)
    return rng.uniform(0.0, 3.0, len(a))[:, None] * _tangents(rng, a)


def _points_in_H(rng, a, b, on_boundary_prob):
    """A point of H per half-space, on L with probability on_boundary_prob."""
    x = rng.uniform(-COORD_RANGE, COORD_RANGE, a.shape)
    v = _values(a, b, x)
    outside = np.where(v > 0.0, v + rng.uniform(0.0, 3.0, len(a)), 0.0)
    on = rng.random(len(a)) < on_boundary_prob
    return x - np.where(on, v, outside)[:, None] * a


def _fillers(rng, x, d0, count=3):
    """count points per row of x, strictly farther than d0 from it, so a
    designated q stays nearest."""
    k, n = x.shape
    r = d0[:, None, None] + rng.uniform(0.5, 4.0, (k, count, 1))
    return x[:, None] + r * _units(rng, k * count, n).reshape(k, count, n)


def _inside(rng, a, b):
    """x in H and a designated nearest q outside H, per half-space, and
    their distances dxl and dq to the boundary L."""
    k = len(a)
    x = _points_in_H(rng, a, b, 0.15)
    dxl = np.abs(_values(a, b, x))
    # keep the step length moderate so crafted nearby points stay nearest
    # after the step
    shift = np.where(dxl > 3.0, dxl - rng.uniform(0.0, 3.0, k), 0.0)
    x = x + shift[:, None] * a
    dxl = np.abs(_values(a, b, x))
    dq = rng.uniform(0.2, 4.0, k)
    q = x + (dxl + dq)[:, None] * a + _tangent_offsets(rng, a)
    return x, q, dxl, dq


def _nearest(pts, x):
    """Nearest rows of pts (..., P, n) to x (..., n), as a mask, and the
    least squared distance; by FinitePointSet.project_all's rule: squared
    distances, d2 <= min + TIE_TOL, exact duplicate rows counted once."""
    w = pts - x[..., None, :]
    d2 = np.add.reduce(w * w, -1)
    d2min = np.minimum.reduce(d2, -1)
    mask = d2 <= d2min[..., None] + TIE_TOL
    if np.count_nonzero(mask) > d2min.size:  # a row with a tie
        keys = np.ascontiguousarray(pts).view(np.uint64)
        same = (keys[..., :, None, :] == keys[..., None, :, :]).all(axis=-1)
        mask &= ~np.tril(same, -1).any(axis=-1)
    return mask, d2min


def _norms(v):
    return np.sqrt(np.add.reduce(v * v, -1))  # np.linalg.norm(v, axis=-1)


def _fail(report, **data):
    report.failures.append(data)


def _plain(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


def _by_trial(report):
    """Failures in trial order (a suite checks one dimension at a time)."""
    report.failures.sort(key=lambda f: f["trial"])
    return report


# ---------------------------------------------------------------------------
# Half-space invariance: x in H implies every one-step image lies in H.

def check_prop1(trials=10000, dims=(1, 2, 3, 4, 5), seed=0,
                rows_fn=dr_step_rows) -> PropertyReport:
    trials, dims, seed = _checked(trials, dims, seed)
    rng = np.random.default_rng(seed)
    report = PropertyReport("prop1-halfspace-invariance", trials, seed=seed)
    for n, idx in _groups(rng, trials, dims):
        k = idx.size
        a, b = _halfspaces(rng, k, n)
        x = _points_in_H(rng, a, b, 0.1)
        pts = rng.uniform(-COORD_RANGE, COORD_RANGE, (k, 4, n))
        dup = rng.random(k) < 0.2
        pts[dup, 1] = pts[dup, 0]  # duplicate collapses, keeps sampler varied
        rows, cols = np.nonzero(_nearest(pts, x)[0])
        q = pts[rows, cols]
        z = rows_fn(x[rows], q, a[rows], b[rows])
        dist = np.maximum(_values(a[rows], b[rows], z), 0.0)
        for r in np.flatnonzero(dist > TOL):
            i = rows[r]
            _fail(report, trial=idx[i], dim=n, a=a[i], b=b[i], x=x[i], q=q[r],
                  dist=dist[r])
    return _by_trial(report)


# ---------------------------------------------------------------------------
# Case tree for x outside H with q its nearest point.  dq = d(q,L) signed
# positive outside H; per case its range, as a multiple of dx = d(x,L)
# except for case i, whose q lies inside H.

_CASES = ("i", "iia", "iibI", "iibII")
_DQ_RANGES = np.array([(0.0, 3.0), (0.05, 0.45), (1.05, 2.0), (0.55, 0.95)])


def check_prop2(trials=10000, dims=(1, 2, 3, 4, 5), seed=0,
                rows_fn=dr_step_rows) -> PropertyReport:
    trials, dims, seed = _checked(trials, dims, seed)
    rng = np.random.default_rng(seed)
    report = PropertyReport("prop2-outside-H-case-tree", trials, seed=seed)
    for n, idx in _groups(rng, trials, dims):
        k = idx.size
        case = idx % 4
        a, b = _halfspaces(rng, k, n)
        xl = _points_in_H(rng, a, b, on_boundary_prob=1.0)  # feet on L
        dx = rng.uniform(0.5, 5.0, k)
        x = xl + dx[:, None] * a
        lo, hi = _DQ_RANGES[case].T
        r = rng.uniform(lo, hi)
        dq = np.where(case == 0, -r, dx * r)
        q = x + (dq - dx)[:, None] * a + _tangent_offsets(rng, a)
        pts = np.concatenate(
            [q[:, None], _fillers(rng, x, _norms(x - q))], axis=1)
        z = rows_fn(x, q, a, b)
        aq = (a * q).sum(axis=1)
        expect = q + ((a * x).sum(axis=1) + b - 2.0 * aq)[:, None] * a
        dz = np.maximum(_values(a, b, z), 0.0)
        ok = np.where(case >= 2, _norms(z - expect), _norms(z - q)) <= TOL
        ok &= np.where(case == 2, dz <= TOL, True)
        ok &= np.where(case == 3, np.abs(dz - (dx - dq)) <= TOL, True)
        # iia: q is its own nearest point, so the follow-up applies.
        sel = np.flatnonzero(ok & (case == 1))
        z2 = rows_fn(q[sel], q[sel], a[sel], b[sel])
        pl = q[sel] - (aq[sel] - b[sel])[:, None] * a[sel]
        ok[sel] = _norms(z2 - pl) <= TOL
        # iibII: from z, while q is still a nearest point, the next step
        # enters H.
        same_q = (_nearest(pts, z)[0]
                  & (_norms(pts - q[:, None]) <= 1e-12)).any(axis=1)
        sel = np.flatnonzero(ok & (case == 3) & same_q)
        z3 = rows_fn(z[sel], q[sel], a[sel], b[sel])
        ok[sel] = _values(a[sel], b[sel], z3) <= TOL
        for i in np.flatnonzero(~ok):
            _fail(report, trial=idx[i], case=_CASES[case[i]], dim=n, a=a[i],
                  b=b[i], x=x[i], q=q[i], z=z[i], dx=dx[i], dq=dq[i])
    return _by_trial(report)


# ---------------------------------------------------------------------------
# In-H displacement identity.

def check_prop3(trials=10000, dims=(1, 2, 3, 4, 5), seed=0,
                rows_fn=dr_step_rows) -> PropertyReport:
    trials, dims, seed = _checked(trials, dims, seed)
    rng = np.random.default_rng(seed)
    report = PropertyReport("prop3-inside-H-displacement", trials, seed=seed)
    for n, idx in _groups(rng, trials, dims):
        a, b = _halfspaces(rng, idx.size, n)
        x, q, _, _ = _inside(rng, a, b)
        z = rows_fn(x, q, a, b)
        dlx, dlq, dlz = (np.abs(_values(a, b, v)) for v in (x, q, z))
        expect = q - (dlx + 2.0 * dlq)[:, None] * a
        ok = ((_norms(z - expect) <= TOL)
              & (np.abs(dlz - (dlq + dlx)) <= TOL))
        for i in np.flatnonzero(~ok):
            _fail(report, trial=idx[i], dim=n, a=a[i], b=b[i], x=x[i], q=q[i],
                  z=z[i])
    return _by_trial(report)


# ---------------------------------------------------------------------------
# Strict decrease of the auxiliary distance when the nearest point changes.

def check_prop4(trials=10000, dims=(2, 3, 4, 5), seed=0,
                rows_fn=dr_step_rows) -> PropertyReport:
    """Inequality linking successive distinct auxiliary points.

    Non-vacuous instances (a new nearest point p != q appears after the
    step) are crafted directly; a fraction of trials is left uncrafted to
    exercise and count the vacuous branch.  Its mutant, like every
    suite's, is a broken operator: the wrong-sign shift of prop3.  Every
    crafted instance has x in H and q outside it, so prop4 barely sees a
    flipped case, a half-length step or a dropped offset: prop1-prop3
    own those faults.
    """
    trials, dims, seed = _checked(trials, dims, seed)
    rng = np.random.default_rng(seed)
    report = PropertyReport("prop4-auxiliary-strict-decrease", trials, seed=seed)
    for n, idx in _groups(rng, trials, dims):
        if n < 2:
            # on a line a distinct new nearest point at the required
            # distances cannot exist, so the claim has no content
            report.vacuous += idx.size
            continue
        k = idx.size
        a, b = _halfspaces(rng, k, n)
        x, q, dxl, dq = _inside(rng, a, b)
        # Place p = q + delta*t_hat - mu*a so that p is outside H, farther
        # from x than q, but strictly nearer to the next iterate z
        # (feasible because ||z-q|| exceeds ||x-q||'s normal gap by
        # 2 d(q,L)).  An uncrafted trial's p repeats q and counts once.
        crafted = rng.random(k) >= 0.3
        mu = dq * rng.uniform(0.2, 0.8, k)
        A = mu * (2.0 * (dxl + dq) - mu)
        B = mu * (2.0 * (dxl + 2.0 * dq) - mu)
        delta = np.sqrt(0.5 * (A + B))
        t_hat = q - x - (dxl + dq)[:, None] * a
        tn = _norms(t_hat)
        flat = tn <= 1e-9
        t_hat[~flat] /= tn[~flat, None]
        t_hat[flat] = _tangents(rng, a[flat])
        p = q + delta[:, None] * t_hat - mu[:, None] * a
        p[~crafted] = q[~crafted]
        pts = np.concatenate(
            [q[:, None], p[:, None], _fillers(rng, x, _norms(x - q) + 6.0)],
            axis=1)
        same_q = _norms(pts - q[:, None]) <= 1e-12
        # crafted geometry degenerate: skip rather than fail
        live = np.flatnonzero((_nearest(pts, x)[0] & same_q).any(axis=1))
        z = rows_fn(x[live], q[live], a[live], b[live])
        pts, same_q = pts[live], same_q[live]
        near, d2 = _nearest(pts, z)
        dh = np.maximum((pts * a[live, None]).sum(axis=2) - b[live, None], 0.0)
        new = near & (dh > TOL) & ~same_q
        report.vacuous += int((~new.any(axis=1)).sum())
        rhs = dh[:, 0] + np.sqrt(d2)
        lhs = dh + _norms(z - q[live])[:, None]
        bad = new & ((lhs > rhs[:, None] + TOL) | ~(dh < dh[:, :1]))
        for r, j in zip(*np.nonzero(bad)):
            i = live[r]
            _fail(report, trial=idx[i], dim=n, a=a[i], b=b[i], x=x[i], q=q[i],
                  p=pts[r, j], z=z[r], lhs=lhs[r, j], rhs=rhs[r])
    return _by_trial(report)


# ---------------------------------------------------------------------------
# Trace-level lemmas, checked on raw iteration loops (no stopping rule).
# The lemma suite draws a block of trials before it steps any of them; the
# theorem suite draws one instance at a time.

_BLOCK = 512  # lemma trials drawn at once; bounds the suite's memory


def _unit(rng, n):
    while True:
        v = rng.normal(size=n)
        norm = math.sqrt(v.dot(v))     # np.linalg.norm(v), bit for bit
        if norm > 1e-6:
            return v / norm


def _halfspace(rng, n) -> HalfSpace:
    return HalfSpace(_unit(rng, n), float(rng.uniform(-5.0, 5.0)))


def check_lemmas(trials=10000, dims=(1, 2, 3, 4, 5), seed=0,
                 step_fn=_dr_step, rows_fn=dr_step_rows) -> PropertyReport:
    """Monotonicity along whole trajectories.

    Never-entering trajectories (even trials): d(x_k,L) strictly
    decreases, the sandwich d(q,H) < d(x,H) < 2 d(q,H) holds, and the
    one-step decrease equals d(q,H).  Once both x_k and q_k are inside H
    (odd trials): all later q_j stay inside, d(q_j,L) is nondecreasing
    with equality only at a repeat, and x_k is eventually constant.
    ``rows_fn`` steps the never-entering trajectories, ``step_fn`` the
    entering ones.
    """
    trials, dims, seed = _checked(trials, dims, seed)
    rng = np.random.default_rng(seed)
    report = PropertyReport("lemmas-trajectory-monotonicity", trials, seed=seed)
    for start in range(0, trials, _BLOCK):
        outside, inside = {}, []
        for t in range(start, min(start + _BLOCK, trials)):
            n = int(dims[int(rng.integers(len(dims)))])
            if t % 2 == 0:
                # a rotation, a scale and a shift of the geometric family
                outside.setdefault(n, []).append(
                    (t, rng.normal(size=(n, n)), rng.uniform(1.0, 3.0),
                     rng.uniform(-5.0, 5.0, n)))
            else:
                inside.append((t, n, *_inside_draws(rng, n)))
        for n, draws in sorted(outside.items()):
            _outside_trajectories(report, n, *zip(*draws), rows_fn)
        for t, n, *draws in inside:
            data = _inside_trajectory(report, *draws, step_fn)
            if data:
                _fail(report, trial=t, dim=n, **data)
    return _by_trial(report)


def _first_nearest(pts, x):
    """The row index of ``FinitePointSet(pts).project_all(x)[0]`` in pts:
    dropping a repeated row never drops its first copy."""
    w = pts - x
    d2 = np.add.reduce(w * w, 1).tolist()
    tie = min(d2) + TIE_TOL
    for j, v in enumerate(d2):
        if v <= tie:
            return j


def _outside_trajectories(report, n, trials, g, s, c, rows_fn):
    """Ten lockstep steps of never-entering trajectories in dimension n.

    Trial i is the 1-D family Q = {0} and {2/3^j : j < 25}, x0 = 1 and
    H = {x <= 0}, scaled by s[i], turned onto a = the first column of the
    Q factor of g[i] and shifted by c[i].  A trial leaves the batch at its
    first failure.  Dimensions are batched apart: zero padding to a common
    one changes the summation order of the row sums from 8 columns on.
    Each step of the live trials is one call ``rows_fn(x, q, a, b)``, on
    the batch's own arrays while all are live.  One mask before the call
    and one after find a failure; only then is its claim named.
    """
    k, live = len(trials), np.ones(len(trials), bool)
    a = np.ascontiguousarray(np.linalg.qr(np.array(g))[0][:, :, 0])
    c = np.array(c)
    # HalfSpace(a_i, <a_i, c_i>)'s unit normal and offset, bit for bit
    norm = np.sqrt(_dots(a, a))
    ha, hb = a / norm[:, None], _dots(a, c) / norm
    s = np.array(s)[:, None]
    x = s * a + c
    pts = np.concatenate([c[:, None], (s * (2.0 / 3.0 ** np.arange(25)))
                          [:, :, None] * a[:, None] + c[:, None]], axis=1)

    def fail(i, reason, **data):
        live[i] = False
        _fail(report, trial=trials[i], dim=n, reason=reason, **data)

    # Python's max(0.0, v), which reads NaN as 0, is np.fmax(v, 0.0)
    vx, prev_dxl, rows = _dots(ha, x) - hb, np.inf, np.arange(k)
    dxh = np.fmax(vx, 0.0)
    # stop well above the tie-tolerance scale, where the limit point would
    # legitimately enter the tie set and the trajectory would enter H
    for _ in range(10):
        q = pts[rows, _nearest(pts, x)[0].argmax(axis=1)]
        dqh = np.fmax(_dots(ha, q) - hb, 0.0)
        dxl = np.abs(vx)
        held = ((dxh > TOL) & (dqh > TOL) & (dqh < dxh)
                & (dxh < 2.0 * dqh + TOL) & (dxl < prev_dxl))
        if not held[live].all():
            for i in np.flatnonzero(live & ~((dxh > TOL) & (dqh > TOL))):
                fail(i, "entered-H", x=x[i], q=q[i])
            for i in np.flatnonzero(live & ~((dqh < dxh) & (dxh < 2.0 * dqh + TOL))):
                fail(i, "sandwich", x=x[i], q=q[i])
            for i in np.flatnonzero(live & ~(dxl < prev_dxl)):
                fail(i, "not-decreasing", x=x[i])
            if not live.any():
                return
        if live.all():
            nxt = rows_fn(x, q, ha, hb)
        else:
            nxt = x.copy()
            nxt[live] = rows_fn(x[live], q[live], ha[live], hb[live])
        vnh = _dots(ha, nxt) - hb
        dnh = np.fmax(vnh, 0.0)
        held = np.isfinite(vnh) & (np.abs(dnh - (dxh - dqh)) <= TOL)
        if not held[live].all():
            for i in np.flatnonzero(live & ~np.isfinite(vnh)):
                fail(i, "non-finite-step", x=x[i], q=q[i], next=nxt[i])
            for i in np.flatnonzero(live & (np.abs(dnh - (dxh - dqh)) > TOL)):
                fail(i, "decrease-identity", x=x[i], q=q[i], next=nxt[i])
            if not live.any():
                return
        x, vx, dxh, prev_dxl = nxt, vnh, dnh, dxl


def _inside_draws(rng, n):
    """An entering trial's draws: H's normal and offset, two points for L
    with the depth each is pushed into H by (None, with probability 0.15:
    it stays on L), three uniform points and the start."""
    a, b = _unit(rng, n), float(rng.uniform(-5.0, 5.0))
    on_L = [(rng.uniform(-COORD_RANGE, COORD_RANGE, n),
             rng.uniform(0.05, 8.0) if rng.random() >= 0.15 else None)
            for _ in range(2)]
    return (a, b, on_L, rng.uniform(-COORD_RANGE, COORD_RANGE, (3, n)),
            rng.uniform(-COORD_RANGE, COORD_RANGE, n))


def _inside_trajectory(report, a, b, on_L, far, x, step_fn):
    """The in-H claims along one trajectory, once it has entered H (within
    60 steps; a trial that does not is vacuous).  Failure data, or None."""
    hs = HalfSpace(a, b)
    a, b = hs.a, hs.b
    # The points for L go onto L, then into H unless they stay on it.  A
    # point at a tiny depth would need an unbounded budget (settling takes
    # about gap / d(q,L) steps), so the two regimes cover both resolutions
    # of the eventually-constant claim; a uniform point less than 0.05
    # deep in H goes onto L.  _dots gives each row's float(a.dot(p)).
    pts = np.concatenate(([p for p, _ in on_L], far))
    v = _dots(a, pts) - b
    moved = (-0.05 < v) & (v < 0.0)
    moved[:2] = True
    pts = np.where(moved[:, None], pts - v[:, None] * a, pts)
    for p, (_, depth) in zip(pts, on_L):
        if depth is not None:
            p -= depth * a
    pts = FinitePointSet(pts).points
    vals = (_dots(a, pts) - b).tolist()
    # not v > TOL is max(0.0, v) <= TOL; a NaN step is caught first
    vx = float(a.dot(x)) - b
    for _ in range(60):
        j = _first_nearest(pts, x)
        if not (vx > TOL or vals[j] > TOL):
            break
        q = pts[j]
        nxt = step_fn(x, q, hs)
        vx = float(a.dot(nxt)) - b
        if not math.isfinite(vx):
            return {"reason": "non-finite-step", "x": x, "q": q, "next": nxt}
        x = nxt
    else:
        report.vacuous += 1
        return None
    # Settling can take on the order of gap / d(q,L) steps, so the budget
    # is generous; the claims are checked at every step along the way.  A
    # repeated index is a repeated q, at distance 0 with an equal d(q,L).
    prev_j = j
    for _ in range(2000):
        q = pts[j]
        if vals[j] > TOL:
            return {"reason": "q-left-H", "x": x, "q": q}
        dql = abs(vals[j])
        if j != prev_j:
            if dql < prev_dql - TOL:
                return {"reason": "dqL-decreased", "x": x, "q": q}
            d = q - pts[prev_j]
            if (abs(dql - prev_dql) <= 1e-12) != (math.sqrt(d.dot(d)) <= 1e-12):
                return {"reason": "equality-iff-repeat", "x": x, "q": q}
        prev_dql, prev_j = dql, j
        nxt = step_fn(x, q, hs)
        d = nxt - x
        dd = d.dot(d)
        if not math.isfinite(dd):
            return {"reason": "non-finite-step", "x": x, "q": q, "next": nxt}
        if math.sqrt(dd) <= 1e-12:
            return None
        x = nxt
        j = _first_nearest(pts, x)
    return {"reason": "x-not-eventually-constant", "x": x}


# ---------------------------------------------------------------------------
# Behavioral agreement with brute-force feasibility oracles.

def _finite_oracle(Q: FinitePointSet, hs: HalfSpace):
    """The points of Q in H, and min over Q of <a,p>."""
    feasible = [p for p in Q.points if hs.value(p) <= 1e-12]
    return feasible, float((Q.points @ hs.a).min())


def _knapsack_oracle(ks: BinaryKnapsackSet, hs: HalfSpace):
    m = ks.dim
    shifts = np.arange(m - 1, -1, -1)
    corners = ((np.arange(1 << m)[:, None] >> shifts) & 1).astype(float)
    # Weights summed row by row, as BinaryKnapsackSet defines feasibility.
    in_q = np.sum(corners * ks.c, axis=1) >= ks.threshold
    along = corners @ hs.a
    return list(corners[in_q & (along - hs.b <= 1e-12)]), float(along[in_q].min())


def _certificate_valid(outcome, hs) -> bool:
    """The march steps by d(q,L), and its support witness holds: m > b
    with <a,q_fixed> = m, checked from Q's m and H alone.  Tolerances are
    relative to the scale of m and b, and of the offsets."""
    cert, m = outcome.certificate, outcome.support
    tol = TOL * max(1.0, abs(m), abs(hs.b))
    if not (m - hs.b > tol and abs(float(hs.a @ cert.q_fixed) - m) <= tol):
        return False
    inc = abs(hs.value(cert.q_fixed))
    if abs(cert.increment - inc) > tol:
        return False
    offs = np.asarray(cert.offsets)
    step_tol = 1e-6 * max(1.0, float(np.abs(offs).max(initial=0.0)))
    return bool(np.all(np.abs(np.diff(offs) - inc) <= step_tol))


def check_theorems_finite(trials=100, dims=(1, 2, 3, 4, 5),
                          seed=0) -> PropertyReport:
    """Solved/Diverging outcomes versus exhaustive feasibility oracles.

    ``trials`` random finite sets, then ``trials`` binary-threshold instances.
    Feasible instances must finish Solved with an oracle-verified point,
    and x must then settle (judged where q repeats, with no step budget);
    infeasible ones must produce a valid divergence certificate whose
    support equals the oracle's own min over Q of <a,p>.  Runs hitting
    the iteration cap are counted as vacuous (inconclusive).
    """
    trials, dims, seed = _checked(trials, dims, seed)
    rng = np.random.default_rng(seed)
    report = PropertyReport("theorems-oracle-agreement", 2 * trials, seed=seed)
    cfg = SolverConfig(max_iter=10000)
    for t in range(trials):
        n = int(dims[int(rng.integers(len(dims)))])
        hs = _halfspace(rng, n)
        Q = FinitePointSet(rng.uniform(-COORD_RANGE, COORD_RANGE,
                                       (int(rng.integers(1, 8)), n)))
        x0 = rng.uniform(-COORD_RANGE, COORD_RANGE, n)
        _judge(report, t, Q, hs, x0, *_finite_oracle(Q, hs), cfg)
    for t in range(trials):
        m = int(rng.integers(2, 13))
        c = rng.uniform(0.0, 3.0, m)
        lam = float(rng.uniform(0.0, float(c.sum())))
        ks = BinaryKnapsackSet(c, lam)
        a = _unit(rng, m)
        corner = rng.integers(0, 2, m).astype(float)
        hs = HalfSpace(a, float(a @ corner) + float(rng.uniform(-2.0, 2.0)))
        x0 = rng.uniform(-2.0, 3.0, m)
        _judge(report, trials + t, ks, hs, x0, *_knapsack_oracle(ks, hs), cfg)
    return report


def _judge(report, t, Q, hs, x0, feasible, support, cfg):
    trace, outcome = run_dr(Q, hs, x0, cfg)
    if isinstance(outcome, MaxIterations):
        report.vacuous += 1
        return
    if feasible:
        ok = (isinstance(outcome, Solved)
              and any(np.linalg.norm(outcome.q - p) <= TOL for p in feasible))
        if ok:
            ok = _x_settles_after(trace, Q, hs)
    else:
        ok = (isinstance(outcome, Diverging)
              and _certificate_valid(outcome, hs)
              and abs(outcome.support - support) <= TOL)
    if not ok:
        _fail(report, trial=t, a=hs.a, b=hs.b, x0=x0,
              outcome=type(outcome).__name__,
              feasible_count=len(feasible))


def _x_settles_after(trace, Q, hs) -> bool:
    """Continue a solved run until its q repeats; no q may leave H or come
    back after a handover, so a finite Q ends the loop.  The repeated q is
    nearest to x on its ray q - λa; with <a,q> <= b each further step moves
    x toward q by d(q,L) or fixes it, so q stays nearest and x settles."""
    x, taken = trace.x[-1], []
    while True:
        q = Q.project_all(x)[0]
        if hs.distance(q) > TOL:
            return False
        if any(np.array_equal(q, p) for p in taken):
            return np.array_equal(q, taken[-1]) and hs.value(q) <= 0.0
        taken.append(q)
        x = dr_step(x, q, hs)


# ---------------------------------------------------------------------------
# Suite registry and mutation testing.

SUITES = {
    "prop1": check_prop1,
    "prop2": check_prop2,
    "prop3": check_prop3,
    "prop4": check_prop4,
    "lemmas": check_lemmas,
    "theorems": check_theorems_finite,
}


def mutant_killed(suite_id: str, trials=300, seed=0) -> bool:
    """Run a suite against its documented mutant; True if failures appear.
    The suite checks ``trials`` and ``seed``."""
    if suite_id not in MUTANTS:
        raise ValueError(f"no mutant for suite {suite_id!r}; the suites with "
                         f"one are {', '.join(MUTANTS)}")
    _, inject = MUTANTS[suite_id]
    return not SUITES[suite_id](trials=trials, seed=seed, **inject).passed


def check_dims(dims) -> tuple[int, ...]:
    """``dims`` as a tuple; ValueError unless each is an integer >= 1."""
    dims = tuple(_integer(d, "dimensions") for d in dims)
    if not dims or min(dims) < 1:
        raise ValueError(f"dimensions must be at least 1, got {list(dims)}")
    return dims


def check_trials(trials) -> int:
    """``trials`` as an int; ValueError unless it is an integer >= 0."""
    trials = _integer(trials, "trial counts")
    if trials < 0:
        raise ValueError(f"trial counts must be at least 0, got {trials}")
    return trials


def check_seed(seed) -> int:
    """``seed`` as an int; ValueError unless it is an integer >= 0."""
    seed = _integer(seed, "the seed")
    if seed < 0:
        raise ValueError(f"the seed must be at least 0, got {seed}")
    return seed


def _checked(trials, dims, seed):
    """A suite's arguments through check_trials, check_dims and check_seed."""
    return check_trials(trials), check_dims(dims), check_seed(seed)


def run_all_suites(trials=10000, dims=(1, 2, 3, 4, 5), seed=0,
                   oracle_trials=100) -> list[PropertyReport]:
    trials, dims, seed = _checked(trials, dims, seed)
    oracle_trials = check_trials(oracle_trials)
    # prop4 has content only for n >= 2; with no such dims all its trials
    # are drawn from the given ones, and count as vacuous
    return [
        _timed(check_prop1, trials, dims, seed),
        _timed(check_prop2, trials, dims, seed),
        _timed(check_prop3, trials, dims, seed),
        _timed(check_prop4, trials, tuple(d for d in dims if d >= 2) or dims,
               seed),
        _timed(check_lemmas, trials, dims, seed),
        _timed(check_theorems_finite, oracle_trials, dims, seed),
    ]


def _timed(suite, *args, **kwargs) -> PropertyReport:
    t0 = time.perf_counter()
    report = suite(*args, **kwargs)
    report.seconds = time.perf_counter() - t0
    return report
