"""Seeded property suites for the half-space Douglas-Rachford operator.

Each check samples random instances whose preconditions hold by
construction, evaluates the operator, and asserts the corresponding
structural identity or inequality.  Checks accept a ``step_fn`` so that a
deliberately broken operator (see MUTANTS) can be injected to demonstrate
the checks have power.

The one-step suites (prop1-prop4) draw the dimension of every trial
first, then all instances of one dimension as arrays, and judge them as
arrays; the operator itself is still called once per instance, as
``step_fn(x, q, hs)`` on that instance's HalfSpace.  The lemma and theorem
suites draw one instance at a time.  ``run_all_suites`` records each
suite's wall time on its report.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import HalfSpace, as_point
from .engine import dr_step, run_dr, SolverConfig, Solved, Diverging, MaxIterations
from .sets import TIE_TOL, BinaryKnapsackSet, FinitePointSet

__all__ = [
    "MUTANTS",
    "PropertyReport",
    "check_dims",
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
    """Outcome of one property suite."""

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
            "failures": self.failures[:20],
            "failure_count": len(self.failures),
        }
        if self.seconds is not None:
            out["seconds"] = self.seconds
            out["trials_per_s"] = self.trials / self.seconds
        return out


# ---------------------------------------------------------------------------
# Deliberately broken operators.  Each suite must report failures when run
# with its mutant, otherwise the suite is vacuous.  MUTANTS maps a suite to
# (mutant name, the keyword arguments that inject it).

def _mutant(keep_q, shift):
    """dr_step with its case test keep_q(<a,2q-x>, b + eps_h) and its shift
    coefficient shift(<a,x>, b, <a,q>) along a replaced."""
    def step(x, q, hs, eps_h=1e-9):
        x, q, a, b = as_point(x), as_point(q), hs.a, hs.b
        if keep_q(float(a @ (2.0 * q - x)), b + eps_h):
            return q.copy()
        return q + shift(float(a @ x), b, float(a @ q)) * a
    return step


MUTANTS = {
    "prop1": ("flipped-case-condition", {"step_fn": _mutant(
        operator.gt, lambda ax, b, aq: ax + b - 2.0 * aq)}),
    "prop2": ("dropped-offset-term", {"step_fn": _mutant(
        operator.le, lambda ax, b, aq: ax - 2.0 * aq)}),
    "prop3": ("wrong-sign-shift", {"step_fn": _mutant(
        operator.le, lambda ax, b, aq: -(ax + b - 2.0 * aq))}),
    "prop4": ("dropped-slack-term", {"drop_slack_term": True}),
    "lemmas": ("half-length-shift", {"step_fn": _mutant(
        operator.le, lambda ax, b, aq: 0.5 * (ax + b - 2.0 * aq))}),
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
    """k half-spaces, and their unit normals and offsets as arrays."""
    hss = [HalfSpace(a, b) for a, b in zip(_units(rng, k, n),
                                          rng.uniform(-5.0, 5.0, k))]
    return hss, np.array([hs.a for hs in hss]), np.array([hs.b for hs in hss])


def _values(a, b, x):
    """<a_i, x_i> - b_i for each row."""
    return (a * x).sum(axis=1) - b


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
    d2 = ((pts - x[..., None, :]) ** 2).sum(axis=-1)
    d2min = d2.min(axis=-1)
    mask = d2 <= d2min[..., None] + TIE_TOL
    if np.count_nonzero(mask) > d2min.size:  # a row with a tie
        keys = np.ascontiguousarray(pts).view(np.uint64)
        same = (keys[..., :, None, :] == keys[..., None, :, :]).all(axis=-1)
        mask &= ~np.tril(same, -1).any(axis=-1)
    return mask, d2min


def _steps(step_fn, x, q, hss):
    """step_fn(x_i, q_i, hs_i) for each row, stacked like x."""
    z = [step_fn(*args) for args in zip(x, q, hss)]
    return np.array(z).reshape(x.shape)


def _norms(v):
    return np.linalg.norm(v, axis=-1)


def _fail(report, **data):
    report.failures.append({k: _plain(v) for k, v in data.items()})


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
                step_fn=dr_step) -> PropertyReport:
    rng = np.random.default_rng(seed)
    report = PropertyReport("prop1-halfspace-invariance", trials, seed=seed)
    for n, idx in _groups(rng, trials, dims):
        k = idx.size
        hss, a, b = _halfspaces(rng, k, n)
        x = _points_in_H(rng, a, b, 0.1)
        pts = rng.uniform(-COORD_RANGE, COORD_RANGE, (k, 4, n))
        dup = rng.random(k) < 0.2
        pts[dup, 1] = pts[dup, 0]  # duplicate collapses, keeps sampler varied
        rows, cols = np.nonzero(_nearest(pts, x)[0])
        q = pts[rows, cols]
        z = _steps(step_fn, x[rows], q, [hss[i] for i in rows])
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
                step_fn=dr_step) -> PropertyReport:
    rng = np.random.default_rng(seed)
    report = PropertyReport("prop2-outside-H-case-tree", trials, seed=seed)
    for n, idx in _groups(rng, trials, dims):
        k = idx.size
        case = idx % 4
        hss, a, b = _halfspaces(rng, k, n)
        xl = _points_in_H(rng, a, b, on_boundary_prob=1.0)  # feet on L
        dx = rng.uniform(0.5, 5.0, k)
        x = xl + dx[:, None] * a
        lo, hi = _DQ_RANGES[case].T
        r = rng.uniform(lo, hi)
        dq = np.where(case == 0, -r, dx * r)
        q = x + (dq - dx)[:, None] * a + _tangent_offsets(rng, a)
        pts = np.concatenate(
            [q[:, None], _fillers(rng, x, _norms(x - q))], axis=1)
        z = _steps(step_fn, x, q, hss)
        aq = (a * q).sum(axis=1)
        expect = q + ((a * x).sum(axis=1) + b - 2.0 * aq)[:, None] * a
        dz = np.maximum(_values(a, b, z), 0.0)
        ok = np.where(case >= 2, _norms(z - expect), _norms(z - q)) <= TOL
        ok &= np.where(case == 2, dz <= TOL, True)
        ok &= np.where(case == 3, np.abs(dz - (dx - dq)) <= TOL, True)
        # iia: q is its own nearest point, so the follow-up applies.
        sel = np.flatnonzero(ok & (case == 1))
        z2 = _steps(step_fn, q[sel], q[sel], [hss[i] for i in sel])
        pl = q[sel] - (aq[sel] - b[sel])[:, None] * a[sel]
        ok[sel] = _norms(z2 - pl) <= TOL
        # iibII: from z, while q is still a nearest point, the next step
        # enters H.
        same_q = (_nearest(pts, z)[0]
                  & (_norms(pts - q[:, None]) <= 1e-12)).any(axis=1)
        sel = np.flatnonzero(ok & (case == 3) & same_q)
        z3 = _steps(step_fn, z[sel], q[sel], [hss[i] for i in sel])
        ok[sel] = _values(a[sel], b[sel], z3) <= TOL
        for i in np.flatnonzero(~ok):
            _fail(report, trial=idx[i], case=_CASES[case[i]], dim=n, a=a[i],
                  b=b[i], x=x[i], q=q[i], z=z[i], dx=dx[i], dq=dq[i])
    return _by_trial(report)


# ---------------------------------------------------------------------------
# In-H displacement identity.

def check_prop3(trials=10000, dims=(1, 2, 3, 4, 5), seed=0,
                step_fn=dr_step) -> PropertyReport:
    rng = np.random.default_rng(seed)
    report = PropertyReport("prop3-inside-H-displacement", trials, seed=seed)
    for n, idx in _groups(rng, trials, dims):
        hss, a, b = _halfspaces(rng, idx.size, n)
        x, q, _, _ = _inside(rng, a, b)
        z = _steps(step_fn, x, q, hss)
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

def check_prop4(trials=10000, dims=(2, 3, 4, 5), seed=0, step_fn=dr_step,
                drop_slack_term=False) -> PropertyReport:
    """Inequality linking successive distinct auxiliary points.

    Non-vacuous instances (a new nearest point p != q appears after the
    step) are crafted directly; a fraction of trials is left uncrafted to
    exercise and count the vacuous branch.  ``drop_slack_term`` removes
    the d(z,Q) term from the right-hand side, a deliberately false variant
    used as this suite's mutant.
    """
    rng = np.random.default_rng(seed)
    report = PropertyReport("prop4-auxiliary-strict-decrease", trials, seed=seed)
    for n, idx in _groups(rng, trials, dims):
        if n < 2:
            # on a line a distinct new nearest point at the required
            # distances cannot exist, so the claim has no content
            report.vacuous += idx.size
            continue
        k = idx.size
        hss, a, b = _halfspaces(rng, k, n)
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
        z = _steps(step_fn, x[live], q[live], [hss[i] for i in live])
        pts, same_q = pts[live], same_q[live]
        near, d2 = _nearest(pts, z)
        dh = np.maximum((pts * a[live, None]).sum(axis=2) - b[live, None], 0.0)
        new = near & (dh > TOL) & ~same_q
        report.vacuous += int((~new.any(axis=1)).sum())
        rhs = dh[:, 0] + (0.0 if drop_slack_term else np.sqrt(d2))
        lhs = dh + _norms(z - q[live])[:, None]
        bad = new & ((lhs > rhs[:, None] + TOL) | ~(dh < dh[:, :1]))
        for r, j in zip(*np.nonzero(bad)):
            i = live[r]
            _fail(report, trial=idx[i], dim=n, a=a[i], b=b[i], x=x[i], q=q[i],
                  p=pts[r, j], z=z[r], lhs=lhs[r, j], rhs=rhs[r])
    return _by_trial(report)


# ---------------------------------------------------------------------------
# Trace-level lemmas, checked on raw iteration loops (no stopping rule).
# The lemma and theorem suites draw one instance at a time.

def _unit(rng, n):
    while True:
        v = rng.normal(size=n)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            return v / norm


def _halfspace(rng, n) -> HalfSpace:
    return HalfSpace(_unit(rng, n), float(rng.uniform(-5.0, 5.0)))


def _scaled_triadic_instance(rng, n):
    """A rotated, scaled, shifted copy of the geometric 1-D family, as its
    points (c first), half-space and start.

    Its iteration never enters the half-space, giving non-vacuous
    material for the outside-H monotonicity claims.
    """
    g = rng.normal(size=(n, n))
    R, _ = np.linalg.qr(g)
    s = rng.uniform(1.0, 3.0)
    c = rng.uniform(-5.0, 5.0, n)
    e1 = np.zeros(n)
    e1[0] = 1.0
    a = R @ e1
    pts = np.vstack([c, (s * (2.0 / 3.0 ** np.arange(25)))[:, None] * a + c])
    return pts, HalfSpace(a, float(a @ c)), s * a + c


def check_lemmas(trials=10000, dims=(1, 2, 3, 4, 5), seed=0,
                 step_fn=dr_step) -> PropertyReport:
    """Monotonicity along whole trajectories.

    Never-entering trajectories: d(x_k,L) strictly decreases, the
    sandwich d(q,H) < d(x,H) < 2 d(q,H) holds, and the one-step decrease
    equals d(q,H).  Once both x_k and q_k are inside H: all later q_j
    stay inside, d(q_j,L) is nondecreasing with equality only at a
    repeat, and x_k is eventually constant.
    """
    rng = np.random.default_rng(seed)
    report = PropertyReport("lemmas-trajectory-monotonicity", trials, seed=seed)
    for t in range(trials):
        n = int(dims[int(rng.integers(len(dims)))])
        if t % 2 == 0:
            ok, data = _check_outside_trajectory(rng, n, step_fn)
        else:
            ok, data = _check_inside_trajectory(rng, n, step_fn, report)
        if not ok:
            _fail(report, trial=t, dim=n, **data)
    return report


def _first_nearest(pts, x):
    """``FinitePointSet(pts).project_all(x)[0]``, bit for bit."""
    return pts[_nearest(pts, x)[0].argmax()]


def _check_outside_trajectory(rng, n, step_fn):
    pts, hs, x = _scaled_triadic_instance(rng, n)
    L = hs.boundary()
    prev_dxl, dxh = None, hs._distance(x)
    # stop well above the tie-tolerance scale, where the limit point would
    # legitimately enter the tie set and the trajectory would enter H
    for _ in range(10):
        q = _first_nearest(pts, x)
        dqh = hs._distance(q)
        if not (dxh > TOL and dqh > TOL):
            return False, {"reason": "entered-H", "x": x, "q": q}
        if not (dqh < dxh < 2.0 * dqh + TOL):
            return False, {"reason": "sandwich", "x": x, "q": q}
        dxl = L._distance(x)
        if prev_dxl is not None and not dxl < prev_dxl:
            return False, {"reason": "not-decreasing", "x": x}
        prev_dxl = dxl
        nxt = step_fn(x, q, hs)
        dnh = hs._distance(nxt)
        if abs(dnh - (dxh - dqh)) > TOL:
            return False, {"reason": "decrease-identity", "x": x, "q": q,
                           "next": nxt}
        x, dxh = nxt, dnh
    return True, {}


def _check_inside_trajectory(rng, n, step_fn, report):
    hs = _halfspace(rng, n)
    # Inside points sit either exactly on the boundary or clearly off it.
    # Settling takes on the order of gap / d(q,L) steps, so a point at a
    # tiny positive depth would need an unbounded budget; the two sampled
    # regimes cover both resolutions of the eventually-constant claim.
    L = hs.boundary()
    inside = []
    for _ in range(2):
        p = L._project(rng.uniform(-COORD_RANGE, COORD_RANGE, n))
        if rng.random() >= 0.15:
            p = p - rng.uniform(0.05, 8.0) * hs.a
        inside.append(p)
    # The remaining points are uniform and may fall inside H too; one that
    # lands less deep than the inside regime goes onto L instead.
    outside = [L._project(p) if -0.05 < hs._value(p) < 0.0 else p
               for p in rng.uniform(-COORD_RANGE, COORD_RANGE, (3, n))]
    pts = FinitePointSet(inside + outside).points
    x = rng.uniform(-COORD_RANGE, COORD_RANGE, n)
    entered = False
    for _ in range(60):
        q = _first_nearest(pts, x)
        if hs._distance(x) <= TOL and hs._distance(q) <= TOL:
            entered = True
            break
        x = step_fn(x, q, hs)
    if not entered:
        report.vacuous += 1
        return True, {}
    # Settling can take on the order of gap / d(q,L) steps, so the budget
    # is generous; the claims are checked at every step along the way.
    prev_dql, prev_q = None, None
    for _ in range(2000):
        q = _first_nearest(pts, x)
        if hs._distance(q) > TOL:
            return False, {"reason": "q-left-H", "x": x, "q": q}
        dql = L._distance(q)
        if prev_dql is not None:
            if dql < prev_dql - TOL:
                return False, {"reason": "dqL-decreased", "x": x, "q": q}
            same_d = abs(dql - prev_dql) <= 1e-12
            same_q = np.linalg.norm(q - prev_q) <= 1e-12
            if same_d != same_q:
                return False, {"reason": "equality-iff-repeat", "x": x, "q": q}
        prev_dql, prev_q = dql, q
        nxt = step_fn(x, q, hs)
        if np.linalg.norm(nxt - x) <= 1e-12:
            return True, {}
        x = nxt
    return False, {"reason": "x-not-eventually-constant", "x": x}


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
    inc = hs.boundary().distance(cert.q_fixed)
    if abs(cert.increment - inc) > tol:
        return False
    offs = np.asarray(cert.offsets)
    step_tol = 1e-6 * max(1.0, float(np.abs(offs).max(initial=0.0)))
    return bool(np.all(np.abs(np.diff(offs) - inc) <= step_tol))


def check_theorems_finite(trials=100, dims=(1, 2, 3, 4, 5), seed=0,
                          knapsack_trials=100) -> PropertyReport:
    """Solved/Diverging outcomes versus exhaustive feasibility oracles.

    Random explicit finite sets plus random binary-threshold instances.
    Feasible instances must finish Solved with an oracle-verified point;
    infeasible ones must produce a valid divergence certificate whose
    support equals the oracle's own min over Q of <a,p>.  Runs hitting
    the iteration cap are counted as vacuous (inconclusive).
    """
    rng = np.random.default_rng(seed)
    report = PropertyReport("theorems-oracle-agreement",
                            trials + knapsack_trials, seed=seed)
    cfg = SolverConfig(max_iter=10000)
    for t in range(trials):
        n = int(dims[int(rng.integers(len(dims)))])
        hs = _halfspace(rng, n)
        Q = FinitePointSet(rng.uniform(-COORD_RANGE, COORD_RANGE,
                                       (int(rng.integers(1, 8)), n)))
        x0 = rng.uniform(-COORD_RANGE, COORD_RANGE, n)
        _judge(report, t, Q, hs, x0, *_finite_oracle(Q, hs), cfg)
    for t in range(knapsack_trials):
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
    """Continue a solved run; the main iterate must become constant.

    Settling takes on the order of gap / d(q,L) steps, hence the loose cap.
    """
    x = trace[-1].x
    for _ in range(5000):
        q = Q.project_all(x)[0]
        if hs.distance(q) > TOL:
            return False
        nxt = dr_step(x, q, hs)
        if np.linalg.norm(nxt - x) <= 1e-12:
            return True
        x = nxt
    return False


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
    """Run a suite against its documented mutant; True if failures appear."""
    _, inject = MUTANTS[suite_id]
    return not SUITES[suite_id](trials=trials, seed=seed, **inject).passed


def check_dims(dims) -> tuple[int, ...]:
    """``dims`` as a tuple of ints; ValueError unless each is at least 1."""
    dims = tuple(int(d) for d in dims)
    if not dims or min(dims) < 1:
        raise ValueError(f"dimensions must be at least 1, got {list(dims)}")
    return dims


def check_trials(trials) -> int:
    """``trials`` as an int; ValueError if it is negative."""
    trials = int(trials)
    if trials < 0:
        raise ValueError(f"trial counts must be at least 0, got {trials}")
    return trials


def run_all_suites(trials=10000, dims=(1, 2, 3, 4, 5), seed=0,
                   oracle_trials=100) -> list[PropertyReport]:
    dims = check_dims(dims)
    trials, oracle_trials = check_trials(trials), check_trials(oracle_trials)
    return [
        _timed(check_prop1, trials, dims, seed),
        _timed(check_prop2, trials, dims, seed),
        _timed(check_prop3, trials, dims, seed),
        _timed(check_prop4, trials, tuple(d for d in dims if d >= 2) or (2,),
               seed),
        _timed(check_lemmas, trials, dims, seed),
        _timed(check_theorems_finite, oracle_trials, dims, seed,
               knapsack_trials=oracle_trials),
    ]


def _timed(suite, *args, **kwargs) -> PropertyReport:
    t0 = time.perf_counter()
    report = suite(*args, **kwargs)
    report.seconds = time.perf_counter() - t0
    return report
