"""Seeded property suites for the half-space Douglas-Rachford operator.

Each check samples random instances whose preconditions hold by
construction, evaluates the operator, and asserts the corresponding
structural identity or inequality.  Checks accept a ``step_fn`` so that a
deliberately broken operator (see MUTANTS) can be injected to demonstrate
the checks have power.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .geometry import HalfSpace, as_point
from .engine import dr_step, run_dr, SolverConfig, Solved, Diverging, MaxIterations
from .sets import BinaryKnapsackSet, FinitePointSet

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

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "property_id": self.property_id,
            "trials": self.trials,
            "seed": self.seed,
            "vacuous": self.vacuous,
            "passed": self.passed,
            "failures": self.failures[:20],
            "failure_count": len(self.failures),
        }


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
# Samplers.  Coordinates stay in a benign range so the identities hold to
# near machine precision at the 1e-9 tolerance.

def _unit(rng, n):
    while True:
        v = rng.normal(size=n)
        norm = np.linalg.norm(v)
        if norm > 1e-6:
            return v / norm


def _halfspace(rng, n) -> HalfSpace:
    return HalfSpace(_unit(rng, n), float(rng.uniform(-5.0, 5.0)))


def _tangent(rng, hs: HalfSpace):
    """A unit vector orthogonal to the normal (dim >= 2)."""
    v = _unit(rng, hs.dim)
    v = v - float(v @ hs.a) * hs.a
    norm = np.linalg.norm(v)
    if norm < 1e-6:
        return _tangent(rng, hs)
    return v / norm


def _point_in_H(rng, hs: HalfSpace, on_boundary_prob=0.1):
    x = rng.uniform(-COORD_RANGE, COORD_RANGE, hs.dim)
    v = hs.value(x)
    if rng.random() < on_boundary_prob:
        return x - v * hs.a
    if v > 0:
        x = x - (v + rng.uniform(0.0, 3.0)) * hs.a
    return x


def _fillers(rng, x, d0, n, count=3):
    """Points strictly farther than d0 from x, so a designated q stays nearest."""
    out = []
    for _ in range(count):
        out.append(x + (d0 + rng.uniform(0.5, 4.0)) * _unit(rng, n))
    return out


def _fail(report, **data):
    report.failures.append({k: _plain(v) for k, v in data.items()})


def _plain(v):
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    return v


# ---------------------------------------------------------------------------
# Half-space invariance: x in H implies every one-step image lies in H.

def check_prop1(trials=10000, dims=(1, 2, 3, 4, 5), seed=0,
                step_fn=dr_step) -> PropertyReport:
    rng = np.random.default_rng(seed)
    report = PropertyReport("prop1-halfspace-invariance", trials, seed=seed)
    for t in range(trials):
        n = int(rng.choice(dims))
        hs = _halfspace(rng, n)
        x = _point_in_H(rng, hs)
        pts = rng.uniform(-COORD_RANGE, COORD_RANGE, (4, n))
        if rng.random() < 0.2 and n >= 1:
            pts[1] = pts[0]  # duplicate collapses, keeps sampler varied
        Q = FinitePointSet(pts)
        for q in Q.project_all(x):
            z = step_fn(x, q, hs)
            if hs.distance(z) > TOL:
                _fail(report, trial=t, dim=n, a=hs.a, b=hs.b, x=x, q=q,
                      dist=hs.distance(z))
    return report


# ---------------------------------------------------------------------------
# Case tree for x outside H with q its nearest point.

def _instance_outside(rng, n, case):
    """x outside H plus a designated nearest q realizing the given case."""
    hs = _halfspace(rng, n)
    xl = _point_in_H(rng, hs, on_boundary_prob=0.0)
    xl = xl - hs.value(xl) * hs.a  # foot on the boundary
    dx = rng.uniform(0.5, 5.0)
    x = xl + dx * hs.a
    if case == "i":
        dq = -rng.uniform(0.0, 3.0)
    elif case == "iia":
        dq = dx * rng.uniform(0.05, 0.45)
    elif case == "iibI":
        dq = dx * rng.uniform(1.05, 2.0)
    else:  # iibII
        dq = dx * rng.uniform(0.55, 0.95)
    tau = rng.uniform(0.0, 3.0) if n >= 2 else 0.0
    t_hat = _tangent(rng, hs) if n >= 2 else np.zeros(n)
    q = x + (dq - dx) * hs.a + tau * t_hat
    Q = FinitePointSet([q] + _fillers(rng, x, float(np.linalg.norm(x - q)), n))
    return hs, x, q, Q, dx, dq


def check_prop2(trials=10000, dims=(1, 2, 3, 4, 5), seed=0,
                step_fn=dr_step) -> PropertyReport:
    rng = np.random.default_rng(seed)
    report = PropertyReport("prop2-outside-H-case-tree", trials, seed=seed)
    cases = ("i", "iia", "iibI", "iibII")
    for t in range(trials):
        n = int(rng.choice(dims))
        case = cases[t % 4]
        hs, x, q, Q, dx, dq = _instance_outside(rng, n, case)
        z = step_fn(x, q, hs)
        ok = True
        if case == "i" or case == "iia":
            ok = np.linalg.norm(z - q) <= TOL
            if ok and case == "iia":
                # q is its own nearest point, so the follow-up applies.
                z2 = step_fn(q, q, hs)
                pl = hs.boundary().project(q)
                ok = np.linalg.norm(z2 - pl) <= TOL
        else:
            a, b = hs.a, hs.b
            expect = q + (float(a @ x) + b - 2.0 * float(a @ q)) * a
            ok = np.linalg.norm(z - expect) <= TOL
            if ok and case == "iibI":
                ok = hs.distance(z) <= TOL
            elif ok:
                ok = abs(hs.distance(z) - (dx - dq)) <= TOL
                if ok and any(np.linalg.norm(p - q) <= 1e-12
                              for p in Q.project_all(z)):
                    ok = hs.distance(step_fn(z, q, hs)) <= TOL
        if not ok:
            _fail(report, trial=t, case=case, dim=n, a=hs.a, b=hs.b,
                  x=x, q=q, z=z, dx=dx, dq=dq)
    return report


# ---------------------------------------------------------------------------
# In-H displacement identity.

def check_prop3(trials=10000, dims=(1, 2, 3, 4, 5), seed=0,
                step_fn=dr_step) -> PropertyReport:
    rng = np.random.default_rng(seed)
    report = PropertyReport("prop3-inside-H-displacement", trials, seed=seed)
    for t in range(trials):
        n = int(rng.choice(dims))
        hs, x, q, _, dxl, dql = _instance_inside(rng, n)
        L = hs.boundary()
        z = step_fn(x, q, hs)
        expect = q - (L.distance(x) + 2.0 * L.distance(q)) * hs.a
        ok = (np.linalg.norm(z - expect) <= TOL
              and abs(L.distance(z) - (L.distance(q) + L.distance(x))) <= TOL)
        if not ok:
            _fail(report, trial=t, dim=n, a=hs.a, b=hs.b, x=x, q=q, z=z)
    return report


def _instance_inside(rng, n):
    """x in H and a designated nearest q outside H."""
    hs = _halfspace(rng, n)
    x = _point_in_H(rng, hs, on_boundary_prob=0.15)
    dxl = hs.boundary().distance(x)
    if dxl > 3.0:
        # keep the step length moderate so crafted nearby points stay
        # nearest after the step
        shift = dxl - rng.uniform(0.0, 3.0)
        x = x + shift * hs.a
        dxl = hs.boundary().distance(x)
    dq = rng.uniform(0.2, 4.0)
    tau = rng.uniform(0.0, 3.0) if n >= 2 else 0.0
    t_hat = _tangent(rng, hs) if n >= 2 else np.zeros(n)
    q = x + (dxl + dq) * hs.a + tau * t_hat
    return hs, x, q, tau, dxl, dq


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
    for t in range(trials):
        n = int(rng.choice(dims))
        if n < 2:
            # on a line a distinct new nearest point at the required
            # distances cannot exist, so the claim has no content
            report.vacuous += 1
            continue
        hs, x, q, tau, dxl, dq = _instance_inside(rng, n)
        d0 = float(np.linalg.norm(x - q))
        points = [q]
        if rng.random() >= 0.3:
            # Place p = q + delta*t_hat - mu*a so that p is outside H,
            # farther from x than q, but strictly nearer to the next
            # iterate z (feasible because ||z-q|| exceeds ||x-q||'s
            # normal gap by 2 d(q,L)).
            dzq = dxl + 2.0 * dq
            mu = dq * rng.uniform(0.2, 0.8)
            A = mu * (2.0 * (dxl + dq) - mu)
            B = mu * (2.0 * dzq - mu)
            delta = float(np.sqrt(0.5 * (A + B)))
            t_hat = (q - x - (dxl + dq) * hs.a)
            tn = np.linalg.norm(t_hat)
            t_hat = t_hat / tn if tn > 1e-9 else _tangent(rng, hs)
            points.append(q + delta * t_hat - mu * hs.a)
        Q = FinitePointSet(points + _fillers(rng, x, d0 + 6.0, n))
        ties = Q.project_all(x)
        if not any(np.linalg.norm(p - q) <= 1e-12 for p in ties):
            continue  # crafted geometry degenerate; skip rather than fail
        z = step_fn(x, q, hs)
        new_ps = [p for p in Q.project_all(z)
                  if hs.distance(p) > TOL and np.linalg.norm(p - q) > 1e-12]
        if not new_ps:
            report.vacuous += 1
            continue
        dzQ = 0.0 if drop_slack_term else Q.distance(z)
        zq = float(np.linalg.norm(z - q))
        for p in new_ps:
            lhs = hs.distance(p) + zq
            rhs = hs.distance(q) + dzQ
            if lhs > rhs + TOL or not hs.distance(p) < hs.distance(q):
                _fail(report, trial=t, dim=n, a=hs.a, b=hs.b, x=x, q=q,
                      p=p, z=z, lhs=lhs, rhs=rhs)
    return report


# ---------------------------------------------------------------------------
# Trace-level lemmas, checked on raw iteration loops (no stopping rule).

def _scaled_triadic_instance(rng, n):
    """A rotated, scaled, shifted copy of the geometric 1-D family.

    Its iteration never enters the half-space, giving non-vacuous
    material for the outside-H monotonicity claims.
    """
    g = rng.normal(size=(n, n))
    R, _ = np.linalg.qr(g)
    s = rng.uniform(1.0, 3.0)
    c = rng.uniform(-5.0, 5.0, n)
    e1 = np.zeros(n)
    e1[0] = 1.0
    pts = [c] + [s * (2.0 / 3.0**k) * (R @ e1) + c for k in range(25)]
    a = R @ e1
    hs = HalfSpace(a, float(a @ c))
    x0 = s * (R @ e1) + c
    return FinitePointSet(pts), hs, x0


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
        n = int(rng.choice(dims))
        if t % 2 == 0:
            ok, data = _check_outside_trajectory(rng, n, step_fn)
        else:
            ok, data = _check_inside_trajectory(rng, n, step_fn, report)
        if not ok:
            _fail(report, trial=t, dim=n, **data)
    return report


def _check_outside_trajectory(rng, n, step_fn):
    Q, hs, x = _scaled_triadic_instance(rng, n)
    L = hs.boundary()
    prev_dxl = None
    # stop well above the tie-tolerance scale, where the limit point would
    # legitimately enter the tie set and the trajectory would enter H
    for _ in range(10):
        q = Q.project_all(x)[0]
        dxh, dqh = hs.distance(x), hs.distance(q)
        if not (dxh > TOL and dqh > TOL):
            return False, {"reason": "entered-H", "x": x, "q": q}
        if not (dqh < dxh < 2.0 * dqh + TOL):
            return False, {"reason": "sandwich", "x": x, "q": q}
        dxl = L.distance(x)
        if prev_dxl is not None and not dxl < prev_dxl:
            return False, {"reason": "not-decreasing", "x": x}
        prev_dxl = dxl
        nxt = step_fn(x, q, hs)
        if abs(hs.distance(nxt) - (dxh - dqh)) > TOL:
            return False, {"reason": "decrease-identity", "x": x, "q": q,
                           "next": nxt}
        x = nxt
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
        p = L.project(rng.uniform(-COORD_RANGE, COORD_RANGE, n))
        if rng.random() >= 0.15:
            p = p - rng.uniform(0.05, 8.0) * hs.a
        inside.append(p)
    # The remaining points are uniform and may fall inside H too; one that
    # lands less deep than the inside regime goes onto L instead.
    outside = [L.project(p) if -0.05 < hs.value(p) < 0.0 else p
               for p in rng.uniform(-COORD_RANGE, COORD_RANGE, (3, n))]
    Q = FinitePointSet(inside + outside)
    x = rng.uniform(-COORD_RANGE, COORD_RANGE, n)
    entered = False
    for _ in range(60):
        q = Q.project_all(x)[0]
        if hs.distance(x) <= TOL and hs.distance(q) <= TOL:
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
        q = Q.project_all(x)[0]
        if hs.distance(q) > TOL:
            return False, {"reason": "q-left-H", "x": x, "q": q}
        dql = L.distance(q)
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
        n = int(rng.choice(dims))
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
    reports = [
        check_prop1(trials, dims, seed),
        check_prop2(trials, dims, seed),
        check_prop3(trials, dims, seed),
        check_prop4(trials, tuple(d for d in dims if d >= 2) or (2,), seed),
        check_lemmas(trials, dims, seed),
        check_theorems_finite(oracle_trials, dims, seed,
                              knapsack_trials=oracle_trials),
    ]
    return reports
