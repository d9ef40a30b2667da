"""Independent correctness checks for driver outcomes.

A check reads only the generated problem data (the problem-file
dictionary) and the states the run reported; it never calls the
program's own membership tests or detectors, and it does not pin the
outcome an instance should have.  ``judge`` returns ``None`` when the
outcome is shown correct, ``"inconclusive"`` for an iteration cap, and a
one-line reason otherwise.
"""

from __future__ import annotations

import numpy as np

DEFAULTS = {"tol": 1e-9, "cycle_tol": 1e-9, "window": 25}
INCONCLUSIVE = "inconclusive"


def config(spec: dict, key: str):
    return spec.get("config", {}).get(key, DEFAULTS[key])


def _unit(a, b):
    a = np.asarray(a, dtype=float)
    norm = float(np.linalg.norm(a))
    return a / norm, float(b) / norm


def _slack(*arrays) -> float:
    """Round-off allowance: a few ulps of the largest magnitude involved."""
    scale = 1.0 + max(float(np.max(np.abs(np.asarray(v, dtype=float))))
                      for v in arrays)
    return 1e-12 * scale


def constraint_distance(con: dict, q: np.ndarray) -> float:
    """Euclidean distance from q to a constraint, from its raw description."""
    kind = con["type"]
    if kind in ("halfspace", "hyperplane", "slab"):
        a = np.asarray(con["a"], dtype=float)
        norm = float(np.linalg.norm(a))
        t = float(a @ q) / norm
        if kind == "halfspace":
            return max(0.0, t - float(con["b"]) / norm)
        if kind == "hyperplane":
            return abs(t - float(con["b"]) / norm)
        lo, up = float(con["lower"]) / norm, float(con["upper"]) / norm
        return max(0.0, lo - t, t - up)
    if kind == "diagonal":
        n = int(con["block_dim"])
        return float(np.linalg.norm(q[:n] - q[n:])) / np.sqrt(2.0)
    if kind == "cone":
        apex = np.asarray(con["apex"], dtype=float)
        u = np.asarray(con["p1"], dtype=float) - apex
        v = np.asarray(con["p2"], dtype=float) - apex
        s, t = np.linalg.solve(np.column_stack([u, v]), q - apex)
        if s >= 0.0 and t >= 0.0:
            return 0.0
        w = q - apex
        feet = [apex + max(0.0, float(w @ d) / float(d @ d)) * d for d in (u, v)]
        return min(float(np.linalg.norm(q - f)) for f in feet)
    raise ValueError(f"no distance for constraint {kind!r}")


def _triadic_values(depth: int) -> np.ndarray:
    return np.array([0.0] + [2.0 / 3.0**k for k in range(depth + 1)])


def _corners(m: int) -> np.ndarray:
    return ((np.arange(1 << m)[:, None] >> (m - 1 - np.arange(m))) & 1
            ).astype(float)


def _dim(spec: dict) -> int:
    kind = spec["type"]
    if kind == "finite":
        return len(spec["points"][0])
    if kind == "sphere":
        return len(spec["center"])
    if kind == "knapsack":
        return len(spec["c"])
    if kind == "triadic":
        return 1
    if kind == "product":
        return sum(_dim(c) for c in spec["components"])
    if kind in ("halfspace", "hyperplane", "slab"):
        return len(spec["a"])
    if kind == "cone":
        return 2
    return 2 * int(spec["block_dim"])


def in_set(spec: dict, q: np.ndarray) -> bool:
    """Membership of q in Q by a test independent of the program's."""
    kind = spec["type"]
    if kind == "finite":
        return bool(np.any(np.all(np.asarray(spec["points"], float) == q, axis=1)))
    if kind == "sphere":
        c = np.asarray(spec["center"], dtype=float)
        r = float(spec["radius"])
        return abs(float(np.linalg.norm(q - c)) - r) <= 1e-11 * (1.0 + r + np.abs(c).max())
    if kind == "knapsack":
        c = np.asarray(spec["c"], dtype=float)
        binary = bool(np.all((q == 0.0) | (q == 1.0)))
        return binary and float(c @ q) >= float(spec["threshold"]) - _slack(c)
    if kind == "triadic":
        vals = _triadic_values(int(spec.get("depth", 60)))
        return bool(np.any(np.abs(vals - q[0]) <= 1e-14 * vals))
    if kind == "product":
        off = 0
        for comp in spec["components"]:
            n = _dim(comp)
            blk = q[off:off + n]
            off += n
            if comp["type"] in ("finite", "sphere", "knapsack", "triadic", "product"):
                if not in_set(comp, blk):
                    return False
            elif constraint_distance(comp, blk) > _slack(blk):
                return False
        return True
    raise ValueError(f"no membership test for set {kind!r}")


class Oracle:
    """Brute-force min over Q of <a, p>, cached per instance."""

    def __init__(self):
        self.cache: dict[int, float] = {}

    def min_along(self, spec: dict, a: np.ndarray) -> float:
        key = id(spec)
        if key not in self.cache:
            self.cache[key] = self._min_along(spec, a)
        return self.cache[key]

    @staticmethod
    def _min_along(spec, a):
        kind = spec["type"]
        if kind == "finite":
            return float(np.min(np.asarray(spec["points"], float) @ a))
        if kind == "sphere":
            return float(np.asarray(spec["center"], float) @ a) - float(spec["radius"])
        if kind == "triadic":
            return float(np.min(_triadic_values(int(spec.get("depth", 60))) * a[0]))
        if kind == "knapsack":
            c = np.asarray(spec["c"], dtype=float)
            corners = _corners(c.size)
            feasible = corners[corners @ c >= float(spec["threshold"])]
            return float(np.min(feasible @ a))
        raise ValueError(f"no infeasibility oracle for set {kind!r}")


def judge(spec: dict, driver: str, outcome: str, xs, qs, info: dict,
          oracle: Oracle) -> str | None:
    """Check one finished run.

    ``xs``/``qs`` are the recorded iterates and selected projections;
    ``info`` carries the outcome's own data: ``q`` for Solved,
    ``period``/``first`` for CycleDetected, ``q_fixed``/``increment``/
    ``offsets`` for Diverging and ``at_index`` for DegenerateProjection.
    """
    if outcome == "MaxIterations":
        return INCONCLUSIVE
    eps_h = float(config(spec, "tol"))
    if outcome == "Solved":
        q = np.asarray(info["q"], dtype=float)
        if not np.array_equal(q, qs[-1]):
            return "Solved q differs from the last recorded projection"
        if not in_set(spec["set"], q):
            return "Solved q is not a point of Q"
        d = constraint_distance(spec["constraint"], q)
        if d > eps_h * (1.0 + 1e-9) + _slack(q):
            return f"Solved q is {d:.3g} from the constraint (eps_h {eps_h:g})"
        return None
    if outcome == "Diverging":
        return _judge_diverging(spec, info, oracle)
    if outcome == "CycleDetected":
        states = xs if driver != "ap" else [s for pair in zip(xs, qs) for s in pair]
        return _judge_cycle(spec, states, int(info["period"]), int(info["first"]))
    if outcome == "DegenerateProjection":
        if spec["set"]["type"] == "sphere" and int(info["at_index"]) == 0:
            c = np.asarray(spec["set"]["center"], dtype=float)
            x0 = np.asarray(spec["x0"], dtype=float)
            if float(np.linalg.norm(x0 - c)) <= 1e-12 * (1.0 + np.abs(c).max()):
                return None
        return "degenerate projection away from a sphere centre"
    return f"unknown outcome {outcome!r}"


def _judge_diverging(spec, info, oracle) -> str | None:
    con = spec["constraint"]
    if con["type"] != "halfspace":
        return "Diverging reported for a non-half-space constraint"
    a, b = _unit(con["a"], con["b"])
    low = oracle.min_along(spec["set"], a)
    if not low > b:
        return f"Diverging on a feasible instance (min <a,p> - b = {low - b:.3g})"
    q = np.asarray(info["q_fixed"], dtype=float)
    if not in_set(spec["set"], q):
        return "certificate point is not a point of Q"
    inc = float(info["increment"])
    gap = float(a @ q) - b
    if not (inc > 0.0 and abs(inc - gap) <= 1e-9 * (1.0 + abs(gap))):
        return f"certificate increment {inc:.6g} is not d(q,L) = {gap:.6g}"
    offs = np.asarray(info["offsets"], dtype=float)
    if offs.size < int(config(spec, "window")):
        return f"certificate holds {offs.size} offsets, fewer than the window"
    steps = np.diff(offs)
    if np.any(np.abs(steps - inc) > 1e-9 * (1.0 + np.abs(offs).max())):
        return "certificate offsets do not step by the increment"
    return None


def _judge_cycle(spec, states, period, first) -> str | None:
    eps = float(config(spec, "cycle_tol"))
    if period < 1 or first < 0 or first + 2 * period > len(states) - 1:
        return f"cycle (period {period}, first {first}) not covered by the trace"
    s = np.asarray(states, dtype=float)
    gap = np.abs(s[first + period:first + 2 * period + 1]
                 - s[first:first + period + 1]).max()
    if gap > eps * (1.0 + 1e-9):
        return f"states do not recur at period {period} (gap {gap:.3g} > {eps:g})"
    return None


# The lemma suite's settling claim on a finite Q (``x-not-eventually-constant``)
# is a verdict reached at an iteration budget, like MaxIterations for a
# driver run.  Once the trajectory is inside H with q at depth d below L, it
# needs on the order of gap / d more steps, and a point of Q drawn at a tiny
# positive depth needs far more than the suite's budget.
UNSETTLED = "x-not-eventually-constant"
LEMMA_ENTER_STEPS = 60      # the suite's budget for entering H
LEMMA_SETTLE_STEPS = 2000   # and for settling once inside
LEMMA_TOL = 1e-9


def _nearest(points: np.ndarray, x: np.ndarray, tie_tol: float) -> np.ndarray:
    d2 = np.sum((points - x) ** 2, axis=1)
    return points[int(np.flatnonzero(d2 <= d2.min() + tie_tol)[0])]


def _dr(x, q, a, b, eps_h=1e-9):
    """The paper's closed-form step, written out from its two cases."""
    if float(a @ (2.0 * q - x)) <= b + eps_h:
        return q.copy()
    return q + (float(a @ x) + b - 2.0 * float(a @ q)) * a


def steps_to_settle(points, a, b, x, tie_tol: float,
                    eps_h: float = 1e-9, max_jumps: int = 100_000):
    """Steps until the iteration from x is constant, or None.

    Inside H with a fixed nearest point q the step moves x along a by the
    depth b - <a,q> and keeps its part orthogonal to a, so runs with the
    same q are taken in one jump, up to the step where q would change or
    the first case of the step applies.
    """
    points = np.asarray(points, dtype=float)
    x = np.asarray(x, dtype=float)
    done = 0
    for _ in range(max_jumps):
        q = _nearest(points, x, tie_tol)
        aq = float(a @ q)
        if aq > b + LEMMA_TOL:
            return None                 # q left H: not the settling regime
        nxt = _dr(x, q, a, b, eps_h)
        done += 1
        if np.linalg.norm(nxt - x) <= 1e-12:
            return done
        x = nxt
        depth = b - aq
        if depth <= 0.0:
            continue
        s = float(a @ x)
        q_perp = q - aq * a
        horizon = [(2.0 * aq - b - eps_h - s) / depth]     # first case applies
        for p in points:
            ap = float(a @ p)
            if ap > aq:                 # p gains on q as x moves along a
                cross = (float((q_perp - p) @ (q_perp - p)) - aq * aq) / (2.0 * (ap - aq))
                horizon.append((cross - s) / depth)
        k = int(np.ceil(min(horizon))) - 2
        if k > 0:
            x = q_perp + (s + k * depth) * a
            done += k
    return None


def judge_unsettled(points, a, b, x0, reported, tie_tol: float) -> str:
    """Check the suite's ``x-not-eventually-constant`` verdict on one trial.

    Reruns the trial from its start x0 with the benchmark's own step and
    nearest-point selection, under the suite's budgets.  The verdict is
    inconclusive when that trajectory does not settle within the budget
    either, ends where the suite reported, and settles later; any other
    finding is a failure.
    """
    points = np.asarray(points, dtype=float)
    x = np.asarray(x0, dtype=float)
    for _ in range(LEMMA_ENTER_STEPS):
        q = _nearest(points, x, tie_tol)
        if max(0.0, float(a @ x) - b) <= LEMMA_TOL and float(a @ q) - b <= LEMMA_TOL:
            break
        x = _dr(x, q, a, b)
    else:
        return "the rerun trajectory does not enter H"
    for k in range(LEMMA_SETTLE_STEPS):
        nxt = _dr(x, _nearest(points, x, tie_tol), a, b)
        if np.linalg.norm(nxt - x) <= 1e-12:
            return f"the rerun trajectory settles after {k + 1} steps"
        x = nxt
    reported = np.asarray(reported, dtype=float)
    if np.linalg.norm(x - reported) > 1e-6 * (1.0 + float(np.linalg.norm(x))):
        return "the reported x is not where the rerun trajectory is"
    if steps_to_settle(points, a, b, x, tie_tol) is None:
        return "the trajectory does not settle"
    return INCONCLUSIVE
