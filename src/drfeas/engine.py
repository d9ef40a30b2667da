"""Douglas-Rachford and alternating-projection iteration drivers.

``run_dr`` iterates the half-space case-split operator, ``run_dr_generic``
pairs an arbitrary single-valued constraint with a projectable set, and
``run_ap`` alternates projections.  All three are one loop, ``_iterate``,
with a different step strategy.  Every run records a full trace and runs
cycle detection; the half-space strategy also watches for the structural
linear-divergence pattern (constant infeasible auxiliary point, iterates
marching along the inward normal by a fixed increment).

Points are checked once, when a driver starts: x0, and that the set and
the constraint share a dimension.  In the loop the one point check is the
set's ``project_all``, which also rejects an iterate that has overflowed.
``SolverConfig`` checks its own values (``drfeas.problems.SETTINGS`` names
them for users).  DR runs end as MaxIterations once |x| > ``NORM_CAP``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .geometry import DimensionMismatchError, HalfSpace, as_point
from .sets import DegenerateProjectionError, ProjectableSet

__all__ = [
    "CycleDetected",
    "DegenerateProjection",
    "Diverging",
    "DivergenceCertificate",
    "IterateRecord",
    "MaxIterations",
    "RunOutcome",
    "Solved",
    "SolverConfig",
    "Trace",
    "detect_cycle",
    "detect_linear_divergence",
    "dr_step",
    "dr_step_generic",
    "run_ap",
    "run_dr",
    "run_dr_generic",
]

TIE_RULES = ("first", "rotate", "random")
REFLECT_ORDERS = ("set-first", "constraint-first")
NORM_CAP = 1e12     # fallback bailout when no certificate forms


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters; all runs are deterministic given (inputs, config)."""

    max_iter: int = 10000
    eps_h: float = 1e-9          # membership tolerance for the stopping rule
    eps_cycle: float = 1e-9      # state quantization grid for cycle detection
    window: int = 25             # steps of evidence before a divergence certificate
    reflect_order: str = "set-first"
    tie_rule: str = "first"
    seed: int = 0

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not (0 < self.eps_h < math.inf and 0 < self.eps_cycle < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.reflect_order not in REFLECT_ORDERS:
            raise ValueError(f"reflect_order must be one of {REFLECT_ORDERS}")
        if self.tie_rule not in TIE_RULES:
            raise ValueError(f"tie_rule must be one of {TIE_RULES}")

    def key(self) -> tuple:
        # NORM_CAP is a run parameter too, so the fingerprint covers it.
        return (
            self.max_iter, self.eps_h, self.eps_cycle, self.window,
            self.reflect_order, self.tie_rule, self.seed, NORM_CAP,
        )


@dataclass(frozen=True)
class IterateRecord:
    """One step: iterate x_k, selected projection q_k, and their distances.

    ``d_xH``/``d_qH`` are the distances of x_k and q_k to the constraint.
    ``d_xL`` is |<a,x_k> - b|, the distance of x_k to the boundary
    hyperplane, for a half-space constraint; for any other constraint it
    repeats ``d_xH``.
    """

    k: int
    x: np.ndarray
    q: np.ndarray
    d_xH: float
    d_qH: float
    d_xL: float


@dataclass(frozen=True)
class Trace:
    records: tuple[IterateRecord, ...]
    fingerprint: str

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]


@dataclass(frozen=True)
class DivergenceCertificate:
    """Observed pattern x_{k+1} - x_k = -increment * a with constant q.

    ``offsets`` holds the cumulative displacement lambda_k along the
    normal, one entry per certified step starting at ``start_index``
    (x_{k+1} = q_fixed - lambda_k * a).
    """

    q_fixed: np.ndarray
    increment: float
    start_index: int
    offsets: tuple[float, ...]


@dataclass(frozen=True)
class Solved:
    q: np.ndarray
    iterations: int


@dataclass(frozen=True)
class Diverging:
    certificate: DivergenceCertificate
    beta_estimate: float


@dataclass(frozen=True)
class CycleDetected:
    period: int
    first_index: int


@dataclass(frozen=True)
class MaxIterations:
    final_dist: float
    beta_estimate: float
    norm_capped: bool = False


@dataclass(frozen=True)
class DegenerateProjection:
    at_index: int


RunOutcome = Union[Solved, Diverging, CycleDetected, MaxIterations, DegenerateProjection]


def dr_step(x, q, hs: HalfSpace, eps_h: float = 1e-9) -> np.ndarray:
    """One Douglas-Rachford step for a half-space given the selected q.

    Case split: q when <a, 2q - x> <= b (+ eps_h), otherwise
    q + (<a,x> + b - 2<a,q>) a, which equals (x + R_H(2q - x)) / 2.
    """
    return _step(as_point(x, hs.dim), as_point(q, hs.dim), hs.a, hs.b, eps_h)


def _step(x: np.ndarray, q: np.ndarray, a: np.ndarray, b: float,
          eps_h: float) -> np.ndarray:
    """``dr_step`` on checked float64 arrays and the unit normal's (a, b)."""
    if float(a @ (2.0 * q - x)) <= b + eps_h:
        return q.copy()
    return q + (float(a @ x) + b - 2.0 * float(a @ q)) * a


def dr_step_generic(x, constraint, proj_set: ProjectableSet,
                    cfg: SolverConfig, k: int = 0,
                    rng: Optional[np.random.Generator] = None):
    """One generic two-set step; returns (next iterate, q used).

    set-first reflects the projectable set before the constraint,
    x' = (x + R_A(2q - x)) / 2 with q the tie-selected nearest point of x;
    constraint-first swaps the roles and selects q from the nearest points
    of R_A(x).
    """
    x = as_point(x, constraint.dim)
    step = _TwoSetStep(constraint, cfg)
    src = step.source(x)
    q = _select(proj_set.project_all(src), k, cfg.tie_rule, rng)
    return step.advance(x, q, src), q


def _select(ties: list[np.ndarray], k: int, rule: str,
            rng: Optional[np.random.Generator]) -> np.ndarray:
    if len(ties) == 1 or rule == "first":
        return ties[0]
    if rule == "rotate":
        return ties[k % len(ties)]
    if rng is None:
        raise ValueError("random tie rule needs a generator")
    return ties[int(rng.integers(len(ties)))]


class _CycleDetector:
    """Hash of quantized states; reports (period, first_index) on recurrence.

    The table keeps the most recent occurrence of each quantized state, so
    a match closes the shortest loop through that state.  With
    ``confirm=True`` a candidate recurrence is only reported after the
    orbit repeats for one further full period, which rejects grid-cell
    near-misses produced by orbits still drifting toward a limit cycle.
    A state whose quantized coordinates overflow (|state| / eps beyond the
    float range) is keyed on its exact coordinates instead, so distinct
    states never share an infinite key.
    """

    def __init__(self, eps: float, confirm: bool = False):
        self.eps = eps
        self.confirm = confirm
        self.seen: dict[tuple, int] = {}
        self.keys: list[tuple] = []
        self.pending: Optional[tuple[int, int, int]] = None  # (first, period, done)

    def add(self, state: np.ndarray, index: int,
            tag: str = "") -> Optional[tuple[int, int]]:
        cell = (state / self.eps).round().tolist()
        if math.inf in cell or -math.inf in cell:
            key = (tag, "exact", *state.tolist())
        else:
            key = (tag, *cell)
        self.keys.append(key)
        if self.pending is not None:
            first, period, done = self.pending
            if key == self.keys[index - period]:
                done += 1
                if done >= period:
                    return period, first
                self.pending = (first, period, done)
                return None
            self.pending = None  # near-miss, resume normal scanning
        prev = self.seen.get(key)
        self.seen[key] = index
        if prev is not None:
            if not self.confirm:
                return index - prev, prev
            self.pending = (prev, index - prev, 0)
        return None


def detect_cycle(states, eps_cycle: float = 1e-9,
                 confirm: bool = False) -> Optional[tuple[int, int]]:
    """First recurrence of a state after quantizing to the eps_cycle grid.

    Returns (period, first_index) or None.  ``confirm=True`` demands the
    recurrence hold for one extra full period before reporting (the
    drivers use this to avoid flagging slowly drifting orbits).
    """
    det = _CycleDetector(eps_cycle, confirm=confirm)
    for i, s in enumerate(states):
        hit = det.add(np.asarray(s, dtype=float), i)
        if hit is not None:
            return hit
    return None


class _DivergenceDetector:
    """Watches for the constant-q, fixed-increment march out of the half-space."""

    def __init__(self, hs: HalfSpace, cfg: SolverConfig):
        self.hs = hs
        self.cfg = cfg
        self.streak: list[IterateRecord] = []
        self.blocked_q: Optional[np.ndarray] = None

    def block(self, q: np.ndarray) -> None:
        """Suppress further certificates while the auxiliary point equals q."""
        self.blocked_q = q.copy()

    def _extends(self, rec: IterateRecord) -> bool:
        if rec.d_xH > self.cfg.eps_h or rec.d_qH <= self.cfg.eps_h:
            return False
        if not self.streak:
            return True
        last = self.streak[-1]
        if not np.abs(rec.q - last.q).max() <= self.cfg.eps_cycle:
            return False
        inc = rec.d_qH  # q is outside H here, so d(q,H) = d(q,L)
        step = rec.x - last.x
        return bool(np.abs(step + inc * self.hs.a).max() <= self.cfg.eps_cycle)

    def push(self, rec: IterateRecord) -> Optional[DivergenceCertificate]:
        if self._extends(rec):
            self.streak.append(rec)
        elif rec.d_xH <= self.cfg.eps_h and rec.d_qH > self.cfg.eps_h:
            self.streak = [rec]
        else:
            self.streak = []
        if len(self.streak) <= self.cfg.window:
            return None
        q = self.streak[-1].q
        if (self.blocked_q is not None
                and np.abs(q - self.blocked_q).max() <= self.cfg.eps_cycle):
            return None
        a = self.hs.a
        start = self.streak[0].k
        offsets = tuple(
            float(a @ (q - r.x)) for r in self.streak[1:]
        )
        return DivergenceCertificate(
            q_fixed=q.copy(),
            increment=self.streak[-1].d_qH,
            start_index=start,
            offsets=offsets,
        )


def detect_linear_divergence(records, hs: HalfSpace,
                             window: int = 25,
                             eps_h: float = 1e-9,
                             eps_cycle: float = 1e-9) -> Optional[DivergenceCertificate]:
    """Scan a recorded trace for the linear-divergence pattern."""
    cfg = SolverConfig(window=window, eps_h=eps_h, eps_cycle=eps_cycle)
    det = _DivergenceDetector(hs, cfg)
    for rec in records:
        cert = det.push(rec)
        if cert is not None:
            return cert
    return None


def _ray_stable(proj_set: ProjectableSet, q: np.ndarray, hs: HalfSpace,
                factor: float = 1e7) -> bool:
    """Whether q stays a nearest point arbitrarily far down the inward ray.

    The fixed-increment march is only genuine divergence if the constant
    auxiliary point never loses a nearest-point comparison; a far probe
    along the ray distinguishes that from a transient march that would
    eventually hand over to another point of the set.
    """
    scale = 1.0 + float(np.linalg.norm(q))
    probe = q - factor * scale * hs.a
    try:
        ties = proj_set.project_all(probe)
    except DegenerateProjectionError:
        return False
    return any(float(np.linalg.norm(p - q)) <= 1e-9 * scale for p in ties)


def _fingerprint(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _halfspace_record(k: int, x: np.ndarray, q: np.ndarray,
                      a: np.ndarray, b: float) -> IterateRecord:
    vx, vq = float(a @ x - b), float(a @ q - b)  # HalfSpace.value, unchecked
    return IterateRecord(k, x.copy(), q.copy(), max(0.0, vx), max(0.0, vq),
                         abs(vx))


def _beta_estimate(records, window: int) -> float:
    return min(r.d_qH for r in records[-window:])


class _Strategy:
    """One driver's step; ``_iterate`` holds what the drivers share.

    A step selects q among the nearest points of ``source(x)``, records,
    and moves to ``advance(x, q, source(x))``.  ``verdict`` may end the
    run from the records; ``watch`` feeds the cycle detector.
    """

    tag = ""
    norm_capped = True      # stop when |x| exceeds NORM_CAP

    def __init__(self, constraint, cfg: SolverConfig):
        self.constraint, self.cfg = constraint, cfg

    def source(self, x):
        return x

    def record(self, k, x, q) -> IterateRecord:
        c = self.constraint
        if isinstance(c, HalfSpace):
            return _halfspace_record(k, x, q, c.a, c.b)
        dx, dq = c._distance(x), c._distance(q)
        return IterateRecord(k, x.copy(), q.copy(), dx, dq, dx)

    def verdict(self, records) -> Optional[RunOutcome]:
        return None

    def watch(self, cyc: _CycleDetector, x, q, k) -> Optional[tuple[int, int]]:
        return cyc.add(x, k)


class _HalfSpaceSplit(_Strategy):
    """The case-split step against a half-space, with divergence detection."""

    tag = "dr"

    def __init__(self, proj_set: ProjectableSet, hs: HalfSpace, cfg: SolverConfig):
        super().__init__(hs, cfg)
        self.proj_set, self.div = proj_set, _DivergenceDetector(hs, cfg)

    def record(self, k, x, q):
        return _halfspace_record(k, x, q, self.constraint.a, self.constraint.b)

    def verdict(self, records):
        cert = self.div.push(records[-1])
        if cert is None:
            return None
        if _ray_stable(self.proj_set, cert.q_fixed, self.constraint):
            return Diverging(cert, _beta_estimate(records, self.cfg.window))
        self.div.block(cert.q_fixed)
        return None

    def advance(self, x, q, src):
        return _step(x, q, self.constraint.a, self.constraint.b, self.cfg.eps_h)


class _TwoSetStep(_Strategy):
    """x' = (x + R_A(2q - x)) / 2 (set-first), or x' = (x + 2q - R_A(x)) / 2
    with q a nearest point of R_A(x) (constraint-first)."""

    tag = "dr-generic"

    def __init__(self, constraint, cfg: SolverConfig):
        super().__init__(constraint, cfg)
        self.set_first = cfg.reflect_order == "set-first"

    def source(self, x):
        return x if self.set_first else self.constraint._reflect(x)

    def advance(self, x, q, src):
        if self.set_first:
            return 0.5 * (x + self.constraint._reflect(2.0 * q - x))
        return 0.5 * (x + 2.0 * q - src)


class _Alternating(_Strategy):
    """x_{k+1} = P_A(q_k), watched over the half-steps x_0, q_0, x_1, ..."""

    tag = "ap"
    norm_capped = False

    def watch(self, cyc, x, q, k):
        hit = cyc.add(x, 2 * k, tag="x")
        return hit if hit is not None else cyc.add(q, 2 * k + 1, tag="q")

    def advance(self, x, q, src):
        return self.constraint._project(q)


def _iterate(proj_set: ProjectableSet, constraint, x0, cfg: SolverConfig,
             strategy: _Strategy) -> tuple[Trace, RunOutcome]:
    """The loop of every driver: stop rule, detectors, caps and the trace."""
    x = as_point(x0, constraint.dim)
    if proj_set.dim != constraint.dim:
        raise DimensionMismatchError(f"set has dimension {proj_set.dim}, "
                                     f"constraint has dimension {constraint.dim}")
    fp = _fingerprint(strategy.tag, proj_set.key(), constraint.key(),
                      x.tobytes(), cfg.key())
    rule, eps_h, max_iter = cfg.tie_rule, cfg.eps_h, cfg.max_iter
    norm_cap = NORM_CAP if strategy.norm_capped else math.inf
    rng = np.random.default_rng(cfg.seed) if rule == "random" else None
    records: list[IterateRecord] = []
    cyc = _CycleDetector(cfg.eps_cycle, confirm=True)
    outcome: Optional[RunOutcome]
    k = 0
    while True:
        src = strategy.source(x)
        try:
            ties = proj_set.project_all(src)
        except DegenerateProjectionError:
            outcome = DegenerateProjection(at_index=k)
            break
        q = _select(ties, k, rule, rng)
        rec = strategy.record(k, x, q)
        records.append(rec)
        if rec.d_qH <= eps_h:
            outcome = Solved(q=q.copy(), iterations=k)
            break
        outcome = strategy.verdict(records)
        if outcome is not None:
            break
        hit = strategy.watch(cyc, x, q, k)
        if hit is not None:
            outcome = CycleDetected(period=hit[0], first_index=hit[1])
            break
        if k >= max_iter:
            outcome = MaxIterations(rec.d_qH, _beta_estimate(records, cfg.window))
            break
        # math.sqrt(x.dot(x)) is np.linalg.norm(x) for a 1-D float array.
        if math.sqrt(float(x.dot(x))) > norm_cap:
            outcome = MaxIterations(
                rec.d_qH, _beta_estimate(records, cfg.window), norm_capped=True
            )
            break
        x = strategy.advance(x, q, src)
        k += 1
    return Trace(tuple(records), fp), outcome


def run_dr(proj_set: ProjectableSet, hs: HalfSpace, x0,
           cfg: SolverConfig = SolverConfig()) -> tuple[Trace, RunOutcome]:
    """Iterate the half-space case-split operator until q_k enters H.

    Stops Solved as soon as the selected projection is within eps_h of
    membership; otherwise runs the divergence and cycle detectors each
    step, falling back to MaxIterations.
    """
    return _iterate(proj_set, hs, x0, cfg, _HalfSpaceSplit(proj_set, hs, cfg))


def run_dr_generic(constraint, proj_set: ProjectableSet, x0,
                   cfg: SolverConfig = SolverConfig()) -> tuple[Trace, RunOutcome]:
    """Two-set Douglas-Rachford for an arbitrary reflectable constraint.

    With a half-space constraint and the default set-first order this is
    exactly ``run_dr`` (same code path, identical traces).  Solved requires
    the tie-selected q to lie in both sets within eps_h.
    """
    if isinstance(constraint, HalfSpace) and cfg.reflect_order == "set-first":
        return run_dr(proj_set, constraint, x0, cfg)
    return _iterate(proj_set, constraint, x0, cfg, _TwoSetStep(constraint, cfg))


def run_ap(proj_set: ProjectableSet, constraint, x0,
           cfg: SolverConfig = SolverConfig()) -> tuple[Trace, RunOutcome]:
    """Alternating projections x_{k+1} in P_A(P_Q(x_k)).

    Cycle detection runs over the half-step sequence x_0, q_0, x_1, q_1,
    ... so the classic two-point bounce between a set point and its
    constraint projection is reported with period 2 (period and
    first_index are counted in half-steps).
    """
    return _iterate(proj_set, constraint, x0, cfg, _Alternating(constraint, cfg))
