"""Douglas-Rachford and alternating-projection iteration drivers.

``run_dr`` iterates the half-space case-split operator, ``run_dr_generic``
pairs an arbitrary single-valued constraint with a projectable set, and
``run_ap`` alternates projections.  All three are one loop, ``_iterate``,
with a different step strategy.  Every run records a full trace and runs
cycle detection; the half-space strategy also watches for the structural
linear-divergence pattern (constant infeasible auxiliary point, iterates
marching along the inward normal by a fixed increment).

A march outlasting the window is declared ``Diverging`` only if its q
attains m = min over Q of <a,p> (the set's ``min_along``, computed once)
and m > b: then it never hands over, and Q misses H.  Nothing is probed.

The trace is stored as columns: each step appends x, q and its three
distances to growable float64 arrays, 8 bytes per coordinate and
distance (56 B per step in 2-D, plus the arrays' spare capacity).
``IterateRecord`` objects and the run's fingerprint are built only when
first read: ``Trace.records`` builds and caches every record,
``trace[i]`` builds record i alone.

Points are checked once, when a driver starts: x0, and that the set and
the constraint share a dimension.  In the loop the one point check is the
set's ``project_all``, which also rejects an iterate that has overflowed.
``SolverConfig`` checks its own values (``drfeas.problems.SETTINGS`` names
them for users).  DR runs end as MaxIterations once |x| > ``NORM_CAP``.
"""

from __future__ import annotations

import hashlib
import math
from array import array
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


class Trace:
    """The steps of one run, stored as columns.

    ``x`` and ``q`` are (n, dim) arrays, ``d_xH``, ``d_qH`` and ``d_xL``
    length-n arrays; all five are read-only views of the columns.
    ``records``, ``trace[i]`` and iteration give ``IterateRecord`` objects
    with their own copies of x and q.  ``fingerprint`` hashes the run's
    inputs (driver tag, set and constraint keys, x0, settings) when first
    read.
    """

    __slots__ = ("dim", "_cols", "_fingerprint_parts", "_fingerprint",
                 "_records")

    def __init__(self, dim: int, fingerprint_parts: tuple):
        self.dim = dim
        # x, q (flattened row by row), d_xH, d_qH, d_xL
        self._cols = (array("d"), array("d"), array("d"), array("d"),
                      array("d"))
        self._fingerprint_parts = fingerprint_parts
        self._fingerprint: Optional[str] = None
        self._records: Optional[tuple[IterateRecord, ...]] = None

    def _view(self, i: int) -> np.ndarray:
        v = np.frombuffer(memoryview(self._cols[i]).toreadonly(), np.float64)
        return v.reshape(-1, self.dim) if i < 2 else v

    x = property(lambda self: self._view(0))
    q = property(lambda self: self._view(1))
    d_xH = property(lambda self: self._view(2))
    d_qH = property(lambda self: self._view(3))
    d_xL = property(lambda self: self._view(4))

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            self._fingerprint = _fingerprint(*self._fingerprint_parts)
        return self._fingerprint

    @property
    def records(self) -> tuple[IterateRecord, ...]:
        if self._records is None:
            xs, qs, dxH, dqH, dxL = self._cols
            self._records = tuple(map(
                IterateRecord, range(len(self)),
                np.array(xs).reshape(-1, self.dim),
                np.array(qs).reshape(-1, self.dim), dxH, dqH, dxL))
        return self._records

    def __len__(self) -> int:
        return len(self._cols[2])

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(len(self))[i]))
        k = range(len(self))[i]
        _, _, dxH, dqH, dxL = self._cols
        return IterateRecord(k, self.x[k].copy(), self.q[k].copy(),
                             dxH[k], dqH[k], dxL[k])


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
    """Q misses H.  ``support`` is m = min over Q of <a,p>; the witness
    m > b with <a, certificate.q_fixed> = m needs only Q and H to check."""

    certificate: DivergenceCertificate
    beta_estimate: float
    support: float


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
    if float(a.dot(2.0 * q - x)) <= b + eps_h:
        return q.copy()
    return q + (float(a.dot(x)) + b - 2.0 * float(a.dot(q))) * a


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
    """Watches for the constant-q, fixed-increment march out of the half-space.

    The streak is kept as raw values: its length and first step, the
    previous step's x and q, and the x of every streak step in one flat
    float64 array, from which a certificate's offsets are read.
    """

    def __init__(self, hs: HalfSpace, cfg: SolverConfig):
        self.hs = hs
        self.cfg = cfg
        self.length = 0
        self.start = 0
        self.xs = array("d")
        self.last_x: Optional[np.ndarray] = None
        self.last_q: Optional[np.ndarray] = None

    def _extends(self, x, q, d_xH: float, d_qH: float) -> bool:
        if d_xH > self.cfg.eps_h or d_qH <= self.cfg.eps_h:
            return False
        if not self.length:
            return True
        if not np.abs(q - self.last_q).max() <= self.cfg.eps_cycle:
            return False
        inc = d_qH  # q is outside H here, so d(q,H) = d(q,L)
        step = x - self.last_x
        return bool(np.abs(step + inc * self.hs.a).max() <= self.cfg.eps_cycle)

    def observe(self, k: int, x: np.ndarray, q: np.ndarray, d_xH: float,
                d_qH: float) -> bool:
        """Take step k; whether the streak now outlasts the window."""
        if self._extends(x, q, d_xH, d_qH):
            if not self.length:
                self.start, self.xs = k, array("d")
            self.length += 1
            self.xs.extend(x.tolist())
        elif d_xH <= self.cfg.eps_h and d_qH > self.cfg.eps_h:
            self.length, self.start, self.xs = 1, k, array("d", x.tolist())
        else:
            self.length = 0
        self.last_x, self.last_q = x, q
        return self.length > self.cfg.window

    def certificate(self, q: np.ndarray, d_qH: float) -> DivergenceCertificate:
        """The current streak's certificate, q and d_qH of its last step."""
        a = self.hs.a
        xs = np.array(self.xs).reshape(self.length, -1)
        offsets = tuple(float(a @ (q - x_i)) for x_i in xs[1:])
        return DivergenceCertificate(
            q_fixed=q.copy(),
            increment=d_qH,
            start_index=self.start,
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
        if det.observe(rec.k, rec.x, rec.q, rec.d_xH, rec.d_qH):
            return det.certificate(rec.q, rec.d_qH)
    return None


def _fingerprint(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _halfspace_distances(x: np.ndarray, q: np.ndarray, a: np.ndarray,
                         b: float) -> tuple[float, float, float]:
    vx, vq = float(a.dot(x)) - b, float(a.dot(q)) - b  # HalfSpace._value
    return max(0.0, vx), max(0.0, vq), abs(vx)


def _beta_estimate(d_qH, window: int) -> float:
    """The least d(q,H) over the last ``window`` steps of a d_qH column."""
    return min(d_qH[-window:])


class _Strategy:
    """One driver's step; ``_iterate`` holds what the drivers share.

    A step selects q among the nearest points of ``source(x)``, records
    x, q and their ``distances``, and moves to ``advance(x, q, source(x))``.
    ``verdict`` may end the run from the step's values and the d_qH
    column; ``watch`` feeds the cycle detector.
    """

    tag = ""
    norm_capped = True      # stop when |x| exceeds NORM_CAP

    def __init__(self, constraint, cfg: SolverConfig):
        self.constraint, self.cfg = constraint, cfg

    def source(self, x):
        return x

    def distances(self, x, q) -> tuple[float, float, float]:
        """(d_xH, d_qH, d_xL) of ``IterateRecord``."""
        c = self.constraint
        if isinstance(c, HalfSpace):
            return _halfspace_distances(x, q, c.a, c.b)
        dx = c._distance(x)
        return dx, c._distance(q), dx

    def verdict(self, k, x, q, d_xH, d_qH, d_qH_col) -> Optional[RunOutcome]:
        return None

    def watch(self, cyc: _CycleDetector, x, q, k) -> Optional[tuple[int, int]]:
        return cyc.add(x, k)


class _HalfSpaceSplit(_Strategy):
    """The case-split step against a half-space, with divergence detection."""

    tag = "dr"

    def __init__(self, proj_set: ProjectableSet, hs: HalfSpace, cfg: SolverConfig):
        super().__init__(hs, cfg)
        self.proj_set, self.div = proj_set, _DivergenceDetector(hs, cfg)
        self.support: Optional[float] = None

    def distances(self, x, q):
        return _halfspace_distances(x, q, self.constraint.a, self.constraint.b)

    def verdict(self, k, x, q, d_xH, d_qH, d_qH_col):
        if not self.div.observe(k, x, q, d_xH, d_qH):
            return None
        hs = self.constraint
        if self.support is None:
            self.support = self.proj_set.min_along(hs.a)
        m = self.support
        if float(hs.a.dot(q)) - m > self.cfg.eps_cycle or not m > hs.b:
            return None
        return Diverging(self.div.certificate(q, d_qH),
                         _beta_estimate(d_qH_col, self.cfg.window), m)

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
    trace = Trace(x.size, (strategy.tag, proj_set.key(), constraint.key(),
                           x.tobytes(), cfg.key()))
    xs, qs, d_xH_col, d_qH_col, d_xL_col = trace._cols
    rule, eps_h, max_iter = cfg.tie_rule, cfg.eps_h, cfg.max_iter
    norm_cap = NORM_CAP if strategy.norm_capped else math.inf
    rng = np.random.default_rng(cfg.seed) if rule == "random" else None
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
        d_xH, d_qH, d_xL = strategy.distances(x, q)
        xs.extend(x.tolist())
        qs.extend(q.tolist())
        d_xH_col.append(d_xH)
        d_qH_col.append(d_qH)
        d_xL_col.append(d_xL)
        if d_qH <= eps_h:
            outcome = Solved(q=q.copy(), iterations=k)
            break
        outcome = strategy.verdict(k, x, q, d_xH, d_qH, d_qH_col)
        if outcome is not None:
            break
        hit = strategy.watch(cyc, x, q, k)
        if hit is not None:
            outcome = CycleDetected(period=hit[0], first_index=hit[1])
            break
        if k >= max_iter:
            outcome = MaxIterations(d_qH, _beta_estimate(d_qH_col, cfg.window))
            break
        # math.sqrt(x.dot(x)) is np.linalg.norm(x) for a 1-D float array.
        if math.sqrt(float(x.dot(x))) > norm_cap:
            outcome = MaxIterations(
                d_qH, _beta_estimate(d_qH_col, cfg.window), norm_capped=True
            )
            break
        x = strategy.advance(x, q, src)
        k += 1
    return trace, outcome


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
