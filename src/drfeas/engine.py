"""Douglas-Rachford and alternating-projection iteration drivers.

``run_dr`` iterates the half-space case-split operator, ``run_dr_generic``
pairs an arbitrary single-valued constraint with a projectable set, and
``run_ap`` alternates projections.  All three are one loop, ``_iterate``,
with a different step strategy, whose four hooks each step calls:
``nearest``, ``distances``, ``verdict`` and ``advance``.  Each step takes
q, the first nearest point in ``project_all``'s order.  Every run records
a full trace.  The two-set and alternating runs detect cycles; the
half-space run cannot cycle (it reaches a point of Q in H or diverges)
and counts the march: witness steps, with x in H and q outside H
attaining m = min over Q of <a,p> (the set's ``min_along``, computed
once) up to ``WITNESS_TOL`` * max(1, |m|).  There <a,2q-x> > b, so each
step is exactly x - d(q,H)*a.

A march of more than ``SolverConfig.window`` steps is ``Diverging`` if
m > b: then it never hands over, and Q misses H.  Nothing is probed.
The certificate's offsets are read from the trace's x column.

The trace is stored as columns: each step appends x, q and its three
distances to growable float64 arrays, 8 bytes per coordinate and
distance (56 B per step in 2-D, plus the arrays' spare capacity).
The program reads a run from these columns.  ``Trace.records``, the
tuple of ``IterateRecord`` objects, and the run's fingerprint are built
when first read and cached.

Points are checked once, when a driver starts: x0, and that the set and the
constraint share a dimension.  In the loop each new x's squared norm, which
the norm cap reads, is tested before x is projected: an x whose squared norm
is not finite ends the run as MaxIterations(norm_capped=True), with the last
recorded d_qH, in every driver.  The set's ``project_all`` checks its point
again; ``run_dr`` skips it inside a constant-q segment.  Every step leaves x on
q's ray x = q - lam*a at a known lam: -s of x = q + s*a after the outside
case, 0 after the inside case (x = q).  The set's ``ray_hold`` is asked once
per unique q, on the step after q's own, and q is reused while 0 <= lam <
the hold, a test false for NaN (finite, triadic and knapsack sets hold).
Each held step is the outside case and lam grows by d(q,H), so from
``_SEGMENT_MIN`` steps on the segment is appended at once, lam rounded once
per row (``_HalfSpaceSplit._segment``).  Its decisions are those the
per-step tests take on its rows, none of them within the rounding margin
c*(3|q| + lam), c = 8(n+2)*2**-53.  Against a run that projects every step,
x, d_xH and d_xL differ by rounding, at row k by at most c times the sum
over rows i <= k of |q_i| + |x_i| + |b|; the decisions, and so the q and
d_qH columns, could differ only where a test falls within that rounding of
its threshold, and are equal on every run the tests compare.
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

from .geometry import DimensionMismatchError, HalfSpace, _point, as_point
from .sets import DegenerateProjectionError, ProjectableSet, _integer

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
    "dr_step_rows",
    "run_ap",
    "run_dr",
    "run_dr_generic",
]

REFLECT_ORDERS = ("set-first", "constraint-first")
NORM_CAP = 1e12     # fallback bailout when no certificate forms
WITNESS_TOL = 1e-9  # a witness step's <a,q> - m, relative to max(1, |m|)
# Per (n + 2): with |a| = 1, bounds the rounding of <a,u> - <a,v> against
# <a,u - v> in n dimensions, relative to |u| + |v|.
_ROUNDING = 8 * 2.0 ** -53
# run_dr appends a held segment at once from this many steps on.  Timed
# against stepping it, one hold of L steps, best of 400: L = 3 lost 4 us
# in 2-D, L = 4 saved 4-7 us in 2-D and 11 us in 14-D.
_SEGMENT_MIN = 4


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters; all runs are deterministic given (inputs, config)."""

    max_iter: int = 10000
    eps_h: float = 1e-9          # membership tolerance for the stopping rule
    eps_cycle: float = 1e-9      # cycle grid of the two-set and AP runs
    reflect_order: str = "set-first"
    window = 25     # a constant, not a field: march steps before Diverging

    def __post_init__(self):
        if _integer(self.max_iter, "max_iter") < 1:
            raise ValueError("max_iter must be >= 1")
        if not all(0 < e < math.inf and not isinstance(e, bool)
                   for e in (self.eps_h, self.eps_cycle)):
            raise ValueError("tolerances must be positive finite numbers")
        if self.reflect_order not in REFLECT_ORDERS:
            raise ValueError(f"reflect_order must be one of {REFLECT_ORDERS}")

    def key(self) -> tuple:
        # every field, then NORM_CAP: a two-set run's fingerprint covers
        # each setting
        return (*vars(self).values(), NORM_CAP)


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
    ``records`` gives ``IterateRecord`` objects with their own copies of x
    and q, built once and cached.  ``fingerprint`` hashes the run's inputs
    (driver tag, set and constraint keys, x0, settings) when first read.
    """

    __slots__ = ("dim", "_cols", "_inputs", "_fingerprint", "_records")

    def __init__(self, dim: int, inputs: tuple):
        self.dim = dim
        # x, q (flattened row by row), d_xH, d_qH, d_xL
        self._cols = (array("d"), array("d"), array("d"), array("d"),
                      array("d"))
        self._inputs = inputs   # keyed when the fingerprint is first read
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
            tag, proj_set, constraint, x0, key, cfg = self._inputs
            self._fingerprint = _fingerprint(tag, proj_set.key(),
                                             constraint.key(), x0, key(cfg))
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


@dataclass(frozen=True)
class DivergenceCertificate:
    """Observed pattern x_{k+1} - x_k = -increment * a, q attaining m.

    ``q_fixed`` and ``increment`` are the last march step's q and d(q,H).
    ``offsets`` holds the cumulative displacement lambda_k = <a, q_fixed -
    x_{k+1}> along the normal, one entry per certified step starting at
    ``start_index``.
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
    support: float


@dataclass(frozen=True)
class CycleDetected:
    period: int
    first_index: int


@dataclass(frozen=True)
class MaxIterations:
    final_dist: float
    norm_capped: bool = False


@dataclass(frozen=True)
class DegenerateProjection:
    at_index: int


RunOutcome = Union[Solved, Diverging, CycleDetected, MaxIterations, DegenerateProjection]


def dr_step(x, q, hs: HalfSpace, eps_h: float = 1e-9) -> np.ndarray:
    """One Douglas-Rachford step for a half-space given the selected q.

    Case split: q when <a, 2q - x> <= b (+ eps_h), otherwise
    q + (<a,x> + b - 2<a,q>) a, which equals (x + R_H(2q - x)) / 2.
    ``dr_step_rows`` is its row form, equal to it bit for bit on every row
    (``tests/test_engine.py::TestDrStepRows``); this scalar body stays
    because a one-row call of the row form costs two to three times as much.
    """
    return _dr_step(as_point(x, hs.dim), as_point(q, hs.dim), hs, eps_h)


def _dr_step(x, q, hs: HalfSpace, eps_h: float = 1e-9) -> np.ndarray:
    """``dr_step`` on contiguous float arrays x and q of hs's dimension,
    unchecked: for callers that built them."""
    a, b = hs.a, hs.b
    if float(a.dot(2.0 * q - x)) <= b + eps_h:
        return q.copy()
    return q + (float(a.dot(x)) + b - 2.0 * float(a.dot(q))) * a


def dr_step_rows(x, q, a, b) -> np.ndarray:
    """``dr_step`` (default eps_h) on each row of (k, n) float stacks x, q
    and unit normals a, with offsets b of shape (k,); inputs unchecked."""
    keep = _dots(a, 2.0 * q - x) <= b + 1e-9
    s = _dots(a, x) + b - 2.0 * _dots(a, q)
    return np.where(keep[:, None], q, q + s[:, None] * a)


def _dots(a, x):
    """<a_i, x_i> for each row, bit for bit ``a_i.dot(x_i)`` (the same BLAS
    dot on the same n; zero padding could change its blocking)."""
    return (a[:, None, :] @ x[:, :, None])[:, 0, 0]


def dr_step_generic(x, constraint, proj_set: ProjectableSet,
                    cfg: SolverConfig):
    """One generic two-set step; returns (next iterate, q used).

    set-first reflects the projectable set before the constraint,
    x' = (x + R_A(2q - x)) / 2 with q the first nearest point of x;
    constraint-first swaps the roles, with q the first nearest point of R_A(x).
    """
    x = as_point(x, constraint.dim)
    step = _TwoSetStep(proj_set, constraint, cfg)
    q, src = step.nearest(x)
    return step.advance(0, x, q, src, None)[1], q


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


def _march(length: int, aq: float, d_xH: float, d_qH: float, hs: HalfSpace,
           m: float, eps_h: float, tol: float, window: int) -> tuple[int, bool]:
    """The march rule, one step: the march's new length, and whether it
    is now ``Diverging``.

    A witness step has x in H, q outside H and <a,q> (``aq``) - m within
    ``tol`` * max(1, |m|), m being min over Q of <a,p>.  The march counts
    consecutive witness steps; it is Diverging once it outlasts ``window``
    steps and m > b.
    """
    if d_xH > eps_h or d_qH <= eps_h or aq - m > tol * max(1.0, abs(m)):
        return 0, False
    return length + 1, length >= window and m > hs.b


def _certificate(hs: HalfSpace, k: int, length: int, q: np.ndarray,
                 d_qH: float, xs) -> DivergenceCertificate:
    """The certificate of a march of ``length`` steps ending at step k:
    its q and d_qH, and offsets from the x of each later march step
    (``xs`` holds the x of steps 0..k)."""
    return DivergenceCertificate(
        q_fixed=q.copy(),
        increment=d_qH,
        start_index=k + 1 - length,
        offsets=tuple(float(hs.a @ (q - x_i)) for x_i in xs[1 - length:]),
    )


def detect_linear_divergence(records, hs: HalfSpace,
                             window: int = SolverConfig.window,
                             eps_h: float = 1e-9,
                             eps_cycle: float = WITNESS_TOL, *,
                             support: float = -math.inf,
                             ) -> Optional[DivergenceCertificate]:
    """Scan a recorded trace for the march ``run_dr`` certifies.

    ``eps_cycle`` is the witness tolerance; the defaults are ``run_dr``'s.
    ``support`` is m = min over Q of <a,p> (the set's ``min_along``); the
    default, an unknown bound, certifies nothing.
    """
    length, xs = 0, []
    for rec in records:
        xs.append(rec.x)
        length, diverging = _march(length, float(hs.a.dot(rec.q)), rec.d_xH,
                                   rec.d_qH, hs, support, eps_h, eps_cycle,
                                   window)
        if diverging:
            return _certificate(hs, rec.k, length, rec.q, rec.d_qH, xs)
    return None


def _fingerprint(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


class _Strategy:
    """One driver's step; ``_iterate`` holds what the drivers share.

    ``_iterate`` calls four hooks per step k.  ``nearest(x)`` gives q, the
    first nearest point of the point it projects, and that point (src);
    ``distances(x, q)`` gives the record's d_xH, d_qH and d_xL and q as a
    list; ``verdict(k, x, q, d_xH, d_qH, trace)`` may end the run, by
    default on a confirmed cycle of x on the eps_cycle grid; ``advance(k,
    x, q, src, trace)`` gives the step and x the loop resumes at.  ``tag``
    and ``key(cfg)``, the settings the run reads, go into the fingerprint;
    the run ends once |x| > ``cap``.  The cycle detector is built at the
    first verdict, so a run solved at step 0 builds none.
    """

    tag, cap = "", NORM_CAP
    key = staticmethod(lambda cfg: cfg.key())

    def __init__(self, proj_set: ProjectableSet, constraint, cfg: SolverConfig):
        self.proj_set, self.constraint = proj_set, constraint
        self.eps_cycle = cfg.eps_cycle

    def nearest(self, x) -> tuple[np.ndarray, np.ndarray]:
        return self.proj_set.project_all(x)[0], x

    def distances(self, x, q) -> tuple[float, float, float, list]:
        c = self.constraint
        if isinstance(c, HalfSpace):
            vx, vq = c._value(x), c._value(q)
            return max(0.0, vx), max(0.0, vq), abs(vx), q.tolist()
        dx = c._distance(x)
        return dx, c._distance(q), dx, q.tolist()

    def verdict(self, k, x, q, d_xH, d_qH, trace) -> Optional[RunOutcome]:
        if not k:
            self.cycles = _CycleDetector(self.eps_cycle, confirm=True)
        hit = self.cycles.add(x, k)
        return hit and CycleDetected(*hit)


class _HalfSpaceSplit(_Strategy):
    """The case-split step against a half-space, with the march rule in
    place of the cycle detector.  Each step leaves x = q - lam*a with lam
    known: -s after the outside case, 0 after the inside case.  The hold
    is asked once per unique q, after q's own step, and q is held while 0
    <= lam < the set's ``ray_hold``."""

    tag = "dr"
    key = staticmethod(lambda cfg: (cfg.max_iter, cfg.eps_h, NORM_CAP))

    def __init__(self, proj_set: ProjectableSet, hs: HalfSpace, cfg: SolverConfig):
        self.proj_set, self.constraint, self.cfg = proj_set, hs, cfg
        self.length, self.support = 0, None
        self.q, self.hold = None, 0.0   # the last q if unique; its ray_hold
        self.lam = 0.0                  # of x = q - lam*a, after every step
        self.c, self.top = _ROUNDING * (hs.dim + 2), hs.b + cfg.eps_h

    def nearest(self, x):
        a = self.constraint.a
        self.ax = float(a.dot(x))
        if self.hold is None:   # None: q's own step put x on its ray
            self.hold = self.proj_set.ray_hold(self.q, a)
        if 0.0 <= self.lam < self.hold:     # false if x overflowed
            return self.q, x
        ties = self.proj_set.project_all(x)
        q, unique = ties[0], len(ties) == 1
        if unique and self.q is not None and q.tobytes() == self.q.tobytes():
            return self.q, x
        self.q, self.hold = (q, None) if unique else (None, 0.0)
        self.aq, self.row = float(a.dot(q)), q.tolist()
        return q, x

    def distances(self, x, q):
        b = self.constraint.b
        vx = self.ax - b
        return max(0.0, vx), max(0.0, self.aq - b), abs(vx), self.row

    def verdict(self, k, x, q, d_xH, d_qH, trace):
        hs = self.constraint
        if self.support is None:        # m, at the first step with x in H
            if d_xH > self.cfg.eps_h:
                return None
            self.support = self.proj_set.min_along(hs.a)
        m = self.support
        self.length, diverging = _march(self.length, self.aq, d_xH, d_qH,
                                        hs, m, self.cfg.eps_h, WITNESS_TOL,
                                        SolverConfig.window)
        if not diverging:
            return None
        return Diverging(_certificate(hs, k, self.length, q, d_qH, trace.x), m)

    def advance(self, k, x, q, src, trace):
        # dr_step's, with <a,x> and <a,q> as computed for the distances
        a = self.constraint.a
        if float(a.dot(2.0 * q - x)) <= self.top:
            self.lam = 0.0              # x' = q
            return k + 1, q.copy()
        s = self.ax + self.constraint.b - 2.0 * self.aq
        self.lam = -s                   # x' = q - lam*a on q's ray
        if not self.hold:               # unknown or 0: one step
            return k + 1, q + s * a
        return self._segment(k + 1, q + s * a, trace)

    def _segment(self, k, x, trace):
        """Append held steps k, k+1, ..., x_j = q - (lam_0 + j*v)*a, v =
        d_qH, up to the least count to: the hold; ``max_iter``; |x_j| >
        ``NORM_CAP``; x in H with m unknown (0); the window, q a witness
        and m > b; a case or witness-membership test within the margin
        (0 or none: lam only moves them clear).  Stores the lam of the
        row it resumes at."""
        lam, m = self.lam, self.support
        if m is None:
            return k, x
        hs, eps_h, c = self.constraint, self.cfg.eps_h, self.c
        nq, aq = math.hypot(*self.row), self.aq
        v, t = aq - hs.b, c * (3.0 * nq + lam) + 1e-300
        # false for NaN too
        if not (self.hold - lam >= _SEGMENT_MIN * v and v + lam - t > eps_h):
            return k, x
        n = self.cfg.max_iter - k
        witness = aq - m <= WITNESS_TOL * max(1.0, abs(m))
        if witness:
            if v - lam + t > eps_h:
                return k, x
            if m > hs.b:
                n = min(n, SolverConfig.window - self.length)
        # |x_j| <= (1 - 16c) NORM_CAP for lam_j between the roots aq -+ w of
        # |q - lam*a|^2 = |q|^2 - 2 lam <a,q> + lam^2: room for the roots'
        # rounding and the per-step norm's
        cap = NORM_CAP * (1.0 - 16.0 * c)
        w = math.sqrt(max(0.0, cap * cap - nq * nq + aq * aq))
        end = min(self.hold, aq + w)
        n = int(min(n, (end - lam) // v + 2))   # at least the count below end
        if n < _SEGMENT_MIN or not lam >= aq - w:
            return k, x
        lams = np.arange(n + 1) * v + lam
        n = int(np.searchsorted(lams[:n], end))     # the lam_j < end
        self.lam = float(lams[n])
        xs = np.multiply.outer(lams, -hs.a)     # q - lam*a as q + s*a rounds
        xs += self.q
        cols, x = trace._cols, xs[n].copy()
        cols[0].frombytes(xs[:n].data.cast("B"))
        del xs          # each temporary freed before the next: peak memory
        cols[1].frombytes(self.q.tobytes() * n)
        d = np.subtract(v, lams[:n], out=lams[:n])      # <a,x_j> - b
        cols[2].frombytes(np.where(d > 0.0, d, 0.0).data.cast("B"))
        cols[3].frombytes(np.full(n, v).data.cast("B"))
        cols[4].frombytes(np.abs(d, out=d).data.cast("B"))
        self.length = self.length + n if witness else 0
        return k + n, x


class _TwoSetStep(_Strategy):
    """x' = (x + R_A(2q - x)) / 2 (set-first), or x' = (x + 2q - R_A(x)) / 2
    with q a nearest point of R_A(x) (constraint-first)."""

    tag = "dr-generic"

    def __init__(self, proj_set: ProjectableSet, constraint, cfg: SolverConfig):
        super().__init__(proj_set, constraint, cfg)
        self.set_first = cfg.reflect_order == "set-first"

    def nearest(self, x):
        src = x if self.set_first else self.constraint._reflect(x)
        return self.proj_set.project_all(src)[0], src

    def advance(self, k, x, q, src, trace):
        if self.set_first:
            return k + 1, 0.5 * (x + self.constraint._reflect(2.0 * q - x))
        return k + 1, 0.5 * (x + 2.0 * q - src)


class _Alternating(_Strategy):
    """x_{k+1} = P_A(q_k), watched over the half-steps x_0, q_0, x_1, ..."""

    tag, cap = "ap", math.inf   # its key holds no order or cap
    key = staticmethod(lambda cfg: (cfg.max_iter, cfg.eps_h, cfg.eps_cycle))

    def verdict(self, k, x, q, d_xH, d_qH, trace):
        if not k:
            self.cycles = _CycleDetector(self.eps_cycle, confirm=True)
        hit = (self.cycles.add(x, 2 * k, tag="x")
               or self.cycles.add(q, 2 * k + 1, tag="q"))
        return hit and CycleDetected(*hit)

    def advance(self, k, x, q, src, trace):
        return k + 1, self.constraint._project(q)


def _iterate(strategy: _Strategy, x0, cfg: SolverConfig) -> tuple[Trace, RunOutcome]:
    """The loop of every driver: stop rule, detectors, caps and the trace."""
    proj_set, constraint = strategy.proj_set, strategy.constraint
    x, xx = _point(x0, constraint.dim)
    if not math.isfinite(xx):  # every squared distance would be inf
        raise ValueError("start point's squared norm overflows")
    if proj_set.dim != constraint.dim:
        raise DimensionMismatchError(f"set has dimension {proj_set.dim}, "
                                     f"constraint has dimension {constraint.dim}")
    trace = Trace(x.size, (strategy.tag, proj_set, constraint, x.tobytes(),
                           strategy.key, cfg))
    xs, qs, d_xH_col, d_qH_col, d_xL_col = trace._cols
    eps_h, max_iter = cfg.eps_h, cfg.max_iter
    outcome: Optional[RunOutcome]
    k = 0
    while True:
        try:
            q, src = strategy.nearest(x)
        except DegenerateProjectionError:
            outcome = DegenerateProjection(at_index=k)
            break
        d_xH, d_qH, d_xL, q_row = strategy.distances(x, q)
        xs.extend(x.tolist())
        qs.extend(q_row)
        d_xH_col.append(d_xH)
        d_qH_col.append(d_qH)
        d_xL_col.append(d_xL)
        if d_qH <= eps_h:   # q is a fresh array by project_all's rule
            outcome = Solved(q=q, iterations=k)
            break
        outcome = strategy.verdict(k, x, q, d_xH, d_qH, trace)
        if outcome is not None:
            break
        if k >= max_iter:
            outcome = MaxIterations(d_qH)
            break
        # math.sqrt(x.dot(x)) is np.linalg.norm(x) for a 1-D float array.
        if math.sqrt(xx) > strategy.cap:
            outcome = MaxIterations(d_qH, norm_capped=True)
            break
        k, x = strategy.advance(k, x, q, src, trace)
        xx = x.dot(x)
        if not math.isfinite(xx):   # x overflowed: end before projecting it
            outcome = MaxIterations(d_qH, norm_capped=True)
            break
    return trace, outcome


def run_dr(proj_set: ProjectableSet, hs: HalfSpace, x0,
           cfg: SolverConfig = SolverConfig()) -> tuple[Trace, RunOutcome]:
    """Iterate the half-space case-split operator until q_k enters H.

    Stops Solved as soon as the selected projection is within eps_h of
    membership.  Otherwise it ends Diverging on a march of witness steps,
    or MaxIterations; never CycleDetected, since against a half-space no
    orbit repeats.  It reads neither ``eps_cycle``, the cycle grid, nor
    ``reflect_order``, and its fingerprint holds neither.  Inside a
    constant-q segment q is reused while the set's ``ray_hold`` allows,
    and a long one is appended in closed form, x within rounding.
    """
    return _iterate(_HalfSpaceSplit(proj_set, hs, cfg), x0, cfg)


def run_dr_generic(constraint, proj_set: ProjectableSet, x0,
                   cfg: SolverConfig = SolverConfig()) -> tuple[Trace, RunOutcome]:
    """Two-set Douglas-Rachford for an arbitrary reflectable constraint.

    With a half-space constraint and the default set-first order this is
    exactly ``run_dr`` (same code path, identical traces).  Solved requires
    the selected q to lie in both sets within eps_h.
    """
    if isinstance(constraint, HalfSpace) and cfg.reflect_order == "set-first":
        return run_dr(proj_set, constraint, x0, cfg)
    return _iterate(_TwoSetStep(proj_set, constraint, cfg), x0, cfg)


def run_ap(proj_set: ProjectableSet, constraint, x0,
           cfg: SolverConfig = SolverConfig()) -> tuple[Trace, RunOutcome]:
    """Alternating projections x_{k+1} in P_A(P_Q(x_k)).

    Cycle detection runs over the half-step sequence x_0, q_0, x_1, q_1,
    ... so the classic two-point bounce between a set point and its
    constraint projection is reported with period 2 (period and
    first_index are counted in half-steps).
    """
    return _iterate(_Alternating(proj_set, constraint, cfg), x0, cfg)
