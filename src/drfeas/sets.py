"""Projectable sets Q and single-valued reflectable constraints.

Projectable sets may have multi-valued nearest-point maps; ``project_all``
returns every minimizer (within the tie tolerance) in a deterministic
order.  Reflectable constraints are convex with a single-valued projector,
used in place of the half-space in the cycling counter-examples.
"""

from __future__ import annotations

import abc
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .geometry import ReflectableConstraint, as_point, unit_normal

__all__ = [
    "BinaryKnapsackSet",
    "CapExceededError",
    "DegenerateProjectionError",
    "DiagonalSet",
    "EmptySetError",
    "FinitePointSet",
    "KNAPSACK_CAP",
    "PlanarCone",
    "ProductSet",
    "ProjectableSet",
    "ReflectableConstraint",
    "Slab",
    "Sphere",
    "TIE_TOL",
    "TRIADIC_DEPTH_CAP",
    "TriadicSet",
]

# Absolute tie tolerance on squared distances: exact ties in the symmetric
# examples must be reported, float noise must not create spurious ones.
TIE_TOL = 1e-12

# Largest BinaryKnapsackSet dimension: its split search enumerates two
# halves of 2^16 partial corners at m = 32.
KNAPSACK_CAP = 32

# Largest TriadicSet depth: the last at which every 2/3^k is a normal float.
TRIADIC_DEPTH_CAP = 645

_EPS = float(np.finfo(float).eps)


class DegenerateProjectionError(Exception):
    """The nearest-point map is the whole set (e.g. center of a sphere)."""


class EmptySetError(ValueError):
    """The set has no members."""


class CapExceededError(ValueError):
    """Knapsack dimension exceeds KNAPSACK_CAP."""


class ProjectableSet(abc.ABC):
    """A closed set with a (possibly multi-valued) nearest-point map.

    ``run_dr`` reuses a nearest point q along its ray while ``ray_hold``
    allows; the default bound, 0, makes it project every step."""

    @property
    @abc.abstractmethod
    def dim(self) -> int: ...

    @abc.abstractmethod
    def project_all(self, x) -> list[np.ndarray]:
        """All nearest points to x, in a deterministic order, each a fresh
        array."""

    @abc.abstractmethod
    def min_along(self, a: np.ndarray) -> float:
        """The least <a,p> over the set (its support function at -a)."""

    def ray_hold(self, q: np.ndarray, a: np.ndarray) -> float:
        """lam* such that, for 0 <= lam < lam*, ``project_all`` at q - lam*a
        returns [q] alone, for any q it returns alone and unit a, ties and
        rounding allowed for: lam* is no longer than the lam where rounding
        could tie a point behind q.  Finite, triadic and knapsack sets
        override 0."""
        return 0.0

    def distance(self, x) -> float:
        """The least |x - p| over p in ``project_all(x)``; Sphere (defined at
        the centre), ProductSet and FinitePointSet override it."""
        x = as_point(x, self.dim)
        return min(float(np.linalg.norm(x - p)) for p in self.project_all(x))

    def contains(self, x, tol: float = 1e-9) -> bool:
        """Whether ``distance(x) <= tol``: no set overrides this."""
        return self.distance(x) <= tol

    @abc.abstractmethod
    def key(self) -> tuple:
        """Hashable description used for trace fingerprints."""


def _integer(value, name: str) -> int:
    """``value`` as an int; ValueError unless it is an integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _bit_rows(idx: np.ndarray, m: int) -> np.ndarray:
    """0/1 rows of the m-bit integers idx, first coordinate most significant."""
    return ((idx[:, None] >> np.arange(m - 1, -1, -1)) & 1).astype(float)


def _ray_tol(lam: float, s, d: int):
    """2 TIE_TOL plus a bound on the rounding of the squared distances
    compared at q - lam*a, and of lam, for points with |q| + |q - p| <= s."""
    return 2 * TIE_TOL + (4 * d + 12) * _EPS * (lam + s) ** 2


def _ray_reach(f, s, d: int):
    """The lam at which ``_ray_tol(lam, s, d)`` reaches f: its inverse."""
    return np.sqrt((f - 2 * TIE_TOL) / ((4 * d + 12) * _EPS)) - s


def _tie_filter(candidates: np.ndarray, d2: np.ndarray) -> list[np.ndarray]:
    """Rows of ``candidates`` whose squared distance is minimal within
    TIE_TOL, in order, each a fresh array; a unique answer skips the gather."""
    i = d2.argmin()
    near = d2 <= d2[i] + TIE_TOL
    if np.count_nonzero(near) == 1:
        return [candidates[i].copy()]
    return list(candidates[near])


class _FinitePoints(ProjectableSet):
    """A finite set held as the rows of ``points``."""

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def min_along(self, a: np.ndarray) -> float:
        return float((self.points @ a).min())

    def _ties_behind(self, a: np.ndarray) -> bool:
        return True     # project_all compares every point with q

    def ray_hold(self, q: np.ndarray, a: np.ndarray) -> float:
        """Min over p ahead, g = <a, q - p> > 0, of (|q - p|^2 - tol)/(2g),
        p's crossing less tol; 0 if a twin p != q, |q - p|^2 <= tol, may tie
        q from behind, g <= 0 (``_ties_behind``).  With none ahead, the least
        lam where tol's rounding could tie a p != q behind; inf if none is
        compared."""
        w = q - self.points
        g, f = w @ a, (w * w).sum(1)
        ahead = g > 0
        f2, g2 = f[ahead], 2 * g[ahead]
        lam = (f2 / g2).min() if g2.size else 0.0
        s = math.sqrt(q @ q) + np.sqrt(f)
        tol, behind = _ray_tol(lam, s, self.dim), self._ties_behind(a)
        if behind and np.count_nonzero(f <= tol) > 1:
            return 0.0
        if g2.size:
            return max(0.0, float(((f2 - tol[ahead]) / g2).min()))
        other = f > 0   # p != q, each beyond its twin band
        if not (behind and other.any()):
            return np.inf
        return float(_ray_reach(f[other], s[other], self.dim).min())


class FinitePointSet(_FinitePoints):
    """An explicit finite set of points; projection by exhaustive comparison."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.size == 0:
            raise EmptySetError("finite set must be nonempty")
        if pts.ndim != 2:
            raise ValueError("finite set points must be a list of points, "
                             f"got an array of shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("finite set has non-finite coordinates")
        self.points = np.array(list({r.tobytes(): r for r in pts}.values()))
        self.points.setflags(write=False)

    def project_all(self, x) -> list[np.ndarray]:
        w = self.points - as_point(x, self.dim)
        return _tie_filter(self.points, np.add.reduce(w * w, 1))

    def distance(self, x) -> float:
        """The exact least distance: ``verifier._nearest`` matches its bits."""
        x = as_point(x, self.dim)
        d2 = np.sum((self.points - x) ** 2, axis=1)
        return float(np.sqrt(d2.min()))

    def key(self) -> tuple:
        return ("FinitePointSet", self.points.tobytes(), self.points.shape)

    def __repr__(self):
        return f"FinitePointSet({self.points.tolist()})"


class Sphere(ProjectableSet):
    """The sphere of given center and radius (the shell, not the ball)."""

    def __init__(self, center, radius: float):
        self.center = as_point(center)
        self.center.setflags(write=False)
        self.radius = float(radius)
        if not 0.0 < self.radius < np.inf:
            raise ValueError("sphere radius must be positive and finite")

    @property
    def dim(self) -> int:
        return self.center.size

    def project_all(self, x) -> list[np.ndarray]:
        x = as_point(x, self.dim)
        w = x - self.center
        r = math.sqrt(w.dot(w))     # np.linalg.norm(w), bit for bit
        if r <= 1e-12 * self.radius:
            raise DegenerateProjectionError(
                "projection of the center onto a sphere is the whole sphere"
            )
        return [self.center + (self.radius / r) * w]

    def min_along(self, a: np.ndarray) -> float:
        return float(a @ self.center) - self.radius * float(np.linalg.norm(a))

    def distance(self, x) -> float:
        """Also at the centre, where ``project_all`` raises."""
        x = as_point(x, self.dim)
        return abs(float(np.linalg.norm(x - self.center)) - self.radius)

    def key(self) -> tuple:
        return ("Sphere", self.center.tobytes(), self.radius)

    def __repr__(self):
        return f"Sphere(center={self.center.tolist()}, radius={self.radius})"


class BinaryKnapsackSet(ProjectableSet):
    """{y in {0,1}^m : <c,y> >= threshold}, projected by an exact split search.

    ||y - x||^2 = |x|^2 + sum y_i (1 - 2 x_i) for a corner y, so projecting
    is a covering knapsack over the costs 1 - 2 x_i, solved by meet in the
    middle (Horowitz & Sahni 1974).  Construction enumerates the 2^(m/2)
    partial corners of each half and sorts the second half by weight.  A
    call prices both halves along 1 - 2x, pairs each first half with its
    cheapest weight-feasible second half (a suffix minimum) and gathers the
    corners within a rounding band of the best pair, wide enough for every
    tie at any |x|.  If row sums find no feasible corner there, or ties may
    lie past it, a second and last gather reaches the cheapest surely
    feasible pair plus that width.  ``min_along(a)`` searches the costs a.

    The band only picks candidates: feasibility, distances and ties are
    decided as a scan of all 2^m corners decides them, so the result is the
    scan's list, in increasing order of the corner read as a bit-string
    (first coordinate most significant).  Feasibility is sum(c * y) >=
    threshold summed row by row, which rounds a corner's weight the same
    way whatever other rows are summed with it; a BLAS product does not.
    A feasible rounded corner, every |x_i - 1/2| beyond rounding, is
    returned at once.  m is at most KNAPSACK_CAP = 32, where a search takes
    about 1 ms and construction 53-59 ms (Intel Xeon, 2 CPUs, numpy 2.4.6; best
    of 3 calls, of 5 builds for each of 3 random c); at m = 14 one gather takes
    40-58 us, two (decimal weights) 77-147 us, a rounded answer 10-18 us and
    the full scan 2.9 ms.  ``ray_hold`` takes 8-14 us from the best single
    flip and 63-85 us when it searches the split tables; 1.0-20 ms at m = 32.
    """

    def __init__(self, c, threshold: float):
        self.c = as_point(c)
        self.c.setflags(write=False)
        if np.any(self.c < 0):
            raise ValueError("knapsack weights must be nonnegative")
        self.threshold = float(threshold)
        if not 0.0 <= self.threshold < np.inf:
            raise ValueError("knapsack threshold must be nonnegative and finite")
        m = self.dim
        if m > KNAPSACK_CAP:
            raise CapExceededError(
                f"knapsack dimension {m} exceeds cap {KNAPSACK_CAP}"
            )
        if float(self.c.sum()) < self.threshold:
            raise EmptySetError("no binary point reaches the threshold")
        # The head holds the leading (most significant) coordinates.
        self._tail_dim = m // 2
        head_dim = m - self._tail_dim
        self._head = _bit_rows(np.arange(1 << head_dim), head_dim)
        self._ones = (self._head @ np.ones(head_dim)).astype(np.int8)  # bits set
        tail = _bit_rows(np.arange(1 << self._tail_dim), self._tail_dim)
        w_tail = tail @ self.c[head_dim:]
        self._tail_idx = np.argsort(w_tail, kind="stable").astype(np.int32)
        self._tail = tail[self._tail_idx]
        w_tail = w_tail[self._tail_idx]
        # Split sums and row sums of a corner's weight round differently;
        # within this slack either may decide feasibility.
        slack = 4 * (m + 2) * _EPS * (float(self.c.sum()) + self.threshold)
        need = self.threshold - self._head @ self.c[:head_dim]
        # Per first half: where its maybe-feasible and its surely feasible
        # second halves start in the sorted order.
        self._reach = np.searchsorted(w_tail, need - slack).astype(np.int32)
        self._sure = np.searchsorted(w_tail, need + slack, "right").astype(np.int32)
        self._low: tuple = (None, None)

    @property
    def dim(self) -> int:
        return self.c.size

    def project_all(self, x) -> list[np.ndarray]:
        x = as_point(x, self.dim)
        corners = self._cheapest(1.0 - 2.0 * x)
        if len(corners) == 1:
            return [corners[0]]
        return _tie_filter(corners, np.sum((corners - x) ** 2, axis=1))

    def min_along(self, a: np.ndarray) -> float:
        """Kept for the last a asked."""
        if self._low[0] != a.tobytes():
            low = float(np.sum(self._cheapest(a) * a, axis=1).min())
            self._low = (a.tobytes(), low)
        return self._low[1]

    def ray_hold(self, q: np.ndarray, a: np.ndarray) -> float:
        """The least crossing |y - q|^2 / (2<a, q - y>) over feasible y,
        asked once per unique q (lam = 0 after an inside-case step).  k
        flips of q gain at most S_k, the sum of the k largest w_i =
        a_i(2q_i - 1): the best single flip's crossing, 1/(2 max w_i), is the
        hold if its corner is feasible.  Else none crosses if q attains the
        support ``min_along(a)``, or ``_split_hold`` searches, from m = 16 in
        at most two rounds: 2 flips per half, then each count whose k/(2 S_k)
        is below the answer.  Corners are at least 1 apart, so capped where
        rounding reaches a quarter of that, none ties q from behind; shrunk
        by (16m + 48) eps below the true hold, it changes no run."""
        m, s, hd = self.dim, 2.0 * math.sqrt(self.dim), self.dim - self._tail_dim
        # Past this cap the rounding bound is a quarter of a corner's gap.
        cap = _ray_reach(0.25 + 2 * TIE_TOL, s, m)
        w = a * (2.0 * q - 1.0)
        i = int(w.argmax())
        y = q.copy()
        y[i] = 1.0 - y[i]
        tol = (m + 2) * _EPS * math.sqrt(m)  # split sums of +-a_i, |a| = 1
        if w[i] > 0 and np.sum(y[None] * self.c, axis=1)[0] >= self.threshold:
            lam = 0.5 / float(w[i])
        elif float(q @ a) - self.min_along(a) <= tol:
            lam = np.inf  # q attains the support: no corner gains
        else:  # gains <a, q - y> per half, in the sums every round reads
            gh = float(q[:hd] @ a[:hd]) - self._head @ a[:hd]
            gt = float(q[hd:] @ a[hd:]) - self._tail @ a[hd:]
            top = m if self._tail_dim <= 7 else 2  # m <= 15: one round is faster
            lam = self._split_hold(q, gh, gt, top)
            if top < m:  # a second round if a count's bound is below lam
                gain = np.cumsum(np.sort(w)[::-1])  # S_k: no k flips gain more
                bound = np.arange(1, m + 1)[gain > 0] / (2.0 * gain[gain > 0])
                if (bound[top:] < lam).any():  # once: it leaves bound[top:] >= lam
                    top = int(np.flatnonzero(bound < lam)[-1]) + 1
                    lam = self._split_hold(q, gh, gt, top)
        lam = min(cap, lam)
        return max(0.0, lam * (1.0 - _ray_tol(lam, s, m)))

    def _split_hold(self, q, gh, gt, top: int) -> float:
        """The least |y - q|^2 / (2G), G = gh + gt of y's halves (tails in
        weight order), over feasible y != q of at most ``top`` flips of q per
        half; inf if no G per flip is positive.  Per flip count, suffix maxima
        of tail gains read at ``_sure``; row sums decide the slack band."""
        m, td, hd = self.dim, self._tail_dim, self.dim - self._tail_dim
        idx = int(q @ 2.0 ** np.arange(m - 1, -1, -1))  # q's bit string
        ch = self._ones[np.arange(1 << hd) ^ (idx >> td)]
        ct = self._ones[self._tail_idx ^ (idx & ((1 << td) - 1))]
        heads, tails = np.flatnonzero(ch <= top), np.flatnonzero(ct <= top)
        gh, ch, gt, ct = gh[heads], ch[heads], gt[tails], ct[tails]
        best = np.full((tails.size + 1, min(top, td) + 1), -np.inf)
        best[np.arange(tails.size), ct] = gt
        np.maximum.accumulate(best[::-1], axis=0, out=best[::-1])
        start = np.searchsorted(tails, self._sure[heads])
        k = ch[:, None] + np.arange(best.shape[1])
        g = gh[:, None] + best[start]
        g[ch.argmin(), 0] = -np.inf  # y = q
        per_flip = max(0.0, (g / k).max())
        band = np.flatnonzero(self._reach[heads] < self._sure[heads])
        if band.size:  # first halves whose band may gain more per flip
            low = np.searchsorted(tails, self._reach[heads[band]])
            more = (gh[band, None] + best[low] > per_flip * k[band]).any(axis=1)
            for i, lo in zip(band[more], low[more]):
                j = np.arange(lo, start[i])
                kj, gj = ch[i] + ct[j], gh[i] + gt[j]
                ok = (kj > 0) & (gj > per_flip * kj)
                y = _bit_rows((heads[i] << td) | self._tail_idx[tails[j[ok]]], m)
                ok[ok] = np.sum(y * self.c, axis=1) >= self.threshold
                per_flip = max(per_flip, (gj[ok] / kj[ok]).max(initial=0.0))
        return 0.5 / float(per_flip) if per_flip > 0.0 else np.inf

    def _cheapest(self, g: np.ndarray) -> np.ndarray:
        """Feasible corners within rounding of min sum(g * y), in bit order.

        The rounded corner y = [g < 0] costs least, and every other corner
        costs at least min |g_i| more in exact arithmetic; tol bounds twice
        the rounding of these costs, split or summed by row, and of squared
        distances (all at most m + |g|^2 for g = 1 - 2x), plus TIE_TOL.  So
        if min |g_i| > tol and y is feasible, the scan returns y alone.
        """
        m = self.dim
        tol = 8 * (m + 2) * _EPS * (m + float(g @ g)) + TIE_TOL
        if not math.isfinite(tol):
            raise ValueError("knapsack search costs overflow when squared")
        y = (g < 0).astype(float)[None]
        if (np.abs(g).min() > tol
                and np.sum(y * self.c, axis=1)[0] >= self.threshold):
            return y
        s_head = self._head @ g[: m - self._tail_dim]
        s_tail = self._tail @ g[m - self._tail_dim:]
        suffix = np.empty(s_tail.size + 1)
        suffix[-1] = np.inf
        np.minimum.accumulate(s_tail[::-1], out=suffix[-2::-1])
        best = s_head + suffix[self._reach]
        hi = float(best.min()) + tol
        for _ in range(2):
            idx, cost = self._band(s_head, s_tail, best, hi)
            corners = _bit_rows(idx, m)
            feasible = np.sum(corners * self.c, axis=1) >= self.threshold
            # No tie costs more than a feasible corner's cost plus tol.
            if feasible.any() and float(cost[feasible].min()) + tol <= hi:
                break
            # Corners past _sure are feasible by row sums: a bound on every tie.
            hi = float((s_head + suffix[self._sure]).min()) + tol
        else:
            raise EmptySetError("no corner is feasible by row sums")
        if idx.size == 1:
            return corners
        return corners[feasible][np.argsort(idx[feasible])]

    def _band(self, s_head, s_tail, best, hi):
        """Indices and split costs of maybe-feasible corners costing <= hi."""
        idx, cost = [], []
        for r in np.flatnonzero(best <= hi):
            start = self._reach[r]
            row_cost = s_tail[start:] + s_head[r]
            j = np.flatnonzero(row_cost <= hi)
            idx.append((r << self._tail_dim) | self._tail_idx[start + j])
            cost.append(row_cost[j])
        return np.concatenate(idx), np.concatenate(cost)

    def key(self) -> tuple:
        return ("BinaryKnapsackSet", self.c.tobytes(), self.threshold)

    def __repr__(self):
        return (
            f"BinaryKnapsackSet(c={self.c.tolist()}, "
            f"threshold={self.threshold})"
        )


class TriadicSet(_FinitePoints):
    """The 1-D set {2/3^k : 0 <= k <= depth} together with 0.

    The infinite tail is truncated at ``depth``; 2/3^60 is already below
    double-precision relevance for the first few dozen iterates.  The
    depth is an integer from 1 to TRIADIC_DEPTH_CAP.  Truncated, it is
    finite (``points``), but ``project_all`` compares only the neighbours
    of x, the nearest as rounded, so its ties are between those two.  On
    q's ray x = q - lam*a they are q and the next point ahead, but at x = q
    q and the point below it, whose tie ``ray_hold`` guards (``_ties_behind``).
    With a > 0 that point is ahead: no point behind q is ever compared.
    """

    def __init__(self, depth: int = 60):
        self.depth = _integer(depth, "depth")
        if not 1 <= self.depth <= TRIADIC_DEPTH_CAP:
            raise ValueError(f"depth must be from 1 to {TRIADIC_DEPTH_CAP}, "
                             f"got {self.depth}")
        vals = [0.0] + [2.0 / 3.0**k for k in range(self.depth, -1, -1)]
        self.values = np.asarray(vals)
        self.values.setflags(write=False)
        self.points = self.values[:, None]      # a read-only view

    def project_all(self, x) -> list[np.ndarray]:
        x = as_point(x, 1)
        t = float(x[0])
        pos = int(self.values.searchsorted(t))
        cand = self.values[max(0, pos - 1): pos + 1]
        w = cand - t
        return _tie_filter(cand[:, None], w * w)

    def _ties_behind(self, a: np.ndarray) -> bool:
        return a[0] < 0     # at x = q only: see the class docstring

    def key(self) -> tuple:
        return ("TriadicSet", self.depth)

    def __repr__(self):
        return f"TriadicSet(depth={self.depth})"


@dataclass(frozen=True)
class Slab(ReflectableConstraint):
    """{x : lower <= <a,x> <= upper} for a unit normal a."""

    a: np.ndarray
    lower: float
    upper: float

    def __post_init__(self):
        a, lower, upper = unit_normal(self.a, self.lower, self.upper,
                                      kind="slab")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        if not self.lower < self.upper:
            raise ValueError("slab requires lower < upper")

    @property
    def dim(self) -> int:
        return self.a.size

    project = ReflectableConstraint.project

    def _project(self, x: np.ndarray) -> np.ndarray:
        t = float(self.a @ x)
        clamped = min(max(t, self.lower), self.upper)
        return x + (clamped - t) * self.a

    def key(self) -> tuple:
        return ("Slab", self.a.tobytes(), self.lower, self.upper)


class PlanarCone(ReflectableConstraint):
    """A 2-D convex cone {apex + s*u + t*v : s, t >= 0}.

    u, v are independent unit boundary directions, so the wedge angle is
    below pi and the set is convex.  Projection is the nearest of x itself
    (when inside) or the clamped feet on the two boundary rays.
    """

    def __init__(self, apex, u, v):
        self.apex = as_point(apex, 2)
        u = as_point(u, 2)
        v = as_point(v, 2)
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu <= 0 or nv <= 0:
            raise ValueError("cone directions must be nonzero")
        self.u = u / nu
        self.v = v / nv
        det = self.u[0] * self.v[1] - self.u[1] * self.v[0]
        if abs(det) < 1e-12:
            raise ValueError("cone directions must be linearly independent")
        self._basis_inv = np.linalg.inv(np.column_stack([self.u, self.v]))
        for arr in (self.apex, self.u, self.v):
            arr.setflags(write=False)

    @classmethod
    def from_boundary_points(cls, apex, p1, p2) -> "PlanarCone":
        apex = as_point(apex, 2)
        return cls(apex, as_point(p1, 2) - apex, as_point(p2, 2) - apex)

    @property
    def dim(self) -> int:
        return 2

    def _coords(self, x: np.ndarray) -> np.ndarray:
        return self._basis_inv @ (x - self.apex)

    project = ReflectableConstraint.project

    def _project(self, x: np.ndarray) -> np.ndarray:
        s, t = self._coords(x)
        if s >= 0.0 and t >= 0.0:
            return x.copy()
        w = x - self.apex
        foot_u = self.apex + max(0.0, float(w @ self.u)) * self.u
        foot_v = self.apex + max(0.0, float(w @ self.v)) * self.v
        du, dv = x - foot_u, x - foot_v
        # roots, as np.linalg.norm: unequal squares may share a root
        if math.sqrt(du.dot(du)) <= math.sqrt(dv.dot(dv)):
            return foot_u
        return foot_v

    def key(self) -> tuple:
        return ("PlanarCone", self.apex.tobytes(), self.u.tobytes(), self.v.tobytes())

    def __repr__(self):
        return (
            f"PlanarCone(apex={self.apex.tolist()}, "
            f"u={self.u.tolist()}, v={self.v.tolist()})"
        )


@dataclass(frozen=True)
class DiagonalSet(ReflectableConstraint):
    """{(x, y) : x = y} for stacked point pairs of equal block dimension."""

    block_dim: int

    def __post_init__(self):
        if _integer(self.block_dim, "block dimension") < 1:
            raise ValueError("block dimension must be positive")

    @property
    def dim(self) -> int:
        return 2 * self.block_dim

    project = ReflectableConstraint.project

    def _project(self, x: np.ndarray) -> np.ndarray:
        n = self.block_dim
        mean = 0.5 * (x[:n] + x[n:])
        return np.concatenate([mean, mean])

    reflect = ReflectableConstraint.reflect

    def _reflect(self, x: np.ndarray) -> np.ndarray:
        # 2 P_D - I swaps the two blocks; do it exactly.
        n = self.block_dim
        return np.concatenate([x[n:], x[:n]])

    def key(self) -> tuple:
        return ("DiagonalSet", self.block_dim)


class ProductSet(ProjectableSet):
    """Cartesian product of component sets, projected blockwise.

    Components may be projectable sets or reflectable constraints (the
    latter contribute a single nearest point).  Tie sets multiply: the
    result is the cartesian product of component tie sets, in component
    order.
    """

    def __init__(self, components):
        if not components:
            raise ValueError("product needs at least one component")
        self.components = list(components)
        dims = [c.dim for c in self.components]
        self._offsets = np.concatenate([[0], np.cumsum(dims)])

    @property
    def dim(self) -> int:
        return int(self._offsets[-1])

    def _blocks(self, x: np.ndarray) -> list[np.ndarray]:
        return [
            x[self._offsets[i]: self._offsets[i + 1]]
            for i in range(len(self.components))
        ]

    def project_all(self, x) -> list[np.ndarray]:
        x = as_point(x, self.dim)
        per_block = []
        for comp, blk in zip(self.components, self._blocks(x)):
            if isinstance(comp, ProjectableSet):
                per_block.append(comp.project_all(blk))
            else:
                per_block.append([comp._project(blk)])  # blk is checked
        return [np.concatenate(combo) for combo in itertools.product(*per_block)]

    def min_along(self, a: np.ndarray) -> float:
        # A constraint component counts as unbounded along a nonzero block.
        return sum(c.min_along(blk) if isinstance(c, ProjectableSet)
                   else -np.inf if blk.any() else 0.0
                   for c, blk in zip(self.components, self._blocks(a)))

    def distance(self, x) -> float:
        """Blockwise: also at a sphere block's centre, with no tie product."""
        x = as_point(x, self.dim)
        return float(np.sqrt(sum(
            (c.distance(blk) if isinstance(c, ProjectableSet)
             else c._distance(blk)) ** 2
            for c, blk in zip(self.components, self._blocks(x)))))

    def key(self) -> tuple:
        return ("ProductSet",) + tuple(c.key() for c in self.components)

    def __repr__(self):
        return f"ProductSet({self.components!r})"
