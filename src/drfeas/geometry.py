"""Half-space and hyperplane geometry: distances, projectors, reflectors.

``ReflectableConstraint`` is the interface of every convex constraint with
a single-valued projector; ``drfeas.sets`` holds the others.

Points are 1-D numpy arrays of finite floats.  Normals are normalized at
construction so the closed-form formulas

    P_L(x) = x - (<a,x> - b) a        R_L(x) = x - 2 (<a,x> - b) a

apply directly; the half-space versions are the piecewise variants that
fix interior points.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "HalfSpace",
    "Hyperplane",
    "ReflectableConstraint",
    "as_point",
    "unit_normal",
]

# The least normal float.  A normal whose a·a is below it has an inexact
# norm (a·a is subnormal), so unit_normal rejects it.
_TINY = float(np.finfo(float).tiny)


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


def as_point(coords, dim: int | None = None) -> np.ndarray:
    """Validate and return coords as a contiguous 1-D float array.

    Rejects empty input, non-finite coordinates, and (when ``dim`` is
    given) dimension mismatch.  One reduction, |p|², decides finiteness
    unless it is not finite itself (a non-finite coordinate, or finite
    ones whose squares overflow); only then are the coordinates tested.
    Contiguity makes the bits of every later reduction independent of the
    input's memory layout.
    """
    return _point(coords, dim)[0]


def _point(coords, dim: int | None = None) -> tuple[np.ndarray, float]:
    """``as_point``'s array and its |p|², which may be inf: the drivers
    read both, so a start point is reduced once."""
    p = np.ascontiguousarray(coords, dtype=float)  # a scalar becomes 1-D
    if p.ndim != 1:
        raise ValueError(f"point must be 1-D, got shape {p.shape}")
    if p.size == 0:
        raise ValueError("point must have dimension >= 1")
    if not math.isfinite(pp := p.dot(p)) and not np.isfinite(p).all():
        raise ValueError("point has non-finite coordinates")
    if dim is not None and p.size != dim:
        raise DimensionMismatchError(
            f"expected dimension {dim}, got {p.size}"
        )
    return p, pp


def unit_normal(a, *offsets, kind: str = "constraint"):
    """(a / |a|, *offsets / |a|): a unit normal and its rescaled offsets.

    Rejects a normal whose a·a is subnormal or overflows, and offsets that
    are not finite after the rescaling.  ``kind`` names the object in
    error messages.
    """
    a = as_point(a)
    aa = float(a.dot(a))
    if not _TINY <= aa < math.inf:
        raise ValueError(f"{kind} normal must be nonzero, with a·a a "
                         f"finite normal float")
    norm = math.sqrt(aa)  # np.linalg.norm(a), bit for bit
    scaled = [float(t) / norm for t in offsets]
    if not all(map(math.isfinite, scaled)):
        raise ValueError(f"{kind} offsets must be finite after normalizing")
    a = a / norm
    a.setflags(write=False)
    return a, *scaled


class ReflectableConstraint(abc.ABC):
    """A convex set with single-valued projector and reflector.

    The public methods check their point; the underscored ones take a point
    that is already a checked float array of dimension ``dim``, so the
    drivers check each point once.
    """

    # Subclass aliases such as ``project = ReflectableConstraint.project``
    # exist for bench/spans.py, which finds what it wraps in cls.__dict__;
    # they go once it looks attributes up by MRO.

    @property
    @abc.abstractmethod
    def dim(self) -> int: ...

    @abc.abstractmethod
    def _project(self, x: np.ndarray) -> np.ndarray: ...

    def project(self, x) -> np.ndarray:
        return self._project(as_point(x, self.dim))

    def reflect(self, x) -> np.ndarray:
        return self._reflect(as_point(x, self.dim))

    def _reflect(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * self._project(x) - x

    def distance(self, x) -> float:
        return self._distance(as_point(x, self.dim))

    def _distance(self, x: np.ndarray) -> float:
        d = x - self._project(x)
        return math.sqrt(d.dot(d))  # np.linalg.norm(d), bit for bit

    def contains(self, x, tol: float = 1e-9) -> bool:
        """Whether ``distance(x) <= tol``: no constraint overrides this."""
        return self.distance(x) <= tol

    @abc.abstractmethod
    def key(self) -> tuple: ...


@dataclass(frozen=True)
class _Flat(ReflectableConstraint):
    """What HalfSpace and Hyperplane share: a unit normal a and offset b.

    The input normal is normalized and b is rescaled by the same factor
    (``unit_normal``), so (t*a, t*b) for t > 0 describes the same object.
    """

    a: np.ndarray
    b: float

    def __post_init__(self):
        a, b = unit_normal(self.a, self.b, kind=self._kind)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.a.size

    def value(self, x) -> float:
        """Signed offset <a,x> - b (positive outside a half-space)."""
        return self._value(as_point(x, self.dim))

    def _value(self, x: np.ndarray) -> float:
        return float(self.a.dot(x)) - self.b

    def key(self) -> tuple:
        return (type(self).__name__, self.a.tobytes(), self.b)


@dataclass(frozen=True)
class HalfSpace(_Flat):
    """The closed half-space {x : <a,x> <= b} with unit normal a."""

    _kind = "half-space"
    value = _Flat.value

    def _distance(self, x: np.ndarray) -> float:
        return max(0.0, self._value(x))

    def _project(self, x: np.ndarray) -> np.ndarray:
        v = self._value(x)
        return x.copy() if v <= 0.0 else x - v * self.a

    def _reflect(self, x: np.ndarray) -> np.ndarray:
        v = self._value(x)
        return x.copy() if v <= 0.0 else x - 2.0 * v * self.a


@dataclass(frozen=True)
class Hyperplane(_Flat):
    """The hyperplane {x : <a,x> = b} with unit normal a."""

    _kind = "hyperplane"
    value = _Flat.value

    def _distance(self, x: np.ndarray) -> float:
        return abs(self._value(x))

    def _project(self, x: np.ndarray) -> np.ndarray:
        return x - self._value(x) * self.a

    def _reflect(self, x: np.ndarray) -> np.ndarray:
        return x - 2.0 * self._value(x) * self.a
