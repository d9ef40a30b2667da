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
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "HalfSpace",
    "Hyperplane",
    "ReflectableConstraint",
    "as_point",
]

# A nonzero normal shorter than this is treated as zero and rejected.
_ZERO_NORMAL_TOL = 1e-300


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


def as_point(coords, dim: int | None = None) -> np.ndarray:
    """Validate and return coords as a 1-D float array.

    Rejects empty input, non-finite coordinates, and (when ``dim`` is
    given) dimension mismatch.
    """
    p = np.asarray(coords, dtype=float)
    if p.ndim != 1:
        if p.ndim != 0:
            raise ValueError(f"point must be 1-D, got shape {p.shape}")
        p = p.reshape(1)
    if p.size == 0:
        raise ValueError("point must have dimension >= 1")
    if not np.isfinite(p).all():
        raise ValueError("point has non-finite coordinates")
    if dim is not None and p.size != dim:
        raise DimensionMismatchError(
            f"expected dimension {dim}, got {p.size}"
        )
    return p


class ReflectableConstraint(abc.ABC):
    """A convex set with single-valued projector and reflector.

    The public methods check their point; the underscored ones take a point
    that is already a checked float array of dimension ``dim``, so the
    drivers check each point once.
    """

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
        return float(np.linalg.norm(x - self._project(x)))

    def contains(self, x, tol: float = 1e-9) -> bool:
        return self.distance(x) <= tol

    @abc.abstractmethod
    def key(self) -> tuple: ...


@dataclass(frozen=True)
class _Flat(ReflectableConstraint):
    """What HalfSpace and Hyperplane share: a unit normal a and offset b.

    Any nonzero input normal is normalized and b is rescaled by the same
    factor, so (t*a, t*b) for t > 0 describes the same object.
    """

    a: np.ndarray
    b: float

    def __post_init__(self):
        a = as_point(self.a)
        norm = float(np.linalg.norm(a))
        if norm < _ZERO_NORMAL_TOL:
            raise ValueError(f"{self._kind} normal must be nonzero")
        a = a / norm
        a.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", float(self.b) / norm)

    @property
    def dim(self) -> int:
        return self.a.size

    def _value(self, x: np.ndarray) -> float:
        return float(self.a @ x - self.b)

    def key(self) -> tuple:
        return (type(self).__name__, self.a.tobytes(), self.b)


@dataclass(frozen=True)
class HalfSpace(_Flat):
    """The closed half-space {x : <a,x> <= b} with unit normal a."""

    _kind = "half-space"

    def value(self, x) -> float:
        """Signed offset <a,x> - b (positive outside)."""
        return self._value(as_point(x, self.dim))

    def _distance(self, x: np.ndarray) -> float:
        return max(0.0, self._value(x))

    def contains(self, x, tol: float = 1e-9) -> bool:
        return self.value(x) <= tol

    def _project(self, x: np.ndarray) -> np.ndarray:
        v = self._value(x)
        return x.copy() if v <= 0.0 else x - v * self.a

    def _reflect(self, x: np.ndarray) -> np.ndarray:
        v = self._value(x)
        return x.copy() if v <= 0.0 else x - 2.0 * v * self.a

    def boundary(self) -> "Hyperplane":
        return Hyperplane(self.a, self.b)


@dataclass(frozen=True)
class Hyperplane(_Flat):
    """The hyperplane {x : <a,x> = b} with unit normal a."""

    _kind = "hyperplane"

    def value(self, x) -> float:
        return self._value(as_point(x, self.dim))

    def _distance(self, x: np.ndarray) -> float:
        return abs(self._value(x))

    def contains(self, x, tol: float = 1e-9) -> bool:
        return abs(self.value(x)) <= tol

    def _project(self, x: np.ndarray) -> np.ndarray:
        return x - self._value(x) * self.a

    def _reflect(self, x: np.ndarray) -> np.ndarray:
        return x - 2.0 * self._value(x) * self.a
