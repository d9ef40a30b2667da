"""Problem-file schema: JSON descriptions of an instance plus settings.

A problem file pairs one constraint, one projectable set, a start point,
and optional solver settings.  Validation is strict: unknown fields are
rejected at every level and block dimensions must be consistent, because
these files are user-supplied.

``SETTINGS`` lists the solver settings: the ``config`` keys and, with
dashes, the CLI flags.  ``solver_config`` applies them to a
``SolverConfig``; any bad name or value is a ``ProblemFormatError``.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .engine import REFLECT_ORDERS, SolverConfig
from .geometry import HalfSpace, Hyperplane
from .sets import (
    BinaryKnapsackSet,
    DiagonalSet,
    FinitePointSet,
    PlanarCone,
    ProductSet,
    Slab,
    Sphere,
    TriadicSet,
)

__all__ = ["ProblemFile", "ProblemFormatError", "SETTINGS", "build_problem",
           "load_problem", "solver_config"]


class ProblemFormatError(ValueError):
    """The problem description violates the schema."""


# Setting name -> (SolverConfig field, value type, allowed values or None).
SETTINGS = {
    "max_iter": ("max_iter", int, None),
    "tol": ("eps_h", float, None),
    "cycle_tol": ("eps_cycle", float, None),
    "reflect_order": ("reflect_order", str, REFLECT_ORDERS),
}


def solver_config(settings: dict,
                  base: SolverConfig = SolverConfig()) -> SolverConfig:
    """``base`` with the named ``SETTINGS`` converted and applied."""
    if not isinstance(settings, dict):
        raise ProblemFormatError("config must be an object")
    extra = set(settings) - set(SETTINGS)
    if extra:
        raise ProblemFormatError(f"config: unknown field(s) {sorted(extra)}")
    try:
        # SolverConfig checks integers and booleans: int() would truncate
        # 2.5 and true, float() would read true as 1.0
        return dataclasses.replace(base, **{
            SETTINGS[name][0]: value
            if SETTINGS[name][1] is int or isinstance(value, bool)
            else SETTINGS[name][1](value)
            for name, value in settings.items()
        })
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"config: {exc}") from exc


# Type name -> (builder, the spec fields it takes in order); only a
# triadic set's "depth" may be left out.
CONSTRAINT_TYPES = {
    "halfspace": (HalfSpace, ("a", "b")),
    "hyperplane": (Hyperplane, ("a", "b")),
    "slab": (Slab, ("a", "lower", "upper")),
    "cone": (PlanarCone.from_boundary_points, ("apex", "p1", "p2")),
    "diagonal": (DiagonalSet, ("block_dim",)),
}

SET_TYPES = {
    "finite": (FinitePointSet, ("points",)),
    "sphere": (Sphere, ("center", "radius")),
    "knapsack": (BinaryKnapsackSet, ("c", "threshold")),
    "triadic": (TriadicSet, ("depth",)),
    "product": (lambda specs: ProductSet(_components(specs)), ("components",)),
}


def _is_number(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_numbers(value, name: str):
    """ProblemFormatError unless ``value`` is a number or nested lists of them."""
    if isinstance(value, (list, tuple)):
        for v in value:
            _check_numbers(v, name)
    elif not _is_number(value):
        raise ProblemFormatError(f"{name} must hold numbers, got {value!r}")


def _build(spec, types: dict, what: str):
    """Check ``spec`` against its type's fields, then build it.

    ``what`` is "constraint" or "set"; a TypeError or ValueError from the
    builder becomes a ProblemFormatError that names the type.
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise ProblemFormatError(f"{what} must be an object with a type")
    kind = spec["type"]
    if not isinstance(kind, str) or kind not in types:
        raise ProblemFormatError(f"unknown {what} type {kind!r}")
    build, fields = types[kind]
    extra = set(spec) - set(fields) - {"type"}
    if extra:
        raise ProblemFormatError(
            f"{what} {kind}: unknown field(s) {sorted(extra)}")
    missing = [f for f in fields if f not in spec and f != "depth"]
    if missing:
        raise ProblemFormatError(
            f"{what} {kind}: missing field(s) {sorted(missing)}")
    for f in fields:
        if f in spec and f != "components":
            _check_numbers(spec[f], f"{what} {kind}: {f}")
    try:
        return build(*(spec[f] for f in fields if f in spec))
    except ProblemFormatError:
        raise
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{what} {kind}: {exc}") from exc


def _components(specs) -> list:
    """Product components: constraints by their type name, else sets."""
    if not isinstance(specs, list) or not specs:
        raise ProblemFormatError("product components must be a nonempty list")
    return [
        _build(c, CONSTRAINT_TYPES, "constraint")
        if isinstance(c, dict) and c.get("type") in CONSTRAINT_TYPES
        else _build(c, SET_TYPES, "set")
        for c in specs
    ]


@dataclass
class ProblemFile:
    """Parsed problem description; ``build()`` materializes the objects."""

    constraint: dict
    set: dict
    x0: list
    config: dict = field(default_factory=dict)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ProblemFile":
        return cls._parse(data)[0]

    @classmethod
    def _parse(cls, data) -> tuple["ProblemFile", tuple]:
        """The checked file and its ``build()``, which checks the rest."""
        if not isinstance(data, dict):
            raise ProblemFormatError("problem file must be a JSON object")
        extra = set(data) - {"constraint", "set", "x0", "config"}
        if extra:
            raise ProblemFormatError(f"unknown top-level field(s) {sorted(extra)}")
        for need in ("constraint", "set", "x0"):
            if need not in data:
                raise ProblemFormatError(f"missing top-level field {need!r}")
        pf = cls(data["constraint"], data["set"], data["x0"],
                 data.get("config", {}))
        return pf, pf.build()

    def build(self):
        constraint = _build(self.constraint, CONSTRAINT_TYPES, "constraint")
        proj_set = _build(self.set, SET_TYPES, "set")
        if not (isinstance(self.x0, (list, tuple)) and self.x0
                and all(map(_is_number, self.x0))):
            raise ProblemFormatError("x0 must be a nonempty list of numbers")
        x0 = np.asarray(self.x0, dtype=float)
        if not np.all(np.isfinite(x0)):
            raise ProblemFormatError("x0 must be a list of finite numbers")
        if constraint.dim != proj_set.dim:
            raise ProblemFormatError(
                f"dimension mismatch: constraint is {constraint.dim}-D, "
                f"set is {proj_set.dim}-D"
            )
        if x0.size != constraint.dim:
            raise ProblemFormatError(
                f"dimension mismatch: x0 is {x0.size}-D, "
                f"problem is {constraint.dim}-D"
            )
        return constraint, proj_set, x0, solver_config(self.config)


def load_problem(path: str) -> ProblemFile:
    """Read and validate a problem file; JSON errors carry line/column."""
    return _load(path)[0]


def build_problem(path: str) -> tuple:
    """``load_problem(path).build()``, building the problem once."""
    return _load(path)[1]


def _load(path: str) -> tuple[ProblemFile, tuple]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    try:
        return ProblemFile._parse(data)
    except ProblemFormatError as exc:
        raise ProblemFormatError(f"{path}: {exc}") from exc
