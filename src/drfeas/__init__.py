"""Douglas-Rachford feasibility solver for half-space / non-convex splits."""

from .engine import (
    CycleDetected,
    DegenerateProjection,
    DivergenceCertificate,
    Diverging,
    MaxIterations,
    Solved,
    SolverConfig,
    Trace,
    dr_step,
    run_ap,
    run_dr,
    run_dr_generic,
)
from .geometry import HalfSpace, Hyperplane
from .problems import ProblemFile, ProblemFormatError, load_problem
from .sets import (
    BinaryKnapsackSet,
    CapExceededError,
    DegenerateProjectionError,
    DiagonalSet,
    EmptySetError,
    FinitePointSet,
    PlanarCone,
    ProductSet,
    ProjectableSet,
    ReflectableConstraint,
    Slab,
    Sphere,
    TriadicSet,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryKnapsackSet",
    "CapExceededError",
    "CycleDetected",
    "DegenerateProjection",
    "DegenerateProjectionError",
    "DiagonalSet",
    "DivergenceCertificate",
    "Diverging",
    "EmptySetError",
    "FinitePointSet",
    "HalfSpace",
    "Hyperplane",
    "MaxIterations",
    "PlanarCone",
    "ProblemFile",
    "ProblemFormatError",
    "ProductSet",
    "ProjectableSet",
    "ReflectableConstraint",
    "Slab",
    "Solved",
    "SolverConfig",
    "Sphere",
    "Trace",
    "TriadicSet",
    "dr_step",
    "load_problem",
    "run_ap",
    "run_dr",
    "run_dr_generic",
]
