"""Seeded, stratified inputs for the three benchmark workloads.

Every generated instance is a problem-file dictionary (the schema of
``drfeas.problems``) plus the driver that runs it, so the program only ever
receives plain generated data.  Families have fixed counts; the seed draws
only within a family, so two seeds give workloads of the same shape.
"""

from __future__ import annotations

import glob
import os

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Per-family instance counts.  Changing any of them changes the benchmark.
# Random finite Q: counts per dimension 1..5.  Most feasible run_dr runs end
# in one to five steps, most infeasible ones in 27-45, and nearly every
# feasible constraint-first run in one; with these counts the median run is
# a one-step solve for every seed.
FINITE_PER_DIM = {"feasible": 40, "infeasible": 12}     # run_dr
GENERIC_PER_DIM = 40        # run_dr_generic, constraint-first, feasible only
AP_PER_DIM = 2              # run_ap, per side
SPHERE_COUNTS = {"feasible": 16, "tangent": 8, "infeasible": 8}
TRIADIC_COUNTS = {"feasible": 16, "infeasible": 8}
COUNTER_COUNTS = {"slab": 8, "cone": 8, "hyperplane": 8,
                  "pierra-diag-first": 4, "pierra-product-first": 4,
                  "doubleton": 4}
AP_COUNTER = ("slab", "hyperplane", "cone", "doubleton")  # run_ap on their data
SMALL_MAX_ITER = 100        # about 4% of infeasible finite runs march on without a verdict

KNAPSACK_M = 14
KNAPSACK_PER_SIDE = 4
KNAPSACK_GEOMETRY_SEED = 1
KNAPSACK_MAX_ITER = 200

# The verify pass is VERIFY_CALLS calls of run_all_suites, each on its own
# suite seed, so that each timed call is short; plus one mutant check per suite.
VERIFY_CALLS = 10
VERIFY_TRIALS = 100         # per suite and call: 1000 per suite and pass
VERIFY_ORACLE_TRIALS = 1    # finite and knapsack oracle runs per call
VERIFY_MUTANT_TRIALS = 300
VERIFY_DIMS = (1, 2, 3, 4, 5)


def _vec(v):
    return [float(t) for t in np.asarray(v, dtype=float).ravel()]


def _normal(rng, n):
    """A random nonzero normal, deliberately not unit length."""
    while True:
        a = rng.normal(size=n) * rng.uniform(0.5, 2.0)
        if np.linalg.norm(a) > 1e-3:
            return a


def _unit(rng, n):
    v = _normal(rng, n)
    return v / np.linalg.norm(v)


def _case(family, driver, constraint, set_spec, x0, config=None):
    spec = {"constraint": constraint, "set": set_spec, "x0": _vec(x0),
            "config": dict(config or {})}
    return {"family": family, "driver": driver, "spec": spec}


def _halfspace(a, b):
    return {"type": "halfspace", "a": _vec(a), "b": float(b)}


def _finite(rng, n, feasible):
    """1-8 points in [-10,10]^n and a half-space containing some or none."""
    pts = rng.uniform(-10.0, 10.0, (int(rng.integers(1, 9)), n))
    a = _normal(rng, n)
    norm = float(np.linalg.norm(a))
    vals = pts @ a
    if feasible:
        b = float(vals[int(rng.integers(len(pts)))]) + norm * rng.uniform(0.05, 3.0)
    else:
        b = float(vals.min()) - norm * rng.uniform(0.05, 3.0)
    return _halfspace(a, b), {"type": "finite", "points": pts.tolist()}


def _sphere(rng, kind):
    n = int(rng.integers(2, 6))
    c = rng.uniform(-3.0, 3.0, n)
    r = float(rng.uniform(0.5, 3.0))
    a = _normal(rng, n)
    norm = float(np.linalg.norm(a))
    low = float(a @ c) - r * norm          # min over the sphere of <a, p>
    if kind == "feasible":
        b = low + norm * rng.uniform(0.1, 1.9) * r
    elif kind == "tangent":
        b = low
    else:
        b = low - norm * rng.uniform(0.1, 2.0)
    x0 = c + rng.uniform(1.0, 4.0) * _unit(rng, n)
    return _case(f"sphere-{kind}", "dr", _halfspace(a, b),
                 {"type": "sphere", "center": _vec(c), "radius": r},
                 x0, {"max_iter": SMALL_MAX_ITER})


def small_cases(seed: int) -> list[dict]:
    """Driver runs of the solve-small workload (CLI and repro ops are fixed)."""
    rng = np.random.default_rng([seed, 1])
    cfg = {"max_iter": SMALL_MAX_ITER}
    cases = []
    for n in range(1, 6):
        for feasible in (True, False):
            side = "feasible" if feasible else "infeasible"
            for _ in range(FINITE_PER_DIM[side]):
                hs, q = _finite(rng, n, feasible)
                cases.append(_case(f"finite-{side}", "dr", hs, q,
                                   rng.uniform(-10.0, 10.0, n), cfg))
            # The generic driver has no divergence detector, so an infeasible
            # generic run only ever ends at the iteration cap.
            for _ in range(GENERIC_PER_DIM if feasible else 0):
                hs, q = _finite(rng, n, feasible)
                cases.append(_case(
                    f"finite-generic-{side}", "generic", hs, q,
                    rng.uniform(-10.0, 10.0, n),
                    dict(cfg, reflect_order="constraint-first")))
            for _ in range(AP_PER_DIM):
                hs, q = _finite(rng, n, feasible)
                cases.append(_case(f"ap-finite-{side}", "ap", hs, q,
                                   rng.uniform(-10.0, 10.0, n), cfg))
    for kind, count in SPHERE_COUNTS.items():
        cases.extend(_sphere(rng, kind) for _ in range(count))
    # The paper's tangent example: unit circle against {y <= -1}.
    cases.append(_case("sphere-tangent", "dr", _halfspace([0.0, 1.0], -1.0),
                       {"type": "sphere", "center": [0.0, 0.0], "radius": 1.0},
                       np.array([1.0, 1.0]) + rng.uniform(-0.2, 0.2, 2), cfg))
    for kind, count in TRIADIC_COUNTS.items():
        for _ in range(count):
            depth = int(rng.integers(20, 81))
            b = 0.0 if kind == "feasible" else -float(rng.uniform(0.1, 1.0))
            cases.append(_case(f"triadic-{kind}", "dr", _halfspace([1.0], b),
                               {"type": "triadic", "depth": depth},
                               [rng.uniform(0.1, 2.0)], cfg))
    # One long never-entering run: ~600 steps down the triadic ladder.
    cases.append(_case("triadic-long", "dr", _halfspace([1.0], 0.0),
                       {"type": "triadic", "depth": 600}, [1.0],
                       {"max_iter": 1000, "tol": 1e-300, "cycle_tol": 1e-300}))
    cases.extend(_counter_cases(rng))
    return cases


def _counter_cases(rng) -> list[dict]:
    """The cycling counter-examples with seeded start perturbations."""
    square = {"type": "finite", "points": [[0, 0], [1, 0], [1, 1], [0, 1]]}
    slab = {"type": "slab", "a": [0.0, 1.0], "lower": -0.59, "upper": -0.06}
    slab_q = {"type": "finite",
              "points": [[0.01, -0.35], [-0.3, -0.78], [-0.43, 0.01]]}
    cone = {"type": "cone", "apex": [-0.35, 0.5], "p1": [2.0, 1.7212],
            "p2": [2.0, -0.5868]}
    hyper = {"type": "hyperplane", "a": [0.0, 1.0], "b": 0.0}
    hyper_q = {"type": "finite", "points": [[0, 1], [1, -1]]}
    product = {"type": "product", "components": [
        {"type": "halfspace", "a": [0.0, 1.0], "b": 1.0}, square]}
    tight = {"cycle_tol": 1e-12}
    cf = dict(tight, reflect_order="constraint-first")

    def jitter(x):
        x = np.asarray(x, dtype=float)
        return x + rng.uniform(-0.01, 0.01, x.size)

    table = {
        "slab": ("generic", slab, slab_q, [-1.0, 1.0], {}),
        "cone": ("generic", cone, square, [-0.1693, 0.2624], {}),
        "hyperplane": ("generic", hyper, hyper_q, [-1.0, 1.0], tight),
        "pierra-diag-first": ("generic", {"type": "diagonal", "block_dim": 2},
                              product, [0, 0.4, 0, 0.8], cf),
        "pierra-product-first": ("generic",
                                 {"type": "diagonal", "block_dim": 2},
                                 product, [0, 0.8, 0, 0.4], tight),
        "doubleton": ("generic", {"type": "diagonal", "block_dim": 1},
                      square, [-0.5, 1.0], cf),
    }
    cases = []
    for name, count in COUNTER_COUNTS.items():
        driver, con, q, x0, cfg = table[name]
        cases.extend(_case(name, driver, con, q, jitter(x0), cfg)
                     for _ in range(count))
    for name in AP_COUNTER:
        _, con, q, x0, cfg = table[name]
        cases.append(_case(f"ap-{name}", "ap", con, q, jitter(x0), cfg))
    return cases


def knapsack_cases(seed: int) -> list[dict]:
    """Half feasible, half infeasible binary-threshold instances, m fixed.

    A feasible instance keeps only the 1-3 feasible corners lowest along
    the normal inside H, so runs have to travel; an infeasible one puts H
    strictly below every feasible corner.  The geometry comes from a fixed
    family seed; the run seed draws each instance's presentation (the
    coordinate order and the scales of (c, threshold) and of (a, b)), which
    leaves the dynamics and the run lengths unchanged.  Run lengths here
    are heavy-tailed, so fresh geometry per seed would make the per-run
    times depend on the seed more than on the program.
    """
    geometry = np.random.default_rng([KNAPSACK_GEOMETRY_SEED, 2])
    rng = np.random.default_rng([seed, 2])
    m = KNAPSACK_M
    corners = ((np.arange(1 << m)[:, None] >> (m - 1 - np.arange(m))) & 1
               ).astype(float)
    cases = []
    for feasible in (True, False):
        for _ in range(KNAPSACK_PER_SIDE):
            c = geometry.uniform(0.5, 3.0, m)
            t = float(geometry.uniform(0.3, 0.6) * c.sum())
            a = _normal(geometry, m)
            norm = float(np.linalg.norm(a))
            vals = np.sort(corners[corners @ c >= t] @ a)
            if feasible:
                b = float(vals[int(geometry.integers(0, 3))]) + 1e-3 * norm
            else:
                b = float(vals[0]) - norm * geometry.uniform(0.05, 0.5)
            x0 = geometry.uniform(-1.0, 2.0, m)
            perm = rng.permutation(m)
            sc, sa = rng.uniform(0.5, 2.0, 2)
            side = "feasible" if feasible else "infeasible"
            cases.append(_case(
                f"knapsack-{side}", "dr", _halfspace(sa * a[perm], sa * b),
                {"type": "knapsack", "c": _vec(sc * c[perm]), "threshold": sc * t},
                x0[perm], {"max_iter": KNAPSACK_MAX_ITER}))
    return cases


def generate(workload: str, seed: int) -> dict:
    """All generated inputs of a workload, as plain JSON-able data.

    ``modules`` names the drfeas modules the workload calls into, which
    set-up imports.
    """
    if workload == "solve-small":
        problems = sorted(glob.glob(os.path.join(ROOT, "problems", "*.json")))
        return {"cases": small_cases(seed),
                "problems": [os.path.relpath(p, ROOT) for p in problems],
                "modules": ["drfeas.cli", "drfeas.repro"]}
    if workload == "solve-knapsack":
        return {"cases": knapsack_cases(seed), "problems": [], "modules": []}
    if workload == "verify":
        calls = [{"trials": VERIFY_TRIALS, "dims": list(VERIFY_DIMS),
                  "seed": seed * VERIFY_CALLS + k,
                  "oracle_trials": VERIFY_ORACLE_TRIALS}
                 for k in range(VERIFY_CALLS)]
        return {"cases": [], "problems": [], "modules": ["drfeas.verifier"],
                "verify": calls,
                "mutants": {"trials": VERIFY_MUTANT_TRIALS, "seed": seed}}
    raise ValueError(f"unknown workload {workload!r}")


def build(inputs: dict) -> dict:
    """Turn generated data into program objects through the public API.

    This is the set-up work a user pays: importing the package and the
    modules the workload calls, building every instance through the problem
    schema and loading each bundled problem file.
    """
    import importlib

    import drfeas

    for name in inputs["modules"]:
        importlib.import_module(name)
    built = [drfeas.ProblemFile(**case["spec"]).build() for case in inputs["cases"]]
    loaded = [drfeas.load_problem(os.path.join(ROOT, p)).build()
              for p in inputs["problems"]]
    return {"cases": built, "problems": loaded}
