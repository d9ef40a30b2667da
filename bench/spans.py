"""In-memory span recorder that wraps the public entry points of each layer.

A span is (name, start, end, parent).  Spans live in flat integer arrays
while the traced pass runs and are written out once at the end.  Every
module binding of a wrapped function is replaced (``as_point`` is bound by
name in four modules, the suites sit in a registry dict and as default
arguments), so calls made between layers are seen too.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

MODULES = ("drfeas", "drfeas.geometry", "drfeas.sets", "drfeas.engine",
           "drfeas.verifier", "drfeas.problems", "drfeas.cli", "drfeas.repro")

DRIVERS = ("engine.run_dr", "engine.run_dr_generic", "engine.run_ap")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.size = array("q")      # result size (ties, records), -1 if unused
        self.stack: list[int] = []
        self.results: dict[int, tuple] = {}   # driver span -> (args, result)
        self._undo: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, span_name: str, size=None, keep=False):
        """A wrapper of fn recording one span per call.

        ``size(result)`` is stored with the span; ``keep`` holds on to the
        arguments and result for replay after the pass.
        """
        nid = self.name_id(span_name)
        names, parents, starts, ends, sizes = (
            self.name, self.parent, self.start, self.end, self.size)
        stack, results, clock = self.stack, self.results, time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            sizes.append(-1)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if size is not None:
                sizes[i] = size(out)
            if keep:
                results[i] = (args, kwargs, out)
            return out

        return traced

    # -- installing wrappers -------------------------------------------------

    def _set(self, owner, key, value):
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, owner.__dict__[key]))
            setattr(owner, key, value)

    def install(self, functions: dict, methods: list):
        """Wrap module-level functions everywhere they are bound, and methods.

        ``functions`` maps each original function to its wrapper;
        ``methods`` lists (class, attribute, wrapper) triples.
        """
        for cls, attr, wrapper in methods:
            self._set(cls, attr, wrapper)
        for modname in MODULES:
            mod = sys.modules[modname]
            for key, val in list(vars(mod).items()):
                if _is_function(val) and val in functions:
                    self._set(mod, key, functions[val])
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if _is_function(v) and v in functions:
                            self._set(val, k, functions[v])
                if callable(val) and getattr(val, "__defaults__", None):
                    defaults = val.__defaults__
                    new = tuple(functions.get(d, d) if _is_function(d) else d
                                for d in defaults)
                    if new != defaults:
                        self._undo.append((val, "__defaults__", defaults))
                        val.__defaults__ = new

    def uninstall(self):
        for owner, key, old in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._undo.clear()

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "size": np.frombuffer(self.size, dtype=np.int64).copy(),
        }


def _is_function(v) -> bool:
    """Plain callables that can be looked up in the wrapper table."""
    return callable(v) and not isinstance(v, type)


def instrument(tracer: Tracer) -> None:
    """Wrap the public entry points of every drfeas layer."""
    import drfeas.cli as cli
    import drfeas.engine as engine
    import drfeas.geometry as geometry
    import drfeas.problems as problems
    import drfeas.repro as repro
    import drfeas.sets as sets
    import drfeas.verifier as verifier

    def n_records(out):
        return len(out[0])

    functions = {
        geometry.as_point: tracer.wrap(geometry.as_point, "geometry.as_point"),
        engine.run_dr: tracer.wrap(engine.run_dr, "engine.run_dr",
                                   n_records, keep=True),
        engine.run_dr_generic: tracer.wrap(engine.run_dr_generic,
                                           "engine.run_dr_generic",
                                           n_records, keep=True),
        engine.run_ap: tracer.wrap(engine.run_ap, "engine.run_ap",
                                   n_records, keep=True),
        engine.dr_step: tracer.wrap(engine.dr_step, "engine.dr_step"),
        engine.dr_step_generic: tracer.wrap(engine.dr_step_generic,
                                            "engine.dr_step_generic"),
        engine.detect_cycle: tracer.wrap(engine.detect_cycle,
                                         "engine.detect_cycle"),
        engine.detect_linear_divergence: tracer.wrap(
            engine.detect_linear_divergence, "engine.detect_linear_divergence"),
        problems.load_problem: tracer.wrap(problems.load_problem,
                                           "problems.load_problem"),
        cli.main: tracer.wrap(cli.main, "cli.main"),
        cli.trace_to_csv: tracer.wrap(cli.trace_to_csv, "cli.trace_to_csv",
                                      lambda text: text.count("\n") - 1),
        repro.run_experiment: tracer.wrap(repro.run_experiment,
                                          "repro.run_experiment"),
        verifier.run_all_suites: tracer.wrap(verifier.run_all_suites,
                                             "verifier.run_all_suites"),
        verifier.mutant_killed: tracer.wrap(verifier.mutant_killed,
                                            "verifier.mutant_killed", keep=True),
    }
    for suite, fn in verifier.SUITES.items():
        functions[fn] = tracer.wrap(fn, f"verifier.{suite}", keep=True)
    for name, fn in repro.EXPERIMENTS.items():
        functions[fn] = tracer.wrap(fn, f"repro.{name}")

    methods = [
        (geometry.HalfSpace, "value", "geometry.HalfSpace.value"),
        (geometry.Hyperplane, "value", "geometry.Hyperplane.value"),
        (sets.FinitePointSet, "project_all", "sets.Finite.project_all"),
        (sets.Sphere, "project_all", "sets.Sphere.project_all"),
        (sets.TriadicSet, "project_all", "sets.Triadic.project_all"),
        (sets.BinaryKnapsackSet, "project_all", "sets.Knapsack.project_all"),
        (sets.ProductSet, "project_all", "sets.Product.project_all"),
        (sets.Slab, "project", "sets.Slab.project"),
        (sets.PlanarCone, "project", "sets.Cone.project"),
        (sets.DiagonalSet, "project", "sets.Diagonal.project"),
        (sets.DiagonalSet, "reflect", "sets.Diagonal.reflect"),
        (problems.ProblemFile, "build", "problems.ProblemFile.build"),
    ]
    wrapped = []
    for cls, attr, span in methods:
        size = len if attr == "project_all" else None
        wrapped.append((cls, attr, tracer.wrap(cls.__dict__[attr], span, size)))
    tracer.install(functions, wrapped)
