"""Per-layer metrics from the spans of one traced pass.

Self time is a span's duration minus the time its child spans cover.  A
"step" is one application of the operator: a trace record of a driver run
that no other driver run contains, or a one-shot ``dr_step`` /
``dr_step_generic`` call made outside any driver.
"""

from __future__ import annotations

import inspect
import json
import statistics
import time
import tracemalloc

import numpy as np

import spans

SET_TYPES = ("Finite", "Sphere", "Triadic", "Knapsack", "Product")
OUTCOMES = ("Solved", "Diverging", "CycleDetected", "MaxIterations",
            "DegenerateProjection")
SUITES = ("prop1", "prop2", "prop3", "prop4", "lemmas", "theorems")
LAYERS = ("geometry", "sets", "engine", "verifier", "problems", "cli", "repro")
REPLAY_BUDGET_S = 0.5       # traced run time replayed under tracemalloc

# The per-layer metrics printed on every traced run (BENCHMARK.json).  Every
# workload reaches each timed one; the rest are counts and ratios.
DECLARED = {
    "geometry.as_point.calls_per_step": "calls/step",
    "geometry.halfspace.calls_per_step": "calls/step",
    "geometry.halfspace.self_us": "us",
    "sets.project_all.calls_per_step": "calls/step",
    "sets.project_all.share": "ratio",
    "sets.Knapsack.project_all_us_p50": "us",
    "sets.tie_ratio": "ratio",
    "sets.max_ties": "count",
    "engine.loop_self_us_per_step": "us",
    "engine.run_setup_us": "us",
    "engine.driver_share": "ratio",
    "engine.dr_step.calls": "count",
    "engine.dr_step.self_us": "us",
    "engine.trace_bytes_per_record": "B",
    "engine.detect_cycle.us_per_state": "us",
    "engine.detect_linear_divergence.us_per_record": "us",
    **{f"engine.outcomes.{o}": "count" for o in OUTCOMES},
    **{f"verifier.{s}.vacuous_ratio": "ratio" for s in SUITES},
    "verifier.mutants_killed": "count",
}


class Spans:
    """The spans from index ``lo`` on, re-indexed from 0."""

    def __init__(self, tracer: spans.Tracer, lo: int = 0):
        a = {k: v[lo:] for k, v in tracer.arrays().items()}
        self.name, self.size = a["name"], a["size"]
        self.start, self.end = a["start"], a["end"]
        self.parent = np.where(a["parent"] >= lo, a["parent"] - lo, -1)
        self.dur = self.end - self.start
        child = np.zeros_like(self.dur)
        has = self.parent >= 0
        np.add.at(child, self.parent[has], self.dur[has])
        self.self_ns = self.dur - child
        self.ids = {n: i for i, n in enumerate(tracer.names)}
        self.names = tracer.names
        self.results = {i - lo: r for i, r in tracer.results.items() if i >= lo}

    def mask(self, *names) -> np.ndarray:
        ids = [self.ids[n] for n in names if n in self.ids]
        return np.isin(self.name, ids)

    def named(self, *names) -> np.ndarray:
        return np.flatnonzero(self.mask(*names))


def _mean(values, scale=1.0) -> float:
    return float(np.mean(values)) * scale if len(values) else 0.0


def _median_us(durations_ns) -> float:
    return float(np.median(durations_ns)) * 1e-3 if len(durations_ns) else 0.0


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def _top_drivers(sp: Spans) -> tuple[np.ndarray, np.ndarray]:
    """Each span's outermost enclosing driver run (itself included), or -1."""
    is_driver = sp.mask(*spans.DRIVERS).tolist()
    parent = sp.parent.tolist()
    top = [-1] * len(parent)
    for i, p in enumerate(parent):
        t = top[p] if p >= 0 else -1
        top[i] = t if t >= 0 else (i if is_driver[i] else -1)
    top = np.asarray(top, dtype=np.int64)
    return top, np.flatnonzero(top == np.arange(len(top)))


def analyse(tracer: spans.Tracer, pass_start: int, program_wall_s: float) -> dict:
    """All per-layer figures, and the declared subset with units.

    Spans before ``pass_start`` come from building the inputs; only
    ``problems.load_ms`` reads them.  ``program_wall_s`` is the time the
    traced pass spent inside timed program calls.
    """
    sp = Spans(tracer, pass_start)
    wall_ns = program_wall_s * 1e9
    top, drivers = _top_drivers(sp)
    driver_steps = int(sp.size[drivers].sum())
    one_shot = sp.named("engine.dr_step", "engine.dr_step_generic")
    steps = driver_steps + int(np.count_nonzero(top[one_shot] < 0))
    m: dict[str, float] = {"steps": steps, "driver_runs": len(drivers)}

    # geometry
    hs = sp.named("geometry.HalfSpace.value", "geometry.Hyperplane.value")
    m["geometry.as_point.calls_per_step"] = _ratio(
        len(sp.named("geometry.as_point")), steps)
    m["geometry.halfspace.calls_per_step"] = _ratio(len(hs), steps)
    m["geometry.halfspace.self_us"] = _mean(sp.self_ns[hs], 1e-3)

    # sets
    proj_names = [f"sets.{t}.project_all" for t in SET_TYPES]
    proj = sp.mask(*proj_names)
    outer = np.flatnonzero(proj & ~np.where(sp.parent >= 0,
                                            proj[np.maximum(sp.parent, 0)], False))
    ties = sp.size[outer]
    m["sets.project_all.calls_per_step"] = _ratio(len(outer), steps)
    m["sets.project_all.us_p50"] = _median_us(sp.dur[outer])
    m["sets.project_all.share"] = _ratio(sp.self_ns[proj].sum(), wall_ns)
    for t, name in zip(SET_TYPES, proj_names):
        idx = sp.named(name)
        m[f"sets.{t}.project_all.calls"] = len(idx)
        m[f"sets.{t}.project_all_us_p50"] = _median_us(sp.dur[idx])
    m["sets.tie_ratio"] = _ratio(np.count_nonzero(ties > 1), len(ties))
    m["sets.max_ties"] = int(ties.max()) if len(ties) else 0

    # engine
    drv_all = sp.named(*spans.DRIVERS)
    m["engine.loop_self_us_per_step"] = _ratio(sp.self_ns[drv_all].sum() * 1e-3,
                                               driver_steps)
    m["engine.run_setup_us"] = _run_setup_us(sp, drivers)
    m["engine.driver_share"] = _ratio(sp.dur[drivers].sum(), wall_ns)
    step = sp.named("engine.dr_step")
    m["engine.dr_step.calls"] = len(step)
    m["engine.dr_step.self_us"] = _mean(sp.self_ns[step], 1e-3)
    runs = [sp.results[i] for i in drivers.tolist()]
    names = [sp.names[sp.name[i]] for i in drivers.tolist()]
    for o in OUTCOMES:
        m[f"engine.outcomes.{o}"] = sum(type(r[2][1]).__name__ == o for r in runs)
    m.update(_replay(runs, names, sp.dur[drivers]))

    # verifier
    top_suites = set(sp.named("verifier.run_all_suites").tolist())
    for s in SUITES:
        idx = [i for i in sp.named(f"verifier.{s}").tolist()
               if sp.parent[i] in top_suites]
        reports = [sp.results[i][2] for i in idx]
        trials = sum(r.trials for r in reports)
        m[f"verifier.{s}.trials_per_s"] = _ratio(trials, sp.dur[idx].sum() * 1e-9)
        m[f"verifier.{s}.vacuous_ratio"] = _ratio(sum(r.vacuous for r in reports),
                                                  trials)
    killed = sp.named("verifier.mutant_killed")
    m["verifier.mutants_killed"] = sum(bool(sp.results[i][2]) for i in killed)
    m["verifier.mutant_checks"] = len(killed)

    # problems (set-up and pass), cli, repro
    every = Spans(tracer)
    loads = every.named("problems.load_problem")
    in_load = set(loads.tolist())
    builds = [i for i in every.named("problems.ProblemFile.build").tolist()
              if every.parent[i] not in in_load]
    m["problems.load_ms"] = _ratio((every.dur[loads].sum() + every.dur[builds].sum())
                                   * 1e-6, len(builds))
    csv = sp.named("cli.trace_to_csv")
    m["cli.solve_ms"] = _mean(sp.dur[sp.named("cli.main")], 1e-6)
    m["cli.trace_csv_us_per_record"] = _ratio(sp.dur[csv].sum() * 1e-3,
                                              sp.size[csv].sum())
    for name in sp.names:
        if name.startswith("repro.") and name != "repro.run_experiment":
            m[f"{name}.ms"] = _mean(sp.dur[sp.named(name)], 1e-6)

    # where the program's time went during the pass, by layer
    for layer in LAYERS:
        ids = [i for n, i in sp.ids.items() if n.startswith(layer + ".")]
        m[f"{layer}.self_share"] = _ratio(sp.self_ns[np.isin(sp.name, ids)].sum(),
                                          wall_ns)
    m["spans"] = len(sp.name)

    declared = {k: {"value": float(m[k]), "unit": u} for k, u in DECLARED.items()}
    return {"all": m, "declared": declared}


def _run_setup_us(sp: Spans, drivers: np.ndarray) -> float:
    """Median time from a driver's start to its first projection or step."""
    first = sp.named(*[f"sets.{t}.project_all" for t in SET_TYPES],
                     "engine.dr_step_generic")
    out = []
    for d in drivers.tolist():
        j = np.searchsorted(first, d)
        if j < len(first) and sp.start[first[j]] < sp.end[d]:
            out.append((sp.start[first[j]] - sp.start[d]) * 1e-3)
    return statistics.median(out) if out else 0.0


def _replay(runs, names, durations) -> dict:
    """Detector and trace-memory costs, replayed on the recorded runs.

    Runs after the wrappers are removed, through the public detectors and
    the unwrapped drivers.
    """
    import drfeas.engine as engine
    from drfeas.geometry import HalfSpace

    cyc_ns = cyc_states = div_ns = div_records = 0
    for (args, kwargs, (trace, _)), name in zip(runs, names):
        fn = getattr(engine, name.split(".")[1])
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        cfg = bound.arguments["cfg"]
        constraint = bound.arguments.get("hs", bound.arguments.get("constraint"))
        states = [r.x for r in trace.records]
        t0 = time.perf_counter_ns()
        engine.detect_cycle(states, cfg.eps_cycle, confirm=True)
        cyc_ns += time.perf_counter_ns() - t0
        cyc_states += len(states)
        if isinstance(constraint, HalfSpace):
            t0 = time.perf_counter_ns()
            engine.detect_linear_divergence(trace.records, constraint, cfg.window,
                                            cfg.eps_h, cfg.eps_cycle)
            div_ns += time.perf_counter_ns() - t0
            div_records += len(trace.records)

    # Longest runs first, until the replay budget of traced time is used.
    order = sorted(range(len(runs)), key=lambda i: (-len(runs[i][2][0]), i))
    mem = recs = 0
    spent = 0.0
    for i in order:
        if spent > REPLAY_BUDGET_S * 1e9:
            break
        spent += durations[i]
        args, kwargs, _ = runs[i]
        fn = getattr(engine, names[i].split(".")[1])
        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        trace, outcome = fn(*args, **kwargs)
        mem += tracemalloc.get_traced_memory()[0] - base
        tracemalloc.stop()
        recs += len(trace)
        del trace, outcome
    return {
        "engine.detect_cycle.us_per_state": _ratio(cyc_ns * 1e-3, cyc_states),
        "engine.detect_linear_divergence.us_per_record": _ratio(div_ns * 1e-3,
                                                                div_records),
        "engine.trace_bytes_per_record": _ratio(mem, recs),
    }


def write_spans(path: str, tracer: spans.Tracer) -> None:
    np.savez(path, names=np.array(json.dumps(tracer.names)), **tracer.arrays())
