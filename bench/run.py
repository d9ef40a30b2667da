#!/usr/bin/env python3
"""The drfeas benchmark.

    python3 bench/run.py --workload solve-small --seed 0 --seconds 20 --trace 0

Generates the workload's inputs from the seed, drives the package through
its public API in this one process, checks every operation, and prints
one JSON object as the last line of standard output.  ``--trace 0``
reports the end-to-end metrics from untraced passes; ``--trace 1`` makes a
separate traced pass and reports the per-layer metrics.  A full report
goes to bench/out/.  See bench/README.md for the workloads, the metrics
and the layer predictions.
"""

import os

# Quiet environment: no BLAS/OpenMP thread pools next to the measured loop.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, os.path.join(ROOT, "src"))

try:
    import numpy as np
    import drfeas
    import drfeas.cli
    import drfeas.repro
    import drfeas.sets
    import drfeas.verifier
except ImportError as _exc:
    print(f"error: cannot import the program from {ROOT}/src: {_exc}",
          file=sys.stderr)
    sys.exit(2)
if not os.path.abspath(drfeas.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
    print(f"error: drfeas imported from {drfeas.__file__}, not from {ROOT}/src",
          file=sys.stderr)
    sys.exit(2)

import checks  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("solve-small", "solve-knapsack", "verify")
HELDOUT_SEED = 20261017     # for later claims; never used while tuning
COLD_STARTS = 9             # measured cold starts, after one discarded
EXIT_OUTCOMES = {0: "Solved", 2: "Diverging", 3: "CycleDetected",
                 4: "MaxIterations", 5: "DegenerateProjection"}
E2E_UNITS = {"setup_s": "s", "steps_per_s": "1/s", "run_ms_p50": "ms",
             "run_ms_p90": "ms", "trials_per_s": "1/s", "peak_rss_mb": "MB"}


class Pass:
    """What one pass over a workload's operations measured.

    ``times`` has one entry per timed program call, in the same order on
    every pass (NaN when the call raised); ``work`` is the steps (solve
    workloads) or verifier trials (verify) that call completed.
    """

    def __init__(self):
        self.times: list[float] = []
        self.work: list[int] = []
        self.wall = 0.0             # seconds inside timed program calls
        self.attempted = 0
        self.inconclusive = 0
        self.failures: list[str] = []

    def timed(self, seconds: float, work: int):
        self.times.append(seconds)
        self.work.append(work)
        if seconds == seconds:
            self.wall += seconds

    def op(self, label: str, verdict):
        self.attempted += 1
        if verdict == checks.INCONCLUSIVE:
            self.inconclusive += 1
        elif verdict is not None:
            self.failures.append(f"{label}: {verdict}")


class Workload:
    def __init__(self, name: str, seed: int, workdir: str):
        self.name, self.seed, self.workdir = name, seed, workdir
        self.inputs = workloads.generate(name, seed)
        self.oracle = checks.Oracle()
        self.problem_specs = []
        for rel in self.inputs["problems"]:
            with open(os.path.join(ROOT, rel), encoding="utf-8") as fh:
                self.problem_specs.append(json.load(fh))
        self.built = None
        self.unsettled: dict = {}   # (suite seed, trial) -> rerun verdict

    def build(self):
        self.built = workloads.build(self.inputs)

    def run_pass(self) -> Pass:
        p = Pass()
        if self.name == "verify":
            self._verify(p)
            return p
        for case, objs in zip(self.inputs["cases"], self.built["cases"]):
            self._driver_run(p, case, objs)
        for rel, spec in zip(self.inputs["problems"], self.problem_specs):
            first = self._cli_solve(p, rel, spec, None)
            self._cli_solve(p, rel, spec, first)
        if self.name == "solve-small":
            for exp in drfeas.repro.EXPERIMENTS:
                self._repro(p, exp)
        return p

    def _driver_run(self, p: Pass, case: dict, objs):
        constraint, proj_set, x0, cfg = objs
        label = f"{case['family']}#{len(p.times)}"
        driver = case["driver"]
        try:
            t0 = time.perf_counter()
            if driver == "dr":
                trace, outcome = drfeas.run_dr(proj_set, constraint, x0, cfg)
            elif driver == "generic":
                trace, outcome = drfeas.run_dr_generic(constraint, proj_set, x0, cfg)
            else:
                trace, outcome = drfeas.run_ap(proj_set, constraint, x0, cfg)
            dt = time.perf_counter() - t0
        except Exception as exc:  # an exception is a failed operation
            p.timed(float("nan"), 0)
            p.op(label, f"raised {exc!r}")
            return
        p.timed(dt, len(trace))
        xs = [r.x for r in trace.records]
        qs = [r.q for r in trace.records]
        p.op(label, checks.judge(case["spec"], driver, type(outcome).__name__,
                                 xs, qs, _outcome_info(outcome), self.oracle))

    def _cli_solve(self, p: Pass, rel: str, spec: dict, previous):
        """``drfeas solve``; a second solve must write the same bytes."""
        label = f"cli {rel}" + (" (repeat)" if previous is not None else "")
        target = os.path.join(self.workdir, "trace.csv")
        out = io.StringIO()
        try:
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = drfeas.cli.main(["solve", os.path.join(ROOT, rel),
                                        "--output", target])
            dt = time.perf_counter() - t0
            with open(target, encoding="utf-8") as fh:
                text = fh.read()
        except Exception as exc:
            p.timed(float("nan"), 0)
            p.op(label, f"raised {exc!r}")
            return None
        xs, qs = _parse_csv(text)
        p.timed(dt, len(xs))
        outcome = EXIT_OUTCOMES.get(code)
        if outcome is None:
            p.op(label, f"exit code {code}")
        elif previous is not None and text != previous:
            p.op(label, "trace differs from the first solve")
        else:
            info = _summary_info(outcome, out.getvalue(), spec, xs, qs)
            p.op(label, checks.judge(spec, "dr", outcome, xs, qs, info,
                                     self.oracle))
        return text

    def _repro(self, p: Pass, name: str):
        label = f"repro {name}"
        try:
            t0 = time.perf_counter()
            result = drfeas.repro.run_experiment(name)
            p.wall += time.perf_counter() - t0
        except Exception as exc:
            p.op(label, f"raised {exc!r}")
            return
        failed = sorted(k for k, v in result.details.items() if v is False)
        p.op(label, None if result.passed else f"failed checks {failed}")

    def _verify(self, p: Pass):
        verifier = drfeas.verifier
        for call in self.inputs["verify"]:
            label = f"run_all_suites(seed={call['seed']})"
            try:
                t0 = time.perf_counter()
                reports = verifier.run_all_suites(
                    trials=call["trials"], dims=tuple(call["dims"]),
                    seed=call["seed"], oracle_trials=call["oracle_trials"])
                dt = time.perf_counter() - t0
            except Exception as exc:
                p.timed(float("nan"), 0)
                p.op(label, f"raised {exc!r}")
                continue
            p.timed(dt, sum(r.trials for r in reports))
            expected = {"theorems-oracle-agreement": 2 * call["oracle_trials"]}
            for r in reports:
                want = expected.get(r.property_id, call["trials"])
                verdict = None
                if r.trials != want:
                    verdict = f"ran {r.trials} trials, asked for {want}"
                elif not r.passed:
                    verdict = self._suite_failures(call, r)
                p.op(f"{label} {r.property_id}", verdict)
        mutants = self.inputs["mutants"]
        for suite in verifier.MUTANTS:
            try:
                t0 = time.perf_counter()
                killed = verifier.mutant_killed(
                    suite, trials=mutants["trials"], seed=mutants["seed"])
                dt = time.perf_counter() - t0
            except Exception as exc:
                p.timed(float("nan"), 0)
                p.op(f"mutant {suite}", f"raised {exc!r}")
                continue
            p.timed(dt, mutants["trials"])
            p.op(f"mutant {suite}", None if killed else "mutant survived")

    def _suite_failures(self, call: dict, report):
        """Verdict on a suite report that lists failures.

        The lemma suite's ``x-not-eventually-constant`` on a finite Q is a
        budget verdict; each one is rerun and checked independently
        (``checks.judge_unsettled``), once per trial.  Any other failure
        stands.
        """
        verdicts = []
        for f in report.failures:
            if (report.property_id != "lemmas-trajectory-monotonicity"
                    or f.get("reason") != checks.UNSETTLED):
                verdicts.append(f"failure {f}")
                continue
            key = (call["seed"], f["trial"])
            if key not in self.unsettled:
                try:
                    points, a, b, x0 = _rerun_lemma_trial(call, f["trial"])
                    self.unsettled[key] = checks.judge_unsettled(
                        points, a, b, x0, f["x"], drfeas.sets.TIE_TOL)
                except Exception as exc:
                    self.unsettled[key] = f"rerun raised {exc!r}"
            if self.unsettled[key] != checks.INCONCLUSIVE:
                verdicts.append(f"failure {f}: {self.unsettled[key]}")
        if verdicts:
            return f"{len(verdicts)} failures, first {verdicts[0]}"
        return checks.INCONCLUSIVE


def _rerun_lemma_trial(call: dict, trial: int):
    """Points, unit normal, offset and start of one lemma-suite trial.

    Reruns ``check_lemmas`` up to that trial on the call's seed, which draws
    the same instances in the same order, recording each FinitePointSet
    built and each step taken.  The trial's Q is the last set built and its
    start the first state stepped from after that.
    """
    verifier = drfeas.verifier
    plain = verifier.FinitePointSet
    built, steps = [], []

    class Recorded(plain):
        def __init__(self, points):
            super().__init__(points)
            built.append((self.points, len(steps)))

    def step(x, q, hs):
        steps.append((np.array(x, dtype=float), hs))
        return verifier.dr_step(x, q, hs)

    verifier.FinitePointSet = Recorded
    try:
        verifier.check_lemmas(trial + 1, tuple(call["dims"]), call["seed"],
                              step_fn=step)
    finally:
        verifier.FinitePointSet = plain
    points, first = built[-1]
    x0, hs = steps[first]
    return points, hs.a, hs.b, x0


def _outcome_info(outcome) -> dict:
    kind = type(outcome).__name__
    if kind == "Solved":
        return {"q": outcome.q}
    if kind == "Diverging":
        c = outcome.certificate
        return {"q_fixed": c.q_fixed, "increment": c.increment,
                "offsets": c.offsets}
    if kind == "CycleDetected":
        return {"period": outcome.period, "first": outcome.first_index}
    if kind == "DegenerateProjection":
        return {"at_index": outcome.at_index}
    return {}


def _parse_csv(text: str):
    lines = text.strip().splitlines()
    if len(lines) < 2:
        return [], []
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    n = (rows.shape[1] - 4) // 2
    return list(rows[:, 1:1 + n]), list(rows[:, 1 + n:1 + 2 * n])


def _summary_info(outcome: str, summary: str, spec: dict, xs, qs) -> dict:
    """Outcome data the CLI prints, completed from the written trace."""
    if outcome == "Solved":
        return {"q": qs[-1]}
    if outcome == "CycleDetected":
        m = re.search(r"period (\d+), first seen at index (\d+)", summary)
        return {"period": int(m.group(1)) if m else 0,
                "first": int(m.group(2)) if m else 0}
    if outcome == "Diverging":
        m = re.search(r"increment (\S+) from index (\d+)", summary)
        a = np.asarray(spec["constraint"]["a"], dtype=float)
        norm = float(np.linalg.norm(a))
        a, b = a / norm, float(spec["constraint"]["b"]) / norm
        q = qs[-1]
        gap = float(a @ q) - b
        printed = float(m.group(1)) if m else float("nan")
        start = int(m.group(2)) if m else len(xs)
        # The summary prints the increment to six digits; accept it when it
        # rounds the trace's own increment, and check the trace with that.
        inc = gap if abs(printed - gap) <= 1e-5 * (1.0 + abs(gap)) else printed
        return {"q_fixed": q, "increment": inc,
                "offsets": [float(a @ (q - x)) for x in xs[start + 1:]]}
    if outcome == "DegenerateProjection":
        m = re.search(r"index (\d+)", summary)
        return {"at_index": int(m.group(1)) if m else -1}
    return {}


def cold_start(inputs_path: str) -> float:
    """Wall seconds from spawning a fresh interpreter to its ``ready`` line."""
    cmd = [sys.executable, os.path.join(HERE, "coldstart.py"), inputs_path]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"cold start failed with exit code {code}")
    return elapsed


def _git_sha() -> str:
    """HEAD of a checkout's own .git, read without leaving the checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if os.path.exists(os.path.join(git, name)):
            with open(os.path.join(git, name), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "drfeas")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def metadata(args, passes: int) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "heldout_seed": HELDOUT_SEED, "seconds": args.seconds,
        "trace": args.trace, "passes": passes, "cold_starts": COLD_STARTS,
        "git_sha": _git_sha(), "src_sha256": _src_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


def rate_metrics(workload: str, times, work) -> dict:
    """End-to-end figures from one time per timed call."""
    times = np.asarray(times, dtype=float)
    ok = ~np.isnan(times)
    total = float(times[ok].sum())
    done = float(np.asarray(work)[ok].sum())
    ms = 1e3 * times[ok]
    return {"steps_per_s": done / total,
            "trials_per_s": done / total if workload == "verify"
            else int(ok.sum()) / total,
            "run_ms_p50": float(np.median(ms)),
            "run_ms_p90": float(np.percentile(ms, 90))}


def measure(wl: Workload, seconds: float, inputs_path: str):
    """Whole passes until ``seconds`` have elapsed (at least two).

    The cold starts are spread over the same window, one whenever its
    share of the window has passed, so that they sample the host's slow
    and fast phases alike.
    """
    passes, setup = [], []
    t0 = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - t0 < seconds:
        gc.collect()
        passes.append(wl.run_pass())
        while (len(setup) < COLD_STARTS
               and time.perf_counter() - t0 >= len(setup) * seconds / COLD_STARTS):
            setup.append(cold_start(inputs_path))
    while len(setup) < COLD_STARTS:
        setup.append(cold_start(inputs_path))
    return passes, setup


def warm_up(wl: Workload):
    """Load lazily imported code paths and fill caches before timing."""
    if wl.name == "verify":
        drfeas.verifier.run_all_suites(trials=20, seed=wl.seed, oracle_trials=2)
        return
    seen = set()
    for case, objs in zip(wl.inputs["cases"], wl.built["cases"]):
        if case["family"] not in seen:
            seen.add(case["family"])
            wl._driver_run(Pass(), case, objs)


def run_untraced(args, wl: Workload, inputs_path: str, meta: dict):
    """End-to-end metrics.

    Every pass repeats the same calls, so each call's time is taken as the
    fastest of its repeats: the host's slow phases only ever add time.
    """
    cold_start(inputs_path)     # compiles bytecode; not counted
    wl.build()
    warm_up(wl)
    passes, setup = measure(wl, args.seconds, inputs_path)
    best = np.nanmin(np.array([p.times for p in passes]), axis=0)
    values = rate_metrics(wl.name, best, passes[0].work)
    per_pass = [rate_metrics(wl.name, p.times, p.work) for p in passes]
    values["setup_s"] = statistics.median(setup)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stats = {k: {"value": values[k],
                 "pass_median": statistics.median(d[k] for d in per_pass),
                 "pass_min": min(d[k] for d in per_pass)}
             for k in per_pass[0]}
    stats["setup_s"] = {"value": values["setup_s"], "min": min(setup),
                        "cold_starts": setup}
    stats["peak_rss_mb"] = {"value": values["peak_rss_mb"]}
    meta.update(metadata(args, len(passes)), stats=stats)
    metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}
    return passes, metrics


def run_traced(args, wl: Workload, meta: dict):
    """Per-layer metrics from one traced pass, after one untraced pass."""
    import layers
    import spans
    wl.build()
    warm_up(wl)
    gc.collect()
    t0 = time.perf_counter()
    plain = wl.run_pass()
    plain_wall = time.perf_counter() - t0

    tracer = spans.Tracer()
    spans.instrument(tracer)
    try:
        wl.build()
        pass_start = len(tracer.start)
        gc.collect()
        t0 = time.perf_counter()
        traced = wl.run_pass()
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    report = layers.analyse(tracer, pass_start, traced.wall)
    path = os.path.join(OUT, f"{wl.name}-seed{wl.seed}-spans.npz")
    layers.write_spans(path, tracer)
    meta.update(metadata(args, 2), tracing_overhead=traced_wall / plain_wall,
                untraced_wall_s=plain_wall, traced_wall_s=traced_wall,
                spans_file=os.path.relpath(path, ROOT), layers=report["all"])
    return [plain, traced], report["declared"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "problems")):
        print(f"error: no problems/ directory under {ROOT}", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = Workload(args.workload, args.seed, workdir)
        inputs_path = os.path.join(workdir, "inputs.json")
        with open(inputs_path, "w", encoding="utf-8") as fh:
            json.dump(wl.inputs, fh)
        meta: dict = {}
        if args.trace:
            passes, metrics = run_traced(args, wl, meta)
        else:
            passes, metrics = run_untraced(args, wl, inputs_path, meta)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    meta.update(attempted=attempted, failed=len(failures),
                failed_ratio=len(failures) / attempted,
                inconclusive=sum(p.inconclusive for p in passes),
                failures=sorted(set(failures)),
                lemma_budget_verdicts={f"seed {k[0]} trial {k[1]}": v
                                       for k, v in wl.unsettled.items()})
    report_path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, default=float)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} operations, {len(failures)} failed "
          f"(failed_ratio {meta['failed_ratio']:.6g}), "
          f"{meta['inconclusive']} inconclusive; "
          f"report {os.path.relpath(report_path, ROOT)}")
    for f in meta["failures"][:20]:
        print(f"  failed: {f}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
