"""Command-line front end: solve, compare, repro, and verify.

Exit codes encode the run outcome for scripting:
0 solved, 2 diverging, 3 cycle detected, 4 iteration cap reached,
5 degenerate projection, 1 input or usage error (one ``error:`` line on
stderr, and no numpy overflow warning), such as a run's ``ValueError`` on
an input past the float range.  Names and defaults are the library's:
``problems.SETTINGS``, ``repro.EXPERIMENTS`` (``repro -h`` lists them) and
``verifier.run_all_suites``'s defaults for the flags ``verify`` is not given.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import repro as repro_mod
from . import verifier as verifier_mod
from .engine import (
    CycleDetected,
    DegenerateProjection,
    Diverging,
    MaxIterations,
    Solved,
    Trace,
    run_ap,
    run_dr_generic,
)
from .problems import SETTINGS, build_problem, solver_config

__all__ = ["main"]

EXIT_CODES = {
    Solved: 0,
    Diverging: 2,
    CycleDetected: 3,
    MaxIterations: 4,
    DegenerateProjection: 5,
}


def _fmt_point(p) -> str:
    return "(" + ", ".join("%g" % v for v in np.asarray(p).ravel()) + ")"


def _summary(outcome) -> str:
    if isinstance(outcome, Solved):
        return (f"Solved q*={_fmt_point(outcome.q)} "
                f"in {outcome.iterations} iterations")
    if isinstance(outcome, Diverging):
        cert = outcome.certificate
        return (f"Diverging: certificate increment {cert.increment:g} "
                f"from index {cert.start_index}, constant "
                f"q={_fmt_point(cert.q_fixed)}")
    if isinstance(outcome, CycleDetected):
        return (f"CycleDetected: period {outcome.period}, "
                f"first seen at index {outcome.first_index}")
    if isinstance(outcome, MaxIterations):
        note = " (norm cap reached)" if outcome.norm_capped else ""
        return f"MaxIterations: final d(q,H)={outcome.final_dist:.6g}{note}"
    return f"DegenerateProjection at index {outcome.at_index}"


def _rows(trace: Trace):
    """(k, x, q, d_xH, d_qH, d_xL) per step, as Python ints and floats."""
    return zip(range(len(trace)), trace.x.tolist(), trace.q.tolist(),
               trace.d_xH.tolist(), trace.d_qH.tolist(), trace.d_xL.tolist())


def trace_to_csv(trace: Trace) -> str:
    """A header, then one row per step; float repr keeps output
    byte-identical per input."""
    n = trace.dim
    header = (["k"] + [f"x{i}" for i in range(n)] + [f"q{i}" for i in range(n)]
              + ["d_xH", "d_qH", "d_xL"])
    lines = [",".join(header)]
    for k, x, q, *dist in _rows(trace):
        lines.append(",".join([str(k), *map(repr, x), *map(repr, q),
                               *map(repr, dist)]))
    return "\n".join(lines) + "\n"


def trace_to_json(trace: Trace, outcome) -> str:
    records = [
        {"k": k, "x": x, "q": q, "d_xH": d_xH, "d_qH": d_qH, "d_xL": d_xL}
        for k, x, q, d_xH, d_qH, d_xL in _rows(trace)
    ]
    payload = {
        "fingerprint": trace.fingerprint,
        "outcome": type(outcome).__name__,
        "summary": _summary(outcome),
        "records": records,
    }
    return json.dumps(payload, indent=2) + "\n"


def _add_setting_flags(p: argparse.ArgumentParser) -> None:
    group = p.add_argument_group(
        "settings", "override the problem file's config keys of the same name")
    for name, (_, kind, choices) in SETTINGS.items():
        group.add_argument("--" + name.replace("_", "-"), dest=name,
                           type=kind, choices=choices, default=None)


def _given(args, names) -> dict:
    return {n: getattr(args, n) for n in names if getattr(args, n) is not None}


def _load(args):
    constraint, proj_set, x0, cfg = build_problem(args.problem)
    return constraint, proj_set, x0, solver_config(_given(args, SETTINGS), cfg)


def _emit_trace(trace, outcome, args) -> None:
    if args.output is None:
        return
    text = (trace_to_json(trace, outcome) if args.format == "json"
            else trace_to_csv(trace))
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def cmd_solve(args) -> int:
    constraint, proj_set, x0, cfg = _load(args)
    trace, outcome = run_dr_generic(constraint, proj_set, x0, cfg)
    _emit_trace(trace, outcome, args)
    print(_summary(outcome))
    return EXIT_CODES[type(outcome)]


def _final(column) -> str:
    """A column's last value, or "-" for a run that took no step."""
    return f"{column[-1]:.3g}" if len(column) else "-"


def cmd_compare(args) -> int:
    constraint, proj_set, x0, cfg = _load(args)
    runs = [("DR", *run_dr_generic(constraint, proj_set, x0, cfg)),
            ("AP", *run_ap(proj_set, constraint, x0, cfg))]
    rows = [("method", "outcome", "steps", "final d(x,H)", "final d(q,H)")]
    rows += [(method, _summary(outcome), str(len(trace)), _final(trace.d_xH),
              _final(trace.d_qH)) for method, trace, outcome in runs]
    widths = [max(len(row[i]) for row in rows) for i in range(5)]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0


def cmd_repro(args) -> int:
    names = repro_mod.EXPERIMENTS if args.name == "all" else [args.name]
    all_passed = True
    for name in names:
        result = repro_mod.run_experiment(name)
        print(result.summary())
        all_passed &= result.passed
    return 0 if all_passed else 1


def cmd_verify(args) -> int:
    flags = _given(args, ("trials", "dims", "seed", "oracle_trials"))
    reports = verifier_mod.run_all_suites(**flags)
    for report in reports:
        print(json.dumps(report.to_json_dict(), indent=2))
    return 0 if all(r.passed for r in reports) else 1


def _checked(check):
    """An argparse type from a check that raises ValueError."""
    def parse(text: str):
        try:
            return check(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return parse


def _dims(text: str) -> tuple[int, ...]:
    return verifier_mod.check_dims([int(d) for d in text.split(",")])


def _seed(text: str) -> int:
    return verifier_mod.check_seed(int(text))


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so ``main`` exits 1 on them: 2 means Diverging."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="drfeas",
        description="Douglas-Rachford feasibility solver for a constraint "
                    "set paired with a (possibly non-convex) projectable set",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the solver on a problem file")
    p_solve.add_argument("problem", help="path to a JSON problem file")
    _add_setting_flags(p_solve)
    p_solve.add_argument("--format", choices=["csv", "json"], default="csv")
    p_solve.add_argument("--output", default=None,
                         help="trace destination ('-' for stdout)")
    p_solve.set_defaults(func=cmd_solve)

    p_cmp = sub.add_parser(
        "compare",
        help="run the split method and alternating projections side by side",
    )
    p_cmp.add_argument("problem")
    _add_setting_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_repro = sub.add_parser("repro", help="run named experiments")
    p_repro.add_argument("name", choices=[*repro_mod.EXPERIMENTS, "all"])
    p_repro.set_defaults(func=cmd_repro)

    p_verify = sub.add_parser("verify", help="run the property suites")
    trials = _checked(lambda text: verifier_mod.check_trials(int(text)))
    p_verify.add_argument("--trials", type=trials)
    p_verify.add_argument("--oracle-trials", type=trials)
    p_verify.add_argument("--dims", type=_checked(_dims),
                          help="comma-separated ambient dimensions")
    p_verify.add_argument("--seed", type=_checked(_seed))
    p_verify.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process; parsing leaves no state on it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (argparse.ArgumentError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
