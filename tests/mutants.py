"""Mutants of ``run_dr``'s held steps, each with the tests that kill it.

Each row is one deliberate fault (mutation analysis, DeMillo, Lipton &
Sayward 1978) in ``_HalfSpaceSplit``'s held-q and closed-form code in
``src/drfeas/engine.py``: its exact old text, which must occur once in
the file, the text that replaces it, and the tests that fail on it.

    python tests/mutants.py              # each mutant against its tests
    python tests/mutants.py --all [ID]   # against the whole suite

The runner copies the repository (not ``.git``) to a temporary directory,
since the benchmark contract tests check that the program is imported
from ``src/`` beside ``bench/``.  It applies one mutant at a time to the
copy's ``src/`` and runs pytest there.  A mutant is killed when each of
its listed tests fails (``--all``: any test) and survives when every
test passes; ``--all`` also lists the tests that fail, to choose a
row's kills.  The exit status is 1 unless every mutant is killed.
``test_mutants.py`` checks every old text against the current source.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENGINE = "src/drfeas/engine.py"
BOUNDS = ("tests/test_engine.py::TestClosedFormSegments::"
          "test_a_segment_ends_at_each_bound")
CROSSING = ("tests/test_engine.py::TestSegmentReuse::"
            "test_reuse_stops_before_the_crossing")
INSIDE_CASE = ("tests/test_engine.py::TestSegmentReuse::"
               "test_an_inside_case_step_leaves_lam_unknown")
MARGIN = ("tests/test_engine.py::TestSegmentMargins::"
          "test_no_segment_starts_inside_a_margin")
GOLDEN_TRACE = ("tests/test_cli.py::TestGoldenOutput::"
                "test_bundled_trace_is_byte_identical[infeasible.json]")


class Mutant(NamedTuple):
    id: str
    file: str       # relative to the repository root
    old: str
    new: str
    kills: tuple    # pytest node ids


MUTANTS = (
    # the closed form's bounds (the first segment change)
    Mutant("no-window-bound", ENGINE,
           "n = min(n, SolverConfig.window - self.length)", "pass",
           (BOUNDS, GOLDEN_TRACE)),
    Mutant("max-iter-plus-one", ENGINE,
           "n = self.cfg.max_iter - k", "n = self.cfg.max_iter - k + 1",
           (BOUNDS, "tests/test_engine.py::TestColumnarTrace::"
                    "test_long_march_memory_per_record")),
    Mutant("hold-count-plus-one", ENGINE,
           "n = int(np.searchsorted(lams[:n], end))",
           "n = min(n, int(np.searchsorted(lams[:n], end)) + 1)",
           (BOUNDS, CROSSING)),
    Mutant("searchsorted-side-right", ENGINE,
           "np.searchsorted(lams[:n], end)",
           "np.searchsorted(lams[:n], end, side='right')",
           (CROSSING,)),
    Mutant("no-searchsorted", ENGINE,
           "n = int(np.searchsorted(lams[:n], end))", "n = int(n)",
           (BOUNDS, CROSSING)),
    Mutant("no-hold-bound", ENGINE,
           "end = min(self.hold, aq + w)", "end = aq + w",
           (BOUNDS, CROSSING)),
    Mutant("no-upper-cap-root", ENGINE,
           "end = min(self.hold, aq + w)", "end = self.hold",
           (BOUNDS, "tests/test_engine.py::TestRunDr::"
                    "test_norm_cap_ends_the_march")),
    Mutant("no-march-length-update", ENGINE,
           "self.length = self.length + n if witness else 0", "pass",
           (BOUNDS, GOLDEN_TRACE)),
    Mutant("m-assumed-known", ENGINE,
           "if m is None:\n            return k, x",
           "if m is None:\n"
           "            m = self.proj_set.min_along(self.constraint.a)",
           ("tests/test_engine.py::TestRunDr::"
            "test_no_certificate_for_transient_march", INSIDE_CASE)),
    # the hold on the computed lambda
    Mutant("hold-test-le", ENGINE,
           "0.0 <= self.lam < self.hold", "0.0 <= self.lam <= self.hold",
           (CROSSING,)),
    Mutant("stale-lam-after-inside-step", ENGINE,
           "self.lam = math.nan\n            return k + 1, q.copy()",
           "return k + 1, q.copy()",
           (INSIDE_CASE,)),
    Mutant("segment-keeps-first-lam", ENGINE,
           "self.lam = float(lams[n])", "pass",
           (CROSSING, "tests/test_engine.py::TestClosedFormSegments::"
                      "test_instances_decide_as_stepped")),
    # one per rounding-margin guard
    Mutant("no-case-guard", ENGINE,
           " and v + lam - t > eps_h):", "):",
           (f"{MARGIN}[case-stalled]", f"{MARGIN}[case]")),
    Mutant("no-membership-guard", ENGINE,
           "if v - lam + t > eps_h:", "if False:",
           (f"{MARGIN}[membership]",)),
    Mutant("no-lower-cap-root", ENGINE,
           " or not lam >= aq - w:", ":",
           (f"{MARGIN}[cap]",)),
)


def apply(mutant: Mutant, source: str) -> str:
    """``source`` with the mutant's old text, found exactly once, replaced."""
    if source.count(mutant.old) != 1:
        raise ValueError(f"{mutant.id}: old text occurs "
                         f"{source.count(mutant.old)} times in {mutant.file}")
    return source.replace(mutant.old, mutant.new)


def run_tests(root: str, tests) -> tuple[int, list[str]]:
    """pytest's exit status on ``tests`` in the copy at ``root``, and the
    ids of the tests that failed."""
    # test_mutants.py fails on every mutant: it checks the old texts
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
           "--tb=no", "-rf", "--ignore=tests/test_mutants.py", *tests]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          text=True)
    return done.returncode, [line.split()[1]
                             for line in done.stdout.splitlines()
                             if line.startswith("FAILED ")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--all", action="store_true",
                        help="run the whole suite against each mutant")
    parser.add_argument("ids", nargs="*", help="mutant ids (default: all)")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if not args.ids or m.id in args.ids]
    bad, start = 0, time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        root = os.path.join(tmp, "repo")
        shutil.copytree(ROOT, root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", "out"))
        for m in chosen:
            path = os.path.join(root, m.file)
            with open(os.path.join(ROOT, m.file), encoding="utf-8") as fh:
                original = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(apply(m, original))
            try:
                status, failed = run_tests(root, [] if args.all else m.kills)
            finally:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(original)
            missed = [t for t in ([] if args.all else m.kills)
                      if not any(f == t or f.startswith(t + "[")
                                 for f in failed)]
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"error {status}")
            if status == 1 and missed:
                verdict = f"not killed by {', '.join(missed)}"
            bad += verdict != "killed"
            print(f"{m.id}: {verdict}", flush=True)
            for test in failed if args.all else ():
                print(f"    {test}")
    print(f"{len(chosen) - bad} of {len(chosen)} killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
