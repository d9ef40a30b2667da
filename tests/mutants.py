"""Mutants of the drivers' held steps and verdicts, each with its kills.

Each row is one deliberate fault (mutation analysis, DeMillo, Lipton &
Sayward 1978) in the code that decides how long ``run_dr`` holds q:
``_HalfSpaceSplit``'s held-q and closed-form code in
``src/drfeas/engine.py``, and the finite sets' twin guard, the bound of
a hold with no point ahead and ``BinaryKnapsackSet.ray_hold`` with its
split search in ``src/drfeas/sets.py``; or in ``_tie_filter``, which
picks the nearest points of every finite set.  Further rows break the
drivers' verdicts in ``engine.py`` (the divergence march's window, the
cycle detector's table and its confirmation, ``run_ap``'s separate tags
for x and q) and the knapsack search's rounded fast path and its second
gather (its bound, the cost test that calls for it, the gather itself).
A row holds the file, the exact old text, which must occur once in it,
the text that replaces it, and the tests that fail on it.

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
SETS = "src/drfeas/sets.py"
BOUNDS = ("tests/test_engine.py::TestClosedFormSegments::"
          "test_a_segment_ends_at_each_bound")
CROSSING = ("tests/test_engine.py::TestSegmentReuse::"
            "test_reuse_stops_before_the_crossing")
INSIDE_CASE = ("tests/test_engine.py::TestSegmentReuse::"
               "test_x_equal_to_q_is_held_at_lam_zero")
BEHIND = ("tests/test_engine.py::TestSegmentReuse::"
          "test_a_point_behind_q_ties_it_by_rounding")
MARGIN = ("tests/test_engine.py::TestSegmentMargins::"
          "test_no_segment_starts_inside_a_margin")
GOLDEN_TRACE = ("tests/test_cli.py::TestGoldenOutput::"
                "test_bundled_trace_is_byte_identical[infeasible.json]")
HOLD = "tests/test_sets.py::TestRayHold::"
SCAN = ("tests/test_sets.py::TestFinitePointSet::"
        "test_projection_is_the_reference_scan")
FULL_SCAN = ("tests/test_sets.py::TestBinaryKnapsackSplitSearch::"
             "test_identical_to_full_scan")
EDGE = ("tests/test_sets.py::TestBinaryKnapsack::"
        "test_contains_agrees_with_projection_at_rounding_edge")


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
            "test_no_certificate_for_transient_march",)),
    # the hold on the computed lambda
    Mutant("no-early-hold", ENGINE,
           "self.hold = self.proj_set.ray_hold(self.q, a)",
           "self.hold = 0.0",
           ("tests/test_engine.py::TestSegmentReuse::"
            "test_step_zero_and_handovers_are_projected", INSIDE_CASE,
            f"{HOLD}test_knapsack_workload_holds_never_project")),
    Mutant("hold-test-le", ENGINE,
           "0.0 <= self.lam < self.hold", "0.0 <= self.lam <= self.hold",
           (CROSSING,)),
    Mutant("stale-lam-after-inside-step", ENGINE,
           "self.lam = 0.0              # x' = q", "pass",
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
    # a twin of q that project_all compares, ahead of q or behind it
    Mutant("no-twin-guard", SETS,
           "if behind and np.count_nonzero(f <= tol) > 1:",
           "if False:",
           (f"{HOLD}test_finite_exact_and_near_ties",
            f"{HOLD}test_triadic_against_brute_force")),
    Mutant("triadic-twin-below-ignored", SETS,
           "return a[0] < 0", "return False",
           (f"{HOLD}test_triadic_against_brute_force",)),
    # with no point ahead of q, the hold ends where rounding could tie a
    # point behind it
    Mutant("finite-behind-unbounded", SETS,
           "return float(_ray_reach(f[other], s[other], self.dim).min())",
           "return np.inf",
           (f"{BEHIND}[finite-march]", f"{BEHIND}[finite-second-step]",
            f"{HOLD}test_finite_against_brute_force",
            f"{HOLD}test_triadic_against_brute_force")),
    Mutant("knapsack-no-crossing-uncapped", SETS,
           "lam = np.inf  # q attains the support: no corner gains",
           "return np.inf",
           (f"{BEHIND}[knapsack]",
            f"{HOLD}test_knapsack_no_crossing_takes_no_round",
            f"{HOLD}test_knapsack_workload_holds_never_project")),
    # the knapsack hold's split search
    Mutant("count-0-kept", SETS,
           "g[ch.argmin(), 0] = -np.inf  # y = q", "pass  # y = q",
           (f"{HOLD}test_knapsack_against_all_corners",
            f"{HOLD}test_knapsack_workload_holds_never_project")),
    Mutant("band-read-from-reach", SETS,
           "start = np.searchsorted(tails, self._sure[heads])",
           "start = np.searchsorted(tails, self._reach[heads])",
           (f"{HOLD}test_knapsack_relaxation_feasible_by_row_sums",
            f"{HOLD}test_knapsack_degenerate_weights_against_all_corners",
            f"{HOLD}test_knapsack_split_search_against_dinkelbach")),
    Mutant("zero-gain-kept", SETS,
           "tol = (m + 2) * _EPS * math.sqrt(m)", "tol = 0.0",
           (f"{HOLD}test_knapsack_against_all_corners",
            f"{HOLD}test_knapsack_no_crossing_takes_no_round")),
    Mutant("round-bound-le", SETS,
           "if (bound[top:] < lam).any():  # once: it leaves bound[top:] >= lam\n"
           "                    top = int(np.flatnonzero(bound < lam)[-1]) + 1",
           "if (bound[top:] <= lam).any():\n"
           "                    top = int(np.flatnonzero(bound <= lam)[-1]) + 1",
           (f"{HOLD}test_knapsack_search_stops_at_the_bound",)),
    Mutant("no-gain-check-skipped", SETS,
           "elif float(q @ a) - self.min_along(a) <= tol:", "elif False:",
           (f"{HOLD}test_knapsack_no_crossing_takes_no_round",
            f"{HOLD}test_knapsack_against_all_corners")),
    Mutant("no-hold-shrink", SETS,
           "return max(0.0, lam * (1.0 - _ray_tol(lam, s, m)))",
           "return max(0.0, lam)",
           (f"{HOLD}test_knapsack_against_all_corners",
            f"{HOLD}test_knapsack_relaxation_feasible_by_row_sums")),
    Mutant("relaxation-always-searches", SETS,
           "if w[i] > 0 and np.sum(y[None] * self.c, axis=1)[0] >= "
           "self.threshold:",
           "if False:",
           (f"{HOLD}test_knapsack_against_all_corners",)),
    # _tie_filter: a unique nearest point builds no tie list
    Mutant("unique-path-on-ties", SETS,
           "if np.count_nonzero(near) == 1:", "if True:",
           (SCAN, "tests/test_sets.py::TestTriadicSet::test_midpoint_tie",
            "tests/test_sets.py::TestProductSet::test_tie_sets_multiply")),
    Mutant("unique-row-shared", SETS,
           "return [candidates[i].copy()]", "return [candidates[i]]",
           (SCAN, "tests/test_sets.py::TestFinitePointSet::"
                  "test_projection_is_brute_force_argmin")),
    Mutant("exact-only-ties", SETS,
           "near = d2 <= d2[i] + TIE_TOL", "near = d2 <= d2[i]",
           (SCAN,)),
    # the divergence march, the cycle detector and the knapsack fast path
    Mutant("march-window-off-by-one", ENGINE,
           "length >= window", "length > window",
           (GOLDEN_TRACE, "tests/test_engine.py::TestRunDr::"
                          "test_march_after_a_handover_starts_at_the_handover")),
    Mutant("confirm-one-step", ENGINE,
           "if done >= period:", "if done >= 1:",
           ("tests/test_cli.py::TestGoldenOutput::"
            "test_bundled_trace_is_byte_identical[corner-cycle.json]",
            "tests/test_bench_contract.py::test_every_workload_run_is_pinned")),
    Mutant("first-occurrence-kept", ENGINE,
           "self.seen[key] = index", "self.seen.setdefault(key, index)",
           ("tests/test_engine.py::TestDetectCycle::"
            "test_a_match_closes_the_shortest_loop",)),
    Mutant("ap-untagged-q", ENGINE,
           'tag="q"', 'tag="x"',
           ("tests/test_engine.py::TestRunAp::"
            "test_x_and_q_in_one_grid_cell_are_different_states",)),
    Mutant("cheapest-fast-path-unguarded", SETS,
           "if (np.abs(g).min() > tol", "if (True",
           (f"{FULL_SCAN}[lattice]", f"{FULL_SCAN}[scaled]")),
    # the knapsack search's second gather, up to the surely feasible bound
    Mutant("sure-bound-is-reach", SETS,
           "suffix[self._sure]", "suffix[self._reach]",
           (EDGE,)),
    Mutant("anchor-check-dropped", SETS,
           "if feasible.any() and float(cost[feasible].min()) + tol <= hi:",
           "if feasible.any():",
           ("tests/test_sets.py::TestBinaryKnapsackSplitSearch::"
            "test_ties_beyond_a_rounded_out_corner",)),
    Mutant("one-gather-only", SETS,
           "for _ in range(2):", "for _ in range(1):",
           (EDGE,)),
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
