"""Command-line interface: exit codes, trace output, and error handling."""

import dataclasses
import hashlib
import json
import os

import pytest

from drfeas import problems
from drfeas.cli import build_parser, main
from drfeas.engine import SolverConfig
from drfeas.problems import SETTINGS

PROBLEM_DIR = os.path.join(os.path.dirname(__file__), "..", "problems")


# sha256 of each bundled problem's CSV trace and of the `repro all` output.
# Refactors of the drivers must keep both byte-identical.
GOLDEN_CSV = {
    "corner-cycle.json": "a83a5e0380a96455996130f24686e6052df25fa5aa78e8f0c965fee985214383",
    "four-points.json": "b6da1cdf4a0bbfc927b020b2b9bb45b1cc6e1033c32faf28a124dad454819809",
    "infeasible.json": "6d8c2e6081815bd23fe688007d6f68117556f7dfbd1aa8b85544febf9e36cd45",
    "knapsack.json": "fd1071023b787232a1553a7a0543dd7be789289584c08eddcb68939694eb5379",
    "sphere.json": "ae0a53ecb9e8e8c4dee6c1482bf290faf4f97e31feaa9b18c8e196bc9a5a2a0b",
    "triadic.json": "845b480064958b193a2564e7417884796ed70629e8a62efd86897f3e2c376ef5",
    "two-points.json": "9bd9421fff4d212a601523a89006d71226999062ff9d85a30e555399166e6029",
}
GOLDEN_REPRO_ALL = "89a72fa1e8a538f240304632b9181dedbd1d5d58f51394d1e3193ba3b252ba13"
# sha256 of the stdout of `solve` and `compare` on each bundled problem.
GOLDEN_STDOUT = {
    ("compare", "corner-cycle.json"): "38db767a6b4a4bd8be637d6b3c0900a93cd7db3afbe695958cde74102402878a",
    ("compare", "four-points.json"): "0bca3f81121564283347db96097875d293ab6d962e55b8cb9ab50c0d0f136605",
    ("compare", "infeasible.json"): "3bb2085cf5b269abd1fe62df575b6e206aee2f96ad7c482a6fcf6fa6b3e0c860",
    ("compare", "knapsack.json"): "769b149de961f10feabefc8b181c676554b984ded1e9bce62ebd036e03faa8c9",
    ("compare", "sphere.json"): "be47be3502b9f8f1757480dc86c53d49c8fbbe0c3035743fe689e21dde66e00a",
    ("compare", "triadic.json"): "b8f80af80bf8daa31dd7c1b0b885f596601f94d2feb8528fa902a61d227f5b35",
    ("compare", "two-points.json"): "73f23f2c9a08c3a6fd9ecf2c8b9b2043835803b3e0fa159516070e61199af38e",
    ("solve", "corner-cycle.json"): "f8c7d8851a2b965df3558d860458b9a0fae46fe608b44729bb2df8b28cab4d9b",
    ("solve", "four-points.json"): "2843efc93c16d2043ec6b7de42c6fe47a2bb0b4bd092e1da4c5af1ff7dd83d24",
    ("solve", "infeasible.json"): "35a0280c53cdd56ae6294041bf8074599f2810494cd323414d831dc46bcdd9da",
    ("solve", "knapsack.json"): "ac2a46b87ce8cb570cd34c6f02d68abb659eac7790ba766ed5f5bd29244bdb47",
    ("solve", "sphere.json"): "5a4f0ebbb1cd3a4aeb7491991dc3473f4cd58c2766e20ec5a321a089cc781957",
    ("solve", "triadic.json"): "263ff4893adbb5e66526b560fc975cee2a1018d8938d2b516893c45671f3f18f",
    ("solve", "two-points.json"): "460dc1c00d406c06c3215607a96e31fe74bd06895b4cc7135d58fb4fc3b6ef4d",
}


def problem(name: str) -> str:
    return os.path.join(PROBLEM_DIR, name)


def write_problem(tmp_path, data) -> str:
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestSolveExitCodes:
    def test_solved_is_zero(self, capsys):
        assert main(["solve", problem("four-points.json")]) == 0
        assert "Solved" in capsys.readouterr().out

    def test_diverging_is_two(self, capsys):
        assert main(["solve", problem("infeasible.json")]) == 2
        out = capsys.readouterr().out
        assert "Diverging" in out
        assert "increment 1" in out

    def test_cycle_is_three(self, capsys):
        assert main(["solve", problem("corner-cycle.json")]) == 3
        assert "period 2" in capsys.readouterr().out

    def test_max_iterations_is_four(self, tmp_path, capsys):
        data = json.loads(open(problem("triadic.json")).read())
        data["config"] = {"max_iter": 10, "tol": 1e-30, "cycle_tol": 1e-14}
        assert main(["solve", write_problem(tmp_path, data)]) == 4
        assert capsys.readouterr().out == (
            "MaxIterations: final d(q,H)=1.12901e-05\n")

    def test_shrinking_triadic_orbit_is_not_a_cycle(self, capsys):
        # x_k = 3^-k never repeats: the run reaches q = 0 instead of
        # reporting a period-1 cycle on the default cycle grid
        assert main(["solve", problem("triadic.json"), "--tol", "1e-30"]) == 0
        assert "Solved q*=(0) in 60 iterations" in capsys.readouterr().out

    def test_degenerate_projection_is_five(self, tmp_path, capsys):
        data = {
            "constraint": {"type": "halfspace", "a": [0.0, 1.0], "b": -2.0},
            "set": {"type": "sphere", "center": [0.0, 0.0], "radius": 1.0},
            "x0": [0.0, 0.0],
        }
        assert main(["solve", write_problem(tmp_path, data)]) == 5

    def test_input_error_is_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["solve", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "line 1 column" in err

    def test_missing_file_is_one(self, capsys):
        assert main(["solve", "/no/such/problem.json"]) == 1

    def test_unknown_schema_field_is_one(self, tmp_path, capsys):
        data = {
            "constraint": {"type": "halfspace", "a": [1.0], "b": 0.0},
            "set": {"type": "triadic"},
            "x0": [1.0],
            "bogus": True,
        }
        assert main(["solve", write_problem(tmp_path, data)]) == 1
        assert "unknown top-level" in capsys.readouterr().err


class TestSolveFlags:
    def test_flag_overrides_change_outcome(self, capsys):
        # with a tiny iteration budget the four-point run cannot finish
        code = main([
            "solve", problem("triadic.json"),
            "--max-iter", "5", "--tol", "1e-30", "--cycle-tol", "1e-14",
        ])
        assert code == 4

    def test_csv_output_is_byte_identical_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["solve", problem("sphere.json"), "--output", str(out1)])
        main(["solve", problem("sphere.json"), "--output", str(out2)])
        b1, b2 = out1.read_bytes(), out2.read_bytes()
        assert b1 == b2
        assert b1.startswith(b"k,x0,x1,q0,q1,d_xH,d_qH,d_xL")

    def test_csv_row_shape(self, tmp_path):
        out = tmp_path / "t.csv"
        main(["solve", problem("four-points.json"), "--output", str(out)])
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header == ["k", "x0", "x1", "q0", "q1", "d_xH", "d_qH", "d_xL"]
        for line in lines[1:]:
            assert len(line.split(",")) == len(header)

    def test_json_output(self, tmp_path):
        out = tmp_path / "t.json"
        main([
            "solve", problem("four-points.json"),
            "--format", "json", "--output", str(out),
        ])
        payload = json.loads(out.read_text())
        assert payload["outcome"] == "Solved"
        assert payload["records"][0]["k"] == 0
        assert len(payload["records"][0]["x"]) == 2

    def test_stdout_output(self, capsys):
        main(["solve", problem("four-points.json"), "--output", "-"])
        out = capsys.readouterr().out
        assert out.startswith("k,x0")

    @pytest.mark.parametrize("command", ["solve", "compare"])
    def test_the_problem_is_built_once(self, command, monkeypatch, capsys):
        # the objects built to check the file are the ones the command runs
        built = []

        def counting(spec, types, what):
            built.append(what)
            return real(spec, types, what)

        real = problems._build
        monkeypatch.setattr(problems, "_build", counting)
        assert main([command, problem("four-points.json")]) == 0
        assert built == ["constraint", "set"]

    def test_reflect_order_flag(self, capsys):
        code = main([
            "solve", problem("corner-cycle.json"),
            "--reflect-order", "set-first",
        ])
        assert code in (0, 3)


class TestBadInput:
    """Input and usage errors exit 1 with one error line, no traceback."""

    def assert_one_error_line(self, capsys) -> str:
        out, err = capsys.readouterr()
        assert "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        return out

    @pytest.mark.parametrize("flags", [
        ["--tol", "-1"], ["--cycle-tol", "0"], ["--max-iter", "x"],
        # retired settings
        ["--window", "5"], ["--tie-rule", "first"], ["--seed", "5"],
    ])
    def test_bad_setting_flag(self, flags, capsys):
        assert main(["solve", problem("four-points.json")] + flags) == 1
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("config", [
        {"max_iter": "x"},
        # retired settings
        {"window": 25}, {"tie_rule": "first"}, {"seed": 0},
        # int() truncated these to 2 and 1, and the run went on
        {"max_iter": 2.5}, {"max_iter": True},
        # float() read true as a tolerance of 1.0, and the run went on
        {"tol": True}, {"cycle_tol": True},
    ])
    def test_bad_config_value(self, config, tmp_path, capsys):
        data = json.loads(open(problem("triadic.json")).read())
        data["config"] = config
        assert main(["solve", write_problem(tmp_path, data)]) == 1
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("name, part, field, value", [
        ("sphere.json", "constraint", "b", float("nan")),
        ("sphere.json", "set", "radius", float("nan")),
        ("sphere.json", "set", "radius", float("inf")),
        ("knapsack.json", "set", "threshold", float("nan")),
        ("four-points.json", "constraint", "b", float("-inf")),
        # integer fields: 2/3^647 overflowed in a traceback, 2.5 and true
        # were truncated by int() and solved
        ("triadic.json", "set", "depth", 646),
        ("triadic.json", "set", "depth", 647),
        ("triadic.json", "set", "depth", 2.5),
        ("triadic.json", "set", "depth", True),
        ("corner-cycle.json", "constraint", "block_dim", 1.7),
        ("corner-cycle.json", "constraint", "block_dim", True),
        # booleans and strings are not numbers: the first five solved
        ("sphere.json", "constraint", "b", True),
        ("sphere.json", "set", "radius", True),
        ("two-points.json", "constraint", "a", ["0", 1]),
        ("two-points.json", "set", "points", [["0", "2"], [1, "-2"]]),
        ("knapsack.json", "set", "c", [2.0, True, 3.0]),
        ("corner-cycle.json", "constraint", "block_dim", "1"),
        # integers too large for a float: an OverflowError traceback
        pytest.param("two-points.json", "constraint", "b", 10 ** 400,
                     id="two-points.json-constraint-b-10**400"),
        pytest.param("two-points.json", "set", "points",
                     [[0.0, 2.0], [10 ** 400, -2.0]],
                     id="two-points.json-set-points-10**400"),
    ])
    def test_non_finite_parameter(self, name, part, field, value, tmp_path,
                                  capsys):
        # "b": NaN used to print "Solved q*=(0, 1)" and exit 0
        data = json.loads(open(problem(name)).read())
        data[part][field] = value
        assert main(["solve", write_problem(tmp_path, data)]) == 1
        assert self.assert_one_error_line(capsys) == ""

    @pytest.mark.parametrize("part, value", [
        ("config", [1]),
        ("set", [[0.0, 2.0]]),
        ("constraint", {"a": [0.0, 1.0], "b": 0.0}),
        ("set", {"type": "product", "components": []}),
        ("set", {"type": "product", "components": [{"type": "wavelet"}]}),
        ("set", {"type": "knapsack", "c": [1.0, -1.0], "threshold": 0.5}),
        ("constraint", {"type": "cone", "apex": [0.0, 0.0],
                        "p1": [0.0, 0.0], "p2": [1.0, 0.0]}),
        ("constraint", {"type": "diagonal", "block_dim": 0}),
        ("set", {"type": "finite", "points": [[0.0, float("nan")]]}),
        # solved to MaxIterations as if 2-D, and as the single point (0, 2)
        ("set", {"type": "finite", "points": [[[0.0, 2.0], [1.0, -2.0]]]}),
        ("set", {"type": "finite", "points": [0.0, 2.0]}),
        # every squared distance overflowed, so the points tied, and the
        # run took (0, 2), which is not nearest, and exited 4
        ("x0", [1e200, 0.0]),
        ("x0", None),
        (None, None),
    ], ids=["config", "set-type", "constraint-type", "product-empty",
            "product-component-type", "knapsack-weights", "cone-directions",
            "block-dim", "finite-nan", "finite-nested", "finite-flat",
            "x0-square-overflow", "missing-x0", "not-an-object"])
    def test_rejected_problem(self, part, value, tmp_path, capsys):
        # part None: the file is a list; value None: the part is left out
        data = json.loads(open(problem("two-points.json")).read())
        if part is None:
            data = [data]
        elif value is None:
            del data[part]
        else:
            data[part] = value
        assert main(["solve", write_problem(tmp_path, data)]) == 1
        assert self.assert_one_error_line(capsys) == ""

    def test_knapsack_start_whose_squared_norm_overflows(self, tmp_path,
                                                         capsys):
        # the search's costs overflowed, and it printed a traceback ending
        # "ValueError: need at least one array to concatenate"
        data = json.loads(open(problem("knapsack.json")).read())
        data["x0"] = [1e308, 0.0, 0.0]
        assert main(["solve", write_problem(tmp_path, data)]) == 1
        assert self.assert_one_error_line(capsys) == ""

    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        # json.loads raises a plain ValueError for an integer of more than
        # 4300 digits, which used to escape as a traceback
        text = open(problem("two-points.json")).read()
        path = tmp_path / "problem.json"
        path.write_text(text.replace('"b": -1.0', '"b": 1' + "0" * 5000))
        assert main(["solve", str(path)]) == 1
        assert self.assert_one_error_line(capsys) == ""

    def test_problem_path_is_a_directory(self, capsys):
        # used to print an IsADirectoryError traceback
        assert main(["solve", PROBLEM_DIR]) == 1
        assert self.assert_one_error_line(capsys) == ""

    def test_output_path_is_a_directory(self, tmp_path, capsys):
        assert main(["solve", problem("triadic.json"),
                     "--output", str(tmp_path)]) == 1
        assert self.assert_one_error_line(capsys) == ""

    @pytest.mark.parametrize("dims", ["0", "2,0", "a", "1.7,2"])
    def test_bad_verify_dims(self, dims, capsys):
        # --dims 0 used to loop forever drawing a nonzero 0-D vector
        assert main(["verify", "--trials", "1", "--dims", dims]) == 1
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("counts", [
        ["--trials", "-3", "--oracle-trials", "-2"],
        ["--trials", "2", "--oracle-trials", "-2"],
        ["--trials", "2", "--seed", "-1"],
        ["--trials", "2.5"],
    ])
    def test_negative_verify_trials(self, counts, capsys):
        # used to run no trial and report "passed": true with exit 0
        assert main(["verify", "--dims", "2"] + counts) == 1
        assert self.assert_one_error_line(capsys) == ""


class TestSettingsTable:
    def test_settings_cover_solver_config_and_both_commands(self):
        fields = [f.name for f in dataclasses.fields(SolverConfig)]
        assert sorted(field for field, _, _ in SETTINGS.values()) == sorted(fields)
        default = SolverConfig()
        for command in ("solve", "compare"):
            for name, (field, kind, _) in SETTINGS.items():
                value = getattr(default, field)
                args = build_parser().parse_args([
                    command, "p.json", "--" + name.replace("_", "-"), str(value)])
                assert getattr(args, name) == value
                assert isinstance(value, kind)


class TestGoldenOutput:
    def test_every_bundled_problem_is_pinned(self):
        bundled = sorted(f for f in os.listdir(PROBLEM_DIR) if f.endswith(".json"))
        assert bundled == sorted(GOLDEN_CSV)
        assert sorted(GOLDEN_STDOUT) == [(command, name) for command in
                                         ("compare", "solve") for name in bundled]

    @pytest.mark.parametrize("name", sorted(GOLDEN_CSV))
    def test_bundled_trace_is_byte_identical(self, name, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        main(["solve", problem(name), "--output", str(out)])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CSV[name]

    @pytest.mark.parametrize("command, name", sorted(GOLDEN_STDOUT))
    def test_bundled_stdout_is_byte_identical(self, command, name, capsys):
        main([command, problem(name)])
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == GOLDEN_STDOUT[command, name]

    def test_parser_carries_nothing_from_one_call_to_the_next(self, tmp_path,
                                                               capsys):
        # main keeps one parser per process
        name, out = "triadic.json", tmp_path / "trace.csv"
        assert main(["solve", problem(name), "--max-iter", "1",
                     "--reflect-order", "constraint-first", "--format", "json",
                     "--output", str(out)]) == 0
        assert main(["solve", problem(name), "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CSV[name]
        capsys.readouterr()
        assert main(["solve", problem(name), "--max-iter", "x"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_repro_all_output_is_byte_identical(self, capsys):
        assert main(["repro", "all"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == GOLDEN_REPRO_ALL


class TestCompare:
    def test_side_by_side_table(self, capsys):
        assert main(["compare", problem("two-points.json")]) == 0
        out = capsys.readouterr().out
        assert "DR" in out and "AP" in out
        assert "method" in out

    def test_a_run_that_takes_no_step(self, tmp_path, capsys):
        # x0 at the sphere's centre: both runs end at step 0, and the CSV
        # trace is its header line
        data = {
            "constraint": {"type": "halfspace", "a": [0.0, 1.0], "b": -2.0},
            "set": {"type": "sphere", "center": [0.0, 0.0], "radius": 1.0},
            "x0": [0.0, 0.0],
        }
        path, out = write_problem(tmp_path, data), tmp_path / "t.csv"
        assert main(["compare", path]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [row.split()[-3:] for row in rows[1:]] == [["0", "-", "-"]] * 2
        assert main(["solve", path, "--output", str(out)]) == 5
        assert out.read_text() == "k,x0,x1,q0,q1,d_xH,d_qH,d_xL\n"


class TestRepro:
    def test_single_experiment(self, capsys):
        assert main(["repro", "fig1"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["repro", "nope"]) == 1
        assert "unknown experiment" in capsys.readouterr().err


class TestVerify:
    def test_small_run_emits_json_reports(self, capsys):
        code = main([
            "verify", "--trials", "50", "--oracle-trials", "5",
            "--dims", "2,3", "--seed", "1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # output is a stream of JSON objects, one per suite
        decoder = json.JSONDecoder()
        idx, seen = 0, 0
        text = out.strip()
        while idx < len(text):
            obj, end = decoder.raw_decode(text, idx)
            assert obj["passed"] is True
            seen += 1
            idx = end
            while idx < len(text) and text[idx].isspace():
                idx += 1
        assert seen == 6

    @pytest.mark.parametrize("seed", ["5", "6"])
    def test_solved_runs_that_settle_slowly_pass(self, seed, capsys):
        # one knapsack trial of each seed settles only after 6000-33000 steps
        assert main(["verify", "--seed", seed, "--trials", "20"]) == 0

    def test_each_report_carries_its_suite_time(self, capsys):
        assert main(["verify", "--trials", "20", "--oracle-trials", "2",
                     "--dims", "2", "--seed", "2"]) == 0
        text = capsys.readouterr().out
        decoder, idx, reports = json.JSONDecoder(), 0, []
        while text[idx:].strip():
            idx += len(text[idx:]) - len(text[idx:].lstrip())
            obj, idx = decoder.raw_decode(text, idx)
            reports.append(obj)
        assert len(reports) == 6
        for obj in reports:
            assert obj["seconds"] > 0
            assert obj["trials_per_s"] == obj["trials"] / obj["seconds"]
