"""Command-line interface: exit codes, trace output, and error handling."""

import dataclasses
import hashlib
import json
import os

import pytest

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
        assert "MaxIterations" in capsys.readouterr().out

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

    def test_seed_and_tie_rule_accepted(self):
        code = main([
            "solve", problem("four-points.json"),
            "--tie-rule", "random", "--seed", "5",
        ])
        assert code == 0

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
        ["--tol", "-1"], ["--cycle-tol", "0"], ["--window", "0"],
        ["--tie-rule", "bogus"], ["--max-iter", "x"],
    ])
    def test_bad_setting_flag(self, flags, capsys):
        assert main(["solve", problem("four-points.json")] + flags) == 1
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("config", [{"max_iter": "x"}, {"seed": None}])
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
    ])
    def test_non_finite_parameter(self, name, part, field, value, tmp_path,
                                  capsys):
        # "b": NaN used to print "Solved q*=(0, 1)" and exit 0
        data = json.loads(open(problem(name)).read())
        data[part][field] = value
        assert main(["solve", write_problem(tmp_path, data)]) == 1
        assert self.assert_one_error_line(capsys) == ""

    @pytest.mark.parametrize("dims", ["0", "2,0", "a"])
    def test_bad_verify_dims(self, dims, capsys):
        # --dims 0 used to loop forever drawing a nonzero 0-D vector
        assert main(["verify", "--trials", "1", "--dims", dims]) == 1
        self.assert_one_error_line(capsys)

    @pytest.mark.parametrize("counts", [
        ["--trials", "-3", "--oracle-trials", "-2"],
        ["--trials", "2", "--oracle-trials", "-2"],
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

    @pytest.mark.parametrize("name", sorted(GOLDEN_CSV))
    def test_bundled_trace_is_byte_identical(self, name, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        main(["solve", problem(name), "--output", str(out)])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_CSV[name]

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
