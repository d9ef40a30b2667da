"""Problem-file schema: parsing, validation, and round-trips."""

import dataclasses
import glob
import json
import os

import numpy as np
import pytest

from drfeas.engine import SolverConfig
from drfeas.geometry import HalfSpace, Hyperplane
from drfeas.problems import (
    ProblemFile,
    ProblemFormatError,
    load_problem,
    solver_config,
)
from drfeas.sets import FinitePointSet, ProductSet, Slab, Sphere, TriadicSet

PROBLEM_DIR = os.path.join(os.path.dirname(__file__), "..", "problems")


def minimal() -> dict:
    return {
        "constraint": {"type": "halfspace", "a": [0.0, 1.0], "b": 0.0},
        "set": {"type": "finite", "points": [[0.0, -1.0]]},
        "x0": [1.0, 1.0],
    }


class TestParsing:
    def test_minimal_builds(self):
        pf = ProblemFile.from_json_dict(minimal())
        constraint, proj_set, x0, cfg = pf.build()
        assert isinstance(constraint, HalfSpace)
        assert isinstance(proj_set, FinitePointSet)
        assert np.array_equal(x0, [1.0, 1.0])
        assert cfg == SolverConfig()

    def test_config_overrides_map_to_solver_fields(self):
        data = minimal()
        data["config"] = {
            "max_iter": 50, "tol": 1e-6, "cycle_tol": 1e-10,
            "reflect_order": "constraint-first",
        }
        *_, cfg = ProblemFile.from_json_dict(data).build()
        assert cfg.max_iter == 50
        assert cfg.eps_h == 1e-6
        assert cfg.eps_cycle == 1e-10
        assert cfg.reflect_order == "constraint-first"

    def test_solver_config_applies_settings_over_base(self):
        base = SolverConfig(max_iter=7, eps_cycle=1e-4)
        cfg = solver_config({"tol": "1e-6", "cycle_tol": 2e-4}, base)
        assert cfg == SolverConfig(max_iter=7, eps_h=1e-6, eps_cycle=2e-4)
        assert solver_config({}, base) == base
        with pytest.raises(ProblemFormatError, match="unknown"):
            solver_config({"eps_h": 1e-6}, base)
        # int() used to truncate these to 2 and 1
        for bad in (2.5, True):
            with pytest.raises(ProblemFormatError, match="max_iter"):
                solver_config({"max_iter": bad}, base)
        # float() read true as a tolerance of 1.0
        for name in ("tol", "cycle_tol"):
            with pytest.raises(ProblemFormatError, match="tolerances"):
                solver_config({name: True}, base)

    @pytest.mark.parametrize("kind,spec", [
        ("hyperplane", {"type": "hyperplane", "a": [1.0, 0.0], "b": 2.0}),
        ("slab", {"type": "slab", "a": [0.0, 1.0], "lower": -1.0, "upper": 1.0}),
        ("cone", {"type": "cone", "apex": [0.0, 0.0],
                  "p1": [1.0, 0.0], "p2": [0.0, 1.0]}),
    ])
    def test_constraint_variants(self, kind, spec):
        data = minimal()
        data["constraint"] = spec
        pf = ProblemFile.from_json_dict(data)
        constraint, *_ = pf.build()
        assert constraint.dim == 2

    def test_triadic_depth_is_optional(self):
        data = {
            "constraint": {"type": "halfspace", "a": [1.0], "b": 0.0},
            "set": {"type": "triadic"},
            "x0": [1.0],
        }
        _, proj_set, *_ = ProblemFile.from_json_dict(data).build()
        assert isinstance(proj_set, TriadicSet)
        assert proj_set.depth == 60

    def test_product_set_with_constraint_component(self):
        data = {
            "constraint": {"type": "diagonal", "block_dim": 2},
            "set": {"type": "product", "components": [
                {"type": "halfspace", "a": [0.0, 1.0], "b": 1.0},
                {"type": "finite", "points": [[0.0, 0.0], [1.0, 1.0]]},
            ]},
            "x0": [0.0, 0.4, 0.0, 0.8],
        }
        constraint, proj_set, *_ = ProblemFile.from_json_dict(data).build()
        assert isinstance(proj_set, ProductSet)
        assert proj_set.dim == 4


class TestRejection:
    def test_unknown_top_level_field(self):
        data = minimal()
        data["extra"] = 1
        with pytest.raises(ProblemFormatError, match="unknown top-level"):
            ProblemFile.from_json_dict(data)

    def test_unknown_constraint_field(self):
        data = minimal()
        data["constraint"]["slope"] = 2
        with pytest.raises(ProblemFormatError, match="unknown field"):
            ProblemFile.from_json_dict(data)

    def test_unknown_set_type(self):
        data = minimal()
        data["set"] = {"type": "wavelet"}
        with pytest.raises(ProblemFormatError, match="unknown set type"):
            ProblemFile.from_json_dict(data)

    def test_unknown_config_field(self):
        data = minimal()
        data["config"] = {"tolerance": 1e-9}
        with pytest.raises(ProblemFormatError, match="config"):
            ProblemFile.from_json_dict(data)

    def test_missing_required_field(self):
        data = minimal()
        del data["constraint"]["b"]
        with pytest.raises(ProblemFormatError, match="missing"):
            ProblemFile.from_json_dict(data)

    def test_dimension_mismatch_constraint_vs_set(self):
        data = minimal()
        data["set"] = {"type": "finite", "points": [[0.0, 0.0, 0.0]]}
        with pytest.raises(ProblemFormatError, match="dimension mismatch"):
            ProblemFile.from_json_dict(data)

    def test_dimension_mismatch_x0(self):
        data = minimal()
        data["x0"] = [1.0, 2.0, 3.0]
        with pytest.raises(ProblemFormatError, match="dimension mismatch"):
            ProblemFile.from_json_dict(data)

    def test_invalid_config_value(self):
        data = minimal()
        data["config"] = {"reflect_order": "sometimes"}
        with pytest.raises(ProblemFormatError):
            ProblemFile.from_json_dict(data)

    def test_non_finite_x0(self):
        data = minimal()
        data["x0"] = [1.0, None]
        with pytest.raises((ProblemFormatError, TypeError)):
            ProblemFile.from_json_dict(data)

    @pytest.mark.parametrize("x0", [[True, 1], ["0", "3"], [1.0, [2.0]],
                                    [1.0, float("nan")], "12", [],
                                    [10 ** 400, 1.0]])
    def test_x0_must_be_a_flat_list_of_numbers(self, x0):
        # [true, 1] and ["0", "3"] were read as [1, 1] and [0, 3]
        data = minimal()
        data["x0"] = x0
        with pytest.raises(ProblemFormatError, match="x0"):
            ProblemFile.from_json_dict(data)

    @pytest.mark.parametrize("part, field, value", [
        ("constraint", "b", True), ("constraint", "a", ["0", 1]),
        ("set", "points", [["0", "-1"]]), ("set", "points", [[0.0, None]]),
    ])
    def test_parameters_must_be_numbers(self, part, field, value):
        data = minimal()
        data[part][field] = value
        with pytest.raises(ProblemFormatError, match=f"{part} .*{field}"):
            ProblemFile.from_json_dict(data)

    @pytest.mark.parametrize("part, value, match", [
        ("config", [1], "config must be an object"),
        ("set", [[0.0, -1.0]], "set must be an object with a type"),
        ("constraint", {"a": [0.0, 1.0], "b": 0.0},
         "constraint must be an object with a type"),
        ("set", {"type": "product", "components": []},
         "product components must be a nonempty list"),
        # raised inside the product's builder, and passed on as it is
        ("set", {"type": "product", "components": [{"type": "wavelet"}]},
         "^unknown set type 'wavelet'$"),
        ("set", {"type": "knapsack", "c": [1.0, -1.0], "threshold": 0.5},
         "weights must be nonnegative"),
        ("constraint", {"type": "cone", "apex": [0.0, 0.0],
                        "p1": [0.0, 0.0], "p2": [1.0, 0.0]},
         "directions must be nonzero"),
        ("constraint", {"type": "diagonal", "block_dim": 0},
         "block dimension must be positive"),
        ("set", {"type": "finite", "points": [[0.0, float("nan")]]},
         "non-finite coordinates"),
        # an IndexError traceback, and a silent single point (0, 2)
        ("set", {"type": "finite", "points": [[[0.0, 2.0]], [[1.0, -2.0]]]},
         "list of points"),
        ("set", {"type": "finite", "points": [0.0, 2.0]}, "list of points"),
        # finite coordinates whose squares overflow tie every point
        ("x0", [1e200, 0.0], "x0 must be finite, of finite squared norm"),
        ("x0", None, "missing top-level field 'x0'"),
        (None, None, "problem file must be a JSON object"),
    ], ids=["config", "set-type", "constraint-type", "product-empty",
            "product-component-type", "knapsack-weights", "cone-directions",
            "block-dim", "finite-nan", "finite-nested", "finite-flat",
            "x0-square-overflow", "missing-x0", "not-an-object"])
    def test_rejected_spec(self, part, value, match):
        # part None: the file is a list; value None: the part is left out
        data = minimal()
        if part is None:
            data = [data]
        elif value is None:
            del data[part]
        else:
            data[part] = value
        with pytest.raises(ProblemFormatError, match=match):
            ProblemFile.from_json_dict(data)


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self):
        data = minimal()
        data["config"] = {"max_iter": 12}
        pf = ProblemFile.from_json_dict(data)
        once = dataclasses.asdict(pf)
        again = ProblemFile.from_json_dict(json.loads(json.dumps(once)))
        assert again == pf

    @pytest.mark.parametrize(
        "path", sorted(glob.glob(os.path.join(PROBLEM_DIR, "*.json")))
    )
    def test_bundled_problems_round_trip(self, path):
        pf = load_problem(path)
        constraint, proj_set, x0, cfg = pf.build()
        assert constraint.dim == x0.size
        serialized = dataclasses.asdict(pf)
        again = ProblemFile.from_json_dict(json.loads(json.dumps(serialized)))
        assert again == pf


class TestLoadDiagnostics:
    def test_malformed_json_reports_line_and_column(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "constraint": {,}\n}\n')
        with pytest.raises(ProblemFormatError, match=r"line 2 column \d+"):
            load_problem(str(bad))

    def test_missing_file_raises(self):
        with pytest.raises(FileNotFoundError):
            load_problem("/no/such/file.json")
