"""The declared support floor: every ``src/`` file parses as Python 3.10,
and every ``np.*`` name it uses is older than the NumPy floor.

Both floors are read from ``pyproject.toml`` (``requires-python`` and the
``numpy`` dependency).  ``NUMPY_ADDED`` names the NumPy release that added
each name; a name the table lacks, or one src/ no longer uses, fails the
test until the table is updated.
"""

import ast
import glob
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = sorted(glob.glob(os.path.join(ROOT, "src", "drfeas", "*.py")))

# The NumPy release that added each np.* name src/ uses, as written there:
# a submodule function or a ufunc method is keyed with its dotted path.
NUMPY_ADDED = {
    "abs": "1.0", "add.reduce": "1.0", "all": "1.0", "any": "1.0",
    "arange": "1.0", "argsort": "1.0", "array": "1.0", "array_equal": "1.0",
    "asarray": "1.0", "ascontiguousarray": "1.0",
    "column_stack": "1.0", "concatenate": "1.0", "count_nonzero": "1.6",
    "cumsum": "1.0", "diff": "1.0", "empty": "1.0", "errstate": "1.0",
    "finfo": "1.0",
    "flatnonzero": "1.0", "float64": "1.0", "floating": "1.0",
    "fmax": "1.3", "frombuffer": "1.0", "full": "1.8", "inf": "1.0",
    "int32": "1.0", "int8": "1.0", "integer": "1.0", "isfinite": "1.0",
    "linalg.inv": "1.0", "linalg.norm": "1.0", "linalg.qr": "1.0",
    "maximum": "1.0", "maximum.accumulate": "1.0",
    "minimum.accumulate": "1.0", "minimum.reduce": "1.0",
    "multiply.outer": "1.0",
    "ndarray": "1.0", "nonzero": "1.0", "ones": "1.0",
    "random.default_rng": "1.17", "searchsorted": "1.0", "sort": "1.0",
    "sqrt": "1.0", "subtract": "1.0", "sum": "1.0", "tril": "1.0",
    "uint64": "1.0", "where": "1.0", "zeros_like": "1.0",
}


def _floor(pattern: str) -> tuple:
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        found = re.search(pattern, fh.read())
    assert found, pattern
    return _version(found.group(1))


def _version(text: str) -> tuple:
    return tuple(int(part) for part in text.split("."))


def _np_names(tree) -> set:
    """The dotted paths after ``np.`` of the outermost attribute reads."""
    inner = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            path = []
            while isinstance(node, ast.Attribute):
                path.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id == "np":
                names.add(".".join(reversed(path)))
    return names


def test_sources_parse_at_the_python_floor():
    python = _floor(r'requires-python\s*=\s*">=(\d+\.\d+)"')
    assert SOURCES
    for path in SOURCES:
        with open(path, encoding="utf-8") as fh:
            ast.parse(fh.read(), path, feature_version=python)


def test_numpy_names_predate_the_numpy_floor():
    floor = _floor(r'"numpy>=(\d+\.\d+)"')
    used = set()
    for path in SOURCES:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):     # numpy is imported as np only
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [getattr(node, "module", None) or ""]
                modules += [alias.name for alias in node.names]
                if any(m.split(".")[0] == "numpy" for m in modules):
                    assert isinstance(node, ast.Import), path
                    assert [(a.name, a.asname) for a in node.names] == [
                        ("numpy", "np")], path
        used |= _np_names(tree)
    assert sorted(used ^ NUMPY_ADDED.keys()) == []    # the table is exact
    late = {n: v for n, v in NUMPY_ADDED.items() if _version(v) > floor}
    assert late == {}
