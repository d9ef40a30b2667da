"""Every name a ``drfeas`` module lists in ``__all__`` resolves."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import drfeas

# importing drfeas.__main__ runs the command line
MODULES = ["drfeas"] + [f"drfeas.{m.name}"
                        for m in pkgutil.iter_modules(drfeas.__path__)
                        if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_the_root_takes_from_sets_only_what_sets_exports():
    tree = ast.parse(inspect.getsource(drfeas))
    taken = [alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.module == "sets"
             for alias in node.names]
    assert "TriadicSet" in taken
    assert [n for n in taken if n not in drfeas.sets.__all__] == []
