"""Every name a ``drfeas`` module lists in ``__all__`` resolves."""

import importlib
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
