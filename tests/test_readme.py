"""The README's python examples print what their comments say, its
settings paragraph names exactly the solver settings, and its divergence
paragraph states the march's constants."""

import contextlib
import io
import os
import re

from drfeas.engine import WITNESS_TOL, SolverConfig
from drfeas.problems import SETTINGS

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def test_python_examples_print_their_comments():
    with open(README, encoding="utf-8") as f:
        blocks = re.findall(r"```python\n(.*?)```", f.read(), re.S)
    assert blocks
    for code in blocks:
        # each `print(...)  # text` line documents the line it prints
        expected = [line.split("#", 1)[1].strip() for line in code.splitlines()
                    if line.startswith("print(") and "#" in line]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(code, {})
        assert out.getvalue().splitlines() == expected


def test_settings_paragraph_documents_exactly_the_settings():
    with open(README, encoding="utf-8") as f:
        text = f.read()
    # the paragraph runs from its opening words to the next blank line
    para = re.search(r"settings flags of `solve`.*?\n\n", text, re.S).group()
    flags = set(re.findall(r"`--([a-z-]+)", para))
    keys = re.findall(r"`([a-z_]+)`",
                      re.search(r"\(config keys (.*?)\)", para, re.S).group(1))
    assert flags == {name.replace("_", "-") for name in SETTINGS}
    assert sorted(keys) == sorted(SETTINGS)


def test_divergence_paragraph_states_the_window_and_witness_tolerance():
    with open(README, encoding="utf-8") as f:
        text = f.read()
    para = re.search(r"When the problem is infeasible.*?\n\n", text, re.S).group()
    tol = re.search(r"up to (\S+)·max\(1, \|m\|\)", para).group(1)
    window = re.search(r"outlasts (\d+) witness steps", para).group(1)
    assert float(tol) == WITNESS_TOL
    assert int(window) == SolverConfig.window
