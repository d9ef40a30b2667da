"""The README's python examples print what their comments say."""

import contextlib
import io
import os
import re

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
