"""The mutant table in ``mutants.py`` still fits the source it mutates.

A change that moves or rewrites mutated code must update the table, and
then rerun ``python tests/mutants.py``.
"""

import importlib.util
import os

TESTS = os.path.dirname(os.path.abspath(__file__))


def test_each_mutant_old_text_occurs_once():
    spec = importlib.util.spec_from_file_location(
        "mutants", os.path.join(TESTS, "mutants.py"))
    table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(table)
    ids = [m.id for m in table.MUTANTS]
    assert len(set(ids)) == len(ids)
    for m in table.MUTANTS:
        with open(os.path.join(table.ROOT, m.file), encoding="utf-8") as fh:
            assert fh.read().count(m.old) == 1, m.id
        assert m.new != m.old and m.kills, m.id
        for test in m.kills:
            path, *names = test.split("[")[0].split("::")
            with open(os.path.join(table.ROOT, path), encoding="utf-8") as fh:
                assert f"def {names[-1]}(" in fh.read(), (m.id, test)
