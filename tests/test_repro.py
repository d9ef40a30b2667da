"""Every bundled experiment must pass its own internal checks."""

import hashlib

import pytest

from drfeas.repro import EXPERIMENTS, run_experiment, sphere_halfspace


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_experiment_passes(name):
    result = run_experiment(name)
    failed = [k for k, v in result.details.items() if v is False]
    assert result.passed, f"{name}: failed checks {failed}"


# sha256 of repr([(name, repr(details), summary()) for each experiment]):
# every check value and note, byte for byte.  A refactor leaves it alone.
REPRO_SHA256 = (
    "b1fe3e3058fe9140f3ad855109ca9fbb6c70cb46bddd603e6bf6de09b6d37dd7")


def test_every_experiment_is_pinned():
    rows = []
    for name in EXPERIMENTS:
        r = run_experiment(name)
        rows.append((name, repr(r.details), r.summary()))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == REPRO_SHA256


def test_unknown_experiment_raises():
    with pytest.raises(KeyError):
        run_experiment("does-not-exist")


def test_slab_records_observed_period():
    result = run_experiment("fig5-slab")
    assert result.passed
    assert result.details.get("observed_period", 0) >= 2


@pytest.mark.parametrize("b", [0.0, -0.5, -0.9, -1.0])
def test_sphere_family_over_offsets(b):
    result = sphere_halfspace(b)
    assert result.passed, result.details


def test_sphere_rejects_offsets_outside_range():
    with pytest.raises(ValueError):
        sphere_halfspace(1.0)
    with pytest.raises(ValueError):
        sphere_halfspace(-1.5)
