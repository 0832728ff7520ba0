"""Unit tests for the canonical machines, constraints, and serialization."""

import json
import math
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonebench.cloners import (
    CloneIsometry,
    InvalidMachineError,
    SymmetricNCloner,
    ancilla_pqcm,
    constraint_check,
    economic_pqcm,
    machine_to_json,
    optimal_n_cloner,
    to_isometry,
    uqcm,
)


def machine_schema():
    text = resources.files("clonebench.schemas").joinpath("machine.schema.json").read_text()
    return json.loads(text)


def test_economic_pqcm_satisfies_constraints():
    report = constraint_check(economic_pqcm().matrix)
    assert report.passed
    assert max(report.norm0, report.norm1, report.overlap) < 1e-14


@pytest.mark.parametrize("a_mod", [0.0, 0.3, 1.0 / math.sqrt(2.0), 1.0])
def test_ancilla_pqcm_family_satisfies_constraints(a_mod):
    assert constraint_check(ancilla_pqcm(a_mod).matrix).passed


def test_ancilla_pqcm_rejects_out_of_range():
    with pytest.raises(ValueError):
        ancilla_pqcm(1.5)


def test_uqcm_satisfies_constraints():
    assert constraint_check(uqcm().matrix).passed


@pytest.mark.parametrize("n", range(1, 8))
def test_optimal_n_cloner_satisfies_constraints(n):
    assert constraint_check(optimal_n_cloner(n).columns()).passed
    assert constraint_check(to_isometry(optimal_n_cloner(n)).matrix).passed


def test_constraint_check_flags_bad_machine():
    bad = SymmetricNCloner(n=1, a=(1.0, 0.0), b=(1.0, 0.0))  # columns are parallel
    report = constraint_check(bad.columns())
    assert not report.passed
    with pytest.raises(InvalidMachineError):
        to_isometry(bad)


def test_to_isometry_shapes_and_dims():
    v = economic_pqcm()
    assert v.matrix.shape == (4, 2)
    assert v.output_dims == [2, 2]
    for v in (ancilla_pqcm(0.3), uqcm()):
        assert v.matrix.shape == (8, 2)
        assert v.output_dims == [2, 2, 2]
    v = to_isometry(optimal_n_cloner(3))
    assert v.matrix.shape == (8, 2)
    assert v.output_dims == [2, 2, 2]


def test_isometry_columns_are_orthonormal():
    for v in (economic_pqcm(), ancilla_pqcm(0.4), uqcm(), to_isometry(optimal_n_cloner(4))):
        m = v.matrix
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-12)


def test_clone_isometry_validates_shape():
    with pytest.raises(ValueError):
        CloneIsometry(np.zeros((3, 2)), copies=2, ancilla_dim=1)


def test_symmetric_cloner_validates_lengths():
    with pytest.raises(ValueError):
        SymmetricNCloner(n=2, a=(1.0, 0.0), b=(0.0, 1.0))
    with pytest.raises(ValueError):
        SymmetricNCloner(n=0, a=(1.0,), b=(1.0,))


def test_json_round_trip_is_bit_faithful():
    machines = [
        optimal_n_cloner(5),
        SymmetricNCloner(n=2, a=(0.25 + 0.5j, 0.0, 0.1), b=(0.0, 0.125 - 0.75j, 1.0 / 3.0)),
    ]
    for m in machines:
        doc = json.loads(machine_to_json(m))
        back = SymmetricNCloner(
            n=doc["n"],
            a=tuple(complex(*p) for p in doc["a"]),
            b=tuple(complex(*p) for p in doc["b"]),
        )
        assert back == m


def test_json_validates_against_schema():
    schema = machine_schema()
    for n in (1, 3, 10):
        jsonschema.validate(json.loads(machine_to_json(optimal_n_cloner(n))), schema)
    # the 1->2 machines are plain isometries and have no JSON kind of their own
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"kind": "economic", "coefficients": [[1.0, 0.0]] * 8}, schema)


@settings(deadline=None, max_examples=30)
@given(st.floats(0.0, 1.0, allow_nan=False))
def test_ancilla_pqcm_always_valid(a_mod):
    assert constraint_check(ancilla_pqcm(a_mod).matrix).passed
