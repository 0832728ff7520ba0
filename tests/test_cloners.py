"""Unit tests for the canonical machines, constraints, and serialization."""

import json
import math
from importlib import resources

import jsonschema
import numpy as np
import pytest
from conftest import random_economic, random_symmetric
from hypothesis import given, settings
from hypothesis import strategies as st

from clonebench.cloners import (
    CloneIsometry,
    InvalidMachineError,
    ancilla_pqcm,
    constraint_check,
    economic_pqcm,
    machine_doc,
    optimal_n_cloner,
    symmetric_coefficients,
    uqcm,
)
from clonebench.qlinalg import sym_basis


def machine_schema():
    text = resources.files("clonebench.schemas").joinpath("machine.schema.json").read_text()
    return json.loads(text)


def test_economic_pqcm_satisfies_constraints():
    report = constraint_check(economic_pqcm().matrix)
    assert report["passed"]
    assert max(report["norm0"], report["norm1"], report["overlap"]) < 1e-14


@pytest.mark.parametrize("a_mod", [0.0, 0.3, 1.0 / math.sqrt(2.0), 1.0])
def test_ancilla_pqcm_family_satisfies_constraints(a_mod):
    assert constraint_check(ancilla_pqcm(a_mod).matrix)["passed"]


def test_ancilla_pqcm_rejects_out_of_range():
    with pytest.raises(ValueError):
        ancilla_pqcm(1.5)


def test_uqcm_satisfies_constraints():
    assert constraint_check(uqcm().matrix)["passed"]


@pytest.mark.parametrize("n", range(1, 8))
def test_optimal_n_cloner_satisfies_constraints(n):
    assert constraint_check(optimal_n_cloner(n).matrix)["passed"]


def test_constraint_check_flags_bad_machine():
    bad = np.array([[1.0, 1.0], [0.0, 0.0]])  # columns are parallel
    assert not constraint_check(bad)["passed"]


def test_clone_isometry_shapes_and_dims():
    v = economic_pqcm()
    assert v.matrix.shape == (4, 2)
    assert v.output_dims == [2, 2]
    for v in (ancilla_pqcm(0.3), uqcm()):
        assert v.matrix.shape == (8, 2)
        assert v.output_dims == [2, 2, 2]
    v = optimal_n_cloner(3)
    assert v.matrix.shape == (8, 2)
    assert v.output_dims == [2, 2, 2]


def test_isometry_columns_are_orthonormal():
    for v in (economic_pqcm(), ancilla_pqcm(0.4), uqcm(), optimal_n_cloner(4)):
        m = v.matrix
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), atol=1e-12)


def test_clone_isometry_validates_shape():
    with pytest.raises(ValueError):
        CloneIsometry(np.zeros((3, 2)), copies=2, ancilla_dim=1)


@pytest.mark.parametrize("n", range(1, 11))
def test_optimal_n_cloner_coefficients_are_exact(n):
    c = symmetric_coefficients(optimal_n_cloner(n))
    expected = np.zeros((n + 1, 2))
    expected[n // 2, 0] = expected[n // 2 + 1, 1] = 1.0
    assert np.array_equal(c, expected)


@pytest.mark.parametrize(
    "v",
    [uqcm(), random_economic(np.random.default_rng(6))],
    ids=["uqcm", "random_economic"],
)
def test_symmetric_coefficients_reject_non_symmetric_machines(v):
    # an ancilla machine, and a two-copy isometry outside the symmetric subspace
    with pytest.raises(InvalidMachineError):
        symmetric_coefficients(v)
    with pytest.raises(InvalidMachineError):
        machine_doc(v)


def test_json_round_trip_is_bit_faithful():
    def decoded(v):
        doc = json.loads(json.dumps(machine_doc(v)))
        return np.array([[complex(*a), complex(*b)] for a, b in zip(doc["a"], doc["b"])])

    m = optimal_n_cloner(5)
    assert np.array_equal(sym_basis(5) @ decoded(m), m.matrix)
    # a general machine's complex coefficients come back bit for bit, and
    # its columns to rounding
    v = random_symmetric(np.random.default_rng(5), 4)
    c = decoded(v)
    assert np.array_equal(c, symmetric_coefficients(v))
    assert np.all(c.imag != 0.0) and np.all(np.abs(c) < 1.0)
    np.testing.assert_allclose(sym_basis(4) @ c, v.matrix, rtol=0.0, atol=1e-15)


def test_json_validates_against_schema():
    schema = machine_schema()
    for n in (1, 3, 10):
        jsonschema.validate(machine_doc(optimal_n_cloner(n)), schema)
    # the 1->2 machines are plain isometries and have no JSON kind of their own
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"kind": "economic", "coefficients": [[1.0, 0.0]] * 8}, schema)


@settings(deadline=None, max_examples=30)
@given(st.floats(0.0, 1.0, allow_nan=False))
def test_ancilla_pqcm_always_valid(a_mod):
    assert constraint_check(ancilla_pqcm(a_mod).matrix)["passed"]
