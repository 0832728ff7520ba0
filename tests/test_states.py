"""Unit tests for Bloch points and the canonical input sets."""

import json
import math
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import input_set_json

from clonebench.states import (
    TETRAHEDRON_THETA,
    TWO_PI,
    BlochPoint,
    InputSet,
    bb84,
    bloch_to_state,
    custom,
    equatorial_pair,
    equatorial_trio,
    six_state,
    tetrahedron,
)


def load_schema(name):
    text = resources.files("clonebench.schemas").joinpath(name).read_text()
    return json.loads(text)


def test_bloch_point_validates_theta():
    with pytest.raises(ValueError):
        BlochPoint(-0.1, 0.0)
    with pytest.raises(ValueError):
        BlochPoint(math.pi + 0.1, 0.0)


def test_bloch_point_reduces_phi():
    p = BlochPoint(1.0, TWO_PI + 0.5)
    assert abs(p.phi - 0.5) < 1e-12
    q = BlochPoint(1.0, -0.5)
    assert abs(q.phi - (TWO_PI - 0.5)) < 1e-12


@settings(deadline=None, max_examples=60)
@given(
    st.floats(0.0, math.pi, allow_nan=False),
    st.floats(-20.0, 20.0, allow_nan=False),
)
def test_bloch_to_state_is_unit_with_real_first_entry(theta, phi):
    s = bloch_to_state(BlochPoint(theta, phi))
    assert abs(np.linalg.norm(s) - 1.0) < 1e-12
    assert abs(s[0].imag) < 1e-15
    assert s[0].real >= 0.0


def test_poles_and_equator_states():
    np.testing.assert_allclose(bloch_to_state(BlochPoint(0.0, 0.0)), [1.0, 0.0])
    np.testing.assert_allclose(
        bloch_to_state(BlochPoint(math.pi, 0.0)), [0.0, 1.0], atol=1e-15
    )
    plus_i = bloch_to_state(BlochPoint(math.pi / 2.0, math.pi / 2.0))
    np.testing.assert_allclose(plus_i, [1.0 / math.sqrt(2.0), 1j / math.sqrt(2.0)], atol=1e-15)


def test_equatorial_trio_geometry():
    s = equatorial_trio()
    assert len(s) == 3
    assert all(abs(p.theta - math.pi / 2.0) < 1e-15 for p in s.points)
    phis = [p.phi for p in s.points]
    assert abs(phis[1] - phis[0] - TWO_PI / 3.0) < 1e-12
    assert abs(phis[2] - phis[1] - TWO_PI / 3.0) < 1e-12
    vecs = np.array(s.states())
    assert (np.abs(vecs.conj() @ vecs.T)[np.triu_indices(3, 1)] < 1.0 - 1e-12).all()


def test_tetrahedron_geometry():
    s = tetrahedron()
    assert len(s) == 4
    assert s.points[0].theta == 0.0
    # pairwise Bloch-vector overlaps of tetrahedron vertices: |<u|v>|^2 = 1/3
    vecs = s.states()
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(abs(np.vdot(vecs[i], vecs[j])) ** 2 - 1.0 / 3.0) < 1e-12
    assert abs(math.cos(TETRAHEDRON_THETA) + 1.0 / 3.0) < 1e-15


def test_bb84_and_six_state():
    assert len(bb84()) == 4
    assert [p.phi for p in bb84().points] == pytest.approx(
        [0.0, math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0]
    )
    s6 = six_state()
    assert len(s6) == 6
    assert s6.points[4].theta == 0.0 and s6.points[5].theta == math.pi
    vecs = np.array(s6.states())
    assert (np.abs(vecs.conj() @ vecs.T)[np.triu_indices(6, 1)] < 1.0 - 1e-12).all()


def test_equatorial_pair_bounds():
    s = equatorial_pair(math.pi / 2.0)
    assert len(s) == 2
    with pytest.raises(ValueError):
        equatorial_pair(0.0)
    with pytest.raises(ValueError):
        equatorial_pair(TWO_PI)


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        InputSet("empty", ())


@settings(deadline=None, max_examples=40)
@given(
    st.lists(
        st.tuples(st.floats(0.0, math.pi, allow_nan=False), st.floats(0.0, 6.2, allow_nan=False)),
        min_size=1,
        max_size=6,
    )
)
def test_json_round_trip(pairs):
    s = custom([BlochPoint(*pair) for pair in pairs], label="roundtrip")
    back = InputSet.from_json(input_set_json(s))
    assert back.label == s.label
    assert all(
        a.theta == b.theta and a.phi == b.phi for a, b in zip(back.points, s.points)
    )


def test_json_validates_against_schema():
    schema = load_schema("input_set.schema.json")
    for s in (equatorial_trio(), tetrahedron(), bb84(), six_state()):
        jsonschema.validate(json.loads(input_set_json(s)), schema)
