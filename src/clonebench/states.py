"""Bloch-sphere parameterization and the canonical finite input sets."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

TWO_PI = 2.0 * math.pi
MAX_POINTS = 64  # the most inputs a set may have, as in input_set.schema.json

# cos(theta/2) = sqrt(3)/3 puts three states at cos(theta) = -1/3, the
# tetrahedron latitude below the north pole.
TETRAHEDRON_THETA = 2.0 * math.acos(math.sqrt(3.0) / 3.0)


@dataclass(frozen=True)
class BlochPoint:
    """A point on the Bloch sphere: polar angle theta in [0, pi], azimuth phi."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta={self.theta} outside [0, pi]")
        phi = float(self.phi)
        if not math.isfinite(phi):
            raise ValueError(f"phi={phi} is not finite")
        phi %= TWO_PI
        object.__setattr__(self, "theta", float(self.theta))
        object.__setattr__(self, "phi", phi)


def bloch_to_state(p: BlochPoint) -> np.ndarray:
    """Amplitudes (cos(theta/2), sin(theta/2) e^{i phi}); first entry real >= 0."""
    return np.array(
        [math.cos(p.theta / 2.0), math.sin(p.theta / 2.0) * np.exp(1j * p.phi)],
        dtype=complex,
    )


@dataclass(frozen=True)
class InputSet:
    """A labelled finite collection of pure-qubit inputs."""

    label: str
    points: tuple[BlochPoint, ...]

    def __post_init__(self):
        pts = tuple(self.points)
        if not pts:
            raise ValueError("an input set needs at least one point")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    def states(self) -> list[np.ndarray]:
        return [bloch_to_state(p) for p in self.points]

    @classmethod
    def from_json(cls, text: str) -> "InputSet":
        """The set of an input_set.schema.json document; any finite phi is taken mod 2 pi."""
        doc = json.loads(text)
        raw = doc["points"]
        if len(raw) > MAX_POINTS:
            raise ValueError(f"{len(raw)} points; a set has at most {MAX_POINTS}")
        unknown = (set(doc) - {"label", "points"}) | (set().union(*raw) - {"theta", "phi"})
        if unknown:
            raise ValueError(f"unknown keys {sorted(map(str, unknown))}")
        angles = [(q["theta"], q["phi"]) for q in raw]
        if any(isinstance(a, bool) for pair in angles for a in pair):  # JSON true reads as 1
            raise TypeError("theta and phi must be numbers, not booleans")
        points = tuple(BlochPoint(*pair) for pair in angles)
        if not isinstance(doc["label"], str):
            raise TypeError("label must be a string")
        return cls(label=doc["label"], points=points)


def equatorial_trio() -> InputSet:
    """Three equatorial qubits with 120-degree relative phases."""
    pts = tuple(BlochPoint(math.pi / 2.0, phi) for phi in (0.0, TWO_PI / 3.0, 2.0 * TWO_PI / 3.0))
    return InputSet("trio", pts)


def tetrahedron() -> InputSet:
    """|0> plus three states at the tetrahedron latitude, phases 120 degrees apart."""
    pts = (BlochPoint(0.0, 0.0),) + tuple(
        BlochPoint(TETRAHEDRON_THETA, phi) for phi in (0.0, TWO_PI / 3.0, -TWO_PI / 3.0)
    )
    return InputSet("tetrahedron", pts)


def bb84() -> InputSet:
    """The four equatorial qubits at phases 0, 90, 180, 270 degrees."""
    pts = tuple(BlochPoint(math.pi / 2.0, k * math.pi / 2.0) for k in range(4))
    return InputSet("bb84", pts)


def six_state() -> InputSet:
    """The bb84() states plus the two poles (the standard six-state set)."""
    pts = bb84().points + (BlochPoint(0.0, 0.0), BlochPoint(math.pi, 0.0))
    return InputSet("six-state", pts)


def equatorial_pair(delta: float) -> InputSet:
    """Two equatorial qubits separated by phase delta in (0, 2 pi)."""
    if not 0.0 < delta < TWO_PI:
        raise ValueError(f"delta={delta} outside (0, 2 pi)")
    pts = (BlochPoint(math.pi / 2.0, 0.0), BlochPoint(math.pi / 2.0, delta))
    return InputSet(f"pair:{math.degrees(delta):g}", pts)


def custom(points: Iterable[BlochPoint], label: str = "custom") -> InputSet:
    return InputSet(label, tuple(points))
