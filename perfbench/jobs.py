"""Seeded job lists for the benchmark workloads.

A job is one `clonebench` command line plus what its output is checked
against. Everything a job needs is drawn from the workload seed here; the
program under test sees only the generated command lines. Closed-form
targets are written out in this file rather than taken from the package,
so that a change to the package cannot move its own yardstick.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

PHASE_1TO2 = 0.5 + math.sqrt(2.0) / 4.0
UNIVERSAL_1TO2 = 5.0 / 6.0
TETRA_COS = -1.0 / 3.0  # latitude of the three lower tetrahedron vertices

WORKLOADS = ("sets", "nclone", "scan", "verify")

# The CLI defaults (200 restarts for optimize, 60 for nclone) take 60-100 s
# per list, so the searches run with fewer restarts. Fewer restarts can only
# add misses; they hide none.
SETS_RESTARTS = 8
NCLONE_RESTARTS = 3
NCLONE_NS = tuple(range(2, 9))
SCAN_RESOLUTION = 9  # smallest multiple of 3 the CLI accepts (>= 8)
# set sizes are fixed so that the cost of a verify pass does not depend on
# the seed; the seed draws the states
VERIFY_EQUATORIAL_SIZES = (1, 2, 3, 4, 5, 6) * 2
VERIFY_BLOCH_SIZES = (1, 2, 3, 4, 5, 6)
PHASE_MACHINES = ("pqcm-economic", "pqcm-ancilla") + tuple(f"nclone:{n}" for n in range(1, 11))


def phase_1ton(n: int) -> float:
    """Optimal equatorial 1->n fidelity (parity-dependent closed form)."""
    if n % 2 == 0:
        return 0.5 + math.sqrt(n * (n + 2)) / (4.0 * n)
    return 0.5 + (n + 1) / (4.0 * n)


@dataclass(frozen=True)
class Job:
    """One CLI call. `kind` selects the output check: optimize, probe,
    nclone, scan or verify. `points` are the (theta, phi) inputs passed
    inline; `copies` is the number of checked copies for verify."""

    label: str
    argv: tuple[str, ...]
    kind: str
    target: float
    points: tuple[tuple[float, float], ...] = ()
    n: int = 0
    copies: int = 2


# ---------------------------------------------------------------------------
# Bloch-sphere helpers


def _equator(phis):
    return [(math.cos(p), math.sin(p), 0.0) for p in phis]


def _canonical_sets() -> dict[str, list[tuple[float, float, float]]]:
    third = 2.0 * math.pi / 3.0
    s = math.sqrt(1.0 - TETRA_COS**2)
    lower = [(s * math.cos(k * third), s * math.sin(k * third), TETRA_COS) for k in range(3)]
    bb84 = _equator([k * math.pi / 2.0 for k in range(4)])
    return {
        "trio": _equator([0.0, third, 2.0 * third]),
        "bb84": bb84,
        "tetrahedron": [(0.0, 0.0, 1.0)] + lower,
        "six-state": bb84 + [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)],
        "pair:90": _equator([0.0, math.pi / 2.0]),
    }


def _random_rotation(rng: random.Random):
    """Uniform SO(3) rotation (the Bloch image of a Haar SU(2) element),
    from a normalised Gaussian quaternion."""
    w, x, y, z = (rng.gauss(0.0, 1.0) for _ in range(4))
    norm = math.sqrt(w * w + x * x + y * y + z * z)
    w, x, y, z = w / norm, x / norm, y / norm, z / norm
    return (
        (1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)),
    )


def _to_angles(v) -> tuple[float, float]:
    x, y, z = v
    theta = math.acos(max(-1.0, min(1.0, z)))
    phi = math.atan2(y, x) % (2.0 * math.pi)
    return theta, phi


def _rotate(rot, vecs):
    return [tuple(sum(rot[r][c] * v[c] for c in range(3)) for r in range(3)) for v in vecs]


def _set_json(label: str, points) -> str:
    return json.dumps(
        {"label": label, "points": [{"theta": t, "phi": p} for t, p in points]}
    )


# ---------------------------------------------------------------------------
# workloads


def _sets_jobs(rng: random.Random) -> list[Job]:
    canon = _canonical_sets()
    drop = rng.randrange(4)
    canon[f"tetrahedron-minus-{drop}"] = [v for i, v in enumerate(canon["tetrahedron"]) if i != drop]
    plans = [
        ("trio", "optimize", PHASE_1TO2, ("--economic",)),
        ("bb84", "optimize", PHASE_1TO2, ("--economic",)),
        ("tetrahedron", "optimize", UNIVERSAL_1TO2, ("--ancilla-dim", "2")),
        ("six-state", "optimize", UNIVERSAL_1TO2, ("--ancilla-dim", "2")),
        ("pair:90", "probe", PHASE_1TO2, ("--economic",)),
        (f"tetrahedron-minus-{drop}", "probe", UNIVERSAL_1TO2, ("--ancilla-dim", "2")),
    ]
    jobs = []
    for name, kind, target, flags in plans:
        points = tuple(_to_angles(v) for v in _rotate(_random_rotation(rng), canon[name]))
        argv = (
            "optimize", "--set", _set_json(f"{name}-rotated", points), "--symmetric", *flags,
            "--restarts", str(SETS_RESTARTS), "--seed", str(rng.randrange(2**31)),
        )
        jobs.append(Job(f"optimize {name}", argv, kind, target, points))
    return jobs


def _nclone_jobs(rng: random.Random) -> list[Job]:
    return [
        Job(
            f"nclone --n {n}",
            ("nclone", "--n", str(n), "--restarts", str(NCLONE_RESTARTS),
             "--seed", str(rng.randrange(2**31))),
            "nclone",
            phase_1ton(n),
            n=n,
        )
        for n in NCLONE_NS
    ]


def _scan_jobs(rng: random.Random) -> list[Job]:
    argv = ("scan", "--resolution", str(SCAN_RESOLUTION), "--seed", str(rng.randrange(2**31)))
    return [Job(f"scan --resolution {SCAN_RESOLUTION}", argv, "scan", PHASE_1TO2, n=SCAN_RESOLUTION)]


def _verify_jobs(rng: random.Random) -> list[Job]:
    jobs = []

    def add(machine, label, points, target, copies):
        argv = ("verify", "--machine", machine, "--set", _set_json(label, points),
                "--seed", str(rng.randrange(2**31)))
        jobs.append(Job(f"verify {machine} {label}", argv, "verify", target, points, copies=copies))

    for s, count in enumerate(VERIFY_EQUATORIAL_SIZES):
        points = tuple((math.pi / 2.0, rng.uniform(0.0, 2.0 * math.pi)) for _ in range(count))
        for machine in PHASE_MACHINES:
            n = int(machine.split(":")[1]) if machine.startswith("nclone:") else 2
            target = phase_1ton(n) if machine.startswith("nclone:") else PHASE_1TO2
            add(machine, f"equator-{s}", points, target, min(n, 2))
        add("uqcm", f"equator-{s}", points, UNIVERSAL_1TO2, 2)
    for s, count in enumerate(VERIFY_BLOCH_SIZES):
        points = tuple(
            (math.acos(1.0 - 2.0 * rng.random()), rng.uniform(0.0, 2.0 * math.pi))
            for _ in range(count)
        )
        add("uqcm", f"bloch-{s}", points, UNIVERSAL_1TO2, 2)
    return jobs


def build_jobs(workload: str, seed: int) -> list[Job]:
    """The fixed job list of `workload` for `seed`: the same seed gives the
    same list."""
    makers = {"sets": _sets_jobs, "nclone": _nclone_jobs, "scan": _scan_jobs, "verify": _verify_jobs}
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return makers[workload](random.Random(f"{workload}:{seed}"))


# one cheap call through each workload's code path, made during set-up; fixed,
# so that set-up does the same work whatever the seed
WARMUPS = {
    "sets": ("optimize", "--set", "trio", "--symmetric", "--economic", "--restarts", "1"),
    "nclone": ("nclone", "--n", "2", "--restarts", "1"),
    "scan": ("optimize", "--set", "trio", "--mode", "equalfid", "--symmetric", "--restarts", "1"),
    "verify": ("verify", "--machine", "pqcm-economic", "--set", "trio"),
}
