"""Per-job output checks.

Each check reads what the CLI printed (and, for scan, its summary file),
recomputes what it can from the reported machine with its own linear
algebra, and compares the result with the job's closed-form target. The
tolerances are the acceptance suite's: 1e-4 for optimize and nclone, a
margin above the target of more than 1e-3 for the minimality probes, 1e-9
for verify, and for scan the exact minima within 1e-3 of 1/2 + sqrt(2)/4.

A check separates two kinds of bad result:

- `failed`: the job exited nonzero, raised, or missed its tolerance. A
  search that stops short of the optimum is a miss, not a wrong answer.
- `consistent` false: the output is wrong or could not be checked. The
  output is unreadable, its numbers disagree with a recomputation from the
  machine it reports, or a search value exceeds its proven optimum.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from jobs import Job

OPTIMIZE_TOL = 1e-4
PROBE_MARGIN = 1e-3
VERIFY_TOL = 1e-9
SCAN_TOL = 1e-3
ORACLE_TOL = 1e-10
RECOMPUTE_TOL = 1e-8  # reported vs recomputed fidelity of the same machine
ABOVE_OPTIMUM_TOL = 1e-7  # a search value this far above the optimum is impossible
TRIO_PHASES = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)


@dataclass
class Outcome:
    """The checked result of one job. `attempted`/`failed` count cells for
    scan and one per call otherwise; `gap` is |result - target| (None for
    probes); `problems` lists why the job failed or was inconsistent."""

    attempted: int = 1
    failed: int = 0
    consistent: bool = True
    gap: float | None = None
    symmetry_gap: float = 0.0
    problems: list[str] = field(default_factory=list)

    def fail(self, why: str, cells: int = 1) -> None:
        self.failed = min(self.attempted, self.failed + cells)
        self.problems.append(why)

    def wrong(self, why: str) -> None:
        self.consistent = False
        self.problems.append("inconsistent: " + why)


def _state(theta: float, phi: float) -> np.ndarray:
    return np.array([math.cos(theta / 2.0), math.sin(theta / 2.0) * complex(math.cos(phi), math.sin(phi))])


def _pair_fidelities(matrix: np.ndarray, ancilla_dim: int, psi: np.ndarray) -> tuple[float, float]:
    """Copy fidelities <psi|rho_A|psi>, <psi|rho_B|psi> of a 1->2 isometry."""
    out = (matrix @ psi).reshape(2, 2, ancilla_dim)
    a = np.einsum("a,abe->be", psi.conj(), out)
    b = np.einsum("b,abe->ae", psi.conj(), out)
    return float(np.vdot(a, a).real), float(np.vdot(b, b).real)


def _dicke_basis(n: int) -> np.ndarray:
    basis = np.zeros((2**n, n + 1))
    for idx in range(2**n):
        basis[idx, bin(idx).count("1")] = 1.0
    return basis / np.sqrt(basis.sum(axis=0))


def _nclone_fidelity(a: np.ndarray, b: np.ndarray, phi: float) -> float:
    """First-qubit fidelity of the symmetric 1->n machine on the equatorial
    input at phase phi, by expanding into the full 2^n space."""
    n = len(a) - 1
    eip = complex(math.cos(phi), math.sin(phi))
    out = (_dicke_basis(n) @ ((a + eip * b) / math.sqrt(2.0))).reshape(2, -1)
    psi = np.array([1.0, eip]) / math.sqrt(2.0)
    w = psi.conj() @ out
    return float(np.vdot(w, w).real)


def _complex_array(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _check_optimize(job: Job, rc: int, doc: dict, out: Outcome) -> None:
    if rc != 0:
        out.fail(f"exit code {rc}")
    best = doc["best"]
    matrix = np.array([_complex_array(row) for row in best["matrix"]])
    if np.abs(matrix.conj().T @ matrix - np.eye(2)).max() > RECOMPUTE_TOL:
        out.wrong("reported machine is not an isometry")
    reported = {(e["state"], e["copy"]): e["fidelity"] for e in doc["per_state_fidelities"]}
    for s, (theta, phi) in enumerate(job.points):
        for k, f in enumerate(_pair_fidelities(matrix, best["ancilla_dim"], _state(theta, phi))):
            if abs(f - reported[(s, k)]) > RECOMPUTE_TOL:
                out.wrong(f"fidelity ({s},{k}) is {reported[(s, k)]!r}, recomputed {f!r}")
    objective = doc["objective"]
    if abs(objective - min(reported.values())) > RECOMPUTE_TOL:
        out.wrong("objective is not the smallest reported fidelity")
    if job.kind == "probe":
        margin = objective - job.target
        if margin <= PROBE_MARGIN:
            out.fail(f"probe margin {margin:.2e} above the target is not > {PROBE_MARGIN}")
        return
    if objective > job.target + ABOVE_OPTIMUM_TOL:
        out.wrong(f"objective {objective!r} exceeds the optimum {job.target!r}")
    out.gap = abs(objective - job.target)
    if out.gap >= OPTIMIZE_TOL:
        out.fail(f"misses the optimum by {out.gap:.2e}")


def _check_nclone(job: Job, rc: int, doc: dict, out: Outcome) -> None:
    if rc != 0:
        out.fail(f"exit code {rc}")
    if abs(doc["bound"] - job.target) > 1e-12:
        out.wrong(f"reported bound {doc['bound']!r}, closed form {job.target!r}")
    machine = doc["machine"]
    a, b = _complex_array(machine["a"]), _complex_array(machine["b"])
    recomputed = min(_nclone_fidelity(a, b, phi) for phi in TRIO_PHASES)
    objective = doc["objective"]
    if abs(recomputed - objective) > RECOMPUTE_TOL:
        out.wrong(f"objective {objective!r}, recomputed {recomputed!r}")
    if objective > job.target + ABOVE_OPTIMUM_TOL:
        out.wrong(f"objective {objective!r} exceeds the optimum {job.target!r}")
    out.gap = abs(objective - job.target)
    if out.gap >= OPTIMIZE_TOL:
        out.fail(f"misses the parity bound by {out.gap:.2e}")
    if job.n <= 6 and not doc.get("oracle_delta", math.inf) < ORACLE_TOL:
        out.fail(f"oracle delta {doc.get('oracle_delta')!r} not below {ORACLE_TOL}")


def _check_verify(job: Job, rc: int, doc: dict, out: Outcome) -> None:
    if rc != 0:
        out.fail(f"exit code {rc}")
    fids = [e["fidelity"] for e in doc["fidelities"]]
    if len(fids) != len(job.points) * job.copies:
        out.wrong(f"{len(fids)} fidelities for {len(job.points)} states x {job.copies} copies")
        return
    out.gap = max(abs(f - job.target) for f in fids)
    if out.gap >= VERIFY_TOL:
        out.fail(f"misses the closed form by {out.gap:.2e}")


def _symmetry_partners(i: int, j: int, r: int):
    """Images of cell (i, j) under the generators of the trio-phase symmetry
    group: swapping phi2 and phi3, relabeling the reference state, and
    complex conjugation."""
    return ((j, i), ((-i) % r, (j - i) % r), ((-i) % r, (-j) % r))


def _check_scan(job: Job, rc: int, csv_text: str, summary: dict, out: Outcome) -> None:
    r = job.n
    out.attempted = r * r
    if rc not in (0, 3):
        out.fail(f"exit code {rc}", cells=r * r)
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if len(rows) != r * r:
        out.wrong(f"{len(rows)} grid rows, expected {r * r}")
        return
    grid = np.array([float(row["fidelity"]) for row in rows]).reshape(r, r)
    degenerate = np.array([[i == 0 or j == 0 or i == j for j in range(r)] for i in range(r)])
    if [row["degenerate"] == "true" for row in rows] != degenerate.ravel().tolist():
        out.wrong("degenerate column disagrees with coinciding phases")
    vmin = float(grid[~degenerate].min())
    if abs(vmin - summary["minimum_value"]) > 1e-12:
        out.wrong("summary minimum disagrees with the grid")
    cells = sorted(map(tuple, np.argwhere(~degenerate & (grid <= vmin + 1e-6)).tolist()))
    expected = sorted([(r // 3, 2 * r // 3), (2 * r // 3, r // 3)])
    if (cells == expected) != bool(summary["located"]):
        out.wrong("summary 'located' disagrees with the grid minima")
    out.gap = abs(vmin - job.target)
    failed_cells = set()
    if cells != expected or out.gap >= SCAN_TOL:
        out.problems.append(f"minima at cells {cells}, value {vmin:.6f}")
        failed_cells.update(expected)
    asymmetric = 0
    for i in range(r):
        for j in range(r):
            if degenerate[i, j]:
                continue
            gap = max(abs(grid[i, j] - grid[p]) for p in _symmetry_partners(i, j, r))
            out.symmetry_gap = max(out.symmetry_gap, float(gap))
            if gap > SCAN_TOL:
                asymmetric += 1
                failed_cells.add((i, j))
    if asymmetric:
        out.problems.append(f"{asymmetric} cells differ from a symmetry partner by more than {SCAN_TOL}")
    out.failed = max(out.failed, len(failed_cells))


def check(job: Job, rc: int | None, stdout: str, summary: str | None) -> Outcome:
    """Check one finished job. rc is None when the call raised; `summary`
    is the text of the scan summary file, if one was written."""
    out = Outcome()
    if rc is None:
        out.attempted = job.n * job.n if job.kind == "scan" else 1
        out.fail("raised", cells=out.attempted)
        out.wrong("no output to check")
        return out
    try:
        if job.kind == "scan":
            _check_scan(job, rc, stdout, json.loads(summary or ""), out)
        else:
            doc = json.loads(stdout)
            {"optimize": _check_optimize, "probe": _check_optimize, "nclone": _check_nclone,
             "verify": _check_verify}[job.kind](job, rc, doc, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        out.fail(f"unreadable output ({type(exc).__name__}: {exc})", cells=out.attempted)
        out.wrong("output could not be checked")
    return out

