"""Command-line front end: verify known machines, optimize over input sets,
scan the trio-phase plane, and study 1->n machines.

Every run is deterministic given --seed (or the CLONEBENCH_SEED environment
variable) and, when --out is given, writes a manifest alongside its outputs.
Exit codes: 0 ok, 2 usage error (an --out that cannot be written included),
3 self-check failure, 4 runtime budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import shlex
import sys
import time

from . import __version__
from .cloners import (
    CloneIsometry,
    ancilla_pqcm,
    constraint_check,
    economic_pqcm,
    machine_doc,
    optimal_n_cloner,
    uqcm,
)
from .fidelity import closed_form_bound, copy_fidelity, decompose_equatorial, n_clone_fidelity
from .optimize import (
    MAX_RESOLUTION,
    OptimizationConfig,
    OptimizationResult,
    _stream,
    minimum_cells,
    optimize,
    optimize_n,
    scan_csv,
    scan_equator,
)
from .output import UsageError, _check_out, _dumps, _write_outputs
from .states import (
    MAX_POINTS,
    TWO_PI,
    BlochPoint,
    InputSet,
    bb84,
    custom,
    equatorial_pair,
    equatorial_trio,
    six_state,
    tetrahedron,
)

VERIFY_TOL = 1e-9
SELF_CHECK_TOL = 1e-8
# a qubit -> two-qubit channel has Kraus rank <= 2 * 4, so a larger ancilla
# adds no machine
MAX_ANCILLA_DIM = 8
# each restart holds a (4d) x (4d) inverse Hessian through the descent, about
# 0.19 MB at --ancilla-dim 8
MAX_RESTARTS = 1000
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SELF_CHECK = 3
EXIT_BUDGET = 4
SET_HELP = "trio | bb84 | six-state | tetrahedron | equator:<count> | pair:<deg> | inline JSON | path"
SUMMARY_SUFFIX = ".summary.json"  # the scan summary's file, next to the --out CSV


# ---------------------------------------------------------------------------
# argument parsing helpers


def _default_seed() -> int:
    raw = os.environ.get("CLONEBENCH_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"CLONEBENCH_SEED={raw!r} is not an integer")


def resolve_set(spec: str) -> InputSet:
    """Named set, `pair:<degrees>`, `equator:<count>`, inline JSON, or a path
    to an InputSet JSON file."""
    named = {
        "trio": equatorial_trio,
        "bb84": bb84,
        "six-state": six_state,
        "tetrahedron": tetrahedron,
    }
    if spec in named:
        return named[spec]()
    if spec.startswith("pair:"):
        try:
            delta = math.radians(float(spec.split(":", 1)[1]))
        except ValueError:
            raise UsageError(f"bad pair spec {spec!r}; expected pair:<degrees>")
        # NaN fails the comparison too
        if not 0.0 < delta < TWO_PI:
            raise UsageError(f"pair angle in {spec!r} must be finite and in (0, 360) degrees")
        return equatorial_pair(delta)
    if spec.startswith("equator:"):
        try:
            count = int(spec.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad equator spec {spec!r}; expected equator:<count>")
        if not 1 <= count <= MAX_POINTS:
            raise UsageError(f"equator count {count} outside 1..{MAX_POINTS}")
        pts = [BlochPoint(math.pi / 2.0, k * TWO_PI / count) for k in range(count)]
        return custom(pts, label=spec)
    if spec.lstrip().startswith("{"):
        return _set_from_json(spec, "inline JSON")
    if os.path.exists(spec):
        try:
            with open(spec) as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read input set file {spec!r}: {exc}")
        return _set_from_json(text, spec)
    raise UsageError(f"unknown input set {spec!r}")


def _set_from_json(text: str, source: str) -> InputSet:
    try:
        return InputSet.from_json(text)
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise UsageError(f"bad input set in {source}: {type(exc).__name__}: {exc}")


def resolve_machine(name: str) -> CloneIsometry:
    if name == "pqcm-economic":
        return economic_pqcm()
    if name == "pqcm-ancilla":
        return ancilla_pqcm(1.0 / math.sqrt(2.0))
    if name == "uqcm":
        return uqcm()
    if name.startswith("nclone:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad machine spec {name!r}; expected nclone:<n>")
        if not 1 <= n <= 10:
            raise UsageError(f"nclone n={n} outside 1..10")
        return optimal_n_cloner(n)
    raise UsageError(f"unknown machine {name!r}")


def _manifest(args: argparse.Namespace, config: dict, t0: float) -> dict:
    return {
        "command": shlex.join(["clonebench", *args.argv]),
        "config": config,
        "seed": args.seed,
        "wall_time_s": round(time.perf_counter() - t0, 3),
        "version": __version__,
        "outputs": [],
    }


def _isometry_doc(v: CloneIsometry) -> dict:
    return {
        "copies": v.copies,
        "ancilla_dim": v.ancilla_dim,
        "matrix": [[[z.real, z.imag] for z in row] for row in v.matrix.tolist()],
    }


def _result_doc(res: OptimizationResult) -> dict:
    return {
        "objective": res.objective,
        "spread": res.spread,
        "restarts_hitting_best": res.restarts_hitting_best,
        "seed": res.seed,
        "per_state_fidelities": [
            {"state": s, "copy": k, "fidelity": f} for s, k, f in res.per_state_fidelities
        ],
        "best": _isometry_doc(res.best),
    }


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    v = resolve_machine(args.machine)
    input_set = resolve_set(args.set)
    equatorial = all(abs(p.theta - math.pi / 2.0) < 1e-12 for p in input_set.points)
    if v.copies != 2 and not equatorial:
        raise UsageError(f"machine {args.machine!r} clones equatorial sets only")
    table = copy_fidelity(v, input_set.points, range(min(v.copies, 2)))
    fidelities = [
        {"state": s, "copy": k, "fidelity": f}
        for s, row in enumerate(table.tolist())
        for k, f in enumerate(row)
    ]
    report = constraint_check(v.matrix)
    doc = {
        "machine": args.machine,
        "set": input_set.label,
        "constraint_residuals": report,
        "fidelities": fidelities,
    }
    if not args.machine.startswith("nclone:"):
        for copy, d in enumerate(decompose_equatorial(v)):
            doc[f"decomposition_copy{copy}"] = d
    # expected closed-form value, when one applies to this machine/set pair
    expected = None
    if args.machine == "uqcm":
        expected = closed_form_bound("universal_1to2")
    elif equatorial:
        expected = closed_form_bound("phase_1ton", v.copies)
    ok = report["passed"]
    if expected is None:
        doc["bound_comparison"] = "not applicable"
    else:
        worst = float(abs(table - expected).max())
        doc["bound_comparison"] = {"expected": expected, "max_deviation": worst}
        ok = ok and worst < VERIFY_TOL
    doc["passed"] = bool(ok)
    manifest = _manifest(args, {"machine": args.machine, "set": args.set}, t0)
    _write_outputs(args.out, _dumps(doc), manifest)
    return EXIT_OK if ok else EXIT_SELF_CHECK


# ---------------------------------------------------------------------------
# optimize


def _require_in_range(flag: str, value: int, cap: int) -> None:
    if value < 1:
        raise UsageError(f"{flag} {value} must be >= 1")
    if value > cap:
        raise UsageError(f"{flag} {value} must be <= {cap}")


def _config_from_args(args: argparse.Namespace) -> OptimizationConfig:
    mode = {"maxmin": "max_min", "equalfid": "equal_fidelity_penalty"}[args.mode]
    _require_in_range("--restarts", args.restarts, MAX_RESTARTS)
    _require_in_range("--ancilla-dim", args.ancilla_dim, MAX_ANCILLA_DIM)
    if args.economic and args.ancilla_dim != 1:
        raise UsageError("--economic contradicts --ancilla-dim > 1")
    return OptimizationConfig(
        restarts=args.restarts,
        mode=mode,
        symmetric=args.symmetric,
        ancilla_dim=args.ancilla_dim,
        seed=args.seed,
    )


def cmd_optimize(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    input_set = resolve_set(args.set)
    cfg = _config_from_args(args)
    res = optimize(input_set, cfg)
    # self-check: every reported fidelity must match an independent
    # reduced-state evaluation of the winning machine (`copy_fidelity`)
    table = copy_fidelity(res.best, input_set.points, range(res.best.copies))
    worst = max(abs(table[s, k] - f) for s, k, f in res.per_state_fidelities)
    if worst > SELF_CHECK_TOL:
        print(f"self-check failed: fidelity paths disagree by {worst:.1e}", file=sys.stderr)
        return EXIT_SELF_CHECK
    doc = _result_doc(res)
    doc["set"] = input_set.label
    if args.format == "csv":
        lines = ["state,copy,fidelity"] + [
            f"{s},{k},{f:.12f}" for s, k, f in res.per_state_fidelities
        ]
        text = "\n".join(lines) + "\n"
    else:
        text = _dumps(doc)
    manifest = _manifest(args, {**_public_config(cfg), "set": args.set}, t0)
    _write_outputs(args.out, text, manifest)
    return EXIT_OK


def _public_config(cfg: OptimizationConfig) -> dict:
    return {
        "restarts": cfg.restarts,
        "mode": cfg.mode,
        "symmetric": cfg.symmetric,
        "economic": cfg.ancilla_dim == 1,
        "ancilla_dim": cfg.ancilla_dim,
        "copies": cfg.copies,
        "seed": cfg.seed,
    }


# ---------------------------------------------------------------------------
# scan


class _BudgetExceeded(Exception):
    pass


def cmd_scan(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    if not 8 <= args.resolution <= MAX_RESOLUTION:
        raise UsageError(f"resolution {args.resolution} outside 8..{MAX_RESOLUTION}")
    # NaN fails the comparison too
    if not 0.0 <= args.budget < math.inf:
        raise UsageError(f"--budget {args.budget} must be finite and >= 0")
    cells_done: list[tuple[int, int, float]] = []

    def progress(i: int, j: int, value: float) -> None:
        cells_done.append((i, j, value))
        if args.budget and time.perf_counter() - t0 > args.budget:
            raise _BudgetExceeded

    try:
        # the seed goes positionally, as perfbench's CellClock forwards it
        grid = scan_equator(args.resolution, args.seed, progress=progress)
    except _BudgetExceeded:
        manifest = _manifest(args, {"resolution": args.resolution}, t0)
        manifest["note"] = f"budget of {args.budget}s exceeded; CSV is partial"
        _write_outputs(args.out, scan_csv(args.resolution, cells_done), manifest)
        return EXIT_BUDGET

    step = 360.0 / args.resolution
    cells, vmin = minimum_cells(grid)
    minima_deg = [[i * 360.0 / args.resolution, j * 360.0 / args.resolution] for i, j in cells]
    # the exact minima sit on the grid only when the resolution divides 120
    on_grid = args.resolution % 3 == 0
    if on_grid:
        located = sorted(map(tuple, minima_deg)) == [(120.0, 240.0), (240.0, 120.0)]
    else:
        located = all(
            min(abs(p2 - a) + abs(p3 - b) for a, b in ((120.0, 240.0), (240.0, 120.0)))
            <= 2.0 * step
            for p2, p3 in minima_deg
        )
    summary = {
        "resolution": args.resolution,
        "minimum_cells_deg": minima_deg,
        "minimum_value": vmin,
        "grid_limited": not on_grid,
        "located": located,
    }
    manifest = _manifest(args, {"resolution": args.resolution}, t0)
    csv_text = scan_csv(args.resolution, cells_done)
    summary_text = _dumps(summary) + "\n"
    if args.out is None:
        # without --out the summary follows the CSV on stdout
        _write_outputs(None, csv_text + summary_text, manifest)
    else:
        _write_outputs(args.out, csv_text, manifest, {args.out + SUMMARY_SUFFIX: summary_text})
    return EXIT_OK if located else EXIT_SELF_CHECK


# ---------------------------------------------------------------------------
# nclone


def cmd_nclone(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    if not 2 <= args.n <= 8:
        raise UsageError(f"--n {args.n} outside 2..8")
    _require_in_range("--restarts", args.restarts, MAX_RESTARTS)
    cfg = OptimizationConfig(copies=args.n, restarts=args.restarts, seed=args.seed)
    res = optimize_n(cfg)
    bound = closed_form_bound("phase_1ton", args.n)
    doc = {
        "n": args.n,
        "parity": "even" if args.n % 2 == 0 else "odd",
        "objective": res.objective,
        "bound": bound,
        "machine": machine_doc(res.best),
    }
    # self-check: the closed form against the `copy_fidelity` oracle at 20
    # phases, draw 0 of the stream (seed, n)
    phis = _stream([(args.seed, args.n)], 1, 20)[0, 0] * (TWO_PI * 2.0**-64)
    oracle = copy_fidelity(res.best, [BlochPoint(math.pi / 2.0, phi) for phi in phis.tolist()], [0])
    delta = float(abs(n_clone_fidelity(res.best, phis) - oracle[:, 0]).max())
    doc["oracle_delta"] = delta
    doc["passed"] = bool(abs(res.objective - bound) < 1e-4 and delta < 1e-10)
    manifest = _manifest(args, {"n": args.n, "restarts": args.restarts}, t0)
    _write_outputs(args.out, _dumps(doc), manifest)
    return EXIT_OK if doc["passed"] else EXIT_SELF_CHECK


# ---------------------------------------------------------------------------
# entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it
    unchanged. Its `commands` maps each command name to that command's
    parser."""
    parser = argparse.ArgumentParser(
        prog="clonebench",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="RNG seed (default: CLONEBENCH_SEED or 0)")
        p.add_argument("--out", default=None, help="output path (manifest written alongside)")

    p = sub.add_parser("verify", help="check a known machine against its closed-form values")
    p.add_argument("--machine", required=True, help="pqcm-economic | pqcm-ancilla | uqcm | nclone:<n>")
    p.add_argument("--set", required=True, help=SET_HELP)
    common(p)

    p = sub.add_parser("optimize", help="search for the best machine on an input set")
    p.add_argument("--set", required=True, help=SET_HELP)
    p.add_argument("--mode", choices=("maxmin", "equalfid"), default="maxmin")
    p.add_argument("--symmetric", action="store_true")
    p.add_argument("--economic", action="store_true")
    p.add_argument("--ancilla-dim", type=int, default=1)
    p.add_argument("--restarts", type=int, default=200)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p)

    p = sub.add_parser("scan", help="grid scan of the best fidelity over trio phases")
    p.add_argument("--resolution", type=int, default=24)
    p.add_argument("--budget", type=float, default=0.0, help="wall-time budget in seconds (0 = none)")
    common(p)

    p = sub.add_parser("nclone", help="optimal 1->n machine for the 120-degree trio")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--restarts", type=int, default=60)
    common(p)
    parser.commands = sub.choices
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        # no command named first: argparse's own help, version or error
        args = parser.parse_args(argv)
    else:
        # the named command's parser alone reads the rest, which is all the
        # top-level parser would hand it
        args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.argv = argv
    # looked up per call, so a replaced cmd_* takes effect
    command = {"verify": cmd_verify, "optimize": cmd_optimize, "scan": cmd_scan, "nclone": cmd_nclone}
    try:
        if args.seed is None:
            args.seed = _default_seed()
        if args.seed < 0:
            raise UsageError(f"seed {args.seed} must be >= 0")
        # the random streams fold seeds mod 2^64, so a larger one would alias
        if args.seed >= 2**64:
            raise UsageError(f"seed {args.seed} must be < 2**64")
        if args.out is not None:
            # every file the command can write, refused before any work
            _check_out(args.out, *(SUMMARY_SUFFIX,) if args.command == "scan" else ())
        return command[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
