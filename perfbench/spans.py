"""Tracing for the per-layer metrics, done entirely from outside the package.

`Tracer.install` replaces every public function of the clonebench modules,
in every module namespace that binds it, with a wrapper that records a span
(name, start, end, parent span, job). `scipy.optimize.minimize`, as bound in
`clonebench.optimize`, gets a wrapper that also wraps the objective it is
given, to count evaluations and the time spent in them. `uninstall` puts
every original attribute back. Spans stay in memory until `write_csv`.

Layers are the modules: states, qlinalg, cloners, fidelity, optimize, cli.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import time
from types import ModuleType

LAYERS = ("states", "qlinalg", "cloners", "fidelity", "optimize", "cli")
SEARCHES = ("optimize.optimize", "optimize.optimize_n")
# calls with which the CLI re-checks a search result through the reference
# oracle, and the commands that make them; `verify` also calls the oracle,
# but there it is the job itself, not a cross-check
CROSS_CHECKS = (
    "fidelity.copy_fidelity",
    "fidelity.n_clone_fidelity",
    "fidelity.n_clone_fidelity_bruteforce",
    "optimize.objective",
)
CHECKING_COMMANDS = ("cli.cmd_optimize", "cli.cmd_nclone")
# printed by a traced run but not listed in BENCHMARK.json: only the sets
# and nclone workloads, which it does not list, make these calls
UNLISTED = (
    "fidelity.n_clone_calls",
    "fidelity.n_clone_us",
    "fidelity.bruteforce_us",
    "cli.self_check_share",
)

# units of every metric a traced run prints, in the order it prints them
UNITS = {
    "optimize.evals": "count",
    "optimize.evals_per_restart": "count",
    "optimize.eval_us": "us",
    "optimize.minimize_self_share": "share",
    "optimize.polish_share": "share",
    "optimize.infeasible_evals": "count",
    "optimize.nonconverged_restarts": "count",
    "optimize.hit_share": "share",
    "optimize.scan_cell_ms_p50": "ms",
    "optimize.scan_cells_optimized": "count",
    "optimize.scan_degenerate_share": "share",
    "optimize.trio_is_degenerate_us": "us",
    "fidelity.n_clone_calls": "count",
    "fidelity.n_clone_us": "us",
    "fidelity.bruteforce_us": "us",
    "fidelity.copy_fidelity_us": "us",
    "fidelity.decompose_us": "us",
    "qlinalg.partial_trace_calls": "count",
    "qlinalg.partial_trace_us": "us",
    "qlinalg.sym_basis_calls": "count",
    "cloners.apply_us": "us",
    "cloners.constraint_check_us": "us",
    "states.bloch_to_state_calls": "count",
    "cli.self_s": "s",
    "cli.self_check_share": "share",
    "trace.overhead_share": "share",
    "check.fail_share": "share",
    "check.target_gap_max": "abs",
    "check.symmetry_gap_max": "abs",
}


class Tracer:
    """Wraps the package's public functions and records their spans."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent, job) per span id
        self.attrs: dict[int, dict] = {}  # extra fields of minimize and search spans
        self.stack: list[int] = []
        self.job = -1
        self._patched: list[tuple[ModuleType, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap the public functions of `modules` (layer name -> module)."""
        wrappers: dict[object, object] = {}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if not _is_public_function(value):
                    continue
                if value not in wrappers:
                    layer = value.__module__.rsplit(".", 1)[-1]
                    wrappers[value] = self._wrap(value, f"{layer}.{value.__name__}")
                self._patch(module, attr, wrappers[value])
        opt = modules["optimize"]
        self._patch(opt, "minimize", self._wrap_minimize(opt.minimize))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _patch(self, module: ModuleType, attr: str, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    # -- span recording -----------------------------------------------------

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[sid] = (name, start, end, parent, self.job)

    def _wrap(self, fn, name: str):
        search = name in SEARCHES
        signature = inspect.signature(fn) if search else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open()
            if search:
                self.attrs[sid] = _search_attrs(signature.bind(*args, **kwargs).arguments)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid, name, start)
            if search:
                self.attrs[sid]["hits"] = result.restarts_hitting_best
            return result

        return traced

    def _wrap_minimize(self, minimize):
        @functools.wraps(minimize)
        def traced(fun, x0, *args, **kwargs):
            sid = self._open()
            stats = {"evals": 0, "eval_s": 0.0, "infeasible": 0}

            def counted(x, *fargs):
                t = time.perf_counter()
                value = fun(x, *fargs)
                stats["eval_s"] += time.perf_counter() - t
                stats["evals"] += 1
                stats["infeasible"] += value == math.inf
                return value

            start = time.perf_counter()
            try:
                res = minimize(counted, x0, *args, **kwargs)
            finally:
                self._close(sid, "optimize.minimize", start)
            stats["success"] = bool(res.success)
            self.attrs[sid] = stats
            return res

        return traced

    # -- output ---------------------------------------------------------------

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,job,name,start_s,end_s\n")
            for sid, (name, start, end, parent, job) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{job},{name},{start:.9f},{end:.9f}\n")


def _is_public_function(value) -> bool:
    return (
        inspect.isfunction(value)
        and not value.__name__.startswith("_")
        and (value.__module__ or "").startswith("clonebench.")
    )


def _search_attrs(arguments: dict) -> dict:
    """Starts a search will make, and whether its input set has two
    coinciding states (a degenerate scan cell)."""
    cfg = arguments["cfg"]
    attrs = {"starts": cfg.restarts + len(arguments.get("_extra_starts", ())), "degenerate": False}
    input_set = arguments.get("input_set")
    if input_set is not None:
        vecs = [
            (math.sin(p.theta) * math.cos(p.phi), math.sin(p.theta) * math.sin(p.phi), math.cos(p.theta))
            for p in input_set.points
        ]
        attrs["degenerate"] = any(
            math.dist(u, v) < 1e-6 for i, u in enumerate(vecs) for v in vecs[i + 1 :]
        )
    return attrs


# ---------------------------------------------------------------------------
# per-layer metrics


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics of the traced passes; counts are per pass, times
    are means per call unless the name says otherwise."""
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start

    def dur(sid):
        return spans[sid][2] - spans[sid][1]

    by_name: dict[str, list[int]] = {}
    for sid, span in enumerate(spans):
        by_name.setdefault(span[0], []).append(sid)

    def ids(name):
        return by_name.get(name, [])

    def mean_us(name):
        return _mean([dur(s) for s in ids(name)]) * 1e6

    # explore vs polish: inside each search span, the minimize calls after
    # the last restart's are the polish
    explore, polish = [], []
    seen: dict[int, int] = {}
    for sid in ids("optimize.minimize"):
        parent = spans[sid][3]
        seen[parent] = seen.get(parent, 0) + 1
        starts = tracer.attrs.get(parent, {}).get("starts", math.inf)
        (explore if seen[parent] <= starts else polish).append(sid)
    mins = explore + polish
    attrs = tracer.attrs
    evals = sum(attrs[s]["evals"] for s in mins)
    eval_s = sum(attrs[s]["eval_s"] for s in mins)
    min_s = sum(dur(s) for s in mins)
    searches = [s for name in SEARCHES for s in ids(name)]
    scans = set(ids("optimize.scan_equator"))
    cells = [s for s in ids("optimize.optimize") if spans[s][3] in scans]
    cli_spans = {s for s, span in enumerate(spans) if span[0].startswith("cli.")}
    checking = {s for name in CHECKING_COMMANDS for s in ids(name)}
    cross = [s for name in CROSS_CHECKS for s in ids(name) if spans[s][3] in checking]
    main_s = sum(dur(s) for s in ids("cli.main"))

    return {
        "optimize.evals": evals / passes,
        "optimize.evals_per_restart": _mean([attrs[s]["evals"] for s in explore]),
        "optimize.eval_us": eval_s / evals * 1e6 if evals else 0.0,
        "optimize.minimize_self_share": (min_s - eval_s) / min_s if min_s else 0.0,
        "optimize.polish_share": sum(dur(s) for s in polish) / min_s if min_s else 0.0,
        "optimize.infeasible_evals": sum(attrs[s]["infeasible"] for s in mins) / passes,
        "optimize.nonconverged_restarts": sum(not attrs[s]["success"] for s in explore) / passes,
        "optimize.hit_share": (
            sum(attrs[s]["hits"] for s in searches) / sum(attrs[s]["starts"] for s in searches)
            if searches else 0.0
        ),
        "optimize.scan_cell_ms_p50": statistics.median([dur(s) for s in cells]) * 1e3 if cells else 0.0,
        "optimize.scan_cells_optimized": len(cells) / passes,
        "optimize.scan_degenerate_share": _mean([attrs[s]["degenerate"] for s in cells]),
        "optimize.trio_is_degenerate_us": mean_us("optimize.trio_is_degenerate"),
        "fidelity.n_clone_calls": len(ids("fidelity.n_clone_fidelity")) / passes,
        "fidelity.n_clone_us": mean_us("fidelity.n_clone_fidelity"),
        "fidelity.bruteforce_us": mean_us("fidelity.n_clone_fidelity_bruteforce"),
        "fidelity.copy_fidelity_us": mean_us("fidelity.copy_fidelity"),
        "fidelity.decompose_us": mean_us("fidelity.decompose_equatorial"),
        "qlinalg.partial_trace_calls": len(ids("qlinalg.partial_trace")) / passes,
        "qlinalg.partial_trace_us": mean_us("qlinalg.partial_trace"),
        "qlinalg.sym_basis_calls": len(ids("qlinalg.sym_basis")) / passes,
        "cloners.apply_us": mean_us("cloners.apply"),
        "cloners.constraint_check_us": mean_us("cloners.constraint_check"),
        "states.bloch_to_state_calls": len(ids("states.bloch_to_state")) / passes,
        "cli.self_s": sum(dur(s) - child_s[s] for s in cli_spans) / passes,
        "cli.self_check_share": sum(dur(s) for s in cross) / main_s if main_s else 0.0,
    }
