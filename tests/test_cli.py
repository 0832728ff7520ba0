"""End-to-end tests of the command-line interface (in-process)."""

import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import input_set_json

import clonebench.cli as cli
from clonebench.cli import main, resolve_machine, resolve_set
from clonebench.cloners import constraint_check
from clonebench.fidelity import PSI_UNDEFINED_BELOW, closed_form_bound, copy_fidelity
from clonebench.states import TWO_PI, BlochPoint, equatorial_trio

F_PHASE = 0.5 + math.sqrt(2.0) / 4.0


def load_schema(name):
    text = resources.files("clonebench.schemas").joinpath(name).read_text()
    return json.loads(text)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_resolve_set_variants(tmp_path):
    assert len(resolve_set("trio")) == 3
    assert len(resolve_set("six-state")) == 6
    assert len(resolve_set("pair:90")) == 2
    assert len(resolve_set("equator:12")) == 12
    inline = input_set_json(equatorial_trio())
    assert resolve_set(inline).label == "trio"
    path = tmp_path / "set.json"
    path.write_text(inline)
    assert resolve_set(str(path)).label == "trio"


def test_resolve_machine_variants():
    assert resolve_machine("pqcm-economic").matrix[0, 0] == 1.0
    assert resolve_machine("uqcm").ancilla_dim == 2
    assert resolve_machine("nclone:4").copies == 4
    from clonebench.cli import UsageError

    with pytest.raises(UsageError):
        resolve_machine("nclone:99")
    with pytest.raises(UsageError):
        resolve_set("moon")


def test_verify_pqcm_trio(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify", "--machine", "pqcm-economic", "--set", "trio", "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    jsonschema.validate(doc, load_schema("verify_report.schema.json"))
    assert all(abs(f["fidelity"] - F_PHASE) < 1e-12 for f in doc["fidelities"])
    assert doc["passed"]
    manifest = read_json(str(out) + ".manifest.json")
    jsonschema.validate(manifest, load_schema("manifest.schema.json"))
    assert manifest["outputs"] == [str(out)]


def test_verify_uqcm_six_state(capsys):
    assert main(["verify", "--machine", "uqcm", "--set", "six-state"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(abs(f["fidelity"] - 5.0 / 6.0) < 1e-12 for f in doc["fidelities"])


def test_verify_non_universal_machine_off_equator(capsys):
    assert main(["verify", "--machine", "pqcm-economic", "--set", "tetrahedron"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["bound_comparison"] == "not applicable"
    fids = [f["fidelity"] for f in doc["fidelities"]]
    assert max(fids) - min(fids) > 1e-3  # non-flat on a non-equatorial set


@pytest.mark.parametrize("n", range(1, 11))
def test_verify_nclone_on_the_equator(n, capsys):
    assert main(["verify", "--machine", f"nclone:{n}", "--set", "equator:7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, load_schema("verify_report.schema.json"))
    assert doc["passed"]


def single_point_verify(machine, set_name):
    """verify's document and exit code rebuilt from one oracle call per
    (state, copy), with each decomposition read off a 5-point DFT of such
    calls; the document is None where verify refuses the pair."""
    v = resolve_machine(machine)
    input_set = resolve_set(set_name)
    equatorial = all(abs(p.theta - math.pi / 2.0) < 1e-12 for p in input_set.points)
    if v.copies != 2 and not equatorial:
        return None, 2

    def oracle(p, copy):
        return float(copy_fidelity(v, [p], [copy])[0, 0])

    report = constraint_check(v.matrix)
    fids = [
        {"state": s, "copy": k, "fidelity": oracle(p, k)}
        for s, p in enumerate(input_set.points)
        for k in range(min(v.copies, 2))
    ]
    doc = {
        "machine": machine,
        "set": input_set.label,
        "constraint_residuals": report,
        "fidelities": fids,
    }
    if not machine.startswith("nclone:"):
        phis = np.arange(5) * (TWO_PI / 5.0)
        for copy in range(2):
            f = [oracle(BlochPoint(math.pi / 2.0, phi), copy) for phi in phis]
            c = np.exp(-1j * np.outer(np.arange(3), phis)) @ f / 5.0
            lam1, lam2 = float(2.0 * abs(c[2])), float(2.0 * abs(c[1]))
            ok1, ok2 = lam1 >= PSI_UNDEFINED_BELOW, lam2 >= PSI_UNDEFINED_BELOW
            doc[f"decomposition_copy{copy}"] = {
                "lambda1": lam1,
                "lambda2": lam2,
                "lambda3": float(c[0].real),
                "psi1": math.atan2(c[2].imag, c[2].real) % TWO_PI if ok1 else 0.0,
                "psi2": math.atan2(c[1].imag, c[1].real) % TWO_PI if ok2 else 0.0,
                "psi1_defined": bool(ok1),
                "psi2_defined": bool(ok2),
            }
    passed = report["passed"]
    if machine == "uqcm" or equatorial:
        kind = "universal_1to2" if machine == "uqcm" else "phase_1ton"
        expected = closed_form_bound(kind, v.copies)
        worst = max(abs(f["fidelity"] - expected) for f in fids)
        doc["bound_comparison"] = {"expected": expected, "max_deviation": worst}
        passed = passed and worst < cli.VERIFY_TOL
    else:
        doc["bound_comparison"] = "not applicable"
    doc["passed"] = passed
    return doc, 0 if passed else 3


def assert_same_document(got, want, path="doc"):
    """Same keys in the same order and the same types; floats agree to
    1e-15, everything else exactly."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_same_document(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_document(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-15, (path, got, want)
    else:
        assert got == want, path


@pytest.mark.parametrize(
    "machine", ["pqcm-economic", "pqcm-ancilla", "uqcm"] + [f"nclone:{n}" for n in range(1, 11)]
)
def test_verify_matches_the_single_point_oracle(machine, capsys):
    for set_name in ("trio", "bb84", "six-state", "tetrahedron"):
        want, code = single_point_verify(machine, set_name)
        assert main(["verify", "--machine", machine, "--set", set_name]) == code
        out = capsys.readouterr().out
        if want is None:
            assert out == ""
        else:
            assert_same_document(json.loads(out), want, f"{machine} {set_name}")


def test_verify_unknown_names_exit_2(capsys):
    assert main(["verify", "--machine", "bogus", "--set", "trio"]) == 2
    assert main(["verify", "--machine", "uqcm", "--set", "bogus"]) == 2


def test_optimize_trio(tmp_path, capsys):
    out = tmp_path / "opt.json"
    code = main(
        [
            "optimize",
            "--set",
            "trio",
            "--symmetric",
            "--economic",
            "--restarts",
            "20",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    doc = read_json(out)
    jsonschema.validate(doc, load_schema("optimize_result.schema.json"))
    assert abs(doc["objective"] - F_PHASE) < 1e-4
    manifest = read_json(str(out) + ".manifest.json")
    jsonschema.validate(manifest, load_schema("manifest.schema.json"))
    assert manifest["config"]["restarts"] == 20


def test_optimize_csv_format(capsys):
    code = main(
        ["optimize", "--set", "pair:90", "--symmetric", "--economic", "--restarts", "10", "--format", "csv"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "state,copy,fidelity"
    assert len(lines) == 1 + 4  # two states, two copies


def test_optimize_inconsistent_flags_exit_2(capsys):
    code = main(["optimize", "--set", "trio", "--economic", "--ancilla-dim", "2"])
    assert code == 2


def test_optimize_env_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CLONEBENCH_SEED", "17")
    out = tmp_path / "opt.json"
    args = ["optimize", "--set", "pair:120", "--symmetric", "--economic", "--restarts", "5", "--out", str(out)]
    assert main(args) == 0
    first = read_json(out)
    assert first["seed"] == 17
    assert main(args) == 0
    assert read_json(out) == first  # same env seed, identical output


@pytest.mark.slow
def test_scan_resolution_8(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = main(["scan", "--resolution", "8", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "phi2_deg,phi3_deg,fidelity,degenerate"
    assert len(lines) == 8 * 8 + 1
    summary = read_json(str(out) + ".summary.json")
    jsonschema.validate(summary, load_schema("scan_summary.schema.json"))
    manifest = read_json(str(out) + ".manifest.json")
    assert manifest["outputs"] == [str(out), str(out) + ".summary.json"]
    assert summary["grid_limited"]
    assert summary["located"]


def test_scan_budget_exceeded(tmp_path, capsys):
    # a budget far below the time of one cell, so the scan stops after its first
    out = tmp_path / "scan.csv"
    code = main(["scan", "--resolution", "8", "--budget", "1e-6", "--out", str(out)])
    assert code == 4
    manifest = read_json(str(out) + ".manifest.json")
    assert "exceeded" in manifest["note"]
    lines = out.read_text().splitlines()
    assert lines[0] == "phi2_deg,phi3_deg,fidelity,degenerate"
    assert len(lines) < 8 * 8 + 1


def test_budget_csv_is_a_prefix_of_the_full_csv(capsys):
    assert main(["scan", "--resolution", "8"]) == 0
    full = capsys.readouterr().out
    assert main(["scan", "--resolution", "8", "--budget", "1e-6"]) == 4
    partial = capsys.readouterr().out
    assert partial.count("\n") > 1
    assert full.startswith(partial) and len(partial) < len(full)


def test_budget_stops_a_long_scan_early(capsys):
    # the orbits are solved in batches and every cell is reported as soon as
    # its orbit is, so a budget cuts the work itself, not only the CSV
    t0 = time.perf_counter()
    assert main(["scan", "--resolution", "48"]) == 0
    full_s = time.perf_counter() - t0
    full = capsys.readouterr().out
    t0 = time.perf_counter()
    assert main(["scan", "--resolution", "48", "--budget", "0.02"]) == 4
    budget_s = time.perf_counter() - t0
    partial = capsys.readouterr().out
    assert partial.count("\n") > 1
    assert full.startswith(partial) and len(partial) < len(full)
    assert budget_s < 0.5 * full_s


def test_scan_low_resolution_exit_2(capsys):
    assert main(["scan", "--resolution", "4"]) == 2


@pytest.mark.parametrize("resolution", [361, 10**9])
def test_scan_resolution_above_the_cap_exits_2(resolution, capsys):
    # refused before any orbit key is built, so a huge grid costs nothing
    assert main(["scan", "--resolution", str(resolution)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_nclone_n2(tmp_path, capsys):
    out = tmp_path / "nclone.json"
    code = main(["nclone", "--n", "2", "--restarts", "20", "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    jsonschema.validate(doc, load_schema("nclone_report.schema.json"))
    jsonschema.validate(doc["machine"], load_schema("machine.schema.json"))
    assert doc["parity"] == "even"
    assert abs(doc["objective"] - F_PHASE) < 1e-4
    assert doc["oracle_delta"] < 1e-10


@pytest.mark.slow
@pytest.mark.parametrize("n", [6, 8])
def test_nclone_reaches_the_parity_bound_at_default_restarts(tmp_path, capsys, n):
    out = tmp_path / "nclone.json"
    assert main(["nclone", "--n", str(n), "--out", str(out)]) == 0
    doc = read_json(out)
    assert abs(doc["objective"] - doc["bound"]) < 1e-4
    assert doc["oracle_delta"] < 1e-10


def test_optimize_self_check_catches_any_wrong_fidelity(monkeypatch, capsys):
    # corrupt the largest reported fidelity, which a check of the minimum misses
    search = cli.optimize

    def corrupted(input_set, cfg):
        res = search(input_set, cfg)
        fids = sorted(res.per_state_fidelities, key=lambda e: e[2])
        s, k, f = fids[-1]
        return replace(res, per_state_fidelities=(*fids[:-1], (s, k, f + 1e-3)))

    monkeypatch.setattr(cli, "optimize", corrupted)
    argv = ["optimize", "--set", "bb84", "--symmetric", "--economic", "--restarts", "4"]
    assert main(argv) == 3
    assert "self-check failed" in capsys.readouterr().err


def test_nclone_self_check_catches_a_wrong_closed_form(monkeypatch, capsys):
    closed_form = cli.n_clone_fidelity
    monkeypatch.setattr(cli, "n_clone_fidelity", lambda c, phi: closed_form(c, phi) + 1e-6)
    assert main(["nclone", "--n", "3", "--restarts", "20"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["oracle_delta"] > 1e-10 and not doc["passed"]


def test_nclone_out_of_range_exit_2(capsys):
    assert main(["nclone", "--n", "9"]) == 2


def run_cli(argv):
    """Exit code of a CLI call, including argparse's own exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--set", '{"bad":1}'],
        ["optimize", "--set", "pair:0"],
        ["optimize", "--set", "pair:nan"],
        ["optimize", "--set", '{"label": 5, "points": [{"theta": 1.0, "phi": 0.0}]}'],
        ["optimize", "--set", "."],  # a path that exists but is no file
        ["optimize", "--set", "trio", "--restarts", "0"],
        ["optimize", "--set", "trio", "--restarts", "-3"],
        ["optimize", "--set", "trio", "--ancilla-dim", "0"],
        ["optimize", "--set", "trio", "--ancilla-dim", "9"],
        ["nclone", "--n", "2", "--restarts", "0"],
        ["optimize", "--set", "trio", "--seed", "-1"],
        ["nclone", "--n", "2", "--seed", "-1"],
        ["scan", "--resolution", "8", "--budget", "-1"],
        ["scan", "--resolution", "8", "--budget", "nan"],
        ["scan", "--resolution", "8", "--budget", "inf"],
        ["optimize", "--set", '{"points": ' + "[" * 2000 + "]" * 2000 + "}"],
        ["optimize", "--set", '{"label": "x", "points": [{"theta": true, "phi": 0.0}]}'],
        # the random streams fold a seed mod 2^64, so 2^64 would alias 0
        ["optimize", "--set", "trio", "--restarts", "2", "--seed", str(2**64)],
        ["scan", "--resolution", "8", "--seed", str(2**64 + 5)],
    ],
)
def test_malformed_input_exits_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def equator_set_json(count, **extra):
    points = [{"theta": math.pi / 2.0, "phi": k * TWO_PI / count} for k in range(count)]
    return json.dumps({"label": "x", "points": points, **extra})


@pytest.mark.parametrize(
    "spec",
    [
        '{"label": "x", "points": [{"theta": 1, "phi": 2}], "extra": 1}',
        '{"label": "x", "points": [{"theta": 1, "phi": 2, "psi": 0}]}',
        '{"label": "x", "points": [{"theta": 1, "phi": 2}, {"theta": 1, "phi": 2, "": 0}]}',
        equator_set_json(65),
        equator_set_json(200, note="both"),
    ],
    ids=["set-key", "point-key", "empty-point-key", "65-points", "200-points-and-set-key"],
)
def test_sets_the_schema_rejects_exit_2(spec, tmp_path, capsys):
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(json.loads(spec), load_schema("input_set.schema.json"))
    path = tmp_path / "set.json"
    path.write_text(spec)
    for source in (spec, str(path)):
        for argv in (["verify", "--machine", "uqcm", "--set", source], ["optimize", "--set", source]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_sets_at_the_schema_limits_still_verify(capsys):
    # 64 points, the most the schema allows, and a phi of 2 pi, which rounding
    # can make of a phase reduced mod 2 pi, taken as 0
    assert main(["verify", "--machine", "pqcm-economic", "--set", equator_set_json(64)]) == 0
    assert len(json.loads(capsys.readouterr().out)["fidelities"]) == 2 * 64
    spec = json.dumps({"label": "x", "points": [{"theta": math.pi / 2.0, "phi": TWO_PI}]})
    assert main(["verify", "--machine", "pqcm-economic", "--set", spec]) == 0
    assert resolve_set(spec).points[0].phi == 0.0


_OUT_COMMANDS = {
    "verify": ["verify", "--machine", "uqcm", "--set", "trio"],
    "scan": ["scan", "--resolution", "8"],
    "optimize": ["optimize", "--set", "trio", "--restarts", "1"],
    "nclone": ["nclone", "--n", "2", "--restarts", "1"],
}


@pytest.mark.parametrize(
    "target, command",
    [
        (target, command)
        for target in ("missing-directory", "directory", "empty", "manifest-directory")
        for command in _OUT_COMMANDS
    ]
    + [("summary-directory", "scan")],
)
def test_unwritable_out_exits_2(tmp_path, capsys, target, command):
    # refused before the command runs, so nothing reaches stdout; a manifest
    # or scan summary that would overwrite a directory is refused as early as
    # an unwritable --out itself, so the --out file is not created either
    side = {"manifest-directory": ".manifest.json", "summary-directory": ".summary.json"}
    if target in side:
        (tmp_path / ("out" + side[target])).mkdir()
    unwritable = {"missing-directory": tmp_path / "missing" / "out", "directory": tmp_path, "empty": ""}
    out = unwritable.get(target, tmp_path / "out")
    assert main([*_OUT_COMMANDS[command], "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    assert not (tmp_path / "out").exists()


def test_negative_environment_seed_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("CLONEBENCH_SEED", "-3")
    assert main(["optimize", "--set", "trio", "--restarts", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_environment_seed_of_2_to_the_64_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("CLONEBENCH_SEED", str(2**64))
    assert main(["optimize", "--set", "trio", "--restarts", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class _SearchEntered(Exception):
    pass


@pytest.mark.parametrize(
    "argv, search", [(["optimize", "--set", "trio"], "optimize"), (["nclone", "--n", "2"], "optimize_n")]
)
def test_restarts_above_the_cap_exit_2_before_the_search(monkeypatch, capsys, argv, search):
    def enter(*args, **kwargs):
        raise _SearchEntered

    monkeypatch.setattr(cli, search, enter)
    with pytest.raises(_SearchEntered):
        main([*argv, "--restarts", str(cli.MAX_RESTARTS)])
    assert main([*argv, "--restarts", str(cli.MAX_RESTARTS + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


_SET_SPECS = st.one_of(
    st.sampled_from(["trio", ".", "{", "pair:", "pair:360", "equator:", "equator:0"]),
    st.builds("pair:{}".format, st.one_of(st.floats(), st.integers(-400, 400), st.text(max_size=4))),
    st.builds("equator:{}".format, st.one_of(st.integers(-2, 70), st.text(max_size=4))),
    st.builds(
        json.dumps,
        st.dictionaries(
            st.sampled_from(["label", "points", "theta", "phi"]),
            st.one_of(
                st.text(max_size=3),
                st.floats(),
                st.lists(
                    st.dictionaries(
                        st.sampled_from(["theta", "phi"]),
                        st.one_of(st.floats(), st.integers(), st.text(max_size=2)),
                    ),
                    max_size=3,
                ),
            ),
        ),
    ),
    st.text(max_size=8),
)


@settings(deadline=None, max_examples=20)
@given(spec=_SET_SPECS)
def test_optimize_set_fuzz_keeps_the_exit_code_contract(spec):
    assert run_cli(["optimize", f"--set={spec}", "--restarts", "1"]) in (0, 2, 3, 4)


def test_verify_manifest_records_the_seed(tmp_path, capsys):
    out = tmp_path / "verify.json"
    argv = ["verify", "--machine", "uqcm", "--set", "trio", "--seed", "5", "--out", str(out)]
    assert main(argv) == 0
    assert read_json(str(out) + ".manifest.json")["seed"] == 5


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--machine", "uqcm", "--set", "trio"],
        ["scan", "--resolution", "8"],
        ["nclone", "--n", "2"],
    ],
)
def test_format_is_rejected_where_unimplemented(argv, capsys):
    assert run_cli([*argv, "--format", "csv"]) == 2
    assert "--format" in capsys.readouterr().err


def test_manifest_records_the_parsed_command(tmp_path, capsys, monkeypatch):
    out = tmp_path / "verify.json"
    argv = ["verify", "--machine", "uqcm", "--set", "trio", "--out", str(out)]
    assert main(argv) == 0
    manifest = read_json(str(out) + ".manifest.json")
    assert manifest["command"] == " ".join(["clonebench", *argv])
    # with no argv, main parses the process's own arguments
    monkeypatch.setattr(sys, "argv", ["host-program", *argv])
    assert main() == 0
    assert read_json(str(out) + ".manifest.json")["command"] == manifest["command"]
    # quoted, so an inline set is one shell word
    inline = input_set_json(equatorial_trio())
    assert main(["verify", "--machine", "uqcm", "--set", inline, "--out", str(out)]) == 0
    command = read_json(str(out) + ".manifest.json")["command"]
    assert shlex.split(command)[1:] == ["verify", "--machine", "uqcm", "--set", inline, "--out", str(out)]


def test_no_command_imports_scipy():
    # a fresh interpreter, so that only the commands' own imports count
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        import clonebench.cli as cli
        commands = [
            ["verify", "--machine", "uqcm", "--set", "trio"],
            ["optimize", "--set", "trio", "--restarts", "1"],
            ["nclone", "--n", "2", "--restarts", "1"],
            ["scan", "--resolution", "8"],
        ]
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0, argv
            loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
            print(argv[0], loaded, file=sys.stderr)
        """
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [f"{cmd} []" for cmd in ("verify", "optimize", "nclone", "scan")]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--machine", "uqcm", "--set", "trio"],
        ["optimize", "--set", "trio", "--restarts", "2"],
        ["scan", "--resolution", "8"],
        ["nclone", "--n", "2", "--restarts", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_no_command_loads_numpy_random(argv):
    # each command in a fresh interpreter: the starts and the self-check
    # phases come from the package's own counter-based stream
    script = textwrap.dedent(
        f"""
        import contextlib, io, sys
        import clonebench.cli as cli
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main({argv!r}) == 0
        assert "numpy.random" not in sys.modules
        """
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_parser_reuse_keeps_no_state(tmp_path, capsys):
    cli.build_parser.cache_clear()
    plain = ["optimize", "--set", "trio", "--restarts", "1"]
    assert main(plain) == 0
    first = capsys.readouterr().out
    assert cli.build_parser() is cli.build_parser()
    out = tmp_path / "opt.json"
    flagged = ["optimize", "--set", "trio", "--symmetric", "--economic", "--restarts", "1"]
    assert main([*flagged, "--out", str(out)]) == 0
    assert read_json(str(out) + ".manifest.json")["config"]["symmetric"]
    capsys.readouterr()
    assert main([*plain, "--out", str(out)]) == 0
    assert capsys.readouterr().out == first
    assert read_json(str(out) + ".manifest.json")["config"] == {
        "restarts": 1,
        "mode": "max_min",
        "symmetric": False,
        "economic": True,
        "ancilla_dim": 1,
        "copies": 2,
        "seed": 0,
        "set": "trio",
    }


def test_a_replaced_command_takes_effect_after_the_parser_is_built(monkeypatch, capsys):
    argv = ["verify", "--machine", "uqcm", "--set", "trio"]
    assert main(argv) == 0
    calls = []

    def fake(args):
        calls.append(args.machine)
        return 3

    monkeypatch.setattr(cli, "cmd_verify", fake)
    assert main(argv) == 3
    assert calls == ["uqcm"]


_DISPATCH_ARGVS = [
    ["verify", "--machine=uqcm", "--set=trio"],
    ["verify", "--mach", "uqcm", "--set", "trio"],
    ["verify", "--machine", "uqcm", "--set", "trio", "extra", "words"],
    ["verify", "--machine", "uqcm", "--set", "trio", "--", "x"],
    ["verify", "--machine", "uqcm", "--set", "trio", "--format", "csv"],
    ["verify", "--machine", "uqcm", "--set", "trio", "--version"],
    ["--seed", "1", "verify", "--machine", "uqcm", "--set", "trio"],
    [],
    ["-h"],
    ["--version"],
    ["moon"],
    ["verify"],
    ["verify", "-h"],
    ["verify", "--machine", "uqcm", "--set", "trio", "--seed", "abc"],
    ["optimize", "--se", "trio"],
    ["optimize", "--set", "trio", "--symmetric", "--ancilla-dim", "2", "--format", "csv", "--seed", "3"],
    ["scan", "--resolution", "8", "--budget=0.5"],
    ["nclone", "--n", "3", "--restarts", "1", "--mode", "maxmin"],
]


@pytest.mark.parametrize("argv", _DISPATCH_ARGVS, ids=lambda argv: shlex.join(argv) or "empty")
def test_main_parses_as_the_top_level_parser_does(argv, monkeypatch, capsys):
    # main hands the arguments after a command name to that command's parser
    # alone; exit code, output and parsed arguments must be what the one
    # top-level parse gives
    monkeypatch.delenv("CLONEBENCH_SEED", raising=False)
    parser = cli.build_parser()
    try:
        expected = vars(parser.parse_args(argv))
        expected_exit = None
    except SystemExit as exc:
        expected, expected_exit = None, exc.code
    expected_out = capsys.readouterr()

    seen = []
    for name in ("verify", "optimize", "scan", "nclone"):
        monkeypatch.setattr(cli, f"cmd_{name}", lambda args: seen.append(vars(args).copy()) or 0)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert capsys.readouterr() == expected_out
    if expected is None:
        assert code == expected_exit and not seen
    else:
        assert code == 0
        got = seen.pop()
        assert got.pop("argv") == argv
        assert got == {**expected, "seed": 0 if expected["seed"] is None else expected["seed"]}


# SHA-256 of each command's exit code, stdout, stderr and --out files at a
# fixed argv (see `output_digest`); a changed printed or written byte shows here
GOLDEN_DIGESTS = {
    "verify --machine pqcm-economic --set trio":
        "afc2ef770b3c82ec9e9d3026a8416405c7ef7938ee36a60f6df828499c44a3c6",
    "verify --machine pqcm-economic --set tetrahedron":
        "0c34bc67dd773a5a978f166fecc866f00b2a23fea9d5856814fb8aadf5bbddc5",
    "verify --machine pqcm-ancilla --set bb84":
        "41a9d3f844da2eb557340dff3e16bf4d455c79768a7e952fb75fd2ff7a0f8840",
    "verify --machine uqcm --set six-state":
        "4a63124418b90373ac634e5dfe643e470ae80d1d91f4c7d5a6c6b058bfd25e6d",
    'verify --machine uqcm --set \'{"label": "two", "points": [{"theta": 0.3, "phi": 1.0}, {"theta": 2.0, "phi": 6.0}]}\'': (
        "d3498130de675a1f0e35a68a8d1ece74d34d58639542ec62843ee8d2eccf65e0"
    ),
    "verify --machine nclone:1 --set equator:5":
        "0c0aad010fbdee87dfd96e6cb3afe4be098966ee4010f0b4921dfc36b5eb379b",
    "verify --machine nclone:4 --set trio":
        "b8e2ba46c50493b5ba08cf36f2c5b843cf47d4859ef91f4cc875789c5ca419ff",
    "verify --machine nclone:7 --set equator:9":
        "5ac8e73e945bdc0332cdd51370f3f3033a214759f8375dc47871919cb6c4ec74",
    "optimize --set trio --restarts 2":
        "0301d78009d807ebd8a7cc16d75c546834e133164669ca3ede394dcd2251dce3",
    "optimize --set trio --restarts 2 --symmetric --format csv":
        "777c473d67318fee01e142e2c69a93fc009f12a32c88602fb2e6b7eec7fc0ba8",
    "scan --resolution 8":
        "b6ff8462d71401f00bb47a85d090283524af11f7a5fcdfad476beb6e88037c68",
    "nclone --n 3 --restarts 1":
        "c2524af7afc46036e5a903e250aa30313fe8678ac1db70048901f2712c82e711",
}


def output_digest(argv, capsys):
    """SHA-256 of `clonebench <argv> --out out.json` run in the working
    directory: exit code, stdout, stderr, then every file it writes by name,
    each manifest without its wall time."""
    code = main([*shlex.split(argv), "--out", "out.json"])
    captured = capsys.readouterr()
    digest = hashlib.sha256(f"{code}\n{captured.out}\n{captured.err}".encode())
    for path in sorted(Path.cwd().iterdir()):
        text = path.read_text()
        if path.name.endswith(".manifest.json"):
            text = re.sub(r'\n  "wall_time_s": [^\n]*', "", text)
        digest.update(f"\n{path.name}\n{text}".encode())
    return digest.hexdigest()


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11) or not np.__version__.startswith("2.4."),
    reason="the digests were recorded on Python 3.11 with numpy 2.4",
)
@pytest.mark.parametrize("argv", GOLDEN_DIGESTS)
def test_command_output_bytes_are_unchanged(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("CLONEBENCH_SEED", raising=False)
    monkeypatch.chdir(tmp_path)
    assert output_digest(argv, capsys) == GOLDEN_DIGESTS[argv]
