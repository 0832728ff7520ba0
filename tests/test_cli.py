"""End-to-end tests of the command-line interface (in-process)."""

import json
import math
import os
import shlex
import subprocess
import sys
import textwrap
from dataclasses import replace
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import input_set_json

import clonebench.cli as cli
from clonebench.cli import main, resolve_machine, resolve_set
from clonebench.states import equatorial_trio

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


def test_scan_low_resolution_exit_2(capsys):
    assert main(["scan", "--resolution", "4"]) == 2


def test_nclone_n2(tmp_path, capsys):
    out = tmp_path / "nclone.json"
    code = main(["nclone", "--n", "2", "--restarts", "20", "--out", str(out)])
    assert code == 0
    doc = read_json(out)
    jsonschema.validate(doc, load_schema("nclone_report.schema.json"))
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
    ],
)
def test_malformed_input_exits_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_negative_environment_seed_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("CLONEBENCH_SEED", "-3")
    assert main(["optimize", "--set", "trio", "--restarts", "1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


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
