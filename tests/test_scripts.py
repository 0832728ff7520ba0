"""Smoke tests of the experiment scripts under scripts/."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_run_determining_sets_writes_one_row_per_set(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("sets", SCRIPTS / "run_determining_sets.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "sets.json"
    script.main(["--restarts", "2", "--out", str(out)])
    doc = json.loads(out.read_text())
    assert [row["set"] for row in doc["results"]] == ["trio", "bb84", "tetrahedron", "six-state"]
    assert "wrote" in capsys.readouterr().out
