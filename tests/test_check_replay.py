"""The energy-regression gate (``scripts/check_replay.py``) rejects a
golden whose energies no longer match a fresh replay."""

import importlib.util
import json
from pathlib import Path

SCRIPT = (
    Path(__file__).resolve().parent.parent / "scripts" / "check_replay.py"
)


def load_gate():
    spec = importlib.util.spec_from_file_location("check_replay", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perturbed_golden_fails_the_gate(tmp_path, monkeypatch, capsys):
    gate = load_gate()
    golden = json.loads(gate.GOLDEN_PATH.read_text())
    cells = golden["scenarios"]["quickstart"]["cells"]
    cells[sorted(cells)[0]]["cpu_energy_j"] *= 1.10
    perturbed = tmp_path / "replay_golden.json"
    perturbed.write_text(json.dumps(golden))
    monkeypatch.setattr(gate, "GOLDEN_PATH", perturbed)
    assert gate.main(["--only", "quickstart"]) != 0
    assert "cpu_energy_j drifted" in capsys.readouterr().out


def test_stored_result_is_current_in_lineage(tmp_path, capsys):
    # A result the gate stores is written by this code: lineage lists
    # it as current, and finds no stale entry.
    from repro.cli import main

    gate = load_gate()
    spec, result = gate.run_scenario(
        gate.SCENARIO_DIR / "quickstart.toml", workers=1)
    gate.store_result(tmp_path / "store", spec, result)
    stores = ["--result-dir", str(tmp_path / "store"),
              "--cache-dir", str(tmp_path / "nocache")]
    capsys.readouterr()
    assert main(["cache", "lineage", *stores]) == 0
    rows = capsys.readouterr().out.splitlines()[3:]
    assert [row.split()[-3] for row in rows] == ["current"]
    assert main(["cache", "lineage", "--stale", *stores]) == 0
    assert capsys.readouterr().out.strip() == "(no stale entries)"
