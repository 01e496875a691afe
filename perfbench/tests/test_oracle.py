"""The oracle accepts the program's own outputs and rejects corrupted copies."""

import json
from pathlib import Path

import pytest

from perfbench import oracle

ROOT = Path(__file__).resolve().parents[2]
TWO = ROOT / "scenarios" / "two_equilibria.txt"
UNIT = ROOT / "scenarios" / "unit_payoffs.txt"
cli = pytest.importorskip("wisealice.cli")


def run_cli(capsys, *argv: str) -> str:
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def test_sweep_check_rejects_one_perturbed_value(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    stdout = run_cli(capsys, "sweep", "--scenario", str(TWO), "--theta-a", "10:15",
                     "--theta-b", "65:70", "--step", "5", "--out", str(out))
    inst, thetas_a, thetas_b = oracle.read_scenario(TWO), [10.0, 15.0], [65.0, 70.0]
    assert oracle.check_sweep(stdout, inst, out, thetas_a, thetas_b) == []

    lines = out.read_text().splitlines()
    row = next(i for i, line in enumerate(lines) if i and line.split(",")[3])
    fields = lines[row].split(",")
    fields[3] = f"{float(fields[3]) * (1 + 1e-5):.9g}"
    lines[row] = ",".join(fields)
    out.write_text("\n".join(lines) + "\n")
    assert oracle.check_sweep(stdout, inst, out, thetas_a, thetas_b) != []


def test_transcript_check_rejects_a_missing_row(tmp_path, capsys):
    path = tmp_path / "rounds.csv"
    stdout = run_cli(capsys, "simulate", "--scenario", str(UNIT), "--alpha", "20",
                     "--beta", "75", "--rounds", "400", "--seed", "9",
                     "--transcript", str(path))
    inst = oracle.read_scenario(UNIT)
    assert oracle.check_transcript(stdout, inst, path, 20.0, 75.0, 400) == []

    lines = path.read_text().splitlines()
    del lines[301]
    path.write_text("\n".join(lines) + "\n")
    assert oracle.check_transcript(stdout, inst, path, 20.0, 75.0, 400) != []


def test_analyze_json_check_rejects_a_dropped_equilibrium(capsys):
    stdout = run_cli(capsys, "analyze", "--scenario", str(TWO), "--format", "json")
    inst = oracle.read_scenario(TWO)
    assert oracle.check_analyze_json(stdout, inst, 1) == []

    report = json.loads(stdout)
    report["quantum"] = []
    assert oracle.check_analyze_json(json.dumps(report), inst, 1) != []
    report.update(equilibrium_count=0, status="no_equilibrium")
    assert oracle.check_analyze_json(json.dumps(report), inst, 1) != []
