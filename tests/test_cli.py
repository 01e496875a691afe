import dataclasses
import json
import math
import os

import pytest

from wisealice.cli import MAX_SWEEP_CELLS, main
from wisealice.game import PayoffMatrix
from wisealice.quantum import MeasurementFrame, StrategyAngle
from wisealice.scenario import Scenario, ScenarioError, load_scenario
from wisealice.solver import find_equilibria, reaction_curve, verify_nash_quantum


def write_scenario(tmp_path, text, name="case.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


NO_EQ_TEXT = """\
a = 3
b = 3
c = 5
d = 1
theta_a_deg = 30
theta_b_deg = 40
"""


# --- scenario parsing --------------------------------------------------------

def test_load_bundled_scenario(scenario_dir):
    s = load_scenario(scenario_dir / "two_equilibria.txt")
    assert (s.a, s.b, s.c, s.d) == (3, 3, 5, 1)
    assert (s.theta_a_deg, s.theta_b_deg) == (10, 70)
    assert s.rounds == 1_000_000


def test_scenario_rejects_nonpositive_payoff(tmp_path):
    path = write_scenario(
        tmp_path, "a = 3\nb = 3\nc = 5\nd = 0\ntheta_a_deg = 10\ntheta_b_deg = 70\n"
    )
    with pytest.raises(ScenarioError, match="d"):
        load_scenario(path)


def test_scenario_rejects_unknown_key(tmp_path):
    path = write_scenario(tmp_path, "a = 1\nwat = 2\n")
    with pytest.raises(ScenarioError, match="wat"):
        load_scenario(path)


def test_scenario_reports_line_numbers(tmp_path):
    path = write_scenario(tmp_path, "a = 1\nb == oops\n")
    with pytest.raises(ScenarioError, match=":2:"):
        load_scenario(path)


def test_scenario_rejects_a_line_without_an_equals_sign(tmp_path):
    path = write_scenario(tmp_path, "a = 1\nb 2\n")
    with pytest.raises(ScenarioError) as excinfo:
        load_scenario(path)
    assert str(excinfo.value) == f"{path}:2: expected 'key = value', got 'b 2'"


def test_scenario_requires_all_payoffs(tmp_path):
    path = write_scenario(tmp_path, "a = 1\nb = 1\ntheta_a_deg = 45\n")
    with pytest.raises(ScenarioError, match="missing required"):
        load_scenario(path)


def test_scenario_rejects_scan_resolution(scenario_dir, tmp_path, capsys):
    # the search has no scan step and its tolerance is a solver constant,
    # so both keys are unknown fields
    text = (scenario_dir / "two_equilibria.txt").read_text()
    for key, value in (("scan_resolution_deg", "5"), ("nash_tolerance", "1e-6")):
        path = write_scenario(tmp_path, text + f"{key} = {value}\n")
        with pytest.raises(ScenarioError, match=f"unknown field '{key}'"):
            load_scenario(path)
        assert main(["analyze", "--scenario", str(path)]) == 1
        assert f"unknown field '{key}'" in one_line_error(capsys)


def test_scenario_rejects_a_repeated_key(tmp_path, capsys):
    path = write_scenario(tmp_path, NO_EQ_TEXT + "a = 7\n")
    with pytest.raises(ScenarioError, match=":7: duplicate field 'a'"):
        load_scenario(path)
    assert main(["analyze", "--scenario", str(path)]) == 1
    assert one_line_error(capsys) == f"error: {path}:7: duplicate field 'a'\n"


def test_scenario_that_is_not_utf8_names_its_file(tmp_path, capsys):
    path = tmp_path / "case.txt"
    path.write_bytes(b"a = 3\n\xff = 1\n")
    with pytest.raises(ScenarioError, match="can't decode byte 0xff"):
        load_scenario(path)
    assert main(["analyze", "--scenario", str(path)]) == 1
    assert one_line_error(capsys).startswith(f"error: {path}: 'utf-8' codec can't decode")


def test_scenario_keys_are_the_scenario_fields(tmp_path, capsys):
    # no value is a default, so a field the parser skipped would show
    values = {"a": 1.5, "b": 2.0, "c": 3.0, "d": 4.0, "theta_a_deg": 10.0,
              "theta_b_deg": 70.0, "rounds": 7, "seed": 9}
    assert list(values) == [field.name for field in dataclasses.fields(Scenario)]
    path = write_scenario(tmp_path, "".join(f"{k} = {v}\n" for k, v in values.items()))
    scenario = load_scenario(path)
    assert dataclasses.asdict(scenario) == values
    assert type(scenario.rounds) is int and type(scenario.seed) is int

    path = write_scenario(tmp_path, NO_EQ_TEXT + "rounds = 1.5\n")
    with pytest.raises(ScenarioError, match="field rounds needs an integer"):
        load_scenario(path)
    assert main(["analyze", "--scenario", str(path)]) == 1
    assert "needs an integer" in one_line_error(capsys)


def test_scenario_rejects_out_of_range_frame(tmp_path, capsys):
    path = write_scenario(
        tmp_path, "a = 1\nb = 1\nc = 1\nd = 1\ntheta_a_deg = 95\ntheta_b_deg = 45\n"
    )
    with pytest.raises(ScenarioError, match="theta_a_deg") as info:
        load_scenario(path)
    with pytest.raises(ValueError) as frame_info:
        MeasurementFrame(95.0)
    assert f"theta_a_deg: {frame_info.value}" in str(info.value)
    assert main(["analyze", "--scenario", str(path)]) == 1
    assert "theta_a_deg" in one_line_error(capsys)


# --- analyze / equilibria ----------------------------------------------------

def test_analyze_json_report(scenario_dir, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["analyze", "--scenario", str(scenario_dir / "two_equilibria.txt"),
                 "--format", "json", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert set(report) >= {"scenario", "classical", "quantum",
                           "equilibrium_count", "status"}
    assert report["classical"]["maxmin"] == 0.0
    assert report["classical"]["minmax"] == 1.0
    assert report["classical"]["mixed_value"] == pytest.approx(15 / 28, abs=1e-9)
    assert report["equilibrium_count"] == len(report["quantum"])
    assert report["status"] == "equilibria_found"

    # round-trip: every reported equilibrium re-verifies from the JSON alone
    h = PayoffMatrix(*(report["scenario"][k] for k in "abcd"))
    frames = (MeasurementFrame(report["scenario"]["theta_a_deg"]),
              MeasurementFrame(report["scenario"]["theta_b_deg"]))
    for eq in report["quantum"]:
        residual = verify_nash_quantum(
            h, frames, StrategyAngle(eq["alpha_deg"]), StrategyAngle(eq["beta_deg"])
        )
        assert residual <= 1e-8 * h.scale
        assert math.isclose(residual, eq["residual"], abs_tol=1e-10)


def test_analyze_reports_no_equilibrium_status(tmp_path):
    path = write_scenario(tmp_path, NO_EQ_TEXT)
    out = tmp_path / "report.json"
    code = main(["analyze", "--scenario", str(path), "--format", "json",
                 "--out", str(out)])
    assert code == 0  # absence is a result, not a failure
    report = json.loads(out.read_text())
    assert report["equilibrium_count"] == 0
    assert report["quantum"] == []
    assert report["status"] == "no_equilibrium"


def test_equilibria_text_output(scenario_dir, capsys):
    code = main(["equilibria", "--scenario",
                 str(scenario_dir / "interior_equilibrium.txt")])
    assert code == 0
    output = capsys.readouterr().out
    assert "alpha=140.431231" in output
    assert "value=2.5678" in output


def test_analyze_wide_payoff_ratio_classical_value(tmp_path, capsys):
    # 1 / (1e-9 + 3): a wide payoff ratio must not spoil the classical baseline
    path = write_scenario(
        tmp_path, "a = 1e9\nb = 1\nc = 1\nd = 1\ntheta_a_deg = 10\ntheta_b_deg = 70\n"
    )
    assert main(["analyze", "--scenario", str(path)]) == 0
    assert "  value=0.333333\n" in capsys.readouterr().out


def test_missing_scenario_file_fails(tmp_path, capsys):
    code = main(["analyze", "--scenario", str(tmp_path / "nope.txt")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def one_line_error(capsys) -> str:
    out, err = capsys.readouterr()
    assert out == "", out
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_out_into_missing_directory_is_an_error(scenario_dir, tmp_path, capsys):
    code = main(["equilibria", "--scenario", str(scenario_dir / "two_equilibria.txt"),
                 "--out", str(tmp_path / "missing" / "eq.txt")])
    assert code == 1
    one_line_error(capsys)


@pytest.mark.parametrize("argv, work", [
    (["sweep", "--theta-a", "0.5:89.5", "--theta-b", "0.5:89.5", "--step", "0.5"],
     "find_equilibria_grid"),
    (["curves", "--resolution", "0.0018"], "reaction_curve"),
])
def test_an_unwritable_out_fails_before_the_work(scenario_dir, tmp_path, monkeypatch, argv,
                                                 work, capsys):
    def fail(*args):
        raise AssertionError(f"called {work}")

    monkeypatch.setattr(f"wisealice.solver.{work}", fail)
    code = main(argv + ["--scenario", str(scenario_dir / "two_equilibria.txt"),
                        "--out", str(tmp_path / "missing" / "out.csv")])
    assert code == 1
    assert "No such file or directory" in one_line_error(capsys)


SIMULATE_ARGS = ["simulate", "--alpha", "30", "--beta", "60", "--rounds", "1000"]


@pytest.mark.parametrize("scenario, argv", [
    ("two_equilibria", ["analyze"]),
    ("unit_payoffs", ["analyze", "--format", "json"]),
    ("interior_equilibrium", ["equilibria"]),
    ("unit_payoffs", ["equilibria"]),
    ("two_equilibria", ["equilibria", "--format", "json"]),
    ("unit_payoffs", SIMULATE_ARGS),
    ("unit_payoffs", SIMULATE_ARGS + ["--format", "json"]),
    ("two_equilibria", ["sweep", "--theta-a", "10:30", "--theta-b", "20:70", "--step", "20"]),
    (None, ["lattice-check", "--theta", "30"]),
])
def test_out_writes_the_bytes_stdout_gets(scenario_dir, tmp_path, scenario, argv,
                                          capsysbinary):
    if scenario:
        argv = argv + ["--scenario", str(scenario_dir / f"{scenario}.txt")]
    assert main(argv) == 0
    printed = capsysbinary.readouterr().out
    out = tmp_path / "out.txt"
    assert main(argv + ["--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert out.read_bytes() == printed
    assert printed.endswith(b"\n") and not printed.endswith(b"\n\n")


@pytest.mark.parametrize("argv", [
    ["analyze", "--format", "csv"],
    ["equilibria", "--format", "csv"],
    ["simulate", "--alpha", "0", "--beta", "0", "--format", "csv"],
    ["curves", "--format", "text"],
    ["sweep", "--theta-a", "10:20", "--theta-b", "10:20", "--format", "json"],
    ["analyze", "--resolution", "0.1"],
    ["equilibria", "--resolution", "0.1"],
])
def test_unsupported_options_are_rejected(scenario_dir, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--scenario", str(scenario_dir / "two_equilibria.txt")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err or "invalid choice" in err


def test_infinite_payoff_is_an_error(tmp_path, capsys):
    path = write_scenario(tmp_path, NO_EQ_TEXT.replace("a = 3", "a = inf"))
    assert main(["analyze", "--scenario", str(path)]) == 1
    assert "finite" in one_line_error(capsys)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_angle_is_an_error(scenario_dir, value, capsys):
    # the error names the flag that gave the angle, as lattice-check's --theta does
    for bad, good in (("--alpha", "--beta"), ("--beta", "--alpha")):
        code = main(["simulate", "--scenario", str(scenario_dir / "unit_payoffs.txt"),
                     f"{bad}={value}", good, "0", "--rounds", "10"])
        assert code == 1
        err = one_line_error(capsys)
        assert err.startswith(f"error: {bad}: ") and "finite" in err


@pytest.mark.parametrize("angles", [
    ("--alpha", "-1e-3", "--beta", "0"),
    ("--alpha=-1e-3", "--beta", "0"),
    ("--alpha", "-0.5", "--beta", "0"),
    ("--alpha", "0", "--beta", "-2.5E+1"),
])
def test_a_negative_angle_is_read_as_a_value(scenario_dir, angles, capsys):
    # argparse up to Python 3.13.0 took -1e-3 for an option and exited 2; each
    # spelling must report what its --flag=value spelling, always a value, reports
    argv = ["simulate", "--scenario", str(scenario_dir / "unit_payoffs.txt"), "--rounds", "5"]
    assert main(argv + list(angles)) == 0
    report = capsys.readouterr().out
    joined = " ".join(angles).replace("--alpha ", "--alpha=").replace("--beta ", "--beta=")
    assert main(argv + joined.split()) == 0
    assert report == capsys.readouterr().out


# --- curves ------------------------------------------------------------------

def test_curves_csv_and_svg(scenario_dir, tmp_path, capsys):
    base = tmp_path / "curves"
    code = main(["curves", "--scenario", str(scenario_dir / "unit_payoffs.txt"),
                 "--out", str(base), "--resolution", "0.5"])
    assert code == 0
    lines = (tmp_path / "curves.csv").read_text().splitlines()
    assert lines[0] == "player,input_deg,response_deg,amplitude,degenerate,discontinuity_flag"
    per_curve = math.ceil(180 / 0.5)
    assert len(lines) == 1 + 2 * per_curve
    flagged = [ln for ln in lines[1:] if ln.endswith(",1")]
    assert flagged and all(ln.startswith("alice") for ln in flagged)

    svg = (tmp_path / "curves.svg").read_text()
    assert svg.startswith("<svg")
    assert "alice-jump" in svg       # thin line for the flagged jump
    assert "</svg>" in svg


def test_curves_csv_header_names_the_sample_fields(scenario_dir, tmp_path):
    base = tmp_path / "curves"
    assert main(["curves", "--scenario", str(scenario_dir / "unit_payoffs.txt"),
                 "--out", str(base), "--resolution", "1"]) == 0
    header = (tmp_path / "curves.csv").read_text().splitlines()[0]
    assert header == "player,input_deg,response_deg,amplitude,degenerate,discontinuity_flag"


def test_curves_marks_equilibria(scenario_dir, tmp_path):
    base = tmp_path / "two"
    main(["curves", "--scenario", str(scenario_dir / "two_equilibria.txt"),
          "--out", str(base), "--resolution", "1"])
    svg = (tmp_path / "two.svg").read_text()
    assert '<circle class="eq"' in svg


@pytest.mark.parametrize("out", ["curves_0.25", "curves_0.25.csv", "curves_0.25.svg"])
def test_curves_out_keeps_a_dotted_base_name(scenario_dir, tmp_path, out, capsys):
    # Path.with_suffix would turn curves_0.25 into curves_0.csv
    code = main(["curves", "--scenario", str(scenario_dir / "unit_payoffs.txt"),
                 "--out", str(tmp_path / out), "--resolution", "1"])
    assert code == 0
    base = tmp_path / "curves_0.25"
    assert capsys.readouterr().out == f"wrote {base}.csv and {base}.svg\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["curves_0.25.csv",
                                                          "curves_0.25.svg"]


@pytest.mark.parametrize("resolution", ["nan", "inf", "-inf", "1e-9"])
def test_curves_reject_a_resolution_out_of_range(scenario_dir, tmp_path, resolution,
                                                  capsys):
    # 1e-9 would ask for 1.8e11 samples per curve before any check ran
    base = tmp_path / "curves"
    code = main(["curves", "--scenario", str(scenario_dir / "unit_payoffs.txt"),
                 "--out", str(base), f"--resolution={resolution}"])
    assert code == 1
    assert "resolution" in one_line_error(capsys)
    assert not base.with_suffix(".csv").exists()


def test_curves_with_an_unwritable_svg_leaves_no_csv(scenario_dir, tmp_path, capsys):
    (tmp_path / "c.svg").mkdir()
    code = main(["curves", "--scenario", str(scenario_dir / "unit_payoffs.txt"),
                 "--out", str(tmp_path / "c"), "--resolution", "1"])
    assert code == 1
    assert "Is a directory" in one_line_error(capsys)
    assert [p.name for p in tmp_path.iterdir()] == ["c.svg"]


def test_curves_refuse_a_csv_and_svg_that_are_one_file(scenario_dir, tmp_path, capsys):
    # the CSV was written over the start of the SVG, with exit 0
    (tmp_path / "c.csv").write_text("keep me\n")
    os.link(tmp_path / "c.csv", tmp_path / "c.svg")
    code = main(["curves", "--scenario", str(scenario_dir / "unit_payoffs.txt"),
                 "--out", str(tmp_path / "c"), "--resolution", "45"])
    assert code == 1
    assert "name the same file" in one_line_error(capsys)
    assert {p.name: p.read_text() for p in tmp_path.iterdir()} == {
        "c.csv": "keep me\n", "c.svg": "keep me\n"}


# --- sweep -------------------------------------------------------------------

def test_sweep_rows_deterministic(scenario_dir, tmp_path):
    args = ["sweep", "--scenario", str(scenario_dir / "two_equilibria.txt"),
            "--theta-a", "10:30", "--theta-b", "20:70", "--step", "20"]
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "theta_a,theta_b,equilibrium_count,best_value_for_alice"
    assert len(lines) == 1 + 2 * 3
    by_thetas = {tuple(ln.split(",")[:2]): ln.split(",")[2:] for ln in lines[1:]}
    count, best = by_thetas[("10", "20")]
    assert count == "1"
    assert float(best) == pytest.approx(2.676841, abs=1e-5)
    count, best = by_thetas[("30", "40")]
    assert count == "0"
    assert best == ""


def test_sweep_rejects_empty_range(scenario_dir, capsys):
    # two bounds round onto 90 and 0 as the grid's angles do; x is no number
    for flag, theta_a, theta_b in (("--theta-a", "50:10", "20:30"),
                                   ("--theta-a", "89.99999999999:89.99999999999", "20:30"),
                                   ("--theta-b", "10:20", "1e-300:1e-300"),
                                   ("--theta-a", "x:5", "20:30")):
        code = main(["sweep", "--scenario", str(scenario_dir / "two_equilibria.txt"),
                     "--theta-a", theta_a, "--theta-b", theta_b])
        assert code == 1
        error = one_line_error(capsys)
        assert flag in error
        assert (theta_a if flag == "--theta-a" else theta_b) in error


def test_sweep_rejects_a_step_that_rounds_two_angles_to_one(scenario_dir, tmp_path, capsys):
    # the 101 angles 10 + k * 1e-11 are 11 distinct ones at 10 decimals
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--scenario", str(scenario_dir / "two_equilibria.txt"),
                 "--theta-a", "10:10.000000001", "--theta-b", "20:20", "--step", "1e-11",
                 "--out", str(out)])
    assert code == 1
    assert "--step" in one_line_error(capsys)
    assert not out.exists()


def test_sweep_labels_name_each_cell(scenario_dir, tmp_path):
    # 6 significant digits printed all 11 cells as 10,20
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenario", str(scenario_dir / "two_equilibria.txt"),
                 "--theta-a", "10:10.00001", "--theta-b", "20:20", "--step", "1e-6",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [float(row[0]) for row in rows] == [round(10 + k * 1e-6, 10) for k in range(11)]
    assert [row[1] for row in rows] == ["20"] * 11


@pytest.mark.parametrize("step", ["nan", "inf"])
def test_sweep_rejects_a_non_finite_step(scenario_dir, tmp_path, step, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--scenario", str(scenario_dir / "two_equilibria.txt"),
                 "--theta-a", "10:30", "--theta-b", "20:70", "--step", step,
                 "--out", str(out)])
    assert code == 1
    assert "finite" in one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("step", ["1e-300", "1e-6"])
def test_sweep_rejects_a_grid_above_the_cell_cap(scenario_dir, tmp_path, step, capsys):
    # 5 + k * 1e-300 == 5: listing the axis first would never end
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--scenario", str(scenario_dir / "two_equilibria.txt"),
                 "--theta-a", "5:85", "--theta-b", "5:85", "--step", step,
                 "--out", str(out)])
    assert code == 1
    assert str(MAX_SWEEP_CELLS) in one_line_error(capsys)
    assert not out.exists()


def test_sweep_solves_a_grid_at_the_cell_cap_and_refuses_one_above(scenario_dir, tmp_path,
                                                                   monkeypatch, capsys):
    monkeypatch.setattr("wisealice.cli.MAX_SWEEP_CELLS", 12)
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--scenario", str(scenario_dir / "two_equilibria.txt"),
            "--theta-b", "10:25", "--step", "5", "--out", str(out)]
    assert main(argv + ["--theta-a", "10:20"]) == 0   # 3 x 4 cells
    assert len(out.read_text().splitlines()) == 1 + 12
    out.unlink()
    assert main(argv + ["--theta-a", "10:25"]) == 1   # 4 x 4 cells
    assert "more than 12" in one_line_error(capsys)
    assert not out.exists()


# --- simulate ----------------------------------------------------------------

def test_simulate_byte_identical_reports(scenario_dir, tmp_path):
    args = ["simulate", "--scenario", str(scenario_dir / "unit_payoffs.txt"),
            "--alpha", "0", "--beta", "0", "--rounds", "20000", "--seed", "11"]
    out1, out2 = tmp_path / "r1.txt", tmp_path / "r2.txt"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_simulate_single_round_flags_undefined_se(scenario_dir, tmp_path):
    out = tmp_path / "one.json"
    code = main(["simulate", "--scenario", str(scenario_dir / "unit_payoffs.txt"),
                 "--alpha", "10", "--beta", "20", "--rounds", "1",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["std_error"] is None
    assert report["std_error_defined"] is False


def test_simulate_transcript_export(scenario_dir, tmp_path):
    transcript = tmp_path / "t.csv"
    code = main(["simulate", "--scenario", str(scenario_dir / "unit_payoffs.txt"),
                 "--alpha", "0", "--beta", "0", "--rounds", "10",
                 "--transcript", str(transcript)])
    assert code == 0
    lines = transcript.read_text().splitlines()
    assert lines[0] == "round,pair,alice_outcome,bob_outcome,payoff"
    assert len(lines) == 1 + 20


def test_simulate_opens_its_transcript_before_drawing(scenario_dir, tmp_path, no_draws,
                                                       capsys):
    code = main(["simulate", "--scenario", str(scenario_dir / "unit_payoffs.txt"),
                 "--alpha", "0", "--beta", "0", "--rounds", "20000000",
                 "--transcript", str(tmp_path / "missing" / "t.csv")])
    assert code == 1
    assert "No such file or directory" in one_line_error(capsys)


def test_simulate_with_an_unwritable_out_writes_no_transcript(scenario_dir, tmp_path,
                                                              no_draws, capsys):
    transcript = tmp_path / "t.csv"
    code = main(["simulate", "--scenario", str(scenario_dir / "unit_payoffs.txt"),
                 "--alpha", "0", "--beta", "0", "--rounds", "300000",
                 "--transcript", str(transcript),
                 "--out", str(tmp_path / "missing" / "o.txt")])
    assert code == 1
    assert "No such file or directory" in one_line_error(capsys)
    assert not transcript.exists()


def test_simulate_with_an_unwritable_transcript_leaves_no_out(scenario_dir, tmp_path,
                                                             capsys):
    out = tmp_path / "o.txt"
    code = main(["simulate", "--scenario", str(scenario_dir / "unit_payoffs.txt"),
                 "--alpha", "0", "--beta", "0", "--rounds", "10", "--out", str(out),
                 "--transcript", str(tmp_path / "missing" / "t.csv")])
    assert code == 1
    assert "No such file or directory" in one_line_error(capsys)
    assert list(tmp_path.iterdir()) == []


def test_simulate_that_fails_while_writing_leaves_no_file(scenario_dir, tmp_path,
                                                          monkeypatch, capsys):
    def writer(payoffs, fh):
        def fail(rounds, codes):
            fh.write("round,pair\n")
            raise OSError("disk full")
        return fail

    monkeypatch.setattr("wisealice.simulate._transcript_writer", writer)
    code = main(["simulate", "--scenario", str(scenario_dir / "unit_payoffs.txt"),
                 "--alpha", "0", "--beta", "0", "--rounds", "10",
                 "--out", str(tmp_path / "o.txt"), "--transcript", str(tmp_path / "t.csv")])
    assert code == 1
    assert "disk full" in one_line_error(capsys)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out, transcript", [("o.txt", "{tmp}/o.txt"), ("{tmp}/o.txt", "./o.txt")],
                         ids=["relative-absolute", "absolute-relative"])
def test_simulate_rejects_one_file_for_out_and_transcript(scenario_dir, tmp_path, monkeypatch,
                                                          out, transcript, no_draws, capsys):
    # two handles on one file left the report and the tail of the transcript
    monkeypatch.chdir(tmp_path)
    code = main(["simulate", "--scenario", str(scenario_dir / "unit_payoffs.txt"),
                 "--alpha", "0", "--beta", "0", "--rounds", "5",
                 "--out", out.format(tmp=tmp_path),
                 "--transcript", transcript.format(tmp=tmp_path)])
    assert code == 1
    assert "name the same file" in one_line_error(capsys)
    assert list(tmp_path.iterdir()) == []


def test_simulate_rejects_an_out_and_transcript_hard_linked(scenario_dir, tmp_path, no_draws,
                                                            capsys):
    # the two names passed the name comparison: the report ended in the
    # transcript's last bytes, with exit 0
    (tmp_path / "a").write_text("keep me\n")
    os.link(tmp_path / "a", tmp_path / "b")
    code = main(["simulate", "--scenario", str(scenario_dir / "two_equilibria.txt"),
                 "--alpha", "10", "--beta", "20", "--rounds", "3", "--seed", "1",
                 "--out", str(tmp_path / "a"), "--transcript", str(tmp_path / "b")])
    assert code == 1
    assert "name the same file" in one_line_error(capsys)
    assert (tmp_path / "a").read_text() == "keep me\n"


def test_simulate_rejects_a_transcript_linked_to_its_out(scenario_dir, tmp_path, no_draws,
                                                         capsys):
    # a dangling symlink: opening it creates the file --out names
    os.symlink(tmp_path / "o.txt", tmp_path / "t.csv")
    code = main(["simulate", "--scenario", str(scenario_dir / "unit_payoffs.txt"),
                 "--alpha", "0", "--beta", "0", "--rounds", "5",
                 "--out", str(tmp_path / "o.txt"), "--transcript", str(tmp_path / "t.csv")])
    assert code == 1
    assert "name the same file" in one_line_error(capsys)
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


@pytest.mark.parametrize("out, transcript", [("o.txt", "nodir/../o.txt"),
                                             ("nodir/../o.txt", "o.txt")],
                         ids=["out-first", "transcript-first"])
def test_simulate_through_a_missing_directory_is_no_same_file(scenario_dir, tmp_path,
                                                              monkeypatch, out, transcript,
                                                              capsys):
    # realpath folds nodir/.. away, so the pair was refused as one file,
    # although opening nodir/../o.txt fails while nodir is missing
    monkeypatch.chdir(tmp_path)
    code = main(["simulate", "--scenario", str(scenario_dir / "unit_payoffs.txt"),
                 "--alpha", "0", "--beta", "0", "--rounds", "5",
                 "--out", out, "--transcript", transcript])
    assert code == 1
    assert one_line_error(capsys) == (
        "error: [Errno 2] No such file or directory: 'nodir/../o.txt'\n")
    assert list(tmp_path.iterdir()) == []


def test_dev_null_takes_both_out_and_transcript(scenario_dir, capsys):
    # a device takes any number of streams
    assert main(["simulate", "--scenario", str(scenario_dir / "unit_payoffs.txt"),
                 "--alpha", "0", "--beta", "0", "--rounds", "5",
                 "--out", os.devnull, "--transcript", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv", [
    ["analyze", "--scenario", "{scenarios}/two_equilibria.txt", "--out", ""],
    ["equilibria", "--scenario", "{scenarios}/two_equilibria.txt", "--out", ""],
    ["curves", "--scenario", "{scenarios}/two_equilibria.txt", "--out", ""],
    ["sweep", "--scenario", "{scenarios}/two_equilibria.txt", "--theta-a", "5:85",
     "--theta-b", "5:85", "--out", ""],
    ["simulate", "--scenario", "{scenarios}/unit_payoffs.txt", "--alpha", "0", "--beta", "0",
     "--rounds", "10", "--out", ""],
    ["simulate", "--scenario", "{scenarios}/unit_payoffs.txt", "--alpha", "0", "--beta", "0",
     "--rounds", "10", "--transcript", ""],
    ["lattice-check", "--theta", "45", "--out", ""],
], ids=["analyze", "equilibria", "curves", "sweep", "simulate-out", "simulate-transcript",
        "lattice-check"])
def test_an_empty_path_is_an_error(scenario_dir, tmp_path, monkeypatch, argv, capsys):
    # an empty --out fell back to stdout, curves' to ./curves.*, and an
    # empty --transcript wrote none, all with exit 0
    monkeypatch.chdir(tmp_path)
    argv = [arg.format(scenarios=scenario_dir) for arg in argv]
    assert main(argv) == 1
    flag = argv[argv.index("") - 1]
    assert one_line_error(capsys) == f"error: {flag} must name a file, got an empty path\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key, value", [
    ("seed", -1), ("seed", 2**64), ("seed", 2**64 + 3), ("rounds", 2**62 + 1),
])
def test_simulate_rejects_what_the_stream_cannot_draw(scenario_dir, tmp_path, key, value,
                                                      no_draws, capsys):
    # a seed reduced mod 2**64 made --seed 18446744073709551619 replay --seed 3
    argv = ["simulate", "--alpha", "10", "--beta", "20"]
    assert main(argv + ["--scenario", str(scenario_dir / "unit_payoffs.txt"),
                        f"--{key}", str(value)]) == 1
    assert one_line_error(capsys).startswith(f"error: {key} must lie in")
    path = write_scenario(tmp_path, NO_EQ_TEXT + f"{key} = {value}\n")
    assert main(argv + ["--scenario", str(path)]) == 1
    assert one_line_error(capsys).startswith(f"error: {path}: {key} must lie in")


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_simulate_accepts_both_ends_of_the_seed_range(scenario_dir, seed):
    assert main(["simulate", "--scenario", str(scenario_dir / "unit_payoffs.txt"),
                 "--alpha", "10", "--beta", "20", "--rounds", "10",
                 "--seed", str(seed)]) == 0


# --- lattice-check -----------------------------------------------------------

def test_lattice_check_passes_at_45(capsys):
    code = main(["lattice-check", "--theta", "45"])
    assert code == 0
    output = capsys.readouterr().out
    assert "distributivity violated" in output
    assert output.count("0.5") >= 6
    assert "isomorphic" in output


def test_lattice_check_rejects_out_of_range_theta(capsys):
    for theta in ("95", "nan"):
        assert main(["lattice-check", "--theta", theta]) == 1
        assert "--theta" in one_line_error(capsys)


@pytest.mark.parametrize("theta", ["1e-10", "89.9999999999"])
def test_lattice_check_accepts_and_prints_every_frame_near_the_ends(capsys, theta):
    assert main(["lattice-check", "--theta", theta]) == 0
    assert capsys.readouterr().out.endswith(
        f"plane realization at theta={theta}: isomorphic\n")


@pytest.mark.parametrize("name", ["two_equilibria", "interior_equilibrium",
                                  "no_equilibrium", "unit_payoffs", "line_two_equilibria"])
def test_curve_jump_flags_agree_with_reaction_curve(scenario_dir, tmp_path, name):
    base = tmp_path / name
    assert main(["curves", "--scenario", str(scenario_dir / f"{name}.txt"),
                 "--out", str(base), "--resolution", "0.5"]) == 0
    rows = [ln.split(",") for ln in (tmp_path / f"{name}.csv").read_text().splitlines()[1:]]
    scenario = load_scenario(scenario_dir / f"{name}.txt")
    svg = (tmp_path / f"{name}.svg").read_text()
    for player in ("alice", "bob"):
        curve = reaction_curve(player, scenario.payoff_matrix(), scenario.frames(), 0.5)
        flags = [int(r[5]) for r in rows if r[0] == player]
        assert [i for i, flag in enumerate(flags) if flag] == list(curve.jumps)
        assert svg.count(f'class="{player}-jump"') == len(curve.discontinuities)


def test_shipped_scenario_equilibrium_counts(scenario_dir):
    counts = {"two_equilibria": 1, "interior_equilibrium": 1,
              "no_equilibrium": 1, "unit_payoffs": 0, "line_two_equilibria": 2}
    for name, count in counts.items():
        scenario = load_scenario(scenario_dir / f"{name}.txt")
        assert len(find_equilibria(scenario.payoff_matrix(), scenario.frames())) == count
