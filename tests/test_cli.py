import json
import math

import pytest

from wisealice.cli import MAX_SWEEP_CELLS, main
from wisealice.game import PayoffMatrix
from wisealice.quantum import MeasurementFrame, StrategyAngle
from wisealice.scenario import ScenarioError, load_scenario
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


def test_scenario_requires_all_payoffs(tmp_path):
    path = write_scenario(tmp_path, "a = 1\nb = 1\ntheta_a_deg = 45\n")
    with pytest.raises(ScenarioError, match="missing required"):
        load_scenario(path)


def test_scenario_rejects_scan_resolution(scenario_dir, tmp_path, capsys):
    # the search has no scan step, so the key is an unknown field
    text = (scenario_dir / "two_equilibria.txt").read_text()
    path = write_scenario(tmp_path, text + "scan_resolution_deg = 5\n")
    with pytest.raises(ScenarioError, match="unknown field 'scan_resolution_deg'"):
        load_scenario(path)
    assert main(["analyze", "--scenario", str(path)]) == 1
    assert "unknown field" in one_line_error(capsys)


def test_scenario_rejects_out_of_range_frame(tmp_path):
    path = write_scenario(
        tmp_path, "a = 1\nb = 1\nc = 1\nd = 1\ntheta_a_deg = 95\ntheta_b_deg = 45\n"
    )
    with pytest.raises(ScenarioError, match="theta_a_deg"):
        load_scenario(path)


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
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_out_into_missing_directory_is_an_error(scenario_dir, tmp_path, capsys):
    code = main(["equilibria", "--scenario", str(scenario_dir / "two_equilibria.txt"),
                 "--out", str(tmp_path / "missing" / "eq.txt")])
    assert code == 1
    one_line_error(capsys)


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


@pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
def test_non_finite_angle_is_an_error(scenario_dir, alpha, capsys):
    code = main(["simulate", "--scenario", str(scenario_dir / "unit_payoffs.txt"),
                 f"--alpha={alpha}", "--beta", "0", "--rounds", "10"])
    assert code == 1
    assert "finite" in one_line_error(capsys)


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


def test_curves_marks_equilibria(scenario_dir, tmp_path):
    base = tmp_path / "two"
    main(["curves", "--scenario", str(scenario_dir / "two_equilibria.txt"),
          "--out", str(base), "--resolution", "1"])
    svg = (tmp_path / "two.svg").read_text()
    assert '<circle class="eq"' in svg


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
    code = main(["sweep", "--scenario", str(scenario_dir / "two_equilibria.txt"),
                 "--theta-a", "50:10", "--theta-b", "20:30"])
    assert code == 1


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


# --- lattice-check -----------------------------------------------------------

def test_lattice_check_passes_at_45(capsys):
    code = main(["lattice-check", "--theta", "45"])
    assert code == 0
    output = capsys.readouterr().out
    assert "distributivity violated" in output
    assert output.count("0.5") >= 6
    assert "isomorphic" in output


def test_lattice_check_rejects_out_of_range_theta(capsys):
    code = main(["lattice-check", "--theta", "95"])
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["two_equilibria", "interior_equilibrium",
                                  "no_equilibrium", "unit_payoffs"])
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
              "no_equilibrium": 1, "unit_payoffs": 0}
    for name, count in counts.items():
        scenario = load_scenario(scenario_dir / f"{name}.txt")
        assert len(find_equilibria(scenario.payoff_matrix(), scenario.frames())) == count
