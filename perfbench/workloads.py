"""The three workloads: inputs drawn from the seed, argv lists and checks.

Each workload is a list of ``Command``s.  ``argv`` follows ``wisealice`` on
the command line and names paths relative to the repository root.  The
program sees only those files and flags; the check reads the command's
stdout and output files and returns a list of problems (see oracle.py).

This module does not import numpy: the process that times the commands
stays small, because a child's peak RSS includes its parent's at exec.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("sweep", "transcript", "cli-quick")

ROUNDS = 1_000_000              # cli-quick's vectorized simulate
# transcript: about 3.3 s a pass, so a run takes the median of about eight
# passes; one 1e6-round pass (~28 s) was a single sample per run and too noisy
TRANSCRIPT_ROUNDS = 100_000
SWEEP_THETAS = [5.0 + 2.5 * k for k in range(33)]      # 5:85 step 2.5, 1089 cells
CURVES_RESOLUTION = 0.25
# verified equilibrium counts of the shipped scenarios; the red acceptance
# tests encode different reference counts on purpose
SHIPPED_COUNTS = {
    "two_equilibria": 1,
    "interior_equilibrium": 1,
    "no_equilibrium": 1,
    "unit_payoffs": 0,
}


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]                 # files the command writes
    check: Callable[[str], list[str]]        # stdout -> problems


def _check(function: str, scenario: Path | None, *args) -> Callable[[str], list[str]]:
    """oracle.<function>(stdout, instance, *args), importing the oracle when run."""
    def check(stdout: str) -> list[str]:
        from perfbench import oracle

        inst = oracle.read_scenario(scenario) if scenario else None
        return getattr(oracle, function)(stdout, inst, *args)
    return check


def work_dir(root: Path, name: str) -> Path:
    """Where a workload's inputs and outputs go."""
    return root / "perfbench" / "work" / name


def build(name: str, seed: int, root: Path, work: Path) -> list[Command]:
    """The commands of one workload; the same seed gives the same inputs."""
    rng = random.Random(f"{name}:{seed}")
    return {"sweep": _sweep, "transcript": _transcript, "cli-quick": _cli_quick}[name](
        rng, root, work)


def _rel(root: Path, path: Path) -> str:
    return str(path.relative_to(root))


def _angle(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _sweep(rng: random.Random, root: Path, work: Path) -> list[Command]:
    a, b, c, d = (round(rng.uniform(0.5, 5.0), 6) for _ in range(4))
    scenario = work / "sweep.txt"
    scenario.write_text(f"a = {a}\nb = {b}\nc = {c}\nd = {d}\n"
                        "theta_a_deg = 45\ntheta_b_deg = 45\n")
    out = work / "sweep.csv"
    span = f"{SWEEP_THETAS[0]:g}:{SWEEP_THETAS[-1]:g}"
    argv = ("sweep", "--scenario", _rel(root, scenario), "--theta-a", span,
            "--theta-b", span, "--step", "2.5", "--out", _rel(root, out))
    return [Command("sweep", argv, (_rel(root, out),),
                    _check("check_sweep", scenario, out, SWEEP_THETAS, SWEEP_THETAS))]


def _simulate(label: str, rng: random.Random, root: Path, scenario: str,
              transcript: Path | None, rounds: int) -> Command:
    alpha, beta = _angle(rng, 0.0, 180.0), _angle(rng, 0.0, 180.0)
    seed = rng.randrange(1, 2**31)
    argv = ("simulate", "--scenario", scenario, "--alpha", f"{alpha}", "--beta", f"{beta}",
            "--rounds", str(rounds), "--seed", str(seed))
    if transcript is None:
        return Command(label, argv, (),
                       _check("check_simulate", root / scenario, alpha, beta, rounds))
    return Command(label, argv + ("--transcript", _rel(root, transcript)),
                   (_rel(root, transcript),),
                   _check("check_transcript", root / scenario, transcript, alpha, beta, rounds))


def _transcript(rng: random.Random, root: Path, work: Path) -> list[Command]:
    return [_simulate("transcript", rng, root, "scenarios/unit_payoffs.txt",
                      work / "transcript.csv", TRANSCRIPT_ROUNDS)]


def _cli_quick(rng: random.Random, root: Path, work: Path) -> list[Command]:
    def analyze(label: str, name: str, fmt: str) -> Command:
        path = f"scenarios/{name}.txt"
        check = "check_analyze_json" if fmt == "json" else "check_analyze_text"
        return Command(label, ("analyze", "--scenario", path, "--format", fmt), (),
                       _check(check, root / path, SHIPPED_COUNTS[name]))

    path = "scenarios/interior_equilibrium.txt"
    equilibria = Command(
        "equilibria-interior", ("equilibria", "--scenario", path), (),
        _check("check_equilibria_text", root / path, SHIPPED_COUNTS["interior_equilibrium"]))

    # the CLI prints the paths as given, so they stay relative to the root
    path = "scenarios/unit_payoffs.txt"
    base = Path(_rel(root, work / "curves"))
    csv_path, svg_path = base.with_suffix(".csv"), base.with_suffix(".svg")
    curves = Command(
        "curves-unit",
        ("curves", "--scenario", path, "--out", str(base), "--resolution", f"{CURVES_RESOLUTION}"),
        (str(csv_path), str(svg_path)),
        _check("check_curves", root / path, csv_path, svg_path, CURVES_RESOLUTION,
               SHIPPED_COUNTS["unit_payoffs"]))

    simulate = _simulate("simulate", rng, root, "scenarios/two_equilibria.txt", None, ROUNDS)

    theta = _angle(rng, 1.0, 89.0)
    lattice = Command("lattice-check", ("lattice-check", "--theta", f"{theta}"), (),
                      _check("check_lattice", None, theta))

    return [
        analyze("analyze-two-text", "two_equilibria", "text"),
        analyze("analyze-two-json", "two_equilibria", "json"),
        equilibria,
        analyze("analyze-unit", "unit_payoffs", "text"),
        analyze("analyze-no-equilibrium", "no_equilibrium", "text"),
        curves,
        simulate,
        lattice,
    ]
