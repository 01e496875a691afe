"""Write the regression corpus: the outputs a solver change may move.

    PYTHONPATH=src python tests/sweep_corpus.py OUTDIR

runs wisealice.cli.main in this process and writes into OUTDIR

- 162 sweep CSVs, 933,606 cells, each with its scenario file: for seeds
  sweep:1 to sweep:40, payoffs drawn as perfbench/workloads.py draws its
  sweep scenario, for seeds wide:1 to wide:10, payoffs e^U(-8,8), where
  the solver is weakest, and log_1 to log_4, four payoff sets given by
  value, all written with every digit (tests/corpus_judge.py checks every
  count of them against the count rule);
  each at frames 5:85 step 2.5, at 0.5:89.5 step 1 and at
  1e-10:89.0000000001 step 1;
- for each shipped scenario, analyze and equilibria as text and as JSON,
  curves (CSV and SVG) at resolutions of 0.25, 0.05 and 89 degrees, the
  last two in NAME_curves_0.05.* and NAME_curves_89.*, and simulate as text
  and as JSON at one fixed strategy pair, seed and round count; the first
  scenario's simulate also writes its per-round transcript, at 1,000,001
  rounds so that it prints 6- and 7-digit round numbers.  The two finer
  resolutions pin the flags at two samplings; the three samples of the 89
  degree curves pin the SVG's short runs, where a flag follows a one-sample
  run or falls on the last sample;
- lattice-check at theta = 0.5, 1.0, ..., 89.5 degrees, 179 reports.

Point PYTHONPATH at another checkout's src to write its corpus with the same
script, then compare the two with ``diff -r``; ``tests/corpus_diff.py REV``
does both runs and the comparison for a git revision.  It fails when it
finds no shipped scenario, since the two corpora would then agree without
comparing them.  Not a test module: pytest does not collect it.  It takes
about 8 s on a 2-vCPU host.
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

from wisealice.cli import main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
# payoff draws by name: the seeds and the draw of one payoff from a seeded rng
DRAWS = {
    # the draw of perfbench/workloads.py's sweep workload
    "sweep": (range(1, 41), lambda rng: round(rng.uniform(0.5, 5.0), 6)),
    "wide": (range(1, 11), lambda rng: math.exp(rng.uniform(-8.0, 8.0))),
}
# payoff sets by value, NAME_1 on: those of four HARD_CELLS in
# test_solver.py, where at theta_A near 0 Alice's indifference point lies
# far out and Bob's just outside the circle, and only Bob's walk finds the point
PAYOFFS = {"log": [
    (543.9021940783261, 761.2609365921613, 0.0007821976556284133, 0.0011090019607127035),
    (0.0038722985117020936, 0.004672387049629906, 104.57774034685723, 126.77707608693012),
    (2762.41618151469, 151.4916231220772, 0.007947893804427, 0.0007321029461244316),
    (1961.1002393293338, 512.7349247788168, 0.0004950960694321023, 0.0005227797092291814),
]}
# edge: frames 1e-10 degrees from 0, the smallest start that sweep's
# 10-decimal grid keeps, then 1 degree apart
GRIDS = {"coarse": ("5:85", "2.5"), "fine": ("0.5:89.5", "1"),
         "edge": ("1e-10:89.0000000001", "1")}
# simulate's strategy pair and seed for every shipped scenario, with the round
# counts of its reports and of the one transcript
SIMULATE = ("--alpha", "30", "--beta", "60", "--seed", "7")
REPORT_ROUNDS, TRANSCRIPT_ROUNDS = "20000", "1000001"


def run(*argv: str) -> None:
    code = main(list(argv))
    if code != 0:
        raise SystemExit(f"wisealice {' '.join(argv)} exited with {code}")


def write_sweep(out: Path, stem: str, payoffs) -> None:
    a, b, c, d = payoffs
    # repr keeps every digit of a payoff near e^-8
    scenario = out / f"{stem}.txt"
    scenario.write_text(f"a = {a!r}\nb = {b!r}\nc = {c!r}\nd = {d!r}\n"
                        "theta_a_deg = 45\ntheta_b_deg = 45\n")
    for name, (span, step) in GRIDS.items():
        run("sweep", "--scenario", str(scenario), "--theta-a", span, "--theta-b",
            span, "--step", step, "--out", str(out / f"{stem}_{name}.csv"))


def write_sweeps(out: Path) -> None:
    for draw_name, (seeds, draw) in DRAWS.items():
        for seed in seeds:
            rng = random.Random(f"{draw_name}:{seed}")
            write_sweep(out, f"{draw_name}_{seed}", [draw(rng) for _ in range(4)])
    for name, sets in PAYOFFS.items():
        for n, payoffs in enumerate(sets, 1):
            write_sweep(out, f"{name}_{n}", payoffs)


def write_shipped(out: Path) -> None:
    scenarios = sorted(SCENARIO_DIR.glob("*.txt"))
    if not scenarios:
        raise SystemExit(f"no shipped scenario in {SCENARIO_DIR}")
    for scenario in scenarios:
        for command in ("analyze", "equilibria", "simulate"):
            extra = (*SIMULATE, "--rounds", REPORT_ROUNDS) if command == "simulate" else ()
            for fmt in ("text", "json"):
                run(command, "--scenario", str(scenario), *extra, "--format", fmt,
                    "--out", str(out / f"{scenario.stem}_{command}.{fmt}"))
        for resolution, suffix in (("0.25", ""), ("0.05", "_0.05"), ("89", "_89")):
            run("curves", "--scenario", str(scenario), "--resolution", resolution,
                "--out", str(out / f"{scenario.stem}_curves{suffix}"))
    run("simulate", "--scenario", str(scenarios[0]), *SIMULATE, "--rounds", TRANSCRIPT_ROUNDS,
        "--transcript", str(out / f"{scenarios[0].stem}_transcript.csv"),
        "--out", str(out / f"{scenarios[0].stem}_transcript_simulate.txt"))


def write_lattice(out: Path) -> None:
    for half_degrees in range(1, 180):
        theta = str(half_degrees / 2)
        run("lattice-check", "--theta", theta, "--out", str(out / f"lattice_{theta}.txt"))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    write_shipped(out)   # first: it fails at once when no scenario is found
    write_sweeps(out)
    write_lattice(out)
