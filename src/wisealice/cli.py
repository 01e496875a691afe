"""Command-line front end: analyze, equilibria, curves, sweep, simulate, lattice-check."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import os
import sys
from pathlib import Path

# set before numpy loads: an idle OpenBLAS pool spins a core for the whole process
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from wisealice.classical import solve_zero_sum
from wisealice.game import pure_saddle_analysis
from wisealice.lattice import (
    PlaneSubspaceRep,
    check_representation,
    disjunction_paradox,
    find_distributivity_violation,
    join,
    meet,
    ortholattice_law_report,
    wise_alice_lattice,
)
from wisealice.quantum import StrategyAngle
from wisealice.scenario import Scenario, ScenarioError, load_scenario
from wisealice.simulate import SimulationConfig, simulate, write_transcript
from wisealice.solver import (
    Equilibrium,
    find_equilibria,
    find_equilibria_grid,
    reaction_curve,
)
from wisealice.svg import render_curves_svg


# Largest frame grid `sweep` will solve.  A cell costs about 70 us and
# 0.6 KiB (measured up to 285,156 cells on a 2-vCPU host), so the cap
# holds one sweep near 70 s and 0.6 GiB.  `curves` caps its samples per
# curve at the same number (1e5 per curve took 1.5 s and 92 MiB there).
MAX_SWEEP_CELLS = 1_000_000
# decimals `sweep` rounds its frame angles to
_AXIS_DIGITS = 10


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _fmt_angle(value: float) -> str:
    return f"{value:.6f}".rstrip("0").rstrip(".")


def _equilibrium_dict(eq: Equilibrium) -> dict:
    return {
        "alpha_deg": eq.alpha.degrees,
        "beta_deg": eq.beta.degrees,
        "value": eq.value,
        "p": list(eq.weights_a.as_tuple()),
        "q": list(eq.weights_b.as_tuple()),
        "residual": eq.residual,
    }


def _quantum_report(equilibria: list[Equilibrium]) -> dict:
    return {
        "quantum": [_equilibrium_dict(eq) for eq in equilibria],
        "equilibrium_count": len(equilibria),
        "status": "equilibria_found" if equilibria else "no_equilibrium",
    }


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def cmd_analyze(args: argparse.Namespace) -> int:
    scenario = _load(args)
    h = scenario.payoff_matrix()
    pure = pure_saddle_analysis(h)
    mixed = solve_zero_sum(h)
    equilibria = find_equilibria(h, scenario.frames())

    report = {
        "scenario": dataclasses.asdict(scenario),
        "classical": {
            "maxmin": pure.maxmin,
            "minmax": pure.minmax,
            "saddle_exists": pure.saddle_exists,
            "mixed_value": mixed.value,
            "x": list(mixed.x),
            "y": list(mixed.y),
        },
        **_quantum_report(equilibria),
    }
    if args.format == "json":
        _write_or_print(json.dumps(report, indent=2) + "\n", args.out)
        return 0

    lines = [
        f"payoffs: a={_fmt(h.a)} b={_fmt(h.b)} c={_fmt(h.c)} d={_fmt(h.d)}",
        f"frames: theta_a={_fmt_angle(scenario.theta_a_deg)} "
        f"theta_b={_fmt_angle(scenario.theta_b_deg)}",
        "",
        "classical (pure):",
        f"  maxmin={_fmt(pure.maxmin)} minmax={_fmt(pure.minmax)} "
        f"saddle={'yes' if pure.saddle_exists else 'no'}",
        "classical (mixed):",
        f"  value={_fmt(mixed.value)}",
        f"  x=({', '.join(_fmt(v) for v in mixed.x)})",
        f"  y=({', '.join(_fmt(v) for v in mixed.y)})",
        "",
        f"quantum equilibria: {len(equilibria)}"
        + ("" if equilibria else "  (no equilibrium)"),
    ]
    for i, eq in enumerate(equilibria, 1):
        lines += [
            f"  [{i}] alpha={_fmt_angle(eq.alpha.degrees)} "
            f"beta={_fmt_angle(eq.beta.degrees)} value={_fmt(eq.value)}",
            f"      p=({', '.join(_fmt(v) for v in eq.weights_a.as_tuple())})",
            f"      q=({', '.join(_fmt(v) for v in eq.weights_b.as_tuple())})",
            f"      residual={eq.residual:.3e}",
        ]
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def cmd_equilibria(args: argparse.Namespace) -> int:
    scenario = _load(args)
    equilibria = find_equilibria(scenario.payoff_matrix(), scenario.frames())
    if args.format == "json":
        report = {"scenario": dataclasses.asdict(scenario),
                  **_quantum_report(equilibria)}
        _write_or_print(json.dumps(report, indent=2) + "\n", args.out)
        return 0
    if not equilibria:
        _write_or_print("no equilibrium\n", args.out)
        return 0
    lines = []
    for eq in equilibria:
        lines.append(
            f"alpha={_fmt_angle(eq.alpha.degrees)} beta={_fmt_angle(eq.beta.degrees)} "
            f"value={_fmt(eq.value)} residual={eq.residual:.3e}"
        )
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def cmd_curves(args: argparse.Namespace) -> int:
    scenario = _load(args)
    h = scenario.payoff_matrix()
    frames = scenario.frames()
    if args.resolution > 0 and 180.0 / args.resolution > MAX_SWEEP_CELLS:
        raise ScenarioError(
            f"--resolution {args.resolution} gives too many curve samples "
            f"({180.0 / args.resolution:.4g}); at most {MAX_SWEEP_CELLS} are allowed"
        )
    alice = reaction_curve("alice", h, frames, args.resolution)
    bob = reaction_curve("bob", h, frames, args.resolution)
    equilibria = find_equilibria(h, frames)

    base = Path(args.out) if args.out else Path("curves")
    if base.suffix in (".csv", ".svg"):
        base = base.with_suffix("")
    csv_path = base.with_suffix(".csv")
    svg_path = base.with_suffix(".svg")

    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["player", "input_deg", "response_deg", "amplitude",
             "degenerate", "discontinuity_flag"]
        )
        for curve in (alice, bob):
            for i, s in enumerate(curve.samples):
                writer.writerow(
                    [curve.player, f"{s.input_deg:.6f}", f"{s.response_deg:.6f}",
                     f"{s.amplitude:.6g}", int(s.degenerate), int(i in curve.jumps)]
                )

    title = (
        f"a={_fmt(h.a)} b={_fmt(h.b)} c={_fmt(h.c)} d={_fmt(h.d)}, "
        f"theta_a={_fmt_angle(scenario.theta_a_deg)}, "
        f"theta_b={_fmt_angle(scenario.theta_b_deg)}"
    )
    svg_path.write_text(render_curves_svg(alice, bob, equilibria, title))
    print(f"wrote {csv_path} and {svg_path}")
    return 0


def _parse_range(spec: str, name: str) -> tuple[float, float]:
    parts = spec.split(":")
    if len(parts) != 2:
        raise ScenarioError(f"{name} must look like LO:HI, got {spec!r}")
    try:
        # rounded as the axis values are, so every cell lies strictly inside (0, 90)
        lo, hi = (round(float(part), _AXIS_DIGITS) for part in parts)
    except ValueError:
        raise ScenarioError(f"{name} must look like LO:HI with two numbers, "
                            f"got {spec!r}") from None
    if not (0.0 < lo <= hi < 90.0):
        raise ScenarioError(f"{name} must satisfy 0 < LO <= HI < 90 after rounding "
                            f"to {_AXIS_DIGITS} decimals, got {spec!r}")
    return lo, hi


def _axis_length(lo: float, hi: float, step: float) -> int | float:
    """How many of lo, lo + step, lo + 2*step, ... are <= hi + 1e-12.

    The quotient gives the count to within a few steps, and the test
    itself settles it, so no list is built.  A count above the cell cap
    comes back as the uncorrected float.
    """
    top = hi + 1e-12
    estimate = (top - lo) / step
    if estimate >= MAX_SWEEP_CELLS:
        return estimate + 1
    k = int(estimate)
    while lo + (k + 1) * step <= top:
        k += 1
    while k > 0 and lo + k * step > top:
        k -= 1
    return k + 1


def cmd_sweep(args: argparse.Namespace) -> int:
    scenario = _load(args)
    h = scenario.payoff_matrix()
    lo_a, hi_a = _parse_range(args.theta_a, "--theta-a")
    lo_b, hi_b = _parse_range(args.theta_b, "--theta-b")
    step = args.step
    if not (math.isfinite(step) and step > 0):
        raise ScenarioError(f"--step must be positive and finite, got {step}")

    n_a, n_b = _axis_length(lo_a, hi_a, step), _axis_length(lo_b, hi_b, step)
    if n_a * n_b > MAX_SWEEP_CELLS:
        raise ScenarioError(
            f"--step {step} gives too many grid cells ({n_a * n_b:.4g}); "
            f"at most {MAX_SWEEP_CELLS} are allowed"
        )
    thetas_a = [round(lo_a + k * step, _AXIS_DIGITS) for k in range(n_a)]
    thetas_b = [round(lo_b + k * step, _AXIS_DIGITS) for k in range(n_b)]
    if len(set(thetas_a)) < n_a or len(set(thetas_b)) < n_b:
        raise ScenarioError(f"--step {step} rounds two grid angles to one at "
                            f"{_AXIS_DIGITS} decimals")
    cells = find_equilibria_grid(h, thetas_a, thetas_b)
    lines = ["theta_a,theta_b,equilibrium_count,best_value_for_alice"]
    for (ta, tb), eqs in zip(itertools.product(thetas_a, thetas_b), cells):
        best_txt = f"{max(eq.value for eq in eqs):.9g}" if eqs else ""
        # 12 significant digits print every 10-decimal angle below 90 exactly
        lines.append(f"{ta:.12g},{tb:.12g},{len(eqs)},{best_txt}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _load(args)
    config = SimulationConfig(
        rounds=scenario.rounds,
        seed=scenario.seed,
        payoffs=scenario.payoff_matrix(),
        frame_a=scenario.frames()[0],
        frame_b=scenario.frames()[1],
        alpha=StrategyAngle(args.alpha),
        beta=StrategyAngle(args.beta),
    )
    result = simulate(config)
    if args.transcript:
        with open(args.transcript, "w", newline="") as fh:
            write_transcript(config, fh)

    z = result.z_score()
    lines = [
        f"rounds: {result.rounds}",
        f"empirical mean: {_fmt(result.mean)}",
        f"std error: {'undefined (single round)' if result.std_error is None else _fmt(result.std_error)}",
        f"analytic value: {_fmt(result.analytic_value)}",
        f"z-score: {'undefined' if z is None else _fmt(z)}",
    ]
    if args.format == "json":
        _write_or_print(
            json.dumps(
                {
                    "rounds": result.rounds,
                    "mean": result.mean,
                    "std_error": result.std_error,
                    "analytic_value": result.analytic_value,
                    "z_score": z,
                    "std_error_defined": result.std_error is not None,
                },
                indent=2,
            )
            + "\n",
            args.out,
        )
        return 0
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def cmd_lattice_check(args: argparse.Namespace) -> int:
    theta = args.theta
    if not 0.0 < theta < 90.0:
        print(f"error: theta must lie strictly inside (0, 90), got {theta}",
              file=sys.stderr)
        return 1
    lattice = wise_alice_lattice()
    report = ortholattice_law_report(lattice)
    lines = ["ortholattice laws:"]
    for law, ok in report.items():
        lines.append(f"  {law}: {'pass' if ok else 'FAIL'}")

    witness = find_distributivity_violation(lattice)
    if witness:
        x, y, z = witness
        left = meet(lattice, x, join(lattice, y, z))
        right = join(lattice, meet(lattice, x, y), meet(lattice, x, z))
        lines.append(
            f"distributivity violated at (x, y, z) = ({x}, {y}, {z}): "
            f"x^(yvz) = {left} but (x^y)v(x^z) = {right}"
        )
    else:
        lines.append("distributivity holds (no witness)")

    paradox = disjunction_paradox(lattice)
    lines.append("disjunction paradox (uniform weights 1/4):")
    lines.append("  pair  weight_sum  join")
    for entry in paradox.entries:
        lines.append(
            f"  {entry.pair[0]},{entry.pair[1]}   {entry.weight_sum:.6g}       "
            f"{entry.join_element}"
        )
    lines.append(
        "additive measure "
        + ("consistent" if paradox.additivity_holds() else
           "impossible: sure events carry total weight below 1")
    )

    rep = PlaneSubspaceRep(theta)
    ok = check_representation(lattice, rep)
    lines.append(
        f"plane realization at theta={_fmt_angle(theta)}: "
        + ("isomorphic" if ok else "NOT isomorphic")
    )
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0 if all(report.values()) and ok else 1


def _load(args: argparse.Namespace) -> Scenario:
    return load_scenario(args.scenario).with_overrides(
        seed=getattr(args, "seed", None), rounds=getattr(args, "rounds", None)
    )


def _add_common(
    parser: argparse.ArgumentParser, scenario: bool = True, formats: bool = False
) -> None:
    if scenario:
        parser.add_argument("--scenario", required=True, help="scenario file path")
    parser.add_argument("--out", help="write output to this path instead of stdout")
    if formats:
        parser.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wisealice",
        description="Analyze the Wise Alice guessing game: classical baseline, "
        "quantum equilibria, reaction curves, and Monte Carlo checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full classical + quantum report")
    _add_common(p, formats=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("equilibria", help="verified quantum equilibria only")
    _add_common(p, formats=True)
    p.set_defaults(func=cmd_equilibria)

    p = sub.add_parser("curves", help="sample reaction curves to CSV and SVG")
    _add_common(p)
    p.add_argument("--resolution", type=float, default=0.5,
                   help="curve sampling step (deg)")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("sweep", help="equilibrium count over a frame-angle grid")
    _add_common(p)
    p.add_argument("--theta-a", required=True, help="range LO:HI in degrees")
    p.add_argument("--theta-b", required=True, help="range LO:HI in degrees")
    p.add_argument("--step", type=float, default=5.0, help="grid step in degrees")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", help="Monte Carlo estimate at a strategy pair")
    _add_common(p, formats=True)
    p.add_argument("--alpha", type=float, required=True, help="Alice's angle (deg)")
    p.add_argument("--beta", type=float, required=True, help="Bob's angle (deg)")
    p.add_argument("--rounds", type=int, help="override round count")
    p.add_argument("--seed", type=int, help="override the seed")
    p.add_argument("--transcript", help="also write a per-round CSV transcript here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("lattice-check", help="verify the question logic and its realization")
    _add_common(p, scenario=False)
    p.add_argument("--theta", type=float, required=True,
                   help="angle between the line pairs (deg)")
    p.set_defaults(func=cmd_lattice_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
