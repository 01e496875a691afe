"""Command-line front end: analyze, equilibria, curves, sweep, simulate, lattice-check."""

from __future__ import annotations

import argparse
import bisect
import contextlib
import dataclasses
import importlib.util
import itertools
import json
import math
import os
import re
import stat
import sys
import types
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn, TextIO, TypeVar

import wisealice

# set before numpy loads: an idle OpenBLAS pool spins a core for the whole process
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def _register(layer: str) -> types.ModuleType:
    """The layer's module, in sys.modules and on the package, run on first use.

    A LazyLoader module executes its code at its first attribute access, so a
    command runs only the layers it touches (lattice-check loads no numpy),
    while everything that walks sys.modules still finds every layer.
    """
    name = f"wisealice.{layer}"
    if name not in sys.modules:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(wisealice, layer, module)
    return sys.modules[name]


classical, game, lattice, quantum, scenario, simulate, solver, svg = map(_register, (
    "classical", "game", "lattice", "quantum", "scenario", "simulate", "solver", "svg"))


# Largest frame grid `sweep` will solve.  A cell that is solved costs about
# 6 us and 0.2 KiB (1,000,000 cells of payoffs 0.1, 10, 10, 0.1, 983,871 of
# them solved, took 5.4-7.0 s and 158 MiB peak RSS on a 2-vCPU host); a cell
# whose two indifference points lie inside the circle is not solved, at about
# 0.01 us of solver time.  So the cap holds one sweep near 7 s and below
# 0.2 GiB whatever the payoffs.
# `curves` caps its samples per curve at the same number (1e5 per curve took
# 0.9 s and 61 MiB peak RSS there, the cap 9.0 s and 330 MiB).
MAX_SWEEP_CELLS = 1_000_000
# decimals `sweep` rounds its frame angles to
_AXIS_DIGITS = 10


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _fmt_angle(value: float) -> str:
    return f"{value:.6f}".rstrip("0").rstrip(".")


def _fmt_payoffs(h: game.PayoffMatrix) -> str:
    return f"a={_fmt(h.a)} b={_fmt(h.b)} c={_fmt(h.c)} d={_fmt(h.d)}"


@contextlib.contextmanager
def _created(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """path opened for writing, and removed again if the body raises.

    So a command that fails after opening it, for instance on its next
    output path, leaves no empty or partial file.  Only a regular file is
    removed, never a device such as /dev/null.
    """
    with open(path, "w", newline=newline) as fh:
        try:
            yield fh
        except BaseException:
            fh.close()
            if os.path.isfile(path):
                os.remove(path)
            raise


@contextlib.contextmanager
def _output(path: str | Path | None) -> Iterator[Callable[[Iterable[str]], None]]:
    """Yield a function that streams lines, each ending in a newline, to path or stdout.

    The file is opened on entry, so a command enters once its arguments are
    checked and before its work: an unwritable path, or a closed stdout,
    fails before any work, and a failure inside removes the file (_created).
    Lines are written as they are drawn, so a generator is never held whole.
    """
    if not path and sys.stdout is None:
        raise OSError("stdout is closed")
    with _created(path) if path else contextlib.nullcontext(sys.stdout) as fh:
        yield lambda lines: fh.writelines(f"{line}\n" for line in lines)


def _same_file(path: str | Path, other: str | Path | None) -> bool:
    """Whether writing path puts a second handle on other's file, or with
    other None on the file stdout writes to.

    Two existing names collide when they reach one regular file or FIFO, a
    hard link as much as one name; a device such as /dev/null or a
    terminal takes any number of streams, so it never counts.  A path that
    does not exist yet is reached only by its own real path, so it
    collides with another path, a dangling symlink included, when their
    real paths match and the directory of each name exists.  A closed
    stdout, or one with no descriptor, is no file and never counts.
    """
    try:
        mine, theirs = os.stat(path), os.stat(other if other is not None else sys.stdout.fileno())
    except (AttributeError, OSError, ValueError):   # a name not there yet, or no stdout file
        # realpath folds nodir/.. away even where nodir is missing and open() would fail
        return (other is not None
                and all(os.path.isdir(os.path.dirname(p) or os.curdir) for p in (path, other))
                and os.path.realpath(path) == os.path.realpath(other))
    return ((stat.S_ISREG(mine.st_mode) or stat.S_ISFIFO(mine.st_mode))
            and os.path.samestat(mine, theirs))


def _formatted(args: argparse.Namespace, report: dict, lines: list[str]) -> list[str]:
    """The report as indented JSON, or the text lines, as --format asks."""
    return [json.dumps(report, indent=2)] if args.format == "json" else lines


def _equilibrium_dict(eq: solver.Equilibrium) -> dict:
    return {
        "alpha_deg": eq.alpha.degrees,
        "beta_deg": eq.beta.degrees,
        "value": eq.value,
        "p": list(eq.weights_a.as_tuple()),
        "q": list(eq.weights_b.as_tuple()),
        "residual": eq.residual,
    }


def _quantum_report(equilibria: list[solver.Equilibrium]) -> dict:
    return {
        "quantum": [_equilibrium_dict(eq) for eq in equilibria],
        "equilibrium_count": len(equilibria),
        "status": "equilibria_found" if equilibria else "no_equilibrium",
    }


def cmd_analyze(args: argparse.Namespace) -> int:
    sc = scenario.load_scenario(args.scenario)
    with _output(args.out) as write:
        h = sc.payoff_matrix()
        pure = game.pure_saddle_analysis(h)
        mixed = classical.solve_zero_sum(h)
        equilibria = solver.find_equilibria(h, sc.frames())
        report = {
            "scenario": dataclasses.asdict(sc),
            "classical": {
                **pure._asdict(),
                "mixed_value": mixed.value,
                "x": list(mixed.x),
                "y": list(mixed.y),
            },
            **_quantum_report(equilibria),
        }
        lines = [
            f"payoffs: {_fmt_payoffs(h)}",
            f"frames: theta_a={_fmt_angle(sc.theta_a_deg)} "
            f"theta_b={_fmt_angle(sc.theta_b_deg)}",
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
        write(_formatted(args, report, lines))
    return 0


def cmd_equilibria(args: argparse.Namespace) -> int:
    sc = scenario.load_scenario(args.scenario)
    with _output(args.out) as write:
        equilibria = solver.find_equilibria(sc.payoff_matrix(), sc.frames())
        report = {"scenario": dataclasses.asdict(sc), **_quantum_report(equilibria)}
        lines = [f"alpha={_fmt_angle(eq.alpha.degrees)} beta={_fmt_angle(eq.beta.degrees)} "
                 f"value={_fmt(eq.value)} residual={eq.residual:.3e}" for eq in equilibria]
        write(_formatted(args, report, lines or ["no equilibrium"]))
    return 0


def cmd_curves(args: argparse.Namespace) -> int:
    sc = scenario.load_scenario(args.scenario)
    resolution = args.resolution
    if not (math.isfinite(resolution) and resolution > 0
            and 180.0 / resolution <= MAX_SWEEP_CELLS):
        raise scenario.ScenarioError(
            f"--resolution must be positive and finite and give at most "
            f"{MAX_SWEEP_CELLS} samples per curve, got {resolution}")

    # a dotted base such as curves_0.25 keeps its dot: only .csv or .svg is cut
    base = args.out or "curves"
    if base.endswith((".csv", ".svg")):
        base = base[:-4]
    csv_path, svg_path = Path(base + ".csv"), Path(base + ".svg")
    # checked before stdout is entered or a file opened, so a refusal truncates nothing
    for path, other in ((csv_path, None), (svg_path, None), (svg_path, csv_path)):
        if _same_file(path, other):
            raise scenario.ScenarioError(f"--out's {other} and {path} name the same file" if other
                                         else f"--out names the file stdout writes to: {path}")

    h, frames = sc.payoff_matrix(), sc.frames()
    # stdout is entered first, so a closed stdout fails before any file is written
    with _output(None) as say:
        with _output(csv_path) as write, _created(svg_path) as svg_file:
            alice = solver.reaction_curve("alice", h, frames, resolution)
            bob = solver.reaction_curve("bob", h, frames, resolution)
            write(["player,input_deg,response_deg,amplitude,degenerate,discontinuity_flag"])
            for curve in (alice, bob):
                jumps = set(curve.jumps.tolist())
                write(f"{curve.player},{t:.6f},{r:.6f},{a:.6g},{g:d},{i in jumps:d}"
                      for i, (t, r, a, g) in enumerate(zip(
                          curve.input_deg.tolist(), curve.response_deg.tolist(),
                          curve.amplitude.tolist(), curve.degenerate.tolist())))
            title = (f"{_fmt_payoffs(h)}, theta_a={_fmt_angle(sc.theta_a_deg)}, "
                     f"theta_b={_fmt_angle(sc.theta_b_deg)}")
            svg_file.write(svg.render_curves_svg(alice, bob, solver.find_equilibria(h, frames),
                                                 title))
        say([f"wrote {csv_path} and {svg_path}"])
    return 0


def _parse_range(spec: str, name: str) -> tuple[float, float]:
    parts = spec.split(":")
    if len(parts) != 2:
        raise scenario.ScenarioError(f"{name} must look like LO:HI, got {spec!r}")
    try:
        # rounded as the axis values are, so every cell lies strictly inside (0, 90)
        lo, hi = (round(float(part), _AXIS_DIGITS) for part in parts)
    except ValueError:
        raise scenario.ScenarioError(f"{name} must look like LO:HI with two numbers, "
                                     f"got {spec!r}") from None
    if not (0.0 < lo <= hi < 90.0):
        raise scenario.ScenarioError(f"{name} must satisfy 0 < LO <= HI < 90 after rounding "
                                     f"to {_AXIS_DIGITS} decimals, got {spec!r}")
    return lo, hi


def cmd_sweep(args: argparse.Namespace) -> int:
    sc = scenario.load_scenario(args.scenario)
    h = sc.payoff_matrix()
    lo_a, hi_a = _parse_range(args.theta_a, "--theta-a")
    lo_b, hi_b = _parse_range(args.theta_b, "--theta-b")
    step = args.step
    if not (math.isfinite(step) and step > 0):
        raise scenario.ScenarioError(f"--step must be positive and finite, got {step}")

    # an axis is lo + k * step for each k with lo + k * step <= hi + 1e-12; that key never
    # falls as k grows, so bisection counts by the test itself, stopping one past the cap
    n_a, n_b = (bisect.bisect_right(range(MAX_SWEEP_CELLS + 1), hi + 1e-12,
                                    key=lambda k: lo + k * step)
                for lo, hi in ((lo_a, hi_a), (lo_b, hi_b)))
    if n_a * n_b > MAX_SWEEP_CELLS:
        raise scenario.ScenarioError(f"--step {step} gives more than {MAX_SWEEP_CELLS} grid cells")
    thetas_a = [round(lo_a + k * step, _AXIS_DIGITS) for k in range(n_a)]
    thetas_b = [round(lo_b + k * step, _AXIS_DIGITS) for k in range(n_b)]
    if len(set(thetas_a)) < n_a or len(set(thetas_b)) < n_b:
        raise scenario.ScenarioError(f"--step {step} rounds two grid angles to one at "
                                     f"{_AXIS_DIGITS} decimals")
    with _output(args.out) as write:
        cell, _, _, value, _ = solver.find_equilibria_grid(h, thetas_a, thetas_b)
        count, best = [0] * (n_a * n_b), [-math.inf] * (n_a * n_b)
        for i, v in zip(cell.tolist(), value.tolist()):
            count[i], best[i] = count[i] + 1, max(best[i], v)
        write(["theta_a,theta_b,equilibrium_count,best_value_for_alice"])
        # 12 significant digits print every 10-decimal angle below 90 exactly
        write(f"{ta:.12g},{tb:.12g},{n}," + (f"{v:.9g}" if n else "")
              for (ta, tb), n, v in zip(itertools.product(thetas_a, thetas_b), count, best))
    return 0


T = TypeVar("T")


def _flagged(flag: str, make: Callable[[float], T], value: float) -> T:
    """make(value), its ValueError prefixed with the flag that gave the value."""
    try:
        return make(value)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def cmd_simulate(args: argparse.Namespace) -> int:
    # replace re-runs Scenario's checks on the overridden fields
    sc = dataclasses.replace(scenario.load_scenario(args.scenario), **{
        k: v for k in ("rounds", "seed") if (v := getattr(args, k)) is not None})
    frame_a, frame_b = sc.frames()
    config = simulate.SimulationConfig(
        rounds=sc.rounds,
        seed=sc.seed,
        payoffs=sc.payoff_matrix(),
        frame_a=frame_a,
        frame_b=frame_b,
        alpha=_flagged("--alpha", quantum.StrategyAngle, args.alpha),
        beta=_flagged("--beta", quantum.StrategyAngle, args.beta),
    )
    # two handles on one file would interleave the report and the transcript
    if args.transcript and _same_file(args.transcript, args.out):
        raise scenario.ScenarioError(
            f"--out and --transcript name the same file: {args.out}" if args.out else
            f"--transcript names the file stdout writes to: {args.transcript}")
    # --out first: an unwritable --out must not leave a transcript behind
    with _output(args.out) as write, (_created(args.transcript, newline="")
                                      if args.transcript else contextlib.nullcontext()) as fh:
        result = simulate.simulate(config, fh)
        if fh:
            fh.flush()   # a transcript that cannot be written fails before the report
        z = result.z_score()
        report = {**dataclasses.asdict(result), "z_score": z,
                  "std_error_defined": result.std_error is not None}
        write(_formatted(args, report, [
            f"rounds: {result.rounds}",
            f"empirical mean: {_fmt(result.mean)}",
            f"std error: {'undefined (single round)' if result.std_error is None else _fmt(result.std_error)}",
            f"analytic value: {_fmt(result.analytic_value)}",
            f"z-score: {'undefined' if z is None else _fmt(z)}",
        ]))
    return 0


def cmd_lattice_check(args: argparse.Namespace) -> int:
    rep = _flagged("--theta", lattice.PlaneSubspaceRep, args.theta)
    with _output(args.out) as write:
        logic = lattice.wise_alice_lattice()
        report = lattice.ortholattice_law_report(logic)
        lines = ["ortholattice laws:"]
        for law, ok in report.items():
            lines.append(f"  {law}: {'pass' if ok else 'FAIL'}")

        witness = lattice.find_distributivity_violation(logic)
        if witness:
            x, y, z = witness
            left = lattice.meet(logic, x, lattice.join(logic, y, z))
            right = lattice.join(logic, lattice.meet(logic, x, y), lattice.meet(logic, x, z))
            lines.append(
                f"distributivity violated at (x, y, z) = ({x}, {y}, {z}): "
                f"x^(yvz) = {left} but (x^y)v(x^z) = {right}"
            )
        else:
            lines.append("distributivity holds (no witness)")

        paradox = lattice.disjunction_paradox(logic)
        lines.append(f"disjunction paradox (uniform weights 1/{len(logic.atoms())}):")
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

        ok = lattice.check_representation(logic, rep)
        lines.append(
            f"plane realization at theta={rep.theta_deg:.12g}: "
            + ("isomorphic" if ok else "NOT isomorphic")
        )
        write(lines)
    return 0 if all(report.values()) and ok else 1


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

    # argparse up to Python 3.13.0 takes a value such as -1e-3 for an option:
    # here a minus sign before a digit, or before a dot and a digit, starts a number
    number = re.compile(r"-\.?\d")
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = number
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("out", "transcript"):
            if getattr(args, flag, None) == "":
                raise ValueError(f"--{flag} must name a file, got an empty path")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> NoReturn:
    """The `wisealice` process: main() on sys.argv, then os._exit with its code.

    os._exit skips the interpreter's teardown (module cleanup, the final
    collections, atexit handlers): 15-20 ms of every command on a 2-vCPU
    host.  Each file a command opens is closed before main returns, so only
    stdout and stderr can still hold bytes: they are flushed first, and a
    flush that fails is one error line and exit code 1.  argparse's
    SystemExit (a usage error, --help) ends the process the usual way.
    """
    code = main()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError as exc:
        code = 1
        with contextlib.suppress(OSError):
            print(f"error: {exc}", file=sys.stderr, flush=True)
    os._exit(code)


if __name__ == "__main__":
    run()
