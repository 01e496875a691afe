"""Output checks built on the paper's formula for F, independent of the solver.

Nothing here imports wisealice.  F(alpha, beta) is evaluated straight from
its definition.  With one angle held fixed, F is exactly
K + U cos 2x + V sin 2x in the other angle x, so the optimum over the whole
circle follows from three samples (x = 0, 45, 90 degrees).  Scanning the
held angle on a grid then bounds the circle game's maxmin from below and its
minmax from above, and a verified equilibrium value must lie between them.

Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# |z| of a Monte Carlo mean against the analytic F; P(|z| > 5) is below 1e-6
Z_BOUND = 5.0
# tolerances relative to a+b+c+d: text reports print 6 significant digits,
# the sweep CSV 9, JSON reports all of them
TEXT_TOL = 1e-5
SWEEP_TOL = 1e-7
JSON_TOL = 1e-8
# the held angle is scanned at GRID_STEP_DEG, then twice more around the
# best point so far, each time REFINE times finer; the bounds then sit
# within ~1e-11 of the truth even where the best response turns steeply
GRID_STEP_DEG = 0.05
REFINE = 100
# a no-equilibrium instance must show at least this maxmin/minmax gap
NO_EQUILIBRIUM_GAP = 1e-3
# at most this many problems are listed per output
MAX_LISTED = 5


@dataclass(frozen=True)
class Instance:
    a: float
    b: float
    c: float
    d: float
    theta_a: float
    theta_b: float

    @property
    def scale(self) -> float:
        return self.a + self.b + self.c + self.d

    @property
    def classical_value(self) -> float:
        """Value of the 4x4 classical game, 1/(1/a + 1/b + 1/c + 1/d)."""
        return 1.0 / (1.0 / self.a + 1.0 / self.b + 1.0 / self.c + 1.0 / self.d)


def read_scenario(path: str | Path) -> Instance:
    """The payoffs and frame angles of a scenario file."""
    values: dict[str, float] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            values[key.strip()] = float(value)
    return Instance(values["a"], values["b"], values["c"], values["d"],
                    values["theta_a_deg"], values["theta_b_deg"])


def payoff(a, b, c, d, theta_a, theta_b, alpha, beta):
    """F(alpha, beta) from its definition; degrees, numpy broadcasting."""
    al, be = np.radians(alpha), np.radians(beta)
    ta, tb = np.radians(theta_a), np.radians(theta_b)
    return (
        a * np.cos(al) ** 2 * np.sin(be) ** 2
        + c * np.sin(al) ** 2 * np.cos(be) ** 2
        + b * np.cos(al - ta) ** 2 * np.sin(be - tb) ** 2
        + d * np.sin(al - ta) ** 2 * np.cos(be - tb) ** 2
    )


def _sinusoid_range(f0, f45, f90):
    """(min, max) over x of K + U cos 2x + V sin 2x, from x = 0, 45, 90."""
    k = (f0 + f90) / 2.0
    r = np.hypot((f0 - f90) / 2.0, f45 - k)
    return k - r, k + r


def alice_range(inst: Instance, beta):
    """(min, max) of F(., beta) over Alice's whole circle."""
    f = [payoff(inst.a, inst.b, inst.c, inst.d, inst.theta_a, inst.theta_b, x, beta)
         for x in (0.0, 45.0, 90.0)]
    return _sinusoid_range(*f)


def bob_range(inst: Instance, alpha):
    """(min, max) of F(alpha, .) over Bob's whole circle."""
    f = [payoff(inst.a, inst.b, inst.c, inst.d, inst.theta_a, inst.theta_b, alpha, x)
         for x in (0.0, 45.0, 90.0)]
    return _sinusoid_range(*f)


def _scan_max(fn, rows: int) -> np.ndarray:
    """max over x of fn(x) per row, from grid points only, so never above the truth."""
    coarse = np.arange(0.0, 180.0, GRID_STEP_DEG)
    grid = np.broadcast_to(coarse, (rows, coarse.size))
    step = GRID_STEP_DEG
    for _ in range(3):
        values = np.broadcast_to(fn(grid), grid.shape)
        peak = grid[np.arange(rows), values.argmax(axis=1)]
        best = values.max(axis=1)
        grid = peak[:, None] + np.arange(-REFINE, REFINE + 1) * (step / REFINE)
        step /= REFINE
    return best


def circle_bounds(inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi) with lo <= maxmin <= minmax <= hi for the circle game.

    inst.theta_a and inst.theta_b may be arrays (one game per entry).  lo is
    the best guaranteed payoff Alice reaches on the scanned grid and hi the
    best cap Bob reaches on it, so a Nash value v satisfies lo <= v <= hi,
    and hi - lo is tiny exactly when an equilibrium exists.
    """
    ta = np.atleast_1d(np.asarray(inst.theta_a, dtype=float))[:, None]
    tb = np.atleast_1d(np.asarray(inst.theta_b, dtype=float))[:, None]
    games = replace(inst, theta_a=ta, theta_b=tb)
    rows = max(ta.shape[0], tb.shape[0])
    lo = _scan_max(lambda alpha: bob_range(games, alpha)[0], rows)
    hi = -_scan_max(lambda beta: -alice_range(games, beta)[1], rows)
    return lo, hi


def equilibrium_gap(inst: Instance) -> float:
    lo, hi = circle_bounds(inst)
    return float(hi[0] - lo[0])


def check_equilibrium(inst: Instance, alpha: float, beta: float, value: float,
                      tol: float) -> list[str]:
    """A reported Nash point: its value is F, and neither player can improve."""
    tol *= inst.scale
    f = float(payoff(inst.a, inst.b, inst.c, inst.d, inst.theta_a, inst.theta_b,
                     alpha, beta))
    problems = []
    if abs(f - value) > tol:
        problems.append(f"value {value!r} at ({alpha}, {beta}) but F = {f!r}")
    alice_best = float(alice_range(inst, beta)[1])
    if alice_best - f > tol:
        problems.append(f"Alice improves from {f!r} to {alice_best!r} at ({alpha}, {beta})")
    bob_best = float(bob_range(inst, alpha)[0])
    if f - bob_best > tol:
        problems.append(f"Bob improves from {f!r} to {bob_best!r} at ({alpha}, {beta})")
    lo, hi = circle_bounds(inst)
    if not lo[0] - tol <= value <= hi[0] + tol:
        problems.append(f"value {value!r} outside [maxmin, minmax] = [{lo[0]!r}, {hi[0]!r}]")
    return problems


def check_count(inst: Instance, count: int, expected: int) -> list[str]:
    """The equilibrium count is the expected one and agrees with the gap."""
    problems = []
    if count != expected:
        problems.append(f"{count} equilibria, expected {expected}")
    gap = equilibrium_gap(inst)
    if count and gap > TEXT_TOL * inst.scale:
        problems.append(f"{count} equilibria but maxmin/minmax gap is {gap!r}")
    if not count and gap < NO_EQUILIBRIUM_GAP * inst.scale:
        problems.append(f"no equilibrium but maxmin/minmax gap is only {gap!r}")
    return problems


def _close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol


def _first(problems: list[str]) -> list[str]:
    if len(problems) > MAX_LISTED:
        return problems[:MAX_LISTED] + [f"... {len(problems) - MAX_LISTED} more"]
    return problems


# -- sweep ----------------------------------------------------------------

def check_sweep(stdout: str, inst: Instance, csv_path: Path, thetas_a: list[float],
                thetas_b: list[float]) -> list[str]:
    """Every cell is present, and each best value lies in [maxmin, minmax]."""
    if stdout:
        return [f"unexpected sweep output {stdout[:200]!r}"]
    lines = Path(csv_path).read_text().splitlines()
    if not lines or lines[0] != "theta_a,theta_b,equilibrium_count,best_value_for_alice":
        return ["sweep CSV header missing"]
    rows = [line.split(",") for line in lines[1:]]
    expected = [(ta, tb) for ta in thetas_a for tb in thetas_b]
    if len(rows) != len(expected) or any(len(r) != 4 for r in rows):
        return [f"sweep CSV has {len(rows)} rows, expected {len(expected)}"]
    tol = SWEEP_TOL * inst.scale
    problems = []
    for ta in thetas_a:
        block = [i for i, cell in enumerate(expected) if cell[0] == ta]
        lo, hi = circle_bounds(replace(inst, theta_a=ta,
                                       theta_b=[expected[i][1] for i in block]))
        for i, low, high in zip(block, lo, hi):
            row = rows[i]
            cell = expected[i]
            if not (_close(float(row[0]), cell[0], 1e-9)
                    and _close(float(row[1]), cell[1], 1e-9)):
                problems.append(f"row {i + 1} is cell ({row[0]}, {row[1]}), expected {cell}")
                continue
            count = int(row[2])
            if count == 0:
                if row[3]:
                    problems.append(f"cell {cell}: no equilibrium but best value {row[3]}")
                elif high - low <= tol:
                    problems.append(f"cell {cell}: no equilibrium but gap {high - low!r}")
                continue
            value = float(row[3])
            if not low - tol <= value <= high + tol:
                problems.append(
                    f"cell {cell}: best value {value!r} outside "
                    f"[maxmin, minmax] = [{low!r}, {high!r}]")
            elif high - low > tol:
                problems.append(f"cell {cell}: {count} equilibria but gap {high - low!r}")
    return _first(problems)


# -- analyze / equilibria ---------------------------------------------------

_EQ_LINE = re.compile(r"alpha=(\S+) beta=(\S+) value=(\S+)")


def check_analyze_text(stdout: str, inst: Instance, expected: int) -> list[str]:
    lines = stdout.splitlines()
    problems = []
    try:
        mixed = lines[lines.index("classical (mixed):") + 1]
        value = float(mixed.strip().removeprefix("value="))
        if not _close(value, inst.classical_value, TEXT_TOL * inst.scale):
            problems.append(f"classical value {value!r}, expected {inst.classical_value!r}")
        header = next(line for line in lines if line.startswith("quantum equilibria: "))
        count = int(header.split()[2])
    except (ValueError, IndexError, StopIteration):
        return ["analyze report is malformed"]
    points = [_EQ_LINE.search(line) for line in lines if line.lstrip().startswith("[")]
    if not all(points):
        return ["analyze report lists a malformed equilibrium"]
    if len(points) != count:
        problems.append(f"header says {count} equilibria, {len(points)} listed")
    if (count == 0) != header.endswith("(no equilibrium)"):
        problems.append(f"inconsistent header {header!r}")
    problems += check_count(inst, count, expected)
    for m in points:
        problems += check_equilibrium(inst, *map(float, m.groups()), TEXT_TOL)
    return _first(problems)


def check_analyze_json(stdout: str, inst: Instance, expected: int) -> list[str]:
    try:
        report = json.loads(stdout)
        count = report["equilibrium_count"]
        points = report["quantum"]
        mixed = report["classical"]["mixed_value"]
        status = report["status"]
    except (ValueError, KeyError, TypeError):
        return ["analyze JSON is malformed"]
    problems = []
    if len(points) != count:
        problems.append(f"equilibrium_count {count} but {len(points)} listed")
    if status != ("equilibria_found" if count else "no_equilibrium"):
        problems.append(f"status {status!r} with {count} equilibria")
    if not _close(mixed, inst.classical_value, JSON_TOL * inst.scale):
        problems.append(f"classical value {mixed!r}, expected {inst.classical_value!r}")
    problems += check_count(inst, len(points), expected)
    for eq in points:
        alpha, beta = eq["alpha_deg"], eq["beta_deg"]
        problems += check_equilibrium(inst, alpha, beta, eq["value"], JSON_TOL)
        weights = []
        for angle, theta in ((alpha, inst.theta_a), (beta, inst.theta_b)):
            x, y = math.radians(angle), math.radians(angle - theta)
            weights.append([math.cos(x) ** 2, math.cos(y) ** 2,
                            math.sin(x) ** 2, math.sin(y) ** 2])
        for name, got, want in (("p", eq["p"], weights[0]), ("q", eq["q"], weights[1])):
            if any(not _close(g, w, 1e-9) for g, w in zip(got, want)) or len(got) != 4:
                problems.append(f"{name} = {got} at ({alpha}, {beta}), expected {want}")
        if not 0.0 <= eq["residual"] <= JSON_TOL * inst.scale:
            problems.append(f"residual {eq['residual']!r} at ({alpha}, {beta})")
    return _first(problems)


def check_equilibria_text(stdout: str, inst: Instance, expected: int) -> list[str]:
    lines = stdout.splitlines()
    points = [] if lines == ["no equilibrium"] else [_EQ_LINE.match(line) for line in lines]
    if not all(points) or not lines:
        return ["equilibria report is malformed"]
    problems = check_count(inst, len(points), expected)
    for m in points:
        problems += check_equilibrium(inst, *map(float, m.groups()), TEXT_TOL)
    return _first(problems)


# -- curves ---------------------------------------------------------------

def check_curves(stdout: str, inst: Instance, csv_path: Path, svg_path: Path,
                 resolution: float, expected: int) -> list[str]:
    """Each sampled response is a best response; the SVG marks the equilibria."""
    problems = []
    if stdout != f"wrote {csv_path} and {svg_path}\n":
        problems.append(f"unexpected curves output {stdout!r}")
    lines = Path(csv_path).read_text().splitlines()
    header = "player,input_deg,response_deg,amplitude,degenerate,discontinuity_flag"
    if not lines or lines[0] != header:
        return problems + ["curves CSV header missing"]
    inputs = np.arange(0.0, 180.0, resolution)
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != 2 * inputs.size:
        return problems + [f"curves CSV has {len(rows)} rows, expected {2 * inputs.size}"]
    tol = TEXT_TOL * inst.scale
    for k, player in enumerate(("alice", "bob")):
        part = rows[k * inputs.size:(k + 1) * inputs.size]
        if any(r[0] != player for r in part):
            problems.append(f"curves CSV rows out of order for {player}")
            continue
        given = np.array([float(r[1]) for r in part])
        response = np.array([float(r[2]) for r in part])
        amplitude = np.array([float(r[3]) for r in part])
        degenerate = np.array([r[4] == "1" for r in part])
        if np.abs(given - inputs).max() > 1e-6:
            problems.append(f"{player} inputs are not the {resolution} degree grid")
        if player == "alice":
            low, high = alice_range(inst, given)
            got = payoff(inst.a, inst.b, inst.c, inst.d, inst.theta_a, inst.theta_b,
                         response, given)
            loss = high - got
        else:
            low, high = bob_range(inst, given)
            got = payoff(inst.a, inst.b, inst.c, inst.d, inst.theta_a, inst.theta_b,
                         given, response)
            loss = got - low
        bad = np.flatnonzero((loss > tol) & ~degenerate)
        problems += [f"{player} response {response[i]} to {given[i]} is not optimal"
                     for i in bad[:MAX_LISTED]]
        bad = np.flatnonzero(np.abs(amplitude - (high - low) / 2.0) > tol)
        problems += [f"{player} amplitude {amplitude[i]} at {given[i]} is wrong"
                     for i in bad[:MAX_LISTED]]
    svg = Path(svg_path).read_text()
    if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
        problems.append("curves SVG is not a complete <svg> document")
    marks = svg.count('class="eq"')
    if marks != expected:
        problems.append(f"SVG marks {marks} equilibria, expected {expected}")
    return _first(problems)


# -- simulate ---------------------------------------------------------------

def check_simulate(stdout: str, inst: Instance, alpha: float, beta: float,
                   rounds: int) -> list[str]:
    """The printed analytic value is F, and the mean is within Z_BOUND of it."""
    fields = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    try:
        n = int(fields["rounds"])
        mean = float(fields["empirical mean"])
        std_error = float(fields["std error"])
        analytic = float(fields["analytic value"])
    except (KeyError, ValueError):
        return ["simulate report is malformed"]
    f = float(payoff(inst.a, inst.b, inst.c, inst.d, inst.theta_a, inst.theta_b,
                     alpha, beta))
    problems = []
    if n != rounds:
        problems.append(f"{n} rounds, expected {rounds}")
    if not _close(analytic, f, TEXT_TOL * inst.scale):
        problems.append(f"analytic value {analytic!r}, F = {f!r}")
    if not std_error > 0:
        problems.append(f"std error {std_error!r}")
    elif abs(mean - f) / std_error > Z_BOUND:
        problems.append(f"|z| = {abs(mean - f) / std_error:.3g} exceeds {Z_BOUND}")
    return problems


def check_transcript(stdout: str, inst: Instance, csv_path: Path, alpha: float,
                     beta: float, rounds: int) -> list[str]:
    """Two well-formed rows per round whose mean payoff is the printed mean."""
    problems = check_simulate(stdout, inst, alpha, beta, rounds)
    lines = Path(csv_path).read_text().split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != "round,pair,alice_outcome,bob_outcome,payoff":
        return problems + ["transcript header missing"]
    if len(lines) != 2 * rounds + 1:
        return problems + [f"transcript has {len(lines) - 1} rows, expected {2 * rounds}"]
    # a pair pays Alice only when her outcome and Bob's are opposite corners
    scored = (
        {f"13,{x},{y},{p:.6g}": p
         for x, y, p in ((1, 3, inst.a), (3, 1, inst.c), (1, 1, 0.0), (3, 3, 0.0))},
        {f"24,{x},{y},{p:.6g}": p
         for x, y, p in ((2, 4, inst.b), (4, 2, inst.d), (2, 2, 0.0), (4, 4, 0.0))},
    )
    total = 0.0
    bad = []
    for k in range(1, len(lines)):
        index, _, tail = lines[k].partition(",")
        value = scored[(k - 1) & 1].get(tail)
        if value is None or index != str((k - 1) >> 1):
            bad.append(f"transcript row {k} is malformed: {lines[k]!r}")
            if len(bad) > MAX_LISTED:
                break
        else:
            total += value
    problems += bad
    fields = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    printed = float(fields.get("empirical mean", "nan"))
    mean = total / rounds
    if not bad and not _close(mean, printed, TEXT_TOL * max(abs(mean), 1e-300)):
        problems.append(f"transcript mean {mean!r} but printed mean {printed!r}")
    return _first(problems)


# -- lattice-check -----------------------------------------------------------

def check_lattice(stdout: str, inst: None, theta: float) -> list[str]:
    """Every law passes and the plane realization at theta is isomorphic."""
    lines = stdout.splitlines()
    problems = []
    laws = [line for line in lines if line.startswith("  ") and line.endswith(("pass", "FAIL"))]
    if not laws or any(not line.endswith(": pass") for line in laws):
        problems.append("an ortholattice law does not pass")
    if not any(line.startswith("distributivity violated at") for line in lines):
        problems.append("no distributivity witness")
    if not any(line.startswith("additive measure impossible") for line in lines):
        problems.append("disjunction paradox not reported")
    m = re.search(r"plane realization at theta=(\S+): (.*)", stdout)
    if not m or m.group(2) != "isomorphic" or not _close(float(m.group(1)), theta, 1e-6):
        problems.append(f"plane realization at theta={theta} not isomorphic")
    return problems
