"""Run the solver's three seeded stresses and judge them by the count rule.

    PYTHONPATH=src python tests/solver_stress.py

makes one find_equilibria_grid call per payoff set of three families, each
set a grid of frames theta_A x theta_B, theta_A drawn first:

- wide: numpy default_rng(13) to (17), 300 payoff sets each at e^U(-8,8),
  and default_rng(21), 300 at e^U(-4,4), on 10 x 10 frames from
  U(0.001, 89.999) degrees, 180,000 cells;
- log-uniform: default_rng(40) to (51), 300 payoff sets each at e^U(-8,8),
  on 10 x 10 frames 10^U(-14, 1.9) degrees, 360,000 cells;
- near-end: default_rng(9), 2,000 payoff sets at e^U(-8,8) on 8 x 8
  frames next to I's ends.  A set with no end of I inside (0, 90) degrees
  is skipped after it is drawn.  Each frame is, when rng.random() < 0.5,
  an end of I inside (0, 90) (rng.integers) shifted by +- (rng.choice)
  10^U(-12,-7) degrees and clipped to [1e-9, 90 - 1e-9], and otherwise
  U(0.01, 89.99).

For each family it prints the cells and points, the judged cells holding
more and fewer points than oracles.pure_equilibrium_count, the points
above 1e-15 * S (S = a + b + c + d), the largest residual / S and the
sha256 of the returned arrays, then each judged cell off the rule.  A
cell with a frame within 1e-9 degrees of an end of I may lie on either
side of it, so, as in tests/corpus_judge.py, it is counted as near and
not judged.  It exits 1 when a judged cell holds fewer points than the
rule, or when a wide or log-uniform cell is off the rule or holds a
point above 1e-15 * S, else 0.  It takes about 16 s on a 2-vCPU host.
Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from wisealice.game import PayoffMatrix
from wisealice.solver import find_equilibria_grid

from oracles import interval_i, pure_equilibrium_count

# a frame this close to an end of I, in degrees, may lie on either side of it
NEAR_A_LINE_DEG = 1e-9
# residual / S above which a point is not at roundoff
AT_ROUNDOFF = 1e-15


def wide_sets():
    for seed, width in [(seed, 8.0) for seed in range(13, 18)] + [(21, 4.0)]:
        rng = np.random.default_rng(seed)
        for _ in range(300):
            h = PayoffMatrix(*np.exp(rng.uniform(-width, width, 4)))
            yield h, *rng.uniform(0.001, 89.999, (2, 10))


def log_uniform_sets():
    for seed in range(40, 52):
        rng = np.random.default_rng(seed)
        for _ in range(300):
            h = PayoffMatrix(*np.exp(rng.uniform(-8.0, 8.0, 4)))
            yield h, *10.0 ** rng.uniform(-14.0, 1.9, (2, 10))


def near_end_sets():
    rng = np.random.default_rng(9)
    for _ in range(2000):
        h = PayoffMatrix(*np.exp(rng.uniform(-8.0, 8.0, 4)))
        ends = [end for end in interval_i(h) if 0.0 < end < 90.0]
        if not ends:
            continue
        thetas = []
        for _ in range(16):
            if rng.random() < 0.5:
                shift = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -7.0)
                theta = ends[rng.integers(len(ends))] + shift
                thetas.append(min(max(theta, 1e-9), 90.0 - 1e-9))
            else:
                thetas.append(rng.uniform(0.01, 89.99))
        yield h, np.array(thetas[:8]), np.array(thetas[8:])


def run_family(sets) -> dict:
    """The family's tallies, with one line per judged cell off the rule."""
    tally = {"cells": 0, "points": 0, "near": 0, "above": 0, "below": 0,
             "off_roundoff": 0, "worst": 0.0, "wrong": []}
    digest = hashlib.sha256()
    for h, ta, tb in sets:
        grid = find_equilibria_grid(h, ta, tb)
        for array in grid:
            digest.update(array.tobytes())
        cell, residual = grid[0], grid[4] / h.scale
        tally["cells"] += ta.size * tb.size
        tally["points"] += cell.size
        tally["off_roundoff"] += int((residual > AT_ROUNDOFF).sum())
        tally["worst"] = max(tally["worst"], float(residual.max(initial=0.0)))
        ends = interval_i(h)
        counts = np.bincount(cell, minlength=ta.size * tb.size).tolist()
        for (i, j), count in zip(np.ndindex(ta.size, tb.size), counts):
            if min(abs(t - end) for t in (ta[i], tb[j]) for end in ends) <= NEAR_A_LINE_DEG:
                tally["near"] += 1
                continue
            rule = pure_equilibrium_count(h, ta[i], tb[j])
            if count != rule:
                tally["above" if count > rule else "below"] += 1
                tally["wrong"].append(f"{tuple(map(float, (h.a, h.b, h.c, h.d)))} at "
                                      f"{float(ta[i])!r}/{float(tb[j])!r}: holds {count}, "
                                      f"the rule says {rule}")
    tally["sha256"] = digest.hexdigest()
    return tally


def main(argv: list[str]) -> int:
    if argv:
        print("usage: PYTHONPATH=src python tests/solver_stress.py", file=sys.stderr)
        return 2
    failed = False
    for name, sets, strict in (("wide", wide_sets(), True),
                               ("log-uniform", log_uniform_sets(), True),
                               ("near-end", near_end_sets(), False)):
        t = run_family(sets)
        print(f"{name}: {t['cells']} cells, {t['points']} points; {t['near']} cells near an "
              f"end, not judged; judged cells above the rule {t['above']}, below "
              f"{t['below']}; points above {AT_ROUNDOFF} * S {t['off_roundoff']}; largest "
              f"residual / S {t['worst']:.3g}; sha256 {t['sha256']}")
        for line in t["wrong"]:
            print(f"  {line}")
        failed |= t["below"] > 0 or strict and (t["above"] > 0 or t["off_roundoff"] > 0)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
