"""Judge the sweep CSVs of a regression corpus against the count rule.

    python tests/corpus_judge.py CORPUS_DIR

reads every sweep CSV that tests/sweep_corpus.py wrote into CORPUS_DIR,
NAME_coarse.csv, NAME_fine.csv and NAME_edge.csv, with the payoffs of its scenario
NAME.txt, and checks each cell's equilibrium count against
oracles.pure_equilibrium_count.  The rule holds only for frames farther
than roundoff from I's ends, so a cell with a frame within 1e-9 degrees of
an end is listed and not judged.  It prints each cell whose count is not
the rule's, then one summary line, and exits 1 if there is any such cell
or no sweep CSV at all, else 0.  Plain Python over the CSVs: it runs no
solver.  Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

from wisealice.scenario import load_scenario

from oracles import interval_i, pure_equilibrium_count

# a frame this close to an end of I, in degrees, may lie on either side of it
NEAR_A_LINE_DEG = 1e-9


def judge_sweep(path: Path, scenario: Path) -> tuple[int, list[str], list[str]]:
    """(cells, wrong, near) for one sweep CSV: its cell count, and one line
    per cell whose count is not the rule's and per cell near a line."""
    h = load_scenario(scenario).payoff_matrix()
    ends = interval_i(h)
    wrong, near = [], []
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        ta, tb = float(row["theta_a"]), float(row["theta_b"])
        count = int(row["equilibrium_count"])
        where = f"{path.name}: cell ({row['theta_a']}, {row['theta_b']})"
        if min(abs(t - end) for t in (ta, tb) for end in ends) <= NEAR_A_LINE_DEG:
            near.append(f"{where} holds {count}, within {NEAR_A_LINE_DEG} degrees of a line")
            continue
        rule = pure_equilibrium_count(h, ta, tb)
        if count != rule:
            wrong.append(f"{where} holds {count}, the rule says {rule}")
    return len(rows), wrong, near


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/corpus_judge.py CORPUS_DIR", file=sys.stderr)
        return 2
    corpus = Path(argv[0])
    sweeps = sorted(path for grid in ("coarse", "fine", "edge")
                    for path in corpus.glob(f"*_{grid}.csv"))
    if not sweeps:
        print(f"no sweep CSV in {corpus}")
        return 1
    cells, wrong, near = 0, [], []
    for path in sweeps:
        scenario = path.with_name(path.stem.rsplit("_", 1)[0] + ".txt")
        n, w, m = judge_sweep(path, scenario)
        cells, wrong, near = cells + n, wrong + w, near + m
    for line in wrong + near:
        print(line)
    print(f"{len(sweeps)} sweep files, {cells} cells: {len(wrong)} not the rule's count, "
          f"{len(near)} near a line and not judged")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
