"""Time the solver's kernels in process: a base revision's src/ against the working tree's.

    python bench/run.py REV N

extracts src/ at the git revision REV with tests/corpus_diff.py's
extract_src and starts two worker processes, one on REV's src/ and one on
the working tree's.  Each imports the package and calls
every kernel once untimed.  Then, PAIRS times over, each kernel is timed
in one worker and right after in the other, which of the two goes first
alternating from pair to pair, so both times of a pair share the host's
load.  A worker times a kernel REPEATS times with time.perf_counter, each
time over the kernel's number of calls, and reports the least time per
call.  The kernels are

- grid-179: find_equilibria_grid on the 179 x 179 grid of 0.5-degree
  steps at payoffs (0.1, 10, 10, 0.1);
- sweep-33: the grid of perfbench's seed-0 sweep, 33 x 33 frames 5:85 at
  step 2.5 with the payoffs that workload draws;
- one-cell find_equilibria on each shipped scenario.

It writes BENCH_N.json at the repository root: for each kernel and each
tree the median and IQR of the per-pair times in seconds, every pair's
times, and in how many pairs the working tree was faster; and the
environment: Python, numpy, nproc, the BLAS thread variables and whether
each tree's solver.py had bytecode when the run began.  Timing gates
nothing.  It takes about a minute and a half on a 2-vCPU host.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from corpus_diff import extract_src
PAIRS = 21
REPEATS = 3


def kernels() -> dict:
    """name -> (function of no arguments, calls per timing), in the worker's package."""
    from wisealice.game import PayoffMatrix
    from wisealice.scenario import load_scenario
    from wisealice.solver import find_equilibria, find_equilibria_grid

    grid = [0.5 * k for k in range(1, 180)]
    wide = PayoffMatrix(0.1, 10.0, 10.0, 0.1)
    # the payoffs perfbench/workloads.py draws for the sweep workload at seed 0
    rng = random.Random("sweep:0")
    sweep = PayoffMatrix(*(round(rng.uniform(0.5, 5.0), 6) for _ in range(4)))
    axis = [5.0 + 2.5 * k for k in range(33)]
    found = {"grid-179": (lambda: find_equilibria_grid(wide, grid, grid), 1),
             "sweep-33": (lambda: find_equilibria_grid(sweep, axis, axis), 20)}
    for path in sorted((ROOT / "scenarios").glob("*.txt")):
        sc = load_scenario(path)
        h, frames = sc.payoff_matrix(), sc.frames()
        found[f"find_equilibria:{path.stem}"] = (lambda h=h, f=frames: find_equilibria(h, f), 50)
    return found


def worker() -> None:
    """Print the kernels' names, then the time per call of each name read from stdin."""
    found = kernels()
    for kernel, _ in found.values():
        kernel()
    print(json.dumps(list(found)), flush=True)
    for line in sys.stdin:
        kernel, number = found[line.strip()]
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            for _ in range(number):
                kernel()
            times.append((time.perf_counter() - start) / number)
        print(min(times), flush=True)


def start_worker(src: Path, env: dict) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, str(Path(__file__).resolve()), "worker"],
                            env={**env, "PYTHONPATH": str(src)}, text=True,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)


def timed(worker: subprocess.Popen, name: str) -> float:
    worker.stdin.write(name + "\n")
    worker.stdin.flush()
    return float(worker.stdout.readline())


def has_bytecode(src: Path) -> bool:
    return Path(importlib.util.cache_from_source(str(src / "wisealice" / "solver.py"))).exists()


def summary(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median": median, "iqr": q3 - q1}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    rev, number = argv
    # as the CLI sets it before numpy loads
    env = {"OPENBLAS_NUM_THREADS": "1", **os.environ}
    revision = subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev], check=True,
                              capture_output=True, text=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": extract_src(rev, Path(tmp) / "rev"), "head": ROOT / "src"}
        bytecode = {tree: has_bytecode(src) for tree, src in trees.items()}
        workers = {tree: start_worker(src, env) for tree, src in trees.items()}
        # both list the same kernels, once each has called them all
        for w in workers.values():
            names = json.loads(w.stdout.readline())
        times = {name: {tree: [] for tree in trees} for name in names}
        for pair in range(PAIRS):
            for name in names:
                for tree in (("base", "head") if pair % 2 == 0 else ("head", "base")):
                    times[name][tree].append(timed(workers[tree], name))
        for w in workers.values():
            w.stdin.close()
            if w.wait() != 0:
                raise SystemExit("a worker failed")
    record = {
        "base": revision,
        "pairs": PAIRS,
        "unit": "s",
        "environment": {
            "python": platform.python_version(),
            # read without importing numpy here, whose idle OpenBLAS pool
            # could spin a core while the workers are timed
            "numpy": version("numpy"),
            "nproc": len(os.sched_getaffinity(0)),
            # OMP_, OPENBLAS_, MKL_, BLIS_ and NUMEXPR_NUM_THREADS, VECLIB_MAXIMUM_THREADS
            "thread_env": {var: value for var, value in env.items() if var.endswith("_THREADS")},
            "dont_write_bytecode": bool(env.get("PYTHONDONTWRITEBYTECODE")),
            "bytecode_present": bytecode,
        },
        "kernels": {},
    }
    for name, pairs in times.items():
        record["kernels"][name] = {
            **{tree: summary(t) for tree, t in pairs.items()},
            "head_faster_pairs": sum(h < b for b, h in zip(pairs["base"], pairs["head"])),
            "times": pairs,
        }
    out = ROOT / f"BENCH_{number}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for name, k in record["kernels"].items():
        print(f"{name}: base {k['base']['median']:.4g} s (IQR {k['base']['iqr']:.2g}), "
              f"head {k['head']['median']:.4g} s (IQR {k['head']['iqr']:.2g}), "
              f"head faster in {k['head_faster_pairs']} of {PAIRS} pairs")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] == ["worker"]:
        worker()
    else:
        sys.exit(main(sys.argv[1:]))
