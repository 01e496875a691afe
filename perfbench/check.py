"""Check outputs of one workload in a process of its own.

    python3 perfbench/check.py WORKLOAD SEED LABEL...

Rebuilds the workload's commands from the seed, runs the check of each named
command on its stdout file and output files, and prints {label: problems}
as JSON.  The checks run here, not in the timing process, so that process
never loads numpy or large outputs: a child's peak RSS includes the peak
RSS of its parent at exec.
"""

from __future__ import annotations

import json
import os
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed, labels = argv[0], int(argv[1]), argv[2:]
    os.chdir(ROOT)
    work = workloads.work_dir(ROOT, name)
    commands = {c.label: c for c in workloads.build(name, seed, ROOT, work)}
    results = {}
    for label in labels:
        try:
            results[label] = commands[label].check((work / f"{label}.out").read_text())
        except Exception as exc:  # a malformed output fails its own check only
            traceback.print_exc()
            results[label] = [f"check raised {exc!r}"]
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
