"""Benchmark of the wisealice CLI: end-to-end metrics, or per-layer with --trace 1.

    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --workload sweep --seed 3 --seconds 30 --trace 0

With --trace 0 every command of the workload runs as a fresh process, one at
a time, pass after pass while another pass still fits in --seconds (at least
one pass), and the metrics are setup_s, wall_s, cpu_s and peak_rss_mb.  With
--trace 1 the workload is replayed in-process twice, untraced and traced, and
the metrics are the per-layer ones.  Every output is checked by perfbench.oracle
in a separate process.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; a full record goes to
perfbench/results/.

This process imports neither numpy nor the oracle and never reads a large
output: a child's ru_maxrss includes its parent's peak RSS at exec, so the
parent must stay smaller than any child it measures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402

BENCH = ROOT / "perfbench"
RESULTS = BENCH / "results"
SETUP_REPEATS = 5            # fresh `import wisealice` processes before and after the passes
RUN_DEADLINE_S = 170.0       # every run ends well inside 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
REQUIRED = ("src/wisealice/cli.py",
            *(f"scenarios/{name}.txt" for name in workloads.SHIPPED_COUNTS))
MIB_PER_KIB = 1.0 / 1024.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {"calls": "count", "verify_yield": "ratio", "round_us": "us",
                   "peak_alloc_mb": "MiB"}


class SetupError(RuntimeError):
    """The checkout cannot run the program or the benchmark at all."""


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def run_child(argv: list[str], stdout_path: Path, stderr_path: Path,
              deadline: float) -> Child:
    """Run one process to completion; its time and peak RSS come from wait4."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        lock = threading.Lock()
        exited = False

        def kill() -> None:
            with lock:
                if not exited:
                    proc.kill()

        timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
        timer.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            with lock:
                exited = True
        finally:
            timer.cancel()
            timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * MIB_PER_KIB,
                 proc.returncode)


def _python(*args: str) -> list[str]:
    return [sys.executable, *args]


def _tail(path: Path, limit: int = 500) -> str:
    return path.read_text(errors="replace").strip()[-limit:]


def _sha256(path: Path) -> str | None:
    if not path.is_file():
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass
class Tally:
    """Checks executions in batches and counts the failed ones."""

    name: str
    seed: int
    work: Path
    deadline: float
    attempted: int = 0
    failed: int = 0
    records: list = field(default_factory=list)
    _verified: dict = field(default_factory=dict)   # (label, exit code, sha256s) -> problems

    def check(self, executions: list[tuple[workloads.Command, int, dict]]) -> None:
        """Check (command, exit code, details) triples whose outputs are on disk."""
        keyed = []
        for command, exit_code, details in executions:
            digests = {"stdout": _sha256(self.work / f"{command.label}.out")}
            digests.update({path: _sha256(ROOT / path) for path in command.outputs})
            key = (command.label, exit_code, tuple(sorted(digests.items())))
            if exit_code != 0 and key not in self._verified:
                self._verified[key] = [
                    f"exit code {exit_code}: {_tail(self.work / f'{command.label}.err')}"]
            keyed.append((command, details, digests, key))
        pending = [key for *_, key in keyed if key not in self._verified]
        if pending:
            found = self._run_checker([key[0] for key in pending])
            for key in pending:
                self._verified[key] = found.get(key[0], ["not checked"])
        for command, details, digests, key in keyed:
            problems = self._verified[key]
            self.attempted += 1
            self.failed += bool(problems)
            self.records.append({"label": command.label, "exit_code": key[1],
                                 "sha256": digests, "problems": problems, **details})
            for problem in problems:
                print(f"FAIL {self.name} {command.label}: {problem}", file=sys.stderr)

    def _run_checker(self, labels: list[str]) -> dict[str, list[str]]:
        out, err = self.work / "check.out", self.work / "check.err"
        child = run_child(_python(str(BENCH / "check.py"), self.name, str(self.seed), *labels),
                          out, err, self.deadline)
        if child.exit_code != 0:
            return {label: [f"checker failed: {_tail(err)}"] for label in labels}
        return json.loads(out.read_text())


def preflight(work: Path) -> str:
    """Fail unless the checkout's own src/ imports; returns numpy's version."""
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        raise SetupError(f"missing from the checkout: {', '.join(missing)}")
    out, err = work / "preflight.out", work / "preflight.err"
    child = run_child(_python("-c", "import numpy, wisealice; "
                                    "print(wisealice.__file__); print(numpy.__version__)"),
                      out, err, time.monotonic() + 60.0)
    lines = out.read_text().split()
    if child.exit_code != 0 or len(lines) != 2 or \
            Path(lines[0]).resolve() != ROOT / "src/wisealice/__init__.py":
        raise SetupError(f"cannot import wisealice from {ROOT / 'src'}: "
                         f"{' '.join(lines) or _tail(err)}")
    return lines[1]


def import_times(work: Path, deadline: float) -> list[float]:
    """Wall times of SETUP_REPEATS fresh interpreters running `import wisealice`."""
    times = []
    for _ in range(SETUP_REPEATS):
        child = run_child(_python("-c", "import wisealice"), work / "setup.out",
                          work / "setup.err", deadline)
        if child.exit_code != 0:
            raise SetupError(f"import wisealice failed: {_tail(work / 'setup.err')}")
        times.append(child.wall_s)
    return times


def import_breakdown(work: Path, deadline: float) -> dict[str, float]:
    """Cumulative import times of numpy and wisealice from `-X importtime`."""
    err = work / "importtime.err"
    run_child(_python("-X", "importtime", "-c", "import wisealice"), work / "importtime.out",
              err, deadline)
    cumulative = {}
    for line in err.read_text().splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
        if m:
            cumulative[m.group(2)] = int(m.group(1)) * 1e-6
    return {"setup.numpy_import_s": cumulative.get("numpy", 0.0),
            "setup.wisealice_import_s": cumulative.get("wisealice", 0.0)}


def _pass_wall(children: list[Child]) -> float:
    return sum(c.wall_s for c in children)


def run_timed(commands: list, work: Path, seconds: float, deadline: float,
              tally: Tally) -> dict:
    setup = import_times(work, deadline)
    passes = []
    start = time.monotonic()

    def another_pass_fits() -> bool:
        longest = max(map(_pass_wall, passes))
        now = time.monotonic()
        return now - start + longest <= seconds and now + longest < deadline

    while not passes or another_pass_fits():
        children, executions = [], []
        for command in commands:
            out, err = work / f"{command.label}.out", work / f"{command.label}.err"
            child = run_child(_python("-m", "wisealice.cli", *command.argv), out, err, deadline)
            children.append(child)
            executions.append((command, child.exit_code,
                               {"pass": len(passes), "wall_s": child.wall_s,
                                "cpu_s": child.cpu_s, "peak_rss_mb": child.peak_rss_mb}))
        tally.check(executions)
        passes.append(children)
    setup += import_times(work, deadline)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(map(_pass_wall, passes)),
        "cpu_s": statistics.median(sum(c.cpu_s for c in p) for p in passes),
        "peak_rss_mb": max(c.peak_rss_mb for p in passes for c in p),
    }
    return {"metrics": metrics, "passes": len(passes), "setup_samples_s": setup}


def run_traced(name: str, commands: list, work: Path, deadline: float, tally: Tally) -> dict:
    metrics = import_breakdown(work, deadline)
    spec = work / "replay-spec.json"
    spec.write_text(json.dumps([
        {"argv": list(c.argv), "stdout": str(work / f"{c.label}.out"),
         "stderr": str(work / f"{c.label}.err")} for c in commands]))
    walls = {}
    for mode in ("untraced", "traced"):
        out = work / f"replay-{mode}.json"
        argv = _python(str(BENCH / "replay.py"), "--spec", str(spec), "--out", str(out))
        if mode == "traced":
            argv += ["--trace", str(RESULTS / f"spans-{name}.npz")]
        err = work / f"replay-{mode}.err"
        child = run_child(argv, work / f"replay-{mode}.out", err, deadline)
        if child.exit_code != 0 or not out.is_file():
            raise SetupError(f"{mode} replay failed: {_tail(err, 2000)}")
        result = json.loads(out.read_text())
        tally.check([(command, code, {"replay": mode})
                     for command, code in zip(commands, result["exit_codes"])])
        walls[mode] = result["wall_s"]
        metrics.update(result.get("layers", {}))
    metrics["trace.overhead_s"] = walls["traced"] - walls["untraced"]
    return {"metrics": metrics, "replay_wall_s": walls}


def _git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(numpy_version: str) -> dict:
    return {
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS if var in os.environ},
    }


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    return PER_LAYER_UNITS.get(metric.rpartition(".")[2], "s")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    deadline = time.monotonic() + RUN_DEADLINE_S
    work = workloads.work_dir(ROOT, name)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    numpy_version = preflight(work)
    commands = workloads.build(name, seed, ROOT, work)
    tally = Tally(name, seed, work, deadline)
    if trace:
        outcome = run_traced(name, commands, work, deadline, tally)
    else:
        outcome = run_timed(commands, work, seconds, deadline, tally)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(numpy_version),
        "commands": {c.label: list(c.argv) for c in commands},
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "timer_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * MIB_PER_KIB,
        **outcome,
        "executions": tally.records,
    }
    (RESULTS / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return tally, outcome["metrics"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)

    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            tally, found = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except SetupError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        attempted += tally.attempted
        failed += tally.failed
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, value in found.items():
            shown = f"{value:>14.6f}" if isinstance(value, float) else f"{value:>7}"
            print(f"{name:<11} {metric:<28} {shown} {unit_of(metric)}")
            metrics[prefix + metric] = {"value": value, "unit": unit_of(metric)}
        print(f"{name:<11} {'failed_frac':<28} {tally.failed / tally.attempted:>14.6f} ratio "
              f"({tally.failed} of {tally.attempted} commands)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
