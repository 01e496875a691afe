"""Replay a workload's argv lists in one process through wisealice.cli.main.

    python3 perfbench/replay.py --spec SPEC.json --out RESULT.json [--trace SPANS.npz]

SPEC.json is a list of {"argv": [...], "stdout": path, "stderr": path}.
Without --trace this is the untraced reference; with it every layer is
wrapped by perfbench.spans, the spans are saved to SPANS.npz and RESULT.json
gains the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import spans  # noqa: E402

MIB = float(1 << 20)


def _replay(commands: list[dict]) -> tuple[float, list[int]]:
    from wisealice import cli

    exit_codes = []
    start = time.perf_counter()
    for command in commands:
        with open(command["stdout"], "w") as out, open(command["stderr"], "w") as err, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(command["argv"]))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = 1
        exit_codes.append(code)
    return time.perf_counter() - start, exit_codes


def _layer_metrics(tracer: spans.Tracer, equilibria: int, configs: list) -> dict:
    metrics = {}
    for layer, seconds in tracer.layer_self_times().items():
        metrics[f"{layer}.self_s"] = seconds
        metrics[f"{layer}.calls"] = tracer.layer_calls[layer]
    verified = tracer.calls_to("wisealice.solver.verify_nash_quantum")
    metrics["solver.verify_yield"] = equilibria / verified if verified else 0.0
    rows = tracer.yields_of("wisealice.simulate.transcript_rows")
    metrics["simulate.round_us"] = (
        1e6 * tracer.inclusive_time("wisealice.simulate.transcript_rows") / (rows / 2)
        if rows else 0.0)
    # re-run each simulate() seen, untraced, to read its allocation peak
    peak = 0
    for config in configs:
        from wisealice.simulate import simulate

        tracemalloc.start()
        try:
            simulate.__wrapped__(config)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    metrics["simulate.peak_alloc_mb"] = peak / MIB
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", metavar="SPANS", help="trace and save spans here")
    args = parser.parse_args()
    commands = json.loads(Path(args.spec).read_text())

    import wisealice  # noqa: F401  (imports every layer module)
    import wisealice.cli  # noqa: F401

    tracer = spans.Tracer() if args.trace else None
    found, configs = [], []
    if tracer:
        tracer.install({
            "wisealice.solver.find_equilibria":
                lambda args, kwargs, equilibria: found.append(len(equilibria)),
            "wisealice.simulate.simulate":
                lambda args, kwargs, _: configs.append(args[0]),
        })
    wall, exit_codes = _replay(commands)
    result = {"wall_s": wall, "exit_codes": exit_codes}
    if tracer:
        result["layers"] = _layer_metrics(tracer, sum(found), configs)
        tracer.save(args.trace)
    Path(args.out).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
