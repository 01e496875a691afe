"""Benchmark for the wisealice CLI: workloads, output oracles and span tracing.

Run it with ``python3 perfbench/run.py --workload all``; see NOTES.md.
"""
