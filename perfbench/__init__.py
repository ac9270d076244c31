"""Benchmark of the aiflow package: timed workloads and a traced per-layer run.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the root of a checkout. ``BENCHMARK.json`` at the root
lists the workloads and metrics.
"""

WORKLOADS = ("decode", "compress")
