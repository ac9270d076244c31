"""Benchmark entry point: one workload, timed or traced, in fresh processes.

    python3 perfbench/run.py --workload decode --seed 0 --seconds 56 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
Each run starts its worker processes one at a time (perfbench/worker.py)
with ``OPENBLAS_NUM_THREADS=1`` in their environment only, so no workload
warms another's caches and a 2-core machine is not oversubscribed.
A timed run splits ``--seconds`` over several worker processes, each set
up afresh and each running the jobs from where the last one stopped, so
that effects fixed for a process's lifetime (memory layout, above all)
average out; a traced run is one worker process.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json:

- setup_s: imports, input generation and model fitting, median over the
  timed run's processes;
- wall_s: time of one pass over the workload's jobs, each job at its
  mean latency over the run;
- items_per_s: delivered tokens (decode) or feature rows
  (compress) of one pass, over wall_s;
- job_p50_s, job_p90_s: median and 90th percentile, over the workload's
  jobs, of each job's mean latency;
- peak_rss_mb: peak resident memory, the largest over the timed processes.

``--trace 1`` prints the per-layer metrics, derived by perfbench/layers.py
from the trace file written under ``.perfbench/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
``ops_failed_ratio`` (failed over attempted jobs) is printed above it; it is
not in ``metrics`` because it reads 0 on a correct build.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import WORKLOADS  # noqa: E402
from perfbench.layers import PER_LAYER, UNITS, per_layer_metrics  # noqa: E402

# Worker processes per timed run; set-up time is their median.
SLICES = 5
# Whole run, every process included, must end within 180 seconds.
TIME_LIMIT_S = 175.0
# Time kept back from each slice's stop for starting and setting up the rest.
STOP_MARGIN_S = 10.0

ITEM_RATES = {"tokens": "tokens_per_s: delivered tokens per second",
              "features": "features_per_s: feature rows per second, compress to decode"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=56)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, deadline: float, *extra) -> dict:
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish in time: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def timed_run(args, deadline: float) -> tuple[list, dict]:
    """Set-up times and the merged results of SLICES timed worker processes."""
    slices, next_job, runs = [], 0, 0
    for k in range(SLICES):
        stop_after = (deadline - perf_counter() - STOP_MARGIN_S) / (SLICES - k)
        extra = ["--seconds", repr(args.seconds / SLICES), "--first-job", str(next_job),
                 "--stop-after", repr(max(1.0, stop_after))]
        if k == SLICES - 1 and slices:  # every job runs at least once
            extra += ["--min-runs", str(max(1, slices[0]["num_jobs"] - runs))]
        res = run_worker(args, deadline, *extra)
        slices.append(res)
        next_job = res["next_job"]
        runs += sum(len(job["s"]) for job in res["jobs"])
    jobs = {}
    for res in slices:
        for job in res["jobs"]:
            entry = jobs.setdefault(job["name"], {**job, "s": []})
            entry["items"] = min(entry["items"], job["items"])
            entry["s"] += job["s"]
    return [res["setup_s"] for res in slices], {
        "item": slices[0]["item"],
        "env": slices[0]["env"],
        "jobs": list(jobs.values()),
        "attempted": sum(res["attempted"] for res in slices),
        "failures": [line for res in slices for line in res["failures"]],
        "peak_rss_mb": max(res["peak_rss_mb"] for res in slices),
    }


def end_to_end(setups, res) -> dict:
    # A job's latency is its mean over the run: on a shared machine whose
    # speed swings between fast and slow spells, means over many runs of a
    # job are steadier than medians or minimums.
    latency = [statistics.fmean(job["s"]) for job in res["jobs"]]
    wall = sum(latency)
    items = sum(job["items"] for job in res["jobs"])
    quantiles = (statistics.quantiles(latency, n=10, method="inclusive")
                 if len(latency) > 1 else latency * 9)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (items / wall, "1/s"),
        "job_p50_s": (statistics.median(latency), "s"),
        "job_p90_s": (quantiles[-1], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def report(args, setups, res) -> dict:
    env = res["env"]
    print(f"workload {args.workload}, seed {args.seed}, size {args.size}, "
          f"trace {args.trace}; closed loop, 1 client")
    print("env: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    if args.trace:
        with open(res["trace_file"], encoding="ascii") as fh:
            values, missing = per_layer_metrics(json.load(fh))
        metrics = {name: (values[name], UNITS[name]) for name, _, _ in PER_LAYER
                   if name in values}
        print(f"trace file: {res['trace_file']}")
        for name, why in missing.items():
            print(f"{name} = {why}")
    else:
        metrics = end_to_end(setups, res)
        runs = sum(len(job["s"]) for job in res["jobs"])
        print(f"{runs} runs of {len(res['jobs'])} jobs in {len(setups)} processes; "
              f"set-up median of {len(setups)} processes")
        print(f"items_per_s is {ITEM_RATES[res['item']]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    attempted, failed = res["attempted"], len(res["failures"])
    print(f"ops_failed_ratio = {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
    for line in res["failures"][:20]:
        print(f"failed: {line}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "aiflow" / "__init__.py").is_file():
        print(f"error: no aiflow sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = perf_counter() + TIME_LIMIT_S
    try:
        if args.trace:
            trace_file = ROOT / ".perfbench" / f"trace-{args.workload}-{args.size}.json"
            setups, res = [], run_worker(args, deadline, "--trace-out", str(trace_file))
        else:
            setups, res = timed_run(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, setups, res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
