"""One benchmark process: set up a workload, then time it or trace it.

Started by run.py (``python3 -m perfbench.worker ...`` from the checkout
root, with ``src`` on PYTHONPATH and BLAS threads at 1); prints one JSON
object as its last line of standard output.

Set-up covers imports, input generation and model fitting, timed from the
start of ``main``.

A timed run is one slice of the benchmark's measuring time: it runs the
workload's jobs in turn, starting at ``--first-job`` and wrapping round,
while the next job is expected to end within ``--seconds``, and times each
job's execution alone: output checks run between jobs, off the clock.
run.py chains several such processes, each starting where the last one
stopped. The traced run executes a fixed set of jobs once to warm up, then
untraced and then traced, so that its counts repeat exactly and the two
wall times give the tracing overhead; it writes the spans to
``--trace-out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
# Cap on --stop-after: start no job past this point, so the process ends
# well inside the benchmark's 180-second limit on a badly regressed build.
HARD_STOP_S = 140.0


class Tally:
    """Runs jobs one at a time, counting attempted and failed operations."""

    def __init__(self, pinned: dict):
        self.pinned = pinned
        self.first: dict = {}
        self.attempted = 0
        self.failures: list = []

    def run(self, job, tracer=None) -> tuple[float, bool]:
        """(seconds spent in job.execute, whether every check passed).

        Any exception out of a job or its check is a failed operation: the
        program's own errors, wrong outputs and crashes alike.
        """
        self.attempted += 1
        if tracer is not None:
            tracer.active = True
        start = perf_counter()
        try:
            output = job.execute()
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            return perf_counter() - start, self._fail(job, exc)
        finally:
            if tracer is not None:
                tracer.active = False
        elapsed = perf_counter() - start
        try:
            got = job.check(output, job.name not in self.first)
        except Exception as exc:  # noqa: BLE001 - counted as a failed op
            return elapsed, self._fail(job, exc)
        want = self.pinned.get(job.name)
        if want is not None and got != want:
            return elapsed, self._fail(job, f"digest {got} differs from the recorded {want}")
        prior = self.first.setdefault(job.name, got)
        if got != prior:
            return elapsed, self._fail(job, f"digest {got} differs from this process's {prior}")
        return elapsed, True

    def _fail(self, job, why) -> bool:
        if isinstance(why, BaseException):
            why = f"{type(why).__name__}: {why}"
        self.failures.append(f"{job.name}: {why}")
        return False


def timed_run(workload, tally: Tally, seconds: float, first_job: int, min_runs: int,
              stop_after: float) -> dict:
    """Jobs in turn from ``first_job`` while the next is expected to end within ``seconds``.

    Makes at least ``min_runs`` job runs, but starts none after ``stop_after``
    seconds. Returns the seconds of every run, by job, each job's items (none
    for a job that failed any run) and the index of the job to run next.
    """
    jobs = workload.jobs
    times = {job.name: [] for job in jobs}
    items = {job.name: job.items for job in jobs}
    index = first_job % len(jobs)
    runs, last, min_runs = 0, 0.0, max(1, min_runs)
    start = perf_counter()
    while runs < min_runs or perf_counter() - start + last <= seconds:
        if runs and perf_counter() - start >= stop_after:
            break
        job = jobs[index]
        last, ok = tally.run(job)
        times[job.name].append(last)
        if not ok:
            items[job.name] = 0
        runs += 1
        index = (index + 1) % len(jobs)
    return {"num_jobs": len(jobs), "next_job": index,
            "jobs": [{"name": name, "items": items[name], "s": secs}
                     for name, secs in times.items() if secs]}


def trace_run(workload, tally: Tally, trace_out: Path, seed: int) -> dict:
    from perfbench.tracer import Tracer

    jobs = workload.traced_jobs
    for job in jobs:  # warm-up, so the untraced time is not a cold start
        tally.run(job)
    untraced = sum(tally.run(job)[0] for job in jobs)
    with Tracer() as tracer:
        traced = 0.0
        for index, job in enumerate(jobs):
            tracer.job = index
            traced += tally.run(job, tracer)[0]
        doc = tracer.to_json()
    doc.update({
        "workload": workload.name, "seed": seed, "jobs": [job.name for job in jobs],
        "item": workload.item, "items": sum(job.items for job in jobs),
        "untraced_s": untraced, "traced_s": traced,
    })
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_out, "w", encoding="ascii") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return {"trace_file": str(trace_out)}


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def pinned_digests(workload: str, seed: int, size: str) -> dict:
    """Digests recorded for this seed and size, or none for other seeds."""
    with open(ROOT / "perfbench" / "digests.json", encoding="ascii") as fh:
        recorded = json.load(fh)
    if seed != recorded["seed"]:
        return {}
    return recorded["digests"].get(size, {}).get(workload, {})


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--first-job", type=int, default=0)
    parser.add_argument("--min-runs", type=int, default=1)
    parser.add_argument("--stop-after", type=float, default=HARD_STOP_S)
    parser.add_argument("--trace-out", type=Path)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    start = perf_counter()
    args = parse_args(argv)
    from perfbench import workloads  # imports numpy and aiflow: part of set-up

    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.setup(args.workload, args.seed, args.size, workdir)
        result = {"setup_s": perf_counter() - start}
        tally = Tally(pinned_digests(args.workload, args.seed, args.size))
        if args.trace_out is not None:
            result.update(trace_run(workload, tally, args.trace_out, args.seed))
        else:
            result.update(timed_run(workload, tally, args.seconds, args.first_job,
                                    args.min_runs, min(args.stop_after, HARD_STOP_S)))
        result.update({
            "item": workload.item,
            "attempted": tally.attempted,
            "failures": tally.failures,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "env": environment(),
        })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
