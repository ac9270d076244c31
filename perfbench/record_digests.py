"""Record the output digests that runs with the pinned seed are checked against.

    PYTHONPATH=src python3 -m perfbench.record_digests

Runs every job of every workload once, at both input sizes, with seed
``PINNED_SEED``, and writes perfbench/digests.json. Record only from a
commit whose outputs are known good: afterwards any run with that seed
counts a job whose digest differs as a failed operation.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

# Before numpy loads: the timed runs use one BLAS thread too.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from perfbench import WORKLOADS, workloads  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
PINNED_SEED = 0


def record(size: str, workdir: Path) -> dict:
    recorded = {}
    for name in WORKLOADS:
        workload = workloads.setup(name, PINNED_SEED, size, workdir)
        recorded[name] = {job.name: job.check(job.execute(), True) for job in workload.jobs}
    return recorded


def main() -> int:
    workdir = ROOT / ".perfbench" / "record-digests"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        doc = {"seed": PINNED_SEED,
               "digests": {size: record(size, workdir) for size in workloads.SIZES}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(ROOT / "perfbench" / "digests.json", "w", encoding="ascii") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
