"""The benchmark's pinned outputs: every job at the pinned seed matches digests.json.

perfbench/digests.json was recorded from a known-good commit; a benchmark
run at that seed counts a job whose digest differs as a failed operation.
This runs every job of each workload once, in-process, at both input sizes,
so a change to any output the benchmark checks fails here first.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import WORKLOADS, workloads  # noqa: E402

PINNED = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="ascii"))


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("size", sorted(workloads.SIZES))
def test_every_job_matches_its_pinned_digest(size, name, tmp_path):
    workload = workloads.setup(name, PINNED["seed"], size, tmp_path)
    got = {job.name: job.check(job.execute(), True) for job in workload.jobs}
    assert got == PINNED["digests"][size][name]
