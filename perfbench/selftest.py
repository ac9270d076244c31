"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Tiny-size runs of every workload, through the same entry point and worker
processes as the timed runs, plus in-process fault injection into single
jobs. The file name keeps these out of the repository's own test run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as in the benchmark's workers

ROOT = Path(__file__).resolve().parents[1]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

import pytest  # noqa: E402

from aiflow import cli, tofc  # noqa: E402
from perfbench import WORKLOADS, workloads  # noqa: E402
from perfbench.layers import per_layer_metrics  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.worker import Tally, pinned_digests  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
# Per-layer metrics that must repeat exactly: counts, bytes and their ratios.
EXACT_UNITS = {"count", "bytes", "bit/symbol"}
EXACT_RATIOS = {"toylm.positions_per_token", "specdec.accept_ratio"}


def run_bench(workload: str, trace: int) -> tuple[list, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def assert_metrics(lines, result, specs):
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for spec in specs:
        got = result["metrics"][spec["name"]]
        assert got["unit"] == spec["unit"]
        assert any(line.startswith(f"{spec['name']} = ") and line.endswith(f" {spec['unit']}")
                   for line in lines), spec["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_prints_every_end_to_end_metric(workload):
    lines, result = run_bench(workload, 0)
    assert_metrics(lines, result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("ops_failed_ratio = 0 ") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_counts_and_keep_outputs(workload):
    # failed == 0 also means every traced job's outputs matched both the
    # recorded digests and the same job's untraced run.
    first_lines, first = run_bench(workload, 1)
    _, second = run_bench(workload, 1)
    assert_metrics(first_lines, first, SPEC["per_layer"])
    assert second["failed"] == 0
    exact = [m["name"] for m in SPEC["per_layer"]
             if m["unit"] in EXACT_UNITS or m["name"] in EXACT_RATIOS]
    assert {n: first["metrics"][n] for n in exact} == {n: second["metrics"][n] for n in exact}


def run_first_job(name: str, tmp_path: Path) -> Tally:
    workload = workloads.setup(name, 0, "tiny", tmp_path)
    tally = Tally(pinned_digests(name, 0, "tiny"))
    tally.run(workload.jobs[0])
    return tally


@pytest.mark.parametrize("name", WORKLOADS)
def test_unmodified_job_passes_its_pinned_digest(name, tmp_path):
    tally = run_first_job(name, tmp_path)
    assert tally.pinned and tally.attempted == 1 and tally.failures == []


def test_flipped_container_byte_is_a_failed_op(tmp_path, monkeypatch):
    to_bytes = tofc.Bitstream.to_bytes

    def flipped(self):
        blob = bytearray(to_bytes(self))
        blob[-1] ^= 0x01
        return bytes(blob)

    monkeypatch.setattr(tofc.Bitstream, "to_bytes", flipped)
    tally = run_first_job("compress", tmp_path)
    assert tally.attempted == 1 and len(tally.failures) == 1


def test_flipped_stream_token_is_a_failed_op(tmp_path, monkeypatch):
    run_sequential = cli.run_sequential

    def flipped(*args, **kwargs):
        transcript = run_sequential(*args, **kwargs)
        tokens = transcript.emitted_tokens
        tokens[0] = (tokens[0] + 1) % 32
        return transcript

    monkeypatch.setattr(cli, "run_sequential", flipped)
    tally = run_first_job("decode", tmp_path)
    assert tally.attempted == 1 and len(tally.failures) == 1
    assert "differs from the recorded" in tally.failures[0]


def test_vanished_function_reports_missing_not_zero(tmp_path):
    job = workloads.setup("compress", 0, "tiny", tmp_path).jobs[0]
    route = tofc.route
    with Tracer() as tracer:
        tracer.active = True
        job.execute()
        tracer.active = False
    assert tofc.route is route  # uninstall restored every binding
    doc = {**tracer.to_json(), "item": "features", "items": job.items,
           "untraced_s": 1.0, "traced_s": 1.0}
    for entry in doc["functions"]:
        if entry["name"] == "tofc.route":
            entry["name"] = "tofc.route_renamed"
    values, missing = per_layer_metrics(doc)
    assert "tofc.route.self_s" in missing and "tofc.route.self_s" not in values
    assert values["tofc.estimate_rate.calls"] > 0
