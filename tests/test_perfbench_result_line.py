"""The benchmark's result line: each run mode ends with one strict-JSON result.

The last line perfbench/run.py prints is the result a caller of the
benchmark reads. A run that exits 0 but ends with anything else, or with a
NaN or infinite metric (json.dumps writes those as NaN and Infinity, which
strict JSON has no words for), leaves nothing to compare. Neither does a
metric that is missing from it, as when a traced function or a hook
attribute is gone. This runs the benchmark as a subprocess at size tiny,
traced for both workloads and timed for compress, reads its last line as
strict JSON, and checks that it names every metric BENCHMARK.json declares
for that kind of run: the per_layer ones when traced, the end_to_end ones
when timed. A traced compress run also checks that the range coder was
called once per symbol and once per raw escape bit.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def reject_constant(name):
    raise ValueError(f"result line holds the non-JSON constant {name}")


@pytest.mark.parametrize(
    "args",
    [
        ["--workload", "decode", "--trace", "1"],
        ["--workload", "compress", "--trace", "1"],
        ["--workload", "compress", "--seconds", "1"],
    ],
    ids=["decode-traced", "compress-traced", "compress-timed"],
)
def test_last_line_is_a_strict_json_result(args):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--size", "tiny", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr
    result = json.loads(lines[-1], parse_constant=reject_constant)
    assert result["correct"] is True, proc.stdout
    assert result["metrics"]
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
    kind = "per_layer" if "--trace" in args else "end_to_end"
    missing = [m["name"] for m in DECLARED[kind] if m["name"] not in result["metrics"]]
    assert not missing, (kind, missing)
    if kind == "per_layer" and "compress" in args:
        # The coder still codes one symbol (or one raw escape bit) per call,
        # so its call counts keep measuring the coding loops.
        value = {name: metric["value"] for name, metric in result["metrics"].items()}
        calls = value["tofc.symbols"] + 32 * value["tofc.escapes"]
        assert value["rangecoder.encode.calls"] == value["rangecoder.decode.calls"] == calls
