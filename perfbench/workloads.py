"""The benchmark's workloads: seeded inputs, jobs and output checks.

Every workload is a closed loop with one client: a single process runs its
jobs back to back, with no threads, and each job waits for the previous one.
A workload's inputs are made in ``setup`` from the benchmark seed alone;
the program sees only those generated inputs (config files, topologies and
feature files written under the work directory).

decode
    105 jobs of two kinds, the long-context runs spread evenly among the
    family jobs.

    Five long-context runs: in-process ``aiflow specdec``, each a sweep of
    three pinned configs (2-tier sequential gamma 4, 2-tier pipelined
    gamma 3, 3-tier sequential gamma 6) over 32 tokens on jittered links.
    Each run has its own seeded 1,216-token prompt, so every decoded
    position sees a context of 1,216 to about 1,260 tokens, where the
    per-position context check and the CLI's repeated decodes dominate.

    100 family jobs: nine in ten build a 6-layer verifier, whiten its
    exit-2 activations, attach a half-ratio branch and let that branch
    draft 64 tokens for the full model through netsim; every tenth job is an
    in-process ``aiflow decompose`` run under a rank budget. Contexts stay
    short, so numerics and familial carry the cost.
compress
    Three TOFC jobs, each device-side ``tofc_pipeline`` followed by the
    server side (container to bytes and back, then ``tofc.decode``): no
    merging (N = M = 256, d 32, where routing and the range coder carry
    the cost), heavy merging (N 1024, d 16, M = N/8, where clustering does)
    and 2% outlier rows scaled by 400 (N 384, d 32, M 96) whose escapes
    take the raw 32-bit coder path. The sizes keep each job under about
    1.5 seconds, so a run repeats every job many times.

Each job returns its output untimed to ``check``, which raises CheckFailed
or returns a digest of the fields the check covers. For the pinned seed the
runner also compares digests recorded from a known-good commit
(``digests.json``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from aiflow import cli, familial, netsim, specdec, tofc, toylm
from aiflow.numerics import Rng

# Traffic dimensions per input size. "tiny" exists for the benchmark's own
# tests; the timed workloads always use "full".
SIZES = {
    "full": {
        "decode": {
            "long": {"jobs": 5, "prompt": 1216, "tokens": 32, "traced_jobs": 2},
            "family": {"jobs": 100, "tokens": 64, "calib": 256, "traced_jobs": 20,
                       "layers": ((48, 32), (32, 48), (40, 40)), "num_calib": 64,
                       "budget": 2000},
        },
        # (N, d, M, E, outlier share)
        "compress": {"jobs": ((256, 32, 256, 3, 0.0), (1024, 16, 128, 2, 0.0),
                              (384, 32, 96, 4, 0.02))},
    },
    "tiny": {
        "decode": {
            "long": {"jobs": 2, "prompt": 24, "tokens": 16, "traced_jobs": 1},
            "family": {"jobs": 10, "tokens": 16, "calib": 64, "traced_jobs": 10,
                       "layers": ((12, 8), (8, 12)), "num_calib": 16, "budget": 100},
        },
        "compress": {"jobs": ((96, 8, 96, 3, 0.0), (128, 8, 16, 2, 0.0),
                              (100, 8, 32, 4, 0.05))},
    },
}

_COSTS = {"device": 0.010, "edge": 0.030, "cloud": 0.050}
_LINKS = (("device", "edge", 1e-3, 1e7), ("edge", "device", 1e-3, 1e7),
          ("edge", "cloud", 2e-3, 1e8), ("cloud", "edge", 2e-3, 1e8))


class CheckFailed(Exception):
    """A job's output failed one of the benchmark's checks."""


@dataclass
class Job:
    """One unit of work: ``execute`` is timed, ``check`` is not.

    ``check(output, thorough)`` returns a digest of the checked fields;
    ``thorough`` asks for the expensive checks, which the runner requests
    the first time a job runs in a process.
    """

    name: str
    items: int
    execute: Callable[[], object]
    check: Callable[[object, bool], str]


@dataclass
class Workload:
    name: str
    item: str  # what items_per_s counts: "tokens" or "features"
    jobs: list
    traced_jobs: list


def digest(obj) -> str:
    """Short stable digest of a JSON-serialisable value (floats by repr)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def _topology_doc(rnd: random.Random, tiers) -> dict:
    """Topology over the given tiers; every link jitters by a quarter of its latency."""
    return {
        "nodes": [{"id": t, "tier": t, "compute_cost": {"token": _COSTS[t]}} for t in tiers],
        "links": [
            {"from": a, "to": b, "latency_s": lat, "bandwidth_bytes_per_s": bw,
             "jitter_s": lat / 4, "seed": rnd.randrange(1 << 16)}
            for a, b, lat, bw in _LINKS if a in tiers and b in tiers
        ],
    }


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=1), encoding="ascii")
    return path


def _require_run_dir(rc, out: Path, command: str):
    if rc != 0:
        raise CheckFailed(f"aiflow {command} exited with {rc}")
    if not (out / "manifest.json").is_file():
        raise CheckFailed(f"aiflow {command} wrote no manifest.json")


def _read_csv(path: Path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.DictReader(fh))


def _cli_job(name, items, command, config_path: Path, out: Path, check_outputs):
    """A job that runs one aiflow subcommand in-process on a written config."""

    def execute():
        return cli.main([command, "--config", str(config_path), "--out", str(out)])

    def check(rc, thorough):
        try:
            _require_run_dir(rc, out, command)
            return check_outputs(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    return Job(name, items, execute, check)


def _long_context_jobs(seed: int, dims: dict, workdir: Path) -> list:
    rnd = random.Random(f"decode-long:{seed}")
    models = {"device": {"layers": 2, "seed": 11}, "edge": {"layers": 4, "seed": 12},
              "cloud": {"layers": 6, "seed": 13}}

    def entry(tiers, gamma, mode):
        return {"tiers": list(tiers), "gamma": gamma, "mode": mode,
                "models": {t: models[t] for t in tiers}}

    sweep = [
        entry(("device", "edge"), 4, "sequential"),
        entry(("device", "edge"), 3, "pipelined"),
        entry(("device", "edge", "cloud"), 6, "sequential"),
    ]

    def check_outputs(out: Path):
        rows = _read_csv(out / "specdec.csv")
        summary = json.loads((out / "summary.json").read_text(encoding="ascii"))
        if len(rows) != len(sweep) or len(summary) != len(sweep):
            raise CheckFailed(f"expected {len(sweep)} sweep entries")
        fields = []
        for row, item in zip(rows, summary):
            metrics = item["metrics"]
            if metrics["tokens_emitted"] != dims["tokens"]:
                raise CheckFailed(
                    f"{row['tiers']} emitted {metrics['tokens_emitted']} tokens, "
                    f"asked for {dims['tokens']}"
                )
            fields.append([
                row["acceptance_rate"], row["tv_distance_to_target"],
                metrics["acceptance_rate"], metrics["tokens_emitted"],
                metrics["bytes_up"], metrics["bytes_down"], item["tv_distance_to_target"],
            ])
        return digest(fields)

    jobs = []
    for j in range(dims["jobs"]):
        config = {
            "vocab_size": 32, "embed_dim": 16, "context_window": 8,
            "num_tokens": dims["tokens"],
            "prompt": [rnd.randrange(32) for _ in range(dims["prompt"])],
            "seed": rnd.randrange(1 << 32),
            "topology": _topology_doc(rnd, ("device", "edge", "cloud")),
            "configs": sweep,
        }
        path = _write_json(workdir / f"specdec-{j}.json", config)
        jobs.append(_cli_job(f"specdec-{j}", len(sweep) * dims["tokens"], "specdec", path,
                             workdir / f"specdec-{j}-out", check_outputs))
    return jobs


def _family_decode_job(name, dims, topology, rnd: random.Random, gamma, mode) -> Job:
    model_seed = rnd.randrange(1 << 32)
    calib_seed = rnd.randrange(1 << 32)
    run_seed = rnd.randrange(1 << 32)
    prompt = [rnd.randrange(64) for _ in range(4)]
    tokens = dims["tokens"]

    def execute():
        lm = toylm.build(toylm.ToyLmConfig(
            vocab_size=64, embed_dim=32, num_layers=6, context_window=8, seed=model_seed))
        acts = toylm.calibration_activations(lm, 2, num_contexts=dims["calib"], seed=calib_seed)
        lm = toylm.attach_branch(lm, 2, 0.5, familial.whiten(acts))
        models = {"device": toylm.LmDecoder(lm, 2), "edge": toylm.LmDecoder(lm)}
        proto = specdec.ProtocolConfig(
            draft_len=gamma, tiers=("device", "edge"),
            per_token_compute_cost={t: _COSTS[t] for t in ("device", "edge")}, mode=mode)
        trace, metrics = netsim.run_specdec_scenario(
            topology, proto, models, prompt, tokens, run_seed)
        return metrics, netsim.serialize_trace(trace)

    def check(output, thorough):
        metrics, trace_bytes = output
        if metrics.tokens_emitted != tokens:
            raise CheckFailed(f"emitted {metrics.tokens_emitted} tokens, asked for {tokens}")
        if not trace_bytes:
            raise CheckFailed("empty trace")
        return digest([metrics.acceptance_rate, metrics.tokens_emitted,
                       metrics.bytes_up, metrics.bytes_down])

    return Job(name, tokens, execute, check)


def _family_jobs(seed: int, dims: dict, workdir: Path) -> list:
    rnd = random.Random(f"family-sweep:{seed}")
    topology = netsim.topology_from_dict(_topology_doc(rnd, ("device", "edge")))
    jobs = []
    decodes = 0
    for j in range(dims["jobs"]):
        name = f"job-{j:03d}"
        if j % 10 == 9:
            config = {"layers": [{"m": m, "n": n} for m, n in dims["layers"]],
                      "num_calib": dims["num_calib"], "budget": dims["budget"],
                      "seed": rnd.randrange(1 << 32)}
            path = _write_json(workdir / f"decompose-{j:03d}.json", config)
            expected = len(dims["layers"])

            def check_outputs(out: Path, expected=expected):
                rows = _read_csv(out / "decompose.csv")
                if len(rows) != expected:
                    raise CheckFailed(f"decompose wrote {len(rows)} rows, expected {expected}")
                return digest([[r["layer"], r["h"], r["param_ratio"]] for r in rows])

            jobs.append(_cli_job(name, 0, "decompose", path,
                                 workdir / f"decompose-{j:03d}-out", check_outputs))
        else:
            gamma = (2, 4, 6)[decodes % 3]
            mode = ("sequential", "pipelined")[decodes % 2]
            jobs.append(_family_decode_job(name, dims, topology, rnd, gamma, mode))
            decodes += 1
    return jobs


def _decode(seed: int, size: str, workdir: Path) -> Workload:
    """Family jobs with the long-context runs spread evenly among them."""
    dims = SIZES[size]["decode"]
    long_jobs = _long_context_jobs(seed, dims["long"], workdir)
    family = _family_jobs(seed, dims["family"], workdir)
    step = len(family) // len(long_jobs)
    jobs = []
    for i, job in enumerate(long_jobs):
        jobs.append(job)
        jobs.extend(family[i * step: (i + 1) * step if i + 1 < len(long_jobs) else None])
    traced = (long_jobs[: dims["long"]["traced_jobs"]]
              + family[: dims["family"]["traced_jobs"]])
    return Workload("decode", "tokens", jobs, traced)


def _compress_features(n, d, outlier_share, rnd: random.Random, path: Path):
    """Seeded blob features, outlier rows scaled by 400, stored as a FEAT file."""
    fs = tofc.make_blob_features(n, d, 8, Rng(rnd.randrange(1 << 32)))
    feats = fs.features.copy()
    outliers = rnd.sample(range(n), round(outlier_share * n))
    feats[outliers] *= 400.0
    tofc.save_features(path, tofc.FeatureSet(features=feats))
    return tofc.load_features(path)


def _compress_job(name, fs, m, num_models) -> Job:
    rows = np.arange(fs.count)
    models = tuple(
        tofc.fit_laplacian(fs.features[rows % num_models == e], e, q_range=255)
        for e in range(num_models)
    )
    cfg = tofc.TofcConfig(num_centers=m, k_neighbors=4, models=models)

    def execute():
        bs, stats = tofc.tofc_pipeline(fs, cfg)
        blob = bs.to_bytes()
        received = tofc.Bitstream.from_bytes(blob)
        return blob, received, tofc.decode(received, models), stats

    def check(output, thorough):
        blob, received, symbols, stats = output
        if stats["M"] != m or symbols.shape != (m, fs.dim):
            raise CheckFailed(f"decoded {symbols.shape}, expected ({m}, {fs.dim})")
        if thorough:
            again = tofc.encode(symbols, models, received.model_ids)
            if again.payload != received.payload:
                raise CheckFailed("re-encoding the decoded symbols changed the payload")
        return digest([hashlib.sha256(blob).hexdigest(),
                       hashlib.sha256(symbols.astype("<i8").tobytes()).hexdigest()])

    return Job(name, fs.count, execute, check)


def _compress(seed: int, size: str, workdir: Path) -> Workload:
    rnd = random.Random(f"compress:{seed}")
    jobs = []
    for n, d, m, num_models, outlier_share in SIZES[size]["compress"]["jobs"]:
        name = f"n{n}-d{d}-m{m}-e{num_models}"
        fs = _compress_features(n, d, outlier_share, rnd, workdir / f"{name}.feat")
        jobs.append(_compress_job(name, fs, m, num_models))
    return Workload("compress", "features", jobs, jobs)


_BUILDERS = {"decode": _decode, "compress": _compress}


def setup(name: str, seed: int, size: str, workdir: Path) -> Workload:
    """Generate a workload's inputs under workdir and return its jobs."""
    return _BUILDERS[name](seed, size, workdir)
