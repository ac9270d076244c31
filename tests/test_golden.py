"""Golden outputs: sha256 digests of run files, pinned across commits.

Criterion 9 only compares two runs of the same code; these digests compare
today's bytes with bytes recorded from an earlier version of the program.
They were recorded before the protocol stopped keeping time and one netsim
scheduler took over both decode modes, so they show that both changes kept
sequential traces and metrics, and zero-jitter pipelined traces, byte for
byte. The TOFC digest was recorded before every code length and coding
table came to be read from one bin-mass table per model dimension. The
long-prompt specdec digests were recorded while each verifier still ran one
forward per drafted position, before it scored a batch in one stacked
forward; its prompt outruns the context window, so every verified batch
takes the full-window gather, while criterion 9's one-token prompt also
takes the partial windows. The single-tier, collab and TOFC scenario
digests were recorded while each run still kept its event log in an object
apart from its link state, and the single-tier runner built its metrics
record field by field. A digest
that changes means program output changed: update it only together with a
note on what changed and why.
"""

import hashlib
import json

import numpy as np
import pytest

from aiflow.cli import main
from aiflow.numerics import Rng
from aiflow.tofc import FeatureSet, make_blob_features, save_features


def _link(src, dst, latency, bandwidth, jitter, seed):
    return {"from": src, "to": dst, "latency_s": latency,
            "bandwidth_bytes_per_s": bandwidth, "jitter_s": jitter, "seed": seed}


# The `simulate` example from the README: pipelined, zero jitter.
README_SIMULATE = {
    "topology": {
        "nodes": [
            {"id": "device", "tier": "device", "compute_cost": {"token": 0.010}},
            {"id": "edge", "tier": "edge", "compute_cost": {"token": 0.030}},
        ],
        "links": [
            {"from": "device", "to": "edge",
             "latency_s": 0.001, "bandwidth_bytes_per_s": 1e7, "seed": 1},
            {"from": "edge", "to": "device",
             "latency_s": 0.001, "bandwidth_bytes_per_s": 1e7, "seed": 2},
        ],
    },
    "scenario": {"kind": "specdec", "tiers": ["device", "edge"],
                 "gamma": 4, "num_tokens": 40, "mode": "pipelined",
                 "models": {"device": {"layers": 1, "seed": 5},
                            "edge": {"layers": 3, "seed": 5}}},
    "seed": 7,
}

# Three tiers, sequential, with jitter larger than the link latencies.
JITTERED_SEQUENTIAL = {
    "topology": {
        "nodes": [
            {"id": "device", "tier": "device", "compute_cost": {"token": 0.010}},
            {"id": "edge", "tier": "edge", "compute_cost": {"token": 0.030}},
            {"id": "cloud", "tier": "cloud", "compute_cost": {"token": 0.050}},
        ],
        "links": [
            _link("device", "edge", 0.002, 1e7, 0.003, 1),
            _link("edge", "device", 0.002, 1e7, 0.003, 2),
            _link("edge", "cloud", 0.005, 1e8, 0.004, 3),
            _link("cloud", "edge", 0.005, 1e8, 0.004, 4),
        ],
    },
    "scenario": {"kind": "specdec", "tiers": ["device", "edge", "cloud"],
                 "gamma": 3, "num_tokens": 30, "mode": "sequential",
                 "models": {"device": {"layers": 1, "seed": 4},
                            "edge": {"layers": 2, "seed": 4},
                            "cloud": {"layers": 3, "seed": 4}},
                 "prompt": [1, 2]},
    "seed": 11,
}

# The specdec config of acceptance criterion 9.
CRITERION_9_SPECDEC = {
    "vocab_size": 16, "embed_dim": 10, "context_window": 5,
    "prompt": [1], "num_tokens": 120, "seed": 12,
    "configs": [{"mode": "sequential", "tiers": ["device", "edge"], "gamma": 4,
                 "models": {"device": {"layers": 1, "seed": 4},
                            "edge": {"layers": 3, "seed": 4}}}],
}

# Three tiers sequential at gamma 5 and two tiers pipelined at gamma 3,
# from a 17-token prompt over a 6-token context window.
LONG_PROMPT_SPECDEC = {
    "vocab_size": 24, "embed_dim": 12, "context_window": 6,
    "prompt": [(7 * i + 3) % 24 for i in range(17)], "num_tokens": 90, "seed": 23,
    "configs": [
        {"mode": "sequential", "tiers": ["device", "edge", "cloud"], "gamma": 5,
         "models": {"device": {"layers": 1, "seed": 6}, "edge": {"layers": 2, "seed": 6},
                    "cloud": {"layers": 4, "seed": 6}}},
        {"mode": "pipelined", "tiers": ["device", "edge"], "gamma": 3,
         "models": {"device": {"layers": 1, "seed": 6}, "edge": {"layers": 3, "seed": 6}}},
    ],
}

_TIERED_NODES = [
    {"id": "device", "tier": "device",
     "compute_cost": {"token": 0.010, "feature": 2e-4}},
    {"id": "edge", "tier": "edge",
     "compute_cost": {"token": 0.030, "decode": 1e-4, "aggregate": 0.004}},
]

# Autoregressive decoding on the edge node alone.
SINGLE_TIER = {
    "topology": {"nodes": _TIERED_NODES, "links": []},
    "scenario": {"kind": "single", "node": "edge", "num_tokens": 25},
    "seed": 3,
}

# Three devices around the edge server, each link jittered past its latency.
COLLAB_JITTERED = {
    "topology": {
        "nodes": [
            {"id": "edge", "tier": "edge", "compute_cost": {"token": 0.030, "aggregate": 0.004}},
            *({"id": f"device_{i}", "tier": "device", "compute_cost": {"token": 0.010}}
              for i in range(3)),
        ],
        "links": [
            link
            for i in range(3)
            for link in (
                _link("edge", f"device_{i}", 0.001 * (i + 1), 1e7, 0.0015 * (i + 1), 2 * i + 1),
                _link(f"device_{i}", "edge", 0.001 * (i + 1), 1e6, 0.002, 2 * i + 2),
            )
        ],
    },
    "scenario": {"kind": "collab", "num_devices": 3, "response_bytes": 2048},
    "seed": 9,
}

# Feature compression on the device, uplinked over a jittered link.
TOFC_SCENARIO = {
    "topology": {
        "nodes": _TIERED_NODES,
        "links": [_link("device", "edge", 0.002, 1e6, 0.001, 1),
                  _link("edge", "device", 0.002, 1e6, 0.001, 2)],
    },
    "scenario": {"kind": "tofc", "num_points": 60, "dim": 5, "num_groups": 3,
                 "num_centers": 8, "k_neighbors": 4, "num_models": 2},
    "seed": 13,
}

GOLDEN = [
    ("simulate", README_SIMULATE, "trace.jsonl",
     "3c969b9e33233a5058f67c0aed351e54bef8584bf9d769110ccc7d63ff376360"),
    ("simulate", JITTERED_SEQUENTIAL, "trace.jsonl",
     "ee275303b3ad57e115894ed87ecffb49a52bb801a215c139bd96faacd114ee69"),
    ("simulate", JITTERED_SEQUENTIAL, "metrics.csv",
     "0ca4916feb4f65abaad9ef77537bb0dfb998e4f3484561ebf5d7f920400861d3"),
    ("specdec", CRITERION_9_SPECDEC, "specdec.csv",
     "937118aa7eef1618f4168c5880d0a67bddaa5f78d6042683feeb0c7d66e2d93d"),
    ("specdec", CRITERION_9_SPECDEC, "summary.json",
     "324ef3060bef63610bcacbb09617533ba8d7f659577ca35e6906af46b5e695f7"),
    ("specdec", LONG_PROMPT_SPECDEC, "specdec.csv",
     "6d0fbb3db24830eb52225a52a89707541c4b34efb17c0daf5c8aa297a96ccbf4"),
    ("specdec", LONG_PROMPT_SPECDEC, "summary.json",
     "021658267939e09dbd73c5008bbf5ef565683b2c3ca5fb16da4001b23f105b3c"),
    ("simulate", SINGLE_TIER, "trace.jsonl",
     "1949ef601530bdf5a8fb545ddde186eb8a7505c5965d85ae86ed1fca005c698b"),
    ("simulate", SINGLE_TIER, "metrics.csv",
     "aeb5e59dbcf67de2be39d21e02c0cce27b6b637ac76225346edab10eac686ce8"),
    ("simulate", COLLAB_JITTERED, "trace.jsonl",
     "2252993594ff1dfa36aadfed29b9a7de4cecc72ab5d31961c38827f2b587fd03"),
    ("simulate", COLLAB_JITTERED, "metrics.csv",
     "99f768b0292f208ef1a65186382c83db4f6672e7eb96e470a18f25bf95f56874"),
    ("simulate", TOFC_SCENARIO, "trace.jsonl",
     "75c6ef69aeafd42ce617cdbf9dd588fa830c2a4f2891d0914dd2bec668c7f79a"),
    ("simulate", TOFC_SCENARIO, "metrics.csv",
     "3d698b532cecb4e7d9de853e15fa0ab8f412dfc2300315b566e0aeff34909c0f"),
]


@pytest.mark.parametrize(
    "command, config, output, digest",
    GOLDEN,
    ids=["readme-simulate-trace", "jittered-sequential-trace",
         "jittered-sequential-metrics", "criterion-9-specdec-csv",
         "criterion-9-summary", "long-prompt-specdec-csv", "long-prompt-summary",
         "single-tier-trace", "single-tier-metrics", "collab-jittered-trace",
         "collab-jittered-metrics", "tofc-scenario-trace", "tofc-scenario-metrics"],
)
def test_output_matches_pinned_digest(tmp_path, command, config, output, digest):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "run"
    assert main([command, "--config", str(path), "--out", str(out)]) == 0
    assert hashlib.sha256((out / output).read_bytes()).hexdigest() == digest


# Every eighth feature row scaled 300x, so its symbols fall outside the
# models' q_range and are coded as escapes; M=N routes every row on its own.
TOFC_SWEEP = {"num_centers_sweep": [4, 12, 48], "k_neighbors": 4, "num_models": 3, "seed": 5}
TOFC_CSV_DIGEST = "0b7e8ebb2cb811096bd065c065f4c3fb81d2828b60cb6526980a0a16618be2bd"


def test_tofc_output_matches_pinned_digest(tmp_path):
    blobs = make_blob_features(48, 6, 3, Rng(3))
    scale = np.where(np.arange(48) % 8 == 5, 300.0, 1.0)
    save_features(tmp_path / "feats.bin", FeatureSet(features=blobs.features * scale[:, None]))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TOFC_SWEEP, "features": str(tmp_path / "feats.bin")}))
    out = tmp_path / "run"
    assert main(["tofc", "--config", str(path), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "tofc.csv").read_bytes()).hexdigest() == TOFC_CSV_DIGEST
