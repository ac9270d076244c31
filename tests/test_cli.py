import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aiflow import cli, specdec
from aiflow.cli import main
from aiflow.errors import (
    AiflowError,
    BudgetTooSmallError,
    ConfigError,
    IncompleteRunError,
    InvalidInputError,
    InvalidRankError,
    InvalidScenarioError,
    InvalidTokenError,
    InvariantViolationError,
    IoError,
    MalformedBitstreamError,
    NotPositiveDefiniteError,
    ProtocolViolationError,
    SchemaError,
    SingularTriangularError,
)
from aiflow.familial import allocate_ranks, whiten
from aiflow.numerics import Rng, svd_reduced
from aiflow.tofc import make_blob_features, save_features


def write_config(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def decompose_config(tmp_path, **overrides):
    doc = {
        "layers": [{"m": 10, "n": 8}, {"m": 6, "n": 12}],
        "num_calib": 32,
        "h_values": [1, 2, 4, 6],
        "seed": 3,
    }
    doc.update(overrides)
    return write_config(tmp_path / "dec.json", doc)


def specdec_config(tmp_path, configs, num_tokens=240, **overrides):
    doc = {
        "vocab_size": 16,
        "embed_dim": 10,
        "context_window": 5,
        "prompt": [1],
        "num_tokens": num_tokens,
        "seed": 12,
        "configs": configs,
    }
    doc.update(overrides)
    return write_config(tmp_path / "spec.json", doc)


def feature_file(tmp_path, num_points=64, dim=6):
    fs = make_blob_features(num_points, dim, 4, Rng(17))
    path = tmp_path / "feats.feat"
    save_features(path, fs)
    return str(path)


def tofc_config(tmp_path, **overrides):
    doc = {
        "features": feature_file(tmp_path),
        "num_centers_sweep": [64, 32, 16, 8],
        "k_neighbors": 4,
        "num_models": 2,
        "seed": 2,
    }
    doc.update(overrides)
    return write_config(tmp_path / "tofc.json", doc)


def specdec_entry(**overrides):
    entry = {"tiers": ["device", "edge"], "gamma": 2,
             "models": {"device": {"layers": 1, "seed": 5}, "edge": {"layers": 2, "seed": 5}}}
    entry.update(overrides)
    return entry


# Each mistyped field is a configuration error (exit 2), not a traceback,
# and the message names the field.
MISTYPED_FIELDS = [
    ("specdec", {"configs": [specdec_entry(gamma="abc")]}, "configs[0].gamma"),
    ("specdec", {"configs": [specdec_entry(tiers=5)]}, "configs[0].tiers"),
    ("specdec", {"configs": [5]}, "configs"),
    ("specdec", {"prompt": 5}, "prompt"),
    ("specdec", {"prompt": ["a"]}, "prompt"),
    ("specdec", {"num_tokens": "x"}, "num_tokens"),
    ("specdec", {"seed": "x"}, "seed"),
    ("decompose", {"layers": [{"m": "x", "n": 8}]}, "layers[0].m"),
    ("decompose", {"layers": [5]}, "layers"),
    ("decompose", {"num_calib": "x"}, "num_calib"),
    ("decompose", {"h_values": ["x"]}, "h_values"),
    ("decompose", {"h_values": 5}, "h_values"),
    ("tofc", {"k_neighbors": "x"}, "k_neighbors"),
    ("tofc", {"num_centers_sweep": ["x"]}, "num_centers_sweep"),
    ("tofc", {"num_models": "x"}, "num_models"),
    ("tofc", {"seed": "x"}, "seed"),
]


@pytest.mark.parametrize(
    "command, overrides, field", MISTYPED_FIELDS,
    ids=[f"{c}-{f}-{i}" for i, (c, _, f) in enumerate(MISTYPED_FIELDS)],
)
def test_mistyped_field_is_config_error_naming_it(tmp_path, capsys, command, overrides, field):
    if command == "specdec":
        overrides = {"num_tokens": 8, **overrides}
        cfg = specdec_config(tmp_path, overrides.pop("configs", [specdec_entry()]), **overrides)
    else:
        cfg = {"decompose": decompose_config, "tofc": tofc_config}[command](tmp_path, **overrides)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    assert f"{field} must be" in capsys.readouterr().err


# A misspelt or foreign top-level key is a configuration error naming it,
# not a silent default; "topology" belongs only to commands that read one.
UNKNOWN_TOP_LEVEL = {
    "decompose": {"sed": 3, "topology": {}},
    "specdec": {"sed": 3, "num_token": 8},
    "tofc": {"sed": 3, "num_model": 3},
    "simulate": {"sed": 3, "scenarios": {}},
}


@pytest.mark.parametrize("command", list(UNKNOWN_TOP_LEVEL))
def test_unknown_top_level_key_rejected(tmp_path, capsys, command):
    extra = UNKNOWN_TOP_LEVEL[command]
    if command == "specdec":
        cfg = specdec_config(tmp_path, [specdec_entry()], num_tokens=8, **extra)
    elif command == "simulate":
        cfg = write_config(tmp_path / "sim.json", {"scenario": {}, **extra})
    else:
        cfg = {"decompose": decompose_config, "tofc": tofc_config}[command](tmp_path, **extra)
    out = tmp_path / "r"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert f"config has unknown fields: {sorted(extra)}" in capsys.readouterr().err
    assert not out.exists()


class TestDecompose:
    def test_sweep_losses_agree_and_decrease(self, tmp_path):
        cfg = decompose_config(tmp_path)
        out = tmp_path / "run"
        assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "decompose.csv")
        assert header == ["layer", "h", "predicted_loss", "measured_loss",
                          "param_ratio"]
        by_layer = {}
        for layer, h, pred, meas, ratio in rows:
            pred, meas = float(pred), float(meas)
            scale = max(abs(pred), abs(meas), 1e-30)
            assert abs(pred - meas) / scale < 1e-8 or pred < 1e-16
            by_layer.setdefault(layer, []).append((int(h), meas))
        for series in by_layer.values():
            ordered = [m for _, m in sorted(series)]
            assert all(a >= b - 1e-9 for a, b in zip(ordered, ordered[1:]))

    def test_budget_matches_direct_allocation(self, tmp_path):
        cfg = decompose_config(tmp_path, budget=50)
        del_cfg = json.loads((tmp_path / "dec.json").read_text())
        del del_cfg["h_values"]
        cfg = write_config(tmp_path / "dec.json", del_cfg)
        out = tmp_path / "run"
        assert main(["decompose", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "decompose.csv")
        sigmas = []
        dims = []
        for i, (m, n) in enumerate([(10, 8), (6, 12)]):
            rng = Rng(3).spawn(i)
            w = rng.normal_matrix(m, n)
            x = rng.normal_matrix(n, 32)
            sigmas.append(svd_reduced(w @ whiten(x, ridge=0.0).s).sigma)
            dims.append((m, n))
        assert [int(r[1]) for r in rows] == allocate_ranks(sigmas, dims, 50)

    def test_missing_field_names_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "dec.json", {"num_calib": 8})
        assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "'layers'" in capsys.readouterr().err

    def test_unknown_layer_field_rejected(self, tmp_path, capsys):
        cfg = decompose_config(tmp_path, layers=[{"m": 4, "n": 3, "h": 2}])
        assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "error: layers[0] has unknown fields: ['h']" in capsys.readouterr().err

    def test_both_sweep_and_budget_rejected(self, tmp_path):
        cfg = decompose_config(tmp_path, budget=50)
        assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "r")]) == 2

    def test_thin_calibration_rejected(self, tmp_path):
        cfg = decompose_config(tmp_path, num_calib=4)
        assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "r")]) == 2

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = decompose_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["decompose", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["decompose", "--config", cfg, "--seed", "9",
                     "--out", str(out_b)]) == 0
        assert (out_a / "decompose.csv").read_bytes() != (
            out_b / "decompose.csv"
        ).read_bytes()
        manifest = json.loads((out_b / "manifest.json").read_text())
        assert manifest["seed"] == 9


class TestSpecdec:
    def identical_pair(self):
        return {
            "mode": "sequential", "tiers": ["device", "edge"], "gamma": 4,
            "models": {"device": {"layers": 2, "seed": 4},
                       "edge": {"layers": 2, "seed": 4}},
        }

    def mixed_pair(self, gamma, mode="sequential"):
        return {
            "mode": mode, "tiers": ["device", "edge"], "gamma": gamma,
            "models": {"device": {"layers": 1, "seed": 4},
                       "edge": {"layers": 3, "seed": 4}},
        }

    def test_identical_tiers_accept_everything(self, tmp_path):
        cfg = specdec_config(tmp_path, [self.identical_pair()])
        out = tmp_path / "run"
        assert main(["specdec", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "specdec.csv")
        assert header == ["mode", "tiers", "gamma", "acceptance_rate",
                          "sim_tokens_per_s", "tv_distance_to_target"]
        assert float(rows[0][3]) == 1.0
        assert float(rows[0][5]) == 0.0

    def test_gamma_sweep_has_stable_acceptance(self, tmp_path):
        cfg = specdec_config(tmp_path, [self.mixed_pair(g) for g in range(1, 9)])
        out = tmp_path / "run"
        assert main(["specdec", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out / "specdec.csv")
        acceptance = [float(r[3]) for r in rows]
        throughput = [float(r[4]) for r in rows]
        mean = sum(acceptance) / len(acceptance)
        assert all(abs(a - mean) < 0.2 for a in acceptance)
        assert len(set(throughput)) > 1
        summary = json.loads((out / "summary.json").read_text())
        assert [s["gamma"] for s in summary] == list(range(1, 9))

    def test_pipelined_and_three_tier_rows(self, tmp_path):
        three = {
            "mode": "sequential", "tiers": ["device", "edge", "cloud"],
            "gamma": 3,
            "models": {"device": {"layers": 1, "seed": 4},
                       "edge": {"layers": 2, "seed": 4},
                       "cloud": {"layers": 3, "seed": 4}},
        }
        cfg = specdec_config(
            tmp_path, [self.mixed_pair(3, mode="pipelined"), three]
        )
        out = tmp_path / "run"
        assert main(["specdec", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_csv(out / "specdec.csv")
        assert rows[0][0] == "pipelined"
        assert rows[1][1] == "device+edge+cloud"
        assert all(0.0 <= float(r[5]) <= 1.0 for r in rows)

    def test_unknown_entry_field_rejected(self, tmp_path, capsys):
        entry = dict(self.mixed_pair(3), mdoe="pipelined")
        cfg = specdec_config(tmp_path, [entry], num_tokens=8)
        out = tmp_path / "r"
        assert main(["specdec", "--config", cfg, "--out", str(out)]) == 2
        assert "configs[0] has unknown fields: ['mdoe']" in capsys.readouterr().err
        assert not (out / "specdec.csv").exists()

    def test_pipelined_three_tier_entry_rejected(self, tmp_path, capsys):
        entry = dict(self.mixed_pair(3, mode="pipelined"), tiers=["device", "edge", "cloud"])
        entry["models"]["cloud"] = {"layers": 3, "seed": 5}
        cfg = specdec_config(tmp_path, [entry], num_tokens=8)
        out = tmp_path / "r"
        assert main(["specdec", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: configs[0]: pipelined mode supports exactly two tiers" in err
        assert not out.exists()

    def test_overflowing_clock_is_config_error(self, tmp_path, capsys):
        # The first entry is fine; the second's 1e308 s per token overflows
        # the clock, and the sweep writes neither summary.json nor a row.
        link = {"latency_s": 1e-3, "bandwidth_bytes_per_s": 1e6}
        topology = {
            "nodes": [{"id": tier, "tier": tier, "compute_cost": {"token": 1e308}}
                      for tier in ("device", "edge")],
            "links": [{"from": "device", "to": "edge", **link, "seed": 1},
                      {"from": "edge", "to": "device", **link, "seed": 2}],
        }
        cfg = specdec_config(tmp_path, [self.mixed_pair(3)], num_tokens=8, topology=topology)
        out = tmp_path / "r"
        assert main(["specdec", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: simulated time overflows float64: costs too large to sum\n"
        assert not out.exists()

    def test_unknown_model_spec_field_rejected(self, tmp_path, capsys):
        entry = self.mixed_pair(3)
        entry["models"]["device"]["exit"] = 3
        cfg = specdec_config(tmp_path, [entry], num_tokens=8)
        assert main(["specdec", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "error: configs[0].models.device has unknown fields: ['exit']" in err

    def test_missing_model_spec_rejected(self, tmp_path, capsys):
        entry = self.identical_pair()
        del entry["models"]["edge"]
        cfg = specdec_config(tmp_path, [entry])
        assert main(["specdec", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "error: configs[0].models is missing field 'edge'" in capsys.readouterr().err

    def test_each_entry_decoded_once(self, tmp_path, monkeypatch):
        calls = []
        for name in ("run_sequential", "run_pipelined"):
            def counted(*args, _run=getattr(specdec, name), _name=name, **kwargs):
                calls.append(_name)
                return _run(*args, **kwargs)
            monkeypatch.setattr(specdec, name, counted)
        entries = [self.mixed_pair(3), self.mixed_pair(3, mode="pipelined")]
        cfg = specdec_config(tmp_path, entries, num_tokens=24)
        assert main(["specdec", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        assert calls == ["run_sequential", "run_pipelined"]

    def test_each_distinct_model_built_once(self, tmp_path, monkeypatch):
        from aiflow import cli

        counts = {"build": 0, "draft": 0}

        def counting(name, fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        monkeypatch.setattr(cli, "build", counting("build", cli.build))
        monkeypatch.setattr(cli, "draft", counting("draft", cli.draft))
        three = {
            "mode": "sequential", "tiers": ["device", "edge", "cloud"], "gamma": 3,
            "models": {"device": {"layers": 1, "seed": 4}, "edge": {"layers": 2, "seed": 4},
                       "cloud": {"layers": 3, "seed": 4}},
        }
        # Seven tier specs over three distinct models; every verifier is the
        # {layers 3, seed 4} model, so one reference decode serves all rows.
        entries = [self.mixed_pair(2), self.mixed_pair(3, mode="pipelined"), three]
        cfg = specdec_config(tmp_path, entries, num_tokens=24)
        assert main(["specdec", "--config", cfg, "--out", str(tmp_path / "all")]) == 0
        assert counts == {"build": 3, "draft": 1}
        _, swept = read_csv(tmp_path / "all" / "specdec.csv")
        for i, entry in enumerate(entries):
            cfg = specdec_config(tmp_path, [entry], num_tokens=24)
            assert main(["specdec", "--config", cfg, "--out", str(tmp_path / f"e{i}")]) == 0
            assert read_csv(tmp_path / f"e{i}" / "specdec.csv")[1] == [swept[i]]

    def test_model_sizes_default_like_simulate(self, tmp_path):
        entries = [self.mixed_pair(3)]
        explicit = specdec_config(tmp_path, entries, num_tokens=24, vocab_size=32,
                                  embed_dim=16, context_window=8)
        assert main(["specdec", "--config", explicit, "--out", str(tmp_path / "a")]) == 0
        doc = json.loads((tmp_path / "spec.json").read_text())
        for key in ("vocab_size", "embed_dim", "context_window"):
            del doc[key]
        defaulted = write_config(tmp_path / "spec.json", doc)
        assert main(["specdec", "--config", defaulted, "--out", str(tmp_path / "b")]) == 0
        for name in ("specdec.csv", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestTofc:
    def test_too_many_points_exit_2(self, tmp_path, capsys):
        # One row past what the DPC-KNN distance budget holds.
        features = tmp_path / "wide.csv"
        features.write_text("".join(f"{i}\n" for i in range(11_586)))
        cfg = tofc_config(tmp_path, features=str(features), num_centers_sweep=[8])
        assert main(["tofc", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: 11586 points need 1073883168 bytes")

    def test_payload_monotone_in_m(self, tmp_path):
        cfg = tofc_config(tmp_path)
        out = tmp_path / "run"
        assert main(["tofc", "--config", cfg, "--out", str(out)]) == 0
        header, rows = read_csv(out / "tofc.csv")
        assert header == ["M", "est_bits", "payload_bytes", "balance",
                          "device_s", "transmit_s", "server_s", "wall_s"]
        payloads = [int(r[2]) for r in rows]
        assert payloads == sorted(payloads, reverse=True)

    def test_more_bandwidth_less_transmit(self, tmp_path):
        def topology(bandwidth):
            return {
                "nodes": [
                    {"id": "device", "tier": "device",
                     "compute_cost": {"token": 0.01, "feature": 2e-4}},
                    {"id": "edge", "tier": "edge",
                     "compute_cost": {"token": 0.03, "decode": 1e-4}},
                ],
                "links": [
                    {"from": "device", "to": "edge", "latency_s": 1e-3,
                     "bandwidth_bytes_per_s": bandwidth, "seed": 1},
                    {"from": "edge", "to": "device", "latency_s": 1e-3,
                     "bandwidth_bytes_per_s": bandwidth, "seed": 2},
                ],
            }

        transmit = []
        for label, bw in (("slow", 1e5), ("fast", 1e8)):
            cfg = tofc_config(tmp_path, topology=topology(bw),
                              num_centers_sweep=[16])
            out = tmp_path / label
            assert main(["tofc", "--config", cfg, "--out", str(out)]) == 0
            _, rows = read_csv(out / "tofc.csv")
            transmit.append(float(rows[0][5]))
        assert transmit[1] < transmit[0]

    def test_num_models_range_checked(self, tmp_path):
        for num_models in (0, 33):
            cfg = tofc_config(tmp_path, num_models=num_models)
            assert main(["tofc", "--config", cfg, "--out", str(tmp_path / "r")]) == 2

    def test_missing_feature_file_is_io_error(self, tmp_path, capsys):
        cfg = tofc_config(tmp_path, features=str(tmp_path / "ghost.feat"))
        assert main(["tofc", "--config", cfg, "--out", str(tmp_path / "r")]) == 3
        assert "ghost.feat" in capsys.readouterr().err

    def test_overflowing_distances_are_invalid_input(self, tmp_path, capsys):
        feats = make_blob_features(64, 6, 4, Rng(17)).features.copy()
        feats[3], feats[7] = 1e200, -1e200
        # FEAT stores f32, whose squared distances cannot overflow float64.
        path = tmp_path / "far.csv"
        np.savetxt(path, feats, delimiter=",", fmt="%.17g")
        cfg = tofc_config(tmp_path, features=str(path))
        assert main(["tofc", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == (
            "error: features are too far apart: a squared pairwise distance "
            "overflows float64\n"
        )

    def test_corrupt_feature_magic_is_io_error(self, tmp_path):
        path = tmp_path / "bad.feat"
        good = feature_file(tmp_path)
        data = bytearray(open(good, "rb").read())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        cfg = tofc_config(tmp_path, features=str(path))
        assert main(["tofc", "--config", cfg, "--out", str(tmp_path / "r")]) == 3


class TestSimulate:
    def sim_config(self, tmp_path, scenario):
        doc = {
            "topology": {
                "nodes": [
                    {"id": "device", "tier": "device",
                     "compute_cost": {"token": 0.01}},
                    {"id": "edge", "tier": "edge",
                     "compute_cost": {"token": 0.03}},
                ],
                "links": [
                    {"from": "device", "to": "edge", "latency_s": 1e-3,
                     "bandwidth_bytes_per_s": 1e7, "jitter_s": 5e-4, "seed": 1},
                    {"from": "edge", "to": "device", "latency_s": 1e-3,
                     "bandwidth_bytes_per_s": 1e7, "jitter_s": 5e-4, "seed": 2},
                ],
            },
            "scenario": scenario,
            "seed": 6,
        }
        return write_config(tmp_path / "sim.json", doc)

    def specdec_scenario(self):
        return {
            "kind": "specdec", "tiers": ["device", "edge"], "gamma": 4,
            "num_tokens": 16, "mode": "sequential", "vocab_size": 16,
            "embed_dim": 10, "context_window": 5,
            "models": {"device": {"layers": 1, "seed": 4},
                       "edge": {"layers": 3, "seed": 4}},
            "prompt": [1],
        }

    def test_two_runs_byte_identical(self, tmp_path):
        cfg = self.sim_config(tmp_path, self.specdec_scenario())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
        for name in ("trace.jsonl", "metrics.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_empty_scenario(self, tmp_path):
        cfg = self.sim_config(tmp_path, {})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "trace.jsonl").read_bytes() == b""
        _, rows = read_csv(out / "metrics.csv")
        assert float(rows[0][1]) == 0.0

    def test_empty_kind_and_extra_keys(self, tmp_path, capsys):
        cfg = self.sim_config(tmp_path, {"kind": "empty"})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "trace.jsonl").read_bytes() == b""
        cfg = self.sim_config(tmp_path, {"kind": "empty", "bogus": 1})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        assert "error: scenario has unknown fields: ['bogus']" in capsys.readouterr().err

    def test_unknown_model_spec_field_rejected(self, tmp_path, capsys):
        scenario = self.specdec_scenario()
        scenario["models"]["device"]["ratio"] = 0.5
        cfg = self.sim_config(tmp_path, scenario)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "error: scenario.models.device has unknown fields: ['ratio']" in err

    def test_pipelined_three_tier_scenario_rejected(self, tmp_path, capsys):
        scenario = dict(self.specdec_scenario(), mode="pipelined",
                        tiers=["device", "edge", "cloud"])
        scenario["models"]["cloud"] = {"layers": 3, "seed": 4}
        cfg = write_config(tmp_path / "sim.json", {"scenario": scenario})  # default topology
        out = tmp_path / "r"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: scenario: pipelined mode supports exactly two tiers" in err
        assert not out.exists()

    def test_unknown_scenario_kind_rejected(self, tmp_path):
        cfg = self.sim_config(tmp_path, {"kind": "teleport"})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "r")]) == 2

    def test_json_format_mirrors_metrics(self, tmp_path):
        cfg = self.sim_config(tmp_path, self.specdec_scenario())
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
        mirrored = json.loads((out / "metrics.json").read_text())
        assert mirrored[0]["tokens_emitted"] == 16


    def test_infinite_compute_cost_is_config_error(self, tmp_path, capsys):
        path = self.sim_config(tmp_path, self.specdec_scenario())
        text = (tmp_path / "sim.json").read_text()
        (tmp_path / "sim.json").write_text(text.replace('"token": 0.03', '"token": 1e400'))
        out = tmp_path / "r"
        assert main(["simulate", "--config", path, "--out", str(out), "--format", "json"]) == 2
        assert "compute cost 'token' must be finite and >= 0" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()


    def test_overflowing_clock_is_config_error(self, tmp_path, capsys):
        # Each cost is finite; two tokens at 1e308 s overflow the clock.
        doc = {"topology": {"nodes": [{"id": "solo", "tier": "edge",
                                       "compute_cost": {"token": 1e308}}], "links": []},
               "scenario": {"kind": "single", "node": "solo", "num_tokens": 2}}
        path = write_config(tmp_path / "sim.json", doc)
        out = tmp_path / "r"
        assert main(["simulate", "--config", path, "--out", str(out), "--format", "json"]) == 2
        assert capsys.readouterr().err == (
            "error: simulated time overflows float64: costs too large to sum\n"
        )
        assert not out.exists()

    def test_negative_link_seed_is_config_error(self, tmp_path, capsys):
        path = self.sim_config(tmp_path, {"kind": "single", "node": "edge", "num_tokens": 3})
        text = (tmp_path / "sim.json").read_text()
        (tmp_path / "sim.json").write_text(text.replace('"seed": 2', '"seed": -1'))
        out = tmp_path / "r"
        assert main(["simulate", "--config", path, "--out", str(out)]) == 2
        assert "link edge->device seed must be >= 0" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()


# The CLI exit code of every error class the library defines.
EXIT_CODES = {
    AiflowError: 2, ConfigError: 2, InvalidInputError: 2, InvalidTokenError: 2,
    InvalidRankError: 2, BudgetTooSmallError: 2, SchemaError: 2, InvalidScenarioError: 2,
    IoError: 3, IncompleteRunError: 3, MalformedBitstreamError: 3,
    InvariantViolationError: 4, ProtocolViolationError: 4, NotPositiveDefiniteError: 4,
    SingularTriangularError: 4,
}
_ERROR_ARGS = {NotPositiveDefiniteError: (1, -0.5), SingularTriangularError: (1, 0.0)}


@pytest.mark.parametrize("error, code", [*EXIT_CODES.items(), (OSError, 3)],
                         ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_error_class_sets_exit_code(tmp_path, capsys, monkeypatch, error, code):
    args = _ERROR_ARGS.get(error, ("broken",))

    def failing(cfg, seed, run):
        raise error(*args)

    monkeypatch.setitem(cli._COMMANDS, "decompose", failing)
    cfg = decompose_config(tmp_path)
    assert main(["decompose", "--config", cfg, "--out", str(tmp_path / "r")]) == code
    assert capsys.readouterr().err == f"error: {error(*args)}\n"


def test_every_error_class_has_a_listed_exit_code():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert set(subclasses(AiflowError)) - set(EXIT_CODES) == set()


# A size numpy cannot index is a configuration error, not numpy's ValueError.
@pytest.mark.parametrize("command", ["decompose", "specdec"])
def test_unindexable_matrix_size_is_config_error(tmp_path, capsys, command):
    if command == "decompose":
        cfg = decompose_config(tmp_path, layers=[{"m": 1e30, "n": 8}])
        size, nbytes = "1000000000000000019884624838656 x 8", 8 * 8 * int(1e30)
    else:
        # The embedding matrix: 2 * vocab_size + layers * embed_dim rows of embed_dim.
        cfg = specdec_config(tmp_path, [specdec_entry()], num_tokens=8, vocab_size=1e30)
        size, nbytes = "2000000000000000039769249677322 x 10", 8 * 10 * (2 * int(1e30) + 10)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == (
        f"error: matrix size {size} needs {nbytes} bytes; one draw holds at most 1073741824\n"
    )


# A draw numpy could index but not allocate is refused against the 2^30-byte
# budget before np.empty runs, so these runs allocate nothing large.
@pytest.mark.parametrize("command, doc, size", [
    ("specdec", {"vocab_size": 2_000_000_000}, (4_000_000_010, 10)),
    ("decompose", {"layers": [{"m": 1_000_000, "n": 1_000_000}], "num_calib": 1_000_000},
     (1_000_000, 1_000_000)),
    # Under DPC-KNN's point limit, so the feature draw is the first to refuse.
    ("simulate", {"scenario": {"kind": "tofc", "num_points": 11_585, "dim": 12_000,
                               "num_centers": 8, "k_neighbors": 4}},
     (11_585, 12_000)),
])
def test_unallocatable_draw_is_config_error(tmp_path, capsys, command, doc, size):
    if command == "specdec":
        cfg = specdec_config(tmp_path, [specdec_entry()], num_tokens=8, **doc)
    elif command == "decompose":
        cfg = decompose_config(tmp_path, **doc)
    else:
        cfg = write_config(tmp_path / "sim.json", doc)
    out = tmp_path / "r"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    rows, cols = size
    assert capsys.readouterr().err == (
        f"error: matrix size {rows} x {cols} needs {rows * cols * 8} bytes; "
        "one draw holds at most 1073741824\n"
    )
    assert not out.exists()


# A tofc scenario over DPC-KNN's point limit is refused before its features
# are drawn: no make_blob_features call, so nothing N-sized is allocated.
@pytest.mark.parametrize("num_points, dim", [(11_586, 1), (12_000, 1000), (100_000_000, 1000)])
def test_scenario_over_the_point_limit_draws_nothing(tmp_path, capsys, monkeypatch,
                                                     num_points, dim):
    drawn = []
    monkeypatch.setattr(cli, "make_blob_features", lambda *args: drawn.append(args))
    doc = {"scenario": {"kind": "tofc", "num_points": num_points, "dim": dim,
                        "num_centers": 8, "k_neighbors": 4}}
    out = tmp_path / "r"
    assert main(["simulate", "--config", write_config(tmp_path / "sim.json", doc),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {num_points} points need {8 * num_points**2} bytes of pairwise distances; "
        "clustering holds at most 1073741824\n"
    )
    assert drawn == []
    assert not out.exists()


def _no_h_values(tmp_path):
    doc = {"layers": [{"m": 10, "n": 8}], "num_calib": 32, "seed": 3}
    return ["decompose", "--config", write_config(tmp_path / "dec.json", doc)], (
        "config is missing field 'h_values' (or 'budget')")


def _list_config(tmp_path):
    path = write_config(tmp_path / "list.json", [1, 2])
    return ["decompose", "--config", path], f"config {path} must hold a JSON object"


def _directory_config(tmp_path):
    return ["decompose", "--config", str(tmp_path)], f"cannot read config {tmp_path}: "


def _no_links(tmp_path):
    nodes = [{"id": role, "tier": role, "compute_cost": {"token": 0.01}}
             for role in ("device", "edge")]
    cfg = specdec_config(tmp_path, [specdec_entry()], num_tokens=8,
                         topology={"nodes": nodes, "links": []})
    return ["specdec", "--config", cfg], "scenario needs a link device->edge"


def _empty_table(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "t.csv").write_text("")
    (run_dir / "manifest.json").write_text(json.dumps({"outputs": ["t.csv"]}))
    return ["report", str(run_dir)], f"{run_dir / 't.csv'} is empty"


# Each case gives (argv without --out, the error after "error: "), its exit
# code, and whether the message is only a prefix (an OS error follows it).
CONFIG_ERRORS = {
    "no-layers": (lambda p: (["decompose", "--config", decompose_config(p, layers=[])],
                             "'layers' must be a non-empty list of {m, n} objects"), 2, False),
    "zero-dimension": (lambda p: (["decompose", "--config",
                                   decompose_config(p, layers=[{"m": 0, "n": 3}])],
                                  "layers[0] dimensions must be positive"), 2, False),
    "no-h-values": (lambda p: (["decompose", "--config", decompose_config(p, h_values=[])],
                               "'h_values' must be non-empty"), 2, False),
    "neither-sweep": (_no_h_values, 2, False),
    "no-centers": (lambda p: (["tofc", "--config", tofc_config(p, num_centers_sweep=[])],
                              "'num_centers_sweep' must be non-empty"), 2, False),
    "list-config": (_list_config, 2, False),
    "directory-config": (_directory_config, 3, True),
    "no-links": (_no_links, 2, False),
    # The model fit's own error, raised as it is.
    "too-many-models": (lambda p: (["simulate", "--config", write_config(
        p / "sim.json", {"scenario": {"kind": "tofc", "num_points": 60, "dim": 5,
                                      "num_centers": 8, "k_neighbors": 4, "num_models": 99}})],
        "num_models must be in [1, N/2] = [1, 30], got 99"), 2, False),
    "empty-table": (_empty_table, 2, False),
}


@pytest.mark.parametrize("case", CONFIG_ERRORS)
def test_config_error_exit_code_and_message(tmp_path, capsys, case):
    make, code, prefix_only = CONFIG_ERRORS[case]
    argv, message = make(tmp_path)
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if prefix_only:
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
    else:
        assert err == f"error: {message}\n"
    assert not out.exists()


class TestReport:
    def test_two_runs_concatenate_with_run_id(self, tmp_path):
        cfg = decompose_config(tmp_path)
        run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
        assert main(["decompose", "--config", cfg, "--out", str(run_a)]) == 0
        assert main(["decompose", "--config", cfg, "--seed", "4",
                     "--out", str(run_b)]) == 0
        merged = tmp_path / "merged"
        assert main(["report", str(run_a), str(run_b), "--out", str(merged)]) == 0
        header, rows = read_csv(merged / "decompose.csv")
        assert header[0] == "run_id"
        assert {r[0] for r in rows} == {"run_a", "run_b"}
        _, a_rows = read_csv(run_a / "decompose.csv")
        _, b_rows = read_csv(run_b / "decompose.csv")
        assert len(rows) == len(a_rows) + len(b_rows)
        assert (merged / "decompose_xy.csv").exists()
        report = json.loads((merged / "report.json").read_text())
        assert report["runs"] == ["run_a", "run_b"]

    def test_single_run_passes_through(self, tmp_path):
        cfg = decompose_config(tmp_path)
        run_a = tmp_path / "run_a"
        assert main(["decompose", "--config", cfg, "--out", str(run_a)]) == 0
        merged = tmp_path / "merged"
        assert main(["report", str(run_a), "--out", str(merged)]) == 0
        assert (merged / "decompose.csv").read_bytes() == (
            run_a / "decompose.csv"
        ).read_bytes()

    def test_report_of_a_report_writes_each_table_once(self, tmp_path):
        cfg = decompose_config(tmp_path)
        run_a, merged, again = tmp_path / "a", tmp_path / "m", tmp_path / "mm"
        assert main(["decompose", "--config", cfg, "--out", str(run_a)]) == 0
        assert main(["report", str(run_a), "--out", str(merged)]) == 0
        assert main(["report", str(merged), "--out", str(again)]) == 0
        outputs = json.loads((again / "manifest.json").read_text())["outputs"]
        assert outputs == json.loads((merged / "manifest.json").read_text())["outputs"]
        assert len(outputs) == len(set(outputs)) and "decompose_xy_xy.csv" not in outputs
        for name in ("decompose.csv", "decompose_xy.csv"):
            assert (again / name).read_bytes() == (merged / name).read_bytes()

    def test_specdec_series_skip_the_string_columns(self, tmp_path):
        # mode and tiers are strings, so gamma, the first numeric column, is x.
        cfg = specdec_config(tmp_path, [specdec_entry(), specdec_entry(gamma=4)], num_tokens=40)
        run_a, merged = tmp_path / "a", tmp_path / "m"
        assert main(["specdec", "--config", cfg, "--out", str(run_a)]) == 0
        assert main(["report", str(run_a), "--out", str(merged)]) == 0
        header, rows = read_csv(run_a / "specdec.csv")
        assert header == ["mode", "tiers", "gamma", "acceptance_rate", "sim_tokens_per_s",
                          "tv_distance_to_target"]
        assert [row[:3] for row in rows] == [["sequential", "device+edge", "2"],
                                             ["sequential", "device+edge", "4"]]
        xy_header, xy_rows = read_csv(merged / "specdec_xy.csv")
        assert xy_header == ["series", "x", "y"]
        assert xy_rows == [[f"{y} vs gamma", row[2], row[j]]
                           for j, y in enumerate(header) if j > 2 for row in rows]

    def test_no_series_without_two_numeric_columns(self, tmp_path):
        # One numeric column (t) or none (u): no y to plot, so no <t>_xy.csv.
        run_a, merged = tmp_path / "a", tmp_path / "m"
        run_a.mkdir()
        (run_a / "t.csv").write_text("name,x\na,1\nb,2\n")
        (run_a / "u.csv").write_text("name,tiers\na,device+edge\n")
        (run_a / "manifest.json").write_text(json.dumps({"outputs": ["t.csv", "u.csv"]}))
        assert main(["report", str(run_a), "--out", str(merged)]) == 0
        outputs = json.loads((merged / "manifest.json").read_text())["outputs"]
        assert outputs == ["report.json", "t.csv", "u.csv"]
        assert sorted(p.name for p in merged.iterdir()) == ["manifest.json", *outputs]

    def test_no_runs_is_a_config_error(self, tmp_path):
        # The command line asks for at least one run; a direct call is refused.
        run = cli.RunDir(tmp_path / "m", None, 0, "csv")
        with pytest.raises(ConfigError, match="^report needs at least one run directory$"):
            cli.cmd_report([], run)
        assert not (tmp_path / "m").exists()

    def test_schema_mismatch_names_columns(self, tmp_path, capsys):
        # a.csv agrees across the runs and is seen first; b.csv does not agree.
        run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
        for run_dir, header in ((run_a, "x,y"), (run_b, "x,z")):
            run_dir.mkdir()
            (run_dir / "a.csv").write_text("x,y\n1,2\n")
            (run_dir / "b.csv").write_text(f"{header}\n1,2\n")
            (run_dir / "manifest.json").write_text(
                json.dumps({"outputs": ["a.csv", "b.csv"], "seed": 0})
            )
        merged = tmp_path / "m"
        assert main(["report", str(run_a), str(run_b), "--out", str(merged)]) == 2
        assert capsys.readouterr().err == (
            "error: b.csv: columns ['x', 'z'] from run run_b do not match ['x', 'y']\n"
        )
        assert not merged.exists()

    @pytest.mark.parametrize("manifest", [
        b"[]",
        b'{"outputs": [3]}',
        b'{"outputs": ["t.csv"], "config": "\xff"}',
        b'{"outputs": "t.csv"}',
        b'{"outputs": ["../x.csv"]}',
        b'{"seed": 0}',
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["list", "non-string-name", "not-utf8", "string-outputs", "path-out", "no-outputs",
            "nested-too-deep"])
    def test_malformed_manifest_is_unreadable(self, tmp_path, capsys, manifest):
        run_a = tmp_path / "run_a"
        run_a.mkdir()
        for table in (run_a / "t.csv", tmp_path / "x.csv"):
            table.write_text("x,y\n1,2\n")
        (run_a / "manifest.json").write_bytes(manifest)
        out = tmp_path / "out"
        assert main(["report", str(run_a), "--out", str(out / "merged")]) == 3
        assert capsys.readouterr().err.startswith(f"error: unreadable manifest in {run_a}: ")
        assert not out.exists()

    @pytest.mark.parametrize("body", [
        b"x,y\n1,\xe9\n",
        b"x,y\n1," + b"9" * 200_000 + b"\n",
    ], ids=["non-ascii", "huge-field"])
    def test_unreadable_table_is_io_error_naming_it(self, tmp_path, capsys, body):
        run_a = tmp_path / "run_a"
        run_a.mkdir()
        (run_a / "t.csv").write_bytes(body)
        (run_a / "manifest.json").write_text(json.dumps({"outputs": ["t.csv"]}))
        merged = tmp_path / "merged"
        assert main(["report", str(run_a), "--out", str(merged)]) == 3
        assert capsys.readouterr().err.startswith(f"error: cannot read table {run_a / 't.csv'}: ")
        assert not merged.exists()

    @pytest.mark.parametrize("second", ["b/run", "a/run"], ids=["same-basename", "same-dir"])
    def test_duplicate_run_ids_rejected_before_output(self, tmp_path, capsys, second):
        cfg = decompose_config(tmp_path)
        for run_dir in dict.fromkeys(["a/run", second]):
            assert main(["decompose", "--config", cfg, "--out", str(tmp_path / run_dir)]) == 0
        first, again = str(tmp_path / "a/run"), str(tmp_path / second)
        merged = tmp_path / "merged"
        assert main(["report", first, again, "--out", str(merged)]) == 2
        assert capsys.readouterr().err == (
            f"error: runs {first} and {again} share the run id 'run'\n"
        )
        assert not merged.exists()

    @pytest.mark.parametrize("cwd, path", [("run_a", "."), (".", "run_a/logs/..")],
                             ids=["dot", "dot-dot"])
    def test_run_id_is_the_resolved_basename(self, tmp_path, monkeypatch, cwd, path):
        run_a = tmp_path / "run_a"
        assert main(["decompose", "--config", decompose_config(tmp_path),
                     "--out", str(run_a)]) == 0
        (run_a / "logs").mkdir()
        monkeypatch.chdir(tmp_path / cwd)
        merged = tmp_path / "merged"
        assert main(["report", path, "--out", str(merged)]) == 0
        assert json.loads((merged / "report.json").read_text())["runs"] == ["run_a"]

    def test_filesystem_root_has_no_run_id(self, tmp_path, capsys):
        root = Path(tmp_path.anchor)
        merged = tmp_path / "merged"
        assert main(["report", str(root), "--out", str(merged)]) == 2
        assert capsys.readouterr().err == (
            f"error: run directory {root} has no name to use as its run id\n"
        )
        assert not merged.exists()

    def test_missing_manifest_is_incomplete_run(self, tmp_path):
        bare = tmp_path / "bare"
        bare.mkdir()
        assert main(["report", str(bare), "--out", str(tmp_path / "m")]) == 3


class TestHarness:
    def test_manifest_lists_every_output(self, tmp_path):
        cfg = tofc_config(tmp_path)
        out = tmp_path / "run"
        assert main(["tofc", "--config", cfg, "--out", str(out),
                     "--format", "json"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        files = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert set(manifest["outputs"]) == files

    def test_config_seed_checked_despite_seed_flag(self, tmp_path, capsys):
        cfg = decompose_config(tmp_path, seed="abc")
        argv = ["decompose", "--config", cfg, "--out", str(tmp_path / "r"), "--seed", "3"]
        assert main(argv) == 2
        assert "error: config.seed must be int, not 'abc'" in capsys.readouterr().err

    def test_rejected_config_leaves_no_out_dir(self, tmp_path):
        # Missing num_tokens fails the read; an empty sweep fails before any output.
        out = tmp_path / "r"
        for doc in ({"configs": [specdec_entry()]}, {"num_tokens": 8, "configs": []}):
            cfg = write_config(tmp_path / "spec.json", doc)
            assert main(["specdec", "--config", cfg, "--out", str(out)]) == 2
            assert not out.exists()

    def test_error_printed_once(self, tmp_path):
        cfg = decompose_config(tmp_path, sed=3)
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "aiflow.cli", "decompose", "--config", cfg,
             "--out", str(tmp_path / "r")],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 2
        assert done.stderr.splitlines() == ["error: config has unknown fields: ['sed']"]

    @pytest.mark.parametrize("text", [
        b'{"num_calib": \xff}',
        b'{"num_calib": 1' + b"0" * 5000 + b"}",
        b'{"num_calib": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
    ], ids=["not-utf8", "int-past-digit-limit", "nested-too-deep"])
    def test_undecodable_config_is_config_error(self, tmp_path, capsys, text):
        path = tmp_path / "broken.json"
        path.write_bytes(text)
        out = tmp_path / "r"
        assert main(["decompose", "--config", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: config {path} is not valid JSON: ")
        assert not out.exists()

    def test_malformed_json_config(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["decompose", "--config", str(path),
                     "--out", str(tmp_path / "r")]) == 2
