import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from aiflow import cli
from aiflow.cli import (
    _MODEL_SPEC_FIELDS,
    _SCENARIO_FIELDS,
    MODEL_DEFAULTS,
    decode_setup,
    run_scenario,
)
from aiflow.config import REQUIRED, read_fields
from aiflow.errors import InvalidInputError, InvalidScenarioError
from aiflow.netsim import (
    _LINK_FIELDS,
    _NODE_FIELDS,
    _Net,
    FRAME_BYTES,
    TOKEN_BYTES,
    LinkSpec,
    NodeSpec,
    Topology,
    default_topology,
    run_device_server_collab,
    run_single_tier_scenario,
    run_specdec_scenario,
    run_tofc_scenario,
    schedule_specdec,
    serialize_trace,
    topology_from_dict,
    transmit_time,
)
from aiflow.numerics import Rng
from aiflow.specdec import ProtocolConfig, run_pipelined, run_protocol
from aiflow.tofc import TofcConfig, fit_laplacian, make_blob_features

from conftest import FixedModel, TableModel

SCHEMA = Path(__file__).resolve().parents[1] / "docs" / "schemas" / "scenario.schema.json"


def two_node_topology(latency=1e-3, bandwidth=1e7, jitter=0.0):
    return Topology(
        nodes=(
            NodeSpec(id="device", tier="device",
                     compute_cost={"token": 0.010, "feature": 2e-4}),
            NodeSpec(id="edge", tier="edge",
                     compute_cost={"token": 0.030, "decode": 1e-4}),
        ),
        links=(
            LinkSpec("device", "edge", latency, bandwidth, jitter, 1),
            LinkSpec("edge", "device", latency, bandwidth, jitter, 2),
        ),
    )


def star_topology(num_devices, latencies=None):
    """One edge server linked both ways to each of device_0..device_{n-1}."""
    nodes = [NodeSpec(id="edge", tier="edge", compute_cost={"token": 0.030, "aggregate": 0.0})]
    links = []
    for i, lat in enumerate(latencies or [1e-3] * num_devices):
        dev = f"device_{i}"
        nodes.append(NodeSpec(id=dev, tier="device", compute_cost={"token": 0.010}))
        links += [LinkSpec("edge", dev, lat, 1e7, 0.0, 2 * i + 1),
                  LinkSpec(dev, "edge", lat, 1e7, 0.0, 2 * i + 2)]
    return Topology(nodes=tuple(nodes), links=tuple(links))


def specdec_scenario(mode="sequential", gamma=4, num_tokens=40):
    return {
        "kind": "specdec",
        "tiers": ["device", "edge"],
        "gamma": gamma,
        "num_tokens": num_tokens,
        "mode": mode,
        "vocab_size": 24,
        "embed_dim": 12,
        "context_window": 6,
        "models": {"device": {"layers": 1, "seed": 5},
                   "edge": {"layers": 3, "seed": 5}},
        "prompt": [1, 2],
    }


class TestTransmitTime:
    def test_zero_bytes_zero_jitter_is_latency(self):
        link = LinkSpec("a", "b", 0.010, 1e6, 0.0, 0)
        t = transmit_time(0, link, Rng(1))
        assert t == 0.010

    def test_serialization_adds_bytes_over_bandwidth(self):
        link = LinkSpec("a", "b", 0.010, 1e6, 0.0, 0)
        t = transmit_time(1000, link, Rng(1))
        assert t == pytest.approx(0.011, rel=1e-12)

    def test_jitter_bounds(self):
        link = LinkSpec("a", "b", 0.010, 1e6, 0.002, 0)
        rng = Rng(7)
        for _ in range(500):
            t = transmit_time(1000, link, rng)
            assert 0.009 <= t <= 0.013
        rng = Rng(8)
        for _ in range(500):
            t = transmit_time(0, link, rng)
            assert 0.008 <= t <= 0.012

    def test_negative_bytes_rejected(self):
        link = LinkSpec("a", "b", 0.010, 1e6, 0.0, 0)
        with pytest.raises(InvalidInputError):
            transmit_time(-1, link, Rng(1))


class TestTopology:
    def test_unknown_link_endpoint_rejected(self):
        with pytest.raises(InvalidInputError):
            Topology(
                nodes=(NodeSpec(id="a", tier="device", compute_cost={}),),
                links=(LinkSpec("a", "ghost", 1e-3, 1e6, 0.0, 0),),
            )

    def test_duplicate_node_ids_rejected(self):
        with pytest.raises(InvalidInputError):
            Topology(
                nodes=(
                    NodeSpec(id="a", tier="device", compute_cost={}),
                    NodeSpec(id="a", tier="edge", compute_cost={}),
                ),
                links=(),
            )

    def test_duplicate_links_rejected(self):
        nodes = (
            NodeSpec(id="a", tier="device", compute_cost={}),
            NodeSpec(id="b", tier="edge", compute_cost={}),
        )
        with pytest.raises(InvalidInputError):
            Topology(
                nodes=nodes,
                links=(
                    LinkSpec("a", "b", 1e-3, 1e6, 0.0, 0),
                    LinkSpec("a", "b", 2e-3, 1e6, 0.0, 1),
                ),
            )

    def test_bad_tier_and_bad_link_params_rejected(self):
        with pytest.raises(InvalidInputError):
            NodeSpec(id="a", tier="fog", compute_cost={})
        with pytest.raises(InvalidInputError):
            LinkSpec("a", "b", 0.0, 1e6, 0.0, 0)
        with pytest.raises(InvalidInputError):
            LinkSpec("a", "b", 1e-3, 0.0, 0.0, 0)
        with pytest.raises(InvalidInputError):
            LinkSpec("a", "b", 1e-3, 1e6, -0.001, 0)

    def test_negative_link_seed_rejected(self):
        with pytest.raises(InvalidInputError, match=r"^link a->b seed must be >= 0$"):
            LinkSpec("a", "b", 1e-3, 1e6, 0.0, -1)
        doc = {
            "nodes": [{"id": "a", "tier": "device", "compute_cost": {}},
                      {"id": "b", "tier": "edge", "compute_cost": {}}],
            "links": [{"from": "a", "to": "b", "latency_s": 1e-3,
                       "bandwidth_bytes_per_s": 1e6, "seed": -1}],
        }
        with pytest.raises(InvalidScenarioError, match=r"^link a->b seed must be >= 0$"):
            topology_from_dict(doc)

    def test_non_finite_latency_and_jitter_rejected(self):
        for latency, jitter in ((math.inf, 0.0), (math.nan, 0.0), (1e-3, math.nan),
                                (1e-3, math.inf)):
            with pytest.raises(InvalidInputError):
                LinkSpec("a", "b", latency, 1e6, jitter, 0)

    def test_non_finite_compute_cost_rejected(self):
        for cost in (math.inf, math.nan, -1.0, True, False, "abc", "0.5", None, [0.1]):
            with pytest.raises(InvalidInputError,
                               match=re.escape("compute cost 'token' must be finite and >= 0")):
                NodeSpec(id="a", tier="device", compute_cost={"token": cost})

    @pytest.mark.parametrize("costs", [None, [("token", 1.0)], "token", 1.0])
    def test_compute_cost_map_must_be_a_dict(self, costs):
        with pytest.raises(InvalidInputError, match="^compute_cost must be a dict$"):
            NodeSpec(id="a", tier="device", compute_cost=costs)

    @pytest.mark.parametrize("value", [True, "abc", "x", None, [1.0]])
    @pytest.mark.parametrize("field", ["latency_s", "bandwidth_bytes_per_s", "jitter_s"])
    def test_non_real_link_params_rejected(self, field, value):
        params = {"latency_s": 1e-3, "bandwidth_bytes_per_s": 1e6, "jitter_s": 0.0, field: value}
        message = ("jitter must be finite and >= 0" if field == "jitter_s" else
                   "latency must be finite and > 0, bandwidth > 0")
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            LinkSpec("a", "b", seed=0, **params)

    @pytest.mark.parametrize("seed", [2.5, 2.0, True, "1", None, np.int64(1)])
    def test_non_int_link_seed_rejected_at_construction(self, seed):
        message = f"link a->b seed must be an int, got {seed!r}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            LinkSpec("a", "b", 1e-3, 1e6, 0.0, seed)

    def test_verify_cost_falls_back_to_token(self):
        topo = two_node_topology()
        assert topo.cost("edge", "verify") == topo.cost("edge", "token")

    def test_missing_cost_is_scenario_error(self):
        topo = two_node_topology()
        with pytest.raises(InvalidScenarioError):
            topo.cost("edge", "aggregate")

    def test_from_dict_roundtrip_and_errors(self):
        doc = {
            "nodes": [
                {"id": "device", "tier": "device", "compute_cost": {"token": 0.01}},
                {"id": "edge", "tier": "edge", "compute_cost": {"token": 0.03}},
            ],
            "links": [
                {"from": "device", "to": "edge", "latency_s": 1e-3,
                 "bandwidth_bytes_per_s": 1e7},
                {"from": "edge", "to": "device", "latency_s": 1e-3,
                 "bandwidth_bytes_per_s": 1e7, "jitter_s": 0.0, "seed": 2},
            ],
        }
        topo = topology_from_dict(doc)
        assert topo.link("device", "edge").src == "device"
        assert topo.link("edge", "device").seed == 2
        with pytest.raises(InvalidScenarioError):
            topology_from_dict({"nodes": [], "links": [{"from": "x"}]})
        bad = dict(doc, links=[{"from": "device", "to": "ghost",
                                "latency_s": 1e-3, "bandwidth_bytes_per_s": 1e7}])
        with pytest.raises(InvalidScenarioError):
            topology_from_dict(bad)

    def test_from_dict_names_mistyped_field(self):
        doc = {"nodes": [{"id": "a", "tier": "device", "compute_cost": {"token": "fast"}}],
               "links": []}
        with pytest.raises(InvalidScenarioError,
                           match=re.escape("topology.nodes[0].compute_cost.token must be number")):
            topology_from_dict(doc)
        doc = {"nodes": [{"id": "a", "tier": "device", "compute_cost": {}},
                         {"id": "b", "tier": "edge", "compute_cost": {}}],
               "links": [{"from": "a", "to": "b", "latency_s": "x",
                          "bandwidth_bytes_per_s": 1e6}]}
        with pytest.raises(InvalidScenarioError,
                           match=re.escape("topology.links[0].latency_s must be number, not 'x'")):
            topology_from_dict(doc)
        with pytest.raises(InvalidScenarioError, match="topology must be an object"):
            topology_from_dict(5)

    def test_from_dict_rejects_unknown_keys(self):
        def doc(node=None, link=None, top=None):
            return {
                "nodes": [{"id": "a", "tier": "device", "compute_cost": {}},
                          {"id": "b", "tier": "edge", "compute_cost": {}, **(node or {})}],
                "links": [{"from": "a", "to": "b", "latency_s": 1e-3,
                           "bandwidth_bytes_per_s": 1e6, **(link or {})}],
                **(top or {}),
            }

        assert topology_from_dict(doc()).link("a", "b").jitter_s == 0.0
        cases = [
            (doc(link={"jiter_s": 0.5}), "topology.links[0] has unknown fields: ['jiter_s']"),
            (doc(node={"cost": {}}), "topology.nodes[1] has unknown fields: ['cost']"),
            (doc(top={"link": []}), "topology has unknown fields: ['link']"),
        ]
        for bad, message in cases:
            with pytest.raises(InvalidScenarioError, match=re.escape(message)):
                topology_from_dict(bad)


class TestDeterminism:
    def test_same_seed_byte_identical_trace(self):
        topo = two_node_topology(jitter=5e-4)
        scn = specdec_scenario()
        t1, m1 = run_scenario(topo, scn, seed=9)
        t2, m2 = run_scenario(topo, scn, seed=9)
        assert serialize_trace(t1) == serialize_trace(t2)
        assert m1 == m2

    def test_different_seed_changes_jittered_trace(self):
        topo = two_node_topology(jitter=5e-4)
        scn = specdec_scenario()
        t1, _ = run_scenario(topo, scn, seed=9)
        t2, _ = run_scenario(topo, scn, seed=10)
        assert serialize_trace(t1) != serialize_trace(t2)

    @pytest.mark.parametrize("link_seed", [0, 1, 2])
    def test_link_jitter_draws_apart_from_the_tier_streams(self, link_seed):
        # Tier k of a decode run draws from Rng(seed).spawn(k), k = 0, 1, 2 (0 is
        # also a config link's default seed); links draw from Rng(seed).spawn(3).
        link = LinkSpec("device", "edge", 1e-3, 1e7, 5e-4, link_seed)
        net = _Net(Topology(nodes=two_node_topology().nodes, links=(link,)), 7)
        # Sends 10 s apart never wait on FIFO order: each arrives at now + delay.
        arrivals = [net.send(10.0 * i, "device", "edge", 0, "") for i in range(4)]

        def arrivals_on(rng):
            return [10.0 * i + transmit_time(FRAME_BYTES, link, rng) for i in range(4)]

        assert arrivals != arrivals_on(Rng(7).spawn(link_seed))
        assert arrivals == arrivals_on(Rng(7).spawn(3).spawn(link_seed))


class TestEventOrder:
    def test_trace_sorted_and_sequences_unique(self):
        topo = default_topology()
        trace, _ = run_scenario(topo, specdec_scenario(), seed=4)
        assert len(trace) > 0
        keys = [(e.time, e.seq) for e in trace]
        assert keys == sorted(keys)
        assert len(set(e.seq for e in trace)) == len(trace)
        assert all(e.time >= 0.0 for e in trace)
        kinds = {"compute-done", "message-delivered", "scenario-step"}
        assert all(e.kind in kinds for e in trace)


class TestSpecdecScenario:
    def exact_topology(self):
        return two_node_topology(latency=0.010, bandwidth=1e6)

    def test_full_acceptance_wall_is_hand_sum(self):
        topo = self.exact_topology()
        model = FixedModel([0.4, 0.3, 0.2, 0.1])
        cfg = ProtocolConfig(
            draft_len=4, tiers=("device", "edge"),
            per_token_compute_cost={"device": 0.010, "edge": 0.030},
        )
        trace, m = run_specdec_scenario(
            topo, cfg, {"device": model, "edge": model}, [0], 12, seed=1
        )
        up = 0.010 + (FRAME_BYTES + 16) / 1e6
        down = 0.010 + (FRAME_BYTES + 4) / 1e6
        per_round = 0.040 + up + 0.030 + down
        assert m.acceptance_rate == 1.0
        assert m.tokens_emitted == 12
        assert m.simulated_wall_s == pytest.approx(3 * per_round, rel=1e-12)
        assert m.bytes_up == 3 * (FRAME_BYTES + 16)
        assert m.bytes_down == 3 * (FRAME_BYTES + 4)
        assert m.device_compute_s == pytest.approx(0.120, rel=1e-12)
        assert m.server_compute_s == pytest.approx(0.090, rel=1e-12)

    def test_sequential_latency_decomposition_is_exact(self):
        topo = default_topology()
        trace, m = run_scenario(topo, specdec_scenario(), seed=4)
        total = m.device_compute_s + m.transmit_s + m.server_compute_s
        assert m.simulated_wall_s == pytest.approx(total, rel=1e-12)
        assert m.simulated_wall_s >= max(
            m.device_compute_s, m.transmit_s, m.server_compute_s
        )

    def test_pipelined_wall_at_most_component_sum(self):
        topo = default_topology()
        trace, m = run_scenario(topo, specdec_scenario(mode="pipelined"), seed=4)
        total = m.device_compute_s + m.transmit_s + m.server_compute_s
        assert m.simulated_wall_s <= total + 1e-12
        assert m.tokens_emitted == 40

    def test_pipelined_beats_sequential_on_identical_tiers(self):
        topo = default_topology()
        model = FixedModel([0.4, 0.3, 0.2, 0.1])
        costs = {"device": 0.010, "edge": 0.030}
        seq_cfg = ProtocolConfig(draft_len=4, tiers=("device", "edge"),
                                 per_token_compute_cost=costs)
        pip_cfg = ProtocolConfig(draft_len=4, tiers=("device", "edge"),
                                 per_token_compute_cost=costs, mode="pipelined")
        models = {"device": model, "edge": model}
        _, m_seq = run_specdec_scenario(topo, seq_cfg, models, [0], 24, seed=3)
        _, m_pip = run_specdec_scenario(topo, pip_cfg, models, [0], 24, seed=3)
        assert m_pip.tokens_emitted == m_seq.tokens_emitted == 24
        assert m_pip.simulated_wall_s < m_seq.simulated_wall_s

    def test_trace_bytes_match_metrics(self):
        topo = default_topology()
        scn = specdec_scenario(mode="sequential")
        scn["tiers"] = ["device", "edge", "cloud"]
        scn["models"]["cloud"] = {"layers": 4, "seed": 5}
        trace, m = run_scenario(topo, scn, seed=6)
        rank = {"device": 0, "edge": 1, "cloud": 2}
        up = sum(e.bytes for e in trace if e.kind == "message-delivered"
                 and rank[e.dst] > rank[e.src])
        down = sum(e.bytes for e in trace if e.kind == "message-delivered"
                   and rank[e.dst] < rank[e.src])
        assert up == m.bytes_up
        assert down == m.bytes_down
        assert all(e.bytes >= FRAME_BYTES for e in trace
                   if e.kind == "message-delivered")
        verdicts = [e.bytes for e in trace if e.kind == "message-delivered"
                    and rank[e.dst] < rank[e.src]]
        assert all((b - FRAME_BYTES) % 4 == 0 and b >= FRAME_BYTES + 4
                   for b in verdicts)

    def test_missing_tier_node_rejected(self):
        topo = two_node_topology()
        model = FixedModel([0.5, 0.5])
        cfg = ProtocolConfig(
            draft_len=2, tiers=("device", "cloud"),
            per_token_compute_cost={"device": 0.01, "cloud": 0.05},
        )
        with pytest.raises(InvalidScenarioError):
            run_specdec_scenario(topo, cfg, {"device": model, "cloud": model},
                                 [0], 4, seed=1)


def pipelined_pair(gamma):
    return ProtocolConfig(
        draft_len=gamma, tiers=("device", "edge"),
        per_token_compute_cost={"device": 0.010, "edge": 0.030}, mode="pipelined",
    )


def sequential_pair(gamma):
    return ProtocolConfig(
        draft_len=gamma, tiers=("device", "edge"),
        per_token_compute_cost={"device": 0.010, "edge": 0.030},
    )


def notes(trace, note):
    return sum(1 for e in trace if e.note == note)


class TestPipelinedSchedule:
    """Lookahead timing on a two-node, zero-jitter topology."""

    def test_all_accept_overlaps_drafting_and_verification(self):
        model = TableModel(4, 12)
        models = {"device": model, "edge": model}
        topo = two_node_topology()
        _, seq = run_specdec_scenario(topo, sequential_pair(3), models, [], 12, seed=8)
        trace, pip = run_specdec_scenario(topo, pipelined_pair(3), models, [], 12, seed=8)
        rounds = notes(trace, "verify")
        assert rounds == 4
        assert pip.simulated_wall_s < seq.simulated_wall_s
        # The wall can never beat the verifier's serial work plus the first
        # batch's drafting.
        assert pip.simulated_wall_s >= rounds * 0.030 + 3 * 0.010 - 1e-12
        assert pip.server_compute_s == pytest.approx(rounds * 0.030)

    def test_zero_acceptance_matches_sequential_wall(self):
        models = {"device": FixedModel([1.0, 0.0]), "edge": FixedModel([0.0, 1.0])}
        topo = two_node_topology()
        _, seq = run_specdec_scenario(topo, sequential_pair(2), models, [], 6, seed=5)
        _, pip = run_specdec_scenario(topo, pipelined_pair(2), models, [], 6, seed=5)
        _, stats = run_pipelined(pipelined_pair(2), models, [], 6, Rng(5))
        # Every round rejects at the first position, so no overlap is
        # possible and each round discards its lookahead batch.
        rounds = 6
        up = 1e-3 + (FRAME_BYTES + 2 * TOKEN_BYTES) / 1e7
        down = 1e-3 + (FRAME_BYTES + 2 * TOKEN_BYTES) / 1e7
        assert pip.simulated_wall_s == seq.simulated_wall_s
        assert pip.simulated_wall_s == pytest.approx(
            rounds * (2 * 0.010 + up + 0.030 + down), rel=1e-12
        )
        assert stats.discarded_batches == rounds
        assert pip.device_compute_s == pytest.approx(rounds * 2 * 2 * 0.010, rel=1e-12)

    def test_wall_never_exceeds_component_sum(self):
        models = {"device": TableModel(4, 1), "edge": TableModel(4, 2)}
        _, m = run_specdec_scenario(
            two_node_topology(), pipelined_pair(4), models, [3], 25, seed=17
        )
        assert m.tokens_emitted == 25
        total = m.device_compute_s + m.server_compute_s + m.transmit_s
        assert m.simulated_wall_s <= total + 1e-12

    def test_trailing_lookahead_is_counted(self):
        model = TableModel(5, 404)
        models = {"device": model, "edge": model}
        trace, m = run_specdec_scenario(
            two_node_topology(), pipelined_pair(3), models, [1, 2], 15, seed=55
        )
        _, stats = run_pipelined(pipelined_pair(3), models, [1, 2], 15, Rng(55))
        rounds = notes(trace, "verify")
        # Every batch is accepted, so only the batch drafted past the end is
        # discarded: its compute counts, but it is never shipped.
        assert stats.discarded_batches == 1
        assert notes(trace, "draft-batch") == notes(trace, "tokens") == rounds == 5
        assert m.device_compute_s == pytest.approx((rounds + 1) * 3 * 0.010, rel=1e-12)

    def test_links_stay_fifo_under_large_jitter(self):
        topo = two_node_topology(latency=0.05, jitter=0.04)
        scn = specdec_scenario(mode="pipelined", gamma=1, num_tokens=40)
        trace, _ = run_scenario(topo, scn, seed=3)
        in_send_order = sorted(trace, key=lambda e: e.seq)
        for link in (("device", "edge"), ("edge", "device")):
            arrivals = [e.time for e in in_send_order
                        if e.kind == "message-delivered" and (e.src, e.dst) == link]
            assert len(arrivals) == 40
            assert arrivals == sorted(arrivals)


def hop_bytes(trace, src, dst):
    """Bytes of each tokens message on one hop, in send order."""
    return [e.bytes for e in sorted(trace, key=lambda e: e.seq)
            if e.note == "tokens" and (e.src, e.dst) == (src, dst)]


class TestRoundCharges:
    """schedule_specdec alone decides what a round's messages carry."""

    @pytest.mark.parametrize("cfg", [sequential_pair(4), pipelined_pair(4)],
                             ids=["sequential", "pipelined"])
    def test_rejection_at_position_zero_still_ships_the_whole_batch(self, cfg):
        models = {"device": FixedModel([1.0, 0.0]), "edge": FixedModel([0.0, 1.0])}
        transcript = run_protocol(cfg, models, [], 5, Rng(2))
        assert [(r.scanned, r.accepted) for (r,) in transcript.per_round] == [(1, 0)] * 5
        trace, m = schedule_specdec(two_node_topology(), cfg, transcript, seed=2)
        # The device cannot know where the verifier rejects, so it sends all
        # draft_len tokens although only one position was scanned.
        assert hop_bytes(trace, "device", "edge") == [FRAME_BYTES + 4 * TOKEN_BYTES] * 5
        assert m.bytes_up == 5 * (FRAME_BYTES + 4 * TOKEN_BYTES)
        assert m.acceptance_rate == 0.0

    def test_later_hop_carries_the_lower_boundary_stream(self):
        cfg = ProtocolConfig(
            draft_len=4, tiers=("device", "edge", "cloud"),
            per_token_compute_cost={"device": 0.010, "edge": 0.030, "cloud": 0.050},
        )
        models = {"device": TableModel(4, 5), "edge": TableModel(4, 6),
                  "cloud": TableModel(4, 7)}
        transcript = run_protocol(cfg, models, [1], 40, Rng(31))
        firsts = [first.scanned for first, _ in transcript.per_round]
        assert min(firsts) < 4  # some round's edge rejected before the batch end
        trace, m = schedule_specdec(default_topology(), cfg, transcript, seed=31)
        rounds = transcript.totals.rounds
        assert hop_bytes(trace, "device", "edge") == [FRAME_BYTES + 4 * TOKEN_BYTES] * rounds
        assert hop_bytes(trace, "edge", "cloud") == [FRAME_BYTES + TOKEN_BYTES * n
                                                     for n in firsts]
        tops = [top for _, top in transcript.per_round]
        assert m.acceptance_rate == (sum(t.accepted for t in tops)
                                     / sum(t.scanned for t in tops))

    @pytest.mark.parametrize("run_tiers, price_tiers", [
        (("device", "edge", "cloud"), ("device", "edge")),
        (("device", "edge"), ("device", "edge", "cloud")),
    ], ids=["3-on-2", "2-on-3"])
    def test_round_records_must_match_the_tier_boundaries(self, run_tiers, price_tiers):
        costs = {"device": 0.010, "edge": 0.030, "cloud": 0.050}
        models = {"device": TableModel(4, 5), "edge": TableModel(4, 6),
                  "cloud": TableModel(4, 7)}
        run_cfg = ProtocolConfig(draft_len=4, tiers=run_tiers, per_token_compute_cost=costs)
        price_cfg = ProtocolConfig(draft_len=4, tiers=price_tiers, per_token_compute_cost=costs)
        transcript = run_protocol(run_cfg, models, [1], 12, Rng(31))
        message = (f"round 0 holds {len(run_tiers) - 1} boundary records; "
                   f"{len(price_tiers)} tiers need {len(price_tiers) - 1}")
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            schedule_specdec(default_topology(), price_cfg, transcript, seed=31)

    def test_a_short_later_round_is_named(self):
        cfg = ProtocolConfig(
            draft_len=4, tiers=("device", "edge", "cloud"),
            per_token_compute_cost={"device": 0.010, "edge": 0.030, "cloud": 0.050},
        )
        models = {"device": TableModel(4, 5), "edge": TableModel(4, 6),
                  "cloud": TableModel(4, 7)}
        transcript = run_protocol(cfg, models, [1], 12, Rng(31))
        rounds = list(transcript.per_round)
        rounds[2] = rounds[2][:1]
        short = replace(transcript, per_round=rounds)
        with pytest.raises(InvalidInputError, match="^round 2 holds 1 boundary records; "):
            schedule_specdec(default_topology(), cfg, short, seed=31)


class TestReadFields:
    TABLE = {"n": (int, REQUIRED), "x": (float, 0.5), "names": ([str], ["a"])}

    def test_typed_values_and_defaults(self):
        got = read_fields({"n": 3.0}, self.TABLE, "cfg")
        assert got == {"n": 3, "x": 0.5, "names": ["a"]} and type(got["n"]) is int
        got = read_fields({"n": 2, "x": 1, "names": []}, self.TABLE, "cfg")
        assert got == {"n": 2, "x": 1.0, "names": []} and type(got["x"]) is float

    @pytest.mark.parametrize("doc, message", [
        ({}, "cfg is missing field 'n'"),
        ({"n": "abc"}, "cfg.n must be int, not 'abc'"),
        ({"n": 2.5}, "cfg.n must be int, not 2.5"),
        ({"n": True}, "cfg.n must be int, not True"),
        ({"n": None}, "cfg.n must be int, not None"),
        ({"n": 1, "x": False}, "cfg.x must be number, not False"),
        ({"n": 1, "x": 10**400}, "cfg.x must be number, not 1000"),
        ({"n": 1, "names": "ab"}, "cfg.names must be list of string, not 'ab'"),
        ({"n": 1, "names": ["a", 3]}, "cfg.names must be list of string, not ['a', 3]"),
        ([1], "cfg must be an object, not [1]"),
        ({"n": 1, "other": None}, "cfg has unknown fields: ['other']"),
        # Unknown keys are named before any field is read.
        ({"n": "abc", "b": 1, "a": 2}, "cfg has unknown fields: ['a', 'b']"),
    ])
    def test_bad_fields_named(self, doc, message):
        with pytest.raises(InvalidScenarioError, match=re.escape(message)):
            read_fields(doc, self.TABLE, "cfg")

    def test_scenario_field_named(self):
        scn = dict(specdec_scenario(), gamma="abc")
        with pytest.raises(InvalidScenarioError, match=re.escape("scenario.gamma must be int")):
            run_scenario(default_topology(), scn, seed=1)


def read_specdec(scenario):
    """A specdec scenario as run_scenario reads it: decode entry and model sizes in one."""
    return read_fields(scenario, {"kind": (str, REQUIRED), **_SCENARIO_FIELDS["specdec"]}, "here")


class TestDecodeSetup:
    def verify_priced_topology(self):
        topo = two_node_topology()
        edge = NodeSpec(id="edge", tier="edge", compute_cost={"token": 0.030, "verify": 0.005})
        return Topology(nodes=(topo.nodes[0], edge), links=topo.links)

    def test_drafter_priced_by_token_verifier_by_verify(self):
        fields = read_specdec(specdec_scenario())
        cfg, models = decode_setup(self.verify_priced_topology(), fields, fields, "here")
        assert cfg.per_token_compute_cost == {"device": 0.010, "edge": 0.005}
        assert (cfg.tiers, cfg.draft_len, cfg.mode) == (("device", "edge"), 4, "sequential")
        assert set(models) == {"device", "edge"}

    def test_verify_events_cost_the_verify_entry(self):
        topo = self.verify_priced_topology()
        for mode in ("sequential", "pipelined"):
            trace, m = run_scenario(topo, specdec_scenario(mode=mode, num_tokens=12), seed=2)
            verifies = [e for e in trace if e.note == "verify"]
            assert verifies
            assert m.server_compute_s == pytest.approx(len(verifies) * 0.005, rel=1e-12)

    def test_topology_without_verify_prices_token(self):
        fields = read_specdec(specdec_scenario())
        cfg, _ = decode_setup(two_node_topology(), fields, fields, "here")
        assert cfg.per_token_compute_cost == {"device": 0.010, "edge": 0.030}


class TestTierModels:
    """tier_models as run_scenario calls it, with the scenario's read sizes."""

    def built_models(self, scenario, monkeypatch):
        built = []
        tier_models = cli.tier_models

        def recorded(*args, **kwargs):
            built.append(tier_models(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(cli, "tier_models", recorded)
        run_scenario(two_node_topology(), scenario, seed=1)
        return built[0]

    def test_sizes_default_to_model_defaults(self, monkeypatch):
        scn = {key: value for key, value in specdec_scenario(num_tokens=2).items()
               if key not in MODEL_DEFAULTS}
        scn["models"]["edge"]["layers"] = 2
        models = self.built_models(scn, monkeypatch)
        for model in models.values():
            cfg = model.lm.config
            assert (cfg.vocab_size, cfg.embed_dim, cfg.context_window) == (32, 16, 8)
        assert models["edge"].lm.config.num_layers == 2

    def test_missing_and_unknown_tiers_named(self):
        scn = specdec_scenario()
        del scn["models"]["edge"]
        with pytest.raises(InvalidScenarioError, match=r"scenario.models is missing field 'edge'"):
            run_scenario(two_node_topology(), scn, seed=1)
        scn["models"].update(edge={"layers": 1, "seed": 5}, moon={"layers": 1, "seed": 5})
        with pytest.raises(InvalidScenarioError,
                           match=r"scenario.models has unknown fields: \['moon'\]"):
            run_scenario(two_node_topology(), scn, seed=1)

    def test_bad_sizes_rejected(self):
        for sizes in ({"vocab_size": "many"}, {"vocab_size": 1}):
            with pytest.raises(InvalidScenarioError, match="vocab_size"):
                run_scenario(two_node_topology(), dict(specdec_scenario(), **sizes), seed=1)


class TestScenarioSchema:
    """docs/schemas/scenario.schema.json must describe what run_scenario takes."""

    def definitions(self):
        return json.loads(SCHEMA.read_text(encoding="utf-8"))["definitions"]

    @staticmethod
    def assert_table_matches(schema, fields, what):
        """The schema object lists fields' names, required names and defaults."""
        assert set(schema["properties"]) == set(fields), what
        required = {name for name, (_, default) in fields.items() if default is REQUIRED}
        assert set(schema.get("required", ())) == required, what
        assert schema["additionalProperties"] is False, what
        defaults = {name: default for name, (_, default) in fields.items()
                    if default is not REQUIRED}
        # A field without a schema default must default to None in the code.
        assert {name: schema["properties"][name].get("default") for name in defaults} \
            == defaults, what

    def test_scenario_properties_match_code(self):
        defs = self.definitions()
        kinds = {name[: -len("_scenario")] for name in defs if name.endswith("_scenario")}
        assert kinds == set(_SCENARIO_FIELDS)
        for kind, fields in _SCENARIO_FIELDS.items():
            self.assert_table_matches(
                defs[f"{kind}_scenario"], {"kind": (str, REQUIRED), **fields}, kind
            )

    def test_topology_properties_match_code(self):
        defs = self.definitions()
        self.assert_table_matches(defs["node"], _NODE_FIELDS, "node")
        self.assert_table_matches(defs["link"], _LINK_FIELDS, "link")

    def test_model_spec_properties_match_code(self):
        models = self.definitions()["specdec_scenario"]["properties"]["models"]
        self.assert_table_matches(models["additionalProperties"], _MODEL_SPEC_FIELDS, "model")

    def test_link_seed_is_a_spawn_key(self):
        seed = self.definitions()["link"]["properties"]["seed"]
        assert seed["type"] == "integer" and seed["minimum"] == 0

    def test_model_defaults_match_code(self):
        props = self.definitions()["specdec_scenario"]["properties"]
        assert {key: props[key]["default"] for key in MODEL_DEFAULTS} == MODEL_DEFAULTS


class TestSingleTier:
    def test_edge_only_has_zero_bytes(self):
        topo = default_topology()
        trace, m = run_single_tier_scenario(topo, "edge", 10)
        assert m.bytes_up == 0 and m.bytes_down == 0
        assert m.transmit_s == 0.0
        assert m.acceptance_rate == 1.0
        assert m.simulated_wall_s == pytest.approx(10 * 0.030, rel=1e-12)
        assert m.server_compute_s == m.simulated_wall_s
        assert all(e.kind == "compute-done" and e.src == "edge" for e in trace)

    def test_device_node_books_device_compute(self):
        topo = default_topology()
        _, m = run_single_tier_scenario(topo, "device", 7)
        assert m.device_compute_s == pytest.approx(7 * 0.010, rel=1e-12)
        assert m.server_compute_s == 0.0

    def test_zero_tokens(self):
        topo = default_topology()
        trace, m = run_single_tier_scenario(topo, "edge", 0)
        assert trace == [] and m.tokens_emitted == 0

    def test_overflowing_clock_raises(self):
        # One token at 1e308 s is a finite run; two overflow float64.
        topo = topology_from_dict({"nodes": [{"id": "solo", "tier": "device",
                                              "compute_cost": {"token": 1e308}}], "links": []})
        assert run_single_tier_scenario(topo, "solo", 1)[1].simulated_wall_s == 1e308
        with pytest.raises(InvalidScenarioError, match="^simulated time overflows float64: "):
            run_single_tier_scenario(topo, "solo", 2)

    @pytest.mark.parametrize("num_tokens", [2.5, True, False, -1, "3", None])
    def test_num_tokens_must_be_a_non_bool_int(self, num_tokens):
        with pytest.raises(InvalidInputError, match="num_tokens must be an int >= 0"):
            run_single_tier_scenario(default_topology(), "edge", num_tokens)


class TestTofcScenario:
    def make_inputs(self, num_points=32):
        fs = make_blob_features(num_points, 5, 4, Rng(21))
        rows = np.arange(fs.count)
        models = tuple(
            fit_laplacian(fs.features[rows % 2 == e], e) for e in range(2)
        )
        return fs, models

    def test_fewer_clusters_transmit_less(self):
        topo = two_node_topology(latency=1e-3, bandwidth=1e5)
        fs, models = self.make_inputs(32)
        big = TofcConfig(num_centers=32, k_neighbors=4, models=models)
        small = TofcConfig(num_centers=8, k_neighbors=4, models=models)
        _, m_big, s_big = run_tofc_scenario(topo, big, fs)
        _, m_small, s_small = run_tofc_scenario(topo, small, fs)
        assert s_big["M"] == 32 and s_small["M"] == 8
        assert m_small.transmit_s < m_big.transmit_s
        assert m_small.bytes_up < m_big.bytes_up

    def test_infinite_bandwidth_leaves_latency(self):
        topo = two_node_topology(latency=1e-3, bandwidth=1e12)
        fs, models = self.make_inputs(16)
        cfg = TofcConfig(num_centers=4, k_neighbors=3, models=models)
        _, m, _ = run_tofc_scenario(topo, cfg, fs)
        assert m.transmit_s >= 1e-3
        assert m.transmit_s == pytest.approx(1e-3, abs=1e-6)

    def test_decomposition_and_direction(self):
        topo = default_topology()
        fs, models = self.make_inputs(24)
        cfg = TofcConfig(num_centers=6, k_neighbors=3, models=models)
        trace, m, stats = run_tofc_scenario(topo, cfg, fs)
        total = m.device_compute_s + m.transmit_s + m.server_compute_s
        assert m.simulated_wall_s == pytest.approx(total, rel=1e-12)
        assert m.bytes_down == 0
        container = 10 + stats["M"] + 4 + stats["bytes"]
        assert m.bytes_up == FRAME_BYTES + container
        assert m.device_compute_s == pytest.approx(fs.count * 2e-4, rel=1e-12)
        assert m.server_compute_s == pytest.approx(stats["M"] * 1e-4, rel=1e-12)

    def test_zero_features_rejected(self):
        topo = default_topology()
        scn = {"kind": "tofc", "num_points": 0, "dim": 4, "num_centers": 2,
               "k_neighbors": 2}
        with pytest.raises(InvalidInputError):
            run_scenario(topo, scn, seed=1)


class TestCollab:
    def test_single_device_four_messages(self):
        topo = star_topology(1)
        trace, m = run_device_server_collab(topo, 1, seed=5)
        messages = [e for e in trace if e.kind == "message-delivered"]
        steps = [e for e in trace if e.kind == "scenario-step"]
        assert len(messages) == 4
        assert len(steps) == 1
        assert m.simulated_wall_s == trace[-1].time

    def test_aggregation_at_max_response_arrival(self):
        topo = star_topology(5)
        trace, _ = run_device_server_collab(topo, 5, seed=5)
        step = next(e for e in trace if e.kind == "scenario-step")
        responses = [e for e in trace
                     if e.kind == "message-delivered" and e.dst == "edge"
                     and e.time <= step.time]
        assert len(responses) == 5
        assert step.time == max(e.time for e in responses)

    def test_slow_link_governs_aggregation(self):
        lats = [1e-3, 2e-3, 50e-3, 3e-3, 4e-3]
        topo = star_topology(5, latencies=lats)
        trace, _ = run_device_server_collab(topo, 5, seed=5)
        step = next(e for e in trace if e.kind == "scenario-step")
        assert step.time >= 2 * 50e-3

    def test_too_few_device_nodes_rejected(self):
        topo = star_topology(2)
        with pytest.raises(InvalidScenarioError):
            run_device_server_collab(topo, 3, seed=1)

    @pytest.mark.parametrize("num_devices", [2.5, True, 0])
    def test_device_count_must_be_an_int(self, num_devices):
        message = re.escape(f"num_devices must be an int >= 1, got {num_devices!r}")
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            run_device_server_collab(star_topology(2), num_devices, 0)

    @pytest.mark.parametrize(
        "field", ["request_bytes", "response_bytes", "broadcast_bytes", "revision_bytes"]
    )
    def test_negative_message_size_rejected(self, field):
        topo = star_topology(2)
        scn = {"kind": "collab", "num_devices": 2}
        with pytest.raises(InvalidScenarioError, match=f"^{field} must be >= 0, got -10$"):
            run_scenario(topo, dict(scn, **{field: -10}), 1)
        _, m = run_scenario(topo, dict(scn, **{field: 0}), 1)
        assert m.simulated_wall_s > 0.0

    @pytest.mark.parametrize("value", [2.5, 2.0, True, False, "256", None, -2.5])
    @pytest.mark.parametrize(
        "field", ["request_bytes", "response_bytes", "broadcast_bytes", "revision_bytes"]
    )
    def test_message_size_must_be_an_int(self, field, value):
        message = re.escape(f"{field} must be an int, got {value!r}")
        with pytest.raises(InvalidScenarioError, match=f"^{message}$"):
            run_device_server_collab(star_topology(2), 2, 0, **{field: value})


class TestSpeedupTrend:
    def test_pipelined_device_edge_beats_edge_only(self):
        topo = default_topology()
        _, edge_m = run_single_tier_scenario(topo, "edge", 120)
        edge_tput = edge_m.tokens_emitted / edge_m.simulated_wall_s
        dev = FixedModel([0.6, 0.4, 0.0, 0.0])
        edge = FixedModel([0.25, 0.4, 0.35, 0.0])
        cfg = ProtocolConfig(
            draft_len=3, tiers=("device", "edge"),
            per_token_compute_cost={"device": 0.010, "edge": 0.030},
            mode="pipelined",
        )
        _, m = run_specdec_scenario(topo, cfg, {"device": dev, "edge": edge},
                                    [0], 150, seed=11)
        assert m.acceptance_rate >= 0.6
        assert m.tokens_emitted / m.simulated_wall_s > edge_tput

    def test_three_tier_beats_cloud_only(self):
        topo = default_topology()
        _, cloud_m = run_single_tier_scenario(topo, "cloud", 120)
        cloud_tput = cloud_m.tokens_emitted / cloud_m.simulated_wall_s
        dev = FixedModel([0.55, 0.25, 0.15, 0.05])
        edge = FixedModel([0.50, 0.25, 0.15, 0.10])
        cloud = FixedModel([0.45, 0.30, 0.15, 0.10])
        cfg = ProtocolConfig(
            draft_len=4, tiers=("device", "edge", "cloud"),
            per_token_compute_cost={"device": 0.010, "edge": 0.030,
                                    "cloud": 0.050},
        )
        models = {"device": dev, "edge": edge, "cloud": cloud}
        _, m = run_specdec_scenario(topo, cfg, models, [0], 150, seed=11)
        assert m.acceptance_rate >= 0.6
        assert m.tokens_emitted / m.simulated_wall_s > cloud_tput


class TestRunScenario:
    def test_empty_scenario(self):
        topo = default_topology()
        for scn in ({}, {"kind": "empty"}):
            trace, m = run_scenario(topo, scn, seed=1)
            assert trace == []
            assert m.tokens_emitted == 0
            assert m.simulated_wall_s == 0.0
            assert m.acceptance_rate == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidScenarioError):
            run_scenario(default_topology(), {"kind": "teleport"}, seed=1)

    def test_unhashable_kind_rejected(self):
        with pytest.raises(InvalidScenarioError, match=re.escape("unknown scenario kind [1]")):
            run_scenario(default_topology(), {"kind": [1]}, seed=1)

    def test_unknown_parameter_rejected(self):
        scn = {"kind": "single", "node": "edge", "num_tokens": 3, "warp": 9}
        with pytest.raises(InvalidScenarioError):
            run_scenario(default_topology(), scn, seed=1)

    def test_dangling_node_rejected(self):
        topo = default_topology()
        with pytest.raises(InvalidScenarioError):
            run_scenario(topo, {"kind": "single", "node": "moon",
                                "num_tokens": 3}, seed=1)
        scn = specdec_scenario()
        scn["tiers"] = ["device", "mars"]
        scn["models"] = {"device": {"layers": 1, "seed": 5},
                         "mars": {"layers": 2, "seed": 5}}
        with pytest.raises(InvalidScenarioError):
            run_scenario(topo, scn, seed=1)

    def test_specdec_scenario_emits_requested_tokens(self):
        topo = default_topology()
        for mode in ("sequential", "pipelined"):
            trace, m = run_scenario(topo, specdec_scenario(mode=mode), seed=2)
            assert m.tokens_emitted == 40
            assert m.bytes_up > 0 and m.bytes_down > 0

    def test_malformed_model_spec_rejected(self):
        topo = default_topology()
        scn = specdec_scenario()
        scn["models"] = {"device": {"layers": 1, "seed": 5}}
        with pytest.raises(InvalidScenarioError):
            run_scenario(topo, scn, seed=1)
        scn = specdec_scenario()
        scn["models"]["edge"] = {"seed": 5}
        with pytest.raises(InvalidScenarioError):
            run_scenario(topo, scn, seed=1)

    def test_collab_scenario_roundtrip(self):
        topo = star_topology(3)
        scn = {"kind": "collab", "num_devices": 3, "server": "edge"}
        trace, m = run_scenario(topo, scn, seed=4)
        assert len([e for e in trace if e.kind == "message-delivered"]) == 12
        with pytest.raises(InvalidScenarioError):
            run_scenario(topo, dict(scn, num_devices=9), seed=4)


class TestSerializeTrace:
    def test_key_order_and_framing(self):
        topo = default_topology()
        trace, _ = run_scenario(topo, specdec_scenario(num_tokens=8), seed=3)
        blob = serialize_trace(trace)
        lines = blob.decode("ascii").splitlines()
        assert len(lines) == len(trace)
        for line, event in zip(lines, trace):
            obj = json.loads(line)
            assert list(obj) == ["t", "seq", "kind", "src", "dst", "bytes"]
            assert obj["seq"] == event.seq
            assert "note" not in obj
        assert blob.endswith(b"\n")

    def test_empty_trace_serializes_empty(self):
        assert serialize_trace([]) == b""
