"""Deterministic discrete-event simulation of a device-edge-cloud deployment.

Compute is priced by fixed per-op costs on each node, links by latency +
payload/bandwidth + seeded uniform jitter. Every message carries a 16-byte
frame; token indices cost 4 bytes each, and links deliver in FIFO order: no
message arrives before one sent earlier on the same link, whatever the
jitter. Decode scenarios first run the timing-free protocol (token streams
never depend on timing), then one scheduler, schedule_specdec, lays the
transcript's rounds out on the simulated clock for both decode modes, so
identical inputs always produce byte-identical traces.

A decode round is charged from its records, one (scanned, accepted) per tier
boundary. The first hop carries draft_len tokens: the device sends the whole
batch, since it cannot know where the verifier will reject. A later hop
carries the previous boundary's scanned tokens, the stream the tier below
emitted. A boundary drew a correction exactly when accepted < scanned. Its
verdict carries one 4-byte accept count plus 4 bytes per token the receiver
has not seen: the verifier's correction, and in three-tier runs the middle
tier's correction when the top tier accepted it into the stream.

One object per run holds the link jitter streams, the FIFO arrival times,
the transmit and byte totals and the event rows; every runner logs through
it and returns what it finishes with: (trace, MetricsRecord).

Event sequencing: events are logged in causal order, numbered in that order,
and the final trace is sorted by (time, sequence). Trace serialization is
JSON lines with exactly the keys t, seq, kind, src, dst, bytes; the
in-memory events also carry a free-form note that is not serialized.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .config import REQUIRED, read_fields
from .errors import InvalidInputError, InvalidScenarioError
from .numerics import Rng, is_real, require_int
from .specdec import ProtocolConfig, run_protocol
from .tofc import TofcConfig, tofc_pipeline

FRAME_BYTES = 16
TOKEN_BYTES = 4
_TIERS = ("device", "edge", "cloud")
_TIER_RANK = {t: i for i, t in enumerate(_TIERS)}


@dataclass(frozen=True)
class NodeSpec:
    id: str
    tier: str
    compute_cost: dict

    def __post_init__(self):
        if self.tier not in _TIERS:
            raise InvalidInputError(f"unknown tier {self.tier!r}")
        if not isinstance(self.compute_cost, dict):
            raise InvalidInputError("compute_cost must be a dict")
        for op, cost in self.compute_cost.items():
            if not (is_real(cost) and 0.0 <= cost < math.inf):
                raise InvalidInputError(f"compute cost {op!r} must be finite and >= 0")


@dataclass(frozen=True)
class LinkSpec:
    src: str
    dst: str
    latency_s: float
    bandwidth_bytes_per_s: float
    jitter_s: float = 0.0
    seed: int = 0

    def __post_init__(self):
        latency, bandwidth, jitter = self.latency_s, self.bandwidth_bytes_per_s, self.jitter_s
        if not (is_real(latency) and 0.0 < latency < math.inf
                and is_real(bandwidth) and bandwidth > 0.0):
            raise InvalidInputError("latency must be finite and > 0, bandwidth > 0")
        if not (is_real(jitter) and 0.0 <= jitter < math.inf):
            raise InvalidInputError("jitter must be finite and >= 0")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise InvalidInputError(
                f"link {self.src}->{self.dst} seed must be an int, got {self.seed!r}"
            )
        if self.seed < 0:
            raise InvalidInputError(f"link {self.src}->{self.dst} seed must be >= 0")


@dataclass(frozen=True)
class Topology:
    nodes: tuple
    links: tuple

    def __post_init__(self):
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            raise InvalidInputError("node ids must be unique")
        known = set(ids)
        seen = set()
        for link in self.links:
            if link.src not in known or link.dst not in known:
                raise InvalidInputError(f"link {link.src}->{link.dst} names unknown nodes")
            if (link.src, link.dst) in seen:
                raise InvalidInputError(f"duplicate link {link.src}->{link.dst}")
            seen.add((link.src, link.dst))

    def node(self, node_id: str) -> NodeSpec:
        for n in self.nodes:
            if n.id == node_id:
                return n
        raise InvalidScenarioError(f"scenario references unknown node {node_id!r}")

    def link(self, src: str, dst: str) -> LinkSpec:
        for l in self.links:
            if l.src == src and l.dst == dst:
                return l
        raise InvalidScenarioError(f"scenario needs a link {src}->{dst}")

    def cost(self, node_id: str, op: str) -> float:
        costs = self.node(node_id).compute_cost
        if op in costs:
            return float(costs[op])
        if op == "verify" and "token" in costs:
            # Verification is one forward pass, priced like one token.
            return float(costs["token"])
        raise InvalidScenarioError(f"node {node_id!r} has no cost for op {op!r}")


@dataclass(frozen=True)
class Event:
    time: float
    seq: int
    kind: str
    src: str | None
    dst: str | None
    bytes: int
    note: str = ""


@dataclass(frozen=True)
class MetricsRecord:
    tokens_emitted: int
    simulated_wall_s: float
    device_compute_s: float
    transmit_s: float
    server_compute_s: float
    bytes_up: int
    bytes_down: int
    acceptance_rate: float

    def as_dict(self) -> dict:
        return asdict(self)


def transmit_time(num_bytes: int, link: LinkSpec, rng: Rng) -> float:
    """Seconds on the wire: latency + jitter + serialization, floored at 0."""
    if num_bytes < 0:
        raise InvalidInputError("byte count must be >= 0")
    jitter = (2.0 * rng.uniform() - 1.0) * link.jitter_s if link.jitter_s > 0.0 else 0.0
    t = link.latency_s + jitter + num_bytes / link.bandwidth_bytes_per_s
    return max(t, 0.0)


# The encoder json.dumps builds for these separators, built once, not per row.
_ROW_ENCODER = json.JSONEncoder(separators=(",", ":"))


def serialize_trace(trace) -> bytes:
    """JSON-lines trace, one {t, seq, kind, src, dst, bytes} per event."""
    lines = []
    for e in trace:
        obj = {
            "t": e.time,
            "seq": e.seq,
            "kind": e.kind,
            "src": e.src,
            "dst": e.dst,
            "bytes": e.bytes,
        }
        lines.append(_ROW_ENCODER.encode(obj))
    return ("\n".join(lines) + ("\n" if lines else "")).encode("ascii")


class _Net:
    """One simulated run: jitter streams, FIFO ordering, byte totals, events."""

    def __init__(self, topology: Topology, seed: int):
        self.topology = topology
        base = Rng(seed)
        self._rngs = {(l.src, l.dst): base.spawn(l.seed) for l in topology.links}
        self._last_arrival = {}
        self._rows = []
        self.transmit_s = 0.0
        self.bytes_up = 0
        self.bytes_down = 0

    def log(self, time: float, node: str, note: str, kind: str = "compute-done"):
        """Record a step that happens on one node and moves no bytes."""
        self._rows.append((float(time), kind, node, node, 0, note))

    def send(self, now: float, src: str, dst: str, payload_bytes: int, note: str):
        """Deliver and log a message, keeping per-link FIFO order; returns arrival."""
        num_bytes = FRAME_BYTES + payload_bytes
        t = transmit_time(num_bytes, self.topology.link(src, dst), self._rngs[(src, dst)])
        self.transmit_s += t
        if _TIER_RANK[self.topology.node(dst).tier] >= _TIER_RANK[self.topology.node(src).tier]:
            self.bytes_up += num_bytes
        else:
            self.bytes_down += num_bytes
        arrival = max(now + t, self._last_arrival.get((src, dst), 0.0))
        self._last_arrival[(src, dst)] = arrival
        self._rows.append((float(arrival), "message-delivered", src, dst, int(num_bytes), note))
        return arrival

    def finish(self, tokens, wall_s, device_s, server_s, acceptance=1.0):
        """The run's trace, sorted by (time, seq), and its MetricsRecord."""
        times = (wall_s, device_s, server_s, self.transmit_s, *(row[0] for row in self._rows))
        if not all(map(math.isfinite, times)):
            raise InvalidScenarioError("simulated time overflows float64: costs too large to sum")
        events = [Event(t, seq, *row) for seq, (t, *row) in enumerate(self._rows)]
        events.sort(key=lambda e: (e.time, e.seq))
        return events, MetricsRecord(
            tokens, wall_s, device_s, self.transmit_s, server_s, self.bytes_up,
            self.bytes_down, acceptance,
        )


def _verdict_payloads(records):
    """Bytes of each return-hop verdict for one round's boundary records.

    Top-down hop order. Each verdict carries a 4-byte accept count plus the
    correction tokens the receiving side has not seen yet.
    """
    final = records[-1]
    final_corr = int(final.accepted < final.scanned)
    if len(records) == 1:
        return [TOKEN_BYTES * (1 + final_corr)]
    mid = records[0]
    mid_corr_survived = int(mid.accepted < mid.scanned and final.accepted > mid.accepted)
    return [
        TOKEN_BYTES * (1 + final_corr),
        TOKEN_BYTES * (1 + final_corr + mid_corr_survived),
    ]


def _acceptance_rate(per_round):
    """Accepted fraction of scanned positions at each round's emission boundary."""
    scanned = sum(records[-1].scanned for records in per_round)
    return sum(records[-1].accepted for records in per_round) / scanned if scanned else 1.0


def run_specdec_scenario(
    topology: Topology, cfg: ProtocolConfig, models: dict, prompt, num_tokens: int,
    seed: int,
):
    """Draft-verify decoding laid out on the simulated network.

    Runs the protocol in cfg.mode on Rng(seed), then prices the transcript
    with schedule_specdec. Returns (trace, MetricsRecord).
    """
    transcript = run_protocol(cfg, models, prompt, num_tokens, Rng(seed))
    return schedule_specdec(topology, cfg, transcript, seed)


def schedule_specdec(topology: Topology, cfg: ProtocolConfig, transcript, seed: int):
    """Lay a decode transcript's rounds out on the simulated network.

    cfg.tiers name topology nodes, drafter first. Each round drafts, sends
    the batch up the tier chain with one verify forward per boundary, and
    returns the verdicts hop by hop; every message goes through the links.
    A sequential round drafts once the last verdict reaches the drafter. A
    pipelined round verifies the batch the drafter made one round ahead,
    unless the last round's correction discarded it; then the drafter starts
    afresh once that verdict arrives. The simulated device still drafts each
    lookahead speculatively, before its verdict, so its compute is priced
    even where specdec skips the forwards of a discarded one. Every round
    must hold one record per tier boundary, len(cfg.tiers) - 1. Returns
    (trace, MetricsRecord).
    """
    for role in cfg.tiers:
        topology.node(role)
    net = _Net(topology, seed)
    device = cfg.tiers[0]
    draft_cost = cfg.draft_len * cfg.per_token_compute_cost[device]
    device_compute = 0.0
    server_compute = 0.0
    verdict_at = 0.0
    free_at = {}
    lookahead_done = None
    for r, records in enumerate(transcript.per_round):
        if len(records) != len(cfg.tiers) - 1:
            raise InvalidInputError(
                f"round {r} holds {len(records)} boundary records; "
                f"{len(cfg.tiers)} tiers need {len(cfg.tiers) - 1}"
            )
        if lookahead_done is None:
            draft_done = verdict_at + draft_cost
            device_compute += draft_cost
        else:
            draft_done = lookahead_done
        net.log(draft_done, device, "draft-batch")
        if cfg.mode == "pipelined":
            # At most one batch ahead: the lookahead starts once this batch
            # is drafted and the verdict on the batch before it is in.
            lookahead_done = max(draft_done, verdict_at) + draft_cost
            device_compute += draft_cost
        now = draft_done
        batch = cfg.draft_len
        for lower, upper, rec in zip(cfg.tiers, cfg.tiers[1:], records):
            now = net.send(now, lower, upper, TOKEN_BYTES * batch, "tokens")
            batch = rec.scanned
            verify_cost = cfg.per_token_compute_cost[upper]
            now = max(now, free_at.get(upper, 0.0)) + verify_cost
            free_at[upper] = now
            server_compute += verify_cost
            net.log(now, upper, "verify")
        payloads = _verdict_payloads(records)
        for hop, payload in enumerate(payloads):
            upper = cfg.tiers[len(cfg.tiers) - 1 - hop]
            lower = cfg.tiers[len(cfg.tiers) - 2 - hop]
            now = net.send(now, upper, lower, payload, "verdict")
        verdict_at = now
        if records[-1].accepted < records[-1].scanned:
            lookahead_done = None
    return net.finish(
        len(transcript.emitted_tokens), verdict_at, device_compute, server_compute,
        _acceptance_rate(transcript.per_round),
    )


def run_single_tier_scenario(topology: Topology, node_id: str, num_tokens: int):
    """Autoregressive baseline on one node: no network, one forward per token."""
    require_int("num_tokens", num_tokens, 0)
    node = topology.node(node_id)
    cost = topology.cost(node_id, "token")
    net = _Net(topology, 0)  # sends nothing, so the seed draws nothing
    now = 0.0
    for _ in range(num_tokens):
        now += cost
        net.log(now, node_id, "token")
    on_device = node.tier == "device"
    return net.finish(num_tokens, now, now if on_device else 0.0, 0.0 if on_device else now)


def run_tofc_scenario(
    topology: Topology, cfg: TofcConfig, features, device: str = "device",
    server: str = "edge", seed: int = 0,
):
    """Compress on the device, uplink the container, decode on the server."""
    net = _Net(topology, seed)
    encode_cost = topology.cost(device, "feature") * features.count
    decode_cost = topology.cost(server, "decode")
    bs, stats = tofc_pipeline(features, cfg)
    blob = bs.to_bytes()
    now = encode_cost
    net.log(now, device, "tofc-encode")
    now = net.send(now, device, server, len(blob), "bitstream")
    server_cost = decode_cost * stats["M"]
    now += server_cost
    net.log(now, server, "tofc-decode")
    return (*net.finish(0, now, encode_cost, server_cost), stats)


def run_device_server_collab(
    topology: Topology, num_devices: int, seed: int, server: str = "edge",
    request_bytes: int = 256, response_bytes: int = 1024,
    broadcast_bytes: int = 1024, revision_bytes: int = 512,
):
    """Four-step choreography: request, parallel responses, aggregate, revise.

    The aggregation step fires exactly at the latest response arrival; the
    broadcast goes out after the server's aggregation compute, and the run
    ends when every revision has arrived back.
    """
    require_int("num_devices", num_devices, 1)
    sizes = {"request_bytes": request_bytes, "response_bytes": response_bytes,
             "broadcast_bytes": broadcast_bytes, "revision_bytes": revision_bytes}
    for name, size in sizes.items():
        if not isinstance(size, int) or isinstance(size, bool):
            raise InvalidScenarioError(f"{name} must be an int, got {size!r}")
        if size < 0:
            raise InvalidScenarioError(f"{name} must be >= 0, got {size}")
    devices = [n.id for n in topology.nodes if n.tier == "device"][:num_devices]
    if len(devices) < num_devices:
        raise InvalidScenarioError(
            f"topology has {len(devices)} device nodes, scenario needs {num_devices}"
        )
    topology.node(server)
    net = _Net(topology, seed)
    response_arrivals = []
    for dev in devices:
        t_req = net.send(0.0, server, dev, request_bytes, "request")
        response_arrivals.append(net.send(t_req, dev, server, response_bytes, "response"))
    agg_at = max(response_arrivals)
    net.log(agg_at, server, "aggregate", "scenario-step")
    agg_cost = float(topology.node(server).compute_cost.get("aggregate", 0.0))
    broadcast_at = agg_at + agg_cost
    revision_arrivals = []
    for dev in devices:
        t_b = net.send(broadcast_at, server, dev, broadcast_bytes, "broadcast")
        revision_arrivals.append(net.send(t_b, dev, server, revision_bytes, "revision"))
    wall = max(revision_arrivals)
    return net.finish(0, wall, 0.0, agg_cost)


def default_topology() -> Topology:
    """Documented default: 10/30/50 ms per token, millisecond-scale links."""
    return Topology(
        nodes=(
            NodeSpec(
                id="device", tier="device",
                compute_cost={"token": 0.010, "feature": 2e-4, "aggregate": 0.0},
            ),
            NodeSpec(
                id="edge", tier="edge",
                compute_cost={"token": 0.030, "decode": 1e-4, "aggregate": 0.0},
            ),
            NodeSpec(
                id="cloud", tier="cloud",
                compute_cost={"token": 0.050, "decode": 1e-4, "aggregate": 0.0},
            ),
        ),
        links=(
            LinkSpec("device", "edge", 1e-3, 1e7, 0.0, 1),
            LinkSpec("edge", "device", 1e-3, 1e7, 0.0, 2),
            LinkSpec("edge", "cloud", 2e-3, 1e8, 0.0, 3),
            LinkSpec("cloud", "edge", 2e-3, 1e8, 0.0, 4),
        ),
    )


_NODE_FIELDS = {"id": (str, REQUIRED), "tier": (str, REQUIRED), "compute_cost": (dict, REQUIRED)}
_LINK_FIELDS = {
    "from": (str, REQUIRED), "to": (str, REQUIRED), "latency_s": (float, REQUIRED),
    "bandwidth_bytes_per_s": (float, REQUIRED), "jitter_s": (float, 0.0), "seed": (int, 0),
}


def topology_from_dict(doc: dict) -> Topology:
    """The topology a config's "topology" object describes."""
    top = read_fields(doc, {"nodes": ([dict], REQUIRED), "links": ([dict], REQUIRED)}, "topology")
    try:
        nodes = []
        for i, spec in enumerate(top["nodes"]):
            where = f"topology.nodes[{i}]"
            node = read_fields(spec, _NODE_FIELDS, where)
            costs = node["compute_cost"]
            costs = read_fields(
                costs, dict.fromkeys(costs, (float, REQUIRED)), f"{where}.compute_cost"
            )
            nodes.append(NodeSpec(node["id"], node["tier"], costs))
        links = []
        for i, spec in enumerate(top["links"]):
            where = f"topology.links[{i}]"
            # _LINK_FIELDS lists LinkSpec's fields in order.
            links.append(LinkSpec(*read_fields(spec, _LINK_FIELDS, where).values()))
        return Topology(nodes=tuple(nodes), links=tuple(links))
    except InvalidInputError as exc:
        raise InvalidScenarioError(str(exc)) from exc
