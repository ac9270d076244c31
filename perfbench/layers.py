"""Per-layer metrics derived from a trace file written by a traced run.

Usage: ``python3 perfbench/layers.py .perfbench/trace-<workload>-full.json``
prints the metrics again, offline, from the file alone.

Self time: a span's self time is its duration minus the time covered by
descendants in other modules (child spans and counted calls). Calls within
one module stay in the caller's self time, so ``tofc.route.self_s`` includes
the ``estimate_rate`` calls it makes and ``numerics.normal_matrix.self_s``
the normal draws. A module's self time sums the spans through which control
enters it from another module or from the benchmark.

A metric whose functions no longer exist, or whose hook could not read its
numbers, is reported missing rather than zero. A ratio whose denominator is
zero on a workload (no tokens on compress, no symbols on decode)
reads 0.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

# (name, unit, better), in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("numerics.uniform.calls", "count", "lower"),
    ("numerics.normal_matrix.self_s", "s", "lower"),
    ("numerics.cholesky_lower.self_s", "s", "lower"),
    ("numerics.solve_lower_triangular.self_s", "s", "lower"),
    ("numerics.svd_reduced.self_s", "s", "lower"),
    ("familial.whiten.self_s", "s", "lower"),
    ("familial.decompose_layer.calls", "count", "lower"),
    ("familial.decompose_layer.self_s", "s", "lower"),
    ("familial.allocate_ranks.self_s", "s", "lower"),
    ("toylm.positions", "count", "lower"),
    ("toylm.positions_per_token", "ratio", "lower"),
    ("toylm.forward.self_s", "s", "lower"),
    ("toylm.forward_us.ctx_short", "us", "lower"),
    ("toylm.forward_us.ctx_long", "us", "lower"),
    ("toylm.build.self_s", "s", "lower"),
    ("toylm.calibration_activations.self_s", "s", "lower"),
    ("specdec.rounds", "count", "lower"),
    ("specdec.drafted", "count", "lower"),
    ("specdec.accepted", "count", "higher"),
    ("specdec.accept_ratio", "ratio", "higher"),
    ("specdec.discarded_batches", "count", "lower"),
    ("specdec.draft.self_s", "s", "lower"),
    ("specdec.verify.self_s", "s", "lower"),
    ("specdec.protocol.self_s", "s", "lower"),
    ("tofc.dpc_knn_cluster.self_s", "s", "lower"),
    ("tofc.estimate_rate.calls", "count", "lower"),
    ("tofc.route.self_s", "s", "lower"),
    ("tofc.encode.self_s", "s", "lower"),
    ("tofc.decode.self_s", "s", "lower"),
    ("tofc.symbols", "count", "lower"),
    ("tofc.escapes", "count", "lower"),
    ("tofc.payload_bytes", "bytes", "lower"),
    ("tofc.bits_per_symbol", "bit/symbol", "lower"),
    ("rangecoder.encode.calls", "count", "lower"),
    ("rangecoder.encode.self_s", "s", "lower"),
    ("rangecoder.decode.calls", "count", "lower"),
    ("rangecoder.decode.self_s", "s", "lower"),
    ("netsim.events", "count", "lower"),
    ("netsim.messages", "count", "lower"),
    ("netsim.bytes_up", "bytes", "lower"),
    ("netsim.bytes_down", "bytes", "lower"),
    ("netsim.scenario.self_s", "s", "lower"),
    ("netsim.serialize_trace.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}

_SCENARIOS = ("netsim.run_specdec_scenario", "netsim.run_tofc_scenario",
              "netsim.run_single_tier_scenario", "netsim.run_device_server_collab")
_SHORT_CTX = 256
_LONG_CTX = 1024


class Missing(Exception):
    """A metric's function or hook is absent from the trace."""


def _ratio(num, den):
    return num / den if den else 0.0


class TraceView:
    """Aggregates of one trace document, computed once."""

    def __init__(self, doc: dict):
        self.doc = doc
        names = [f["name"] for f in doc["functions"]]
        modules = [f["module"] for f in doc["functions"]]
        self.known = set(names)
        spans = doc["spans"]
        foreign = [0.0] * len(spans)
        # Children always follow their parent, so one backward pass settles
        # every child before its parent reads it.
        for i in range(len(spans) - 1, -1, -1):
            fn, start, end, parent, _job, _attrs, counted = spans[i]
            if counted:
                foreign[i] += sum(s for mod, s in counted.items() if mod != modules[fn])
            if parent >= 0:
                same = modules[spans[parent][0]] == modules[fn]
                foreign[parent] += foreign[i] if same else end - start
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.entry_self_s = defaultdict(float)
        self.attrs = defaultdict(list)
        self.durations = defaultdict(list)
        for i, (fn, start, end, parent, _job, attrs, _counted) in enumerate(spans):
            name, mod = names[fn], modules[fn]
            own = end - start - foreign[i]
            self.calls[name] += 1
            self.self_s[name] += own
            self.durations[name].append(end - start)
            if parent < 0 or modules[spans[parent][0]] != mod:
                self.entry_self_s[mod] += own
            if attrs is not None:
                self.attrs[name].append(attrs)

    def need(self, *names):
        absent = [n for n in names if n not in self.known]
        if absent:
            raise Missing(", ".join(absent))

    def count(self, name):
        self.need(name)
        return self.calls[name]

    def fn_self(self, *names):
        self.need(*names)
        return sum(self.self_s[n] for n in names)

    def module_self(self, module, probe):
        self.need(probe)
        return self.entry_self_s[module]

    def counted(self, name, field=0):
        self.need(name)
        return self.doc["counted"].get(name, [0, 0.0])[field]

    def attr_sum(self, key, *names):
        self.need(*names)
        total = 0
        for n in names:
            for attrs in self.attrs[n]:
                if "hook_error" in attrs:
                    raise Missing(f"{n}: {attrs['hook_error']}")
                total += attrs[key]
        return total

    def ctx_us(self, low, high):
        self.need("toylm.LmDecoder.next_dist")
        durations = self.durations["toylm.LmDecoder.next_dist"]
        picked = [d for d, a in zip(durations, self.attrs["toylm.LmDecoder.next_dist"])
                  if low <= a["ctx"] < high]
        return 1e6 * _ratio(sum(picked), len(picked))


def _metrics(t: TraceView, doc: dict) -> dict:
    tokens = doc["items"] if doc["item"] == "tokens" else 0
    enc = ("rangecoder.RangeEncoder.encode", "rangecoder.RangeEncoder.encode_raw")
    dec = ("rangecoder.RangeDecoder.decode_freq", "rangecoder.RangeDecoder.decode_update",
           "rangecoder.RangeDecoder.decode_raw")
    return {
        "numerics.uniform.calls": lambda: t.counted("numerics.Rng.uniform"),
        "numerics.normal_matrix.self_s": lambda: t.fn_self("numerics.Rng.normal_matrix"),
        "numerics.cholesky_lower.self_s": lambda: t.fn_self("numerics.cholesky_lower"),
        "numerics.solve_lower_triangular.self_s":
            lambda: t.fn_self("numerics.solve_lower_triangular"),
        "numerics.svd_reduced.self_s": lambda: t.fn_self("numerics.svd_reduced"),
        "familial.whiten.self_s": lambda: t.fn_self("familial.whiten"),
        "familial.decompose_layer.calls": lambda: t.count("familial.decompose_layer"),
        "familial.decompose_layer.self_s": lambda: t.fn_self("familial.decompose_layer"),
        "familial.allocate_ranks.self_s": lambda: t.fn_self("familial.allocate_ranks"),
        "toylm.positions": lambda: t.count("toylm.LmDecoder.next_dist"),
        "toylm.positions_per_token":
            lambda: _ratio(t.count("toylm.LmDecoder.next_dist"), tokens),
        "toylm.forward.self_s":
            lambda: t.fn_self("toylm.forward_full", "toylm.forward_exit", "toylm.resume_from"),
        "toylm.forward_us.ctx_short": lambda: t.ctx_us(0, _SHORT_CTX),
        "toylm.forward_us.ctx_long": lambda: t.ctx_us(_LONG_CTX, float("inf")),
        "toylm.build.self_s": lambda: t.fn_self("toylm.build"),
        "toylm.calibration_activations.self_s":
            lambda: t.fn_self("toylm.calibration_activations"),
        "specdec.rounds":
            lambda: t.attr_sum("rounds", "specdec.run_sequential", "specdec.run_pipelined"),
        "specdec.drafted": lambda: t.attr_sum("drafted", "specdec.verify"),
        "specdec.accepted": lambda: t.attr_sum("accepted", "specdec.verify"),
        "specdec.accept_ratio": lambda: _ratio(t.attr_sum("accepted", "specdec.verify"),
                                               t.attr_sum("drafted", "specdec.verify")),
        "specdec.discarded_batches": lambda: t.attr_sum("discarded", "specdec.run_pipelined"),
        "specdec.draft.self_s": lambda: t.fn_self("specdec.draft"),
        "specdec.verify.self_s": lambda: t.fn_self("specdec.verify"),
        "specdec.protocol.self_s": lambda: t.module_self("specdec", "specdec.run_round")
            - t.fn_self("specdec.draft", "specdec.verify"),
        "tofc.dpc_knn_cluster.self_s": lambda: t.fn_self("tofc.dpc_knn_cluster"),
        "tofc.estimate_rate.calls": lambda: t.count("tofc.estimate_rate"),
        "tofc.route.self_s": lambda: t.fn_self("tofc.route"),
        "tofc.encode.self_s": lambda: t.fn_self("tofc.encode"),
        "tofc.decode.self_s": lambda: t.fn_self("tofc.decode"),
        "tofc.symbols": lambda: t.attr_sum("symbols", "tofc.encode"),
        "tofc.escapes": lambda: t.counted("rangecoder.RangeEncoder.encode_raw"),
        "tofc.payload_bytes": lambda: t.attr_sum("payload_bytes", "tofc.encode"),
        "tofc.bits_per_symbol": lambda: _ratio(8 * t.attr_sum("payload_bytes", "tofc.encode"),
                                               t.attr_sum("symbols", "tofc.encode")),
        "rangecoder.encode.calls": lambda: t.counted("rangecoder.RangeEncoder.encode"),
        "rangecoder.encode.self_s": lambda: sum(t.counted(n, 1) for n in enc)
            + t.fn_self("rangecoder.RangeEncoder.finish"),
        "rangecoder.decode.calls": lambda: t.counted("rangecoder.RangeDecoder.decode_freq"),
        "rangecoder.decode.self_s": lambda: sum(t.counted(n, 1) for n in dec),
        "netsim.events": lambda: t.attr_sum("events", *_SCENARIOS),
        "netsim.messages": lambda: t.attr_sum("messages", *_SCENARIOS),
        "netsim.bytes_up": lambda: t.attr_sum("bytes_up", *_SCENARIOS),
        "netsim.bytes_down": lambda: t.attr_sum("bytes_down", *_SCENARIOS),
        "netsim.scenario.self_s":
            lambda: t.module_self("netsim", "netsim.run_specdec_scenario")
            - t.fn_self("netsim.serialize_trace"),
        "netsim.serialize_trace.self_s": lambda: t.fn_self("netsim.serialize_trace"),
        "cli.self_s": lambda: t.module_self("cli", "cli.main"),
        "trace.overhead_ratio": lambda: doc["traced_s"] / doc["untraced_s"],
    }


def per_layer_metrics(doc: dict) -> tuple[dict, dict]:
    """({name: value} for every metric present, {name: why} for the missing)."""
    view = TraceView(doc)
    values, missing = {}, {}
    for name, compute in _metrics(view, doc).items():
        try:
            values[name] = compute()
        except Missing as exc:
            missing[name] = f"missing: {exc}"
    return values, missing


def main(argv) -> int:
    with open(argv[1], encoding="ascii") as fh:
        doc = json.load(fh)
    values, missing = per_layer_metrics(doc)
    for name, unit, _ in PER_LAYER:
        shown = values.get(name, missing.get(name))
        print(f"{name} = {shown} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
