"""Scenario-driven command line front end.

Subcommands: decompose (low-rank layer studies), specdec (draft-verify
decoding sweeps), tofc (feature-compression sweeps), simulate (one scenario
on a described topology), report (merge finished run directories). Runs
are assembled from configs here: tier_models and decode_setup build the
decoders, run_scenario dispatches a simulate scenario to netsim.

Shared flags: --config PATH, --seed N (overrides the config's seed, which
is still checked), --out DIR, --format csv|json. main reads the whole
config and its topology once, with the command's table, before anything
is written; each cmd_* takes the fields that read returns and reads each
nested object (sweep entry, layer, scenario, model spec) once, with its
own table, so an unknown key anywhere is exit 2 naming it. An error is
printed once, as "error: <message>" on stderr. CSV output is RFC 4180
with LF line endings and 17 significant digits for reals, so identical
config and seed reproduce byte-identical files.

Every run directory gets a manifest.json written after all other files, the
completion marker: config path, resolved seed, tool version, output names,
and start/finish timestamps. Timestamps live only in the manifest so data
files stay reproducible.

Exit codes: 0 success, otherwise the exit_code of the error's class (see
errors.py): 2 configuration or scenario errors (including schema
mismatches in report); 3 I/O errors, including missing or corrupt input
files and incomplete run directories (an OSError is 3 too); 4 violated
internal invariants.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import REQUIRED, load_config, read_fields
from .errors import (
    AiflowError,
    ConfigError,
    IncompleteRunError,
    InvalidInputError,
    InvalidScenarioError,
    InvariantViolationError,
    IoError,
    SchemaError,
)
from .familial import (
    allocate_ranks,
    decompose_layer,
    parameter_ratio,
    truncation_loss,
    whiten,
)
from .netsim import (
    MetricsRecord,
    Topology,
    default_topology,
    run_device_server_collab,
    run_single_tier_scenario,
    run_specdec_scenario,
    run_tofc_scenario,
    schedule_specdec,
    serialize_trace,
    topology_from_dict,
)
from .numerics import Rng, svd_reduced
from .specdec import ProtocolConfig, draft, run_protocol
from .tofc import (
    TofcConfig,
    fit_laplacian_models,
    load_features,
    load_features_csv,
    make_blob_features,
)
from .toylm import LmDecoder, ToyLmConfig, build

def format_value(value) -> str:
    """One CSV cell: reals carry 17 significant digits, exact for doubles."""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])


class RunDir:
    """Output directory of one run; tracks files and writes the manifest.

    fmt is the --format choice: "json" mirrors each table as JSON.
    """

    def __init__(self, out_dir, config_path, seed, fmt):
        self.path = Path(out_dir)
        self.config_path = str(config_path) if config_path else None
        self.seed = seed
        self.fmt = fmt
        self.outputs = []
        self.started = _utc_now()

    def file(self, name: str) -> Path:
        """The path of output name; the directory is made with the first one."""
        self.path.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return self.path / name

    def table(self, name, header, rows):
        write_csv(self.file(f"{name}.csv"), header, rows)
        if self.fmt == "json":
            payload = [dict(zip(header, row)) for row in rows]
            _write_json(self.file(f"{name}.json"), payload)

    def finish(self):
        manifest = {
            "config": self.config_path,
            "seed": self.seed,
            "version": __version__,
            "out_dir": str(self.path),
            "outputs": sorted(self.outputs),
            "started_utc": self.started,
            "finished_utc": _utc_now(),
        }
        _write_json(self.path / "manifest.json", manifest)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _relative_gap(predicted: float, measured: float) -> float:
    scale = max(abs(predicted), abs(measured), 1e-30)
    return abs(predicted - measured) / scale


MODEL_DEFAULTS = {"vocab_size": 32, "embed_dim": 16, "context_window": 8}
MODEL_SIZE_FIELDS = {key: (int, default) for key, default in MODEL_DEFAULTS.items()}
_MODEL_SPEC_FIELDS = {"layers": (int, REQUIRED), "seed": (int, REQUIRED)}
DECODE_FIELDS = {
    "tiers": ([str], REQUIRED), "gamma": (int, REQUIRED), "mode": (str, "sequential"),
    "models": (dict, REQUIRED),
}


def tier_models(specs: dict, tiers, sizes: dict, where: str, built: dict | None = None) -> dict:
    """One toy decoder per tier from its {layers, seed} spec in specs.

    specs holds one spec per tier and nothing else. sizes holds the read
    vocab_size, embed_dim and context_window. where prefixes error
    messages, which name the offending field. built, when given, maps each
    ToyLmConfig to its decoder: a config found there is reused, a new one
    is built and added.
    """
    built = {} if built is None else built
    specs = read_fields(specs, dict.fromkeys(tiers, (dict, REQUIRED)), f"{where}.models")
    shared = {key: sizes[key] for key in MODEL_DEFAULTS}
    models = {}
    for tier in tiers:
        spec = read_fields(specs[tier], _MODEL_SPEC_FIELDS, f"{where}.models.{tier}")
        try:
            cfg = ToyLmConfig(num_layers=spec["layers"], seed=spec["seed"], **shared)
        except InvalidInputError as exc:
            raise InvalidScenarioError(f"{where}.models.{tier}: {exc}") from exc
        if cfg not in built:
            built[cfg] = LmDecoder(build(cfg))
        models[tier] = built[cfg]
    return models


def decode_setup(
    topology: Topology, entry: dict, sizes: dict, where: str, built: dict | None = None
):
    """(ProtocolConfig, tier models) from entry's tiers, gamma, mode, models.

    entry holds the DECODE_FIELDS as read_fields returned them, sizes the
    read model sizes and built the decoders built so far (see tier_models).
    The drafter is priced by its "token" cost, each verifier by its
    "verify" cost.
    """
    tiers = tuple(entry["tiers"])
    costs = {t: topology.cost(t, "verify" if i else "token") for i, t in enumerate(tiers)}
    try:
        cfg = ProtocolConfig(
            draft_len=entry["gamma"], tiers=tiers, per_token_compute_cost=costs,
            mode=entry["mode"],
        )
    except InvalidInputError as exc:
        raise InvalidScenarioError(f"{where}: {exc}") from exc
    return cfg, tier_models(entry["models"], tiers, sizes, where, built)


_DECOMPOSE_FIELDS = {
    "layers": ([dict], REQUIRED), "num_calib": (int, 64), "budget": (int, None),
    "h_values": ([int], None),
}
_LAYER_FIELDS = {"m": (int, REQUIRED), "n": (int, REQUIRED)}
_SPECDEC_FIELDS = {
    "prompt": ([int], [0]), "num_tokens": (int, REQUIRED), "configs": ([dict], REQUIRED),
    **MODEL_SIZE_FIELDS,
}
_TOFC_FIELDS = {
    "features": (str, REQUIRED), "num_centers_sweep": ([int], REQUIRED),
    "k_neighbors": (int, 4), "num_models": (int, 2), "device": (str, "device"),
    "server": (str, "edge"),
}


def cmd_decompose(fields: dict, seed: int, run: RunDir) -> None:
    """Low-rank sweep or budgeted allocation over seeded dense layers.

    Writes decompose.csv with layer, h, predicted_loss, measured_loss,
    param_ratio. The two loss columns are recomputed independently and must
    agree to 1e-8 relative; disagreement aborts the run as an invariant
    violation.
    """
    if not fields["layers"]:
        raise ConfigError("'layers' must be a non-empty list of {m, n} objects")
    num_calib = fields["num_calib"]
    prepared = []
    for i, spec in enumerate(fields["layers"]):
        m, n = read_fields(spec, _LAYER_FIELDS, f"layers[{i}]").values()
        if m < 1 or n < 1:
            raise ConfigError(f"layers[{i}] dimensions must be positive")
        if num_calib < n:
            raise ConfigError(
                f"layers[{i}]: 'num_calib' ({num_calib}) must be >= n ({n}) "
                "for an exactly factorizable covariance"
            )
        rng = Rng(seed).spawn(i)
        w = rng.normal_matrix(m, n)
        x = rng.normal_matrix(n, num_calib)
        ctx = whiten(x, ridge=0.0)
        sigma = svd_reduced(w @ ctx.s).sigma
        prepared.append((m, n, w, x, ctx, sigma))

    budget, h_values = fields["budget"], fields["h_values"]
    if budget is not None and h_values is not None:
        raise ConfigError("use either 'h_values' or 'budget', not both")
    if budget is not None:
        sweep = list(enumerate(allocate_ranks(
            [p[5] for p in prepared], [(p[0], p[1]) for p in prepared], budget
        )))
    elif h_values is not None:
        if not h_values:
            raise ConfigError("'h_values' must be non-empty")
        sweep = [
            (i, h)
            for i in range(len(prepared))
            for h in h_values
            if h <= min(prepared[i][0], prepared[i][1])
        ]
    else:
        raise ConfigError("config is missing field 'h_values' (or 'budget')")

    rows = []
    for i, h in sweep:
        m, n, w, x, ctx, sigma = prepared[i]
        layer = decompose_layer(w, ctx, h)
        predicted = truncation_loss(sigma, h)
        diff = w @ x - layer.apply(x)
        measured = float(np.sum(diff * diff))
        if _relative_gap(predicted, measured) > 1e-8 and predicted > 1e-16:
            raise InvariantViolationError(
                f"layer {i} h {h}: predicted loss {predicted!r} vs measured "
                f"{measured!r} beyond 1e-8 relative"
            )
        rows.append((i, h, predicted, measured, parameter_ratio(m, n, h)))
    run.table("decompose", ["layer", "h", "predicted_loss", "measured_loss", "param_ratio"], rows)


def _tv_distance(tokens_a, tokens_b, vocab) -> float:
    """Total variation distance between two streams' unigram histograms."""
    pa, pb = (
        np.bincount(np.asarray(t, dtype=np.int64), minlength=vocab) / max(len(t), 1)
        for t in (tokens_a, tokens_b)
    )
    return 0.5 * float(np.abs(pa - pb).sum())


def cmd_specdec(fields: dict, seed: int, run: RunDir) -> None:
    """Sweep draft-verify configurations; writes specdec.csv and summary.json.

    tv_distance_to_target compares the emitted token histogram against a
    verifier-only decode of the same length running on the drafter's random
    stream, so identical tiers reproduce the reference stream exactly and
    score 0. Each entry is decoded once and that transcript is priced on the
    topology; model sizes default to MODEL_DEFAULTS. Entries share
    each distinct tier model, and the reference of each distinct verifier.
    """
    prompt, num_tokens, topology = fields["prompt"], fields["num_tokens"], fields["topology"]
    if not fields["configs"]:
        raise ConfigError("'configs' must be a non-empty list")
    rows = []
    summary = []
    built = {}
    references = {}
    for idx, entry in enumerate(fields["configs"]):
        where = f"configs[{idx}]"
        entry = read_fields(entry, DECODE_FIELDS, where)
        proto, models = decode_setup(topology, entry, fields, where, built)
        transcript = run_protocol(proto, models, prompt, num_tokens, Rng(seed))
        _, metrics = schedule_specdec(topology, proto, transcript, seed)
        verifier = models[proto.tiers[-1]]
        key = verifier.lm.config
        if key not in references:  # the verifier alone, on the drafter's stream (spawn key 0)
            references[key] = (
                draft(verifier, prompt, num_tokens, Rng(seed).spawn(0)).tokens if num_tokens else []
            )
        tv = _tv_distance(transcript.emitted_tokens, references[key], verifier.vocab_size)
        mode, tiers, gamma = proto.mode, proto.tiers, proto.draft_len
        tput = metrics.tokens_emitted / metrics.simulated_wall_s if metrics.simulated_wall_s else 0.0
        rows.append(
            (mode, "+".join(tiers), gamma, metrics.acceptance_rate, tput, tv)
        )
        summary.append(
            {
                "mode": mode,
                "tiers": list(tiers),
                "gamma": gamma,
                "metrics": metrics.as_dict(),
                "tv_distance_to_target": tv,
            }
        )
    run.table("specdec", ["mode", "tiers", "gamma", "acceptance_rate", "sim_tokens_per_s",
                          "tv_distance_to_target"], rows)
    _write_json(run.file("summary.json"), summary)


def _load_feature_file(path: str):
    p = Path(path)
    try:
        if p.suffix == ".csv":
            return load_features_csv(p)
        return load_features(p)
    except InvalidInputError as exc:
        raise IoError(f"feature file {path} is unreadable: {exc}") from exc


def cmd_tofc(fields: dict, seed: int, run: RunDir) -> None:
    """Compression sweep over cluster counts; writes tofc.csv."""
    features = _load_feature_file(fields["features"])
    if not fields["num_centers_sweep"]:
        raise ConfigError("'num_centers_sweep' must be non-empty")
    models = fit_laplacian_models(features, fields["num_models"])
    rows = []
    for m_centers in fields["num_centers_sweep"]:
        tofc_cfg = TofcConfig(
            num_centers=m_centers, k_neighbors=fields["k_neighbors"], models=models
        )
        _, metrics, stats = run_tofc_scenario(
            fields["topology"], tofc_cfg, features, device=fields["device"],
            server=fields["server"], seed=seed,
        )
        rows.append(
            (
                stats["M"], stats["est_bits"], stats["bytes"], stats["balance"],
                metrics.device_compute_s, metrics.transmit_s,
                metrics.server_compute_s, metrics.simulated_wall_s,
            )
        )
    run.table("tofc", ["M", "est_bits", "payload_bytes", "balance", "device_s", "transmit_s",
                       "server_s", "wall_s"], rows)


_SCENARIO_FIELDS = {
    "empty": {},
    "specdec": {
        **DECODE_FIELDS, **MODEL_SIZE_FIELDS,
        "num_tokens": (int, REQUIRED), "prompt": ([int], [0]),
    },
    "single": {"node": (str, REQUIRED), "num_tokens": (int, REQUIRED)},
    "tofc": {
        "device": (str, "device"), "server": (str, "edge"), "num_points": (int, REQUIRED),
        "dim": (int, REQUIRED), "num_groups": (int, 4), "num_centers": (int, REQUIRED),
        "k_neighbors": (int, REQUIRED), "num_models": (int, 2),
        # None: the run seed.
        "feature_seed": (int, None),
    },
    "collab": {
        "server": (str, "edge"), "num_devices": (int, REQUIRED),
        "request_bytes": (int, 256), "response_bytes": (int, 1024),
        "broadcast_bytes": (int, 1024), "revision_bytes": (int, 512),
    },
}


def run_scenario(topology: Topology, scenario: dict, seed: int):
    """Dispatch a scenario description; returns (trace, MetricsRecord).

    The scenario is read once, with its kind's table plus "kind". An empty
    description (or kind "empty") produces an empty trace and zeroed
    metrics.
    """
    kind = scenario.get("kind", "empty")
    if not isinstance(kind, str) or kind not in _SCENARIO_FIELDS:
        raise InvalidScenarioError(f"unknown scenario kind {kind!r}")
    params = read_fields(scenario, {"kind": (str, kind), **_SCENARIO_FIELDS[kind]}, "scenario")
    del params["kind"]
    if kind == "empty":
        return [], MetricsRecord(0, 0.0, 0.0, 0.0, 0.0, 0, 0, 0.0)
    if kind == "single":
        return run_single_tier_scenario(topology, params["node"], params["num_tokens"])
    if kind == "specdec":
        cfg, models = decode_setup(topology, params, params, "scenario")
        return run_specdec_scenario(
            topology, cfg, models, params["prompt"], params["num_tokens"], seed
        )
    if kind == "tofc":
        feature_seed = seed if params["feature_seed"] is None else params["feature_seed"]
        features = make_blob_features(
            params["num_points"], params["dim"], params["num_groups"], Rng(feature_seed)
        )
        try:
            models = fit_laplacian_models(features, params["num_models"])
            cfg = TofcConfig(params["num_centers"], params["k_neighbors"], models)
        except InvalidInputError as exc:
            raise InvalidScenarioError(str(exc)) from exc
        trace, metrics, _ = run_tofc_scenario(
            topology, cfg, features, params["device"], params["server"], seed
        )
        return trace, metrics
    return run_device_server_collab(topology, seed=seed, **params)


def cmd_simulate(fields: dict, seed: int, run: RunDir) -> None:
    """One scenario on a described topology; writes trace.jsonl and metrics."""
    trace, metrics = run_scenario(fields["topology"], fields["scenario"], seed)
    with open(run.file("trace.jsonl"), "wb") as fh:
        fh.write(serialize_trace(trace))
    metric_dict = metrics.as_dict()
    header = list(metric_dict)
    run.table("metrics", header, [tuple(metric_dict[k] for k in header)])


def _plain_name(name) -> bool:
    """Whether name is a file name inside its directory, not a path out of it."""
    return isinstance(name, str) and name not in ("", ".", "..") and not set(name) & set("/\\\0")


def _read_outputs(run_dir: Path) -> list:
    """The output names that run_dir's manifest lists, each a plain file name."""
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.exists():
        raise IncompleteRunError(f"{run_dir} has no manifest.json; run incomplete")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise IncompleteRunError(f"unreadable manifest in {run_dir}: {exc}") from exc
    outputs = manifest.get("outputs") if isinstance(manifest, dict) else None
    if not isinstance(outputs, list) or not all(map(_plain_name, outputs)):
        raise IncompleteRunError(
            f"unreadable manifest in {run_dir}: it must be an object whose 'outputs' "
            "is a list of file names"
        )
    return outputs


def _read_csv_rows(path: Path):
    try:
        with open(path, "r", newline="", encoding="ascii") as fh:
            rows = list(csv.reader(fh))
    except (OSError, ValueError, csv.Error) as exc:  # ValueError: a non-ASCII byte
        raise IoError(f"cannot read table {path}: {exc}") from exc
    if not rows:
        raise SchemaError(f"{path} is empty")
    return rows[0], rows[1:]


def _xy_series(header, rows):
    """Long-form plot data: y-column vs the first fully numeric column."""
    numeric = []
    for idx in range(len(header)):
        try:
            values = [float(r[idx]) for r in rows]
        except (ValueError, IndexError):
            continue
        numeric.append((idx, values))
    if len(numeric) < 2:
        return []
    x_idx, x_values = numeric[0]
    out = []
    for idx, values in numeric[1:]:
        name = f"{header[idx]} vs {header[x_idx]}"
        out.extend((name, x, y) for x, y in zip(x_values, values))
    return out


def cmd_report(run_dirs, run: RunDir) -> None:
    """Merge finished run directories into consolidated tables.

    A run's id is the basename of its resolved directory, so `.` and `a/..`
    name the directories they stand for; two runs with one id, or a path
    that resolves to the filesystem root, are a config error naming the
    paths. Only the CSVs a run's manifest lists are read, and every run is
    read before anything is written. A single run's tables pass through
    unchanged. Multiple runs with equal headers are row-concatenated under
    a leading run_id column; differing headers are a schema error naming
    both column sets. Each table's <t>_xy series is written afresh; a run's
    own <t>_xy.csv beside <t>.csv, an earlier report's, is not read.
    """
    if not run_dirs:
        raise ConfigError("report needs at least one run directory")
    tables = {}  # name -> (header, {run_id: rows}), in first-seen order
    run_paths = {}
    for run_dir in run_dirs:
        rd = Path(run_dir)
        run_id = rd.resolve().name
        if not run_id:
            raise ConfigError(f"run directory {run_dir} has no name to use as its run id")
        if run_id in run_paths:
            raise ConfigError(
                f"runs {run_paths[run_id]} and {run_dir} share the run id {run_id!r}"
            )
        run_paths[run_id] = run_dir
        tables_listed = [name for name in _read_outputs(rd) if name.endswith(".csv")]
        # A <t>_xy.csv beside <t>.csv is an earlier report's series of <t>.
        derived = {f"{name[:-len('.csv')]}_xy.csv" for name in tables_listed}
        for name in tables_listed:
            if name in derived:
                continue
            header, rows = _read_csv_rows(rd / name)
            base, by_run = tables.setdefault(name, (header, {}))
            if header != base:
                raise SchemaError(
                    f"{name}: columns {header} from run {run_id} do not match {base}"
                )
            by_run[run_id] = rows
    consolidated = []
    for name, (header, by_run) in tables.items():
        rows = [row for run_rows in by_run.values() for row in run_rows]
        if len(by_run) == 1:
            write_csv(run.file(name), header, rows)
        else:
            write_csv(run.file(name), ["run_id"] + header,
                      ([run_id] + row for run_id, run_rows in by_run.items() for row in run_rows))
        series = _xy_series(header, rows)
        if series:
            run.table(f"{name[:-len('.csv')]}_xy", ["series", "x", "y"], series)
        consolidated.append({"table": name, "rows": len(rows)})
    _write_json(
        run.file("report.json"),
        {"runs": list(run_paths), "tables": consolidated},
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aiflow",
        description="Deterministic decomposition, decoding, and compression studies.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_COMMANDS, "report"):
        p = sub.add_parser(name)
        if name == "report":
            p.add_argument("runs", nargs="+")
        else:
            p.add_argument("--config", required=True)
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", required=True)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


_COMMANDS = {
    "decompose": cmd_decompose,
    "specdec": cmd_specdec,
    "tofc": cmd_tofc,
    "simulate": cmd_simulate,
}
# Each command's whole top-level config; a None topology is the default one.
_TOPOLOGY_FIELD = {"topology": (dict, None)}
_CONFIG_FIELDS = {
    "decompose": _DECOMPOSE_FIELDS,
    "specdec": {**_SPECDEC_FIELDS, **_TOPOLOGY_FIELD},
    "tofc": {**_TOFC_FIELDS, **_TOPOLOGY_FIELD},
    "simulate": {"scenario": (dict, {}), **_TOPOLOGY_FIELD},
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "report":
            run = RunDir(args.out, None, 0, args.format)
            cmd_report(args.runs, run)
            run.finish()
            return 0
        fields = read_fields(
            load_config(args.config), {"seed": (int, 0), **_CONFIG_FIELDS[args.command]}, "config"
        )
        if "topology" in fields:
            doc = fields["topology"]
            fields["topology"] = default_topology() if doc is None else topology_from_dict(doc)
        seed = fields["seed"] if args.seed is None else args.seed
        run = RunDir(args.out, args.config, seed, args.format)
        _COMMANDS[args.command](fields, seed, run)
        run.finish()
        return 0
    except (AiflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, AiflowError) else 3


if __name__ == "__main__":
    sys.exit(main())
