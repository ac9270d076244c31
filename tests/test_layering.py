"""Import layering of the aiflow package, read from the source with ast.

aiflow.config is a leaf that only reads config documents; netsim is only the
simulator (it builds no models and runs no configs); cli is the top, which
nothing else imports, and modules import no `_`-prefixed name from each
other. specdec holds tier models to the decoder contract:
vocab_size and next_dist. Every public function, class and method is run by
the package itself, and every public record field is read by it, or each is
listed with the reason it is kept.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "aiflow"


def _tree(module):
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def package_imports(module) -> set:
    """Names of the aiflow modules that module imports ("" for the package itself)."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                parts = (node.module or "").split(".")
                if parts[0] == "aiflow":
                    found.add(".".join(parts[1:2]))
            elif node.module:
                found.add(node.module.split(".")[0])
            else:
                found.update(a.name if (SRC / f"{a.name}.py").exists() else ""
                             for a in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "aiflow":
                    found.add(".".join(parts[1:2]))
    return found


def modules():
    return sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def test_config_imports_only_errors():
    assert package_imports("config") == {"errors"}


def test_netsim_imports_neither_models_nor_front_end():
    assert package_imports("netsim").isdisjoint({"toylm", "cli"})


def test_only_cli_imports_cli():
    assert [m for m in modules() if m != "cli" and "cli" in package_imports(m)] == []


def test_netsim_defines_no_config_layer():
    tree = _tree("netsim")
    defined = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for n in tree.body if isinstance(n, ast.Assign)
                for t in n.targets if isinstance(t, ast.Name)}
    moved = {"read_fields", "tier_models", "decode_setup", "run_scenario", "zero_metrics"}
    assert defined.isdisjoint(moved)


def test_modules_share_rules_only_through_public_names():
    # A rule two modules share, such as the array budget or the point limit,
    # is a public name of the module that states it; only the package's
    # __version__ is a dunder import.
    imported = {
        (module, alias.name)
        for module in modules()
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "aiflow")
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert imported == {("cli", "__version__")}


def test_toylm_imports_neither_protocol_nor_simulator():
    # The shared-trunk chain scorer lives in toylm; specdec imports it.
    assert package_imports("toylm").isdisjoint({"specdec", "netsim"})


def _is_model(node, names) -> bool:
    """Whether node is a tier model: a name in names, or an item of a models dict."""
    if isinstance(node, ast.Subscript):
        return isinstance(node.value, ast.Name) and node.value.id == "models"
    return isinstance(node, ast.Name) and node.id in names


def model_reads(module) -> set:
    """Attributes the module reads from tier models.

    A tier model is a function parameter named model or *_model, an item
    models[...] of a parameter named models, or a name assigned from one.
    getattr or hasattr on a model counts as reading "getattr".
    """
    tree = _tree(module)
    names = {a.arg for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
             for a in f.args.args if a.arg == "model" or a.arg.endswith("_model")}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_model(node.value, names):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_model(node.value, names):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr")
              and any(_is_model(a, names) for a in node.args)):
            reads.add("getattr")
    return reads


def test_specdec_reads_only_the_decoder_contract_from_tier_models():
    assert model_reads("specdec") == {"next_dist", "vocab_size"}


def test_container_imports_only_errors_and_numerics():
    assert package_imports("container") == {"errors", "numerics"}


def test_only_container_opens_container_files():
    for module in ("toylm", "familial", "tofc"):
        calls = [n for n in ast.walk(_tree(module)) if isinstance(n, ast.Call)
                 and isinstance(n.func, ast.Name) and n.func.id == "open"]
        assert calls == [], module


# Public names and fields that no code in src/aiflow uses or reads, each with why it stays.
UNCALLED_API = {
    "toylm.forward_full": "acceptance criterion 5 (exit/resume alignment)",
    "toylm.forward_exit": "acceptance criterion 5 (exit/resume alignment)",
    "toylm.resume_from": "acceptance criterion 5 (exit/resume alignment)",
    "tofc.estimate_rate": "acceptance criterion 7 (ideal code length vs coded bytes)",
    "familial.hpcd_build": "acceptance criterion 8; width-familial members (ROADMAP item 8)",
    "familial.hpcd_truncate": "acceptance criterion 8; width-familial members (ROADMAP item 8)",
    "toylm.save_model": "TOYL container; shipped members (ROADMAP items 8 and 10)",
    "toylm.load_model": "TOYL container; shipped members (ROADMAP items 8 and 10)",
    "familial.save_layer": "FAMD container; shipped members (ROADMAP items 8 and 10)",
    "familial.load_layer": "FAMD container; shipped members (ROADMAP items 8 and 10)",
    "numerics.Rng.normal": "the scalar reference that normal_matrix must reproduce",
    "toylm.calibration_activations": "the decode benchmark's family jobs (ROADMAP item 1)",
    "toylm.attach_branch": "the decode benchmark's family jobs (ROADMAP item 1)",
    "tofc.decode": "the compress benchmark and acceptance criterion 7",
    "tofc.Bitstream.from_bytes": "the compress benchmark's container round trip",
    "tofc.save_features": "the compress benchmark and the FEAT container tests",
    "netsim.Event.note": "the trace tests; the trace export (ROADMAP item 5)",
    "specdec.DecodeTranscript.totals": "the README and the transcript tests; the benchmark's "
                                       "specdec.rounds",
    "specdec.TranscriptTotals.corrections": "the transcript-totals tests",
    "specdec.TranscriptTotals.rejected": "the README and the transcript-totals tests",
    "specdec.TranscriptTotals.rounds": "the transcript tests; the benchmark's specdec.rounds",
    "specdec.PipelineStats.discarded_batches": "the benchmark's specdec.discarded_batches",
    "tofc.ClusterResult.center_indices": "acceptance criterion 6 and the DPC-KNN oracle tests",
    "tofc.ClusterResult.assignment": "acceptance criterion 6 and the DPC-KNN oracle tests",
    "tofc.ClusterResult.rho": "the DPC-KNN density and distance oracle tests",
    "tofc.ClusterResult.delta": "the DPC-KNN density and distance oracle tests",
}


def public_definitions():
    """(qualified name, module, name, node) of each public top-level def, and of each
    public-class method and annotated field."""
    for module in modules():
        for node in _tree(module).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield f"{module}.{node.name}", module, node.name, node
                if isinstance(node, ast.ClassDef):
                    for item in node.body:
                        if isinstance(item, ast.FunctionDef):
                            name = item.name
                        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                            name = item.target.id
                        else:
                            continue
                        if not name.startswith("_"):
                            yield f"{module}.{node.name}.{name}", module, name, item


def unreferenced_api() -> set:
    """Public definitions whose name no src/aiflow code outside their own body reads.

    A reference to a def is a bare name or an attribute of that name, so a method
    counts as used when any attribute access anywhere shares its name. A field is
    read only as an attribute: a local variable or keyword of its name is not a read.
    """
    names, attrs = {}, {}
    for module in modules():
        for node in ast.walk(_tree(module)):
            if isinstance(node, ast.Name):
                names.setdefault(node.id, []).append((module, node.lineno))
            elif isinstance(node, ast.Attribute):
                attrs.setdefault(node.attr, []).append((module, node.lineno))
    unread = set()
    for qual, module, name, node in public_definitions():
        refs = attrs.get(name, [])
        if not isinstance(node, ast.AnnAssign):
            refs = refs + names.get(name, [])
        if all(m == module and node.lineno <= line <= node.end_lineno for m, line in refs):
            unread.add(qual)
    return unread


def test_every_public_definition_has_a_caller_or_a_reason():
    unlisted = unreferenced_api() - set(UNCALLED_API)
    assert unlisted == set(), "public and used by nothing in src/aiflow: " + ", ".join(
        sorted(unlisted))


def test_uncalled_api_list_names_only_uncalled_definitions():
    assert set(UNCALLED_API) - unreferenced_api() == set()
