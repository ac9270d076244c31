"""Import layering of the aiflow package, read from the source with ast.

aiflow.config is a leaf that only reads config documents; netsim is only the
simulator (it builds no models and runs no configs); cli is the top, which
nothing else imports.
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


def test_toylm_imports_neither_protocol_nor_simulator():
    # The shared-trunk pair scorer lives in toylm; specdec imports it.
    assert package_imports("toylm").isdisjoint({"specdec", "netsim"})
