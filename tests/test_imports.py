"""Every name a frontalforge module imports is used by that module."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import frontalforge

SRC = Path(frontalforge.__file__).parent

# Imported but unused on purpose: perfbench/tracer.py patches these names in
# the module's namespace, so they must be bound there.
TRACER_PATCHED = {("analysis", "_fd_jacobian"), ("analysis", "jacobian_f"),
                  ("analysis", "jacobian_nu"), ("cli", "curve_to_svg"),
                  ("cli", "sample_poles"), ("cli", "sampled_map_to_csv"),
                  ("verify", "negative_pedal")}

MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def imported_and_used(path):
    """(names bound by imports, names the rest of the module reads)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return imported, used


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    imported, used = imported_and_used(SRC / f"{module}.py")
    allowed = {name for mod, name in TRACER_PATCHED if mod == module}
    assert sorted(imported - used - allowed) == []


def test_allowlist_is_current():
    """Each allowlisted name is still imported and still unused; one the
    module starts to use, or stops importing, leaves the list."""
    for module, name in sorted(TRACER_PATCHED):
        imported, used = imported_and_used(SRC / f"{module}.py")
        assert name in imported and name not in used, (module, name)


def _parse(module):
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def test_one_evaluation_route():
    """A frontal is evaluated through Frontal alone: no other module reads
    its maps, and a transformed frontal evaluates its source in one place,
    its jet."""
    for module in MODULES:
        if module != "frontal":
            read = sorted(node.attr for node in ast.walk(_parse(module))
                          if isinstance(node, ast.Attribute)
                          and node.attr in ("f", "nu", "jac_f", "jac_nu"))
            assert read == [], module
    tree = _parse("transforms")
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "eval_wrapped"]
    jets = [node for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "jet"]
    assert len(calls) == 1 and len(jets) == 1
    assert any(node is calls[0] for node in ast.walk(jets[0]))


def test_cli_import_leaves_out_concurrent_futures():
    """verify imports its thread pool when a suite first splits; importing
    concurrent.futures (and logging with it) at start-up would cost every
    command about 10 ms."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    code = ("import sys, frontalforge.cli; "
            "sys.exit('concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
