"""Every name a frontalforge module imports is used by that module."""
import ast
from pathlib import Path

import pytest

import frontalforge

SRC = Path(frontalforge.__file__).parent

# Imported but unused on purpose: perfbench/tracer.py patches these names in
# the module's namespace, so they must be bound there.
TRACER_PATCHED = {("analysis", "_fd_jacobian"), ("analysis", "jacobian_f"),
                  ("analysis", "jacobian_nu"), ("cli", "curve_to_svg"),
                  ("cli", "sampled_map_to_csv"),
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
