"""The package modules form layers; a module may import only from lower
layers, so each piece of the curvature algebra has one home below its users.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "pherm"

# modules sharing a layer (liemodels and maps) must not import each other
LAYERS = {
    "spaces": 0,
    "algebra": 1,
    "invariants": 2,
    "liemodels": 3,
    "maps": 3,
    "cli": 4,
}


def package_imports(path: Path) -> set[str]:
    """Names of the package modules that a source file imports, anywhere in it."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:  # from .x import y
                found.add(node.module.split(".")[0])
            elif node.level == 1:  # from . import x
                found.update(alias.name for alias in node.names)
            elif node.level == 0 and (node.module or "").startswith("pherm."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("pherm.")
            )
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_module_imports_only_lower_layers(module):
    imported = package_imports(SRC / f"{module}.py") - {module}
    upward = sorted(m for m in imported if LAYERS[m] >= LAYERS[module])
    assert upward == [], f"{module} imports from its own or a later layer: {upward}"
